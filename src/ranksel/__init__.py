"""Rank-sum based robust model selection with bootstrap confidence sets."""

from .bootstrap import (BootstrapConfig, BootstrapResult, multiplier_min_bootstrap,
                        normal_quantile, p_value, run_min_bootstrap)
from .errors import ConfigError, ContractError, DataError, LearnerError, RankselError
from .models import (Dataset, FittedLinear, LossFn, adaptive_tau, enumerate_subsets,
                     fit_huber_adaptive, fit_huber_lasso, fit_ols, huber_location,
                     lambda_fold_correction, lambda_path, loss_eval, mad_scale)
from .ranksum import LossPanel, PairStats, pair_stats, ranksum_u, se_ranksum
from .rng import TieStreams, keyed_stream, multiplier_matrix, subseed
from .select import (Candidate, ConfidenceSet, SelectionConfig, cv_select,
                     cvc_style_select, make_folds, panel_from_folds, pcv_select,
                     rsr_from_candidates, rsr_from_panel, screen)
from .simlab import (AggregateReport, Case1Config, Case2Config, ar1_design,
                     run_case1, run_case2, sample_student_t)

__version__ = "0.1.0"
