"""Simulation studies: heavy-tailed subset selection and lasso tuning.

Case 1 draws low-dimensional regressions with t-distributed designs and
Cauchy noise, fits every intercept-bearing covariate subset by adaptive
Huber regression, and compares the selection methods on out-of-fold Huber
losses. ``subset_panel`` fits the subset models of one size and one
training size, across all folds, in one stacked IRLS call. Case 2 draws
high-dimensional AR(1)-correlated Gaussian designs with t noise and treats
a 50-point lasso penalty path as the candidate family; the sparsest penalty
in each confidence set is refit on the full data after the fold-size
correction.

Replicates are independent jobs keyed by (seed, replicate); running them
across processes changes nothing but wall time.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
# fit_huber_adaptive and panel_from_folds are no longer called here, but
# perfbench/tracing.py wraps these module attributes (ROADMAP item 9).
from .models import fit_huber_adaptive  # noqa: F401
from .models import (Dataset, FittedLinear, LossFn, adaptive_tau, enumerate_subsets,
                     fit_huber_lasso, fit_huber_stack, huber_lasso_lipschitz,
                     huber_location, lambda_fold_correction, lambda_path, loss_eval,
                     robust_scale, subset_mask_id)
from .ranksum import LossPanel
from .rng import keyed_stream, subseed
from .select import panel_from_folds  # noqa: F401
from .select import (SelectionConfig, cv_select, cvc_style_select, make_folds,
                     pcv_select, rsr_from_panel, survivor_panel)

TAG_C1_DATA = 201
TAG_C1_FOLDS = 202
TAG_C1_SELECT = 203
TAG_C2_DATA = 211
TAG_C2_FOLDS = 212
TAG_C2_SELECT = 213

ALL_METHODS = ("cv", "cvc_style", "pcv", "rsr")


# Case 1 truth: intercept 1, covariate coefficients (0, 3, 4, 0); only the
# second and third covariate drive the response.
CASE1_BETA = np.array([1.0, 0.0, 3.0, 4.0, 0.0])
CASE1_D = 4
CASE1_TRUE_SUBSET = (1, 2)


def _config_echo(config) -> dict:
    """Config as serialized in reports: everything but the thread count."""
    echo = asdict(config)
    echo.pop("threads", None)
    echo["methods"] = list(config.methods)
    return echo


def _check_methods(methods):
    methods = tuple(methods)
    bad = [m for m in methods if m not in ALL_METHODS]
    if bad:
        raise ConfigError(f"unknown methods {bad}; choose from {ALL_METHODS}")
    if len(set(methods)) < len(methods):
        raise ConfigError(f"methods must not repeat, got {list(methods)}")
    if not methods:
        raise ConfigError("need at least one method")
    return methods


@dataclass(frozen=True)
class Case1Config:
    """Subset-selection study settings."""

    n: int
    x_df: float
    seed: int
    reps: int = 100
    alpha: float = 0.1
    B: int = 500
    V: int = 5
    methods: tuple[str, ...] = ALL_METHODS
    screening: bool = True
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "methods", _check_methods(self.methods))
        if self.n < 4 * self.V:
            raise ConfigError(f"n = {self.n} is too small for V = {self.V} folds")
        if not math.isfinite(self.x_df) or self.x_df <= 0:
            raise ConfigError(f"x_df must be finite and positive, got {self.x_df}")
        _check_study_settings(self, self.V)


@dataclass(frozen=True)
class Case2Config:
    """Lasso-tuning study settings."""

    n: int
    p: int
    noise_df: float
    rho: float
    seed: int
    reps: int = 50
    folds: int = 5
    k_path: int = 50
    alpha: float = 0.1
    B: int = 500
    methods: tuple[str, ...] = ALL_METHODS
    screening: bool = True
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "methods", _check_methods(self.methods))
        if not -1.0 < self.rho < 1.0:
            raise ConfigError("rho must be in (-1, 1)")
        if not math.isfinite(self.noise_df) or self.noise_df <= 0:
            raise ConfigError(f"noise_df must be finite and positive, got {self.noise_df}")
        if self.p < 7:
            raise ConfigError("p must be at least 7 to hold the true support")
        if self.n < 2 * self.folds:
            raise ConfigError("n too small for the fold count")
        if self.k_path < 2:
            raise ConfigError(f"k_path must be >= 2, got {self.k_path}")
        _check_study_settings(self, self.folds)


@dataclass
class AggregateReport:
    """Per-method aggregated metrics plus the raw per-replicate rows.

    The config echo omits the thread count: like wall time it changes
    nothing but scheduling, and reports from different worker counts must
    compare byte-for-byte.
    """

    case: str
    config: dict
    reps: int
    metrics: dict
    replicates: list[dict] = field(repr=False, default_factory=list)

    def to_dict(self) -> dict:
        return {"case": self.case, "config": self.config, "reps": self.reps,
                "metrics": self.metrics}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def sample_student_t(df: float, stream: np.random.Generator, size=None):
    """Student-t draws via the Gaussian / chi-square ratio."""
    z = stream.standard_normal(size)
    w = stream.chisquare(df, size)
    return z / np.sqrt(w / df)


def ar1_design(n: int, p: int, rho: float, stream: np.random.Generator) -> np.ndarray:
    """n x p design whose rows are N(0, Sigma), Sigma_ij = rho^|i-j|, by AR(1)
    recursion along the columns."""
    if not -1.0 < rho < 1.0:
        raise ConfigError("rho must be in (-1, 1)")
    z = stream.standard_normal((n, p))
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    s = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        x[:, j] = rho * x[:, j - 1] + s * z[:, j]
    return x


def _huber_centre(y: np.ndarray) -> float:
    """The intercept-only model's fit: Huber location at the adaptive knee."""
    return huber_location(y, adaptive_tau(y.size, 0, robust_scale(y)))


def subset_panel(data: Dataset, folds, loss: LossFn):
    """Case 1's out-of-fold panel of every intercept-bearing subset of the
    CASE1_D covariates, in enumerate_subsets order, and the failed ids: one
    fit_huber_stack call per (subset size, training size) across all folds,
    each model as fit_huber_adaptive fits it alone. A model fails if its fit
    fails or its residuals are not finite on any fold; the intercept-only
    model is fit by huber_location, fold by fold."""
    d = CASE1_D
    subsets = enumerate_subsets(d)
    ids = [subset_mask_id(sub, d) for sub in subsets]
    trains = [np.setdiff1d(np.arange(data.n), fold) for fold in folds]
    x_trains = [data.x[train] for train in trains]
    y_trains = [data.y[train] for train in trains]
    # theta[f, j]: [intercept, coef] of model j trained without fold f, its
    # coef zero off subset j.
    theta = np.zeros((len(folds), len(subsets), d + 1))
    theta[:, 0, 0] = [_huber_centre(y_train) for y_train in y_trains]
    failed = set()
    for size in range(1, d + 1):
        js = np.array([j for j, sub in enumerate(subsets) if len(sub) == size])
        cols = np.array([subsets[j] for j in js])
        for n_train in sorted({train.size for train in trains}):
            fs = np.array([f for f, train in enumerate(trains) if train.size == n_train])
            x_fs = np.stack([x_trains[f] for f in fs])[:, :, cols]   # (f, n, j, size)
            designs = np.ones((fs.size, js.size, n_train, size + 1))
            designs[..., 1:] = np.swapaxes(x_fs, 1, 2)
            ys = np.repeat(np.stack([y_trains[f] for f in fs])[:, None], js.size, axis=1)
            fit = fit_huber_stack(designs.reshape(-1, n_train, size + 1),
                                  ys.reshape(-1, n_train))
            failed.update(ids[js[i % js.size]] for i, e in enumerate(fit.error)
                          if e is not None)
            th = fit.theta.reshape(fs.size, js.size, size + 1)
            theta[fs[:, None], js, 0] = th[:, :, 0]
            theta[fs[:, None, None], js[:, None], 1 + cols] = th[:, :, 1:]
    losses = np.empty((data.n, len(subsets)))
    for f, fold in enumerate(folds):
        # One gemv per model, as FittedLinear.predict makes it.
        pred = theta[f, :, :1] + np.matmul(data.x[fold], theta[f, :, 1:, None])[:, :, 0]
        resid = data.y[fold] - pred
        finite = np.all(np.isfinite(resid), axis=1)
        failed.update(ids[j] for j in np.flatnonzero(~finite))
        resid[~finite] = 0.0
        losses[fold] = loss_eval(loss, resid.T)
    return survivor_panel(losses, folds, ids, failed)


def _selection_config(case_cfg, seed: int) -> SelectionConfig:
    return SelectionConfig(seed=seed, alpha=case_cfg.alpha, B=case_cfg.B,
                           screening_enabled=case_cfg.screening)


def _check_study_settings(case_cfg, v_folds: int) -> None:
    """Reject the replicate, worker and fold counts, and the seed, alpha or B
    by SelectionConfig's own bounds, before any replicate draws data or fits
    a learner. Both studies use V-fold panels, so sample splitting (V = 0)
    is refused too."""
    if case_cfg.reps < 1:
        raise ConfigError(f"reps must be >= 1, got {case_cfg.reps}")
    if case_cfg.threads < 0:
        raise ConfigError(f"threads must be >= 0, got {case_cfg.threads}")
    if v_folds < 2:
        raise ConfigError(f"the study needs at least 2 folds, got {v_folds}")
    try:
        _selection_config(case_cfg, case_cfg.seed)
    except ContractError as exc:
        raise ConfigError(str(exc)) from None


def _select(method: str, panel: LossPanel, sel_cfg: SelectionConfig):
    """One study method's confidence set on a replicate's loss panel."""
    # Looked up at call time, so wrappers installed on this module apply.
    if method == "rsr":
        return rsr_from_panel(panel, sel_cfg)
    if method == "pcv":
        return pcv_select(panel, sel_cfg)
    if method == "cvc_style":
        return cvc_style_select(panel, sel_cfg)
    return cv_select(panel.losses.mean(axis=0), panel.model_ids, alpha=sel_cfg.alpha)


def case1_replicate(config: Case1Config, rep: int) -> list[dict]:
    """One Case 1 draw: fit, select with every method, return metric rows."""
    rng = keyed_stream(config.seed, TAG_C1_DATA, rep)
    n, d = config.n, CASE1_D
    x = sample_student_t(config.x_df, rng, size=(n, d))
    eps = sample_student_t(1.0, rng, size=n)
    y = CASE1_BETA[0] + x @ CASE1_BETA[1:] + eps
    data = Dataset(x=x, y=y)

    loss = LossFn("huber", tau=adaptive_tau(n, d, robust_scale(y)))

    folds = make_folds(n, config.V, subseed(config.seed, TAG_C1_FOLDS, rep))
    panel, failed = subset_panel(data, folds, loss)
    if panel is None:
        raise ConfigError("fewer than two candidates survived training")
    true_id = subset_mask_id(CASE1_TRUE_SUBSET, d)
    sel_cfg = _selection_config(config, subseed(config.seed, TAG_C1_SELECT, rep))

    rows = []
    for method in config.methods:
        cs = _select(method, panel, sel_cfg)
        row = {"rep": rep, "method": method,
               "set_size": cs.set_size,
               "correct": bool(true_id in cs.selected_ids),
               "n_failed": len(failed)}
        if method == "rsr":
            row["bootstrap_columns"] = cs.bootstrap_columns
            # Models that failed training are not in the replicate's panel.
            m = panel.n_models
            row["screening_reduced"] = bool(cs.bootstrap_columns < m * (m - 1))
        rows.append(row)
    return rows


def _aggregate(rows, methods, spec):
    """spec: metric name -> ('mean'|'rate', row key)."""
    metrics = {}
    for method in methods:
        sub = [r for r in rows if r["method"] == method]
        out = {}
        for name, (kind, key) in spec.items():
            vals = np.array([float(r[key]) for r in sub if key in r])
            if vals.size == 0:
                continue
            mean = float(vals.mean())
            if kind == "rate":
                se = math.sqrt(max(mean * (1.0 - mean), 0.0) / vals.size)
            else:
                se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            out[name] = {"mean": mean, "mc_se": se}
        metrics[method] = out
    return metrics


def _run_study(case: str, worker, config, spec) -> AggregateReport:
    """Run every replicate, in order, on at most one process per replicate
    (threads = 0 means one per CPU), then aggregate the rows by ``spec``."""
    workers = min(config.threads or os.cpu_count() or 1, config.reps)
    if workers <= 1:
        results = [worker(config, rep) for rep in range(config.reps)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, [config] * config.reps,
                                    range(config.reps)))
    rows = [row for per_rep in results for row in per_rep]
    return AggregateReport(case=case, config=_config_echo(config), reps=config.reps,
                           metrics=_aggregate(rows, config.methods, spec),
                           replicates=rows)


def run_case1(config: Case1Config) -> AggregateReport:
    return _run_study("case1", case1_replicate, config, {
        "set_size": ("mean", "set_size"),
        "correct_rate": ("rate", "correct"),
        "bootstrap_columns": ("mean", "bootstrap_columns"),
        "screening_reduced_rate": ("rate", "screening_reduced"),
    })


def _lambda_id(idx: int) -> str:
    return f"lam_{idx:02d}"


def case2_replicate(config: Case2Config, rep: int) -> list[dict]:
    """One Case 2 draw: path fits per fold, selection, corrected refit."""
    rng = keyed_stream(config.seed, TAG_C2_DATA, rep)
    n, p = config.n, config.p
    x = ar1_design(n, p, config.rho, rng)
    beta = np.zeros(p)
    beta[[0, 1, 5, 6]] = 1.0
    eps = sample_student_t(config.noise_df, rng, size=n)
    y = x @ beta + eps
    data = Dataset(x=x, y=y)
    true_support = frozenset(np.nonzero(beta)[0].tolist())

    tau = adaptive_tau(n, p, robust_scale(y))
    path = lambda_path(data, k_path=config.k_path, tau=tau)
    k = path.size

    folds = make_folds(n, config.folds, subseed(config.seed, TAG_C2_FOLDS, rep))
    huber_losses = np.empty((n, k))
    squared_losses = np.empty((n, k))
    loss = LossFn("huber", tau=tau)
    for fold in folds:
        train_idx = np.setdiff1d(np.arange(n), fold)
        train = Dataset(x=x[train_idx], y=y[train_idx])
        lip = huber_lasso_lipschitz(train)
        warm = None
        for j, lam in enumerate(path):
            warm = fit_huber_lasso(train, lam=float(lam), tau=tau, init=warm, lip=lip)
            resid = y[fold] - warm.predict(x[fold])
            huber_losses[fold, j] = loss_eval(loss, resid)
            squared_losses[fold, j] = resid * resid

    panel = LossPanel(losses=huber_losses,
                      model_ids=tuple(_lambda_id(j) for j in range(k)))
    sel_cfg = _selection_config(config, subseed(config.seed, TAG_C2_SELECT, rep))
    full_lip = huber_lasso_lipschitz(data)

    rows = []
    refit_cache: dict[int, FittedLinear] = {}
    for method in config.methods:
        cs = _select(method, panel, sel_cfg)
        if method == "cv":
            chosen = cs.selected[0]
        elif cs.selected:
            chosen = min(cs.selected)     # path is decreasing: sparsest model
        else:
            chosen = int(np.argmax(cs.p_values))
        if chosen not in refit_cache:
            lam_corr = lambda_fold_correction(float(path[chosen]), config.folds)
            refit_cache[chosen] = fit_huber_lasso(data, lam=lam_corr, tau=tau,
                                                  lip=full_lip)
        refit = refit_cache[chosen]
        support = frozenset(np.nonzero(refit.coef)[0].tolist())
        rows.append({
            "rep": rep, "method": method,
            "set_size": cs.set_size,
            "chosen_index": int(chosen),
            "chosen_lambda": float(path[chosen]),
            "nonzeros": int(len(support)),
            "support_covered": bool(true_support <= support),
            "oracle": bool(true_support == support),
            "cv_error": float(squared_losses[:, chosen].mean()),
        })
    return rows


def run_case2(config: Case2Config) -> AggregateReport:
    return _run_study("case2", case2_replicate, config, {
        "set_size": ("mean", "set_size"),
        "nonzeros": ("mean", "nonzeros"),
        "support_rate": ("rate", "support_covered"),
        "oracle_rate": ("rate", "oracle"),
        "cv_error": ("mean", "cv_error"),
    })
