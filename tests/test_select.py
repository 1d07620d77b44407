import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm
from test_ranksum import loss_panels

from ranksel import (Candidate, ContractError, Dataset, LossFn, LossPanel,
                     SelectionConfig, cv_select, cvc_style_select, fit_ols,
                     make_folds, make_split, panel_from_folds,
                     TieStreams, pair_stats, pcv_select, rsr_from_panel, rsr_split,
                     rsr_vfold, screen)
from ranksel import select
from ranksel.errors import LearnerError
from ranksel.ranksum import PSI_CENTERING_TOL
from ranksel.rng import subseed
from ranksel.select import TAG_CVC_BOOT, TAG_PCV_BOOT, TAG_RSR_BOOT, TAG_RSR_TIES


def _panel(losses, ids=None):
    losses = np.asarray(losses, dtype=float)
    if ids is None:
        ids = tuple(f"c{j}" for j in range(losses.shape[1]))
    return LossPanel(losses=losses, model_ids=ids)


def _ols_candidates(n_models):
    def fit(x, y):
        return fit_ols(Dataset(x=x, y=y))
    return [Candidate(model_id=f"c{j}", fit=fit) for j in range(n_models)]


class TestScreen:
    def test_zero_scores_all_kept(self):
        keep = screen(np.zeros(5), np.ones(5), n_models=6, alpha_screen=0.1, s=0.01)
        np.testing.assert_array_equal(keep, np.arange(5))

    def test_huge_z_eliminated_at_reference_threshold(self):
        mu = np.zeros(15)
        se = np.ones(15)
        mu[7] = 1e6
        keep = screen(mu, se, n_models=16, alpha_screen=0.1, s=0.01)
        assert 7 not in keep
        assert keep.size == 14
        # against a directly evaluated threshold
        thr = 2 * norm.ppf(1 - 0.1 / 15 ** 1.01)
        assert 1e6 > thr > 0

    def test_threshold_boundary(self):
        thr = 2 * norm.ppf(1 - 0.1 / 15 ** 1.01)
        mu = np.array([thr - 1e-9, thr + 1e-9])
        keep = screen(mu, np.ones(2), n_models=16, alpha_screen=0.1, s=0.01)
        np.testing.assert_array_equal(keep, [0])

    def test_bad_se_rejected(self):
        with pytest.raises(ContractError):
            screen(np.zeros(2), np.array([1.0, 0.0]), 3, 0.1, 0.01)


class TestCvSelect:
    def test_argmin(self):
        cs = cv_select([3.0, 1.0, 2.0])
        assert cs.selected == (1,)
        assert cs.method == "cv"

    def test_tie_takes_first(self):
        cs = cv_select([2.0, 2.0, 2.0])
        assert cs.selected == (0,)

    def test_invariant_under_monotone_transform_of_risks(self):
        rng = np.random.default_rng(0)
        risks = rng.random(6)
        a = cv_select(risks).selected
        b = cv_select(np.exp(risks)).selected
        assert a == b


class TestPcvSelect:
    def test_identical_columns_statistic_near_zero(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(100)
        panel = _panel(np.column_stack([col, col]))
        cs = pcv_select(panel, SelectionConfig(seed=3))
        n = panel.n
        for m in (0, 1):
            stat = cs.diagnostics[m]["t_obs"] / math.sqrt(n)
            assert abs(stat) <= 2 / math.sqrt(n)

    def test_dominant_column_statistic_is_half(self):
        rng = np.random.default_rng(2)
        base = rng.random(50)
        panel = _panel(np.column_stack([base, base + 1.0]))
        cs = pcv_select(panel, SelectionConfig(seed=5))
        n = panel.n
        assert cs.diagnostics[0]["t_obs"] == pytest.approx(math.sqrt(n) * 0.5)
        assert cs.p_values[0] == 1.0          # nothing beats model 0
        assert cs.p_values[1] == 0.0          # model 1 is dominated
        assert cs.selected == (0,)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        panel = _panel(rng.standard_normal((40, 3)))
        cfg = SelectionConfig(seed=11)
        a = pcv_select(panel, cfg)
        b = pcv_select(panel, cfg)
        np.testing.assert_array_equal(a.p_values, b.p_values)


class TestCvcStyleSelect:
    def test_identical_columns_retained(self):
        rng = np.random.default_rng(4)
        col = rng.standard_normal(60)
        panel = _panel(np.column_stack([col, col]))
        cs = cvc_style_select(panel, SelectionConfig(seed=7))
        np.testing.assert_array_equal(cs.p_values, [1.0, 1.0])
        assert cs.selected == (0, 1)

    def test_constant_gap_rejects_worse_model(self):
        rng = np.random.default_rng(5)
        base = rng.random(30)
        panel = _panel(np.column_stack([base, base + 2.0]))
        cs = cvc_style_select(panel, SelectionConfig(seed=9))
        assert cs.p_values[1] == 0.0
        assert cs.p_values[0] == 1.0

    def test_power_grows_with_n(self):
        # Gaussian losses with a known mean gap: the worse model should be
        # rejected essentially always at n = 400
        rng = np.random.default_rng(6)
        rejections = 0
        reps = 20
        for rep in range(reps):
            good = rng.standard_normal(400) + 1.0
            bad = rng.standard_normal(400) + 1.6
            panel = _panel(np.column_stack([good, bad]))
            cs = cvc_style_select(panel, SelectionConfig(seed=rep))
            rejections += cs.p_values[1] < 0.1
        assert rejections >= 0.95 * reps


class TestRsrFromPanel:
    def test_dominated_model_rejected_dominant_retained(self):
        rng = np.random.default_rng(7)
        n = 400
        good = np.abs(rng.standard_normal(n))
        bad = good + 2.0 + 0.1 * rng.standard_normal(n)
        panel = _panel(np.column_stack([good, bad]))
        cs = rsr_from_panel(panel, SelectionConfig(seed=1))
        assert cs.p_values[1] < 0.1
        assert cs.p_values[0] >= 0.1
        assert cs.selected == (0,)

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        panel = _panel(rng.standard_normal((50, 4)) ** 2)
        cfg = SelectionConfig(seed=21)
        a = rsr_from_panel(panel, cfg)
        b = rsr_from_panel(panel, cfg)
        np.testing.assert_array_equal(a.p_values, b.p_values)
        assert a.selected == b.selected
        assert a.screened_out == b.screened_out

    def test_monotone_loss_invariance(self):
        # rank statistics: one common strictly increasing transform leaves
        # every p-value untouched, bit for bit (ties included)
        rng = np.random.default_rng(9)
        losses = rng.integers(0, 12, size=(60, 3)).astype(float)
        cfg = SelectionConfig(seed=31)
        a = rsr_from_panel(_panel(losses), cfg)
        b = rsr_from_panel(_panel(np.exp(losses / 4.0)), cfg)
        np.testing.assert_array_equal(a.p_values, b.p_values)
        assert a.selected == b.selected
        c = pcv_select(_panel(losses), cfg)
        d = pcv_select(_panel(np.exp(losses / 4.0)), cfg)
        np.testing.assert_array_equal(c.p_values, d.p_values)

    def test_set_size_monotone_in_alpha(self):
        rng = np.random.default_rng(10)
        panel = _panel(np.abs(rng.standard_normal((80, 5))))
        base = rsr_from_panel(panel, SelectionConfig(seed=41, alpha=0.05))
        narrow = set(np.nonzero(base.p_values >= 0.2)[0])
        wide = set(np.nonzero(base.p_values >= 0.05)[0])
        assert narrow <= wide

    def test_screening_noop_when_no_z_exceeds(self):
        rng = np.random.default_rng(11)
        col = rng.standard_normal(50)
        losses = np.column_stack([col + 0.01 * rng.standard_normal(50)
                                  for _ in range(3)])
        cfg_on = SelectionConfig(seed=13, screening_enabled=True)
        cfg_off = SelectionConfig(seed=13, screening_enabled=False)
        a = rsr_from_panel(_panel(losses), cfg_on)
        b = rsr_from_panel(_panel(losses), cfg_off)
        if all(len(v) == 0 for v in a.screened_out.values()):
            np.testing.assert_array_equal(a.p_values, b.p_values)

    def test_screening_reduces_bootstrap_columns(self):
        # one column dominated by a mile: every reference screens it out
        rng = np.random.default_rng(12)
        n = 200
        cols = [np.abs(rng.standard_normal(n)) for _ in range(2)]
        cols.append(np.abs(rng.standard_normal(n)) + 50.0)
        cs = rsr_from_panel(_panel(np.column_stack(cols)),
                            SelectionConfig(seed=17, screening_enabled=True))
        assert cs.bootstrap_columns < 3 * 2
        assert 2 in cs.screened_out[0] and 2 in cs.screened_out[1]

    def test_screening_can_raise_t_obs(self):
        # A copy of the reference worsened on 60 rows has a tiny mu but a
        # far tinier se, so it is screened out while an independent, worse
        # but noisier competitor is kept: t_obs is the min over kept
        # competitors only, above the min over all of them.
        n = 1000
        rng = np.random.default_rng(5)
        a = np.abs(rng.standard_cauchy(n))
        worse_copy = a.copy()
        worse_copy[rng.choice(n, 60, replace=False)] *= 1.5
        other = 1.12 * np.abs(rng.standard_cauchy(n))
        panel = _panel(np.column_stack([a, worse_copy, other]))
        cfg = SelectionConfig(seed=5)
        cs = rsr_from_panel(panel, cfg)
        stats = pair_stats(panel, 0, projection=cfg.projection,
                           ties=TieStreams(cfg.seed, TAG_RSR_TIES))
        z = stats.mu / stats.se
        assert z[0] > 6.5 and z[1] < 2.0
        assert cs.screened_out[0] == (1,)
        t_obs = cs.diagnostics[0]["t_obs"]
        assert t_obs == math.sqrt(n) * stats.mu[1]
        assert round(t_obs, 3) == 0.766
        assert round(math.sqrt(n) * stats.mu.min(), 3) == 0.150


BOOT_TAGS = {rsr_from_panel: TAG_RSR_BOOT, pcv_select: TAG_PCV_BOOT,
             cvc_style_select: TAG_CVC_BOOT}


def _loop_panels():
    rng = np.random.default_rng(19)
    n = 200
    base = np.abs(rng.standard_normal(n))
    return {
        # column 0 beats both others on every pair of rows
        "dominant": np.column_stack([base, base + 50.0 + rng.random(n),
                                     np.abs(rng.standard_normal(n)) + 60.0]),
        # column 1 loses to column 0 by a constant
        "constant_gap": np.column_stack([base, base + 2.0]),
        # three copies of one column
        "identical": np.column_stack([base, base, base]),
    }


class TestSelectionLoop:
    """Bookkeeping of the one loop behind the three confidence-set methods."""

    # (method, panel) -> references whose p-value is decided without a
    # bootstrap, with the t_obs they report
    DECIDED = {
        (rsr_from_panel, "dominant"): {0: math.inf},
        (rsr_from_panel, "constant_gap"): {0: math.inf},
        (rsr_from_panel, "identical"): {},
        (pcv_select, "dominant"): {},
        (pcv_select, "constant_gap"): {},
        (pcv_select, "identical"): {},
        (cvc_style_select, "dominant"): {},
        (cvc_style_select, "constant_gap"): {0: math.inf, 1: -math.inf},
        (cvc_style_select, "identical"): {0: math.inf, 1: math.inf, 2: math.inf},
    }

    @pytest.mark.parametrize("method,name", list(DECIDED),
                             ids=[f"{f.__name__}-{p}" for f, p in DECIDED])
    def test_n_cols_t_obs_and_screened_out(self, method, name):
        panel = _panel(_loop_panels()[name])
        n_models = panel.n_models
        cfg = SelectionConfig(seed=23)
        cols_by_seed = {}
        real = select.run_min_bootstrap

        def recording(mu, psi, boot):
            cols_by_seed[boot.seed] = psi.shape[1]
            return real(mu, psi, boot)

        with mock.patch.object(select, "run_min_bootstrap", recording):
            cs = method(panel, cfg)
        decided = self.DECIDED[(method, name)]
        assert sorted(cs.diagnostics) == list(range(n_models))
        for m, diag in cs.diagnostics.items():
            seed = subseed(cfg.seed, BOOT_TAGS[method], m)
            if m in decided:
                assert seed not in cols_by_seed
                assert diag == {"t_obs": decided[m], "n_cols": 0}
                assert cs.p_values[m] == (1.0 if decided[m] > 0 else 0.0)
            else:
                assert diag["n_cols"] == cols_by_seed[seed] > 0
                assert math.isfinite(diag["t_obs"])
        assert len(cols_by_seed) == n_models - len(decided)
        assert cs.bootstrap_columns == sum(cols_by_seed.values())
        if method is rsr_from_panel:
            assert sorted(cs.screened_out) == list(range(n_models))
            for m, diag in cs.diagnostics.items():
                assert diag["n_cols"] + len(cs.screened_out[m]) == n_models - 1
        else:
            assert cs.screened_out == {}

    @settings(max_examples=40, deadline=None)
    @given(panel=loss_panels(), seed=st.integers(0, 2**32 - 1),
           projection=st.sampled_from(("row_only", "symmetrized")))
    def test_bootstrapped_psi_is_centered(self, panel, seed, projection):
        real = select.run_min_bootstrap

        def checking(mu, psi, boot):
            assert psi.shape == (panel.n, mu.size)
            assert np.all(np.abs(psi.mean(axis=0)) <= PSI_CENTERING_TOL * panel.n)
            return real(mu, psi, boot)

        cfg = SelectionConfig(seed=seed, projection=projection)
        with mock.patch.object(select, "run_min_bootstrap", checking):
            for method in BOOT_TAGS:
                method(panel, cfg)

    @settings(max_examples=40, deadline=None)
    @given(panel=loss_panels(), seed=st.integers(0, 2**32 - 1),
           transform=st.sampled_from(("arcsinh", "cbrt", "affine", "exp")))
    def test_rank_methods_invariant_under_increasing_maps(self, panel, seed,
                                                          transform):
        fn = {"arcsinh": np.arcsinh, "cbrt": np.cbrt,
              "affine": lambda x: 3.0 * x - 7.0,
              "exp": lambda x: np.exp(x / 1e5)}[transform]
        # the map must keep distinct losses distinct (and in order)
        assume(np.all(np.diff(fn(np.unique(panel.losses))) > 0))
        mapped = LossPanel(losses=fn(panel.losses), model_ids=panel.model_ids)
        cfg = SelectionConfig(seed=seed)
        assert rsr_from_panel(mapped, cfg).to_dict() == rsr_from_panel(panel, cfg).to_dict()
        assert pcv_select(mapped, cfg).to_dict() == pcv_select(panel, cfg).to_dict()


class TestSplitsAndFolds:
    def test_split_sizes_odd_extra_to_training(self):
        train, ev = make_split(11, seed=3)
        assert train.size == 6 and ev.size == 5
        assert np.array_equal(np.sort(np.concatenate([train, ev])), np.arange(11))

    def test_split_deterministic(self):
        a = make_split(20, seed=5)
        b = make_split(20, seed=5)
        np.testing.assert_array_equal(a[0], b[0])

    def test_folds_near_equal_extras_first(self):
        folds = make_folds(13, 3, seed=7)
        assert [f.size for f in folds] == [5, 4, 4]
        assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(13))

    def test_folds_too_small_rejected(self):
        with pytest.raises(ContractError):
            make_folds(9, 5, seed=0)


class TestRsrSplitAndVfold:
    @staticmethod
    def _null_data(rng, n):
        x = rng.standard_normal((n, 1))
        y = rng.standard_t(2, size=n)
        return Dataset(x=x, y=y)

    def test_identical_candidates_usually_both_kept(self):
        rng = np.random.default_rng(13)
        kept = np.zeros(2)
        reps = 100
        loss = LossFn("absolute")
        for rep in range(reps):
            data = self._null_data(rng, 80)
            cs = rsr_split(_ols_candidates(2), data,
                           SelectionConfig(seed=rep, alpha=0.1), loss)
            for m in cs.selected:
                kept[m] += 1
        assert np.all(kept / reps >= 1 - 0.1 - 0.05)

    def test_vfold_null_calibration(self):
        rng = np.random.default_rng(14)
        kept = np.zeros(2)
        reps = 60
        loss = LossFn("absolute")
        for rep in range(reps):
            data = self._null_data(rng, 60)
            cs = rsr_vfold(_ols_candidates(2), data,
                           SelectionConfig(seed=rep, alpha=0.1, V=3), loss)
            for m in cs.selected:
                kept[m] += 1
        assert np.all(kept / reps >= 1 - 0.1 - 0.05)

    def test_known_better_model_rejects_other(self):
        # candidate "flat" predicts a constant; candidate "line" knows the
        # slope; with a strong signal the flat model must leave the set
        def fit_line(x, y):
            return fit_ols(Dataset(x=x, y=y))

        class FlatFit:
            def __init__(self, c):
                self.c = c

            def predict(self, x):
                return np.full(x.shape[0], self.c)

        def fit_flat(x, y):
            return FlatFit(float(np.median(y)))

        rng = np.random.default_rng(15)
        rejected = 0
        reps = 20
        for rep in range(reps):
            n = 400
            x = rng.standard_normal((n, 1))
            y = 3.0 * x[:, 0] + 0.3 * rng.standard_normal(n)
            cands = [Candidate("line", fit_line), Candidate("flat", fit_flat)]
            cs = rsr_split(cands, Dataset(x=x, y=y),
                           SelectionConfig(seed=rep), LossFn("absolute"))
            rejected += cs.p_values[1] < 0.1
        assert rejected >= 0.95 * reps

    def test_vfold_two_folds_matches_split_construction(self):
        rng = np.random.default_rng(16)
        n = 40
        x = rng.standard_normal((n, 2))
        y = x @ np.array([1.0, -0.5]) + rng.standard_normal(n)
        data = Dataset(x=x, y=y)
        loss = LossFn("squared")
        cands = _ols_candidates(2)
        folds = make_folds(n, 2, seed=9)
        vpanel, _ = panel_from_folds(cands, data, folds, loss)
        p0, _ = panel_from_folds(cands, data, [folds[0]], loss)
        p1, _ = panel_from_folds(cands, data, [folds[1]], loss)
        np.testing.assert_array_equal(vpanel.losses[folds[0]], p0.losses)
        np.testing.assert_array_equal(vpanel.losses[folds[1]], p1.losses)

    def test_failed_learner_flagged_zero_pvalue(self):
        def fit_bad(x, y):
            raise LearnerError("always fails")

        rng = np.random.default_rng(17)
        n = 60
        x = rng.standard_normal((n, 1))
        y = x[:, 0] + 0.1 * rng.standard_normal(n)
        cands = _ols_candidates(2) + [Candidate("broken", fit_bad)]
        cs = rsr_split(cands, Dataset(x=x, y=y), SelectionConfig(seed=2),
                       LossFn("absolute"))
        assert cs.p_values[2] == 0.0
        assert 2 in cs.failed
        assert 2 not in cs.selected

    def test_single_survivor_gets_pvalue_one(self):
        def fit_bad(x, y):
            raise LearnerError("always fails")

        rng = np.random.default_rng(18)
        n = 40
        x = rng.standard_normal((n, 1))
        y = x[:, 0] + 0.1 * rng.standard_normal(n)
        cands = [_ols_candidates(1)[0], Candidate("broken", fit_bad)]
        cs = rsr_split(cands, Dataset(x=x, y=y), SelectionConfig(seed=3),
                       LossFn("absolute"))
        assert cs.p_values[0] == 1.0
        assert cs.p_values[1] == 0.0
        assert cs.selected == (0,)
