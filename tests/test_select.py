import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm
from test_ranksum import _CountingTieStreams, loss_panels, mixed_panels

from ranksel import (Candidate, ConfidenceSet, ContractError, Dataset, LossFn,
                     LossPanel, SelectionConfig, cv_select, cvc_style_select, fit_ols,
                     make_folds, panel_from_folds,
                     TieStreams, pair_stats, pcv_select, rsr_from_candidates,
                     rsr_from_panel, screen)
from ranksel import bootstrap, select
from ranksel.bootstrap import PSI_CENTERING_TOL, multiplier_min_bootstrap
from ranksel.errors import LearnerError
from ranksel.rng import model_key, subseed
from ranksel.select import TAG_BOOT, TAG_RSR_TIES


def _panel(losses, ids=None):
    losses = np.asarray(losses, dtype=float)
    if ids is None:
        ids = tuple(f"c{j}" for j in range(losses.shape[1]))
    return LossPanel(losses=losses, model_ids=ids)


def _ols_candidates(n_models):
    return [Candidate(model_id=f"c{j}", fit=fit_ols) for j in range(n_models)]


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

    def test_quantile_level_outside_unit_interval_rejected(self):
        # With two models the quantile level is 1 - alpha_screen.
        for alpha_screen in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ContractError, match="quantile level"):
                screen(np.zeros(1), np.ones(1), 2, alpha_screen, 0.01)


def _risk_panel(risks):
    """A panel of constant columns, whose mean losses are ``risks``."""
    return _panel(np.tile(np.asarray(risks, dtype=float), (4, 1)))


class TestCvSelect:
    def test_argmin(self):
        cs = cv_select(_risk_panel([3.0, 1.0, 2.0]), SelectionConfig(seed=1, alpha=0.2))
        assert cs.selected == (1,)
        assert cs.selected_ids == ("c1",)
        assert (cs.method, cs.alpha) == ("cv", 0.2)
        assert cs.diagnostics == {1: {"risk": 1.0}}

    def test_tie_takes_first(self):
        cs = cv_select(_risk_panel([2.0, 2.0, 2.0]), SelectionConfig(seed=1))
        assert cs.selected == (0,)

    def test_invariant_under_monotone_transform_of_risks(self):
        rng = np.random.default_rng(0)
        risks = rng.random(6)
        cfg = SelectionConfig(seed=1)
        a = cv_select(_risk_panel(risks), cfg).selected
        b = cv_select(_risk_panel(np.exp(risks)), cfg).selected
        assert a == b

    @pytest.mark.parametrize("alpha", (0.0, -0.1, 1.5))
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # The set is {m : p_m >= alpha}; alpha <= 0 would keep every model.
        # cv_select reads alpha from the config, which refuses it.
        with pytest.raises(ContractError, match="alpha"):
            cv_select(_risk_panel([3.0, 1.0, 2.0]), SelectionConfig(seed=1, alpha=alpha))

    def test_selected_is_read_off_the_p_values(self):
        cs = cv_select(_risk_panel([3.0, 1.0, 2.0]), SelectionConfig(seed=1))
        fields = {f.name for f in dataclasses.fields(cs)}
        assert "selected" not in fields
        with pytest.raises(TypeError):
            ConfidenceSet(method="cv", alpha=0.1, model_ids=("a", "b"),
                          p_values=np.array([0.5, 0.05]), selected=(1,))
        cs = ConfidenceSet(method="x", alpha=0.1, model_ids=("a", "b", "c"),
                           p_values=np.array([0.5, 0.05, 0.1]))
        assert cs.selected == (0, 2)
        assert cs.to_dict()["selected"] == [0, 2]


def _binary_panel(rng, rates, n=200):
    losses = (rng.random((n, len(rates))) < rates).astype(float)
    return _panel(losses)


class TestPcvSelect:
    def test_identical_columns_statistic_near_zero(self):
        # Half wins give a copy a statistic of exactly zero and psi = 0, so
        # it carries no evidence: each reference is decided, p = 1.
        rng = np.random.default_rng(1)
        col = rng.standard_normal(100)
        panel = _panel(np.column_stack([col, col]))
        cs = pcv_select(panel, SelectionConfig(seed=3))
        np.testing.assert_array_equal(cs.p_values, [1.0, 1.0])
        for m in (0, 1):
            assert cs.diagnostics[m] == {"t_obs": math.inf, "n_cols": 0}

    def test_mu_is_half_win_rate_brute_force(self):
        # One count gives both directions: m's half-win rate against each
        # competitor, and each competitor's against m.
        rng = np.random.default_rng(13)
        panel = _binary_panel(rng, np.array([0.3, 0.4, 0.5, 0.45]), n=60)

        def half_wins(a, b):
            wins = sum(1 for k in range(panel.n) if a[k] < b[k])
            ties = sum(1 for k in range(panel.n) if a[k] == b[k])
            return (wins + 0.5 * ties) / panel.n - 0.5

        for m in range(panel.n_models):
            competitors = np.delete(np.arange(panel.n_models), m)
            pairs = select._pcv_pairs(panel, m, competitors)
            a = panel.column(m)
            assert pairs.mu[0].tolist() == [half_wins(a, panel.column(j))
                                            for j in competitors]
            assert pairs.mu[1].tolist() == [half_wins(panel.column(j), a)
                                            for j in competitors]
            assert pairs.mu[0].tolist() == _pcv_evidence(panel, m).mu.tolist()

    def test_renaming_models_leaves_tie_panel_results_unchanged(self):
        losses = _order_panels()["binary"]
        cfg = SelectionConfig(seed=37)
        a = pcv_select(_panel(losses), cfg)
        b = pcv_select(_panel(losses, tuple(f"renamed_{j}" for j in
                                            range(losses.shape[1]))), cfg)
        assert a.p_values.tobytes() == b.p_values.tobytes()
        assert a.diagnostics == b.diagnostics

    def test_copy_among_live_columns_is_dropped(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal(80)
        panel = _panel(np.column_stack([base, rng.standard_normal((80, 2)), base]))
        cs = pcv_select(panel, SelectionConfig(seed=15))
        n_models = panel.n_models
        assert [cs.diagnostics[m]["n_cols"] for m in range(n_models)] == [
            n_models - 2, n_models - 1, n_models - 1, n_models - 2]

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


class TestPcvCalibration:
    """PCV on i.i.d. 0/1-loss panels, alpha 0.1, no screening."""

    def test_null_retention(self):
        rng = np.random.default_rng(2024)
        reps = 300
        kept = np.zeros(5)
        for rep in range(reps):
            cs = pcv_select(_binary_panel(rng, np.full(5, 0.3)),
                            SelectionConfig(seed=rep))
            kept += cs.p_values >= cs.alpha
        assert np.all(kept / reps >= 0.85), kept / reps

    def test_worse_models_rejected(self):
        # Measured at these seeds: 0.085 with ties scored as half wins.
        rng = np.random.default_rng(2025)
        reps = 200
        rates = np.array([0.25, 0.4, 0.4, 0.4, 0.4])
        kept = np.zeros(5)
        for rep in range(reps):
            cs = pcv_select(_binary_panel(rng, rates), SelectionConfig(seed=rep))
            kept += cs.p_values >= cs.alpha
        assert kept[0] / reps >= 0.85
        assert kept[1:].mean() / reps <= 0.2, kept / reps


class TestRsrCalibration:
    """RSR at n = 200, alpha 0.1, screening on."""

    @pytest.mark.parametrize("shared", (0, 1))
    @pytest.mark.parametrize("n_models", (5, 20))
    def test_null_retention(self, n_models, shared):
        # Exchangeable |Cauchy| losses, optionally sharing one Cauchy column,
        # so every model is optimal. A bootstrap score without the
        # competitor's column part kept them 0.34-0.70 of the time here.
        n, reps = 200, 150
        kept = np.zeros(n_models)
        for rep in range(reps):
            rng = np.random.default_rng([2024, n, n_models, shared, rep])
            losses = rng.standard_cauchy((n, n_models))
            if shared:
                losses += rng.standard_cauchy(n)[:, None]
            cs = rsr_from_panel(_panel(np.abs(losses)), SelectionConfig(seed=rep))
            kept += cs.p_values >= cs.alpha
        assert kept.mean() / reps >= 0.85, kept / reps
        assert np.all(kept / reps >= 0.80), kept / reps

    def test_worse_models_rejected(self):
        n, n_models, reps = 200, 5, 200
        rates = np.array([0.25, 0.4, 0.4, 0.4, 0.4])
        kept = np.zeros(n_models)
        for rep in range(reps):
            rng = np.random.default_rng([2025, n, n_models, rep])
            cs = rsr_from_panel(_binary_panel(rng, rates, n), SelectionConfig(seed=rep))
            kept += cs.p_values >= cs.alpha
        assert kept[0] / reps >= 0.85
        assert kept[1:].mean() / reps <= 0.2, kept / reps


class TestRsrBinaryCalibration:
    """RSR on i.i.d. 0/1-loss panels, n = 200, M = 5, alpha 0.1, no screening.

    Most cells tie, so the tie coins settle much of each statistic. Seeds
    and bands were fixed before the first run.
    """

    n, reps = 200, 200

    def _retention(self, rates, tag):
        kept = np.zeros(len(rates))
        for rep in range(self.reps):
            rng = np.random.default_rng([tag, self.n, len(rates), rep])
            cfg = SelectionConfig(seed=rep, screening_enabled=False)
            cs = rsr_from_panel(_binary_panel(rng, rates, self.n), cfg)
            kept += cs.p_values >= cs.alpha
        return kept / self.reps

    def test_null_retention(self):
        # Exchangeable models, each optimal: kept near 1 - alpha = 0.9.
        retention = self._retention(np.full(5, 0.3), 2026)
        assert np.all((retention >= 0.84) & (retention <= 0.98)), retention

    def test_worse_models_rejected(self):
        retention = self._retention(np.array([0.25, 0.4, 0.4, 0.4, 0.4]), 2027)
        assert retention[0] >= 0.85, retention
        assert retention[1:].mean() <= 0.2, retention


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
        stats = pair_stats(panel, 0, ties=TieStreams(cfg.seed, TAG_RSR_TIES))
        z = stats.mu / stats.se
        assert z[0] > 6.5 and z[1] < 2.0
        assert cs.screened_out[0] == (1,)
        t_obs = cs.diagnostics[0]["t_obs"]
        assert t_obs == math.sqrt(n) * stats.mu[1]
        assert round(t_obs, 3) == 0.766
        assert round(math.sqrt(n) * stats.mu.min(), 3) == 0.150


class TestRsrMirror:
    """rsr_from_panel's tie streams: one per direction of each tied pair."""

    def test_tied_pairs_open_one_stream_per_direction(self):
        rng = np.random.default_rng(63)
        binary = rng.integers(0, 2, size=(50, 2)).astype(float)
        free = 5.0 + rng.standard_normal((50, 2))
        panel = _panel(np.column_stack([binary, free, free[:, 1]]), ids=tuple("abcde"))
        made = []

        def counting(*args):
            made.append(_CountingTieStreams(*args))
            return made[-1]

        with mock.patch.object(select, "TieStreams", counting):
            rsr_from_panel(panel, SelectionConfig(seed=3))
        assert sorted(made[0].pairs) == [("a", "b"), ("b", "a"), ("d", "e"), ("e", "d")]


# ---------------------------------------------------------------------------
# Per-reference oracle: the selection loop the pair loop replaced. For each
# reference m it counts every competitor, screens m's own contrasts and
# bootstraps m's columns on their own; it never reuses a pair's count for
# the other direction.

class _Evidence(NamedTuple):
    """Reference m's centered bootstrap columns (mu, psi), or its p-value
    ``decided`` as (p, t_obs); ``dropped`` lists the competitors screening
    removed (None for methods that do not screen)."""

    mu: np.ndarray | None = None
    psi: np.ndarray | None = None
    decided: tuple[float, float] | None = None
    dropped: tuple[int, ...] | None = None


def _rsr_evidence(panel, config, ties, m):
    stats = pair_stats(panel, m, ties=ties)
    if config.screening_enabled:
        keep = screen(stats.mu, stats.se, panel.n_models, config.alpha_screen, config.s)
    else:
        keep = np.arange(stats.mu.size)
    dropped = tuple(int(j) for j in np.delete(stats.competitors, keep))
    if keep.size == 0:
        return _Evidence(decided=(1.0, math.inf), dropped=dropped)
    return _Evidence(stats.mu[keep], stats.psi[:, keep], dropped=dropped)


def _pcv_evidence(panel, m):
    a = panel.column(m)[:, None]
    others = np.delete(panel.losses, m, axis=1)
    tied = a == others
    ind = ((a < others) + 0.5 * tied)[:, ~tied.all(axis=0)]
    if ind.shape[1] == 0:
        return _Evidence(decided=(1.0, math.inf))
    means = ind.mean(axis=0)
    return _Evidence(means - 0.5, ind - means)


def _cvc_evidence(panel, m):
    competitors = [j for j in range(panel.n_models) if j != m]
    diff = panel.losses[:, competitors] - panel.column(m)[:, None]  # >0 favors m
    means = diff.mean(axis=0)
    sds = diff.std(axis=0)
    scale = max(1.0, float(np.abs(panel.losses).max()))
    live = sds > select._DEGENERATE_SD * scale
    if np.any(~live & (means < 0)):
        return _Evidence(decided=(0.0, -math.inf))
    if not live.any():
        return _Evidence(decided=(1.0, math.inf))
    psi = (diff[:, live] - means[live]) / sds[live]
    psi -= psi.mean(axis=0)
    return _Evidence(means[live] / sds[live], psi)


def _evidence_of(method, panel, cfg):
    """Reference m's evidence as the per-reference oracle computes it."""
    if method is rsr_from_panel:
        ties = TieStreams(cfg.seed, TAG_RSR_TIES)
        return lambda m: _rsr_evidence(panel, cfg, ties, m)
    if method is pcv_select:
        return lambda m: _pcv_evidence(panel, m)
    return lambda m: _cvc_evidence(panel, m)


METHODS = (rsr_from_panel, pcv_select, cvc_style_select)


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
        (pcv_select, "identical"): {0: math.inf, 1: math.inf, 2: math.inf},
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
        configs = []
        real = select.run_min_bootstrap

        def recording(draws, psi, boot, segments):
            configs.append(boot)
            return real(draws, psi, boot, segments)

        with mock.patch.object(select, "run_min_bootstrap", recording):
            cs = method(panel, cfg)
        # one config for every call, holding the seed contract
        assert all(boot is cfg.bootstrap for boot in configs)
        assert cfg.bootstrap.seed == subseed(cfg.seed, TAG_BOOT)
        decided = self.DECIDED[(method, name)]
        assert bool(configs) == (len(decided) < n_models)
        evidence = _evidence_of(method, panel, cfg)
        assert sorted(cs.diagnostics) == list(range(n_models))
        for m, diag in cs.diagnostics.items():
            ev = evidence(m)
            if m in decided:
                assert ev.decided == (cs.p_values[m], decided[m])
                assert diag == {"t_obs": decided[m], "n_cols": 0}
                assert cs.p_values[m] == (1.0 if decided[m] > 0 else 0.0)
            else:
                assert ev.decided is None
                assert diag["n_cols"] == ev.mu.size > 0
                assert diag["t_obs"] == math.sqrt(panel.n) * ev.mu.min()
                assert math.isfinite(diag["t_obs"])
        assert cs.bootstrap_columns == sum(
            evidence(m).mu.size for m in range(n_models) if m not in decided)
        if method is rsr_from_panel:
            assert cs.screened_out == {m: evidence(m).dropped for m in range(n_models)}
            for m, diag in cs.diagnostics.items():
                assert diag["n_cols"] + len(cs.screened_out[m]) == n_models - 1
        else:
            assert cs.screened_out == {}

    @pytest.mark.parametrize("method,name,draws",
                             [(f, "dominant", 1) for f in METHODS]
                             + [(cvc_style_select, "identical", 0)],
                             ids=[f"{f.__name__}-dominant" for f in METHODS]
                             + ["cvc_style_select-identical"])
    def test_one_multiplier_block_per_selection_call(self, method, name, draws):
        # A call on a new config draws the config's block once (not at all
        # when every reference is decided); a second call on that config
        # reuses it, and an equal new config draws its own again.
        panel = _panel(_loop_panels()[name])
        seeds = []
        real = bootstrap.multiplier_matrix

        def counting(seed, b_draws, n):
            seeds.append(seed)
            return real(seed, b_draws, n)

        with mock.patch.object(bootstrap, "multiplier_matrix", counting):
            cfg = SelectionConfig(seed=29)
            first = method(panel, cfg)
            assert seeds == [subseed(cfg.seed, TAG_BOOT)] * draws
            second = method(panel, cfg)
            assert seeds == [subseed(cfg.seed, TAG_BOOT)] * draws
            third = method(panel, SelectionConfig(seed=29))
        assert seeds == [subseed(cfg.seed, TAG_BOOT)] * (2 * draws)
        assert first.to_dict() == second.to_dict() == third.to_dict()

    def test_one_multiplier_block_per_config(self):
        # RSR, PCV and CVC share the config's one block, across repeated
        # calls too; a new config (here an equal one) draws its own.
        panel = _panel(_loop_panels()["dominant"])
        seeds = []
        real = bootstrap.multiplier_matrix

        def counting(seed, b_draws, n):
            seeds.append(seed)
            return real(seed, b_draws, n)

        with mock.patch.object(bootstrap, "multiplier_matrix", counting):
            cfg = SelectionConfig(seed=29)
            first = [method(panel, cfg).to_dict() for method in METHODS]
            assert seeds == [subseed(cfg.seed, TAG_BOOT)]
            again = [method(panel, cfg).to_dict() for method in METHODS]
            assert seeds == [subseed(cfg.seed, TAG_BOOT)]
            fresh_cfg = SelectionConfig(seed=29)
            fresh = [method(panel, fresh_cfg).to_dict() for method in METHODS]
        assert seeds == [subseed(cfg.seed, TAG_BOOT)] * 2
        assert first == again == fresh

    @settings(max_examples=40, deadline=None)
    @given(panel=loss_panels(), seed=st.integers(0, 2**32 - 1))
    def test_bootstrapped_psi_is_centered(self, panel, seed):
        real = select.run_min_bootstrap

        def checking(draws, psi, boot, segments):
            assert psi.shape == (panel.n, sum(len(neg) for _, neg in segments))
            assert np.all(np.abs(psi.mean(axis=0)) <= PSI_CENTERING_TOL * panel.n)
            return real(draws, psi, boot, segments)

        cfg = SelectionConfig(seed=seed)
        with mock.patch.object(select, "run_min_bootstrap", checking):
            for method in METHODS:
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


class TestBlockedBootstrap:
    """The pair loop's blocked bootstrap against the per-reference oracle."""

    @settings(max_examples=40, deadline=None)
    @given(panel=st.one_of(loss_panels(), mixed_panels()),
           seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 6), data=st.data())
    def test_blocks_match_per_reference_bootstraps(self, panel, seed, extra, data):
        cfg = SelectionConfig(seed=seed)
        # Shuffled ids, so the id order the loop visits (and numbers its
        # rows of minima by) is not the column order.
        ids = data.draw(st.permutations(panel.model_ids))
        panel = LossPanel(losses=panel.losses, model_ids=tuple(ids))
        rank_of = np.argsort(np.argsort(ids))
        # Blocks of M - 1 + extra columns: one model's count always fits,
        # two seldom do, so a reference's columns (its own count's, and the
        # negated ones from each earlier model's) span several blocks.
        width = panel.n_models - 1 + extra
        finals, widths = [], []
        real = select.run_min_bootstrap

        def recording(draws, psi, boot, segments):
            widths.append(psi.shape[1])
            finals[:] = [real(draws, psi, boot, segments)]
            return finals[0]

        for method in METHODS:
            finals.clear()
            widths.clear()
            with mock.patch.object(select, "_BLOCK_BYTES",
                                   8 * max(panel.n, cfg.B) * width), \
                    mock.patch.object(select, "run_min_bootstrap", recording):
                cs = method(panel, cfg)
            assert max(widths, default=0) <= width
            evidence = _evidence_of(method, panel, cfg)
            for m in range(panel.n_models):
                ev = evidence(m)
                if method is rsr_from_panel:
                    assert cs.screened_out[m] == ev.dropped
                if ev.decided is not None:
                    p, t_obs = ev.decided
                    assert cs.p_values[m] == p
                    assert cs.diagnostics[m] == {"t_obs": t_obs, "n_cols": 0}
                    continue
                draws = multiplier_min_bootstrap(ev.psi, cfg.bootstrap)
                t_obs = math.sqrt(panel.n) * ev.mu.min()
                # BLAS may round a column differently inside a wider
                # product, and a negated column is -psi up to rounding.
                np.testing.assert_allclose(finals[0][rank_of[m]], draws, rtol=0,
                                           atol=1e-12)
                assert cs.diagnostics[m] == {"t_obs": t_obs, "n_cols": ev.mu.size}
                assert cs.p_values[m] == np.count_nonzero(draws < t_obs) / cfg.B

    def test_selection_loads_no_numpy_ma(self):
        # np.unique imports numpy.ma (about 8 ms and 1-2 MB of resident
        # memory per process); nothing on the selection path needs it.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from ranksel import LossPanel, SelectionConfig, cvc_style_select, "
            "pcv_select, rsr_from_panel\n"
            "rng = np.random.default_rng(5)\n"
            "losses = np.abs(rng.standard_cauchy((60, 5)))\n"
            "losses[:, 3:] = losses[:, 3:] > 1.0\n"
            "panel = LossPanel(losses=losses, model_ids=tuple('abcde'))\n"
            "for method in (rsr_from_panel, pcv_select, cvc_style_select):\n"
            "    method(panel, SelectionConfig(seed=5))\n"
            "print('numpy.ma' in sys.modules)\n")
        src = str(Path(select.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert out.stdout.strip() == "False"

    def test_peak_memory_is_bounded_by_the_block_cap(self):
        # A wide panel bootstraps 60 * 59 columns. Held at once, as one
        # concatenated block, they take 11 MB and their product with the
        # multipliers 14 MB. Blocked, the peak is the multipliers, one psi
        # block and its product (each within the cap), and one reference's
        # pass (under 80 bytes per panel cell, as TestReferencePassMemory
        # bounds it).
        n, n_models = 400, 60
        rng = np.random.default_rng(71)
        panel = _panel(np.abs(rng.standard_cauchy((n, n_models))))
        cfg = SelectionConfig(seed=71, screening_enabled=False)
        tracemalloc.start()
        try:
            cs = rsr_from_panel(panel, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cs.bootstrap_columns == n_models * (n_models - 1)
        assert peak < 8 * cfg.B * n + 2 * select._BLOCK_BYTES + 80 * n * n_models


def _order_panels():
    rng = np.random.default_rng(27)
    n = 300
    shared = rng.standard_cauchy(n)[:, None]
    scale = np.array([0.5, 0.6, 0.9, 1.5, 2.5, 4.0])
    tie_free = np.abs(0.5 * shared + scale * rng.standard_cauchy((n, scale.size)))
    assert np.unique(tie_free).size == tie_free.size
    win_rate = np.array([0.3, 0.35, 0.4, 0.45, 0.5])
    binary = (rng.random((n, win_rate.size)) >= win_rate).astype(float)
    return {"tie_free": tie_free, "binary": binary}


class TestColumnOrder:
    """Tie coins are keyed by model id and the multipliers by seed alone, so
    reordering a panel's columns reorders every result and nothing else."""

    # the ids name the bootstrap score too: the full (symmetrized) two-part
    # projection, the only one there is
    @pytest.mark.parametrize("name", ("tie_free", "binary"),
                             ids=lambda name: f"{name}-symmetrized")
    @pytest.mark.parametrize("method", METHODS, ids=lambda f: f.__name__)
    def test_permuting_columns_permutes_results(self, method, name):
        losses = _order_panels()[name]
        n_models = losses.shape[1]
        ids = tuple(f"model_{j}" for j in range(n_models))
        cfg = SelectionConfig(seed=37)
        base = method(_panel(losses, ids), cfg)
        if method is rsr_from_panel:
            assert any(base.screened_out.values())    # screening is exercised
        for perm in (np.arange(n_models)[::-1], np.roll(np.arange(n_models), 2)):
            # column i of the permuted panel is column perm[i] of the base
            # panel; base column j moves to position pos[j]
            pos = np.argsort(perm)
            cs = method(_panel(losses[:, perm], tuple(ids[j] for j in perm)), cfg)
            np.testing.assert_array_equal(cs.p_values, base.p_values[perm])
            assert sorted(cs.selected_ids) == sorted(base.selected_ids)
            assert cs.diagnostics == {i: base.diagnostics[perm[i]]
                                      for i in range(n_models)}
            assert cs.screened_out == {
                int(pos[m]): tuple(sorted(int(pos[j]) for j in dropped))
                for m, dropped in base.screened_out.items()}

    def test_model_key_is_a_stable_digest(self):
        # the key path must not depend on the interpreter's salted hash()
        assert model_key("model_a") == 0x9954552065b8b8b5
        assert model_key("model_a") != model_key("model_b")


class TestSplitsAndFolds:
    def test_split_sizes_odd_extra_to_training(self):
        train, ev = make_folds(11, 2, seed=3)
        assert train.size == 6 and ev.size == 5
        assert np.array_equal(np.sort(np.concatenate([train, ev])), np.arange(11))

    def test_split_deterministic(self):
        a = make_folds(20, 2, seed=5)
        b = make_folds(20, 2, seed=5)
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
        for rep in range(reps):
            data = self._null_data(rng, 80)
            cs = rsr_from_candidates(_ols_candidates(2), data,
                                     SelectionConfig(seed=rep, alpha=0.1, V=0))
            for m in cs.selected:
                kept[m] += 1
        assert np.all(kept / reps >= 1 - 0.1 - 0.05)

    def test_vfold_null_calibration(self):
        rng = np.random.default_rng(14)
        kept = np.zeros(2)
        reps = 60
        for rep in range(reps):
            data = self._null_data(rng, 60)
            cs = rsr_from_candidates(_ols_candidates(2), data,
                                     SelectionConfig(seed=rep, alpha=0.1, V=3))
            for m in cs.selected:
                kept[m] += 1
        assert np.all(kept / reps >= 1 - 0.1 - 0.05)

    def test_known_better_model_rejects_other(self):
        # candidate "flat" predicts a constant; candidate "line" knows the
        # slope; with a strong signal the flat model must leave the set
        class FlatFit:
            def __init__(self, c):
                self.c = c

            def predict(self, x):
                return np.full(x.shape[0], self.c)

        def fit_flat(data):
            return FlatFit(float(np.median(data.y)))

        rng = np.random.default_rng(15)
        rejected = 0
        reps = 20
        for rep in range(reps):
            n = 400
            x = rng.standard_normal((n, 1))
            y = 3.0 * x[:, 0] + 0.3 * rng.standard_normal(n)
            cands = [Candidate("line", fit_ols), Candidate("flat", fit_flat)]
            cs = rsr_from_candidates(cands, Dataset(x=x, y=y),
                                     SelectionConfig(seed=rep, V=0))
            rejected += cs.p_values[1] < 0.1
        assert rejected >= 0.95 * reps

    def test_vfold_two_folds_matches_split_construction(self):
        rng = np.random.default_rng(16)
        n = 40
        x = rng.standard_normal((n, 2))
        y = x @ np.array([1.0, -0.5]) + rng.standard_normal(n)
        data = Dataset(x=x, y=y)
        loss = LossFn("absolute")
        cands = _ols_candidates(2)
        folds = make_folds(n, 2, seed=9)
        vpanel, _ = panel_from_folds(cands, data, folds, loss)
        p0, _ = panel_from_folds(cands, data, [folds[0]], loss)
        p1, _ = panel_from_folds(cands, data, [folds[1]], loss)
        np.testing.assert_array_equal(vpanel.losses[folds[0]], p0.losses)
        np.testing.assert_array_equal(vpanel.losses[folds[1]], p1.losses)

    def test_failed_learner_flagged_zero_pvalue(self):
        def fit_bad(data):
            raise LearnerError("always fails")

        rng = np.random.default_rng(17)
        n = 60
        x = rng.standard_normal((n, 1))
        y = x[:, 0] + 0.1 * rng.standard_normal(n)
        cands = _ols_candidates(2) + [Candidate("broken", fit_bad)]
        cs = rsr_from_candidates(cands, Dataset(x=x, y=y), SelectionConfig(seed=2, V=0))
        assert cs.p_values[2] == 0.0
        assert 2 in cs.failed
        assert 2 not in cs.selected

    def test_single_survivor_gets_pvalue_one(self):
        def fit_bad(data):
            raise LearnerError("always fails")

        rng = np.random.default_rng(18)
        n = 40
        x = rng.standard_normal((n, 1))
        y = x[:, 0] + 0.1 * rng.standard_normal(n)
        cands = [_ols_candidates(1)[0], Candidate("broken", fit_bad)]
        cs = rsr_from_candidates(cands, Dataset(x=x, y=y), SelectionConfig(seed=3, V=0))
        assert cs.p_values[0] == 1.0
        assert cs.p_values[1] == 0.0
        assert cs.selected == (0,)

    def test_v_picks_split_or_folds(self):
        rng = np.random.default_rng(19)
        n = 40
        x = rng.standard_normal((n, 1))
        data = Dataset(x=x, y=x[:, 0] + rng.standard_normal(n))
        for v, method in ((0, "rsr_split"), (2, "rsr_vfold"), (4, "rsr_vfold")):
            cs = rsr_from_candidates(_ols_candidates(2), data, SelectionConfig(seed=1, V=v))
            assert cs.method == method
        with pytest.raises(ContractError, match="at least 8"):
            rsr_from_candidates(_ols_candidates(2), Dataset(x=x[:7], y=x[:7, 0]),
                                SelectionConfig(seed=1, V=0))

    @pytest.mark.parametrize("v", (0, 5))
    def test_repeated_candidate_id_rejected(self, v):
        rng = np.random.default_rng(20)
        n = 60
        x = rng.standard_normal((n, 1))
        data = Dataset(x=x, y=x[:, 0] + rng.standard_normal(n))
        cands = _ols_candidates(2) + _ols_candidates(1)   # "c0" twice
        with pytest.raises(ContractError, match="'c0' is repeated"):
            panel_from_folds(cands, data, make_folds(n, 5, seed=1), LossFn("absolute"))
        with pytest.raises(ContractError, match="'c0' is repeated"):
            rsr_from_candidates(cands, data, SelectionConfig(seed=1, V=v))

    def test_learner_failing_on_first_fold_is_trained_once(self):
        calls = []

        def fit_bad(data):
            calls.append(data.n)
            raise LearnerError("always fails")

        rng = np.random.default_rng(21)
        n = 60
        x = rng.standard_normal((n, 1))
        data = Dataset(x=x, y=x[:, 0] + rng.standard_normal(n))
        cands = _ols_candidates(2) + [Candidate("broken", fit_bad)]
        panel, failed = panel_from_folds(cands, data, make_folds(n, 5, seed=1),
                                         LossFn("absolute"))
        assert calls == [48]
        assert failed == ["broken"]
        assert panel.model_ids == ("c0", "c1")

    def test_non_finite_predictions_on_one_fold_drop_the_candidate(self):
        # "wild" predicts NaN once, on the third fold; it is dropped, flagged
        # and never trained again, and the others' panel is unchanged.
        calls = []

        class Wild:
            def predict(self, x):
                return np.full(x.shape[0], np.nan if len(calls) == 3 else 0.0)

        def fit_wild(data):
            calls.append(data.n)
            return Wild()

        rng = np.random.default_rng(22)
        n = 60
        x = rng.standard_normal((n, 1))
        data = Dataset(x=x, y=x[:, 0] + rng.standard_normal(n))
        loss, folds = LossFn("absolute"), make_folds(n, 5, seed=1)
        cands = _ols_candidates(2) + [Candidate("wild", fit_wild)]
        panel, failed = panel_from_folds(cands, data, folds, loss)
        assert len(calls) == 3
        assert failed == ["wild"]
        reference, _ = panel_from_folds(_ols_candidates(2), data, folds, loss)
        assert panel.model_ids == reference.model_ids
        np.testing.assert_array_equal(panel.losses, reference.losses)
        calls.clear()
        cs = rsr_from_candidates(cands, data, SelectionConfig(seed=1, V=5))
        assert cs.failed == (2,)
        assert cs.p_values[2] == 0.0
        assert 2 not in cs.selected


class TestSelectionConfig:
    @pytest.mark.parametrize("seed", (-1, 2**64, 2**64 + 5))
    def test_seed_outside_64_bits_rejected(self, seed):
        # Seeds are used modulo 2**64, so -1 and 2**64 - 1 would alias.
        with pytest.raises(ContractError, match="seed"):
            SelectionConfig(seed=seed)

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2**64 - 1):
            assert SelectionConfig(seed=seed).seed == seed

    @pytest.mark.parametrize("name,value", [("seed", 1.5), ("seed", 1.0), ("B", 250.5),
                                            ("B", 500.0), ("V", 5.0), ("V", "5")])
    def test_non_integral_counts_rejected(self, name, value):
        # Truncating would run seed 1's draws for seed 1.5, and 250 for B = 250.5.
        kwargs = {"seed": 1, name: value}
        with pytest.raises(ContractError, match=f"{name} must be an integer"):
            SelectionConfig(**kwargs)

    def test_index_values_accepted_as_ints(self):
        cfg = SelectionConfig(seed=np.uint64(3), B=np.int64(600), V=np.int32(4))
        assert (cfg.seed, cfg.B, cfg.V) == (3, 600, 4)
        assert all(type(v) is int for v in (cfg.seed, cfg.B, cfg.V))
        assert cfg == SelectionConfig(seed=3, B=600, V=4)
        assert hash(cfg) == hash(SelectionConfig(seed=3, B=600, V=4))

    def test_bootstrap_is_built_and_checked_at_construction(self):
        with pytest.raises(ContractError, match="B must be >= 100, got 99"):
            SelectionConfig(seed=1, B=99)
        with pytest.warns(UserWarning, match="B = 200"):
            cfg = SelectionConfig(seed=1, B=200)
        assert cfg.bootstrap.B == 200
        assert cfg.bootstrap.seed == subseed(1, TAG_BOOT)
        assert "bootstrap" not in repr(cfg)
