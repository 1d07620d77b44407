import math

import numpy as np
import pytest

from ranksel import (BootstrapConfig, ContractError, SelectionConfig,
                     multiplier_min_bootstrap, run_min_bootstrap)
from ranksel.bootstrap import p_values


def _centered(rng, n, p):
    psi = rng.standard_normal((n, p))
    return psi - psi.mean(axis=0)


class TestMultiplierMinBootstrap:
    def test_zero_scores_give_zero_draws(self):
        cfg = BootstrapConfig(B=500, seed=1)
        draws = multiplier_min_bootstrap(np.zeros((10, 3)), cfg)
        assert draws.shape == (500,)
        assert np.all(draws == 0.0)

    def test_single_column_variance_matches_score_variance(self):
        # conditional variance of sum(psi_k e_k)/sqrt(n) is exactly the
        # population variance of the psi column
        rng = np.random.default_rng(2)
        psi = _centered(rng, 400, 1) * 1.7
        v = float(psi[:, 0] @ psi[:, 0] / psi.shape[0])
        draws = multiplier_min_bootstrap(psi, BootstrapConfig(B=5000, seed=3))
        assert float(np.var(draws)) == pytest.approx(v, rel=0.10)

    def test_duplicate_columns_match_single_column(self):
        rng = np.random.default_rng(4)
        one = _centered(rng, 50, 1)
        two = np.column_stack([one, one])
        d1 = multiplier_min_bootstrap(one, BootstrapConfig(B=500, seed=9))
        d2 = multiplier_min_bootstrap(two, BootstrapConfig(B=500, seed=9))
        # same multipliers, duplicate columns: min of duplicates is the
        # column itself (tolerance covers BLAS shape-dependent accumulation)
        np.testing.assert_allclose(d1, d2, rtol=1e-12, atol=1e-15)

    def test_same_multipliers_across_columns(self):
        # min over j must see the same e within a draw: with psi2 = -psi1
        # every draw is min(x, -x) = -|x|, never positive
        rng = np.random.default_rng(5)
        col = _centered(rng, 60, 1)
        psi = np.column_stack([col, -col])
        draws = multiplier_min_bootstrap(psi, BootstrapConfig(B=500, seed=6))
        assert np.all(draws <= 0.0)

    def test_bit_identical_across_calls(self):
        rng = np.random.default_rng(7)
        psi = _centered(rng, 30, 4)
        cfg = BootstrapConfig(B=500, seed=42)
        d1 = multiplier_min_bootstrap(psi, cfg)
        d2 = multiplier_min_bootstrap(psi, cfg)
        np.testing.assert_array_equal(d1, d2)
        d3 = multiplier_min_bootstrap(psi, BootstrapConfig(B=500, seed=43))
        assert not np.array_equal(d1, d3)

    def test_noncentered_psi_rejected(self):
        psi = np.ones((20, 2))
        with pytest.raises(ContractError):
            multiplier_min_bootstrap(psi, BootstrapConfig(B=500, seed=0))

    def test_draws_finite(self):
        rng = np.random.default_rng(8)
        psi = _centered(rng, 25, 3)
        draws = multiplier_min_bootstrap(psi, BootstrapConfig(B=500, seed=2))
        assert np.all(np.isfinite(draws))


class TestBootstrapConfig:
    def test_too_few_draws_rejected(self):
        with pytest.raises(ContractError):
            BootstrapConfig(B=99, seed=0)

    @pytest.mark.parametrize("B", (250.5, 500.0))
    def test_non_integral_draws_rejected(self, B):
        # Truncating B = 250.5 would run 250 draws.
        with pytest.raises(ContractError, match="B must be an integer"):
            BootstrapConfig(B=B, seed=0)
        assert BootstrapConfig(B=np.int64(500), seed=np.uint64(7)).B == 500

    def test_low_draws_warn(self):
        with pytest.warns(UserWarning) as caught:
            BootstrapConfig(B=100, seed=0)
        # the warning names the caller, not the dataclass-generated __init__
        assert [w.filename for w in caught] == [__file__]

    def test_low_draws_warn_through_selection_config(self):
        # SelectionConfig builds the BootstrapConfig; the warning still names
        # the first caller outside the package, not select.py.
        with pytest.warns(UserWarning) as caught:
            SelectionConfig(seed=1, B=200)
        assert [w.filename for w in caught] == [__file__]

    def test_default_is_quiet(self, recwarn):
        BootstrapConfig(seed=0)
        assert len(recwarn) == 0


def _fresh(tests, cfg):
    return np.full((tests, cfg.B), np.inf)


def _p_at(t, psi, cfg):
    """One test's draws over every column of psi, and its t_obs and p-value
    when every mu is t / sqrt(n); the draws do not depend on mu."""
    n, p = psi.shape
    draws = run_min_bootstrap(_fresh(1, cfg), psi, cfg, [(np.zeros(p), np.full(p, -1))])
    t_obs = math.sqrt(n) * np.full(p, t / math.sqrt(n)).min()
    return draws[0], t_obs, p_values([t_obs], draws)[0]


class TestPValue:
    """p-values as ``p_values`` counts them from ``run_min_bootstrap``'s draws."""

    def test_below_all(self):
        psi = _centered(np.random.default_rng(9), 25, 2)
        cfg = BootstrapConfig(B=500, seed=4)
        draws, _, _ = _p_at(0.0, psi, cfg)
        assert _p_at(draws.min() - 1.0, psi, cfg)[2] == 0.0

    def test_above_all(self):
        psi = _centered(np.random.default_rng(9), 25, 2)
        cfg = BootstrapConfig(B=500, seed=4)
        draws, _, _ = _p_at(0.0, psi, cfg)
        assert _p_at(draws.max() + 1.0, psi, cfg)[2] == 1.0

    def test_strict_count(self):
        # n = 64: mu = t / 8 scales back to t_obs = t exactly, so t_obs can
        # equal the k-th smallest draw, which then does not count.
        psi = _centered(np.random.default_rng(10), 64, 3)
        cfg = BootstrapConfig(B=500, seed=6)
        draws = np.sort(_p_at(0.0, psi, cfg)[0])
        assert np.unique(draws).size == cfg.B
        for k in (50, 250, 450):
            _, t_obs, p = _p_at(draws[k], psi, cfg)
            assert t_obs == draws[k]
            assert p == k / cfg.B

    def test_ties_do_not_count(self):
        # Zero scores give draws of exactly 0; t_obs = 0 ties every one.
        draws, t_obs, p = _p_at(0.0, np.zeros((10, 2)), BootstrapConfig(B=500, seed=1))
        assert np.all(draws == 0.0) and t_obs == 0.0
        assert p == 0.0

    def test_monotone_in_t_obs(self):
        psi = _centered(np.random.default_rng(10), 36, 3)
        cfg = BootstrapConfig(B=500, seed=6)
        ps = [_p_at(t, psi, cfg)[2] for t in np.linspace(-3, 3, 25)]
        assert all(p1 <= p2 for p1, p2 in zip(ps, ps[1:]))
        assert ps[0] < ps[-1]


class TestRunMinBootstrap:
    def test_t_obs_scale(self):
        # Draws are on the scale of t_obs = sqrt(n) * min(mu): the row
        # minima of the product over sqrt(n), as for one test alone.
        rng = np.random.default_rng(11)
        psi = _centered(rng, 36, 2)
        cfg = BootstrapConfig(B=500, seed=5)
        draws = run_min_bootstrap(_fresh(1, cfg), psi, cfg, [([0, 0], [-1, -1])])
        assert draws.shape == (1, 500)
        assert draws.tobytes() == multiplier_min_bootstrap(psi, cfg).tobytes()
        t_obs = math.sqrt(36) * np.array([0.2, -0.1]).min()
        assert p_values([t_obs], draws)[0] == np.count_nonzero(draws[0] < t_obs) / 500

    def test_segments_match_separate_runs(self):
        # Each test's draws are those of its signed columns on their own,
        # however its columns are spread over runs and blocks.
        rng = np.random.default_rng(12)
        psi = _centered(rng, 40, 11)
        cfg = BootstrapConfig(B=500, seed=8)
        blocks = [[([0, 0], [1, -1]), ([1, -1, 1], [2, 0, -1]), ([1, 1, 1], [0, -1, 2])],
                  [([-1], [2]), ([2, 2], [-1, 1])]]
        signed = {0: [], 1: [], 2: []}
        draws, start = _fresh(3, cfg), 0
        for block in blocks:
            size = sum(len(plus) for plus, _ in block)
            run_min_bootstrap(draws, psi[:, start:start + size], cfg, block)
            for plus, minus in block:
                for c, (test, other) in enumerate(zip(plus, minus), start):
                    if test >= 0:
                        signed[test].append(psi[:, c])
                    if other >= 0:
                        signed[other].append(-psi[:, c])
                start += len(plus)
        for test, cols in signed.items():
            alone = multiplier_min_bootstrap(np.column_stack(cols), cfg)
            np.testing.assert_allclose(draws[test], alone, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sizes", [
        [([0, 0], [-1, -1])], [([0, 0, 0], [-1, -1])], [([0, 0, 0], [1, 1, -1])],
        [([3, 3, 3], [-1, -1, -1])], [([0, 0, 0], [-2, -1, -1])], [],
        [([0, 1, 0], [-1, -1, -1])], [([0, 0, 0], [-1, -1, -1]), ([], [])]])
    def test_bad_segment_sizes_rejected(self, sizes):
        # Runs must cover the block's columns, each nonempty with one plus
        # test and distinct minus tests, among the draws' three rows.
        rng = np.random.default_rng(13)
        psi = _centered(rng, 20, 3)
        cfg = BootstrapConfig(B=500, seed=1)
        with pytest.raises(ContractError, match="segments must cover"):
            run_min_bootstrap(_fresh(3, cfg), psi, cfg, sizes)

    @pytest.mark.parametrize("width", [9, 45, 262])
    def test_column_major_block_gives_the_same_bytes(self, width):
        # select bootstraps a column-major psi block; the gemm must read it
        # to the same bits as a C-ordered copy at every block width.
        rng = np.random.default_rng(width)
        n, tests = 1000, 50
        psi = _centered(rng, n, width)
        cfg = BootstrapConfig(B=500, seed=9)
        segments = [(np.full(size, r), np.arange(r + 1, r + 1 + size) % tests)
                    for r, size in enumerate([49] * (width // 49) + [width % 49])]
        t_obs = rng.standard_normal(tests)
        c_run = run_min_bootstrap(_fresh(tests, cfg), np.ascontiguousarray(psi), cfg,
                                  segments)
        f_run = run_min_bootstrap(_fresh(tests, cfg), np.asfortranarray(psi), cfg,
                                  segments)
        assert c_run.tobytes() == f_run.tobytes()
        assert p_values(t_obs, c_run).tobytes() == p_values(t_obs, f_run).tobytes()
        assert 0.0 < p_values(t_obs, c_run).max()
