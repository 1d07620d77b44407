import math

import numpy as np
import pytest
from scipy.stats import norm

from ranksel import (BootstrapConfig, ContractError, multiplier_min_bootstrap,
                     normal_quantile, p_value, run_min_bootstrap)


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

    def test_default_is_quiet(self, recwarn):
        BootstrapConfig(seed=0)
        assert len(recwarn) == 0


class TestPValue:
    def test_below_all(self):
        assert p_value(-10.0, [-1.0, 0.0, 1.0]) == 0.0

    def test_above_all(self):
        assert p_value(10.0, [-1.0, 0.0, 1.0]) == 1.0

    def test_strict_count(self):
        assert p_value(0.5, [-1.0, 0.0, 1.0, 2.0]) == 0.5

    def test_ties_do_not_count(self):
        assert p_value(0.0, [0.0, 0.0, -1.0, 1.0]) == 0.25

    def test_monotone_in_t_obs(self):
        rng = np.random.default_rng(10)
        draws = rng.standard_normal(200)
        grid = np.linspace(-3, 3, 25)
        ps = [p_value(t, draws) for t in grid]
        assert all(p1 <= p2 for p1, p2 in zip(ps, ps[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            p_value(0.0, [])


class TestRunMinBootstrap:
    def test_t_obs_scale(self):
        rng = np.random.default_rng(11)
        psi = _centered(rng, 36, 2)
        mu = np.array([0.2, -0.1])
        [res] = run_min_bootstrap(mu, psi, BootstrapConfig(B=500, seed=5))
        assert res.t_obs == pytest.approx(math.sqrt(36) * -0.1)
        assert res.p_value == p_value(res.t_obs, res.draws)

    def test_segments_match_separate_runs(self):
        rng = np.random.default_rng(12)
        psi = _centered(rng, 40, 6)
        mu = rng.standard_normal(6) / 10
        cfg = BootstrapConfig(B=500, seed=8)
        results = run_min_bootstrap(mu, psi, cfg, [2, 3, 1])
        for res, cols in zip(results, (slice(0, 2), slice(2, 5), slice(5, 6))):
            [alone] = run_min_bootstrap(mu[cols], psi[:, cols], cfg)
            assert res.t_obs == alone.t_obs == math.sqrt(40) * mu[cols].min()
            np.testing.assert_allclose(res.draws, alone.draws, rtol=0, atol=1e-12)
            assert res.p_value == alone.p_value

    @pytest.mark.parametrize("sizes", [[0, 3], [3, 0], [2, 0, 1], [1, 1], [2, 2],
                                       [], [-1, 4]])
    def test_bad_segment_sizes_rejected(self, sizes):
        rng = np.random.default_rng(13)
        psi = _centered(rng, 20, 3)
        with pytest.raises(ContractError, match="segment sizes"):
            run_min_bootstrap(np.zeros(3), psi, BootstrapConfig(B=500, seed=1), sizes)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_known_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.95996398, abs=1e-8)

    def test_symmetry(self):
        for q in (0.01, 0.2, 0.37, 0.49, 0.6, 0.9, 0.999):
            assert abs(normal_quantile(q) + normal_quantile(1 - q)) <= 1e-12

    def test_accuracy_against_reference(self):
        qs = np.concatenate([
            [1e-12, 1e-10, 1e-8, 1e-6, 1e-4],
            np.linspace(0.001, 0.999, 97),
            [1 - 1e-4, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10, 1 - 1e-12],
        ])
        for q in qs:
            assert abs(normal_quantile(q) - norm.ppf(q)) <= 1e-12

    def test_domain_rejected(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ContractError):
                normal_quantile(bad)
