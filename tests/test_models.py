import math

import numpy as np
import pytest

from ranksel import (ContractError, Dataset, DataError, LearnerError, LossFn,
                     adaptive_tau, enumerate_subsets, fit_huber, fit_huber_adaptive,
                     fit_huber_lasso, fit_ols, huber_location, lambda_fold_correction,
                     lambda_path, loss_eval, mad_scale, make_folds, panel_from_folds)
from ranksel import models
from ranksel.models import (_huber_weights, _median, fit_huber_stack, huber_lasso_lipschitz,
                             huber_score, robust_scale, subset_mask_id)
from ranksel.rng import keyed_stream
from ranksel.simlab import TAG_C2_DATA, ar1_design, subset_candidates


def _lstsq_irls(data, tau0, adapt, max_iter=200, tol=1e-8):
    """Reference IRLS as the package ran it before the normal-equations
    solver: np.median start, masked weights, one SVD lstsq per pass.
    Returns (theta, converged, passes)."""
    n, d = data.n, data.d
    design = np.column_stack([np.ones(n), data.x])
    theta = np.zeros(d + 1)
    theta[0] = float(np.median(data.y))
    tau = tau0
    for passes in range(1, max_iter + 1):
        r = data.y - design @ theta
        if adapt:
            scale = float(np.median(np.abs(r - np.median(r))) * 1.4826)
            if scale <= 0:
                scale = max(float(np.std(r)), 1e-12)
            tau = adaptive_tau(n, d, scale)
        a = np.abs(r)
        w = np.ones_like(a)
        big = a > tau
        w[big] = tau / a[big]
        sw = np.sqrt(w)
        new, _, rank, _ = np.linalg.lstsq(design * sw[:, None], data.y * sw,
                                          rcond=None)
        assert rank == d + 1
        if np.linalg.norm(new - theta) <= tol * max(1.0, np.linalg.norm(theta)):
            return new, True, passes
        theta = new
    return theta, False, max_iter


def _heavy_tailed(rng, n, d, df):
    x = rng.standard_t(df, size=(n, d))
    y = 0.5 + x @ np.linspace(1.0, -1.0, d) + rng.standard_t(df, size=n)
    return Dataset(x=x, y=y)


class TestLossEval:
    def test_huber_quadratic_branch(self):
        assert loss_eval(LossFn("huber", tau=1.0), 0.5) == 0.125

    def test_huber_linear_branch(self):
        assert loss_eval(LossFn("huber", tau=1.0), 2.0) == 1.5

    def test_unknown_kind_refused(self):
        with pytest.raises(ContractError, match="unknown loss kind: 'squared'"):
            LossFn("squared")

    def test_absolute(self):
        assert loss_eval(LossFn("absolute"), -2.5) == 2.5

    def test_huber_continuous_and_smooth_at_knee(self):
        tau = 0.7
        fn = LossFn("huber", tau=tau)
        eps = 1e-9
        below = loss_eval(fn, tau - eps)
        above = loss_eval(fn, tau + eps)
        assert abs(above - below) < 1e-8
        # first derivative: r on the quadratic side, tau on the linear side
        d_below = (loss_eval(fn, tau) - loss_eval(fn, tau - 1e-6)) / 1e-6
        d_above = (loss_eval(fn, tau + 1e-6) - loss_eval(fn, tau)) / 1e-6
        assert d_below == pytest.approx(tau, abs=1e-5)
        assert d_above == pytest.approx(tau, abs=1e-5)

    def test_vectorized(self):
        out = loss_eval(LossFn("huber", tau=1.0), np.array([0.5, 2.0]))
        np.testing.assert_allclose(out, [0.125, 1.5])

    def test_bad_tau_rejected(self):
        with pytest.raises(ContractError):
            LossFn("huber")
        with pytest.raises(ContractError):
            LossFn("huber", tau=-1.0)

    @pytest.mark.parametrize("kind", ("absolute",))
    @pytest.mark.parametrize("tau", (2.5, -1.0))
    def test_tau_refused_without_huber(self, kind, tau):
        # Only the Huber loss has a knee; a tau for another loss is refused.
        with pytest.raises(ContractError, match=f"{kind} loss takes no tau"):
            LossFn(kind, tau=tau)

    def test_nonfinite_residual_rejected(self):
        with pytest.raises(DataError):
            loss_eval(LossFn("absolute"), np.nan)


class TestFitOls:
    def test_exact_line(self):
        x = np.linspace(-2, 3, 25)[:, None]
        y = 2.0 + 3.0 * x[:, 0]
        fit = fit_ols(Dataset(x=x, y=y))
        assert fit.intercept == pytest.approx(2.0, abs=1e-10)
        assert fit.coef[0] == pytest.approx(3.0, abs=1e-10)

    def test_constant_response(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 2))
        fit = fit_ols(Dataset(x=x, y=np.full(30, 4.2)))
        assert fit.intercept == pytest.approx(4.2, abs=1e-10)
        np.testing.assert_allclose(fit.coef, 0.0, atol=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        fit = fit_ols(Dataset(x=x, y=y))
        resid = y - fit.predict(x)
        design = np.column_stack([np.ones(60), x])
        assert np.abs(design.T @ resid).max() <= 1e-8

    def test_rank_deficiency_flagged(self):
        x = np.ones((20, 2))  # duplicate constant columns
        x[:, 1] = x[:, 0]
        with pytest.raises(LearnerError):
            fit_ols(Dataset(x=x, y=np.arange(20.0)))

    def test_too_few_rows_flagged(self):
        with pytest.raises(LearnerError):
            fit_ols(Dataset(x=np.eye(3), y=np.ones(3)))


class TestHuberAdaptive:
    def test_close_to_ols_on_clean_gaussian(self):
        rng = np.random.default_rng(2)
        n = 1000
        x = rng.standard_normal((n, 3))
        y = 1.0 + x @ np.array([0.5, -1.0, 2.0]) + 0.3 * rng.standard_normal(n)
        data = Dataset(x=x, y=y)
        hub = fit_huber_adaptive(data)
        ols = fit_ols(data)
        assert abs(hub.intercept - ols.intercept) < 1e-3
        assert np.abs(hub.coef - ols.coef).max() < 1e-3
        assert hub.meta["converged"]

    def test_cauchy_noise_location(self):
        # With Cauchy noise the sqrt(n/(d+log n)) knee inflation makes the
        # estimator noticeably noisier than under finite-variance noise
        # (tau ~ 17 at n=500); measured hit rates are ~0.70 within 0.2 and
        # ~0.97 within 0.5. OLS has no finite moments here at all.
        rng = np.random.default_rng(3)
        close, near = 0, 0
        reps = 40
        for _ in range(reps):
            n = 500
            x = rng.standard_normal((n, 1))
            y = 1.0 + 0.0 * x[:, 0] + rng.standard_t(1, size=n)
            fit = fit_huber_adaptive(Dataset(x=x, y=y))
            err = abs(fit.intercept - 1.0)
            close += err < 0.2
            near += err < 0.5
        assert close >= 0.5 * reps
        assert near >= 0.85 * reps

    def test_bounded_influence_of_gross_outlier(self):
        rng = np.random.default_rng(4)
        n = 200
        x = rng.standard_normal((n, 2))
        beta = np.array([1.5, -2.0])
        y = 0.5 + x @ beta + 0.01 * rng.standard_normal(n)
        clean = fit_huber_adaptive(Dataset(x=x, y=y))
        clean_err = np.abs(clean.coef - beta).max()
        y_out = y.copy()
        y_out[0] = 1e6
        dirty = fit_huber_adaptive(Dataset(x=x, y=y_out))
        dirty_err = np.abs(dirty.coef - beta).max()
        assert dirty_err <= 10 * max(clean_err, 1e-6)
        # contrast: OLS gets destroyed by the same outlier
        ols = fit_ols(Dataset(x=x, y=y_out))
        assert np.abs(ols.coef - beta).max() > 100 * dirty_err


class TestIrlsCore:
    @pytest.mark.parametrize("df", [3, 1])
    @pytest.mark.parametrize("n", [40, 256])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_lstsq_reference(self, monkeypatch, d, n, df):
        data = _heavy_tailed(np.random.default_rng(100 * d + n + df), n, d, df)
        passes = []
        real_mad = models.mad_scale
        monkeypatch.setattr(models, "mad_scale",
                            lambda v: passes.append(1) or real_mad(v))
        ref_adaptive = _lstsq_irls(data, 1.0, adapt=True)
        for fit, (theta, converged, _) in (
                (fit_huber_adaptive(data), ref_adaptive),
                (fit_huber(data, tau=1.5), _lstsq_irls(data, 1.5, adapt=False))):
            got = np.concatenate([[fit.intercept], fit.coef])
            assert np.abs(got - theta).max() <= 1e-10 * max(1.0, np.abs(theta).max())
            assert fit.meta["converged"] is converged
        # one mad_scale call per adaptive pass, none for the fixed knee
        assert len(passes) == ref_adaptive[2]

    @pytest.mark.parametrize("spread", [1e-6, 1e-8, 1e-10])
    def test_nearly_collinear_design_matches_lstsq_reference(self, spread):
        # cond([1 X]) reaches 2e10; normal equations in the raw design's
        # coordinates would square that past 1 / eps.
        rng = np.random.default_rng(16)
        z = rng.standard_normal(200)
        x = np.column_stack([z, z + spread * rng.standard_normal(200)])
        data = Dataset(x=x, y=1.0 + z + rng.standard_t(3, size=200))
        fit = fit_huber_adaptive(data)
        theta, converged, _ = _lstsq_irls(data, 1.0, adapt=True)
        got = np.concatenate([[fit.intercept], fit.coef])
        assert np.abs(got - theta).max() <= 1e-6 * np.abs(theta).max()
        assert fit.meta["converged"] is converged

    @pytest.mark.parametrize("learner", [fit_huber_adaptive,
                                         lambda data: fit_huber(data, tau=1.0)])
    @pytest.mark.parametrize("bad", ["duplicate", "constant"])
    def test_rank_deficient_design_raises(self, learner, bad):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((50, 2))
        x[:, 1] = x[:, 0] if bad == "duplicate" else 3.0
        with pytest.raises(LearnerError, match="rank deficient"):
            learner(Dataset(x=x, y=rng.standard_t(3, size=50)))

    def test_singular_gram_raises_learner_error(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        data = _heavy_tailed(np.random.default_rng(15), 50, 2, 3)
        with pytest.raises(LearnerError, match="singular"):
            fit_huber_adaptive(data)

    def test_rank_deficient_candidate_dropped_alone(self):
        rng = np.random.default_rng(12)
        n = 60
        x = rng.standard_normal((n, 2))
        x[:, 1] = x[:, 0]   # only the subset holding both columns is singular
        y = 1.0 + x[:, 0] + rng.standard_t(3, size=n)
        panel, failed = panel_from_folds(subset_candidates(2), Dataset(x=x, y=y),
                                         make_folds(n, 5, seed=3), LossFn("absolute"))
        assert failed == ["m_11"]
        assert panel.model_ids == ("m_00", "m_10", "m_01")

    def test_max_iter_one_is_not_converged(self):
        data = _heavy_tailed(np.random.default_rng(13), 100, 2, 3)
        for fit in (fit_huber_adaptive(data, max_iter=1),
                    fit_huber(data, tau=1.0, max_iter=1)):
            assert fit.meta["converged"] is False
            assert fit.meta["not_converged"] is True


class TestFitHuberStack:
    """Each model of a stack gets what it would get alone, bit for bit."""

    @staticmethod
    def _stack(rng, k, n, d):
        designs = np.ones((k, n, d + 1))
        designs[:, :, 1:] = rng.standard_t(3, size=(k, n, d))
        y = (0.5 + designs[:, :, 1:] @ np.linspace(1.0, -1.0, d)
             + rng.standard_t(2, size=(k, n)))
        return designs, y

    @staticmethod
    def _assert_rows_alone(fit, designs, y, rows, **kwargs):
        for i in rows:
            one = fit_huber_stack(designs[i:i + 1], y[i:i + 1], **kwargs)
            assert fit.theta[i].tobytes() == one.theta[0].tobytes(), i
            assert fit.tau[i] == one.tau[0], i
            assert fit.converged[i] == one.converged[0], i
            assert fit.error[i] == one.error[0], i

    @pytest.mark.parametrize("adapt", [True, False])
    def test_each_model_matches_its_own_call(self, adapt):
        designs, y = self._stack(np.random.default_rng(20), 12, 60, 3)
        fit = fit_huber_stack(designs, y, tau=1.5, adapt=adapt)
        assert fit.error == [None] * 12 and fit.converged.all()
        self._assert_rows_alone(fit, designs, y, range(12), tau=1.5, adapt=adapt)

    def test_one_call_is_fit_huber_adaptive(self):
        data = _heavy_tailed(np.random.default_rng(23), 50, 2, 3)
        design = np.column_stack([np.ones(50), data.x])
        fit = fit_huber_stack(design[None], data.y[None])
        single = fit_huber_adaptive(data)
        assert fit.theta[0].tobytes() == np.r_[single.intercept, single.coef].tobytes()
        assert single.meta["tau"] == fit.tau[0]

    def test_only_the_model_that_hits_max_iter_is_not_converged(self):
        designs, y = self._stack(np.random.default_rng(21), 6, 60, 2)
        # Model 4 has scaled Cauchy noise, so it needs the most passes.
        y[4] = (0.5 + designs[4, :, 1:] @ np.array([1.0, -1.0])
                + 10 * np.random.default_rng(5).standard_cauchy(60))

        def passes(i):
            return next(m for m in range(1, 200) if fit_huber_stack(
                designs[i:i + 1], y[i:i + 1], max_iter=m).converged[0])

        needed = [passes(i) for i in range(6)]
        cap = sorted(needed)[-2]
        assert needed.index(max(needed)) == 4 and max(needed) > cap
        fit = fit_huber_stack(designs, y, max_iter=cap)
        assert fit.converged.tolist() == [i != 4 for i in range(6)]
        assert fit.error == [None] * 6
        self._assert_rows_alone(fit, designs, y, range(6), max_iter=cap)
        flags = [fit_huber_adaptive(Dataset(x=designs[i, :, 1:], y=y[i]), max_iter=cap)
                 .meta.get("not_converged", False) for i in range(6)]
        assert flags == [i == 4 for i in range(6)]

    def test_zero_mad_falls_back_to_std_for_that_model_alone(self):
        designs, y = self._stack(np.random.default_rng(24), 4, 41, 1)
        # Model 2's response is 3.0 at 25 of 41 points, so the first pass's
        # residuals about the median start have a MAD of exactly 0.
        y[2, :25] = 3.0
        assert mad_scale(y[2] - np.median(y[2])) == 0.0
        fit = fit_huber_stack(designs, y)
        assert fit.error == [None] * 4 and fit.converged.all()
        self._assert_rows_alone(fit, designs, y, range(4))
        rows = np.stack([y[2] - np.median(y[2]), y[0]])
        assert robust_scale(rows).tolist() == [float(np.std(rows[0])), mad_scale(rows[1])]

    def test_rank_deficient_design_fails_only_its_model(self):
        designs, y = self._stack(np.random.default_rng(25), 5, 50, 2)
        designs[1, :, 2] = designs[1, :, 1]
        fit = fit_huber_stack(designs, y)
        assert fit.error == [None, "design is rank deficient (rank 2 < 3)", None, None, None]
        self._assert_rows_alone(fit, designs, y, [0, 2, 3, 4])

    def test_singular_gram_fails_only_its_model(self, monkeypatch):
        designs, y = self._stack(np.random.default_rng(22), 5, 50, 2)
        y[3] *= 1e6   # marks model 3's right-hand sides
        real_solve = np.linalg.solve
        calls = []

        def solve(a, b):
            calls.append(len(a))
            if np.abs(b).max() > 1e4:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        fit = fit_huber_stack(designs, y)
        assert fit.error == [None, None, None, "weighted Gram matrix is singular", None]
        # the stacked solve, then one retry per model, then the four together
        assert calls[:7] == [5, 1, 1, 1, 1, 1, 4]
        self._assert_rows_alone(fit, designs, y, [0, 1, 2, 4])


class TestHuberLocation:
    def test_symmetric_sample(self):
        y = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert huber_location(y, tau=1.0) == pytest.approx(0.0, abs=1e-10)

    def test_resists_outlier(self):
        y = np.array([0.9, 1.0, 1.1, 1.05, 0.95, 500.0])
        assert abs(huber_location(y, tau=0.5) - 1.0) < 0.25

    def test_nonpositive_tau_rejected(self):
        for tau in (0.0, -1.0, math.nan):
            with pytest.raises(ContractError):
                huber_location(np.array([1.0, 2.0, 3.0]), tau=tau)


class TestHuberLasso:
    @staticmethod
    def _toy(n=80, d=10, seed=5, rho=None):
        """Sparse truth on the first three columns; i.i.d. normal columns, or
        AR(1) columns with correlation rho."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d)) if rho is None else ar1_design(n, d, rho, rng)
        beta = np.zeros(d)
        beta[:3] = [2.0, -1.5, 1.0]
        y = 0.7 + x @ beta + 0.2 * rng.standard_normal(n)
        return Dataset(x=x, y=y)

    def test_full_shrinkage_at_lambda_max(self):
        data = self._toy()
        tau = 2.0
        # path computed with matching tau so the KKT bound is exact
        path = lambda_path(data, k_path=1, tau=tau)
        fit = fit_huber_lasso(data, lam=float(path[0]), tau=tau)
        np.testing.assert_array_equal(fit.coef, 0.0)
        assert fit.intercept == pytest.approx(huber_location(data.y, tau), abs=1e-8)

    def test_unpenalized_limit_matches_fixed_tau_irls(self):
        data = self._toy(n=120, d=3, seed=6)
        tau = 1.5
        lasso = fit_huber_lasso(data, lam=1e-8, tau=tau, max_iter=20000, tol=1e-14)
        irls = fit_huber(data, tau=tau, tol=1e-12)
        assert abs(lasso.intercept - irls.intercept) < 1e-4
        assert np.abs(lasso.coef - irls.coef).max() < 1e-4

    def test_kkt_conditions(self):
        tau = 1.2
        lam = 0.08
        # The correlated p > n design converges more slowly, so it runs to a
        # smaller objective change before the same KKT bounds are checked.
        correlated = self._toy(n=60, d=120, rho=0.9)
        for data, tol in ((self._toy(), 1e-13), (correlated, 1e-15)):
            fit = fit_huber_lasso(data, lam=lam, tau=tau, max_iter=20000, tol=tol)
            assert fit.meta["converged"]
            r = data.y - fit.intercept - data.x @ fit.coef
            grad = -(data.x.T @ huber_score(r, tau)) / data.n
            zero = fit.coef == 0.0
            assert np.all(np.abs(grad[zero]) <= lam + 1e-6)
            active = ~zero
            assert np.abs(grad[active] + lam * np.sign(fit.coef[active])).max() <= 1e-6
            # intercept direction is unpenalized and stationary
            assert abs(np.mean(huber_score(r, tau))) <= 1e-6

    def test_objective_monotone(self):
        for data in (self._toy(seed=7), self._toy(n=60, d=120, rho=0.9)):
            fit = fit_huber_lasso(data, lam=0.05, tau=1.0, keep_history=True)
            hist = np.array(fit.meta["objective_history"])
            assert np.all(np.diff(hist) <= 1e-10 * np.maximum(1.0, np.abs(hist[:-1])))

    def test_support_grows_from_empty(self):
        data = self._toy()
        path = lambda_path(data, k_path=10, tau=1.2)
        top = fit_huber_lasso(data, lam=float(path[0]), tau=1.2)
        bottom = fit_huber_lasso(data, lam=float(path[-1]), tau=1.2)
        assert np.count_nonzero(top.coef) == 0
        assert np.count_nonzero(bottom.coef) >= np.count_nonzero(top.coef)

    def test_warm_start_dimension_checked(self):
        data = self._toy()
        from ranksel import FittedLinear
        with pytest.raises(ContractError):
            fit_huber_lasso(data, lam=0.1, tau=1.0,
                            init=FittedLinear(intercept=0.0, coef=np.zeros(2)))

    @pytest.mark.parametrize("seed", range(3))
    def test_fit_does_not_depend_on_the_design_layout(self, seed):
        # x @ beta and x.T @ psi run different BLAS kernels, and round
        # differently, on row-major and column-major copies of one design.
        data = self._toy(n=60, d=30, seed=seed, rho=0.5)
        copies = [Dataset(x=layout(data.x), y=data.y)
                  for layout in (np.ascontiguousarray, np.asfortranarray)]
        fits = [fit_huber_lasso(copy, lam=0.05, tau=1.0) for copy in copies]
        row_major, col_major = (np.concatenate([[f.intercept], f.coef]).tobytes()
                                for f in fits)
        assert row_major == col_major
        assert all(copy.x.flags.c_contiguous for copy in copies)


class TestLambdaPath:
    def test_single_value(self):
        data = TestHuberLasso._toy()
        path = lambda_path(data, k_path=1, tau=1.2)
        assert len(path) == 1

    def test_endpoint_ratio(self):
        data = TestHuberLasso._toy()
        path = lambda_path(data, k_path=50, tau=1.2)
        assert len(path) == 50
        assert path[-1] / path[0] == pytest.approx(0.01, rel=1e-9)
        assert np.all(np.diff(path) < 0)

    def test_zero_design_rejected(self):
        with pytest.raises(DataError):
            lambda_path(Dataset(x=np.zeros((10, 2)), y=np.arange(10.0)), k_path=50,
                        tau=1.0)


class TestLambdaFoldCorrection:
    def test_five_folds(self):
        assert lambda_fold_correction(1.0, 5) == pytest.approx(0.8944271909999159)

    def test_two_folds(self):
        assert lambda_fold_correction(0.5, 2) == pytest.approx(0.35355339059327373)

    def test_monotone_toward_identity(self):
        vals = [lambda_fold_correction(1.0, k) for k in (2, 5, 10, 100, 10000)]
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-4)

    def test_bad_inputs(self):
        with pytest.raises(ContractError):
            lambda_fold_correction(1.0, 1)
        with pytest.raises(ContractError):
            lambda_fold_correction(-1.0, 5)


class TestEnumerateSubsets:
    def test_four_covariates_give_sixteen(self):
        subsets = enumerate_subsets(4)
        assert len(subsets) == 16
        assert len(set(subsets)) == 16

    def test_single_covariate(self):
        assert enumerate_subsets(1) == [(), (0,)]

    def test_guard(self):
        with pytest.raises(ContractError):
            enumerate_subsets(21)
        with pytest.raises(ContractError):
            enumerate_subsets(0)

    def test_mask_ids(self):
        assert subset_mask_id((), 4) == "m_0000"
        assert subset_mask_id((1, 2), 4) == "m_0110"


def _median_cases():
    rng = np.random.default_rng(14)
    cases = [np.array([]), np.array([7.0]), np.array([1.0, 2.0]), np.full(6, -2.5),
             np.full(7, 0.0), np.array([-0.0, -0.0]), np.array([-0.0, 1.0, -0.0]),
             np.array([3.0, 1.0, 3.0, 3.0, 1.0, 2.0]), np.array([1e308, 1e308]),
             np.array([1.0, np.nan, 2.0]), np.array([np.nan, 0.5, -1.0, 4.0]),
             np.array([np.inf, -np.inf, 1.0])]
    for n in (5, 40, 255, 256):
        cases.append(rng.standard_t(3, size=n))
        cases.append(rng.integers(0, 3, size=n).astype(float))   # heavy ties
    return cases


def _stacks():
    """(k, n) stacks whose rows hit every branch of _median: NaN rows, +-inf,
    zeros of both signs at odd and even widths, heavy ties, width 0, and the
    (30, 256) Student-t shape of Case 1's IRLS residuals."""
    rng = np.random.default_rng(17)
    nan_rows = rng.standard_normal((5, 8))
    nan_rows[1, 3] = nan_rows[3, 0] = nan_rows[3, 7] = np.nan
    infs = np.array([[np.inf, 1.0, 2.0], [-np.inf, 1.0, 2.0], [np.inf, -np.inf, 0.5],
                     [np.inf, np.inf, -1.0], [-np.inf, -np.inf, np.inf]])
    even_infs = np.array([[np.inf, -np.inf, 1.0, 2.0], [np.inf, np.inf, 0.0, 1.0],
                          [-np.inf, 3.0, 4.0, 5.0]])
    stacks = [nan_rows, infs, even_infs, np.empty((3, 0)),
              rng.standard_t(3, size=(30, 256))]
    for width in (5, 6, 41, 42):
        zeros = rng.choice([-0.0, 0.0], size=(12, width))
        zeros[6:, :width // 3] = rng.choice([-1.0, 1.0], size=(6, width // 3))
        stacks.append(zeros)
        stacks.append(rng.integers(0, 3, size=(12, width)).astype(float))   # heavy ties
    return stacks


def _same_bits(got, ref):
    """Equal down to the sign of a zero; any NaN matches any NaN."""
    if math.isnan(ref):
        return math.isnan(got)
    return got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)


class TestStackedMedians:
    """A (k, n) stack gives, row by row, the bits of the one-row call and of
    np.median: the stacked IRLS relies on it to fit each model as if alone."""

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value",
                                "ignore:Mean of empty slice")
    @pytest.mark.parametrize("stack", _stacks(), ids=lambda s: "x".join(map(str, s.shape)))
    def test_rows_match_the_one_row_call_and_np_median(self, stack):
        medians, mads, scales = _median(stack), mad_scale(stack), robust_scale(stack)
        assert medians.shape == mads.shape == scales.shape == stack.shape[:1]
        for i, row in enumerate(stack):
            ref_median = float(np.median(row))
            ref_mad = float(np.median(np.abs(row - np.median(row))) * 1.4826)
            ref_scale = (ref_mad if math.isnan(ref_mad) or ref_mad > 0
                         else max(float(np.std(row)), 1e-12))
            for got, alone, ref in ((medians[i], _median(row), ref_median),
                                    (mads[i], mad_scale(row), ref_mad),
                                    (scales[i], robust_scale(row), ref_scale)):
                assert _same_bits(float(got), alone) and _same_bits(alone, ref)


class TestHelpers:
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value",
                                "ignore:Mean of empty slice")
    @pytest.mark.parametrize("v", _median_cases())
    def test_median_and_mad_match_np_median_bitwise(self, v):
        ref_mad = float(np.median(np.abs(v - np.median(v))) * 1.4826)
        for got, ref in ((_median(v), float(np.median(v))), (mad_scale(v), ref_mad)):
            assert _same_bits(got, ref)

    def test_weights_match_masked_form(self):
        tau = 0.75
        r = np.array([0.0, -0.0, 0.3, -0.75, 0.75, np.nextafter(0.75, 1.0), -2.0,
                      1e300, 5e-324])
        a = np.abs(r)
        ref = np.ones_like(a)
        big = a > tau
        ref[big] = tau / a[big]
        got = _huber_weights(r, tau)
        assert got.tobytes() == ref.tobytes()
        assert got[4] == 1.0 and got[0] == 1.0

    def test_mad_scale_gaussian_consistent(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(100_000)
        assert mad_scale(x) == pytest.approx(1.0, abs=0.02)

    def test_robust_scale_is_mad_when_positive(self):
        x = np.random.default_rng(10).standard_normal(101)
        assert robust_scale(x) == mad_scale(x) > 0

    def test_robust_scale_falls_back_to_std_when_mad_is_zero(self):
        x = np.array([0.0] * 7 + [1.0, 2.0])
        assert mad_scale(x) == 0.0
        assert robust_scale(x) == float(np.std(x)) > 1e-12

    def test_robust_scale_floor(self):
        assert robust_scale(np.full(5, 3.0)) == 1e-12
        tiny = np.array([0.0] * 7 + [1e-13])
        assert mad_scale(tiny) == 0.0 and 0.0 < np.std(tiny) < 1e-12
        assert robust_scale(tiny) == 1e-12

    def test_adaptive_tau_formula(self):
        assert adaptive_tau(100, 3, 2.0) == pytest.approx(
            1.345 * 2.0 * math.sqrt(100 / (3 + math.log(100))))

    def test_lipschitz_bounds_gram(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((40, 6))
        design = np.column_stack([np.ones(40), x])
        exact = np.linalg.eigvalsh(design.T @ design).max() / 40
        assert huber_lasso_lipschitz(Dataset(x=x, y=np.zeros(40))) == pytest.approx(
            exact, rel=1e-10)

    def test_lipschitz_is_an_upper_bound(self):
        # A Case 2 shaped training design. The fixed step 1/L is safe only
        # if L does not undershoot the top eigenvalue of [1 X]^T [1 X] / n.
        x = ar1_design(200, 200, 0.25, keyed_stream(401, TAG_C2_DATA, 1))[:160]
        design = np.column_stack([np.ones(160), x])
        exact = np.linalg.eigvalsh(design.T @ design).max() / 160
        lip = huber_lasso_lipschitz(Dataset(x=x, y=np.zeros(160)))
        assert lip >= exact * (1 - 1e-12)


class TestDataset:
    def test_validation(self):
        with pytest.raises(DataError):
            Dataset(x=np.array([[1.0], [np.nan]]), y=np.array([1.0, 2.0]))
        with pytest.raises(ContractError):
            Dataset(x=np.ones((3, 1)), y=np.ones(2))
        with pytest.raises(ContractError):
            Dataset(x=np.ones(3), y=np.ones(3))
