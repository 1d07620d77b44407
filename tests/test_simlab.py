import numpy as np
import pytest

from ranksel import (Candidate, Case1Config, Case2Config, ConfigError, Dataset,
                     FittedLinear, LossFn, adaptive_tau, enumerate_subsets,
                     fit_huber_adaptive, keyed_stream, make_folds, panel_from_folds,
                     run_case1, run_case2, sample_student_t)
from ranksel.models import robust_scale, subset_mask_id
from ranksel.simlab import (CASE1_BETA, CASE1_D, TAG_C1_DATA, _huber_centre, ar1_design,
                            case1_replicate, case2_replicate, subset_panel)


# Case 1's family one candidate at a time: the per-candidate oracle that
# subset_panel must match through panel_from_folds.

def _intercept_only_fitter(d: int):
    def fit(data):
        return FittedLinear(intercept=_huber_centre(data.y), coef=np.zeros(d))
    return fit


def _subset_fitter(subset: tuple[int, ...], d: int):
    if not subset:
        return _intercept_only_fitter(d)
    cols = list(subset)

    def fit(data):
        fm = fit_huber_adaptive(Dataset(x=data.x[:, cols], y=data.y))
        coef = np.zeros(d)
        coef[cols] = fm.coef
        return FittedLinear(intercept=fm.intercept, coef=coef, meta=fm.meta)
    return fit


def subset_candidates(d: int = CASE1_D) -> list[Candidate]:
    """All 2^d intercept-bearing subset models fit by adaptive Huber."""
    return [Candidate(model_id=subset_mask_id(s, d), fit=_subset_fitter(s, d))
            for s in enumerate_subsets(d)]


class TestStudentT:
    def test_near_gaussian_for_huge_df(self):
        rng = keyed_stream(1)
        draws = sample_student_t(1e6, rng, size=100_000)
        assert abs(draws.mean()) < 0.02

    def test_cauchy_median(self):
        rng = keyed_stream(2)
        draws = sample_student_t(1.0, rng, size=100_000)
        assert abs(np.median(draws)) < 0.02

    def test_df3_variance(self):
        rng = keyed_stream(3)
        draws = sample_student_t(3.0, rng, size=100_000)
        assert np.var(draws) == pytest.approx(3.0, rel=0.10)

    def test_deterministic(self):
        a = sample_student_t(2.0, keyed_stream(4), size=10)
        b = sample_student_t(2.0, keyed_stream(4), size=10)
        np.testing.assert_array_equal(a, b)


class TestAr1:
    def test_rho_zero_uncorrelated(self):
        x = ar1_design(10_000, 8, 0.0, keyed_stream(5))
        lag1 = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(lag1) < 0.03

    def test_rho_075_lag1(self):
        x = ar1_design(10_000, 8, 0.75, keyed_stream(6))
        for j in range(7):
            c = np.corrcoef(x[:, j], x[:, j + 1])[0, 1]
            assert c == pytest.approx(0.75, abs=0.03)

    def test_unit_variances(self):
        x = ar1_design(10_000, 6, 0.5, keyed_stream(7))
        np.testing.assert_allclose(x.var(axis=0), 1.0, atol=0.05)

    def test_lag2_matches_rho_squared(self):
        x = ar1_design(20_000, 5, 0.6, keyed_stream(8))
        c2 = np.corrcoef(x[:, 0], x[:, 2])[0, 1]
        assert c2 == pytest.approx(0.36, abs=0.03)

    def test_single_vector_shape(self):
        assert ar1_design(1, 12, 0.3, keyed_stream(9)).shape == (1, 12)
        assert ar1_design(7, 12, 0.3, keyed_stream(9)).shape == (7, 12)

    def test_bad_rho(self):
        for rho in (1.0, -1.0, 1.5):
            with pytest.raises(ConfigError):
                ar1_design(3, 5, rho, keyed_stream(0))


class TestSubsetCandidates:
    def test_sixteen_models_for_four_covariates(self):
        cands = subset_candidates(4)
        assert len(cands) == 16
        assert len({c.model_id for c in cands}) == 16

    def test_every_fit_carries_intercept(self):
        rng = keyed_stream(10)
        x = rng.standard_normal((40, 4))
        y = 2.0 + x[:, 1] + 0.1 * rng.standard_normal(40)
        for cand in subset_candidates(4)[:4]:
            fit = cand.fit(Dataset(x=x, y=y))
            assert np.isfinite(fit.intercept)
            assert fit.coef.shape == (4,)


def _case1_data(seed, n):
    rng = keyed_stream(seed, TAG_C1_DATA, 0)
    x = sample_student_t(3.0, rng, size=(n, 4))
    y = CASE1_BETA[0] + x @ CASE1_BETA[1:] + sample_student_t(1.0, rng, size=n)
    return x, y


class TestSubsetPanel:
    """The stacked Case 1 panel against the per-candidate route it replaces."""

    @staticmethod
    def _assert_same_as_per_candidate(x, y, v_folds, seed):
        data = Dataset(x=x, y=y)
        loss = LossFn("huber", tau=adaptive_tau(data.n, 4, robust_scale(y)))
        folds = make_folds(data.n, v_folds, seed)
        want_panel, want_failed = panel_from_folds(subset_candidates(4), data, folds, loss)
        got_panel, got_failed = subset_panel(data, folds, loss)
        assert got_failed == want_failed
        assert got_panel.model_ids == want_panel.model_ids
        assert got_panel.losses.tobytes() == want_panel.losses.tobytes()
        return got_panel, got_failed

    @pytest.mark.parametrize("seed", [3, 17, 401])
    def test_matches_per_candidate_panel(self, seed):
        panel, failed = self._assert_same_as_per_candidate(*_case1_data(seed, 320), 5, seed)
        assert failed == [] and panel.losses.shape == (320, 16)

    def test_unequal_training_sizes(self):
        # 43 = 5 * 8 + 3: three folds of 9 and two of 8, so the training sets
        # hold 34 or 35 points and each subset size takes two stacks.
        panel, _ = self._assert_same_as_per_candidate(*_case1_data(5, 43), 5, 5)
        assert panel.n == 43

    def test_duplicated_column_fails_exactly_the_subsets_holding_both(self):
        x, y = _case1_data(9, 80)
        x[:, 3] = x[:, 1]
        panel, failed = self._assert_same_as_per_candidate(x, y, 5, 9)
        both = sorted(subset_mask_id(s, 4) for s in enumerate_subsets(4) if {1, 3} <= set(s))
        assert failed == both and len(both) == 4
        assert panel.n_models == 12


class TestCase1:
    def test_smoke_report_shape(self):
        report = run_case1(Case1Config(n=40, x_df=3, seed=1, reps=2))
        assert report.case == "case1"
        assert report.reps == 2
        for method in ("cv", "cvc_style", "pcv", "rsr"):
            assert "set_size" in report.metrics[method]
            assert "correct_rate" in report.metrics[method]
        assert 0.0 <= report.metrics["rsr"]["correct_rate"]["mean"] <= 1.0
        assert "screening_reduced_rate" in report.metrics["rsr"]

    def test_reproducible_bytes(self):
        cfg = Case1Config(n=40, x_df=2, seed=5, reps=2)
        a = run_case1(cfg).to_json()
        b = run_case1(cfg).to_json()
        assert a == b

    def test_thread_count_does_not_change_results(self):
        base = Case1Config(n=40, x_df=3, seed=9, reps=4, threads=1)
        two = Case1Config(n=40, x_df=3, seed=9, reps=4, threads=2)
        assert run_case1(base).to_json() == run_case1(two).to_json()

    def test_replicate_rows_per_method(self):
        cfg = Case1Config(n=40, x_df=3, seed=3, reps=1, methods=("rsr", "cv"))
        rows = case1_replicate(cfg, 0)
        assert {r["method"] for r in rows} == {"rsr", "cv"}
        rsr_row = next(r for r in rows if r["method"] == "rsr")
        assert rsr_row["bootstrap_columns"] <= 16 * 15

    def test_failed_candidate_is_not_read_as_screening(self, monkeypatch):
        # The full model fails to train, so each panel holds 15 models and
        # RSR without screening bootstraps all 15 * 14 pairs.
        import ranksel.simlab as simlab_mod

        fit_huber_stack = simlab_mod.fit_huber_stack

        def refuse_full_model(designs, y, **kwargs):
            fit = fit_huber_stack(designs, y, **kwargs)
            if designs.shape[2] == 5:   # intercept + 4 covariates: the full model
                fit.error[:] = ["training refused"] * len(fit.error)
            return fit

        monkeypatch.setattr(simlab_mod, "fit_huber_stack", refuse_full_model)
        report = run_case1(Case1Config(n=40, x_df=3, seed=1, reps=2, methods=("rsr",),
                                       screening=False))
        assert [(r["n_failed"], r["bootstrap_columns"], r["screening_reduced"])
                for r in report.replicates] == [(1, 210, False)] * 2
        assert report.metrics["rsr"]["screening_reduced_rate"]["mean"] == 0.0

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            Case1Config(n=40, x_df=3, seed=0, methods=("bogus",))

    def test_too_small_n_rejected(self):
        with pytest.raises(ConfigError):
            Case1Config(n=10, x_df=3, seed=0)

    @pytest.mark.parametrize("bad", [dict(B=99), dict(alpha=0.0), dict(alpha=1.5),
                                     dict(V=0), dict(V=1), dict(reps=0), dict(reps=-2),
                                     dict(threads=-3)])
    def test_bad_selection_settings_rejected(self, bad):
        with pytest.raises(ConfigError):
            Case1Config(n=40, x_df=3, seed=0, **bad)


class TestCase2:
    @staticmethod
    def _small_cfg(**kw):
        base = dict(n=40, p=10, noise_df=3, rho=0.25, seed=2, reps=1,
                    folds=2, k_path=8, B=500)
        base.update(kw)
        return Case2Config(**base)

    def test_smoke_report_shape(self):
        report = run_case2(self._small_cfg())
        for method in ("cv", "cvc_style", "pcv", "rsr"):
            stats = report.metrics[method]
            for key in ("nonzeros", "support_rate", "oracle_rate", "cv_error",
                        "set_size"):
                assert key in stats
        for row in report.replicates:
            if row["oracle"]:
                assert row["support_covered"]
            assert row["nonzeros"] >= 0
            assert 0 <= row["chosen_index"] < 8

    def test_reproducible_bytes(self):
        cfg = self._small_cfg(seed=13)
        assert run_case2(cfg).to_json() == run_case2(cfg).to_json()

    def test_thread_count_does_not_change_results(self):
        a = run_case2(self._small_cfg(seed=21, reps=2, threads=1))
        b = run_case2(self._small_cfg(seed=21, reps=2, threads=2))
        assert a.to_json() == b.to_json()

    def test_chosen_lambda_is_largest_in_set(self):
        cfg = self._small_cfg(seed=4, methods=("rsr",))
        rows = case2_replicate(cfg, 0)
        assert rows[0]["method"] == "rsr"
        # decreasing path: the reported lambda cannot be below any other
        # selected one, so its index is minimal among the set
        assert rows[0]["chosen_index"] >= 0

    def test_bad_rho_rejected(self):
        with pytest.raises(ConfigError):
            self._small_cfg(rho=1.5)

    @pytest.mark.parametrize("bad", [dict(B=99), dict(alpha=0.0), dict(alpha=1.5),
                                     dict(folds=0), dict(folds=1), dict(reps=0),
                                     dict(reps=-2), dict(threads=-3), dict(k_path=1),
                                     dict(k_path=0)])
    def test_bad_selection_settings_rejected(self, bad):
        with pytest.raises(ConfigError):
            self._small_cfg(**bad)


@pytest.mark.parametrize("threads, reps, cpus, pool", [
    (64, 2, 2, 2),       # never more workers than replicates
    (0, 3, 8, 3),
    (0, 5, 2, 2),        # 0 = one worker per CPU
    (2, 4, 8, 2),
    (1, 4, 8, None),     # one worker runs in-process
    (3, 1, 8, None),
    (0, 4, None, None),  # CPU count unknown: in-process
])
def test_worker_count_capped_at_reps(threads, reps, cpus, pool, monkeypatch):
    import ranksel.simlab as simlab_mod

    opened = []

    class RecordingPool:
        """Stand-in for ProcessPoolExecutor: records max_workers, runs in-process."""

        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(simlab_mod, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simlab_mod.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(simlab_mod, "case1_replicate",
                        lambda config, rep: [{"rep": rep, "method": "cv", "set_size": 1}])
    report = run_case1(Case1Config(n=40, x_df=3, seed=0, reps=reps, threads=threads,
                                   methods=("cv",)))
    assert opened == ([] if pool is None else [pool])
    assert [r["rep"] for r in report.replicates] == list(range(reps))
