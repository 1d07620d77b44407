"""Acceptance suite: one test per criterion, one PASS line per criterion;
criterion 4 also runs at a high-dimensional shape.

Run with `pytest tests/test_acceptance.py -v -s`; every test here carries
the `acceptance` marker, so `pytest -m "not acceptance"` skips them. The
simulation-backed criteria (5-10) take a few minutes each at the pinned
replicate counts; the whole module runs in roughly ten minutes on two
cores.
"""

import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ranksel import (BootstrapConfig, Candidate, Case1Config, Case2Config,
                     Dataset, LossFn, LossPanel, SelectionConfig, TieStreams,
                     fit_ols, keyed_stream, multiplier_min_bootstrap, pair_stats,
                     ranksum_u, rsr_from_candidates, run_case1, run_case2,
                     se_ranksum)

pytestmark = pytest.mark.acceptance

ACCEPT_SEED = 20260810
CASE1_REPS = 100
CASE2_REPS = 50


def _ok(num, message):
    print(f"ACCEPTANCE {num}: PASS - {message}")


# ---------------------------------------------------------------------------
# shared expensive runs (session-scoped, threads pinned for determinism)

# tools/acceptance_hashes.py hashes these same configs
def case1_config(n):
    return Case1Config(n=n, x_df=3, seed=ACCEPT_SEED, reps=CASE1_REPS,
                       alpha=0.1, threads=2)


def case2_config():
    return Case2Config(n=200, p=200, noise_df=3, rho=0.25, seed=ACCEPT_SEED,
                       reps=CASE2_REPS, alpha=0.1, threads=2)


@pytest.fixture(scope="session")
def case1_at_320():
    cfg = case1_config(320)
    return cfg, run_case1(cfg)


@pytest.fixture(scope="session")
def case1_at_40():
    cfg = case1_config(40)
    return cfg, run_case1(cfg)


@pytest.fixture(scope="session")
def case2_main():
    cfg = case2_config()
    return cfg, run_case2(cfg)


# ---------------------------------------------------------------------------
# criterion 1: fast rank-sum == O(n^2) enumeration, exactly

def test_criterion_01_ranksum_oracle_equivalence():
    rng = np.random.default_rng(ACCEPT_SEED)
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        vals = rng.permutation(4 * n)[: 2 * n].astype(float)  # tie-free
        a, b = vals[:n], vals[n:]
        fast = ranksum_u(a, b)
        wins = 0
        for k in range(n):
            ak = a[k]
            for l in range(n):
                wins += ak < b[l]
        assert fast == wins / (n * n)
    _ok(1, "1000 tie-free instances, fast path == brute force exactly")


# ---------------------------------------------------------------------------
# criterion 2: null calibration on exchangeable candidates

_CRIT2_REPS = 500
_CRIT2_MODELS = 5


def _crit2_replicate(rep):
    rng = keyed_stream(ACCEPT_SEED, 21, rep)
    n_total = 400            # the evaluation half holds n = 200 points
    x = rng.standard_normal((n_total, 1))
    y = rng.standard_t(2, size=n_total)
    data = Dataset(x=x, y=y)
    cands = [Candidate(f"c{j}", fit_ols) for j in range(_CRIT2_MODELS)]
    cfg = SelectionConfig(seed=rep, alpha=0.1, B=500, V=0)
    cs = rsr_from_candidates(cands, data, cfg, LossFn("absolute"))
    return [float(p) for p in cs.p_values]


def _crit2_aggregate(threads):
    if threads <= 1:
        results = [_crit2_replicate(rep) for rep in range(_CRIT2_REPS)]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_crit2_replicate, range(_CRIT2_REPS),
                                    chunksize=16))
    pvals = np.array(results)
    retention = (pvals >= 0.1).mean(axis=0)
    return json.dumps({"retention": retention.tolist(),
                       "p_values": pvals.tolist()}, sort_keys=True)


@pytest.fixture(scope="session")
def crit2_report():
    return _crit2_aggregate(threads=2)


def test_criterion_02_null_calibration(crit2_report):
    retention = np.array(json.loads(crit2_report)["retention"])
    assert retention.shape == (_CRIT2_MODELS,)
    assert np.all(retention >= 1 - 0.1 - 0.05)
    _ok(2, f"retention per model {np.round(retention, 3).tolist()} >= 0.85 "
           f"({_CRIT2_REPS} replicates)")


# ---------------------------------------------------------------------------
# criterion 3: dependent-sample variance formula, independent case

def test_criterion_03_variance_formula():
    rng = keyed_stream(ACCEPT_SEED, 31)
    n = 2000
    vals = np.empty(200)
    for r in range(200):
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        vals[r] = n * se_ranksum(a, b) ** 2
    mean = float(vals.mean())
    assert 1 / 6 - 0.02 <= mean <= 1 / 6 + 0.02
    _ok(3, f"mean n*se^2 = {mean:.4f} in [{1/6 - 0.02:.4f}, {1/6 + 0.02:.4f}]")


# ---------------------------------------------------------------------------
# criterion 4: bootstrap draws match the Monte-Carlo min distribution

def test_criterion_04_gaussian_approximation():
    n, p, b_draws, mc_reps = 500, 10, 2000, 2000
    rng = keyed_stream(ACCEPT_SEED, 41)
    panel = LossPanel(losses=np.abs(rng.standard_normal((n, p + 1))),
                      model_ids=tuple(f"c{j}" for j in range(p + 1)))
    stats = pair_stats(panel, 0, ties=TieStreams(ACCEPT_SEED, 42))
    draws = multiplier_min_bootstrap(stats.psi,
                                     BootstrapConfig(B=b_draws, seed=ACCEPT_SEED))
    mc_vals = np.empty(mc_reps)
    for r in range(mc_reps):
        g = keyed_stream(ACCEPT_SEED, 43, r)
        losses = np.abs(g.standard_normal((n, p + 1)))
        a = losses[:, 0]
        mu_min = min(ranksum_u(a, losses[:, j]) - 0.5 for j in range(1, p + 1))
        mc_vals[r] = np.sqrt(n) * mu_min
    ks = float(ks_2samp(draws, mc_vals).statistic)
    assert ks <= 0.1
    _ok(4, f"KS(bootstrap, Monte-Carlo min) = {ks:.4f} <= 0.1")


def _shared_cauchy_losses(stream, n, p):
    """|N(0, 1)| losses of p + 1 exchangeable models whose rows share one
    Cauchy shift, so the columns are dependent and heavy-tailed."""
    shift = stream.standard_cauchy((n, 1))
    return np.abs(stream.standard_normal((n, p + 1)) + shift)


def test_criterion_04_high_dimensional_gaussian_approximation():
    # Criterion 4's construction with p = n competitors and dependent columns.
    # A one-panel KS compares a bootstrap conditional on one heavy-tailed
    # panel with an unconditional Monte-Carlo minimum, so it exceeds 0.1 on a
    # sizable share of panels at every shape tried, (200, 200) included
    # (ROADMAP item 5: 7 of 24 fresh panels there, 13 of 24 at (100, 400)).
    # Pooled over panels the KS and the panel-level size looked fine. This
    # check holds at its pinned seed; it does not certify the shape.
    n, p, b_draws, mc_reps = 200, 200, 2000, 600
    ids = tuple(f"c{j}" for j in range(p + 1))
    panel = LossPanel(losses=_shared_cauchy_losses(keyed_stream(ACCEPT_SEED, 44, n, p),
                                                   n, p), model_ids=ids)
    draws = multiplier_min_bootstrap(pair_stats(panel, 0).psi,
                                     BootstrapConfig(B=b_draws, seed=ACCEPT_SEED))
    mc_vals = np.empty(mc_reps)
    for r in range(mc_reps):
        losses = _shared_cauchy_losses(keyed_stream(ACCEPT_SEED, 45, n, p, r), n, p)
        mc_vals[r] = np.sqrt(n) * pair_stats(LossPanel(losses, ids), 0).mu.min()
    ks = float(ks_2samp(draws, mc_vals).statistic)
    assert ks <= 0.1
    _ok(4, f"(n, p) = ({n}, {p}), shared Cauchy rows: "
           f"KS(bootstrap, Monte-Carlo min) = {ks:.4f} <= 0.1")


@pytest.mark.parametrize("n, p", [(100, 400), (100, 90)])
def test_criterion_04_pooled_gaussian_approximation(n, p):
    # The high-dimensional check's construction, with the bootstrap draws
    # pooled over fresh panels: 250 draws from each of 24 panels (the first
    # 250 of B = 500; draw b depends on the seed and b alone), each panel
    # with its own multiplier seed. Pooling averages out the panel the
    # one-panel check conditions on, which is what fails at these shapes
    # (ROADMAP item 5). Seeds and the bound were fixed before the first run.
    panels, per_panel, mc_reps = 24, 250, 600
    ids = tuple(f"c{j}" for j in range(p + 1))
    draws = []
    for s in range(panels):
        losses = _shared_cauchy_losses(keyed_stream(ACCEPT_SEED, 46, n, p, s), n, p)
        psi = pair_stats(LossPanel(losses, ids), 0).psi
        config = BootstrapConfig(B=500, seed=ACCEPT_SEED + s)
        draws.append(multiplier_min_bootstrap(psi, config)[:per_panel])
    draws = np.concatenate(draws)
    mc_vals = np.empty(mc_reps)
    for r in range(mc_reps):
        losses = _shared_cauchy_losses(keyed_stream(ACCEPT_SEED, 47, n, p, r), n, p)
        mc_vals[r] = np.sqrt(n) * pair_stats(LossPanel(losses, ids), 0).mu.min()
    ks = float(ks_2samp(draws, mc_vals).statistic)
    assert ks <= 0.1
    _ok(4, f"(n, p) = ({n}, {p}), {panels} panels x {per_panel} draws pooled: "
           f"KS(bootstrap, Monte-Carlo min) = {ks:.4f} <= 0.1")


# ---------------------------------------------------------------------------
# criteria 5 and 9: subset-selection study

def test_criterion_05_case1_selection(case1_at_320, case1_at_40):
    _, rep320 = case1_at_320
    _, rep40 = case1_at_40
    m320, m40 = rep320.metrics, rep40.metrics

    rsr_rate = m320["rsr"]["correct_rate"]["mean"]
    assert rsr_rate >= 0.95

    rsr_size = m320["rsr"]["set_size"]["mean"]
    cvc_size = m320["cvc_style"]["set_size"]["mean"]
    assert rsr_size <= cvc_size - 0.5

    # Confidence-set cardinality must shrink with n for the set-valued
    # methods; plain cross-validation always returns a singleton, so the
    # strict version is vacuous there and it is held at non-strict.
    for method in ("rsr", "pcv", "cvc_style"):
        assert m320[method]["set_size"]["mean"] < m40[method]["set_size"]["mean"], method
    assert m320["cv"]["set_size"]["mean"] <= m40["cv"]["set_size"]["mean"]

    _ok(5, f"correct rate {rsr_rate:.2f} >= 0.95; set sizes at n=320 "
           f"rsr {rsr_size:.2f} <= cvc {cvc_size:.2f} - 0.5; sizes shrink 40->320")


def test_criterion_09_screening(case1_at_320):
    _, rep320 = case1_at_320
    stats = rep320.metrics["rsr"]
    assert stats["correct_rate"]["mean"] >= 0.95
    reduced = stats["screening_reduced_rate"]["mean"]
    assert reduced >= 0.5
    _ok(9, f"with screening on: correct rate {stats['correct_rate']['mean']:.2f}, "
           f"bootstrap columns reduced in {reduced:.0%} of replicates "
           f"(mean {stats['bootstrap_columns']['mean']:.1f} of 240)")


# ---------------------------------------------------------------------------
# criteria 6-8: lasso-tuning study

def test_criterion_06_case2_sparsity(case2_main):
    _, report = case2_main
    rsr = report.metrics["rsr"]["nonzeros"]["mean"]
    cv = report.metrics["cv"]["nonzeros"]["mean"]
    assert abs(rsr - 4.35) <= 1.5
    assert rsr < cv
    _ok(6, f"mean nonzeros rsr {rsr:.2f} within 4.35 +/- 1.5 and < cv {cv:.2f}")


def test_criterion_07_case2_support_and_oracle(case2_main):
    _, report = case2_main
    support = report.metrics["rsr"]["support_rate"]["mean"]
    oracle = report.metrics["rsr"]["oracle_rate"]["mean"]
    cv_oracle = report.metrics["cv"]["oracle_rate"]["mean"]
    assert support >= 0.90
    assert oracle >= 0.55
    assert cv_oracle <= 0.15
    _ok(7, f"rsr support {support:.2f} >= 0.90, oracle {oracle:.2f} >= 0.55, "
           f"cv oracle {cv_oracle:.2f} <= 0.15")


def test_criterion_08_case2_prediction_error(case2_main):
    _, report = case2_main
    ratio = (report.metrics["rsr"]["cv_error"]["mean"]
             / report.metrics["cv"]["cv_error"]["mean"])
    assert ratio <= 1.25
    _ok(8, f"cv-error ratio rsr/cv = {ratio:.3f} <= 1.25")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical aggregates under a different worker count

def test_criterion_10_determinism(crit2_report, case1_at_320, case2_main):
    crit2_again = _crit2_aggregate(threads=1)
    assert crit2_again == crit2_report

    cfg1, rep1 = case1_at_320
    rerun1 = run_case1(Case1Config(n=cfg1.n, x_df=cfg1.x_df, seed=cfg1.seed,
                                   reps=cfg1.reps, alpha=cfg1.alpha, threads=1))
    assert rerun1.to_json() == rep1.to_json()

    cfg2, rep2 = case2_main
    rerun2 = run_case2(Case2Config(n=cfg2.n, p=cfg2.p, noise_df=cfg2.noise_df,
                                   rho=cfg2.rho, seed=cfg2.seed, reps=cfg2.reps,
                                   alpha=cfg2.alpha, threads=4))
    assert rerun2.to_json() == rep2.to_json()
    _ok(10, "criteria 2, 5, 6 reruns at different worker counts are byte-identical")
