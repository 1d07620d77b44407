import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ranksel import (ContractError, DataError, LossPanel, TieStreams, keyed_stream,
                     pair_stats, ranksum, ranksum_u, se_ranksum)


def brute_ranksum(a, b, rng=None):
    """O(n^2) oracle; consumes one tie coin per tied pair in (k, l) order."""
    n = len(a)
    wins = 0.0
    for k in range(n):
        for l in range(n):
            if a[k] < b[l]:
                wins += 1.0
            elif a[k] == b[l]:
                if rng.random() < 0.5:
                    wins += 1.0
    return wins / (n * n)


def brute_pair_sums(a, b, rng):
    """Row and column sums of xi = 1{a_k < b_l} - 0.5 per the double loop."""
    n = len(a)
    row = np.zeros(n)
    col = np.zeros(n)
    for k in range(n):
        for l in range(n):
            if a[k] < b[l]:
                x = 0.5
            elif a[k] > b[l]:
                x = -0.5
            else:
                x = 0.5 if rng.random() < 0.5 else -0.5
            row[k] += x
            col[l] += x
    return row, col


class TestRanksumU:
    def test_all_below(self):
        assert ranksum_u([1, 2], [3, 4]) == 1.0

    def test_all_above(self):
        assert ranksum_u([3, 4], [1, 2]) == 0.0

    def test_interleaved_counts_diagonal_pairs(self):
        # 4 ordered pairs, 3 satisfied, including the k = l comparisons
        assert ranksum_u([1, 3], [2, 4]) == 0.75

    def test_matches_bruteforce_tie_free(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 65))
            vals = rng.permutation(2 * n).astype(float)  # all distinct
            a, b = vals[:n], vals[n:]
            assert ranksum_u(a, b) == brute_ranksum(a, b)

    def test_matches_bruteforce_with_ties_same_stream(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.integers(2, 33))
            a = rng.integers(0, 5, size=n).astype(float)
            b = rng.integers(0, 5, size=n).astype(float)
            fast = ranksum_u(a, b, ties=keyed_stream(trial, 1))
            slow = brute_ranksum(a, b, rng=keyed_stream(trial, 1))
            assert fast == slow

    def test_antisymmetry_distinct_values(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            vals = rng.permutation(1000)[: 2 * n].astype(float)
            a, b = vals[:n], vals[n:]
            assert ranksum_u(a, b) + ranksum_u(b, a) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 8, size=30).astype(float)
        b = rng.integers(0, 8, size=30).astype(float)
        u1 = ranksum_u(a, b, ties=keyed_stream(9))
        u2 = ranksum_u(np.exp(a), np.exp(b), ties=keyed_stream(9))
        assert u1 == u2

    def test_null_mean_near_half(self):
        rng = np.random.default_rng(17)
        total = 0.0
        reps = 10_000
        for _ in range(reps):
            a = rng.standard_normal(100)
            b = rng.standard_normal(100)
            total += ranksum_u(a, b)
        assert abs(total / reps - 0.5) < 0.01

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            ranksum_u([1, 2, 3], [1, 2])

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            ranksum_u([1.0, np.nan], [1.0, 2.0])
        with pytest.raises(DataError):
            ranksum_u([1.0, 2.0], [np.inf, 2.0])


class TestSeRanksum:
    def test_independent_samples_sixth(self):
        rng = np.random.default_rng(2)
        n = 2000
        vals = []
        for _ in range(50):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            vals.append(n * se_ranksum(a, b) ** 2)
        assert 1 / 6 - 0.02 < np.mean(vals) < 1 / 6 + 0.02

    def test_comonotone_hits_floor(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(1000)
        se = se_ranksum(a, a)
        assert se == math.sqrt(1e-6 / 1000)

    def test_matches_direct_reimplementation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = 50
            a = rng.standard_normal(n)
            b = 0.5 * a + rng.standard_normal(n)
            # straight-line evaluation with brute-force counting CDFs
            f1 = np.array([np.sum(a <= x) / n for x in b])
            f2 = np.array([np.sum(b <= x) / n for x in a])
            cov = np.mean(f1 * f2) - np.mean(f1) * np.mean(f2)
            expect = math.sqrt(max(1e-6, 1 / 6 - 2 * cov) / n)
            assert se_ranksum(a, b) == pytest.approx(expect, rel=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal(60)
        b = rng.standard_normal(60)
        assert se_ranksum(a, b) == se_ranksum(np.exp(a), np.exp(b))


def _toy_panel(rng, n=20, m=3, integer=False):
    if integer:
        losses = rng.integers(0, 6, size=(n, m)).astype(float)
    else:
        losses = rng.standard_normal((n, m))
    return LossPanel(losses=losses, model_ids=tuple(f"c{j}" for j in range(m)))


class TestPairStats:
    def test_psi_columns_centered_both_modes(self):
        rng = np.random.default_rng(31)
        panel = _toy_panel(rng, n=10, m=3, integer=True)
        for mode in ("row_only", "symmetrized"):
            stats = pair_stats(panel, 0, projection=mode, ties=TieStreams(3))
            assert np.abs(stats.psi.mean(axis=0)).max() <= 1e-12 * panel.n

    def test_u_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(33)
        panel = _toy_panel(rng, n=20, m=3, integer=True)
        m = 1
        stats = pair_stats(panel, m, ties=TieStreams(77))
        for idx, j in enumerate(stats.competitors):
            oracle = brute_ranksum(panel.column(m), panel.column(int(j)),
                                   rng=TieStreams(77).pair(m, int(j)))
            assert stats.u[idx] == oracle

    def test_psi_matches_bruteforce_projections(self):
        rng = np.random.default_rng(35)
        panel = _toy_panel(rng, n=16, m=3, integer=True)
        m, n = 0, panel.n
        for mode in ("row_only", "symmetrized"):
            stats = pair_stats(panel, m, projection=mode, ties=TieStreams(5))
            for idx, j in enumerate(stats.competitors):
                row, col = brute_pair_sums(panel.column(m), panel.column(int(j)),
                                           rng=TieStreams(5).pair(m, int(j)))
                mu = row.sum() / n**2
                if mode == "row_only":
                    expect = row / n - mu
                else:
                    expect = row / n + col / n - 2 * mu
                np.testing.assert_allclose(stats.psi[:, idx], expect, atol=1e-12)

    def test_identical_columns_mu_small(self):
        rng = np.random.default_rng(37)
        col = rng.standard_normal(100)
        panel = LossPanel(losses=np.column_stack([col, col]),
                          model_ids=("a", "b"))
        stats = pair_stats(panel, 0, ties=TieStreams(11))
        assert abs(stats.mu[0]) <= 2 / math.sqrt(panel.n)

    def test_mu_is_u_minus_half(self):
        rng = np.random.default_rng(39)
        panel = _toy_panel(rng, n=12, m=4)
        stats = pair_stats(panel, 2, ties=TieStreams(0))
        np.testing.assert_array_equal(stats.mu, stats.u - 0.5)
        assert np.all(stats.se > 0)

    def test_symmetrized_psi_variance_tracks_se(self):
        # the two-part projection's empirical variance should match
        # n * se^2 from the CDF-covariance formula on dependent columns
        rng = np.random.default_rng(41)
        n = 4000
        base = rng.standard_normal(n)
        losses = np.column_stack([np.abs(base + 0.3 * rng.standard_normal(n)),
                                  np.abs(base + 0.3 * rng.standard_normal(n))])
        panel = LossPanel(losses=losses, model_ids=("a", "b"))
        stats = pair_stats(panel, 0, projection="symmetrized", ties=TieStreams(1))
        psi_var = float(stats.psi[:, 0].var())
        target = n * float(stats.se[0] ** 2)
        assert psi_var == pytest.approx(target, rel=0.15)

    def test_small_n_rejected(self):
        panel = LossPanel(losses=np.ones((3, 2)) + np.arange(3)[:, None],
                          model_ids=("a", "b"))
        with pytest.raises(ContractError):
            pair_stats(panel, 0)


class TestLossPanel:
    def test_validation(self):
        with pytest.raises(DataError):
            LossPanel(losses=np.array([[1.0, np.nan], [2.0, 3.0]]),
                      model_ids=("a", "b"))
        with pytest.raises(ContractError):
            LossPanel(losses=np.ones((5, 2)), model_ids=("a", "a"))
        with pytest.raises(ContractError):
            LossPanel(losses=np.ones((1, 2)), model_ids=("a", "b"))


# ---------------------------------------------------------------------------
# Differential oracle: the per-pair path the panel engine replaced, frozen
# as it was. It re-sorts b for every pair, draws one ``random`` call per
# tied row and rebuilds both empirical CDFs for the standard error.

def _oracle_win_counts(a, b, ties, want_cols):
    n = a.size
    order = np.argsort(b, kind="stable")
    b_sorted = b[order]
    hi = np.searchsorted(b_sorted, a, side="right")
    lo = np.searchsorted(b_sorted, a, side="left")
    row = (n - hi).astype(float)
    col = None
    if want_cols:
        a_sorted = np.sort(a)
        col = np.searchsorted(a_sorted, b, side="left").astype(float)
    for k in np.nonzero(hi > lo)[0]:
        tied_idx = order[lo[k]:hi[k]]
        wins = ties.random(tied_idx.size) < 0.5
        row[k] += wins.sum()
        if want_cols:
            np.add.at(col, tied_idx[wins], 1.0)
    return row, col


def _oracle_se(a, b):
    n = a.size
    x = np.searchsorted(np.sort(a), b, side="right") / n
    y = np.searchsorted(np.sort(b), a, side="right") / n
    cov = float(np.mean(x * y) - np.mean(x) * np.mean(y))
    return float(np.sqrt(max(1e-6, 1.0 / 6.0 - 2.0 * cov) / n))


def _oracle_pair_stats(panel, m, projection, ties):
    n = panel.n
    a = panel.column(m)
    competitors = [j for j in range(panel.n_models) if j != m]
    symmetrized = projection == "symmetrized"
    u = np.empty(len(competitors))
    se = np.empty(len(competitors))
    psi = np.empty((n, len(competitors)))
    for idx, j in enumerate(competitors):
        b = panel.column(j)
        row, col = _oracle_win_counts(a, b, ties.pair(m, j), symmetrized)
        u_j = row.sum() / (n * n)
        mu_j = u_j - 0.5
        if symmetrized:
            psi[:, idx] = (row + col) / n - 1.0 - 2.0 * mu_j
        else:
            psi[:, idx] = row / n - 0.5 - mu_j
        u[idx] = u_j
        se[idx] = _oracle_se(a, b)
    return u, se, psi


@st.composite
def loss_panels(draw):
    """Tie-free, 0/1 or small-integer panels, maybe with a constant and a
    duplicated column."""
    n = draw(st.integers(4, 64))
    m = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(("tie_free", "binary", "small_int")))
    if kind == "tie_free":
        elements = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    else:
        elements = st.integers(0, 1 if kind == "binary" else 4).map(float)
    losses = draw(arrays(np.float64, (n, m), elements=elements,
                         unique=kind == "tie_free"))
    if draw(st.booleans()):
        losses[:, draw(st.integers(0, m - 1))] = draw(st.sampled_from((0.0, 1.0, 2.0)))
    if draw(st.booleans()):
        src, dst = draw(st.permutations(range(m)))[:2]
        losses[:, dst] = losses[:, src]
    return LossPanel(losses=losses, model_ids=tuple(f"c{j}" for j in range(m)))


# None keeps the module's chunk; 1 and 7 make the coin draws cross chunk
# boundaries on every tie-heavy pair.
COIN_CHUNKS = [None, 1, 7]


def _coin_chunk(chunk):
    return mock.patch.object(ranksum, "_COIN_CHUNK", chunk or ranksum._COIN_CHUNK)


class TestPanelEngineMatchesOracle:
    @pytest.mark.parametrize("chunk", COIN_CHUNKS)
    @settings(max_examples=40, deadline=None)
    @given(panel=loss_panels(), seed=st.integers(0, 2**32 - 1))
    def test_pair_stats_bit_identical(self, chunk, panel, seed):
        with _coin_chunk(chunk):
            for projection in ("row_only", "symmetrized"):
                for m in range(panel.n_models):
                    stats = pair_stats(panel, m, projection=projection,
                                       ties=TieStreams(seed, 9))
                    u, se, psi = _oracle_pair_stats(panel, m, projection,
                                                    TieStreams(seed, 9))
                    assert np.array_equal(stats.u, u)
                    assert np.array_equal(stats.se, se)
                    assert np.array_equal(stats.psi, psi)

    @pytest.mark.parametrize("chunk", COIN_CHUNKS)
    @settings(max_examples=40, deadline=None)
    @given(panel=loss_panels(), seed=st.integers(0, 2**32 - 1))
    def test_ranksum_u_and_se_match_brute_force(self, chunk, panel, seed):
        a, b = panel.column(0), panel.column(1)
        with _coin_chunk(chunk):
            fast = ranksum_u(a, b, ties=keyed_stream(seed))
        assert fast == brute_ranksum(a, b, rng=keyed_stream(seed))
        assert se_ranksum(a, b) == _oracle_se(a, b)


class _CountingGenerator:
    def __init__(self, gen, owner):
        self._gen = gen
        self._owner = owner

    def random(self, size):
        self._owner.coins += size
        return self._gen.random(size)


class _CountingTieStreams(TieStreams):
    """Records every pair whose stream is requested and every coin drawn."""

    def __init__(self, seed, tag=0):
        super().__init__(seed, tag)
        self.pairs = []
        self.coins = 0

    def pair(self, m, j):
        self.pairs.append((m, j))
        return _CountingGenerator(super().pair(m, j), self)


class TestTieStreamLaziness:
    def test_tie_free_panel_never_requests_a_stream(self):
        rng = np.random.default_rng(51)
        losses = rng.permutation(200 * 4).astype(float).reshape(200, 4)
        panel = LossPanel(losses=losses, model_ids=("a", "b", "c", "d"))
        ties = _CountingTieStreams(3)
        for m in range(panel.n_models):
            pair_stats(panel, m, ties=ties)
        assert ties.pairs == []
        assert ties.coins == 0

    @pytest.mark.parametrize("chunk", COIN_CHUNKS)
    def test_one_stream_per_tied_pair_and_one_coin_per_tied_cell(self, chunk):
        rng = np.random.default_rng(53)
        n = 40
        losses = np.column_stack([rng.integers(0, 4, size=(n, 3)).astype(float),
                                  10.0 + rng.random(n)])   # ties with no column
        panel = LossPanel(losses=losses, model_ids=("a", "b", "c", "d"))
        ties = _CountingTieStreams(5)
        expected_pairs, expected_coins = [], 0
        with _coin_chunk(chunk):
            for m in range(panel.n_models):
                pair_stats(panel, m, ties=ties)
                for j in range(panel.n_models):
                    tied = int((losses[:, m][:, None] == losses[:, j][None, :]).sum())
                    if j != m and tied:
                        expected_pairs.append((m, j))
                        expected_coins += tied
        assert ties.pairs == expected_pairs
        assert len(expected_pairs) == 6
        assert ties.coins == expected_coins
