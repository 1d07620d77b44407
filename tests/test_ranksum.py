import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ranksel import (ContractError, DataError, LossPanel, TieStreams, keyed_stream,
                     pair_stats, ranksum, ranksum_u, se_ranksum)


def row_coins(rng, width):
    """The tie coins of one tied row of ``width`` cells, in ascending l.

    The row draws ceil(width / 48) doubles in one call; each double x is
    the integer x * 2**53, whose 48 low bits are 48 coins, least
    significant first. The row keeps the first ``width``; 1 is a win for a.
    """
    coins = []
    for x in rng.random(-(-width // 48)):
        word = int(x * 2**53)
        coins += [(word >> i) & 1 for i in range(48)]
    return coins[:width]


def _row_coin_iters(a, b, rng):
    """One iterator of coins per row k of a, drawn in ascending k."""
    return [iter(row_coins(rng, sum(ak == bl for bl in b))) for ak in a]


def brute_ranksum(a, b, rng=None):
    """O(n^2) oracle; each tied cell takes its row's next coin in (k, l) order."""
    n = len(a)
    coins = _row_coin_iters(a, b, rng) if rng is not None else None
    wins = 0.0
    for k in range(n):
        for l in range(n):
            if a[k] < b[l]:
                wins += 1.0
            elif a[k] == b[l]:
                wins += next(coins[k])
    return wins / (n * n)


def brute_pair_sums(a, b, rng):
    """Row and column sums of xi = 1{a_k < b_l} - 0.5 per the double loop."""
    n = len(a)
    coins = _row_coin_iters(a, b, rng)
    row = np.zeros(n)
    col = np.zeros(n)
    for k in range(n):
        for l in range(n):
            if a[k] < b[l]:
                x = 0.5
            elif a[k] > b[l]:
                x = -0.5
            else:
                x = 0.5 if next(coins[k]) else -0.5
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
        stats = pair_stats(panel, 0, ties=TieStreams(3))
        assert np.abs(stats.psi.mean(axis=0)).max() <= 1e-12 * panel.n

    def test_u_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(33)
        panel = _toy_panel(rng, n=20, m=3, integer=True)
        m = 1
        ids = panel.model_ids
        stats = pair_stats(panel, m, ties=TieStreams(77))
        for idx, j in enumerate(stats.competitors):
            oracle = brute_ranksum(panel.column(m), panel.column(int(j)),
                                   rng=TieStreams(77).pair(ids[m], ids[j]))
            assert stats.u[idx] == oracle

    def test_psi_matches_bruteforce_projections(self):
        rng = np.random.default_rng(35)
        panel = _toy_panel(rng, n=16, m=3, integer=True)
        m, n = 0, panel.n
        ids = panel.model_ids
        stats = pair_stats(panel, m, ties=TieStreams(5))
        for idx, j in enumerate(stats.competitors):
            row, col = brute_pair_sums(panel.column(m), panel.column(int(j)),
                                       rng=TieStreams(5).pair(ids[m], ids[j]))
            mu = row.sum() / n**2
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
        stats = pair_stats(panel, 0, ties=TieStreams(1))
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
# Differential oracle: the per-pair path the panel engine replaced. It
# re-sorts b for every pair, draws one ``random`` call per tied row (the
# row's ceil(w / 48) doubles, unpacked by ``row_coins``) and rebuilds both
# empirical CDFs for the standard error.

def _oracle_win_counts(a, b, ties):
    n = a.size
    order = np.argsort(b, kind="stable")
    b_sorted = b[order]
    hi = np.searchsorted(b_sorted, a, side="right")
    lo = np.searchsorted(b_sorted, a, side="left")
    row = (n - hi).astype(float)
    col = np.searchsorted(np.sort(a), b, side="left").astype(float)
    for k in np.nonzero(hi > lo)[0]:
        tied_idx = order[lo[k]:hi[k]]
        wins = np.array(row_coins(ties, tied_idx.size), dtype=bool)
        row[k] += wins.sum()
        np.add.at(col, tied_idx[wins], 1.0)
    return row, col


def _oracle_se(a, b):
    n = a.size
    x = np.searchsorted(np.sort(a), b, side="right") / n
    y = np.searchsorted(np.sort(b), a, side="right") / n
    cov = float(np.mean(x * y) - np.mean(x) * np.mean(y))
    return float(np.sqrt(max(1e-6, 1.0 / 6.0 - 2.0 * cov) / n))


def _oracle_pair_stats(panel, m, ties):
    n = panel.n
    a = panel.column(m)
    ids = panel.model_ids
    competitors = [j for j in range(panel.n_models) if j != m]
    u = np.empty(len(competitors))
    se = np.empty(len(competitors))
    psi = np.empty((n, len(competitors)))
    for idx, j in enumerate(competitors):
        b = panel.column(j)
        row, col = _oracle_win_counts(a, b, ties.pair(ids[m], ids[j]))
        u_j = row.sum() / (n * n)
        mu_j = u_j - 0.5
        psi[:, idx] = (row + col) / n - 1.0 - 2.0 * mu_j
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


@st.composite
def mixed_panels(draw):
    """Tie-free, 0/1 and duplicated columns together, in a drawn order."""
    n = draw(st.integers(4, 48))
    free = draw(arrays(np.float64, (n, draw(st.integers(1, 3))),
                       elements=st.floats(-1e3, 1e3, allow_nan=False,
                                          allow_subnormal=False),
                       unique=True))
    binary = draw(arrays(np.float64, (n, draw(st.integers(1, 2))),
                         elements=st.integers(0, 1).map(float)))
    losses = np.column_stack([free, binary])
    losses = np.column_stack([losses, losses[:, draw(st.integers(0, losses.shape[1] - 1))]])
    losses = losses[:, draw(st.permutations(range(losses.shape[1])))]
    return LossPanel(losses=losses, model_ids=tuple(f"c{j}" for j in range(losses.shape[1])))


# None keeps the module's chunk of coin bits; 1 and 7 draw every tied row
# on its own, and 200 (four doubles) draws a few rows per chunk, so chunk
# boundaries fall between rows of one value.
COIN_CHUNKS = [None, 1, 7, 200]


def _coin_chunk(chunk):
    return mock.patch.object(ranksum, "_COIN_CHUNK", chunk or ranksum._COIN_CHUNK)


class TestPanelEngineMatchesOracle:
    @pytest.mark.parametrize("chunk", COIN_CHUNKS)
    @settings(max_examples=40, deadline=None)
    @given(panel=st.one_of(loss_panels(), mixed_panels()), seed=st.integers(0, 2**32 - 1))
    def test_pair_stats_bit_identical(self, chunk, panel, seed):
        with _coin_chunk(chunk):
            for m in range(panel.n_models):
                stats = pair_stats(panel, m, ties=TieStreams(seed, 9))
                u, se, psi = _oracle_pair_stats(panel, m, TieStreams(seed, 9))
                assert np.array_equal(stats.u, u)
                assert np.array_equal(stats.se, se)
                assert np.array_equal(stats.psi, psi)

    @pytest.mark.parametrize("chunk", COIN_CHUNKS)
    @settings(max_examples=40, deadline=None)
    @given(panel=st.one_of(loss_panels(), mixed_panels()), seed=st.integers(0, 2**32 - 1))
    def test_ranksum_u_and_se_match_brute_force(self, chunk, panel, seed):
        a, b = panel.column(0), panel.column(1)
        with _coin_chunk(chunk):
            fast = ranksum_u(a, b, ties=keyed_stream(seed))
        assert fast == brute_ranksum(a, b, rng=keyed_stream(seed))
        assert se_ranksum(a, b) == _oracle_se(a, b)

    def test_signed_zeros_tie_as_in_the_oracle(self):
        # -0.0 == 0.0, so a dense rank must give both one rank: the pair is
        # tied, draws coins and matches the oracle bit for bit.
        a = np.array([0.0, -0.0, 1.0, -0.0, 2.0, 0.5])
        b = np.array([-0.0, 3.0, 0.0, 0.5, -1.0, 0.0])
        c = np.array([4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
        panel = LossPanel(losses=np.column_stack([a, b, c]), model_ids=("a", "b", "c"))
        ranks, d = panel._ranks
        assert d == 12 and len(set(ranks[0, [0, 1, 3]]) | set(ranks[1, [0, 2, 5]])) == 1
        for m in range(panel.n_models):
            ties = _CountingTieStreams(13, 9)
            stats = pair_stats(panel, m, ties=ties)
            u, se, psi = _oracle_pair_stats(panel, m, TieStreams(13, 9))
            assert np.array_equal(stats.u, u)
            assert np.array_equal(stats.se, se)
            assert np.array_equal(stats.psi, psi)
            assert len(ties.pairs) == (m < 2)
        assert ranksum_u(a, b, ties=keyed_stream(3)) == brute_ranksum(a, b, rng=keyed_stream(3))
        assert se_ranksum(a, b) == _oracle_se(a, b)


class _CountingGenerator:
    def __init__(self, gen, owner):
        self._gen = gen
        self._owner = owner

    def random(self, size):
        self._owner.doubles += size
        return self._gen.random(size)


class _CountingTieStreams(TieStreams):
    """Records every pair whose stream is requested and every double drawn."""

    def __init__(self, seed, tag=0):
        super().__init__(seed, tag)
        self.pairs = []
        self.doubles = 0

    def pair(self, id_m, id_j):
        self.pairs.append((id_m, id_j))
        return _CountingGenerator(super().pair(id_m, id_j), self)


class TestTieStreamLaziness:
    def test_tie_free_panel_never_requests_a_stream(self):
        rng = np.random.default_rng(51)
        losses = rng.permutation(200 * 4).astype(float).reshape(200, 4)
        panel = LossPanel(losses=losses, model_ids=("a", "b", "c", "d"))
        assert panel._ranks[1] == losses.size      # d = nM: the tie-free shortcut
        ties = _CountingTieStreams(3)
        with mock.patch.object(ranksum, "_add_tie_wins", side_effect=AssertionError):
            for m in range(panel.n_models):
                pair_stats(panel, m, ties=ties)
        assert ties.pairs == []
        assert ties.doubles == 0

    def test_one_shared_value_draws_coins_for_its_pair_only(self):
        # d = nM - 1: the panel is off the tie-free shortcut, and only the
        # two columns that share the value are a tied pair, one cell each way.
        rng = np.random.default_rng(59)
        n = 50
        losses = rng.permutation(n * 4).astype(float).reshape(n, 4)
        losses[17, 2] = losses[31, 0]
        panel = LossPanel(losses=losses, model_ids=("a", "b", "c", "d"))
        assert panel._ranks[1] == losses.size - 1
        ties = _CountingTieStreams(7, 9)
        for m in range(panel.n_models):
            stats = pair_stats(panel, m, ties=ties)
            u, se, psi = _oracle_pair_stats(panel, m, TieStreams(7, 9))
            assert np.array_equal(stats.u, u)
            assert np.array_equal(stats.se, se)
            assert np.array_equal(stats.psi, psi)
        assert ties.pairs == [("a", "c"), ("c", "a")]
        assert ties.doubles == 2

    def test_repeats_within_a_column_are_not_ties(self):
        # Column a repeats its smallest, its largest and an inner value; no
        # value is shared across columns. The counts equal a bincount/cumsum
        # table gathered at the competitors' ranks, and no coin is drawn.
        rng = np.random.default_rng(61)
        n = 30
        losses = rng.permutation(n * 3).astype(float).reshape(n, 3)
        a = np.sort(losses[:, 0])
        losses[:, 0] = np.concatenate([a[:1], a[:1], a[2:-3], a[-4:-3], a[-1:], a[-1:]])
        panel = LossPanel(losses=losses, model_ids=("a", "b", "c"))
        ranks, d = panel._ranks
        assert d == losses.size - 3
        ties = _CountingTieStreams(7, 9)
        for m in range(panel.n_models):
            competitors, _, col, _ = ranksum._reference_counts(panel, m)
            below = np.cumsum(np.bincount(ranks[m] + 1, minlength=d + 1))
            assert np.array_equal(col, below[ranks[competitors]])
            stats = pair_stats(panel, m, ties=ties)
            u, se, psi = _oracle_pair_stats(panel, m, TieStreams(7, 9))
            assert np.array_equal(stats.u, u)
            assert np.array_equal(stats.se, se)
            assert np.array_equal(stats.psi, psi)
        assert ties.pairs == []

    @pytest.mark.parametrize("chunk", COIN_CHUNKS)
    def test_one_stream_per_tied_pair_and_one_coin_per_tied_cell(self, chunk):
        rng = np.random.default_rng(53)
        n = 40
        losses = np.column_stack([rng.integers(0, 4, size=(n, 3)).astype(float),
                                  10.0 + rng.random(n)])   # ties with no column
        panel = LossPanel(losses=losses, model_ids=("a", "b", "c", "d"))
        ties = _CountingTieStreams(5)
        expected_pairs, expected_doubles = [], 0
        with _coin_chunk(chunk):
            for m in range(panel.n_models):
                pair_stats(panel, m, ties=ties)
                for j in range(panel.n_models):
                    # One coin per tied cell, 48 to a double, per tied row.
                    width = (losses[:, m][:, None] == losses[:, j][None, :]).sum(axis=1)
                    if j != m and width.any():
                        expected_pairs.append((panel.model_ids[m], panel.model_ids[j]))
                        expected_doubles += int((-(-width // 48)).sum())
        assert ties.pairs == expected_pairs
        assert len(expected_pairs) == 6
        assert ties.doubles == expected_doubles


WIDTHS = (1, 47, 48, 49, 96, 97)


def _wide_tie_panel():
    """Columns a, b, c with tied rows of widths 1, 47, 48, 49, 96 and 97.

    b holds the value v WIDTHS[v - 1] times; a holds each v in three rows
    among distinct untied values, and c is b shuffled, so every row of b
    ties with c across the whole width of its value.
    """
    rng = np.random.default_rng(71)
    b = np.repeat(np.arange(1.0, 7.0), WIDTHS)
    a = np.concatenate([np.repeat(np.arange(1.0, 7.0), 3),
                        10.0 + rng.permutation(b.size - 18) / 7.0])
    losses = np.column_stack([rng.permutation(a), rng.permutation(b), rng.permutation(b)])
    return LossPanel(losses=losses, model_ids=("a", "b", "c"))


class TestWideTiedRows:
    """Rows wider than one double's 48 coins, at every coin chunk."""

    @pytest.mark.parametrize("chunk", COIN_CHUNKS)
    def test_pair_stats_match_oracle_and_draw_per_row(self, chunk):
        panel = _wide_tie_panel()
        losses = panel.losses
        ties = _CountingTieStreams(17, 9)
        expected_doubles = 0
        with _coin_chunk(chunk):
            for m in range(panel.n_models):
                stats = pair_stats(panel, m, ties=ties)
                u, se, psi = _oracle_pair_stats(panel, m, TieStreams(17, 9))
                assert np.array_equal(stats.u, u)
                assert np.array_equal(stats.se, se)
                assert np.array_equal(stats.psi, psi)
                for j in stats.competitors:
                    width = (losses[:, m][:, None] == losses[:, j][None, :]).sum(axis=1)
                    expected_doubles += int((-(-width // 48)).sum())
        widths = {int(w) for w in (losses[:, 0][:, None] == losses[:, 1][None, :]).sum(axis=1)}
        assert widths == {0, *WIDTHS}
        assert ties.doubles == expected_doubles

    @pytest.mark.parametrize("chunk", COIN_CHUNKS)
    def test_ranksum_u_matches_brute_force(self, chunk):
        panel = _wide_tie_panel()
        for m, j in ((0, 1), (1, 2)):
            a, b = panel.column(m), panel.column(j)
            with _coin_chunk(chunk):
                fast = ranksum_u(a, b, ties=keyed_stream(23, m))
            assert fast == brute_ranksum(a, b, rng=keyed_stream(23, m))


class TestTallValueGroups:
    """A value tied in over 510 rows of a: its column wins overflow uint8."""

    @pytest.mark.parametrize("chunk", [None, 1 << 14])
    def test_pair_stats_match_oracle(self, chunk):
        # About 580 rows of a hold 0, so each column of that value's block
        # sums to about 290 heads. At the default chunk each reference's
        # coins are one draw, so the value's rows form one block (checked
        # below); 2**14 bits split them over many chunks.
        rng = np.random.default_rng(83)
        losses = np.column_stack([rng.random(600) < 0.03,
                                  rng.integers(0, 2, 600)]).astype(float)
        panel = LossPanel(losses=losses, model_ids=("a", "b"))
        assert np.count_nonzero(losses[:, 0] == 0) > 2 * 255
        with _coin_chunk(chunk):
            for m in range(panel.n_models):
                ties = _CountingTieStreams(19, 9)
                stats = pair_stats(panel, m, ties=ties)
                u, se, psi = _oracle_pair_stats(panel, m, TieStreams(19, 9))
                assert np.array_equal(stats.u, u)
                assert np.array_equal(stats.se, se)
                assert np.array_equal(stats.psi, psi)
                assert chunk or ties.doubles <= ranksum._COIN_CHUNK // 48


class TestTieCoinFairness:
    """Fully tied pairs (both columns all 0 or all 1): every cell is a coin."""

    SEEDS = range(200)

    def test_row_wins_centre_on_half_the_tied_cells(self):
        # A row of width 97 takes two whole doubles and bit 0 of a third.
        n = 97
        excess = 0.0
        for seed in self.SEEDS:
            panel = LossPanel(losses=np.full((n, 2), float(seed % 2)), model_ids=("a", "b"))
            stats = pair_stats(panel, 0, ties=TieStreams(seed, 3))
            excess += round(stats.u[0] * n * n) - n * n / 2
        z = excess / math.sqrt(len(self.SEEDS) * n * n / 4)
        assert abs(z) <= 4, z

    def test_first_and_last_coin_bits_are_fair(self):
        # With n = 48 each row is one double, and all cells tie in index
        # order, so b's column wins at l count the rows whose bit l is 1.
        # Bits 53-63 of x * 2**53 are always 0: a slice that reaches them
        # puts 0 heads at one of these positions.
        n = 48
        heads = np.zeros(n)
        for seed in self.SEEDS:
            panel = LossPanel(losses=np.full((n, 2), float(seed % 2)), model_ids=("a", "b"))
            _, _, col, _ = ranksum._reference_counts(
                panel, 0, lambda j: TieStreams(seed, 3).pair("a", "b"))
            heads += col[0]
        trials = len(self.SEEDS) * n
        bound = 4 * math.sqrt(trials / 4)
        for bit in (0, n - 1):
            assert abs(heads[bit] - trials / 2) <= bound, (bit, heads[bit])


class TestReferencePassMemory:
    def test_peak_stays_linear_in_the_panel(self):
        # Every reference of a wide panel in turn: the peak traced bytes stay
        # under C bytes per panel cell, cached ranks included. Counts kept per
        # (reference, competitor, observation) do not fit: mirrored counts
        # pending for later references hold about M_free^2 n / 4 cells, over
        # 90 bytes per panel cell here even as uint8, and an M x (nM)
        # cumulative table holds M counts per cell.
        n, n_models, per_cell = 40, 400, 80
        rng = np.random.default_rng(57)
        losses = np.column_stack([rng.standard_normal((n, n_models - 10)),
                                  rng.integers(0, 2, size=(n, 10))])
        panel = LossPanel(losses=losses, model_ids=tuple(f"c{j}" for j in range(n_models)))
        tracemalloc.start()
        try:
            for m in range(n_models):
                pair_stats(panel, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < per_cell * n * n_models

    def test_tie_coin_peak_is_bounded_by_the_chunk(self):
        # A fully tied pair at n = 2000 has 4M tied cells. Its coins come in
        # chunks of whole rows, so the peak holds one chunk's buffers (its
        # words, and their block unpacked to 64/48 bytes per coin bit; each
        # chunk's are released before the next is built) plus the pair's
        # O(nM) rank arrays, far below a byte per tied cell.
        n, n_models, per_cell = 2000, 2, 80
        ids = ("a", "b")
        pair_stats(LossPanel(losses=np.ones((60, n_models)), model_ids=ids), 0)  # lazy set-up
        panel = LossPanel(losses=np.ones((n, n_models)), model_ids=ids)
        bound = 2 * ranksum._COIN_CHUNK + per_cell * n * n_models
        assert bound < n * n / 2
        tracemalloc.start()
        try:
            pair_stats(panel, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound
