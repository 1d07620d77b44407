"""Generalized rank-sum statistics over panels of prediction losses.

The central object is the loss panel: an n x M matrix whose column j holds
the per-observation prediction loss of candidate model j on a common
evaluation set. For a reference model m and a competitor j the statistic

    u = n^-2 * sum_{k,l} 1{ loss_m[k] < loss_j[l] }

compares every ordered pair of evaluation points, including k = l. Exact
ties are resolved by an independent fair coin per tied pair. Centered
values mu = u - 1/2, per-observation projection scores, and standard
errors feed the Gaussian multiplier bootstrap in :mod:`ranksel.bootstrap`.
Without a tied cell the kernel is antisymmetric: u_jm = 1 - u_mj, the
standard errors agree and psi_jm = -psi_mj, so one count serves both
directions (``PairStats.mirror``).

Cost: a panel ranks all of its nM losses together once (dense ranks, so
equal losses share a rank). One reference's counts against p competitors
then come from one pass over (p, n) integer arrays: the
reference's cumulative count over the d distinct ranks (one ``np.repeat``
of 0..n over the gaps between its sorted ranks), gathered at the
competitors' ranks, and one per-competitor ``bincount`` + ``cumsum``. When
d = nM no loss occurs twice, so no pair has a tied cell and the tie gather
and scan are skipped. Its working memory is O(d + nM), with no search and
no loop over pairs without ties. Tie coins cost O(tied cells) and are only
drawn, from a stream created on demand, for pairs that have a tied cell.
One double gives 48 coins, so a tied row of width w draws ceil(w / 48)
doubles; they are drawn in chunks of whole rows, so the working memory of
a tie-heavy pair is bounded by the chunk size (about 1.4 MB unpacked), not
by its tied-cell count. Coins are summed from their 64-bit words: row wins
by popcount, column wins from one unpacked block per tied value, summed
down its rows in uint8 slabs of at most 255 rows.
A brute-force O(n^2) evaluation that unpacks the same tie stream the same
way produces bit-identical results (the tests rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, DataError
from .rng import TieStreams, keyed_stream

# Variance floor for (1/6 - 2*cov) before the /n scaling; guards the
# degenerate co-monotone case where the projection variance collapses.
VARIANCE_FLOOR = 1e-6

# Tie coins unpacked from one double: the low 48 of the 53 bits it carries.
_COIN_BITS = 48

# Most coin bits (48 per double) drawn by one ``random`` call: whole tied
# rows are drawn together up to this many bits (a single wider row is
# drawn on its own). Bounds the per-chunk buffers on tie-heavy panels such
# as 0/1 losses, and on panels of many one-cell ties: a chunk's words
# unpack to at most 64/48 bytes per bit, about 1.4 MB. A tied direction of
# a 0/1 panel at n = 1000 (about n^2 / 2 coins) is one chunk.
_COIN_CHUNK = 1 << 20


@dataclass(frozen=True)
class LossPanel:
    """Per-observation losses for M candidate models on n evaluation points."""

    losses: np.ndarray          # (n, M)
    model_ids: tuple[str, ...]

    def __post_init__(self):
        arr = np.asarray(self.losses, dtype=float)
        if arr.ndim != 2:
            raise ContractError("losses must be an n x M matrix")
        n, m = arr.shape
        if n < 2 or m < 2:
            raise ContractError(f"panel needs n >= 2 and M >= 2, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError("loss panel contains non-finite values")
        ids = tuple(str(i) for i in self.model_ids)
        if len(ids) != m:
            raise ContractError("model_ids length must match the number of columns")
        if len(set(ids)) != m:
            raise ContractError("model_ids must be unique")
        object.__setattr__(self, "losses", arr)
        object.__setattr__(self, "model_ids", ids)

    @property
    def n(self) -> int:
        return self.losses.shape[0]

    @property
    def n_models(self) -> int:
        return self.losses.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.losses[:, j]

    @cached_property
    def _ranks(self) -> tuple[np.ndarray, int]:
        """Dense ranks of all losses, one row per column, and their count d."""
        values, inverse = np.unique(self.losses.T, return_inverse=True)
        return inverse.reshape(self.n_models, self.n), values.size

    @cached_property
    def _orders(self) -> np.ndarray:
        """Each column's stable argsort, one row per column (tied pairs only)."""
        return np.argsort(self._ranks[0], axis=1, kind="stable")


@dataclass(frozen=True)
class PairStats:
    """Rank-sum comparisons of one reference model against its competitors.

    Arrays are aligned with ``competitors`` (model indices j != reference).
    ``psi`` holds mean-zero per-observation projection scores, used as
    bootstrap scores: column-major, one contiguous column per competitor.
    ``wins`` are the reference's win totals n^2 u, exact integers; ``tied``
    marks the pairs with a tied cell, whose coins make each direction its
    own count.
    """

    reference: int
    competitors: np.ndarray     # (p,) int
    u: np.ndarray               # (p,) in [0, 1]
    mu: np.ndarray              # (p,) = u - 0.5
    se: np.ndarray              # (p,) > 0
    psi: np.ndarray             # (n, p), column-major
    wins: np.ndarray            # (p,) = n^2 u
    tied: np.ndarray            # (p,) bool

    def mirror(self) -> np.ndarray:
        """Each competitor's mu against the reference, from these counts.

        Exact for a pair without a tied cell, whose reverse win total is
        n^2 - wins: the same bits as counting that direction, whose se is
        this se and whose psi is -psi up to rounding. A tied pair's reverse
        draws its own coins, so it has to be counted.
        """
        n2 = self.psi.shape[0] ** 2
        return (n2 - self.wins) / n2 - 0.5


def _pair_panel(a, b, min_n: int) -> LossPanel:
    """Samples a and b as the two columns of a panel (non-finite: DataError)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ContractError("a and b must be one-dimensional")
    if a.size != b.size:
        raise ContractError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < min_n:
        raise ContractError(f"a and b need at least {min_n} entries, got {a.size}")
    return LossPanel(losses=np.column_stack([a, b]), model_ids=("a", "b"))


def _at_or_below(counts: np.ndarray, own: np.ndarray) -> np.ndarray:
    """out[j, k] = #{l : counts[j, l] <= own[k]}, one bincount for all rows."""
    p, n = counts.shape
    keys = counts + (n + 1) * np.arange(p)[:, None]
    cum = np.bincount(keys.ravel(), minlength=p * (n + 1)).reshape(p, n + 1)
    # take, not [:, own]: the result stays C-ordered, so each row sums as 1-D.
    return np.take(cum.cumsum(axis=1, dtype=counts.dtype), own, axis=1)


def _reference_counts(panel: LossPanel, m: int, stream=None, competitors=None):
    """Win counts of reference column a = m against competitor columns b.

    ``competitors`` defaults to every other column, in increasing order.
    Returns the competitors; row[j, k] = #{l : a_k beats b_l} in a's index
    order and col[j, l] = #{k : a_k beats b_l} in b's, as (p, n) floats,
    one row per competitor; each pair's standard error; and whether it has
    a tied cell. An exact tie is settled by a fair coin from the Generator
    that ``stream(j)`` returns; it is called only for a competitor with a
    tied cell, in competitor order. With ``stream=None`` a tie counts for
    neither side (the standard errors never depend on coins).
    """
    n = panel.n
    ranks, d = panel._ranks
    if competitors is None:
        competitors = np.delete(np.arange(panel.n_models), m)
    # below[r] = #{k : rank(a_k) < r}, so below[r_b] counts the a below b
    # and below[r_b + 1] those at or below it. With s = a's sorted ranks,
    # s[-1] = -1 and s[n] = d, below is i on the ranks s[i-1] + 1 .. s[i].
    # Counts fit n's smallest type.
    below = np.repeat(np.arange(n + 1, dtype=np.min_scalar_type(n)),
                      np.diff(np.sort(ranks[m]), prepend=-1, append=d))
    own = below[ranks[m]]          # a_k's first position in a's sorted order
    others = ranks[competitors]
    col = below[others]
    # With d = nM distinct losses no cell is tied, so no b sits at an a.
    right = col if d == ranks.size else below[1:][others]
    # b_l <= a_k iff col[l] <= own[k]; b_l < a_k iff right[l] <= own[k].
    hi = _at_or_below(col, own)
    se = _se_from_counts(hi, right, n)
    tied = np.zeros(len(competitors), dtype=bool)
    if right is not col:
        tied = (col != right).any(axis=1)
    row = np.subtract(n, hi, dtype=float)
    col = col.astype(float)
    if stream is not None and tied.any():
        # All tied competitors' bounds in one pass, and their col in sorted-b
        # order in one gather; each pair's coins then follow in competitor order.
        at = np.flatnonzero(tied)
        orders = panel._orders[competitors[at]]
        col_sorted = col[at[:, None], orders]
        lo = _at_or_below(right[at], own).astype(np.intp)
        hi_at = hi[at].astype(np.intp)
        for i, idx in enumerate(at):
            _add_tie_wins(row[idx], col_sorted[i], lo[i], hi_at[i], stream(competitors[idx]))
        col[at[:, None], orders] = col_sorted
    return competitors, row, col, se, tied


def _add_tie_wins(row, col_sorted, lo, hi, gen: np.random.Generator) -> None:
    """Settle every tied cell with one fair coin, in lexicographic (k, l) order.

    Row k ties with the sorted-b positions lo[k]:hi[k], which the stable
    order lists by ascending l. A tied row of width w draws ceil(w / 48)
    doubles x; each gives the 48 coins bits 0-47 of the exact integer
    x * 2**53 (bits 11-63 of the Philox word), least significant first,
    and a coin of 1 is a win for a. The row's coins are the first w of
    its bits, so drawing the tied rows back to back in ascending k gives
    each cell the same coin whatever the chunking. Doubles come in chunks
    of whole rows of at most ``_COIN_CHUNK`` bits. Row wins are added to
    ``row`` (index order), column wins to ``col_sorted`` (sorted-b order).

    Rows tied with the same value share one b-slice, so each value's words
    form a (rows x ceil(w / 48)) block, masked to the row's w coins: row
    wins are the block's popcounts, and column wins its bits unpacked and
    summed down the rows.
    """
    width = hi - lo
    rows = np.flatnonzero(width)
    width = width[rows]
    span = -(-width // _COIN_BITS)                   # doubles per row
    ends = np.cumsum(span)
    start = 0
    while start < rows.size:
        base = ends[start] - span[start]
        stop = max(start + 1, int(np.searchsorted(
            ends, base + _COIN_CHUNK // _COIN_BITS, side="right")))
        offsets = ends[start:stop] - span[start:stop] - base
        words = (gen.random(int(ends[stop - 1] - base)) * 2.0**53).astype("<u8")
        # In-place masks keep the little-endian dtype, so the byte view
        # below reads bit 0 first whatever the host's order.
        words &= np.uint64((1 << _COIN_BITS) - 1)
        chunk = rows[start:stop]
        first = lo[chunk]
        by_value = np.argsort(first, kind="stable")
        cuts = np.flatnonzero(np.diff(first[by_value])) + 1
        for group in np.split(by_value, cuts):
            pos, w, k = first[group[0]], width[start + group[0]], span[start + group[0]]
            block = words[offsets[group][:, None] + np.arange(k)]
            block[:, -1] &= np.uint64((1 << int(w - _COIN_BITS * (k - 1))) - 1)
            row[chunk[group]] += np.bitwise_count(block).sum(axis=1)
            bits = np.unpackbits(block.view(np.uint8), axis=1, bitorder="little")
            # Sums over at most 255 rows fit uint8, which sums without a
            # cast; a taller group adds its slabs' sums in a wider type.
            heads = np.add.reduce(bits[:255], axis=0, dtype=np.uint8).astype(
                np.min_scalar_type(group.size), copy=False)
            for top in range(255, group.size, 255):
                heads += np.add.reduce(bits[top:top + 255], axis=0, dtype=np.uint8)
            col_sorted[pos:pos + w] += heads.reshape(k, 64)[:, :_COIN_BITS].ravel()[:w]
            # Free each buffer before the next is built: the peak holds one
            # chunk's buffers, not two.
            del block, bits, heads
        del words
        start = stop


def _se_from_counts(hi: np.ndarray, right: np.ndarray, n: int) -> np.ndarray:
    """Standard error per row of (p, n) counts; each row sums as a 1-D array."""
    # x.sum() / n is the same IEEE operation as np.mean(x), at less overhead.
    x = right / n           # F_a(b_i), right-closed
    y = hi / n              # F_b(a_i)
    mean_x = x.sum(axis=1) / n
    mean_y = y.sum(axis=1) / n
    x *= y
    cov = x.sum(axis=1) / n - mean_x * mean_y
    variance = np.maximum(VARIANCE_FLOOR, 1.0 / 6.0 - 2.0 * cov)
    return np.sqrt(variance / n)


def ranksum_u(a, b, ties: np.random.Generator | None = None) -> float:
    """Fraction of ordered pairs (k, l) with a[k] < b[l], ties randomized.

    Counts all n^2 ordered pairs including k = l. With no exact ties the
    result is bit-identical to the O(n^2) double loop; exact ties a[k] ==
    b[l] are broken by independent fair coins drawn from ``ties`` in
    lexicographic (k, l) order.
    """
    panel = _pair_panel(a, b, min_n=2)
    # Without a stream, a fixed one keeps the call reproducible.
    stream = (lambda j: keyed_stream(0)) if ties is None else (lambda j: ties)
    _, row, _, _, _ = _reference_counts(panel, 0, stream)
    return float(row[0].sum() / (panel.n * panel.n))


def se_ranksum(a, b) -> float:
    """Standard error of the centered rank-sum mean for dependent samples.

    Estimates sqrt(max(floor, 1/6 - 2*c) / n) where c is the 1/n-normalized
    sample covariance between F_a(b_i) and F_b(a_i), the empirical CDF of
    each sample evaluated at the other's paired values. The floor keeps
    screening z-scores finite when the two samples are co-monotone.
    """
    panel = _pair_panel(a, b, min_n=4)
    _, _, _, se, _ = _reference_counts(panel, 0)
    return float(se[0])


def pair_stats(panel: LossPanel, m: int, ties: TieStreams | None = None,
               competitors=None) -> PairStats:
    """Rank-sum statistics of reference model m against its competitors.

    ``competitors`` (model indices other than m) defaults to every other
    model, in increasing order. The bootstrap score of each competitor j
    is the full two-part projection of the rank-sum kernel xi(k, l) =
    1{a_k < b_l}:

        psi_k = (1/n) sum_l xi(k, l) + (1/n) sum_i xi(i, k) - 1 - 2 mu,

    its row part plus the competitor's column part. Its empirical variance
    matches the dependent-sample variance formula behind :func:`se_ranksum`.

    Tie coins come from ``ties.pair(id_m, id_j)``, keyed by the two model
    ids, so each pair's stream is independent of evaluation order and of
    column positions; it is only requested for a pair with a tied cell.

    All competitors are counted in one pass over (p, n) arrays; every sum
    then runs along one competitor's contiguous row, the same 1-D sum as
    for a single pair, so results do not depend on which other competitors
    are counted, or in what order. The scores are built in those rows, so
    ``psi`` is the column-major (n, p) transpose of a C-ordered (p, n)
    array.
    """
    n = panel.n
    if n < 4:
        raise ContractError("pair_stats needs n >= 4 evaluation points")
    if not 0 <= m < panel.n_models:
        raise ContractError(f"reference index {m} out of range")
    if competitors is not None:
        competitors = np.asarray(competitors)
        if (competitors.ndim != 1 or competitors.dtype.kind not in "iu"
                or competitors.size and (competitors.min() < 0
                                         or competitors.max() >= panel.n_models
                                         or m in competitors)):
            raise ContractError(f"competitors of {m} must be other models' indices")
    if ties is None:
        ties = TieStreams(0)
    ids = panel.model_ids
    competitors, row, col, se, tied = _reference_counts(
        panel, m, lambda j: ties.pair(ids[m], ids[j]), competitors)
    # Counts are integers below 2**53, so every sum here is exact.
    wins = row.sum(axis=1)
    u = wins / (n * n)
    mu = u - 0.5
    # Scores in place, in the order of (row + col) / n - 1.0 - 2.0 * mu.
    row += col
    row /= n
    row -= 1.0
    row -= (2.0 * mu)[:, None]
    return PairStats(reference=m, competitors=competitors, u=u, mu=mu, se=se, psi=row.T,
                     wins=wins, tied=tied)
