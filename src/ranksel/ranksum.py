"""Generalized rank-sum statistics over panels of prediction losses.

The central object is the loss panel: an n x M matrix whose column j holds
the per-observation prediction loss of candidate model j on a common
evaluation set. For a reference model m and a competitor j the statistic

    u = n^-2 * sum_{k,l} 1{ loss_m[k] < loss_j[l] }

compares every ordered pair of evaluation points, including k = l. Exact
ties are resolved by an independent fair coin per tied pair. Centered
values mu = u - 1/2, per-observation projection scores, and standard
errors feed the Gaussian multiplier bootstrap in :mod:`ranksel.bootstrap`.

Cost: a panel sorts each of its M columns once (``LossPanel.sorted_column``);
each pair then costs one binary search with sorted needles (two if the
pair has a tie), O(n) counting and scatters back to index order. Across
one panel's references, a tie-free pair is counted once per unordered
pair: its counts for the later reference are the earlier one's mirrored,
kept up to ``_MIRROR_BYTES`` (see :func:`pair_stats`). Tie coins
cost O(tied cells) and are only drawn, from a stream created on demand,
for pairs that have a tied cell; they are drawn in chunks of whole rows,
so the working memory of a tie-heavy pair is bounded by the chunk size,
not by its tied-cell count. A brute-force O(n^2) evaluation with the same
tie stream produces bit-identical results (the tests rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractError, DataError
from .rng import TieStreams, keyed_stream

# Variance floor for (1/6 - 2*cov) before the /n scaling; guards the
# degenerate co-monotone case where the projection variance collapses.
VARIANCE_FLOOR = 1e-6

# Tolerance on projection-score column means, relative to n.
PSI_CENTERING_TOL = 1e-12

# Most tie coins drawn by one ``random`` call: whole tied rows are drawn
# together up to this many coins (a single wider row is drawn on its own).
# Bounds the per-chunk buffers on tie-heavy panels such as 0/1 losses.
_COIN_CHUNK = 1 << 16

# Most bytes of mirrored counts that ``pair_stats`` keeps pending for
# later references; past it, pairs are counted directly. Bounds the
# memory of a large-M panel, whose pending cells grow as M^2 n / 4.
_MIRROR_BYTES = 32 << 20


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
    def _column_sorts(self) -> tuple[np.ndarray, np.ndarray]:
        cols = self.losses.T
        # stable => equal values stay in index order
        order = np.argsort(cols, axis=1, kind="stable")
        return np.take_along_axis(cols, order, axis=1), order

    def sorted_column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Column j's sorted values and stable argsort, computed once per panel."""
        values, order = self._column_sorts
        return values[j], order[j]


@dataclass(frozen=True)
class PairStats:
    """Rank-sum comparisons of one reference model against its competitors.

    Arrays are aligned with ``competitors`` (model indices j != reference).
    ``psi`` holds mean-zero per-observation projection scores, one column
    per competitor, used as bootstrap scores.
    """

    reference: int
    competitors: np.ndarray     # (p,) int
    u: np.ndarray               # (p,) in [0, 1]
    mu: np.ndarray              # (p,) = u - 0.5
    se: np.ndarray              # (p,) > 0
    psi: np.ndarray             # (n, p)


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


def _rank_counts(a_sorted, a_order, b_sorted, b_order, ties=None):
    """Win counts of 1{a_k < b_l} from both samples' sorted values and orders.

    Returns, each in original index order: row[k] = #{l : a_k beats b_l},
    col[l] = #{k : a_k beats b_l}, hi[k] = #{l : b_l <= a_k} and
    right[l] = #{k : a_k <= b_l}, then whether any a_k == b_l. An exact
    tie is settled by a fair coin from the Generator that ``ties()``
    returns; ``ties`` is called only when the pair has a tied cell. With
    ``ties=None`` a tie counts for neither side (``hi`` and ``right``
    never depend on coins).
    """
    n = a_sorted.size
    hi_s = np.searchsorted(b_sorted, a_sorted, side="right")
    # a_i ties iff it equals the largest b at or below it; hi_s[i] = 0 wraps
    # to the largest b, which then exceeds a_i.
    has_ties = bool((b_sorted[hi_s - 1] == a_sorted).any())
    # In sorted positions: a_i < b_l iff hi_s[i] <= l, a_i <= b_l iff lo_s[i] <= l.
    # Without ties lo_s is hi_s, so one count serves both sides.
    right_s = np.cumsum(np.bincount(hi_s, minlength=n + 1)[:n])
    col_s = right_s.astype(float)
    if has_ties:
        lo_s = np.searchsorted(b_sorted, a_sorted, side="left")
        right_s = np.cumsum(np.bincount(lo_s, minlength=n + 1)[:n])
    hi = np.empty(n, dtype=np.intp)
    hi[a_order] = hi_s
    row = (n - hi).astype(float)
    if ties is not None and has_ties:
        lo = np.empty(n, dtype=np.intp)
        lo[a_order] = lo_s
        _add_tie_wins(row, col_s, lo, hi, ties())
    col = np.empty(n)
    col[b_order] = col_s
    right = np.empty(n, dtype=np.intp)
    right[b_order] = right_s
    return row, col, hi, right, has_ties


def _add_tie_wins(row, col_sorted, lo, hi, gen: np.random.Generator) -> None:
    """Settle every tied cell with one fair coin, in lexicographic (k, l) order.

    Row k ties with the sorted-b positions lo[k]:hi[k], which the stable
    order lists by ascending l, so drawing the tied rows' coins back to
    back in ascending k reproduces the (k, l) stream of a double loop.
    Coins come in chunks of whole rows of at most ``_COIN_CHUNK`` coins.
    Row wins are added to ``row`` (index order), column wins to
    ``col_sorted`` (sorted-b order).
    """
    width = hi - lo
    rows = np.flatnonzero(width)
    width = width[rows]
    ends = np.cumsum(width)
    start = 0
    while start < rows.size:
        base = ends[start] - width[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + _COIN_CHUNK, side="right")))
        offsets = ends[start:stop] - width[start:stop] - base
        wins = (gen.random(int(ends[stop - 1] - base)) < 0.5).view(np.uint8)
        chunk = rows[start:stop]
        row[chunk] += np.add.reduceat(wins, offsets, dtype=np.intp)
        # Rows tied with the same value share one b-slice, so each value's
        # coins form a (rows x slice) block, gathered as rows of a sliding
        # window over the chunk, that sums down to the column wins.
        first = lo[chunk]
        by_value = np.argsort(first, kind="stable")
        cuts = np.flatnonzero(np.diff(first[by_value])) + 1
        for group in np.split(by_value, cuts):
            pos, w = first[group[0]], width[start + group[0]]
            windows = as_strided(wins, (wins.size - w + 1, w), (1, 1), writeable=False)
            col_sorted[pos:pos + w] += windows[offsets[group]].sum(axis=0, dtype=np.intp)
        start = stop


def _se_from_counts(hi: np.ndarray, right: np.ndarray, n: int) -> float:
    # x.sum() / n is the same IEEE operation as np.mean(x), at less overhead.
    x = right / n           # F_a(b_i), right-closed
    y = hi / n              # F_b(a_i)
    cov = float((x * y).sum() / n - (x.sum() / n) * (y.sum() / n))
    variance = max(VARIANCE_FLOOR, 1.0 / 6.0 - 2.0 * cov)
    return float(np.sqrt(variance / n))


def ranksum_u(a, b, ties: np.random.Generator | None = None) -> float:
    """Fraction of ordered pairs (k, l) with a[k] < b[l], ties randomized.

    Counts all n^2 ordered pairs including k = l. With no exact ties the
    result is bit-identical to the O(n^2) double loop; exact ties a[k] ==
    b[l] are broken by independent fair coins drawn from ``ties`` in
    lexicographic (k, l) order.
    """
    panel = _pair_panel(a, b, min_n=2)
    # Without a stream, a fixed one keeps the call reproducible.
    stream = (lambda: keyed_stream(0)) if ties is None else (lambda: ties)
    row, *_ = _rank_counts(*panel.sorted_column(0), *panel.sorted_column(1), stream)
    return float(row.sum() / (panel.n * panel.n))


def se_ranksum(a, b) -> float:
    """Standard error of the centered rank-sum mean for dependent samples.

    Estimates sqrt(max(floor, 1/6 - 2*c) / n) where c is the 1/n-normalized
    sample covariance between F_a(b_i) and F_b(a_i), the empirical CDF of
    each sample evaluated at the other's paired values. The floor keeps
    screening z-scores finite when the two samples are co-monotone.
    """
    panel = _pair_panel(a, b, min_n=4)
    _, _, hi, right, _ = _rank_counts(*panel.sorted_column(0), *panel.sorted_column(1))
    return _se_from_counts(hi, right, panel.n)


def pair_stats(panel: LossPanel, m: int, projection: str = "symmetrized",
               ties: TieStreams | None = None, mirror: dict | None = None) -> PairStats:
    """Rank-sum statistics of reference model m against every competitor.

    ``projection`` selects the bootstrap score construction:

    * ``"row_only"``: psi_k = (1/n) sum_l xi(k, l) - mu, the one-sided
      row-mean score.
    * ``"symmetrized"`` (default): psi_k adds the column-mean part,
      (1/n) sum_l xi(k, l) + (1/n) sum_i xi(i, k) - 2 mu, the full
      two-part projection whose empirical variance matches the
      dependent-sample variance formula behind :func:`se_ranksum`.

    Tie coins come from ``ties.pair(id_m, id_j)``, keyed by the two model
    ids, so each pair's stream is independent of evaluation order and of
    column positions; it is only requested for a pair with a tied cell.

    ``mirror`` lets one panel's calls, made for references in increasing
    order with one projection, count each tie-free pair once. Off ties
    1{a_k < b_l} = 1 - 1{b_l < a_k}, so reference j's counts against m
    are m's counts against j mirrored; the call for m stores them under
    (j, m) for every later j, while they fit in ``_MIRROR_BYTES``, and
    the call for j pops them instead of counting. Results are
    bit-identical with or without it. Tied pairs are always counted,
    since their coins depend on the pair's direction.
    """
    if projection not in ("row_only", "symmetrized"):
        raise ContractError(f"unknown projection mode: {projection!r}")
    n = panel.n
    if n < 4:
        raise ContractError("pair_stats needs n >= 4 evaluation points")
    if not 0 <= m < panel.n_models:
        raise ContractError(f"reference index {m} out of range")
    if ties is None:
        ties = TieStreams(0)
    competitors = [j for j in range(panel.n_models) if j != m]
    p = len(competitors)

    a_sorted, a_order = panel.sorted_column(m)
    ids = panel.model_ids
    symmetrized = projection == "symmetrized"
    # A mirrored psi numerator is an integer in [0, 2n].
    count_type = np.min_scalar_type(2 * n)
    entry_bytes = n * count_type.itemsize
    u = np.empty(p)
    se = np.empty(p)
    psi = np.empty((n, p))
    for idx, j in enumerate(competitors):
        stored = None if mirror is None else mirror.pop((m, j), None)
        if stored is not None:
            wins, se[idx], part = stored
        else:
            row, col, hi, right, has_ties = _rank_counts(
                a_sorted, a_order, *panel.sorted_column(j),
                partial(ties.pair, ids[m], ids[j]))
            wins = row.sum()
            part = row + col if symmetrized else row
            se[idx] = _se_from_counts(hi, right, n)
            if (mirror is not None and j > m and not has_ties
                    and (len(mirror) + 1) * entry_bytes <= _MIRROR_BYTES):
                # j's row is n - col and its column n - row; its hi and
                # right are m's right and hi, which leave se unchanged.
                mirrored = 2 * n - part if symmetrized else n - col
                mirror[(j, m)] = (n * n - wins, se[idx], mirrored.astype(count_type))
        # Counts are integers below 2**53, so every sum here is exact.
        u_j = wins / (n * n)
        mu_j = u_j - 0.5
        if symmetrized:
            psi[:, idx] = part / n - 1.0 - 2.0 * mu_j
        else:
            psi[:, idx] = part / n - 0.5 - mu_j
        u[idx] = u_j
    return PairStats(reference=m, competitors=np.array(competitors, dtype=int),
                     u=u, mu=u - 0.5, se=se, psi=psi)
