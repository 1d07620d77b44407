"""Gaussian multiplier bootstrap for the minimum of many dependent statistics.

Given mean-zero projection scores psi (n observations x p statistics), each
bootstrap draw multiplies the rows by one shared vector of i.i.d. standard
normals e and records

    T_b = min_j n^{-1/2} sum_k psi[k, j] * e_k.

Sharing e across columns preserves the joint dependence of the p statistics,
which is what makes the minimum's distribution come out right. The observed
statistic to compare against is T = sqrt(n) * min_j mu_j, so both live on
the same scale. p-values count draws strictly below the observed value.

The multipliers do not depend on psi, so one (B, n) block can serve many
tests: a ``BootstrapConfig`` draws its block on first use and hands the
same block to every later bootstrap run with it. Each p-value stays
marginally valid. ``run_min_bootstrap`` takes many tests at once: their psi
columns side by side in one block, each column scoring one test as it is
and another negated (an antisymmetric pair's two directions), so one
product serves them all. It folds the block's draws into running minima,
one row per test, so a test's columns may arrive over several blocks;
``p_values`` turns the minima into p-values.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .rng import multiplier_matrix

RECOMMENDED_MIN_DRAWS = 500

# Tolerance on projection-score column means, relative to n.
PSI_CENTERING_TOL = 1e-12


def _caller_stacklevel() -> int:
    """The ``stacklevel`` at which a warning raised by this function's caller
    names the first frame outside this package. Dataclass-generated methods
    run in their class's module globals, so their frames count as inside."""
    package = __name__.partition(".")[0]
    level, frame = 2, sys._getframe(2)
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == package:
        level, frame = level + 1, frame.f_back
    return level


def integral(name: str, value) -> int:
    """``value`` as an int if it is one (``operator.index``); 1.5 is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ContractError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class BootstrapConfig:
    """Multiplier bootstrap settings: draw count and seed (and its draws)."""

    B: int = 500
    seed: int = 0
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "B", integral("B", self.B))
        object.__setattr__(self, "seed", integral("seed", self.seed))
        if self.B < 100:
            raise ContractError(f"B must be >= 100, got {self.B}")
        if self.B < RECOMMENDED_MIN_DRAWS:
            warnings.warn(
                f"B = {self.B} bootstrap draws is below the recommended "
                f"{RECOMMENDED_MIN_DRAWS}; p-values will be coarse",
                stacklevel=_caller_stacklevel(),
            )

    def multipliers(self, n: int) -> np.ndarray:
        """The read-only (B, n) multiplier block, drawn once per config and n."""
        block = self._blocks.get(n)
        if block is None:
            block = multiplier_matrix(self.seed, self.B, n)
            block.flags.writeable = False
            self._blocks[n] = block
        return block


def _checked_product(psi, config: BootstrapConfig) -> np.ndarray:
    """The (B, p) product of the multipliers with psi, once psi is checked."""
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2:
        raise ContractError("psi must be an n x p matrix")
    n, p = psi.shape
    if n < 2 or p < 1:
        raise ContractError(f"psi needs n >= 2 and p >= 1, got {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise ContractError("psi contains non-finite values")
    col_means = np.abs(psi.mean(axis=0))
    if col_means.max() > PSI_CENTERING_TOL * n:
        raise ContractError(
            f"psi columns are not centered (max |mean| = {col_means.max():.3e})"
        )
    return config.multipliers(n) @ psi


def multiplier_min_bootstrap(psi, config: BootstrapConfig) -> np.ndarray:
    """B draws of the min-statistic under Gaussian multipliers.

    psi must have (near) mean-zero columns; the same multiplier vector is
    applied to every column within a draw. Draw b is a pure function of
    (config.seed, b), so results do not depend on scheduling; calls with
    the same config and n reuse one multiplier block.
    """
    return _checked_product(psi, config).min(axis=1) / math.sqrt(np.shape(psi)[0])


def _valid_runs(runs, tests: int, width: int) -> bool:
    """Whether the (plus, minus) runs cover ``width`` columns, each run
    nonempty and naming at most one plus test and distinct minus tests
    among ``tests``."""
    if any(plus.size != minus.size or plus.size == 0 for plus, minus in runs):
        return False
    run_of = np.repeat(np.arange(len(runs)), [plus.size for plus, _ in runs])
    plus, minus = (np.concatenate([run[k] for run in runs] or [np.empty(0, np.intp)])
                   for k in (0, 1))
    own, named = plus >= 0, minus >= 0
    # Sorted keys, not np.unique: that would import numpy.ma (8 ms, 1-2 MB).
    keys = np.sort(run_of[named] * tests + minus[named])
    return bool(plus.size == width
                and min(plus.min(initial=0), minus.min(initial=0)) >= -1
                and max(plus.max(initial=-1), minus.max(initial=-1)) < tests
                and not np.any((np.diff(run_of[own]) == 0) & (np.diff(plus[own]) != 0))
                and not np.any(np.diff(keys) == 0))


def run_min_bootstrap(draws, psi, config: BootstrapConfig, segments):
    """Fold one block of score columns into the tests' running minima.

    ``draws`` is a float (R, B) array whose row r holds test r's running
    minimum over the draws of its columns so far; start it at +inf. The
    columns of psi come in ``segments``, one ``(plus, minus)`` pair of
    index arrays per run of ``len(plus) >= 1`` columns: column i of the run
    scores test ``plus[i]`` as it is and test ``minus[i]`` with its sign
    flipped, where -1 names no test. A run's ``plus`` names at most one
    test and its ``minus`` each test at most once. The block is checked
    and multiplied by the multipliers once; each column's draws are
    (multipliers @ psi[:, c]) / sqrt(n), as ``multiplier_min_bootstrap``
    gives them on that column alone but for BLAS rounding in the wider
    product. Updates and returns ``draws``.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2 or draws.shape[1:] != (config.B,):
        raise ContractError(f"psi must be a matrix and draws have {config.B} columns")
    tests = draws.shape[0]
    runs = [tuple(np.asarray(side, dtype=np.intp).reshape(-1) for side in run)
            for run in segments]
    if not _valid_runs(runs, tests, psi.shape[1]):
        raise ContractError(f"segments must cover the block's {psi.shape[1]} columns, "
                            f"each run naming one plus test and distinct minus tests "
                            f"among {tests}")
    product = _checked_product(psi, config)
    root_n = math.sqrt(psi.shape[0])
    # One buffer holds each run's rows in turn: one allocation per call.
    buffer = np.empty((max((plus.size for plus, _ in runs), default=0), config.B))
    start = 0
    for plus, minus in runs:
        # One contiguous row of negated draws per column, so every update
        # below runs along rows. Scaling before the minimum gives the same
        # bits, and x / -r is -(x / r).
        rows = np.divide(product[:, start:start + plus.size].T, -root_n,
                         out=buffer[:plus.size])
        start += plus.size
        test = plus.max()
        if test >= 0:
            top = rows.max(axis=0, where=(plus >= 0)[:, None], initial=-np.inf)
            np.minimum(draws[test], -top, out=draws[test])
        cols = np.flatnonzero(minus >= 0)
        if cols.size:
            draws[minus[cols]] = np.minimum(draws[minus[cols]], rows[cols])
    return draws


def p_values(t_obs, draws) -> np.ndarray:
    """Share of each test's draws (one row per test) strictly below its t_obs."""
    draws = np.asarray(draws, dtype=float)
    return np.count_nonzero(draws < np.asarray(t_obs, dtype=float)[:, None], axis=1) \
        / draws.shape[1]
