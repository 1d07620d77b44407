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
marginally valid. ``run_min_bootstrap`` also takes many tests at once: their
psi columns side by side in one block, with the number of columns each
owns, so one product with the multipliers serves them all.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import ContractError
from .ranksum import PSI_CENTERING_TOL
from .rng import multiplier_matrix

RECOMMENDED_MIN_DRAWS = 500


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
                stacklevel=3,
            )

    def multipliers(self, n: int) -> np.ndarray:
        """The read-only (B, n) multiplier block, drawn once per config and n."""
        block = self._blocks.get(n)
        if block is None:
            block = multiplier_matrix(self.seed, self.B, n)
            block.flags.writeable = False
            self._blocks[n] = block
        return block


@dataclass(frozen=True)
class BootstrapResult:
    t_obs: float
    draws: np.ndarray = field(repr=False)
    p_value: float


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


def p_value(t_obs: float, draws) -> float:
    """Share of bootstrap draws strictly below the observed statistic."""
    draws = np.asarray(draws, dtype=float)
    if draws.size == 0:
        raise ContractError("draws must be nonempty")
    return float(np.sum(draws < float(t_obs)) / draws.size)


def run_min_bootstrap(mu, psi, config: BootstrapConfig,
                      sizes=None) -> list[BootstrapResult]:
    """Observed statistic sqrt(n) * min(mu), draws and p-value of each test.

    The columns of mu and psi are laid out test by test, ``sizes[r]`` of
    them for test r (default: one test owning them all). The block is
    checked and multiplied by the multipliers once; test r's draws are the
    row minima over its own columns, as ``multiplier_min_bootstrap`` gives
    them on those columns alone but for BLAS rounding in the wider product.
    """
    mu = np.asarray(mu, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if mu.ndim != 1 or psi.ndim != 2 or psi.shape[1] != mu.size:
        raise ContractError("mu and psi shapes are inconsistent")
    sizes = np.array([mu.size] if sizes is None else sizes, dtype=int)
    if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1 or sizes.sum() != mu.size:
        raise ContractError(
            f"segment sizes {sizes.tolist()} must be positive and sum to {mu.size}")
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])])
    root_n = math.sqrt(psi.shape[0])
    t_obs = root_n * np.minimum.reduceat(mu, starts)
    draws = np.minimum.reduceat(_checked_product(psi, config), starts, axis=1) / root_n
    return [BootstrapResult(t_obs=float(t), draws=d, p_value=p_value(t, d))
            for t, d in zip(t_obs, draws.T)]


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ContractError(f"quantile level must be in (0, 1), got {q}")
    return NormalDist().inv_cdf(q)
