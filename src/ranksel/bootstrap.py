"""Gaussian multiplier bootstrap for the minimum of many dependent statistics.

Given mean-zero projection scores psi (n observations x p statistics), each
bootstrap draw multiplies the rows by one shared vector of i.i.d. standard
normals e and records

    T_b = min_j n^{-1/2} sum_k psi[k, j] * e_k.

Sharing e across columns preserves the joint dependence of the p statistics,
which is what makes the minimum's distribution come out right. The observed
statistic to compare against is T = sqrt(n) * min_j mu_j, so both live on
the same scale. p-values count draws strictly below the observed value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .ranksum import PSI_CENTERING_TOL
from .rng import multiplier_matrix

RECOMMENDED_MIN_DRAWS = 500


@dataclass(frozen=True)
class BootstrapConfig:
    """Multiplier bootstrap settings: draw count and seed."""

    B: int = 500
    seed: int = 0

    def __post_init__(self):
        if int(self.B) < 100:
            raise ContractError(f"B must be >= 100, got {self.B}")
        if int(self.B) < RECOMMENDED_MIN_DRAWS:
            warnings.warn(
                f"B = {self.B} bootstrap draws is below the recommended "
                f"{RECOMMENDED_MIN_DRAWS}; p-values will be coarse",
                stacklevel=2,
            )
        object.__setattr__(self, "B", int(self.B))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class BootstrapResult:
    t_obs: float
    draws: np.ndarray = field(repr=False)
    p_value: float


def multiplier_min_bootstrap(psi, config: BootstrapConfig) -> np.ndarray:
    """B draws of the min-statistic under Gaussian multipliers.

    psi must have (near) mean-zero columns; the same multiplier vector is
    applied to every column within a draw. Draw b is a pure function of
    (config.seed, b), so results do not depend on scheduling.
    """
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
    mult = multiplier_matrix(config.seed, config.B, n)   # (B, n)
    return (mult @ psi).min(axis=1) / math.sqrt(n)


def p_value(t_obs: float, draws) -> float:
    """Share of bootstrap draws strictly below the observed statistic."""
    draws = np.asarray(draws, dtype=float)
    if draws.size == 0:
        raise ContractError("draws must be nonempty")
    return float(np.sum(draws < float(t_obs)) / draws.size)


def run_min_bootstrap(mu, psi, config: BootstrapConfig) -> BootstrapResult:
    """Observed statistic sqrt(n) * min(mu), draws, and the p-value."""
    mu = np.asarray(mu, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if mu.ndim != 1 or psi.ndim != 2 or psi.shape[1] != mu.size:
        raise ContractError("mu and psi shapes are inconsistent")
    t_obs = math.sqrt(psi.shape[0]) * float(mu.min())
    draws = multiplier_min_bootstrap(psi, config)
    return BootstrapResult(t_obs=t_obs, draws=draws, p_value=p_value(t_obs, draws))


# Rational approximation of the standard normal inverse CDF, refined by one
# Newton step against the erfc-based CDF. Absolute error stays below 1e-8
# across (1e-12, 1 - 1e-12).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ContractError(f"quantile level must be in (0, 1), got {q}")
    if q < _P_LOW:
        z = math.sqrt(-2.0 * math.log(q))
        x = ((((((_C[0] * z + _C[1]) * z + _C[2]) * z + _C[3]) * z + _C[4]) * z + _C[5])
             / ((((_D[0] * z + _D[1]) * z + _D[2]) * z + _D[3]) * z + 1.0))
    elif q <= 1.0 - _P_LOW:
        z = q - 0.5
        r = z * z
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * z
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        z = math.sqrt(-2.0 * math.log(1.0 - q))
        x = -((((((_C[0] * z + _C[1]) * z + _C[2]) * z + _C[3]) * z + _C[4]) * z + _C[5])
              / ((((_D[0] * z + _D[1]) * z + _D[2]) * z + _D[3]) * z + 1.0))
    # One Newton refinement against the erfc-based CDF.
    pdf = _normal_pdf(x)
    if pdf > 0.0:
        x -= (_normal_cdf(x) - q) / pdf
    return x
