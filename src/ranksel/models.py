"""Losses and linear learners used to build loss panels.

Provides squared/absolute/Huber losses, ordinary least squares, adaptive
Huber regression (IRLS with a data-driven robustification parameter), and
l1-penalized Huber regression solved by proximal gradient with backtracking,
plus the lambda-path and subset-enumeration helpers the simulation studies
need. Learners raise :class:`LearnerError` on unusable data; selection code
treats that as a failed candidate rather than aborting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, LearnerError

# 95%-efficiency Huber constant and the MAD-to-sigma factor for Gaussians.
HUBER_C = 1.345
MAD_SCALE = 1.4826

MAX_SUBSET_DIM = 20

# The smallest penalty on a lambda path, as a share of lambda_max.
LAMBDA_MIN_RATIO = 0.01


@dataclass(frozen=True)
class Dataset:
    """Design matrix (no intercept column) and response vector."""

    x: np.ndarray   # (n, d)
    y: np.ndarray   # (n,)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise ContractError("x must be an n x d matrix")
        if y.ndim != 1 or y.size != x.shape[0]:
            raise ContractError("y must be a vector matching x's rows")
        if x.shape[0] < 2 or x.shape[1] < 1:
            raise ContractError(f"need n >= 2 and d >= 1, got {x.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DataError("dataset contains non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass
class FittedLinear:
    """Fitted linear predictor: intercept + x @ coef."""

    intercept: float
    coef: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=float)
        if not (np.isfinite(self.intercept) and np.all(np.isfinite(self.coef))):
            raise LearnerError("fitted parameters are not finite")

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.intercept + x @ self.coef

    @property
    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.coef))


@dataclass(frozen=True)
class LossFn:
    """Pointwise loss on residuals: squared, absolute, or Huber."""

    kind: str
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ("squared", "absolute", "huber"):
            raise ContractError(f"unknown loss kind: {self.kind!r}")
        if self.kind == "huber":
            if self.tau is None or not np.isfinite(self.tau) or self.tau <= 0:
                raise ContractError("huber loss needs a finite tau > 0")


def loss_eval(fn: LossFn, residual):
    """Evaluate the loss elementwise on residuals (scalar or array)."""
    r = np.asarray(residual, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DataError("residuals must be finite")
    if fn.kind == "squared":
        out = r * r
    elif fn.kind == "absolute":
        out = np.abs(r)
    else:
        tau = float(fn.tau)
        a = np.abs(r)
        out = np.where(a <= tau, 0.5 * r * r, tau * a - 0.5 * tau * tau)
    return out if out.ndim else float(out)


def huber_score(r, tau: float):
    """Huber influence psi(r): r clipped to [-tau, tau]."""
    return np.clip(r, -tau, tau)


def _median(v: np.ndarray) -> float:
    """np.median of a float vector, without its per-call overhead: NaN if it
    is empty or holds a NaN (partitioning sorts NaN last), else the same
    order statistics and the same mean of the middle pair, whose sum starts
    from +0.0 (so a zero median is +0.0)."""
    if not v.size:
        return math.nan
    half = v.size // 2
    odd = v.size % 2
    part = np.partition(v, [half, -1] if odd else [half - 1, half, -1])
    if part[-1] != part[-1]:
        return math.nan
    if odd:
        return float(part[half]) + 0.0
    return (float(part[half - 1] + part[half]) + 0.0) / 2


def mad_scale(values) -> float:
    """Robust scale: median absolute deviation times 1.4826."""
    v = np.asarray(values, dtype=float)
    return _median(np.abs(v - _median(v))) * MAD_SCALE


def robust_scale(values) -> float:
    """mad_scale, or the standard deviation (at least 1e-12) when the MAD is 0."""
    scale = mad_scale(values)
    if scale <= 0:
        scale = max(float(np.std(values)), 1e-12)
    return scale


def adaptive_tau(n: int, d: int, scale: float) -> float:
    """Sample-size-aware Huber knee: HUBER_C * scale * sqrt(n / (d + log n))."""
    return HUBER_C * scale * math.sqrt(n / (d + math.log(n)))


def fit_ols(data: Dataset) -> FittedLinear:
    """Least squares with intercept via orthogonal factorization."""
    n, d = data.n, data.d
    if n <= d + 1:
        raise LearnerError(f"need n > d + 1, got n={n}, d={d}")
    design = np.column_stack([np.ones(n), data.x])
    coef, _, rank, _ = np.linalg.lstsq(design, data.y, rcond=None)
    if rank < d + 1:
        raise LearnerError(f"design is rank deficient (rank {rank} < {d + 1})")
    return FittedLinear(intercept=float(coef[0]), coef=coef[1:],
                        meta={"learner": "ols"})


def huber_location(y, tau: float, max_iter: int = 100, tol: float = 1e-10) -> float:
    """Huber M-estimate of location by IRLS."""
    if not tau > 0:
        raise ContractError("tau must be positive")
    y = np.asarray(y, dtype=float)
    loc = _median(y)
    for _ in range(max_iter):
        w = _huber_weights(y - loc, tau)
        new = float(np.sum(w * y) / np.sum(w))
        if abs(new - loc) <= tol * max(1.0, abs(loc)):
            return new
        loc = new
    return loc


def _huber_weights(r, tau: float) -> np.ndarray:
    """IRLS weights psi(r) / r = min(1, tau / |r|) for tau > 0; exactly 1.0
    where |r| <= tau, since tau / tau is."""
    return tau / np.maximum(np.abs(r), tau)


def _irls_huber(data: Dataset, tau0: float, adapt: bool,
                max_iter: int, tol: float) -> FittedLinear:
    n, d = data.n, data.d
    if n <= d + 1:
        raise LearnerError(f"need n > d + 1, got n={n}, d={d}")
    design = np.column_stack([np.ones(n), data.x])
    # One SVD per fit, design = U diag(s) Vt. Its rank, by matrix_rank's and
    # lstsq(rcond=None)'s rule, is every weighted design's rank, since the
    # weights are strictly positive. Each pass solves the weighted normal
    # equations in the orthonormal basis U: U^T W U is as well conditioned as
    # the weights, however collinear the design, and theta = Vt^T s^-1 phi.
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * max(n, d + 1) * np.finfo(float).eps))
    if rank < d + 1:
        raise LearnerError(f"design is rank deficient (rank {rank} < {d + 1})")
    basis_t = np.ascontiguousarray(u.T)
    to_theta = vt.T / s
    theta = np.zeros(d + 1)
    theta[0] = _median(data.y)
    tau = tau0
    converged = False
    for _ in range(max_iter):
        r = data.y - design @ theta
        if adapt:
            tau = adaptive_tau(n, d, robust_scale(r))
        weighted_t = basis_t * _huber_weights(r, tau)
        try:
            phi = np.linalg.solve(weighted_t @ u, weighted_t @ data.y)
        except np.linalg.LinAlgError:
            raise LearnerError("weighted Gram matrix is singular") from None
        new = to_theta @ phi
        if np.linalg.norm(new - theta) <= tol * max(1.0, np.linalg.norm(theta)):
            theta = new
            converged = True
            break
        theta = new
    meta = {"learner": "huber", "tau": float(tau), "converged": converged}
    if not converged:
        meta["not_converged"] = True
    return FittedLinear(intercept=float(theta[0]), coef=theta[1:], meta=meta)


def fit_huber(data: Dataset, tau: float, max_iter: int = 200,
              tol: float = 1e-8) -> FittedLinear:
    """Huber regression at a fixed robustification parameter."""
    if tau <= 0:
        raise ContractError("tau must be positive")
    return _irls_huber(data, tau, adapt=False, max_iter=max_iter, tol=tol)


def fit_huber_adaptive(data: Dataset, max_iter: int = 200,
                       tol: float = 1e-8) -> FittedLinear:
    """Huber regression with the knee recalibrated from the residual scale.

    Each IRLS pass sets tau = 1.345 * mad_scale(residuals) * sqrt(n / (d +
    log n)) before reweighting, so the robustification level tracks both the
    noise scale and the effective sample size. Stops on relative parameter
    change <= tol; a run that exhausts max_iter is returned with a
    ``not_converged`` flag rather than discarded.
    """
    return _irls_huber(data, tau0=1.0, adapt=True, max_iter=max_iter, tol=tol)


def _huber_objective(r, tau: float) -> float:
    # single-pass form: with c = min(|r|, tau) both branches are c*(|r| - c/2)
    a = np.abs(r)
    c = np.minimum(a, tau)
    return float(np.mean(c * (a - 0.5 * c)))


def soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def fit_huber_lasso(data: Dataset, lam: float, tau: float,
                    max_iter: int = 2000, tol: float = 1e-9,
                    init: FittedLinear | None = None,
                    lip: float | None = None,
                    keep_history: bool = False) -> FittedLinear:
    """l1-penalized Huber regression by proximal gradient.

    Minimizes (1/n) sum huber_tau(y_i - b0 - x_i @ beta) + lam * ||beta||_1
    with an unpenalized intercept. Steps use backtracking line search from a
    Lipschitz-based initial step; iterations stop once the relative
    objective change drops to ``tol``. The objective is checked to be
    non-increasing every iteration.
    """
    if lam <= 0:
        raise ContractError("lambda must be positive")
    if tau <= 0:
        raise ContractError("tau must be positive")
    n, d = data.n, data.d
    x, y = data.x, data.y

    if init is not None:
        b0 = float(init.intercept)
        beta = init.coef.astype(float).copy()
        if beta.size != d:
            raise ContractError("warm start has wrong dimension")
    else:
        b0 = huber_location(y, tau)
        beta = np.zeros(d)

    # Huber curvature is at most 1, so the smooth part has Lipschitz
    # constant <= largest eigenvalue of [1 X]^T [1 X] / n. Path runners
    # pass it in to avoid recomputing per fit.
    if lip is None:
        lip = _augmented_gram_norm(x) / n
    step = 1.0 / max(lip, 1e-12)

    r = y - b0 - x @ beta
    smooth = _huber_objective(r, tau)
    obj = smooth + lam * np.abs(beta).sum()
    history = [obj] if keep_history else None
    converged = False

    for _ in range(max_iter):
        psi = huber_score(r, tau)
        g0 = -psi.mean()
        g = -(x.T @ psi) / n
        while True:
            b0_new = b0 - step * g0
            beta_new = soft_threshold(beta - step * g, step * lam)
            r_new = y - b0_new - x @ beta_new
            smooth_new = _huber_objective(r_new, tau)
            db0 = b0_new - b0
            dbeta = beta_new - beta
            quad = (smooth + g0 * db0 + g @ dbeta
                    + (db0 * db0 + dbeta @ dbeta) / (2.0 * step))
            if smooth_new <= quad + 1e-12 * max(1.0, abs(smooth)):
                break
            step *= 0.5
            if step < 1e-18:
                raise LearnerError("line search collapsed")
        obj_new = smooth_new + lam * np.abs(beta_new).sum()
        if obj_new > obj + 1e-8 * max(1.0, abs(obj)):
            raise LearnerError("proximal gradient objective increased")
        if keep_history:
            history.append(obj_new)
        rel_change = abs(obj - obj_new) / max(1.0, abs(obj))
        b0, beta, r, obj, smooth = b0_new, beta_new, r_new, obj_new, smooth_new
        if rel_change <= tol:
            converged = True
            break

    meta = {"learner": "huber_lasso", "tau": float(tau), "lambda": float(lam),
            "converged": converged}
    if not converged:
        meta["not_converged"] = True
    if keep_history:
        meta["objective_history"] = history
    return FittedLinear(intercept=b0, coef=beta, meta=meta)


def _augmented_gram_norm(x: np.ndarray, iters: int = 60) -> float:
    """Largest eigenvalue of [1 X]^T [1 X] by power iteration."""
    n, d = x.shape
    v = np.full(d + 1, 1.0 / math.sqrt(d + 1))
    val = 1.0
    for _ in range(iters):
        u = v[0] + x @ v[1:]
        w = np.empty(d + 1)
        w[0] = u.sum()
        w[1:] = x.T @ u
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return float(n)   # degenerate design; intercept column alone
        v = w / nrm
        val = nrm
    return float(val)


def huber_lasso_lipschitz(data: Dataset) -> float:
    """Step-size bound for fit_huber_lasso, reusable across a lambda path."""
    return _augmented_gram_norm(data.x) / data.n


def lambda_path(data: Dataset, k_path: int = 50,
                tau: float | None = None) -> np.ndarray:
    """Strictly decreasing log-spaced penalty grid from lambda_max down to
    LAMBDA_MIN_RATIO * lambda_max.

    lambda_max is the largest coordinate of |(1/n) X^T psi_tau(y - b0)| at
    the intercept-only model, the smallest penalty whose solution is exactly
    beta = 0. tau defaults to the adaptive knee computed from the
    intercept-only residual scale.
    """
    if k_path < 1:
        raise ContractError("k_path must be >= 1")
    if tau is None:
        tau = adaptive_tau(data.n, data.d, robust_scale(data.y))
    b0 = huber_location(data.y, tau)
    score = huber_score(data.y - b0, tau)
    lam_max = float(np.max(np.abs(data.x.T @ score)) / data.n)
    if lam_max <= 0:
        raise DataError("design carries no signal at the null model")
    if k_path == 1:
        return np.array([lam_max])
    return np.exp(np.linspace(math.log(lam_max), math.log(LAMBDA_MIN_RATIO * lam_max),
                              k_path))


def lambda_fold_correction(lam: float, k_folds: int) -> float:
    """Rescale a K-fold-tuned penalty to the full sample: lam * sqrt(1 - 1/K)."""
    if k_folds < 2:
        raise ContractError("fold count must be >= 2")
    if lam <= 0:
        raise ContractError("lambda must be positive")
    return lam * math.sqrt(1.0 - 1.0 / k_folds)


def enumerate_subsets(d: int) -> list[tuple[int, ...]]:
    """All covariate subsets (intercept always implied), in mask order."""
    if not 1 <= d <= MAX_SUBSET_DIM:
        raise ContractError(f"subset enumeration supports 1 <= d <= {MAX_SUBSET_DIM}")
    subsets = []
    for mask in range(1 << d):
        subsets.append(tuple(i for i in range(d) if mask >> i & 1))
    return subsets


def subset_mask_id(subset: tuple[int, ...], d: int) -> str:
    bits = "".join("1" if i in subset else "0" for i in range(d))
    return f"m_{bits}"
