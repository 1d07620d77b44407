"""Losses and linear learners used to build loss panels.

Provides absolute/Huber losses, ordinary least squares, adaptive
Huber regression (IRLS with a data-driven robustification parameter), and
l1-penalized Huber regression solved by proximal gradient with fixed step
1/L, L = sigma_max([1 X])^2 / n, plus the lambda-path and subset-enumeration
helpers the simulation studies need. Learners raise :class:`LearnerError` on
unusable data; selection code treats that as a failed candidate rather than
aborting.

Huber regression has one IRLS core, ``fit_huber_stack``: it fits a stack of
same-shaped designs together, each model exactly as it would be fit alone,
and reports a failure per model. ``fit_huber_adaptive`` is its one-model
call; Case 1 fits its subset models in a few large stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

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
        # One memory layout for every learner: BLAS products round
        # differently on row-major and column-major copies of one matrix.
        x = np.ascontiguousarray(self.x, dtype=float)
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


@dataclass(frozen=True)
class LossFn:
    """Pointwise loss on residuals: absolute, or Huber (knee tau)."""

    kind: str
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ("absolute", "huber"):
            raise ContractError(f"unknown loss kind: {self.kind!r}")
        if self.kind == "huber":
            if self.tau is None or not np.isfinite(self.tau) or self.tau <= 0:
                raise ContractError("huber loss needs a finite tau > 0")
        elif self.tau is not None:
            raise ContractError(f"{self.kind} loss takes no tau, got {self.tau}")


def loss_eval(fn: LossFn, residual):
    """Evaluate the loss elementwise on residuals (scalar or array)."""
    r = np.asarray(residual, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DataError("residuals must be finite")
    if fn.kind == "absolute":
        out = np.abs(r)
    else:
        tau = float(fn.tau)
        a = np.abs(r)
        out = np.where(a <= tau, 0.5 * r * r, tau * a - 0.5 * tau * tau)
    return out if out.ndim else float(out)


def huber_score(r, tau: float):
    """Huber influence psi(r): r clipped to [-tau, tau]."""
    return np.clip(r, -tau, tau)


def _median(v: np.ndarray):
    """np.median along the last axis, without its per-call overhead: NaN
    where a row is empty or holds a NaN (sorting puts NaN last), else the
    same order statistics and the same mean of the middle pair, whose sum
    starts from +0.0 (so a zero median is +0.0). A vector gives a float;
    a (k, n) stack gives its k row medians, each as that row alone would.

    The order statistics come from one full sort rather than np.partition
    with the two middle pivots and the last one: on a (30, 256) stack, the
    shape of Case 1's IRLS residuals, the three-pivot partition took 91 us
    and the sort 17 us (NumPy 2.4.6). Both give the same numbers, and equal
    values differ at most in the sign of a zero, which the +0.0 removes."""
    size = v.shape[-1]
    if not size:
        med = np.full(v.shape[:-1], math.nan)
    else:
        half = size // 2
        ordered = np.sort(v, axis=-1)
        if size % 2:
            med = ordered[..., half] + 0.0
        else:
            med = (ordered[..., half - 1] + ordered[..., half] + 0.0) / 2
        med = np.where(ordered[..., -1] == ordered[..., -1], med, math.nan)
    return float(med) if v.ndim == 1 else med


def mad_scale(values):
    """Robust scale: median absolute deviation times 1.4826, along the last
    axis (a float for a vector, one value per row for a (k, n) stack)."""
    v = np.asarray(values, dtype=float)
    centre = np.asarray(_median(v))[..., None]
    return _median(np.abs(v - centre)) * MAD_SCALE


def robust_scale(values):
    """mad_scale, or the standard deviation (at least 1e-12) where the MAD
    is 0; a (k, n) stack falls back row by row."""
    v = np.asarray(values, dtype=float)
    scale = mad_scale(v)
    if v.ndim == 1:
        return max(float(np.std(v)), 1e-12) if scale <= 0 else scale
    for i in np.flatnonzero(scale <= 0):
        scale[i] = robust_scale(v[i])
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


def huber_location(y, tau: float) -> float:
    """Huber M-estimate of location by IRLS: at most 100 passes, stopping
    once a pass moves it by at most 1e-10 relative."""
    if not tau > 0:
        raise ContractError("tau must be positive")
    y = np.asarray(y, dtype=float)
    loc = _median(y)
    for _ in range(100):
        w = _huber_weights(y - loc, tau)
        new = float(np.sum(w * y) / np.sum(w))
        if abs(new - loc) <= 1e-10 * max(1.0, abs(loc)):
            return new
        loc = new
    return loc


def _huber_weights(r, tau: float) -> np.ndarray:
    """IRLS weights psi(r) / r = min(1, tau / |r|) for tau > 0; exactly 1.0
    where |r| <= tau, since tau / tau is."""
    return tau / np.maximum(np.abs(r), tau)


class HuberStack(NamedTuple):
    """fit_huber_stack's results, one row or entry per model: ``theta`` is
    [intercept, coef...], ``tau`` the knee of the last pass, and ``error``
    None, or why the model failed (its other entries are then meaningless)."""

    theta: np.ndarray
    tau: np.ndarray
    converged: np.ndarray
    error: list


def _each_alone(fn, *stacks):
    """``fn`` over stacked problems. If it raises LinAlgError, each problem
    is retried alone to find the ones that raise, and ``fn`` runs again over
    the rest. Returns (mask of the problems kept, fn's result on them, or
    None if none is kept)."""
    keep = np.ones(len(stacks[0]), dtype=bool)
    try:
        return keep, fn(*stacks)
    except np.linalg.LinAlgError:
        pass
    for i in range(keep.size):
        try:
            fn(*(a[i:i + 1] for a in stacks))
        except np.linalg.LinAlgError:
            keep[i] = False
    return keep, fn(*(a[keep] for a in stacks)) if keep.any() else None


def fit_huber_stack(designs, y, max_iter: int = 200) -> HuberStack:
    """Adaptive Huber regressions by IRLS on k designs of one shape, together.

    ``designs`` is (k, n, d + 1) with the intercept column first and ``y`` is
    (k, n). Each pass sets the knee to adaptive_tau(n, d, robust_scale(r)) of
    the residuals r, so it tracks the noise scale and the effective sample
    size; a model stops on a relative parameter change <= 1e-8, or is left
    not converged after ``max_iter`` passes. Every step runs slice by slice
    (a stacked SVD, row medians, batched products and solves), so each
    model's result is the one it gets alone, bit for bit, and a model that
    converges leaves the stack. A rank-deficient design, a singular weighted
    Gram matrix or a non-finite fit fails its own model only: a stacked SVD
    or solve that raises is retried model by model to find the culprit.
    """
    designs = np.asarray(designs, dtype=float)
    y = np.asarray(y, dtype=float)
    k, n, p = designs.shape
    d = p - 1
    theta = np.zeros((k, p))
    taus = np.ones(k)
    converged = np.zeros(k, dtype=bool)
    if n <= p:
        return HuberStack(theta, taus, converged, [f"need n > d + 1, got n={n}, d={d}"] * k)
    error: list[str | None] = [None] * k
    # One SVD per design, design = U diag(s) Vt. Its rank, by matrix_rank's
    # and lstsq(rcond=None)'s rule, is every weighted design's rank, since the
    # weights are strictly positive. Each pass solves the weighted normal
    # equations in the orthonormal basis U: U^T W U is as well conditioned as
    # the weights, however collinear the design, and theta = Vt^T s^-1 phi.
    ok, usv = _each_alone(partial(np.linalg.svd, full_matrices=False), designs)
    for i in np.flatnonzero(~ok):
        error[i] = "SVD did not converge"
    if usv is None:
        return HuberStack(theta, taus, converged, error)
    u, s, vt = usv
    act = np.flatnonzero(ok)
    rank = np.count_nonzero(s > s[:, :1] * max(n, p) * np.finfo(float).eps, axis=1)
    for i, r in zip(act, rank):
        if r < p:
            error[i] = f"design is rank deficient (rank {r} < {p})"
    full = rank == p
    act = act[full]
    # Per live model: design^T, response, U^T, U and Vt / s, each stored
    # C-ordered, so that the transposed views below (theta = (Vt / s)^T phi)
    # give every product the same memory layout, and so the same rounding,
    # however the stack was built or compacted.
    stack = [np.swapaxes(designs[act], 1, 2).copy(), y[act],
             np.swapaxes(u[full], 1, 2).copy(), u[full], vt[full] / s[full][:, :, None]]
    theta[act, 0] = _median(stack[1])
    for _ in range(max_iter):
        if not act.size:
            break
        design_t, resp, basis_t, basis, _ = stack
        fitted = np.matmul(np.swapaxes(design_t, 1, 2), theta[act][:, :, None])
        r = resp - fitted[:, :, 0]
        knee = adaptive_tau(n, d, robust_scale(r))
        weighted_t = basis_t * _huber_weights(r, knee[:, None])[:, None, :]
        ok, phi = _each_alone(np.linalg.solve, np.matmul(weighted_t, basis),
                              np.matmul(weighted_t, resp[:, :, None]))
        if not ok.all():
            for i in act[~ok]:
                error[i] = "weighted Gram matrix is singular"
            act, knee, stack = act[ok], knee[ok], [a[ok] for a in stack]
            if not act.size:
                break
        prev = theta[act]
        new = np.matmul(np.swapaxes(stack[4], 1, 2), phi)[:, :, 0]   # (Vt / s)^T phi
        done = (np.linalg.norm(new - prev, axis=1)
                <= 1e-8 * np.maximum(1.0, np.linalg.norm(prev, axis=1)))
        theta[act] = new
        taus[act] = knee
        converged[act[done]] = True
        if done.any():
            act, stack = act[~done], [a[~done] for a in stack]
    for i in np.flatnonzero(~np.all(np.isfinite(theta), axis=1)):
        error[i] = error[i] or "fitted parameters are not finite"
    return HuberStack(theta, taus, converged, error)


def fit_huber_adaptive(data: Dataset, max_iter: int = 200) -> FittedLinear:
    """Huber regression with the knee recalibrated from the residual scale:
    fit_huber_stack on a stack of one design. A run that exhausts max_iter
    is returned with a ``not_converged`` flag rather than discarded."""
    design = np.column_stack([np.ones(data.n), data.x])
    fit = fit_huber_stack(design[None], data.y[None], max_iter=max_iter)
    if fit.error[0] is not None:
        raise LearnerError(fit.error[0])
    theta = fit.theta[0]
    converged = bool(fit.converged[0])
    meta = {"learner": "huber", "tau": float(fit.tau[0]), "converged": converged}
    if not converged:
        meta["not_converged"] = True
    return FittedLinear(intercept=float(theta[0]), coef=theta[1:], meta=meta)


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
    with an unpenalized intercept. Each iteration takes one proximal step of
    fixed length 1/L, L = sigma_max([1 X])^2 / n, which never increases the
    objective (Beck & Teboulle 2009); iterations stop once the relative
    objective change drops to ``tol``. The objective is still checked to be
    non-increasing every iteration. ``lip`` must be an upper bound on the
    smooth part's Lipschitz constant, such as huber_lasso_lipschitz(data);
    path runners pass it in to avoid recomputing it per fit.
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

    if lip is None:
        lip = huber_lasso_lipschitz(data)
    step = 1.0 / max(lip, 1e-12)

    r = y - b0 - x @ beta
    obj = _huber_objective(r, tau) + lam * np.abs(beta).sum()
    history = [obj] if keep_history else None
    converged = False

    for _ in range(max_iter):
        psi = huber_score(r, tau)
        g0 = -psi.mean()
        g = -(x.T @ psi) / n
        b0_new = b0 - step * g0
        beta_new = soft_threshold(beta - step * g, step * lam)
        r_new = y - b0_new - x @ beta_new
        obj_new = _huber_objective(r_new, tau) + lam * np.abs(beta_new).sum()
        if obj_new > obj + 1e-8 * max(1.0, abs(obj)):
            raise LearnerError("proximal gradient objective increased")
        if keep_history:
            history.append(obj_new)
        rel_change = abs(obj - obj_new) / max(1.0, abs(obj))
        b0, beta, r, obj = b0_new, beta_new, r_new, obj_new
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


def huber_lasso_lipschitz(data: Dataset) -> float:
    """Step-size constant for fit_huber_lasso, reusable across a lambda path.

    Huber curvature is at most 1, so sigma_max([1 X])^2 / n, the largest
    eigenvalue of [1 X]^T [1 X] / n, is a Lipschitz constant of the smooth
    part's gradient. It is computed exactly (an SVD), so 1/L is a safe step.
    """
    design = np.column_stack([np.ones(data.n), data.x])
    return float(np.linalg.norm(design, 2) ** 2 / data.n)


def lambda_path(data: Dataset, k_path: int, tau: float) -> np.ndarray:
    """Strictly decreasing log-spaced penalty grid of k_path values from
    lambda_max down to LAMBDA_MIN_RATIO * lambda_max.

    lambda_max is the largest coordinate of |(1/n) X^T psi_tau(y - b0)| at
    the intercept-only model, the smallest penalty whose solution is exactly
    beta = 0 under the Huber knee tau.
    """
    if k_path < 1:
        raise ContractError("k_path must be >= 1")
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
