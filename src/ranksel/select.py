"""Confidence-set model selection from loss panels.

The three confidence-set methods differ only in their evidence. For each
reference model m, an evidence function returns centered contrasts ``mu``
against the competitors (positive favors m) with their per-observation
scores ``psi``, or decides m's p-value outright. One loop,
``_select_loop``, bootstraps the minimum of ``mu`` with shared Gaussian
multipliers and keeps m when its p-value reaches alpha:

* ``rsr_from_panel``: generalized rank-sum pairs; optional screening drops
  competitors that m already beats overwhelmingly (all dropped: p = 1).
* ``pcv_select``: paired per-observation win indicators.
* ``cvc_style_select``: studentized mean loss differences (intentionally
  non-robust); a competitor's constant win rejects m outright.

``cv_select`` is plain argmin of average loss (singleton set).
``rsr_split`` / ``rsr_vfold`` wrap training: they split the data (a sample
split is one evaluation fold), fit every candidate, assemble the
out-of-sample loss panel, and defer to ``rsr_from_panel``. A candidate
whose learner fails is flagged and assigned p-value 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .bootstrap import BootstrapConfig, normal_quantile, run_min_bootstrap
from .errors import ContractError, LearnerError
from .models import Dataset, LossFn, loss_eval
from .ranksum import LossPanel, pair_stats
from .rng import TieStreams, keyed_stream, subseed

# Key-path tags; every random stream hangs off (seed, tag, ...).
TAG_SPLIT = 101
TAG_RSR_TIES = 102
TAG_RSR_BOOT = 103
TAG_PCV_TIES = 104
TAG_PCV_BOOT = 105
TAG_CVC_BOOT = 106

# Columns whose loss differences have essentially zero spread carry no
# evidence; below this relative scale they are handled by sign instead.
_DEGENERATE_SD = 1e-12


@dataclass(frozen=True)
class SelectionConfig:
    """Settings shared by the confidence-set selection methods."""

    seed: int
    alpha: float = 0.1
    alpha_screen: float = 0.1
    s: float = 0.01
    B: int = 500
    V: int = 5
    projection: str = "symmetrized"
    screening_enabled: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ContractError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.alpha_screen < 1.0:
            raise ContractError(f"alpha_screen must be in (0, 1), got {self.alpha_screen}")
        if self.s <= 0:
            raise ContractError("screening exponent s must be positive")
        if int(self.B) < 100:
            raise ContractError(f"B must be >= 100, got {self.B}")
        if self.V != 0 and self.V < 2:
            raise ContractError("V must be 0 (sample splitting) or >= 2")
        if self.projection not in ("row_only", "symmetrized"):
            raise ContractError(f"unknown projection mode: {self.projection!r}")


@dataclass(frozen=True)
class ConfidenceSet:
    """Selected near-optimal models with per-model p-values."""

    method: str
    alpha: float
    model_ids: tuple[str, ...]
    p_values: np.ndarray
    selected: tuple[int, ...]
    screened_out: dict[int, tuple[int, ...]] = field(default_factory=dict)
    failed: tuple[int, ...] = ()
    diagnostics: dict[int, dict] = field(default_factory=dict)

    @property
    def selected_ids(self) -> tuple[str, ...]:
        return tuple(self.model_ids[i] for i in self.selected)

    @property
    def set_size(self) -> int:
        return len(self.selected)

    @property
    def bootstrap_columns(self) -> int:
        """Total competitor columns that reached the bootstrap stage."""
        return int(sum(d.get("n_cols", 0) for d in self.diagnostics.values()))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "alpha": self.alpha,
            "model_ids": list(self.model_ids),
            "p_values": [float(p) for p in self.p_values],
            "selected": list(self.selected),
            "selected_ids": list(self.selected_ids),
            "screened_out": {str(m): list(js) for m, js in self.screened_out.items()},
            "failed": list(self.failed),
            "diagnostics": {str(m): d for m, d in self.diagnostics.items()},
        }


def screen(mu, se, n_models: int, alpha_screen: float, s: float) -> np.ndarray:
    """Indices of competitors kept for the bootstrap comparison.

    A competitor j is dropped when the reference already beats it beyond
    the Bonferroni-style threshold: mu[j]/se[j] > 2 * Phi^{-1}(1 -
    alpha_screen / (M-1)^{1+s}). Removing them shrinks the bootstrap
    dimension, and the observed statistic t_obs becomes the minimum over
    the kept competitors only. That can raise it: a large z-score may come
    from a tiny standard error rather than a large mu, so a dropped
    competitor can hold the smallest mu of all.
    """
    mu = np.asarray(mu, dtype=float)
    se = np.asarray(se, dtype=float)
    if mu.shape != se.shape or mu.ndim != 1:
        raise ContractError("mu and se must be equal-length vectors")
    if np.any(se <= 0):
        raise ContractError("se entries must be positive")
    if n_models < 2:
        raise ContractError("need at least two models")
    c = normal_quantile(1.0 - alpha_screen / (n_models - 1) ** (1.0 + s))
    return np.nonzero(mu / se <= 2.0 * c)[0]


def _assemble(method, panel_ids, alpha, p_vals, screened_out, failed, diagnostics):
    selected = tuple(int(i) for i in np.nonzero(p_vals >= alpha)[0])
    return ConfidenceSet(method=method, alpha=alpha, model_ids=tuple(panel_ids),
                         p_values=p_vals, selected=selected,
                         screened_out=screened_out, failed=tuple(failed),
                         diagnostics=diagnostics)


class _Evidence(NamedTuple):
    """Reference m's centered bootstrap columns (mu, psi), or its p-value
    ``decided`` as (p, t_obs); ``dropped`` lists the competitors screening
    removed (None for methods that do not screen)."""

    mu: np.ndarray | None = None
    psi: np.ndarray | None = None
    decided: tuple[float, float] | None = None
    dropped: tuple[int, ...] | None = None


def _select_loop(panel: LossPanel, config: SelectionConfig, method: str,
                 boot_tag: int, evidence) -> ConfidenceSet:
    """Bootstrap each reference model's evidence; keep m when p >= alpha."""
    p_vals = np.zeros(panel.n_models)
    screened_out: dict[int, tuple[int, ...]] = {}
    diagnostics: dict[int, dict] = {}
    for m in range(panel.n_models):
        ev = evidence(m)
        if ev.dropped is not None:
            screened_out[m] = ev.dropped
        if ev.decided is not None:
            p_vals[m], t_obs = ev.decided
            diagnostics[m] = {"t_obs": t_obs, "n_cols": 0}
            continue
        boot = BootstrapConfig(B=config.B, seed=subseed(config.seed, boot_tag, m))
        result = run_min_bootstrap(ev.mu, ev.psi, boot)
        p_vals[m] = result.p_value
        diagnostics[m] = {"t_obs": result.t_obs, "n_cols": ev.mu.size}
    return _assemble(method, panel.model_ids, config.alpha, p_vals,
                     screened_out, [], diagnostics)


def _rsr_evidence(panel: LossPanel, config: SelectionConfig, ties: TieStreams,
                  m: int) -> _Evidence:
    stats = pair_stats(panel, m, projection=config.projection, ties=ties)
    if config.screening_enabled:
        keep = screen(stats.mu, stats.se, panel.n_models, config.alpha_screen, config.s)
    else:
        keep = np.arange(stats.mu.size)
    dropped = tuple(int(j) for j in np.delete(stats.competitors, keep))
    if keep.size == 0:
        # Reference beats every competitor beyond the screening bar;
        # nothing contradicts its optimality.
        return _Evidence(decided=(1.0, math.inf), dropped=dropped)
    return _Evidence(stats.mu[keep], stats.psi[:, keep], dropped=dropped)


def _pcv_evidence(panel: LossPanel, ties: TieStreams, m: int) -> _Evidence:
    competitors = [j for j in range(panel.n_models) if j != m]
    ind = np.empty((panel.n, len(competitors)))
    a = panel.column(m)
    for idx, j in enumerate(competitors):
        b = panel.column(j)
        wins = (a < b).astype(float)
        tied = np.nonzero(a == b)[0]
        if tied.size:
            wins[tied] = ties.pair(m, j).random(tied.size) < 0.5
        ind[:, idx] = wins
    return _Evidence(ind.mean(axis=0) - 0.5, ind - ind.mean(axis=0))


def _cvc_evidence(panel: LossPanel, m: int) -> _Evidence:
    competitors = [j for j in range(panel.n_models) if j != m]
    diff = panel.losses[:, competitors] - panel.column(m)[:, None]  # >0 favors m
    means = diff.mean(axis=0)
    sds = diff.std(axis=0)
    scale = max(1.0, float(np.abs(panel.losses).max()))
    live = sds > _DEGENERATE_SD * scale
    if np.any(~live & (means < 0)):
        return _Evidence(decided=(0.0, -math.inf))
    if not live.any():
        return _Evidence(decided=(1.0, math.inf))
    psi = (diff[:, live] - means[live]) / sds[live]
    psi -= psi.mean(axis=0)   # keep centering exact after the 1/sd scaling
    return _Evidence(means[live] / sds[live], psi)


def rsr_from_panel(panel: LossPanel, config: SelectionConfig,
                   method: str = "rsr_vfold") -> ConfidenceSet:
    """Rank-sum confidence set computed directly from a loss panel."""
    ties = TieStreams(config.seed, TAG_RSR_TIES)
    return _select_loop(panel, config, method, TAG_RSR_BOOT,
                        partial(_rsr_evidence, panel, config, ties))


def pcv_select(panel: LossPanel, config: SelectionConfig) -> ConfidenceSet:
    """Paired-comparison confidence set: per-observation win indicators."""
    ties = TieStreams(config.seed, TAG_PCV_TIES)
    return _select_loop(panel, config, "pcv", TAG_PCV_BOOT,
                        partial(_pcv_evidence, panel, ties))


def cvc_style_select(panel: LossPanel, config: SelectionConfig) -> ConfidenceSet:
    """Mean-difference confidence set (studentized, multiplier bootstrap).

    For reference m and competitor j the evidence is the studentized mean
    of loss differences, oriented so positive values favor m (as in the
    rank-sum route). Columns with (numerically) constant differences are
    decided by sign: a constant win for the competitor rejects m outright,
    a constant win or exact tie for m carries no evidence against it.
    """
    return _select_loop(panel, config, "cvc_style", TAG_CVC_BOOT,
                        partial(_cvc_evidence, panel))


def cv_select(panel_risk, model_ids=None, alpha: float = 0.1) -> ConfidenceSet:
    """Classical cross-validation: the single model with the smallest risk."""
    risks = np.asarray(panel_risk, dtype=float)
    if risks.ndim != 1 or risks.size < 1:
        raise ContractError("panel_risk must be a nonempty vector")
    if not np.all(np.isfinite(risks)):
        raise ContractError("risks must be finite")
    best = int(np.argmin(risks))   # argmin takes the first index on ties
    if model_ids is None:
        model_ids = tuple(str(i) for i in range(risks.size))
    p_vals = np.zeros(risks.size)
    p_vals[best] = 1.0
    return ConfidenceSet(method="cv", alpha=alpha, model_ids=tuple(model_ids),
                         p_values=p_vals, selected=(best,),
                         diagnostics={best: {"risk": float(risks[best])}})


@dataclass(frozen=True)
class Candidate:
    """A named training procedure: fit(x, y) -> fitted predictor."""

    model_id: str
    fit: callable


def make_split(n_total: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded half/half split; an odd leftover point joins the training half."""
    if n_total < 2:
        raise ContractError("need at least two observations to split")
    perm = keyed_stream(seed, TAG_SPLIT).permutation(n_total)
    n_eval = n_total // 2
    return np.sort(perm[: n_total - n_eval]), np.sort(perm[n_total - n_eval:])


def make_folds(n_total: int, v_folds: int, seed: int) -> list[np.ndarray]:
    """Seeded partition into V near-equal folds; extras go to earlier folds."""
    if v_folds < 2:
        raise ContractError("need at least two folds")
    if n_total < 2 * v_folds:
        raise ContractError(f"need n >= 2V, got n={n_total}, V={v_folds}")
    perm = keyed_stream(seed, TAG_SPLIT).permutation(n_total)
    return [np.sort(f) for f in np.array_split(perm, v_folds)]


def _fit_all(candidates, x, y):
    fits = {}
    failed = []
    for c in candidates:
        try:
            fits[c.model_id] = c.fit(x, y)
        except (LearnerError, np.linalg.LinAlgError, FloatingPointError):
            failed.append(c.model_id)
    return fits, failed


def panel_from_folds(candidates, data: Dataset, folds, loss: LossFn):
    """Out-of-fold loss panel over the observations the folds cover.

    Each candidate is trained once per fold on the fold's complement;
    observation k is scored by the model that never saw it. The panel's
    rows are the folds' indices in ascending order: all n for a V-fold
    partition, the evaluation half for a single sample-split fold. A
    candidate failing on any fold, or giving non-finite losses, is dropped.
    Returns (panel over the survivors or None if fewer than two, sorted
    failed ids).
    """
    rows = np.sort(np.concatenate(folds))
    all_idx = np.arange(data.n)
    preds = {c.model_id: np.empty(data.n) for c in candidates}
    failed = set()
    for fold in folds:
        train_idx = np.setdiff1d(all_idx, fold)
        fits, bad = _fit_all(candidates, data.x[train_idx], data.y[train_idx])
        failed.update(bad)
        for model_id, fit in fits.items():
            preds[model_id][fold] = fit.predict(data.x[fold])
    cols = {}
    for c in candidates:
        if c.model_id in failed:
            continue
        resid = data.y[rows] - preds[c.model_id][rows]
        if not np.all(np.isfinite(resid)):
            failed.add(c.model_id)
            continue
        cols[c.model_id] = loss_eval(loss, resid)
    if len(cols) < 2:
        return None, sorted(failed)
    panel = LossPanel(losses=np.column_stack(list(cols.values())),
                      model_ids=tuple(cols))
    return panel, sorted(failed)


def _rsr_from_folds(candidates, data: Dataset, folds, config: SelectionConfig,
                    loss: LossFn, method: str) -> ConfidenceSet:
    """RSR on the out-of-fold panel, mapped back onto every candidate."""
    if len(candidates) < 2:
        raise ContractError("need at least two candidates")
    panel, failed = panel_from_folds(candidates, data, folds, loss)
    all_ids = tuple(c.model_id for c in candidates)
    p_vals = np.zeros(len(all_ids))
    screened_out: dict[int, tuple[int, ...]] = {}
    diagnostics: dict[int, dict] = {}
    if panel is None:
        # Fewer than two candidates survived training; the lone survivor
        # (if any) has nothing to be compared against.
        for i, mid in enumerate(all_ids):
            if mid not in failed:
                p_vals[i] = 1.0
                diagnostics[i] = {"t_obs": math.inf, "n_cols": 0}
    else:
        sub = rsr_from_panel(panel, config, method=method)
        pos = {mid: i for i, mid in enumerate(all_ids)}
        remap = [pos[mid] for mid in panel.model_ids]
        p_vals[remap] = sub.p_values
        screened_out = {remap[m]: tuple(remap[j] for j in js)
                        for m, js in sub.screened_out.items()}
        diagnostics = {remap[m]: d for m, d in sub.diagnostics.items()}
    failed_idx = [i for i, mid in enumerate(all_ids) if mid in failed]
    return _assemble(method, all_ids, config.alpha, p_vals, screened_out,
                     failed_idx, diagnostics)


def rsr_split(candidates, data: Dataset, config: SelectionConfig,
              loss: LossFn) -> ConfidenceSet:
    """Sample-splitting rank-sum selection: train on half, test on half."""
    if data.n < 8:
        raise ContractError("sample splitting needs at least 8 observations")
    eval_idx = make_split(data.n, config.seed)[1]
    return _rsr_from_folds(candidates, data, [eval_idx], config, loss, "rsr_split")


def rsr_vfold(candidates, data: Dataset, config: SelectionConfig,
              loss: LossFn) -> ConfidenceSet:
    """V-fold rank-sum selection over out-of-fold losses on all points."""
    if config.V < 2:
        raise ContractError("rsr_vfold needs V >= 2; use rsr_split for V = 0")
    folds = make_folds(data.n, config.V, config.seed)
    return _rsr_from_folds(candidates, data, folds, config, loss, "rsr_vfold")
