"""Confidence-set model selection from loss panels.

The three confidence-set methods differ only in their evidence. For each
reference model m, an evidence function returns centered contrasts ``mu``
against the competitors (positive favors m) with their per-observation
scores ``psi``, or decides m's p-value outright. One loop,
``_select_loop``, bootstraps the minimum of ``mu`` with shared Gaussian
multipliers and keeps m when its p-value reaches alpha. The multipliers
are one block per ``SelectionConfig``, keyed by (seed, TAG_BOOT) and drawn
on first use, so every method and every call run with that config sees
the same block. The loop writes the undecided references' columns side by
side and bootstraps them in one product per block of at most 2 MiB (262
columns at n = 1000, where the gemm runs near its peak rate; at half that
width it does not).
RSR's tie coins are keyed by model ids. Reordering a panel's columns
therefore reorders the results and changes nothing else:

* ``rsr_from_panel``: generalized rank-sum pairs; optional screening drops
  competitors that m already beats overwhelmingly (all dropped: p = 1).
* ``pcv_select``: paired per-observation win indicators; a tie counts as
  half a win, and a competitor tied with m everywhere is ignored.
* ``cvc_style_select``: studentized mean loss differences (intentionally
  non-robust); a competitor's constant win rejects m outright.

``cv_select`` is plain argmin of the panel's mean loss (singleton set).
All four take ``(panel, config)``; every set keeps {m : p_m >= alpha}.
``rsr_from_candidates`` wraps training: it splits the data (V = 0: one
sample split, evaluated on the second fold of a 2-fold plan; V >= 2: V
folds), ``panel_from_folds`` fits and scores each candidate fold by fold
into the out-of-sample |residual| panel, and ``rsr_from_panel`` reads it.
A candidate whose learner fails is flagged and assigned p-value 0;
candidate ids must be distinct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .bootstrap import BootstrapConfig, integral, run_min_bootstrap
from .errors import ContractError, LearnerError
from .models import Dataset, LossFn, loss_eval
from .ranksum import LossPanel, pair_stats
from .rng import TieStreams, keyed_stream, subseed

# Key-path tags; every random stream hangs off (seed, tag, ...).
TAG_SPLIT = 101
TAG_RSR_TIES = 102
TAG_BOOT = 103

# Columns whose loss differences have essentially zero spread carry no
# evidence; below this relative scale they are handled by sign instead.
_DEGENERATE_SD = 1e-12

# Byte cap on one bootstrap call's psi block and on its product with the
# multipliers; a block still holds at least one reference's columns. It is
# column-major, so a reference's columns go in as one contiguous copy (the
# gemm gives the same bytes for either layout; tests/test_bootstrap.py). At
# n = 1000 and B = 500, one OpenBLAS thread on a Xeon VM ran the gemm at
# about 50 GFLOP/s on 131-column (1 MiB) blocks and 63 on 262 columns;
# 4 MiB was faster again but raised peak memory by about 12%.
_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class SelectionConfig:
    """Settings shared by the confidence-set selection methods."""

    seed: int
    alpha: float = 0.1
    alpha_screen: float = 0.1
    s: float = 0.01
    B: int = 500
    V: int = 5
    screening_enabled: bool = True
    # Every method's multipliers: one (B, n) block per n, drawn on first use.
    bootstrap: BootstrapConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("seed", "V"):
            object.__setattr__(self, name, integral(name, getattr(self, name)))
        # Seeds enter every key path modulo 2**64, so a wider range would alias.
        if not 0 <= self.seed < 2**64:
            raise ContractError(f"seed must be in [0, 2**64), got {self.seed}")
        if not 0.0 < self.alpha < 1.0:
            raise ContractError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.alpha_screen < 1.0:
            raise ContractError(f"alpha_screen must be in (0, 1), got {self.alpha_screen}")
        if not (math.isfinite(self.s) and self.s > 0):
            raise ContractError(f"screening exponent s must be finite and > 0, got {self.s}")
        if self.V != 0 and self.V < 2:
            raise ContractError("V must be 0 (sample splitting) or >= 2")
        boot = BootstrapConfig(B=self.B, seed=subseed(self.seed, TAG_BOOT))
        object.__setattr__(self, "bootstrap", boot)
        object.__setattr__(self, "B", boot.B)


@dataclass(frozen=True)
class ConfidenceSet:
    """Selected near-optimal models with per-model p-values."""

    method: str
    alpha: float
    model_ids: tuple[str, ...]
    p_values: np.ndarray
    screened_out: dict[int, tuple[int, ...]] = field(default_factory=dict)
    failed: tuple[int, ...] = ()
    diagnostics: dict[int, dict] = field(default_factory=dict)

    @property
    def selected(self) -> tuple[int, ...]:
        """The kept models: every index whose p-value reaches alpha."""
        return tuple(int(i) for i in np.nonzero(self.p_values >= self.alpha)[0])

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
    level = 1.0 - alpha_screen / (n_models - 1) ** (1.0 + s)
    if not 0.0 < level < 1.0:
        raise ContractError(f"quantile level must be in (0, 1), got {level}")
    c = NormalDist().inv_cdf(level)
    return np.nonzero(mu / se <= 2.0 * c)[0]


class _Evidence(NamedTuple):
    """Reference m's centered bootstrap columns (mu, psi), or its p-value
    ``decided`` as (p, t_obs); ``dropped`` lists the competitors screening
    removed (None for methods that do not screen)."""

    mu: np.ndarray | None = None
    psi: np.ndarray | None = None
    decided: tuple[float, float] | None = None
    dropped: tuple[int, ...] | None = None


def _select_loop(panel: LossPanel, config: SelectionConfig, method: str,
                 evidence) -> ConfidenceSet:
    """Bootstrap each reference model's evidence; keep m when p >= alpha.

    Undecided references' columns go side by side into one block, and each
    full block (and the last) is bootstrapped in one call.
    """
    n_models = panel.n_models
    p_vals = np.zeros(n_models)
    screened_out: dict[int, tuple[int, ...]] = {}
    diagnostics: list[dict | None] = [None] * n_models
    width = max(_BLOCK_BYTES // (8 * max(panel.n, config.B)), n_models - 1)
    width = min(width, n_models * (n_models - 1))
    mu_block = np.empty(width)
    psi_block = np.empty((panel.n, width), order="F")
    refs: list[int] = []
    sizes: list[int] = []

    def bootstrap_block():
        used = sum(sizes)
        t_obs, _, p = run_min_bootstrap(mu_block[:used], psi_block[:, :used],
                                        config.bootstrap, sizes)
        p_vals[refs] = p
        for m, size, t in zip(refs, sizes, t_obs):
            diagnostics[m] = {"t_obs": float(t), "n_cols": size}
        refs.clear()
        sizes.clear()

    for m in range(n_models):
        ev = evidence(m)
        if ev.dropped is not None:
            screened_out[m] = ev.dropped
        if ev.decided is not None:
            p_vals[m], t_obs = ev.decided
            diagnostics[m] = {"t_obs": t_obs, "n_cols": 0}
            continue
        start = sum(sizes)
        if start + ev.mu.size > width:
            bootstrap_block()
            start = 0
        stop = start + ev.mu.size
        mu_block[start:stop] = ev.mu
        psi_block[:, start:stop] = ev.psi
        refs.append(m)
        sizes.append(ev.mu.size)
    if refs:
        bootstrap_block()
    return ConfidenceSet(method=method, alpha=config.alpha, model_ids=panel.model_ids,
                         p_values=p_vals, screened_out=screened_out,
                         diagnostics=dict(enumerate(diagnostics)))


def _rsr_evidence(panel: LossPanel, config: SelectionConfig, ties: TieStreams,
                  m: int) -> _Evidence:
    stats = pair_stats(panel, m, ties=ties)
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


def _pcv_evidence(panel: LossPanel, m: int) -> _Evidence:
    a = panel.column(m)[:, None]
    others = np.delete(panel.losses, m, axis=1)
    tied = a == others
    ind = ((a < others) + 0.5 * tied)[:, ~tied.all(axis=0)]
    if ind.shape[1] == 0:
        return _Evidence(decided=(1.0, math.inf))
    means = ind.mean(axis=0)
    return _Evidence(means - 0.5, ind - means)


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
    return _select_loop(panel, config, method,
                        partial(_rsr_evidence, panel, config, ties))


def pcv_select(panel: LossPanel, config: SelectionConfig) -> ConfidenceSet:
    """Paired-comparison confidence set: per-observation win indicators.

    A tie scores 1/2, a fair coin's mean, so no coin is drawn. A copy of m
    (mu = 0, psi = 0) carries no evidence and is dropped; none left: p = 1.
    """
    return _select_loop(panel, config, "pcv", partial(_pcv_evidence, panel))


def cvc_style_select(panel: LossPanel, config: SelectionConfig) -> ConfidenceSet:
    """Mean-difference confidence set (studentized, multiplier bootstrap).

    For reference m and competitor j the evidence is the studentized mean
    of loss differences, oriented so positive values favor m (as in the
    rank-sum route). Columns with (numerically) constant differences are
    decided by sign: a constant win for the competitor rejects m outright,
    a constant win or exact tie for m carries no evidence against it.
    """
    return _select_loop(panel, config, "cvc_style", partial(_cvc_evidence, panel))


def cv_select(panel: LossPanel, config: SelectionConfig) -> ConfidenceSet:
    """Classical cross-validation: the single model with the smallest mean loss."""
    risks = panel.losses.mean(axis=0)
    best = int(np.argmin(risks))   # argmin takes the first index on ties
    p_vals = np.zeros(risks.size)
    p_vals[best] = 1.0
    return ConfidenceSet(method="cv", alpha=config.alpha, model_ids=panel.model_ids,
                         p_values=p_vals,
                         diagnostics={best: {"risk": float(risks[best])}})


@dataclass(frozen=True)
class Candidate:
    """A named training procedure, fit(Dataset) -> fitted predictor."""

    model_id: str
    fit: callable


def make_folds(n_total: int, v_folds: int, seed: int) -> list[np.ndarray]:
    """Seeded partition into V near-equal folds; extras go to earlier folds.

    A sample split is the V = 2 case: train on the first fold, evaluate on
    the second, so an odd leftover point joins the training half.
    """
    if v_folds < 2:
        raise ContractError("need at least two folds")
    if n_total < 2 * v_folds:
        raise ContractError(f"need n >= 2V, got n={n_total}, V={v_folds}")
    perm = keyed_stream(seed, TAG_SPLIT).permutation(n_total)
    return [np.sort(f) for f in np.array_split(perm, v_folds)]


def panel_from_folds(candidates, data: Dataset, folds, loss: LossFn):
    """Out-of-fold loss panel over the observations the folds cover.

    Each candidate is trained once per fold on the fold's complement;
    observation k is scored by the model that never saw it. The panel's
    rows are the folds' indices in ascending order: all n for a V-fold
    partition, the evaluation half for a single sample-split fold. A
    candidate whose learner fails on a fold, or whose residuals there are
    not finite, is dropped and not trained again. Returns (panel over the
    survivors or None if fewer than two, sorted failed ids).
    """
    ids = [c.model_id for c in candidates]
    for k, model_id in enumerate(ids):
        if model_id in ids[:k]:
            raise ContractError(f"candidate id {model_id!r} is repeated")
    losses = np.empty((data.n, len(ids)))
    failed = set()
    for fold in folds:
        train_idx = np.setdiff1d(np.arange(data.n), fold)
        train = Dataset(x=data.x[train_idx], y=data.y[train_idx])
        for j, c in enumerate(candidates):
            if c.model_id in failed:
                continue
            try:
                resid = data.y[fold] - c.fit(train).predict(data.x[fold])
            except (LearnerError, np.linalg.LinAlgError, FloatingPointError):
                resid = None
            if resid is None or not np.all(np.isfinite(resid)):
                failed.add(c.model_id)
            else:
                losses[fold, j] = loss_eval(loss, resid)
    return survivor_panel(losses, folds, ids, failed)


def survivor_panel(losses: np.ndarray, folds, ids, failed):
    """The (panel, sorted failed ids) that panel_from_folds returns, from its
    (n, len(ids)) out-of-fold losses: the rows the folds cover, in ascending
    order, and the columns whose id is not in ``failed`` (None if fewer than
    two)."""
    keep = [j for j, model_id in enumerate(ids) if model_id not in failed]
    if len(keep) < 2:
        return None, sorted(failed)
    rows = np.sort(np.concatenate(folds))
    panel = LossPanel(losses=losses[np.ix_(rows, keep)],
                      model_ids=tuple(ids[j] for j in keep))
    return panel, sorted(failed)


def rsr_from_candidates(candidates, data: Dataset,
                        config: SelectionConfig) -> ConfidenceSet:
    """RSR on the candidates' out-of-sample |residual| panel, mapped back
    onto every candidate. ``config.V == 0`` trains on half and scores the
    other half (method "rsr_split"); otherwise each point is scored by the
    model trained without its fold (method "rsr_vfold")."""
    if len(candidates) < 2:
        raise ContractError("need at least two candidates")
    if config.V == 0:
        if data.n < 8:
            raise ContractError("sample splitting needs at least 8 observations")
        folds, method = make_folds(data.n, 2, config.seed)[1:], "rsr_split"
    else:
        folds, method = make_folds(data.n, config.V, config.seed), "rsr_vfold"
    # RSR reads only ranks, so every loss increasing in |residual| gives this
    # set. abs is exact: a cell ties only where two |residual| are equal,
    # while a squared or Huber loss can round distinct ones into extra ties.
    panel, failed = panel_from_folds(candidates, data, folds, LossFn("absolute"))
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
    return ConfidenceSet(method=method, alpha=config.alpha, model_ids=all_ids,
                         p_values=p_vals, screened_out=screened_out,
                         failed=tuple(i for i, mid in enumerate(all_ids) if mid in failed),
                         diagnostics=diagnostics)
