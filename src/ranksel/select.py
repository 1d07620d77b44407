"""Confidence-set model selection from loss panels.

The three confidence-set methods differ only in their evidence: for a
reference model m and a competitor j, a centered contrast mu (positive
favors m) with per-observation bootstrap scores psi. Every method's
contrast is antisymmetric in the pair, so one count of (m, j) serves both
directions: j's contrast against m is the mirrored mu (from integer
totals, to the bit) and its scores are -psi. The one exception is an RSR
pair with a tied cell, whose tie coins are drawn per direction, so each
direction is counted on its own. One loop, ``_pair_loop``, visits the
models in model-id order; each model counts every later model, plus the
earlier ones whose pair is tied. Each pair's psi column goes once into a
column-major block of at most 2 MiB (262 columns at n = 1000, where the
gemm runs near its peak rate; at half that width it does not), and each
block's product with the shared Gaussian multipliers updates running
(M, B) minima, +G for the counting model and -G for its competitor. No
whole-panel psi or product is ever held. A model is kept when the share
of its minima below sqrt(n) * min(mu) reaches alpha. The multipliers are
one block per ``SelectionConfig``, keyed by (seed, TAG_BOOT) and drawn on
first use, so every method and every call run with that config sees the
same block. RSR's tie coins are keyed by model ids and pairs are oriented
by id, not by column position. Reordering a panel's columns therefore
reorders the results and changes nothing else:

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

from .bootstrap import BootstrapConfig, integral, p_values, run_min_bootstrap
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


class _Pairs(NamedTuple):
    """One model's counted pairs, in both directions.

    Row 0 of the (2, p) arrays is the model's own direction against each
    of ``competitors``, row 1 each competitor's against it; ``psi`` holds
    row 0's bootstrap scores, and row 1's are its negation. ``mu`` is the
    centered contrast (positive favors the direction's reference),
    ``keep`` marks a direction that is bootstrapped, ``dropped`` one that
    screening removed (None for a method that does not screen) and
    ``lost`` one that rejects its reference outright. Row 1 of the flags
    is all False where ``tied`` (an RSR pair whose tie coins make each
    direction its own count).
    """

    competitors: np.ndarray     # (p,) int
    mu: np.ndarray              # (2, p)
    psi: np.ndarray             # (n, p)
    keep: np.ndarray            # (2, p) bool
    dropped: np.ndarray | None  # (2, p) bool
    lost: np.ndarray            # (2, p) bool
    tied: np.ndarray            # (p,) bool


def _pair_loop(panel: LossPanel, config: SelectionConfig, method: str,
               count) -> ConfidenceSet:
    """Bootstrap every model's directions; keep m when p >= alpha.

    Models are visited in model-id order, and ``count(m, competitors)``
    counts model m against every later model and against the earlier ones
    whose pair is tied. A pair's psi column goes into a column-major block
    once, scoring its two directions with opposite signs, and each full
    block (and the last) is folded into running (M, B) minima in one call.
    A model that loses a direction outright gets p = 0, one with no
    bootstrapped direction p = 1. ``screened_out`` lists each model's
    dropped competitors when the counts carry ``dropped``.
    """
    n_models = panel.n_models
    order = sorted(range(n_models), key=panel.model_ids.__getitem__)
    rank_of = np.argsort(order)
    earlier_tied: list[list[int]] = [[] for _ in range(n_models)]
    counted: list[tuple[int, _Pairs]] = []
    draws = np.full((n_models, config.B), np.inf)
    width = max(_BLOCK_BYTES // (8 * max(panel.n, config.B)), n_models - 1)
    width = min(width, n_models * (n_models - 1))
    psi_block = np.empty((panel.n, width), order="F")
    segments: list[tuple[np.ndarray, np.ndarray]] = []
    used = 0

    for rank, m in enumerate(order):
        later = order[rank + 1:]
        if not earlier_tied[m] and not later:
            continue
        pairs = count(m, np.array(earlier_tied[m] + later))
        # The earlier competitors come first, all tied; the later tied ones
        # count m in their turn.
        for j in pairs.competitors[pairs.tied][len(earlier_tied[m]):]:
            earlier_tied[j].append(m)
        counted.append((m, pairs._replace(psi=None)))
        # A column scores m where row 0 is kept and its competitor, negated,
        # where row 1 is. Tests are numbered by rank, so a run of later
        # competitors names consecutive tests.
        mine, theirs = pairs.keep
        cols = np.flatnonzero(mine | theirs)
        if cols.size == 0:
            continue
        if used + cols.size > width:
            run_min_bootstrap(draws, psi_block[:, :used], config.bootstrap, segments)
            segments.clear()
            used = 0
        psi_block[:, used:used + cols.size] = (
            pairs.psi if cols.size == mine.size else pairs.psi[:, cols])
        segments.append((np.where(mine, rank, -1)[cols],
                         np.where(theirs, rank_of[pairs.competitors], -1)[cols]))
        used += cols.size
    if segments:
        run_min_bootstrap(draws, psi_block[:, :used], config.bootstrap, segments)

    # Every counted direction, laid out as the (2, p) rows of _Pairs:
    # owners[mask] are the directions' references, owners[::-1][mask] their
    # competitors.
    comps = np.concatenate([pairs.competitors for _, pairs in counted])
    refs = np.repeat([m for m, _ in counted], [pairs.mu.shape[1] for _, pairs in counted])
    owners = np.stack([refs, comps])
    mu, keep, lost = (
        np.concatenate([getattr(pairs, name) for _, pairs in counted], axis=1)
        for name in ("mu", "keep", "lost"))
    mu_min = np.full(n_models, np.inf)
    np.minimum.at(mu_min, owners[keep], mu[keep])
    n_cols = np.bincount(owners[keep], minlength=n_models)
    t_obs = math.sqrt(panel.n) * mu_min
    p_vals = np.empty(n_models)
    p_vals[order] = p_values(t_obs[order], draws)
    rejected = np.zeros(n_models, dtype=bool)
    rejected[owners[lost]] = True
    diagnostics = {}
    for m in range(n_models):
        if rejected[m]:
            p_vals[m], t_obs[m], n_cols[m] = 0.0, -math.inf, 0
        elif n_cols[m] == 0:
            p_vals[m], t_obs[m] = 1.0, math.inf
        diagnostics[m] = {"t_obs": float(t_obs[m]), "n_cols": int(n_cols[m])}
    screened_out = {}
    if counted[0][1].dropped is not None:
        dropped = np.concatenate([pairs.dropped for _, pairs in counted], axis=1)
        ref, other = owners[dropped], owners[::-1][dropped]
        by_ref = np.lexsort((other, ref))
        bounds = np.cumsum(np.bincount(ref, minlength=n_models))[:-1]
        screened_out = {m: tuple(js.tolist())
                        for m, js in enumerate(np.split(other[by_ref], bounds))}
    return ConfidenceSet(method=method, alpha=config.alpha, model_ids=panel.model_ids,
                         p_values=p_vals, screened_out=screened_out,
                         diagnostics=diagnostics)


def _rsr_pairs(panel: LossPanel, config: SelectionConfig, ties: TieStreams,
               m: int, competitors: np.ndarray) -> _Pairs:
    stats = pair_stats(panel, m, ties=ties, competitors=competitors)
    mu = np.array([stats.mu, stats.mirror()])
    offered = np.array([np.ones_like(stats.tied), ~stats.tied])
    keep = offered.copy()
    if config.screening_enabled:
        kept = np.zeros(np.count_nonzero(offered), dtype=bool)
        kept[screen(mu[offered], np.array([stats.se, stats.se])[offered],
                    panel.n_models, config.alpha_screen, config.s)] = True
        keep[offered] = kept
    return _Pairs(stats.competitors, mu, stats.psi, keep, offered & ~keep,
                  np.zeros_like(keep), stats.tied)


def _pcv_pairs(panel: LossPanel, m: int, competitors: np.ndarray) -> _Pairs:
    a = panel.column(m)[:, None]
    others = panel.losses[:, competitors]
    tied = a == others
    ind = (a < others) + 0.5 * tied
    # Half wins sum exactly, so the reverse mean is (n - S) / n to the bit.
    wins = ind.sum(axis=0)
    means = wins / panel.n
    mu = np.stack([means - 0.5, (panel.n - wins) / panel.n - 0.5])
    live = np.broadcast_to(~tied.all(axis=0), mu.shape)
    return _Pairs(competitors, mu, ind - means, live, None, np.zeros_like(live),
                  np.zeros(competitors.size, dtype=bool))


def _cvc_pairs(panel: LossPanel, m: int, competitors: np.ndarray) -> _Pairs:
    # Fancy indexing makes diff column-major, so each column reduces as a
    # 1-D array whatever the other columns are. Negating a column negates
    # its mean and scores exactly and keeps its sd, but for the sign of a
    # zero: a difference or sum that cancels is +0.0 either way, so the
    # reverse contrast is 0.0 - mu.
    diff = panel.losses[:, competitors] - panel.column(m)[:, None]  # >0 favors m
    means = diff.mean(axis=0)
    sds = diff.std(axis=0)
    scale = max(1.0, float(np.abs(panel.losses).max()))
    live = sds > _DEGENERATE_SD * scale
    psi = (diff - means) / np.where(live, sds, 1.0)
    psi -= psi.mean(axis=0)   # keep centering exact after the 1/sd scaling
    mu = means / np.where(live, sds, 1.0)
    none = np.zeros((2, competitors.size), dtype=bool)
    return _Pairs(competitors, np.stack([mu, 0.0 - mu]), psi,
                  np.broadcast_to(live, none.shape),
                  None, np.stack([~live & (means < 0), ~live & (means > 0)]),
                  none[0])


def rsr_from_panel(panel: LossPanel, config: SelectionConfig,
                   method: str = "rsr_vfold") -> ConfidenceSet:
    """Rank-sum confidence set computed directly from a loss panel."""
    ties = TieStreams(config.seed, TAG_RSR_TIES)
    return _pair_loop(panel, config, method,
                      partial(_rsr_pairs, panel, config, ties))


def pcv_select(panel: LossPanel, config: SelectionConfig) -> ConfidenceSet:
    """Paired-comparison confidence set: per-observation win indicators.

    A tie scores 1/2, a fair coin's mean, so no coin is drawn. A copy of m
    (mu = 0, psi = 0) carries no evidence and is dropped; none left: p = 1.
    """
    return _pair_loop(panel, config, "pcv", partial(_pcv_pairs, panel))


def cvc_style_select(panel: LossPanel, config: SelectionConfig) -> ConfidenceSet:
    """Mean-difference confidence set (studentized, multiplier bootstrap).

    For reference m and competitor j the evidence is the studentized mean
    of loss differences, oriented so positive values favor m (as in the
    rank-sum route). Columns with (numerically) constant differences are
    decided by sign: a constant win for the competitor rejects m outright,
    a constant win or exact tie for m carries no evidence against it.
    """
    return _pair_loop(panel, config, "cvc_style", partial(_cvc_pairs, panel))


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
