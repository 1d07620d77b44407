"""Outside-in tracing of ranksel: spans and counters around module calls.

The tracer never edits the package. ``traced(tracer)`` replaces the module
attributes that callers look up (``simlab.fit_huber_lasso``,
``select.pair_stats``, ``bootstrap.multiplier_matrix``, ``TieStreams.pair``,
...) with wrappers that open a span or bump a counter, and puts every
original back when the block exits, even on error. A target that a later
refactor removed is skipped and listed in ``tracer.missing``; its metrics
then read 0.

Spans are kept in memory as ``[name, start, end, parent, job]`` and only
summarised or written out after the traced pass. A span is named after the
module that defines the function (``models.fit_huber_lasso``), whichever
module it was looked up from; that prefix is the span's layer.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from ranksel import bootstrap, cli, io, models, ranksum, rng, select, simlab

LAYERS = ("models", "ranksum", "rng", "bootstrap", "select", "simlab", "io", "cli")


class Tracer:
    """Span stack and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = -1
        self.missing: list[str] = []       # wrap targets absent from the package
        self.hook_errors: dict[str, str] = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def scope(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self.stack[-1]][0] if self.stack else None


# --- hooks: count work from a wrapped call's arguments and result ---------

def _count_not_converged(tr, args, kwargs, out):
    if out.meta.get("not_converged"):
        tr.counts["models.not_converged"] += 1


def _count_pairs(tr, args, kwargs, out):
    tr.counts["ranksum.pairs"] += len(out.competitors)


def _count_screen(tr, args, kwargs, out):
    tr.counts["select.screen.offered"] += len(args[0])
    tr.counts["select.screen.kept"] += len(out)


def _count_bootstrap(tr, args, kwargs, out):
    psi, config = args[1], args[2]
    n, p = psi.shape
    tr.counts["bootstrap.cols"] += p
    tr.counts["bootstrap.gemm_flops"] += 2 * config.B * n * p


def _count_normals(tr, args, kwargs, out):
    tr.counts["rng.normals"] += out.size


def _count_read_bytes(tr, args, kwargs, out):
    tr.counts["io.read_bytes"] += os.path.getsize(args[0])


def _span(name, hook=None):
    def make(tr, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = tr.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if hook is not None:
                # A changed call signature loses one counter, not the run.
                try:
                    hook(tr, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    tr.hook_errors[name] = repr(exc)
            return out
        return wrapped
    return make


def _count_under(scope, counter):
    """Count calls made while ``scope`` is the innermost span."""
    def make(tr, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tr.scope() == scope:
                tr.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapped
    return make


class _CountingStream:
    """Generator proxy that counts tie-coin draws by the calling span."""

    __slots__ = ("_gen", "_tr")

    def __init__(self, gen, tr):
        self._gen = gen
        self._tr = tr

    def random(self, size=None, *args, **kwargs):
        scope = self._tr.scope()
        self._tr.counts[f"tie_draws@{scope}"] += 1
        self._tr.counts[f"tie_coins@{scope}"] += 1 if size is None else math.prod(
            size if isinstance(size, tuple) else (size,))
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _counting_pair(tr, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return _CountingStream(fn(*args, **kwargs), tr)
    return wrapped


# (owner, attribute, wrapper factory). Owners are the modules or classes
# whose attribute the caller looks up at call time.
WRAPS = (
    (simlab, "case1_replicate", _span("simlab.case1_replicate")),
    (simlab, "case2_replicate", _span("simlab.case2_replicate")),
    (simlab, "sample_student_t", _span("simlab.sample_student_t")),
    (simlab, "ar1_design", _span("simlab.ar1_design")),
    (simlab, "fit_huber_adaptive", _span("models.fit_huber_adaptive", _count_not_converged)),
    (simlab, "fit_huber_lasso", _span("models.fit_huber_lasso", _count_not_converged)),
    (simlab, "lambda_path", _span("models.lambda_path")),
    (simlab, "huber_lasso_lipschitz", _span("models.huber_lasso_lipschitz")),
    (simlab, "huber_location", _span("models.huber_location")),
    (simlab, "loss_eval", _span("models.loss_eval")),
    (simlab, "panel_from_folds", _span("select.panel_from_folds")),
    (simlab, "make_folds", _span("select.make_folds")),
    (simlab, "rsr_from_panel", _span("select.rsr_from_panel")),
    (simlab, "pcv_select", _span("select.pcv_select")),
    (simlab, "cvc_style_select", _span("select.cvc_style_select")),
    (simlab, "cv_select", _span("select.cv_select")),
    (simlab, "keyed_stream", _span("rng.keyed_stream")),
    (simlab, "subseed", _span("rng.subseed")),
    (select, "pair_stats", _span("ranksum.pair_stats", _count_pairs)),
    (select, "screen", _span("select.screen", _count_screen)),
    (select, "run_min_bootstrap", _span("bootstrap.run_min_bootstrap", _count_bootstrap)),
    (select, "loss_eval", _span("models.loss_eval")),
    (select, "keyed_stream", _span("rng.keyed_stream")),
    (select, "subseed", _span("rng.subseed")),
    (ranksum, "se_ranksum", _span("ranksum.se_ranksum")),
    (bootstrap, "multiplier_matrix", _span("rng.multiplier_matrix", _count_normals)),
    (rng, "keyed_stream", _span("rng.keyed_stream")),
    (rng.TieStreams, "pair", _counting_pair),
    (models, "huber_score", _count_under("models.fit_huber_lasso", "models.prox_iters")),
    (models, "soft_threshold",
     _count_under("models.fit_huber_lasso", "models.line_search_trials")),
    (models, "mad_scale", _count_under("models.fit_huber_adaptive", "models.irls_passes")),
    (cli, "main", _span("cli.main")),
    (cli, "read_loss_panel_csv", _span("io.read_loss_panel_csv", _count_read_bytes)),
    (cli, "rsr_from_panel", _span("select.rsr_from_panel")),
    (cli, "write_pvalues_csv", _span("io.write_pvalues_csv")),
    (io.ReportBundle, "write_report", _span("io.write_report")),
)


def _owner_name(owner) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


def snapshot() -> list[tuple]:
    """The current value of every wrap target, to check restoration against."""
    return [(owner, attr, vars(owner).get(attr)) for owner, attr, _ in WRAPS]


def is_restored(before: list[tuple]) -> bool:
    return all(vars(owner).get(attr) is value for owner, attr, value in before)


@contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    installed = []
    try:
        for owner, attr, make in WRAPS:
            original = vars(owner).get(attr)
            if original is None:
                tracer.missing.append(f"{_owner_name(owner)}.{attr}")
                continue
            setattr(owner, attr, make(tracer, original))
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


# --- per-layer metrics ------------------------------------------------------

# (metric, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("models.fit_huber_lasso.calls", "count", "lower"),
        ("models.fit_huber_lasso.self_s", "s", "lower"),
        ("models.prox_iters", "count", "lower"),
        ("models.line_search_trials", "count", "lower"),
        ("models.not_converged", "count", "lower"),
        ("models.path_setup_s", "s", "lower"),
        ("models.fit_huber_adaptive.calls", "count", "lower"),
        ("models.fit_huber_adaptive.self_s", "s", "lower"),
        ("models.irls_passes", "count", "lower"),
        ("ranksum.pair_stats.calls", "count", "lower"),
        ("ranksum.pair_stats.self_s", "s", "lower"),
        ("ranksum.pairs", "count", "lower"),
        ("ranksum.se_ranksum.s", "s", "lower"),
        ("ranksum.tie_draws", "count", "lower"),
        ("ranksum.tie_coins", "count", "lower"),
        ("ranksum.tie_coins.pair_stats", "count", "lower"),
        ("ranksum.tie_coins.pcv_select", "count", "lower"),
        ("rng.keyed_stream.calls", "count", "lower"),
        ("rng.keyed_stream.s", "s", "lower"),
        ("rng.multiplier_matrix.calls", "count", "lower"),
        ("rng.multiplier_matrix.s", "s", "lower"),
        ("rng.normals", "count", "lower"),
        ("bootstrap.run_min_bootstrap.calls", "count", "lower"),
        ("bootstrap.run_min_bootstrap.self_s", "s", "lower"),
        ("bootstrap.cols", "count", "lower"),
        ("bootstrap.gemm_flops", "flop_computed", "lower"),
        ("select.rsr_from_panel.self_s", "s", "lower"),
        ("select.pcv_select.self_s", "s", "lower"),
        ("select.cvc_style_select.self_s", "s", "lower"),
        ("select.panel_from_folds.self_s", "s", "lower"),
        ("select.screen.offered", "count", "lower"),
        ("select.screen.dropped", "count", "higher"),
        ("select.screen.keep_ratio", "ratio", "lower"),
        ("simlab.datagen_s", "s", "lower"),
        ("simlab.replicate.self_s", "s", "lower"),
        ("io.read_loss_panel_csv.s", "s", "lower"),
        ("io.read_bytes", "bytes", "lower"),
        ("io.write_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
    ]
)

# Metrics that count work: they must repeat exactly from pass to pass.
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER
                      if unit in ("count", "bytes", "flop_computed"))


def span_times(spans) -> tuple[Counter, Counter, Counter]:
    """Per span name: inclusive seconds, self seconds, and call count."""
    incl: Counter = Counter()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _parent, _job) in enumerate(spans):
        incl[name] += end - start
        self_s[name] += end - start - child[i]
        calls[name] += 1
    return incl, self_s, calls


def pass_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Every PER_LAYER metric except the overhead ratio, for one pass."""
    incl, self_s, calls = span_times(tracer.spans)
    c = tracer.counts

    def s(*names):
        return float(sum(incl[n] for n in names))

    def own(*names):
        return float(sum(self_s[n] for n in names))

    out = {f"{layer}.self_s": own(*(n for n in self_s if n.split(".")[0] == layer))
           for layer in LAYERS}
    attributed = sum(out.values())
    offered = c["select.screen.offered"]
    out.update({
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - attributed,
        "models.fit_huber_lasso.calls": calls["models.fit_huber_lasso"],
        "models.fit_huber_lasso.self_s": own("models.fit_huber_lasso"),
        "models.prox_iters": c["models.prox_iters"],
        "models.line_search_trials": c["models.line_search_trials"],
        "models.not_converged": c["models.not_converged"],
        "models.path_setup_s": s("models.lambda_path", "models.huber_lasso_lipschitz"),
        "models.fit_huber_adaptive.calls": calls["models.fit_huber_adaptive"],
        "models.fit_huber_adaptive.self_s": own("models.fit_huber_adaptive"),
        "models.irls_passes": c["models.irls_passes"],
        "ranksum.pair_stats.calls": calls["ranksum.pair_stats"],
        "ranksum.pair_stats.self_s": own("ranksum.pair_stats"),
        "ranksum.pairs": c["ranksum.pairs"],
        "ranksum.se_ranksum.s": s("ranksum.se_ranksum"),
        "ranksum.tie_draws": sum(v for k, v in c.items() if k.startswith("tie_draws@")),
        "ranksum.tie_coins": sum(v for k, v in c.items() if k.startswith("tie_coins@")),
        "ranksum.tie_coins.pair_stats": c["tie_coins@ranksum.pair_stats"],
        "ranksum.tie_coins.pcv_select": c["tie_coins@select.pcv_select"],
        "rng.keyed_stream.calls": calls["rng.keyed_stream"],
        "rng.keyed_stream.s": s("rng.keyed_stream"),
        "rng.multiplier_matrix.calls": calls["rng.multiplier_matrix"],
        "rng.multiplier_matrix.s": s("rng.multiplier_matrix"),
        "rng.normals": c["rng.normals"],
        "bootstrap.run_min_bootstrap.calls": calls["bootstrap.run_min_bootstrap"],
        "bootstrap.run_min_bootstrap.self_s": own("bootstrap.run_min_bootstrap"),
        "bootstrap.cols": c["bootstrap.cols"],
        "bootstrap.gemm_flops": c["bootstrap.gemm_flops"],
        "select.rsr_from_panel.self_s": own("select.rsr_from_panel"),
        "select.pcv_select.self_s": own("select.pcv_select"),
        "select.cvc_style_select.self_s": own("select.cvc_style_select"),
        "select.panel_from_folds.self_s": own("select.panel_from_folds"),
        "select.screen.offered": offered,
        "select.screen.dropped": offered - c["select.screen.kept"],
        "select.screen.keep_ratio": c["select.screen.kept"] / offered if offered else 0.0,
        "simlab.datagen_s": s("simlab.sample_student_t", "simlab.ar1_design"),
        "simlab.replicate.self_s": own("simlab.case1_replicate", "simlab.case2_replicate"),
        "io.read_loss_panel_csv.s": s("io.read_loss_panel_csv"),
        "io.read_bytes": c["io.read_bytes"],
        "io.write_s": s("io.write_report", "io.write_pvalues_csv"),
        "cli.main.self_s": own("cli.main"),
    })
    return out
