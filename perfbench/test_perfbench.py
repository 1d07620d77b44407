"""Tests of the benchmark harness itself, on inputs small enough to run fast.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, PanelWorkload, SimWorkload  # noqa: E402

SMALL = {
    "cont": PanelWorkload(name="cont", kind="cont", n=60, n_models=5, why=""),
    "ties": PanelWorkload(name="ties", kind="ties", n=60, n_models=4, why=""),
    "case1": SimWorkload(name="case1", case="case1", trace_jobs=2, why="",
                         params=dict(n=40, x_df=3.0, B=500, V=5)),
    "case2": SimWorkload(name="case2", case="case2", trace_jobs=1, why="",
                         params=dict(n=40, p=10, noise_df=3.0, rho=0.25, k_path=5,
                                     folds=5, B=500)),
}


class Tampered(PanelWorkload):
    """Collects the real output, then edits report.json with ``edit``."""

    def __init__(self, base, edit):
        super().__init__(**{k: getattr(base, k) for k in base.__dataclass_fields__})
        object.__setattr__(self, "edit", edit)

    def collect(self, inputs, result):
        out = super().collect(inputs, result)
        report = json.loads(out["report.json"])
        self.edit(report["payload"]["confidence_set"])
        out["report.json"] = json.dumps(report).encode()
        return out


def _ulp_up_t_obs(cs):
    m = next(k for k, d in cs["diagnostics"].items() if math.isfinite(d["t_obs"]))
    cs["diagnostics"][m]["t_obs"] = math.nextafter(cs["diagnostics"][m]["t_obs"], math.inf)


def _p_value_above_one(cs):
    cs["p_values"][0] = 1.5


@pytest.mark.parametrize("edit", [None, _ulp_up_t_obs, _p_value_above_one])
def test_tampered_report_counts_as_failure(tmp_path, edit):
    base = SMALL["cont"]
    wl = base if edit is None else Tampered(base, edit)
    ledger = run.Ledger(wl, wl.setup(3, tmp_path))
    ledger.run(0)
    assert ledger.attempted == 1
    assert ledger.failed == (0 if edit is None else 1), ledger.problems


def test_tie_bounds_hold_on_zero_one_losses(tmp_path):
    wl = SMALL["ties"]
    ledger = run.Ledger(wl, wl.setup(4, tmp_path))
    for i in range(2):
        ledger.run(i)
    assert (ledger.attempted, ledger.failed) == (2, 0), ledger.problems


def test_sim_rows_are_checked(tmp_path):
    wl = SMALL["case2"]
    config = wl.setup(5, tmp_path)
    output = wl.collect(config, wl.run(config, 0))
    assert wl.check(config, 0, output) == []
    rows = {r["method"]: r for r in json.loads(output["rows.json"])}
    rows["rsr"]["set_size"] = 99
    rows["pcv"]["cv_error"] = float("nan")
    rows = list(rows.values())
    bad = {"rows.json": json.dumps(rows).encode()}
    assert len(wl.check(config, 0, bad)) == 2


def _traced_pass(wl, inputs, jobs):
    tracer = tracing.Tracer()
    outputs = []
    with tracing.traced(tracer):
        for i in range(jobs):
            tracer.job = i
            outputs.append(wl.collect(inputs, wl.run(inputs, i)))
    return tracer, outputs


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_restores_attributes_and_keeps_bytes(tmp_path, name):
    wl = SMALL[name]
    inputs = wl.setup(6, tmp_path)
    before = tracing.snapshot()
    untraced = [wl.collect(inputs, wl.run(inputs, i)) for i in range(wl.trace_jobs)]
    tracer, traced = _traced_pass(wl, inputs, wl.trace_jobs)
    assert traced == untraced
    assert tracer.spans and not tracer.missing and not tracer.hook_errors
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original, attr


def test_attributes_restored_after_an_error():
    before = tracing.snapshot()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert not tracing.is_restored(before)
            raise RuntimeError("job failed")
    assert tracing.is_restored(before)


def test_counts_repeat_and_self_times_add_up(tmp_path):
    wl = SMALL["ties"]
    inputs = wl.setup(7, tmp_path)
    passes = []
    for _ in range(2):
        tracer, _ = _traced_pass(wl, inputs, 1)
        top = [s for s in tracer.spans if s[3] == -1]
        wall = sum(s[2] - s[1] for s in top) + 1e-3
        passes.append(tracing.pass_metrics(tracer, wall))
    for name in tracing.COUNT_METRICS:
        assert passes[0][name] == passes[1][name], name
    first = passes[0]
    assert first["ranksum.tie_coins.pair_stats"] > 0
    assert first["ranksum.pairs"] == 4 * 3
    layers = sum(first[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + first["trace.unattributed_s"] == pytest.approx(first["trace.wall_s"])
    assert first["trace.unattributed_s"] == pytest.approx(1e-3)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [m[:3] for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "case1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
