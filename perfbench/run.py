"""ranksel benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload case1 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run repeats the workload's jobs until ``--seconds``
of job time have passed and reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced passes over the workload's
fixed trace job set and reports the per-layer metrics of the traced pass
with the median wall time. Every job's output is checked; the last stdout
line is the JSON result. Inputs, outputs, a detailed result file and the
span dump go to ``.perfbench_work/`` in the repository root.
"""

import time

_T0 = time.perf_counter()   # set-up time runs from here: imports count

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4      # extra fresh-process set-ups; setup_s is the median of 1 + 4

# One reference second is the time in which the reference loop runs
# 1 / REF_LOOP_S times; on the machine the bounds were set on, the loop
# takes about this long.
REF_LOOP_S = 0.003

# (metric, unit, better); the order is the order of BENCHMARK.json.
END_TO_END = (
    ("jobs_per_ref_s", "1/ref_s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and set up, then print the seconds taken")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import ranksel from this checkout's src/ and nowhere else."""
    if not (SRC / "ranksel" / "__init__.py").is_file():
        raise ImportError(f"no ranksel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ranksel
    if Path(ranksel.__file__).resolve().parent != SRC / "ranksel":
        raise ImportError(f"ranksel imported from {ranksel.__file__}, not {SRC}")


class Ledger:
    """Attempts, failures and outputs of every job in a run."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.outputs = {}          # key -> (output, problems of its first check)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def run(self, i: int) -> float:
        """Run job i, time only the job itself, then collect and check."""
        wl = self.workload
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = wl.run(self.inputs, i)
        except Exception:
            wall = time.perf_counter() - start
            self._fail(f"job {i} raised:\n{traceback.format_exc(limit=4)}")
            return wall
        wall = time.perf_counter() - start
        try:
            output = wl.collect(self.inputs, result)
            key = wl.key(i)
            if key not in self.outputs:
                self.outputs[key] = (output, wl.check(self.inputs, key, output))
            first, problems = self.outputs[key]
            if output != first:
                problems = [f"job {i}: output differs from the first job with key {key}"]
        except Exception:
            problems = [f"job {i} output unreadable:\n{traceback.format_exc(limit=4)}"]
        if problems:
            self._fail(f"job {i}: " + "; ".join(problems))
        return wall

    def output_sha256(self, n_jobs: int) -> str | None:
        """SHA-256 over the outputs of jobs 0..n_jobs-1 (file name, then bytes)."""
        digest = hashlib.sha256()
        for i in range(n_jobs):
            entry = self.outputs.get(self.workload.key(i))
            if entry is None:
                return None
            for name, data in sorted(entry[0].items()):
                digest.update(name.encode() + b"\0" + data)
        return digest.hexdigest()


def setup_probes(args) -> tuple[list[float], list[str]]:
    """Set up SETUP_PROBES more times, each in a fresh interpreter."""
    samples, problems = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30, check=False)
        except subprocess.TimeoutExpired:
            problems.append("set-up probe took over 30 s")
            continue
        try:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
        except (IndexError, ValueError):
            problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
    return samples, problems


def make_reference_loop():
    """Timer for a fixed mix of interpreted Python, a small matmul and a sort.

    The host this benchmark was tuned on switches between a fast and a slow
    state about 1.45x apart, for seconds to minutes at a time. Timed around
    each job, this loop tracks that state, so job times can be expressed in
    reference seconds.
    """
    import numpy as np

    square = np.random.default_rng(0).random((120, 120))
    values = np.random.default_rng(1).random(20000)

    def run() -> float:
        start = time.perf_counter()
        total = 0
        for k in range(20000):
            total += k * k
        for _ in range(10):
            square @ square
        np.sort(values)
        return time.perf_counter() - start
    return run


def end_to_end(args, wl, inputs, ledger, setup_main):
    reference_loop = make_reference_loop()
    loop_s = [reference_loop()]
    walls = []
    while not walls or sum(walls) < args.seconds:
        walls.append(ledger.run(len(walls)))
        loop_s.append(reference_loop())
    # A job's time in reference seconds: its wall time scaled by how much
    # slower than REF_LOOP_S the loop ran just before and just after it.
    ref_walls = [w * 2 * REF_LOOP_S / (before + after)
                 for w, before, after in zip(walls, loop_s, loop_s[1:])]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples, problems = setup_probes(args)
    ledger.problems.extend(problems)
    setup = [setup_main] + samples
    values = {
        "jobs_per_ref_s": len(ref_walls) / sum(ref_walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}
    # Plain wall-time figures are recorded, not gated: across runs they
    # spread with the host's speed state (see README).
    details = {"jobs": len(walls), "jobs_per_s": len(walls) / sum(walls),
               "job_s_p50": statistics.median(walls), "job_s": walls,
               "reference_loop_s": loop_s, "setup_s": setup}
    return metrics, details, not problems


def traced_run(args, wl, inputs, ledger):
    import tracing

    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    k = wl.trace_jobs
    untraced, passes, spans = [], [], []
    ok = True
    spent = 0.0
    while True:
        pair_start = time.perf_counter()
        untraced.append(sum(ledger.run(i) for i in range(k)))
        tracer = tracing.Tracer()
        before = tracing.snapshot()
        with tracing.traced(tracer):
            wall = 0.0
            for i in range(k):
                tracer.job = i
                wall += ledger.run(i)
        if not tracing.is_restored(before):
            ledger.problems.append("a wrapped attribute was not restored")
            ok = False
        passes.append(tracing.pass_metrics(tracer, wall))
        spans.extend([len(passes) - 1] + s for s in tracer.spans)
        pair_s = time.perf_counter() - pair_start
        spent += pair_s
        if spent + pair_s > args.seconds:
            break
    for name in tracing.COUNT_METRICS:
        if len({p[name] for p in passes}) != 1:
            ledger.problems.append(f"count {name} differs between traced passes")
            ok = False
    chosen = dict(sorted(passes, key=lambda p: p["trace.wall_s"])[(len(passes) - 1) // 2])
    chosen["trace.overhead_ratio"] = (statistics.median(p["trace.wall_s"] for p in passes)
                                      / statistics.median(untraced))
    metrics = {name: (chosen[name], units[name]) for name, _, _ in tracing.PER_LAYER}
    spread = {}
    if len(passes) >= 2:
        for name, unit, _ in tracing.PER_LAYER:
            if unit == "s":
                q1, _, q3 = statistics.quantiles([p[name] for p in passes], n=4)
                spread[name] = q3 - q1
    details = {"untraced_pass_s": untraced, "passes": passes, "time_iqr_s": spread,
               "missing_wraps": tracer.missing, "hook_errors": tracer.hook_errors}
    if tracer.missing or tracer.hook_errors:
        print(f"perfbench: trace gaps: missing {tracer.missing}, "
              f"hook errors {tracer.hook_errors}", file=sys.stderr)
    return metrics, details, ok, spans


def openblas_runtime():
    """OpenBLAS config string and thread count, read from the loaded library."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libdir / "libscipy_openblas*"))):
        lib = ctypes.CDLL(lib_path)
        try:
            get_config = lib.scipy_openblas_get_config64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        get_config.restype = ctypes.c_char_p
        get_threads.restype = ctypes.c_int
        return get_config().decode(), get_threads()
    return None, None


def git_commit():
    """HEAD commit read from .git files; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas_config, blas_threads = openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    for var in BLAS_THREAD_VARS:          # before numpy loads OpenBLAS
        os.environ[var] = "1"
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import ranksel: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / args.workload
    if args.setup_probe:
        wl.setup(args.seed, WORK / f"{args.workload}-probe")
        print(time.perf_counter() - _T0)
        return 0
    shutil.rmtree(workdir, ignore_errors=True)
    # Relative paths keep the checkout's location out of report bytes.
    inputs = wl.setup(args.seed, workdir.relative_to(ROOT))
    setup_main = time.perf_counter() - _T0

    ledger = Ledger(wl, inputs)
    spans = None
    if args.trace:
        metrics, details, ok, spans = traced_run(args, wl, inputs, ledger)
    else:
        metrics, details, ok = end_to_end(args, wl, inputs, ledger, setup_main)
    correct = ok and ledger.failed == 0

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(args),
        "workload": {"name": wl.name, "why": wl.why, "trace_jobs": wl.trace_jobs,
                     "parameters": {k: v for k, v in vars(wl).items()
                                    if k not in ("name", "why")}},
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "problems": ledger.problems,
        "output_sha256": ledger.output_sha256(wl.trace_jobs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans is not None:
        with gzip.open(results / f"{stem}-spans.jsonl.gz", "wt") as fh:
            fh.write('# [pass, name, start, end, parent, job]\n')
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    for problem in ledger.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {json.dumps(record['environment'], sort_keys=True)}")
    jobs = "".join(f" {k}={details[k]}" for k in ("jobs", "jobs_per_s", "job_s_p50")
                   if k in details)
    print(f"perfbench: workload={wl.name} attempted={ledger.attempted} "
          f"failed={ledger.failed}{jobs} output_sha256={record['output_sha256']} "
          f"details={results / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
