"""Copy perfbench result files into one committed ``BENCH_<label>.json``.

    python tools/bench_export.py LABEL RESULT.json [RESULT.json ...]

Each RESULT.json is a run record that ``perfbench/run.py`` wrote under
``.perfbench_work/results/`` (the harness overwrites it on the next run
of the same workload, seed and trace mode, so copy it away first when
collecting several runs). The output, at the repository root, keeps every
record unchanged in the order given, and adds a summary per workload and
trace mode: for each metric, the run count, median and quartiles over the
runs. Two such files, one per commit, show a speed-up without re-running
anything. Span dumps (``*-spans.jsonl.gz``) are left out.

The run records name the HEAD commit only, so the output also says which
code ran: ``source`` is the SHA-256 of ``src/ranksel/*.py`` at export
time (each file's name, then its bytes, in name order), and ``src_dirty``
is whether ``git status`` lists changes under ``src`` (null without git or
outside a repository). Export from the checkout that ran the records.
"""

import hashlib
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarize(records) -> dict:
    """{"<workload>/trace<0|1>": {metric: {runs, median, q1, q3}}}."""
    values = defaultdict(lambda: defaultdict(list))
    for record in records:
        env = record["environment"]
        group = values[f"{env['workload']}/trace{env['trace']}"]
        for name, metric in record["metrics"].items():
            group[name].append(metric["value"])
    summary = {}
    for group, metrics in sorted(values.items()):
        summary[group] = {}
        for name, vals in metrics.items():
            q1, median, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                              else (vals[0],) * 3)
            summary[group][name] = {"runs": len(vals), "median": median,
                                    "q1": q1, "q3": q3}
    return summary


def source_digest(root: Path) -> str:
    """SHA-256 of root/src/ranksel/*.py: each name, a NUL, then its bytes."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ranksel").glob("*.py")):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def src_dirty(root: Path) -> bool | None:
    """Whether git lists changes under root/src; None without git or a repository."""
    try:
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                                capture_output=True, text=True, check=False)
    except OSError:
        return None
    return bool(status.stdout.strip()) if status.returncode == 0 else None


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: python tools/bench_export.py LABEL RESULT.json [RESULT.json ...]",
              file=sys.stderr)
        return 2
    label, paths = argv[0], argv[1:]
    records = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps({"label": label, "source": source_digest(ROOT),
                               "src_dirty": src_dirty(ROOT), "summary": summarize(records),
                               "runs": records}, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
