"""Print the SHA-256 of each pinned output, one ``name hash`` line each.

    PYTHONPATH=src python tools/acceptance_hashes.py          # everything
    PYTHONPATH=src python tools/acceptance_hashes.py cli      # CLI runs only, seconds

Two groups. ``cli`` runs ``ranksel`` in-process on small seeded inputs and
hashes every file it writes that the change under test might touch:
``report.json`` and ``pvalues.csv`` of ``panel`` on a tie-free, a 0/1, a
mixed and a wide (n = 60, M = 120) loss panel (default and ``--no-screening``)
and of ``select`` at ``--folds 0`` and ``--folds 5``, both on a full-rank
design (``select_folds*``) and on one whose two feature columns are equal, so
``ols`` and ``huber`` fail and ``huber_lasso`` is the lone survivor
(``select_failed*``), and with ``--loss absolute`` on the full-rank design
(``select_abs*``), plus ``aggregate.json``,
``replicates.csv``, ``setsize_vs_n.dat`` and ``rates.dat`` of ``simulate
case1`` at n = 40 with 3 replicates and of ``simulate case2`` at (200, 200)
with 1 replicate (the Huber-lasso path solver; about ten seconds). The runs
work in a fresh temporary directory through relative paths, so the input
paths that ``report.json`` echoes are the same on every run. The CLI does
not run PCV or CVC, so ``pcv_cont``, ``pcv_ties``, ``cvc_cont`` and
``cvc_ties`` hash the sorted-key JSON of ``pcv_select(...).to_dict()`` and
``cvc_style_select(...).to_dict()`` on the same two panels at seed 7.
``case1_n40_sets`` hashes, in order, the sorted-key JSON of every method's
``ConfidenceSet.to_dict()`` in the replicates of ``case1.cfg``: a moved
p-value shows there even when the study's set sizes, and so its files, do not.

``acceptance`` hashes the aggregates tests/test_acceptance.py builds, from
its own config helpers, at ACCEPT_SEED and threads=2: criterion 2's JSON,
Case 1's ``to_json()`` at n=320 and n=40, and Case 2's at (200, 200). These
take a few minutes on two cores; Case 2 is the longest.

Two comment lines come first: the NumPy version and its BLAS build, since
gemm rounding, and with it a p-value count, can differ between builds. A
change that claims to keep output bytes compares the lines before and after.
The ``cli`` group's output is committed as ``tests/golden_cli_hashes.txt``,
which ``tests/test_golden_hashes.py`` checks on every run; a change that
moves bytes on purpose rewrites that file with

    PYTHONPATH=src python tools/acceptance_hashes.py cli > tests/golden_cli_hashes.txt
"""

import contextlib
import csv
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_acceptance as acc  # noqa: E402

from ranksel import (LossPanel, SelectionConfig, cvc_style_select,  # noqa: E402
                     pcv_select, run_case1, run_case2, simlab)
from ranksel.cli import _case_config  # noqa: E402
from ranksel.cli import main as ranksel_main  # noqa: E402
from ranksel.io import (parse_config_file, read_loss_panel_csv,  # noqa: E402
                        write_loss_panel_csv)

AGGREGATES = (
    ("crit2", lambda: acc._crit2_aggregate(threads=2)),
    ("case1_n320", lambda: run_case1(acc.case1_config(320)).to_json()),
    ("case1_n40", lambda: run_case1(acc.case1_config(40)).to_json()),
    ("case2", lambda: run_case2(acc.case2_config()).to_json()),
)

PANEL_MODES = (("default", []), ("no_screening", ["--no-screening"]))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_inputs() -> None:
    rng = np.random.default_rng(401)
    # Graded shifts, so screening drops the clearly worse columns.
    cont = np.abs(rng.standard_cauchy((300, 12))) + np.linspace(0.0, 3.0, 12)
    write_loss_panel_csv("cont.csv", LossPanel(
        losses=cont, model_ids=tuple(f"m{j:02d}" for j in range(12))))
    rates = np.linspace(0.3, 0.5, 6)
    ties = (rng.random((300, 6)) < rates).astype(float)
    write_loss_panel_csv("ties.csv", LossPanel(
        losses=ties, model_ids=tuple(f"m{j:02d}" for j in range(6))))
    # Tie-free, integer-valued and duplicate columns in one panel, so tie-free
    # pairs and tied pairs (a copy ties everywhere) meet in every reference.
    mixed_rng = np.random.default_rng(402)
    free = np.abs(mixed_rng.standard_cauchy((300, 4))) + np.linspace(0.0, 1.5, 4)
    counts = mixed_rng.integers(0, 4, size=(300, 3)).astype(float)
    mixed = np.column_stack([free[:, :2], counts[:, 0], free[:, 2:], free[:, 1],
                             counts[:, 1:]])
    write_loss_panel_csv("mixed.csv", LossPanel(
        losses=mixed, model_ids=tuple(f"m{j:02d}" for j in range(8))))
    # Many competitors per reference: tie-free, 0/1 and duplicate columns.
    wide_rng = np.random.default_rng(403)
    free = np.abs(wide_rng.standard_cauchy((60, 80))) + np.linspace(0.0, 2.0, 80)
    binary = (wide_rng.random((60, 30)) < np.linspace(0.3, 0.5, 30)).astype(float)
    wide = np.column_stack([free, binary])
    wide = np.column_stack([wide, wide[:, wide_rng.choice(110, 10, replace=False)]])
    wide = wide[:, wide_rng.permutation(120)]
    write_loss_panel_csv("wide.csv", LossPanel(
        losses=wide, model_ids=tuple(f"m{j:03d}" for j in range(120))))
    x = rng.standard_normal((80, 3))
    y = 1.0 + x @ np.array([2.0, 0.0, -1.0]) + rng.standard_t(2, size=80)
    with open("xy.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "y"])
        writer.writerows(np.column_stack([x, y]).tolist())
    dup_rng = np.random.default_rng(404)
    x1 = dup_rng.standard_normal(80)
    y = 1.0 + 2.0 * x1 + dup_rng.standard_t(2, size=80)
    with open("xy_dup.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "y"])
        writer.writerows(np.column_stack([x1, x1, y]).tolist())
    Path("case1.cfg").write_text("n = 40\nx_df = 3\nreps = 3\nseed = 401\n",
                                 encoding="utf-8")
    Path("case2.cfg").write_text("n = 200\np = 200\nnoise_df = 3\nrho = 0.25\n"
                                 "reps = 1\nseed = 401\n", encoding="utf-8")


def _cli_runs():
    """(name, argv, output files to hash) for each pinned CLI run."""
    for panel in ("cont", "ties", "mixed", "wide"):
        for mode, flags in PANEL_MODES:
            name = f"panel_{panel}_{mode}"
            yield name, ["panel", "--losses", f"{panel}.csv", *flags, "--seed", "7",
                         "--out", name], ("report.json", "pvalues.csv")
    for label, data in (("folds", "xy.csv"), ("failed", "xy_dup.csv")):
        for folds in (0, 5):
            name = f"select_{label}{folds}"
            yield name, ["select", "--data", data, "--response", "y",
                         "--learners", "ols,huber,huber_lasso", "--folds", str(folds),
                         "--seed", "7", "--out", name], ("report.json", "pvalues.csv")
    for folds in (0, 5):
        name = f"select_abs{folds}"
        yield name, ["select", "--data", "xy.csv", "--response", "y",
                     "--learners", "ols,huber,huber_lasso", "--loss", "absolute",
                     "--folds", str(folds), "--seed", "7", "--out", name], (
            "report.json", "pvalues.csv")
    for name, case in (("case1_cli_n40", "case1"), ("case2_cli_200x200", "case2")):
        yield name, ["simulate", case, "--config", f"{case}.cfg", "--out", name], (
            "aggregate.json", "replicates.csv", "setsize_vs_n.dat", "rates.dat")


def _case1_sets() -> list[dict]:
    """Every method's confidence set, in order, over the replicates of
    ``case1.cfg``; records what ``simlab._select`` returns while it runs."""
    config = _case_config("case1", parse_config_file("case1.cfg"))
    select, sets = simlab._select, []

    def recording(method, panel, sel_cfg):
        cs = select(method, panel, sel_cfg)
        sets.append(cs.to_dict())
        return cs

    with mock.patch.object(simlab, "_select", recording):
        for rep in range(config.reps):
            simlab.case1_replicate(config, rep)
    return sets


def cli_hashes():
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            _write_inputs()
            for name, argv, files in _cli_runs():
                with contextlib.redirect_stdout(sys.stderr):
                    code = ranksel_main(argv)
                if code != 0:
                    raise RuntimeError(f"ranksel {' '.join(argv)} exited {code}")
                for file in files:
                    yield f"{name}/{file}", _digest(Path(name, file).read_bytes())
            for name, method in (("pcv", pcv_select), ("cvc", cvc_style_select)):
                for panel in ("cont", "ties"):
                    cs = method(read_loss_panel_csv(f"{panel}.csv"), SelectionConfig(seed=7))
                    yield f"{name}_{panel}", _digest(
                        json.dumps(cs.to_dict(), sort_keys=True).encode("utf-8"))
            yield "case1_n40_sets", _digest(
                json.dumps(_case1_sets(), sort_keys=True).encode("utf-8"))
        finally:
            os.chdir(cwd)


def build_header() -> list[str]:
    """Comment lines naming the NumPy version and its BLAS build."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = " ".join(blas.get("openblas configuration", "").split())
    return [f"# numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')}: {config}".rstrip()]


def acceptance_hashes():
    for name, build in AGGREGATES:
        yield name, _digest(build().encode("utf-8"))


GROUPS = {"cli": cli_hashes, "acceptance": acceptance_hashes}


def main(argv) -> int:
    unknown = [g for g in argv if g not in GROUPS]
    if unknown:
        print(f"unknown group(s) {unknown}; choose from {sorted(GROUPS)}",
              file=sys.stderr)
        return 2
    for line in build_header():
        print(line, flush=True)
    for group in argv or GROUPS:
        for name, digest in GROUPS[group]():
            print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
