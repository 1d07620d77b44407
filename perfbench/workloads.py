"""The benchmark's four workloads: inputs from a seed, one job, output checks.

Each workload turns the benchmark seed into inputs (``setup``), runs one
job through the public API or the CLI entry point (``run``, the only timed
call), reads the job's outputs back as named byte strings (``collect``) and
checks them independently of the code under test (``check``). Jobs that
share a ``key`` must produce identical bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ranksel import cli, simlab


@dataclass(frozen=True)
class SimWorkload:
    """Job i is simulation replicate i of a config seeded by the benchmark seed."""

    name: str
    case: str                    # "case1" or "case2"
    params: dict
    why: str
    trace_jobs: int

    def setup(self, seed: int, workdir: Path):
        config_cls = simlab.Case1Config if self.case == "case1" else simlab.Case2Config
        return config_cls(seed=seed, threads=1, **self.params)

    def run(self, config, i: int):
        replicate = getattr(simlab, f"{self.case}_replicate")
        return replicate(config, i)

    def collect(self, config, rows) -> dict[str, bytes]:
        return {"rows.json": json.dumps(rows, sort_keys=True).encode()}

    def key(self, i: int) -> int:
        return i

    def n_models(self, config) -> int:
        return 2 ** simlab.CASE1_D if self.case == "case1" else config.k_path

    def check(self, config, key: int, output: dict[str, bytes]) -> list[str]:
        return check_sim_rows(json.loads(output["rows.json"]), key, self.case,
                              tuple(config.methods), self.n_models(config))


def check_sim_rows(rows, rep: int, case: str, methods, n_models: int) -> list[str]:
    """One row per method, set sizes in range, cv a singleton, case2 refit sane."""
    problems = []
    if sorted(r.get("method") for r in rows) != sorted(methods):
        problems.append(f"rep {rep}: methods {[r.get('method') for r in rows]}")
    for r in rows:
        tag = f"rep {rep} {r.get('method')}"
        if r.get("rep") != rep:
            problems.append(f"{tag}: row labelled rep {r.get('rep')}")
        size = r.get("set_size")
        if not isinstance(size, int) or not 0 <= size <= n_models:
            problems.append(f"{tag}: set_size {size!r} outside [0, {n_models}]")
        if r.get("method") == "cv" and size != 1:
            problems.append(f"{tag}: cv set_size {size!r} != 1")
        if case == "case2":
            idx = r.get("chosen_index")
            if not isinstance(idx, int) or not 0 <= idx < n_models:
                problems.append(f"{tag}: chosen_index {idx!r} out of range")
            err = r.get("cv_error")
            if not isinstance(err, float) or not math.isfinite(err) or err <= 0:
                problems.append(f"{tag}: cv_error {err!r} not finite and positive")
    return problems


@dataclass
class PanelInputs:
    losses: np.ndarray
    argv: list[str]
    out_dir: Path
    alpha: float
    counts: tuple | None = field(default=None, repr=False)


@dataclass(frozen=True)
class PanelWorkload:
    """Job: ``ranksel panel`` in-process on a loss CSV written at set-up.

    ``kind`` is "cont" (tie-free heavy-tailed losses) or "ties" (0/1
    losses). Every job reruns the same command, so all reports must match.
    """

    name: str
    kind: str
    n: int
    n_models: int
    why: str
    trace_jobs: int = 1
    B: int = 500
    alpha: float = 0.1

    def make_losses(self, seed: int) -> np.ndarray:
        n, m = self.n, self.n_models
        if self.kind == "cont":
            gen = np.random.default_rng([seed, 1])
            # Absolute errors of models sharing Cauchy noise, each with its
            # own Cauchy error of a different scale (quality spread).
            shared = gen.standard_cauchy(n)[:, None]
            scale = np.linspace(0.5, 3.0, m)[gen.permutation(m)]
            losses = np.abs(0.5 * shared + scale * gen.standard_cauchy((n, m)))
            if np.unique(losses).size != losses.size:
                raise ValueError(f"seed {seed} gave tied losses; the panel must be tie-free")
            return losses
        gen = np.random.default_rng([seed, 2])
        win_rate = np.linspace(0.3, 0.5, m)[gen.permutation(m)]
        return (gen.random((n, m)) >= win_rate).astype(float)

    def setup(self, seed: int, workdir: Path) -> PanelInputs:
        workdir.mkdir(parents=True, exist_ok=True)
        losses = self.make_losses(seed)
        csv_path = workdir / "panel.csv"
        header = ",".join(f"model_{self.kind}{j:03d}" for j in range(self.n_models))
        # %.17g round-trips every float64 exactly.
        np.savetxt(csv_path, losses, fmt="%.17g", delimiter=",", header=header,
                   comments="")
        out_dir = workdir / "out"
        argv = ["panel", "--losses", str(csv_path), "--alpha", repr(self.alpha),
                "--B", str(self.B), "--seed", str(seed), "--out", str(out_dir)]
        return PanelInputs(losses=losses, argv=argv, out_dir=out_dir, alpha=self.alpha)

    def run(self, inputs: PanelInputs, i: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(inputs.argv)
        if code != 0:
            raise RuntimeError(f"ranksel panel exited with {code}")
        return code

    def collect(self, inputs: PanelInputs, result) -> dict[str, bytes]:
        # Files are removed once read, so a later job that writes nothing
        # cannot pass on an earlier job's output.
        out = {}
        for name in ("report.json", "pvalues.csv"):
            path = inputs.out_dir / name
            out[name] = path.read_bytes()
            path.unlink()
        return out

    def key(self, i: int) -> int:
        return 0

    def check(self, inputs: PanelInputs, key: int, output: dict[str, bytes]) -> list[str]:
        if inputs.counts is None:
            inputs.counts = rank_counts(inputs.losses)
        return check_panel_report(inputs.losses, inputs.alpha,
                                  json.loads(output["report.json"]), inputs.counts)


def rank_counts(losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """strict[m, j] = #{(k, l): x[k, m] < x[l, j]}; tied[m, j] counts ==."""
    n, m = losses.shape
    strict = np.empty((m, m), dtype=np.int64)
    tied = np.empty((m, m), dtype=np.int64)
    for j in range(m):
        b = np.sort(losses[:, j])
        hi = np.searchsorted(b, losses, side="right")
        lo = np.searchsorted(b, losses, side="left")
        strict[:, j] = (n - hi).sum(axis=0)
        tied[:, j] = (hi - lo).sum(axis=0)
    return strict, tied


def check_panel_report(losses: np.ndarray, alpha: float, report: dict,
                       counts=None) -> list[str]:
    """Check a ``ranksel panel`` report against the panel it was run on.

    For every reference m with kept competitors K (all j != m minus
    ``screened_out[m]``), t_obs = sqrt(n) * min_{j in K} (u_mj - 1/2) where
    u_mj counts strict wins plus the tie coins that came up for m. So t_obs
    lies between the values built from strict wins alone and from strict
    wins plus every tied pair; on a tie-free panel both bounds coincide and
    t_obs must equal them exactly.
    """
    n, m_models = losses.shape
    strict, tied = counts if counts is not None else rank_counts(losses)
    cs = report["payload"]["confidence_set"]
    p = np.asarray(cs["p_values"], dtype=float)
    if p.shape != (m_models,):
        return [f"{p.size} p-values for {m_models} models"]
    problems = []
    if not np.all((p >= 0.0) & (p <= 1.0)):
        problems.append(f"p-values outside [0, 1]: {p[~((p >= 0.0) & (p <= 1.0))]}")
    expected = [i for i in range(m_models) if p[i] >= alpha]
    if cs["selected"] != expected:
        problems.append(f"selected {cs['selected']} != {{i : p_i >= {alpha}}} = {expected}")
    root_n = math.sqrt(n)
    pairs = n * n
    for m in range(m_models):
        dropped = set(cs["screened_out"].get(str(m), ()))
        kept = [j for j in range(m_models) if j != m and j not in dropped]
        t_obs = cs["diagnostics"][str(m)]["t_obs"]
        if not kept:
            if t_obs != math.inf:
                problems.append(f"model {m}: no competitor kept but t_obs = {t_obs!r}")
            continue
        low = root_n * min(float(strict[m, j]) / pairs - 0.5 for j in kept)
        high = root_n * min(float(strict[m, j] + tied[m, j]) / pairs - 0.5 for j in kept)
        if not low <= t_obs <= high:
            problems.append(f"model {m}: t_obs {t_obs!r} outside [{low!r}, {high!r}]")
    return problems


WORKLOADS = {w.name: w for w in (
    SimWorkload(
        name="case1", case="case1", trace_jobs=4,
        params=dict(n=320, x_df=3.0, B=500, V=5),
        why="Case 1 replicate (n=320, 16 Huber subset models, B=500): multiplier "
            "draws and IRLS fits dominate; pair stats at small n"),
    SimWorkload(
        name="case2", case="case2", trace_jobs=1,
        params=dict(n=200, p=200, noise_df=3.0, rho=0.25, k_path=50, folds=5, B=500),
        why="Case 2 replicate at (200, 200), 50-point path, 5 folds: the "
            "Huber-lasso solver dominates; panel layers are small"),
    PanelWorkload(
        name="panel_cont", kind="cont", n=1000, n_models=50,
        why="ranksel panel on a tie-free Cauchy loss CSV, n=1000, M=50: "
            "pair_stats on its sorted path dominates; learners never run"),
    PanelWorkload(
        name="panel_ties", kind="ties", n=1000, n_models=10,
        why="ranksel panel on 0/1 losses, n=1000, M=10, win rates 0.3-0.5: the "
            "per-row tie-coin loop dominates the same ranksum layer"),
)}
