"""Command-line entry points.

    ranksel select   --data d.csv --response y --learners ols,huber \
                     --alpha 0.1 --folds 5 --seed 1 --out results/
    ranksel panel    --losses panel.csv --alpha 0.1 --B 500 --seed 1 --out results/
    ranksel simulate case1|case2 --config run.cfg --out results/ [--set key=value]

Exit codes: 0 success, 2 usage/config error or an unwritable --out, 3 data
error, 4 a learner or numerical failure (LearnerError, LinAlgError,
FloatingPointError) or running out of memory. Seeds are mandatory; there is
no entropy default.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ContractError, DataError, LearnerError
from .io import (ReportBundle, RunConfig, parse_config_file, read_loss_panel_csv,
                 read_xy_csv, write_plot_data, write_pvalues_csv,
                 write_replicates_csv)
from .models import (Dataset, adaptive_tau, fit_huber_adaptive, fit_huber_lasso,
                     fit_ols, lambda_path, robust_scale)
from .select import Candidate, SelectionConfig, rsr_from_candidates, rsr_from_panel
from .simlab import Case1Config, Case2Config, run_case1, run_case2

# The lasso-tuning study in the source experiments runs at exactly these
# shapes; the CLI refuses others so reported tables stay comparable.
CASE2_SUPPORTED_DIMS = ((200, 200), (400, 2000))


def _learner_huber_lasso(data: Dataset):
    tau = adaptive_tau(data.n, data.d, robust_scale(data.y))
    path = lambda_path(data, k_path=10, tau=tau)
    lam = float(path[path.size // 2])
    return fit_huber_lasso(data, lam=lam, tau=tau)


LEARNERS = {
    "ols": fit_ols,
    "huber": fit_huber_adaptive,
    "huber_lasso": _learner_huber_lasso,
}


def _candidates_from_names(names):
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConfigError(f"learner {name!r} is listed twice")
        if name not in LEARNERS:
            raise ConfigError(
                f"unknown learner {name!r}; available: {', '.join(sorted(LEARNERS))}")
    if len(names) < 2:
        raise ConfigError("need at least two learners; pass --learners a,b")
    return [Candidate(model_id=name, fit=LEARNERS[name]) for name in names]


def _selection_options(parser):
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--alpha-screen", type=float, default=0.1)
    parser.add_argument("--s", type=float, default=0.01,
                        help="screening threshold exponent")
    parser.add_argument("--B", type=int, default=500, help="bootstrap draws")
    parser.add_argument("--no-screening", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranksel",
        description="Rank-sum based robust model selection")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sel = sub.add_parser("select", help="select among learners on a dataset")
    p_sel.add_argument("--data", required=True, help="CSV with header row")
    p_sel.add_argument("--response", required=True, help="response column name")
    p_sel.add_argument("--learners", required=True,
                       help="comma-separated learner names")
    p_sel.add_argument("--folds", type=int, default=5,
                       help="V-fold count; 0 = plain sample splitting")
    _selection_options(p_sel)
    p_sel.set_defaults(func=cmd_select)

    p_pan = sub.add_parser("panel", help="select directly from a loss panel CSV")
    p_pan.add_argument("--losses", required=True,
                       help="CSV of per-observation losses, one column per model")
    _selection_options(p_pan)
    p_pan.set_defaults(func=cmd_panel)

    p_sim = sub.add_parser("simulate", help="run a simulation study")
    p_sim.add_argument("case", choices=("case1", "case2"))
    p_sim.add_argument("--config", required=True, help="flat key=value file")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (repeatable)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _selection_config(args) -> SelectionConfig:
    """Selection settings from the flags; a rejected value is a usage error."""
    try:
        return SelectionConfig(seed=args.seed, alpha=args.alpha,
                               alpha_screen=args.alpha_screen, s=args.s, B=args.B,
                               V=getattr(args, "folds", 0),
                               screening_enabled=not args.no_screening)
    except ContractError as exc:
        raise ConfigError(str(exc)) from None


def _settings_echo(config: SelectionConfig) -> dict:
    """The selection settings that report.json echoes, read back from the
    validated config; `select` adds its fold count."""
    return {"alpha": config.alpha, "alpha_screen": config.alpha_screen,
            "s": config.s, "B": config.B,
            "screening": config.screening_enabled}


def _write_selection_outputs(run_cfg: RunConfig, confidence_set, out_dir):
    bundle = ReportBundle(version=__version__, config=run_cfg,
                          payload={"confidence_set": confidence_set.to_dict()})
    bundle.write_report(out_dir)
    write_pvalues_csv(Path(out_dir) / "pvalues.csv", confidence_set)


def cmd_select(args) -> int:
    start = time.perf_counter()
    config = _selection_config(args)
    names = tuple(n.strip() for n in args.learners.split(",") if n.strip())
    candidates = _candidates_from_names(names)
    x, y, _features = read_xy_csv(args.data, args.response)
    data = Dataset(x=x, y=y)
    cs = rsr_from_candidates(candidates, data, config)
    params = {**_settings_echo(config), "folds": args.folds}
    run_cfg = RunConfig(command="select", seed=config.seed, data_path=args.data,
                        response=args.response, learners=names, params=params)
    _write_selection_outputs(run_cfg, cs, args.out)
    print(f"selected {cs.set_size}/{len(cs.model_ids)} models: "
          f"{', '.join(cs.selected_ids)} ({time.perf_counter() - start:.2f}s)")
    return 0


def cmd_panel(args) -> int:
    start = time.perf_counter()
    config = _selection_config(args)
    panel = read_loss_panel_csv(args.losses)
    cs = rsr_from_panel(panel, config, method="rsr_panel")
    run_cfg = RunConfig(command="panel", seed=config.seed, losses_path=args.losses,
                        params=_settings_echo(config))
    _write_selection_outputs(run_cfg, cs, args.out)
    print(f"selected {cs.set_size}/{len(cs.model_ids)} models "
          f"({time.perf_counter() - start:.2f}s)")
    return 0


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# Config-file value parsers, keyed by the case config field's annotation.
_FIELD_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[str, ...]": lambda raw: tuple(v.strip() for v in raw.split(",")
                                         if v.strip()),
}


def _case_config(case: str, entries: dict[str, str]):
    cls = Case1Config if case == "case1" else Case2Config
    parsers = {f.name: _FIELD_PARSERS[f.type] for f in dataclass_fields(cls)}
    kwargs = {}
    for key, raw in entries.items():
        if key not in parsers:
            raise ConfigError(
                f"unknown config key {key!r} for {case}; "
                f"valid keys: {', '.join(sorted(parsers))}")
        try:
            kwargs[key] = parsers[key](raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    if "seed" not in kwargs:
        raise ConfigError("config must set an explicit seed")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"incomplete {case} config: {exc}") from None


def cmd_simulate(args) -> int:
    start = time.perf_counter()
    entries = parse_config_file(args.config)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        entries[key.strip()] = value.strip()
    config = _case_config(args.case, entries)
    if args.case == "case2" and (config.n, config.p) not in CASE2_SUPPORTED_DIMS:
        dims = ", ".join(f"({n}, {p})" for n, p in CASE2_SUPPORTED_DIMS)
        raise ConfigError(
            f"unsupported (n, p) = ({config.n}, {config.p}); supported: {dims}")
    # Made before the study runs, so an unwritable --out fails at once.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = run_case2(config) if args.case == "case2" else run_case1(config)
    (out / "aggregate.json").write_text(report.to_json(), encoding="utf-8")
    write_replicates_csv(out / "replicates.csv", report.replicates)
    write_plot_data(out, report)
    elapsed = time.perf_counter() - start
    print(f"{args.case}: {report.reps} replicates -> {out} ({elapsed:.1f}s)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ranksel: {exc}", file=sys.stderr)
        return 2
    except (DataError, ContractError) as exc:
        print(f"ranksel: {exc}", file=sys.stderr)
        return 3
    except (LearnerError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"ranksel: numerical failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"ranksel: out of memory: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # Reads raise DataError or ConfigError, so an OSError is a write.
        print(f"ranksel: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
