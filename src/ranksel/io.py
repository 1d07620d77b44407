"""CSV/JSON exchange, config parsing, and report serialization.

Numbers are written with 17 significant digits so every float round-trips
bit-exactly through CSV. JSON reports use sorted keys; anything
nondeterministic (wall time) stays out of the serialized reports so
identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .ranksum import LossPanel

PANEL_PREFIX = "model_"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def write_loss_panel_csv(path, panel: LossPanel) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([PANEL_PREFIX + mid for mid in panel.model_ids])
        for row in panel.losses:
            writer.writerow([format_float(v) for v in row])


def _parse_cell(raw: str, line_no: int, col_name: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise DataError(
            f"line {line_no}: column '{col_name}' is not numeric ({raw!r})"
        ) from None
    if not np.isfinite(val):
        raise DataError(f"line {line_no}: column '{col_name}' is not finite ({raw!r})")
    return val


def _read_csv_rows(path):
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append((line_no, row))
    return header, rows


def read_loss_panel_csv(path) -> LossPanel:
    """Loss panel from CSV: one column per model, one row per observation."""
    header, rows = _read_csv_rows(path)
    if len(header) < 2:
        raise ConfigError(
            f"{path} has {len(header)} column(s); a loss panel needs at least 2"
        )
    ids = [h[len(PANEL_PREFIX):] if h.startswith(PANEL_PREFIX) else h
           for h in header]
    if len(rows) < 2:
        raise DataError(f"{path} has {len(rows)} data row(s); need at least 2")
    losses = np.empty((len(rows), len(header)))
    for i, (line_no, row) in enumerate(rows):
        for j, raw in enumerate(row):
            losses[i, j] = _parse_cell(raw.strip(), line_no, header[j])
    return LossPanel(losses=losses, model_ids=tuple(ids))


def read_xy_csv(path, response: str):
    """(x, y, feature_names) from a CSV with a named response column."""
    header, rows = _read_csv_rows(path)
    if response not in header:
        raise ConfigError(
            f"response column {response!r} not found in {path} "
            f"(columns: {', '.join(header)}); check --response"
        )
    y_col = header.index(response)
    feat_cols = [j for j in range(len(header)) if j != y_col]
    if not feat_cols:
        raise ConfigError(f"{path} has no feature columns besides {response!r}")
    if len(rows) < 2:
        raise DataError(f"{path} has {len(rows)} data row(s); need at least 2")
    x = np.empty((len(rows), len(feat_cols)))
    y = np.empty(len(rows))
    for i, (line_no, row) in enumerate(rows):
        y[i] = _parse_cell(row[y_col].strip(), line_no, response)
        for k, j in enumerate(feat_cols):
            x[i, k] = _parse_cell(row[j].strip(), line_no, header[j])
    return x, y, [header[j] for j in feat_cols]


def parse_config_file(path) -> dict[str, str]:
    """Flat `key = value` file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    out: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path} line {line_no}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


@dataclass(frozen=True)
class RunConfig:
    """Echo of everything that determines a run's output."""

    command: str
    seed: int
    data_path: str = ""
    response: str = ""
    learners: tuple[str, ...] = ()
    losses_path: str = ""
    case: str = ""
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["learners"] = list(self.learners)
        return d


@dataclass
class ReportBundle:
    """A run's outputs: config echo, payload, diagnostics, wall time.

    Wall time is reported on the console only; serialized reports contain
    just the deterministic fields.
    """

    version: str
    config: RunConfig
    payload: dict
    diagnostics: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def report_dict(self) -> dict:
        return {"version": self.version, "config": self.config.to_dict(),
                "payload": self.payload, "diagnostics": self.diagnostics}

    def write_report(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "report.json"
        write_json(path, self.report_dict())
        return path


def write_pvalues_csv(path, confidence_set) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "p_value", "selected"])
        selected = set(confidence_set.selected)
        for i, mid in enumerate(confidence_set.model_ids):
            writer.writerow([mid, format_float(confidence_set.p_values[i]),
                             int(i in selected)])


def write_replicates_csv(path, rows) -> None:
    keys: list[str] = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in rows:
            out = []
            for k in keys:
                v = row.get(k, "")
                if isinstance(v, bool):
                    v = int(v)
                elif isinstance(v, float):
                    v = format_float(v)
                out.append(v)
            writer.writerow(out)


def write_plot_data(out_dir, report) -> None:
    """Two whitespace-separated plot files: sizes and rates versus n."""
    out = Path(out_dir)
    n = report.config["n"]
    if report.case == "case1":
        size_metric, rate_metric = "set_size", "correct_rate"
    else:
        size_metric, rate_metric = "nonzeros", "oracle_rate"
    lines_size = ["# n value method"]
    lines_rate = ["# n value method"]
    for method in sorted(report.metrics):
        stats = report.metrics[method]
        if size_metric in stats:
            lines_size.append(f"{n} {format_float(stats[size_metric]['mean'])} {method}")
        if rate_metric in stats:
            lines_rate.append(f"{n} {format_float(stats[rate_metric]['mean'])} {method}")
    (out / "setsize_vs_n.dat").write_text("\n".join(lines_size) + "\n",
                                          encoding="utf-8")
    (out / "rates.dat").write_text("\n".join(lines_rate) + "\n", encoding="utf-8")
