"""CSV/JSON exchange, config parsing, and report serialization.

Numbers are written with 17 significant digits so every float round-trips
bit-exactly through CSV. JSON reports use sorted keys; anything
nondeterministic (wall time) stays out of the serialized reports so
identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
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


def _read_csv_rows(path):
    """A CSV file's stripped header and its body.

    The body is one float array when NumPy's C parser, which reads a cell
    with ``float()``'s routine for ASCII text, finds one finite value per
    header field in every record. Otherwise it is the (line number,
    fields) records that ``csv.reader`` splits, each numbered by the line
    it ends on, for ``_parse_rows`` to convert: cells that only ``float()``
    reads (``1_0``, Unicode digits) and bad cells take that path.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        return _read_csv_text(fh, path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None
    finally:
        fh.close()


def _read_csv_text(fh, path):
    """``_read_csv_rows`` on an open text file."""
    reader = csv.reader(fh)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError(f"{path} is empty") from None
    try:
        # A header-only body warns; as an error it takes the path below.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                              dtype=float, ndmin=2)
        if body.shape[1] == len(header) and np.isfinite(body).all():
            return header, body
    except (ValueError, UserWarning):
        pass
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
            )
        rows.append((reader.line_num, row))
    return header, rows


def _parse_rows(rows, header, order) -> np.ndarray:
    """The body from ``_read_csv_rows`` as a (rows, len(header)) array.

    Records are converted row by row, each row's cells in ``order``, so
    the DataError names the first bad cell in that order.
    """
    if isinstance(rows, np.ndarray):
        return rows
    out = np.empty((len(rows), len(header)))
    for i, (line_no, row) in enumerate(rows):
        for j in order:
            raw = row[j].strip()
            try:
                out[i, j] = float(raw)
            except ValueError:
                raise DataError(f"line {line_no}: column '{header[j]}' is not "
                                f"numeric ({raw!r})") from None
            if not math.isfinite(out[i, j]):
                raise DataError(f"line {line_no}: column '{header[j]}' is not "
                                f"finite ({raw!r})")
    return out


def read_loss_panel_csv(path) -> LossPanel:
    """Loss panel from CSV: one column per model, one row per observation."""
    header, rows = _read_csv_rows(path)
    if len(header) < 2:
        raise ConfigError(
            f"{path} has {len(header)} column(s); a loss panel needs at least 2"
        )
    columns: dict[str, int] = {}
    for col, name in enumerate(header, start=1):
        mid = name[len(PANEL_PREFIX):] if name.startswith(PANEL_PREFIX) else name
        if not mid:
            raise DataError(f"{path}: column {col} ({name!r}) gives an empty model id")
        if mid in columns:
            raise DataError(f"{path}: columns {columns[mid]} and {col} both give "
                            f"model id {mid!r}")
        columns[mid] = col
    losses = _parse_rows(rows, header, range(len(header)))
    # RSR needs 4 points; checked after the cells, so a bad cell is named first.
    if len(rows) < 4:
        raise DataError(f"{path} has {len(rows)} data row(s); need at least 4")
    return LossPanel(losses=losses, model_ids=tuple(columns))


def read_xy_csv(path, response: str):
    """(x, y, feature_names) from a CSV with a named response column."""
    header, rows = _read_csv_rows(path)
    first: dict[str, int] = {}
    for col, name in enumerate(header, start=1):
        if first.setdefault(name, col) != col:
            raise DataError(f"{path}: columns {first[name]} and {col} are both "
                            f"named {name!r}")
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
    # The response leads, so a bad row reports its response cell first.
    values = _parse_rows(rows, header, [y_col, *feat_cols])
    x = values.take(feat_cols, axis=1)   # take, not [:, cols]: x stays C-ordered
    y = values[:, y_col].copy()
    return x, y, [header[j] for j in feat_cols]


def parse_config_file(path) -> dict[str, str]:
    """Flat `key = value` file; '#' starts a comment; each key is set once."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text ({exc.reason})") from None
    out: dict[str, tuple[int, str]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path} line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}: key {key!r} is set on line {out[key][0]} "
                              f"and again on line {line_no}")
        out[key] = (line_no, value)
    return {key: value for key, (_, value) in out.items()}


@dataclass(frozen=True)
class RunConfig:
    """Echo of everything that determines a run's output."""

    command: str
    seed: int
    data_path: str = ""
    response: str = ""
    learners: tuple[str, ...] = ()
    losses_path: str = ""
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["learners"] = list(self.learners)
        return d


@dataclass
class ReportBundle:
    """A run's report: version, config echo and payload, all deterministic.

    Wall time is reported on the console only.
    """

    version: str
    config: RunConfig
    payload: dict

    def report_dict(self) -> dict:
        return {"version": self.version, "config": self.config.to_dict(),
                "payload": self.payload}

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
