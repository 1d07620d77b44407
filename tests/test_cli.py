import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ranksel import LossPanel, SelectionConfig, rsr_from_panel
from ranksel.cli import main
from ranksel.errors import ConfigError, DataError
from ranksel.io import (PANEL_PREFIX, RunConfig, format_float, parse_config_file,
                        read_loss_panel_csv, read_xy_csv)


# Every selection flag shared by `select` and `panel`, each off its default.
NON_DEFAULT_FLAGS = ["--alpha-screen", "0.3", "--s", "0.5", "--B", "200",
                     "--no-screening"]


def write_loss_panel_csv(path, panel: LossPanel) -> None:
    """The CSV that read_loss_panel_csv reads back bit for bit."""
    _write_csv(path, [PANEL_PREFIX + mid for mid in panel.model_ids],
               [[format_float(v) for v in row] for row in panel.losses])


def _write_csv(path, header, rows, encoding="utf-8"):
    with open(path, "w", newline="", encoding=encoding) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def panel_csv(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "panel.csv"
    losses = np.abs(rng.standard_normal((40, 3)))
    losses[:, 2] += 5.0   # clearly dominated column
    panel = LossPanel(losses=losses, model_ids=("a", "b", "c"))
    write_loss_panel_csv(path, panel)
    return path, panel


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(2)
    n = 60
    x = rng.standard_normal((n, 2))
    y = 1.0 + 2.0 * x[:, 0] + 0.5 * rng.standard_normal(n)
    path = tmp_path / "data.csv"
    _write_csv(path, ["x1", "x2", "y"],
               [[x[i, 0], x[i, 1], y[i]] for i in range(n)])
    return path


class TestPanelCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        panel = LossPanel(losses=rng.standard_normal((25, 4)) ** 2,
                          model_ids=("m1", "m2", "m3", "m4"))
        path = tmp_path / "rt.csv"
        write_loss_panel_csv(path, panel)
        back = read_loss_panel_csv(path)
        np.testing.assert_array_equal(back.losses, panel.losses)
        assert back.model_ids == panel.model_ids

    def test_nonnumeric_cell_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_csv(path, ["model_a", "model_b"], [[1.0, 2.0], ["oops", 3.0]])
        with pytest.raises(DataError, match=r"line 3.*'model_a'"):
            read_loss_panel_csv(path)

    def test_nan_cell_rejected_with_location(self, tmp_path):
        path = tmp_path / "nan.csv"
        _write_csv(path, ["model_a", "model_b"], [[1.0, 2.0], ["nan", 3.0]])
        with pytest.raises(DataError, match="line 3"):
            read_loss_panel_csv(path)

    @pytest.mark.parametrize("rows, message", [
        ([["1.0", "2.0"], ["inf", "oops"]], "line 3: column 'model_a' is not finite ('inf')"),
        ([["1.0", "nan"], ["oops", "3.0"]], "line 2: column 'model_b' is not finite ('nan')"),
        ([["1.0", "2.0"], ["x1", "-inf"]], "line 3: column 'model_a' is not numeric ('x1')"),
        ([["1.0", " 2,5 "], ["nan", "3.0"]], "line 2: column 'model_b' is not numeric ('2,5')"),
        ([["1_0", "2.0"], ["3.0", "0x10"]], "line 3: column 'model_b' is not numeric ('0x10')"),
        ([["1_0", " 1e309 "], ["x", "3.0"]], "line 2: column 'model_b' is not finite ('1e309')"),
    ])
    def test_first_bad_cell_in_row_order_is_reported(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        _write_csv(path, ["model_a", "model_b"], rows)
        with pytest.raises(DataError) as info:
            read_loss_panel_csv(path)
        assert str(info.value) == message

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        with open(path, "w") as fh:
            fh.write("model_a,model_b\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="line 3"):
            read_loss_panel_csv(path)

    def test_bad_cell_names_its_physical_line(self, tmp_path):
        # The quoted first cell spans lines 2-3, so 'oops' sits on line 5,
        # although it is the file's fourth record.
        path = tmp_path / "multiline.csv"
        path.write_text('model_a,model_b\n"1.0\n",2.0\n3.0,4.0\n5.0,oops\n')
        with pytest.raises(DataError) as info:
            read_loss_panel_csv(path)
        assert str(info.value) == "line 5: column 'model_b' is not numeric ('oops')"

    def test_single_column_usage_error(self, tmp_path):
        path = tmp_path / "one.csv"
        _write_csv(path, ["model_a"], [[1.0], [2.0]])
        with pytest.raises(ConfigError):
            read_loss_panel_csv(path)

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        _write_csv(path, ["model_a", "model_b"], [[1.0, 2.0]])
        with pytest.raises(DataError):
            read_loss_panel_csv(path)


# Cells that float() reads and a narrower parser might not: an underscore
# digit group, padding (ASCII and Unicode spaces), Unicode digits, a signed
# zero and a 17-digit value.
FLOAT_CELLS = ["1_0", " 2.5 ", "\u00a01.5\u2003", "\u0661\u0662", "-0.0",
               "0.10000000000000001"]


def _same_bits(got, cells):
    want = np.array([float(c) for c in cells])
    return got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestCellConversion:
    def test_panel_cells_read_as_float_reads_them(self, tmp_path):
        path = tmp_path / "cells.csv"
        rows = [[cell, str(k)] for k, cell in enumerate(FLOAT_CELLS)]
        _write_csv(path, ["model_a", "model_b"], rows)
        panel = read_loss_panel_csv(path)
        assert _same_bits(panel.losses[:, 0], FLOAT_CELLS)
        assert panel.losses.flags["C_CONTIGUOUS"]

    def test_xy_cells_read_as_float_reads_them(self, tmp_path):
        path = tmp_path / "cells.csv"
        rows = [[str(k), cell, cell] for k, cell in enumerate(FLOAT_CELLS)]
        _write_csv(path, ["x1", "y", "x2"], rows)
        x, y, names = read_xy_csv(path, "y")
        assert names == ["x1", "x2"]
        assert _same_bits(y, FLOAT_CELLS)
        assert _same_bits(x[:, 1], FLOAT_CELLS)
        assert x.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("rows, message", [
        ([["1_0", "2.0", "3"], ["4", "0x10", "nan"]], "line 3: column 'y' is not finite ('nan')"),
        ([["1_0", "2.0", "3"], ["4", "0x10", "5"]], "line 3: column 'x1' is not numeric ('0x10')"),
        ([["1", "2", " infinity "], ["x", "y", "z"]], "line 2: column 'y' is not finite ('infinity')"),
    ])
    def test_xy_first_bad_cell_is_reported(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        _write_csv(path, ["z", "x1", "y"], rows)
        with pytest.raises(DataError) as info:
            read_xy_csv(path, "y")
        assert str(info.value) == message

    @pytest.mark.parametrize("n_rows, need", [(0, 4), (3, 4)])
    def test_short_panel_names_its_row_count(self, tmp_path, n_rows, need):
        path = tmp_path / "short.csv"
        _write_csv(path, ["model_a", "model_b"], [["1_0", " 2 "]] * n_rows)
        with pytest.raises(DataError) as info:
            read_loss_panel_csv(path)
        assert str(info.value) == f"{path} has {n_rows} data row(s); need at least {need}"

    def test_header_only_xy_names_its_row_count(self, tmp_path):
        path = tmp_path / "header.csv"
        _write_csv(path, ["x1", "y"], [])
        with pytest.raises(DataError) as info:
            read_xy_csv(path, "y")
        assert str(info.value) == f"{path} has 0 data row(s); need at least 2"


def _read_panel_oracle(path) -> np.ndarray:
    """read_loss_panel_csv spelled out: csv.reader splits the records, and
    float() reads each cell, row by row and left to right."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"line {reader.line_num}: expected {len(header)} "
                                f"fields, got {len(row)}")
            rows.append((reader.line_num, row))
    if len(header) < 2:
        raise ConfigError(f"{path} has {len(header)} column(s); a loss panel "
                          f"needs at least 2")
    values = []
    for line_no, row in rows:
        for name, raw in zip(header, row):
            raw = raw.strip()
            try:
                val = float(raw)
            except ValueError:
                raise DataError(f"line {line_no}: column '{name}' is not numeric "
                                f"({raw!r})") from None
            if not math.isfinite(val):
                raise DataError(f"line {line_no}: column '{name}' is not finite "
                                f"({raw!r})")
            values.append(val)
    if len(rows) < 4:
        raise DataError(f"{path} has {len(rows)} data row(s); need at least 4")
    return np.array(values).reshape(len(rows), len(header))


def _outcome(read, path):
    """("ok", array bytes, shape) or (error type, message)."""
    try:
        values = read(path)
    except (ConfigError, DataError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", values.tobytes(), values.shape


_CELL_TOKENS = [*"0123456789+-.e_\u0661 \t", "nan", "inf"]
_LINE_ENDS = ["\n", "\r\n"]
_number = st.floats(width=64).flatmap(
    lambda v: st.sampled_from([format(v, ".17g"), repr(v)]))
# Cells float() reads and NumPy's C parser refuses.
_float_only = st.sampled_from(["1_0", "2_5e-1", "\u0661", "\u0662.\u0665"])
_token_cell = st.lists(st.sampled_from(_CELL_TOKENS), max_size=6).map("".join)
# A quoted cell may hold commas, quotes (doubled) and line ends.
_quoted_cell = st.lists(st.sampled_from([*_CELL_TOKENS, ",", '""', *_LINE_ENDS]),
                        max_size=6).map(lambda parts: '"' + "".join(parts) + '"')
_cell = st.one_of(_number, _float_only, _token_cell, _quoted_cell)
_junk = st.lists(st.sampled_from([*_CELL_TOKENS, '"', ",", *_LINE_ENDS]),
                 max_size=12).map("".join)


@st.composite
def _panel_csv_text(draw) -> str:
    """A header of 1-3 model columns and up to 7 records: mostly numbers,
    some arbitrary cells, the odd stretch of junk, and mixed line ends.
    The records are now and then one width that differs from the header's."""
    line_end = st.sampled_from(_LINE_ENDS)
    width = draw(st.integers(1, 3))
    parts = [",".join(f"model_{c}" for c in "abc"[:width]) + draw(line_end)]
    width = draw(st.sampled_from([width] * 4 + [1, 2, 3]))
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.integers(0, 9))
        if kind == 9:
            parts.append(draw(_junk))
            continue
        cell = _number if kind < 6 else st.one_of(_number, _cell)
        cells = draw(st.lists(cell, min_size=width, max_size=width))
        parts.append(",".join(cells) + draw(line_end))
    return "".join(parts)


class TestCsvReader:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_panel_csv_text())
    def test_reads_as_csv_reader_and_float_do(self, tmp_path, text):
        path = tmp_path / "panel.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        got = _outcome(lambda p: read_loss_panel_csv(p).losses, path)
        assert got == _outcome(_read_panel_oracle, path)

    def test_peak_memory_stays_near_the_array(self, tmp_path):
        rng = np.random.default_rng(5)
        losses = np.abs(rng.standard_cauchy((20_000, 10)))
        path = tmp_path / "tall.csv"
        write_loss_panel_csv(path, LossPanel(losses, tuple(f"m{j}" for j in range(10))))
        tracemalloc.start()
        try:
            panel = read_loss_panel_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(panel.losses, losses)
        # Holding the cells as strings first would cost about 14x the array.
        assert peak < 2 * losses.nbytes + (256 << 10)


class TestReadXy:
    def test_reads_features_and_response(self, data_csv):
        x, y, names = read_xy_csv(data_csv, "y")
        assert x.shape == (60, 2)
        assert names == ["x1", "x2"]
        assert y.shape == (60,)

    def test_bad_response_cell_reported_before_features(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_csv(path, ["x1", "y"], [[1.0, 2.0], ["oops", "nan"], [3.0, 4.0]])
        with pytest.raises(DataError) as info:
            read_xy_csv(path, "y")
        assert str(info.value) == "line 3: column 'y' is not finite ('nan')"

    def test_missing_response_names_flag(self, data_csv):
        with pytest.raises(ConfigError, match="--response"):
            read_xy_csv(data_csv, "nope")


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nn = 40\nx_df = 3   # inline\n\nseed=7\n")
        assert parse_config_file(path) == {"n": "40", "x_df": "3", "seed": "7"}

    def test_repeated_key_names_both_lines(self, tmp_path):
        # A second `seed = 6` must not silently replace the first.
        path = tmp_path / "c.cfg"
        path.write_text("seed = 5\nn = 40\n# seed = 7\nseed = 6\n")
        with pytest.raises(ConfigError, match="key 'seed' is set on line 1 and again "
                                              "on line 4"):
            parse_config_file(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("n 40\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_file(path)

    def test_runconfig_round_trip(self):
        cfg = RunConfig(command="select", seed=7,
                        data_path="d.csv", response="y", learners=("ols",),
                        params={"alpha": 0.1, "B": 500})
        assert cfg.to_dict() == {"command": "select", "seed": 7, "data_path": "d.csv",
                                 "response": "y", "learners": ["ols"],
                                 "losses_path": "",
                                 "params": {"alpha": 0.1, "B": 500}}


class TestCliSelect:
    def test_runs_and_reports(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["select", "--data", str(data_csv), "--response", "y",
                   "--learners", "ols,huber", "--alpha", "0.1", "--folds", "5",
                   "--seed", "11", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 11
        assert set(report["payload"]["confidence_set"]["model_ids"]) == {"ols", "huber"}
        # the report holds exactly the output-determining fields: no output
        # path, no worker count, no always-empty placeholders
        assert set(report) == {"version", "config", "payload"}
        assert set(report["config"]) == {"command", "seed", "data_path", "response",
                                         "learners", "losses_path", "params"}
        assert str(out).encode() not in (out / "report.json").read_bytes()
        pv = (out / "pvalues.csv").read_text().splitlines()
        assert pv[0] == "model_id,p_value,selected"
        assert len(pv) == 3

    def test_byte_identical_reruns(self, data_csv, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        argv = ["select", "--data", str(data_csv), "--response", "y",
                "--learners", "ols,huber", "--seed", "3", "--folds", "0"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        for name in ("report.json", "pvalues.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_flags_echoed_in_params(self, data_csv, tmp_path):
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="B = 200"):
            rc = main(["select", "--data", str(data_csv), "--response", "y",
                       "--learners", "ols,huber", "--folds", "0",
                       *NON_DEFAULT_FLAGS, "--seed", "4", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["params"] == {
            "alpha": 0.1, "alpha_screen": 0.3, "s": 0.5, "B": 200, "folds": 0,
            "screening": False}

    def test_repeated_column_name_exit_3(self, tmp_path, capsys):
        # A second `y` would otherwise become a feature equal to the response.
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(30), rng.standard_normal(30)
        path = tmp_path / "dup.csv"
        _write_csv(path, ["x1", "y", "y"], np.column_stack([x, y, y]).tolist())
        with pytest.raises(DataError, match="columns 2 and 3"):
            read_xy_csv(path, "y")
        out = tmp_path / "out"
        rc = main(["select", "--data", str(path), "--response", "y",
                   "--learners", "ols,huber", "--seed", "1", "--out", str(out)])
        assert rc == 3
        assert "columns 2 and 3 are both named 'y'" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_missing_response_exit_2(self, data_csv, tmp_path, capsys):
        rc = main(["select", "--data", str(data_csv), "--response", "zz",
                   "--learners", "ols,huber", "--seed", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "--response" in capsys.readouterr().err

    def test_byte_order_mark_before_the_response_column(self, tmp_path):
        # A spreadsheet's UTF-8 export starts with a byte-order mark; it is
        # not part of the first header, here the response's.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 2))
        rows = np.column_stack([1.0 + x[:, 0] + rng.standard_normal(40), x]).tolist()
        _write_csv(plain, ["y", "x1", "x2"], rows)
        _write_csv(marked, ["y", "x1", "x2"], rows, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        for path in (plain, marked):
            assert main(["select", "--data", str(path), "--response", "y",
                         "--learners", "ols,huber", "--seed", "5",
                         "--out", str(tmp_path / path.stem)]) == 0
        assert ((tmp_path / "plain" / "pvalues.csv").read_bytes()
                == (tmp_path / "marked" / "pvalues.csv").read_bytes())

    def test_unknown_learner_exit_2(self, data_csv, tmp_path):
        rc = main(["select", "--data", str(data_csv), "--response", "y",
                   "--learners", "magic", "--seed", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_empty_learners_exit_2(self, data_csv, tmp_path):
        rc = main(["select", "--data", str(data_csv), "--response", "y",
                   "--learners", ",", "--seed", "1", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("learners", ("huber,ols,huber", "ols,ols"))
    def test_repeated_learner_exit_2_before_reading_data(self, learners, data_csv,
                                                         tmp_path, capsys, monkeypatch):
        import ranksel.cli as cli_mod

        def no_read(*args):
            raise AssertionError("the data was read before the learners were checked")

        monkeypatch.setattr(cli_mod, "read_xy_csv", no_read)
        out = tmp_path / "x"
        rc = main(["select", "--data", str(data_csv), "--response", "y",
                   "--learners", learners, "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert "listed twice" in capsys.readouterr().err
        assert not (out / "pvalues.csv").exists()

    @pytest.mark.parametrize("learners", ("ols", "huber_lasso,"))
    def test_one_learner_exit_2_before_reading_data(self, learners, data_csv, tmp_path,
                                                    capsys, monkeypatch):
        # One learner has nothing to be compared against; the list is a usage
        # input, refused before the CSV is read.
        import ranksel.cli as cli_mod

        def no_read(*args):
            raise AssertionError("the data was read before the learners were checked")

        monkeypatch.setattr(cli_mod, "read_xy_csv", no_read)
        out = tmp_path / "x"
        rc = main(["select", "--data", str(data_csv), "--response", "y",
                   "--learners", learners, "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert "at least two learners" in capsys.readouterr().err
        assert not (out / "pvalues.csv").exists()

    def test_seed_is_mandatory(self, data_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--data", str(data_csv), "--response", "y",
                  "--learners", "ols", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestCliPanel:
    def test_matches_library_call(self, panel_csv, tmp_path):
        path, panel = panel_csv
        out = tmp_path / "out"
        rc = main(["panel", "--losses", str(path), "--alpha", "0.1",
                   "--B", "500", "--seed", "21", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        got = report["payload"]["confidence_set"]["p_values"]
        expect = rsr_from_panel(panel, SelectionConfig(seed=21, alpha=0.1, B=500),
                                method="rsr_panel")
        np.testing.assert_array_equal(np.array(got), expect.p_values)
        # dominated model c must be rejected
        assert "c" not in report["payload"]["confidence_set"]["selected_ids"]

    def test_byte_order_mark_is_not_part_of_the_first_model_id(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = np.abs(rng.standard_normal((20, 3))).tolist()
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        _write_csv(plain, ["model_a", "model_b", "model_c"], rows)
        _write_csv(marked, ["model_a", "model_b", "model_c"], rows,
                   encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        for path in (plain, marked):
            assert main(["panel", "--losses", str(path), "--seed", "5",
                         "--out", str(tmp_path / path.stem)]) == 0
        report = json.loads((tmp_path / "marked" / "report.json").read_text())
        assert report["payload"]["confidence_set"]["model_ids"] == ["a", "b", "c"]
        assert ((tmp_path / "plain" / "pvalues.csv").read_bytes()
                == (tmp_path / "marked" / "pvalues.csv").read_bytes())

    def test_nan_cell_exit_3(self, tmp_path):
        path = tmp_path / "nan.csv"
        _write_csv(path, ["model_a", "model_b"], [[1.0, 2.0], ["nan", 1.0]])
        rc = main(["panel", "--losses", str(path), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_single_row_exit_3(self, tmp_path):
        path = tmp_path / "one.csv"
        _write_csv(path, ["model_a", "model_b"], [[1.0, 2.0]])
        rc = main(["panel", "--losses", str(path), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_single_column_exit_2(self, tmp_path):
        path = tmp_path / "one.csv"
        _write_csv(path, ["model_a"], [[1.0], [2.0]])
        rc = main(["panel", "--losses", str(path), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_three_rows_exit_3_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        _write_csv(path, ["model_a", "model_b"], [[1.0, 2.0], [2.0, 1.0], [3.0, 0.5]])
        rc = main(["panel", "--losses", str(path), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert f"{path} has 3 data row(s); need at least 4" in capsys.readouterr().err

    def test_header_only_exit_3_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        _write_csv(path, ["model_a", "model_b"], [])
        rc = main(["panel", "--losses", str(path), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert f"{path} has 0 data row(s); need at least 4" in capsys.readouterr().err

    @pytest.mark.parametrize("header, column, name", [
        (["a", "", "c"], 2, "''"), (["model_a", "model_"], 2, "'model_'")])
    def test_empty_model_id_exit_3(self, tmp_path, capsys, header, column, name):
        path = tmp_path / "empty_id.csv"
        _write_csv(path, header, np.arange(4.0 * len(header)).reshape(4, -1).tolist())
        rc = main(["panel", "--losses", str(path), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert (f"{path}: column {column} ({name}) gives an empty model id"
                in capsys.readouterr().err)

    def test_duplicate_model_id_exit_3(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        _write_csv(path, ["model_a", "b", "a"], np.arange(12.0).reshape(4, 3).tolist())
        rc = main(["panel", "--losses", str(path), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert (f"{path}: columns 1 and 3 both give model id 'a'"
                in capsys.readouterr().err)

    def test_defaults_echoed_in_params(self, panel_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["panel", "--losses", str(panel_csv[0]), "--seed", "4",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["params"] == {
            "alpha": 0.1, "alpha_screen": 0.1, "s": 0.01, "B": 500,
            "screening": True}

    def test_flags_echoed_in_params(self, panel_csv, tmp_path):
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="B = 200"):
            rc = main(["panel", "--losses", str(panel_csv[0]), *NON_DEFAULT_FLAGS,
                       "--seed", "4", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["params"] == {
            "alpha": 0.1, "alpha_screen": 0.3, "s": 0.5, "B": 200,
            "screening": False}

    def test_numerical_failure_exit_4(self, panel_csv, tmp_path, monkeypatch):
        from ranksel.errors import LearnerError
        import ranksel.cli as cli_mod

        def boom(*args, **kwargs):
            raise LearnerError("synthetic blow-up")

        monkeypatch.setattr(cli_mod, "rsr_from_panel", boom)
        rc = main(["panel", "--losses", str(panel_csv[0]), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 4


def _selection_argv(command, data_csv, panel_csv):
    if command == "select":
        return ["select", "--data", str(data_csv), "--response", "y",
                "--learners", "ols,huber"]
    return ["panel", "--losses", str(panel_csv[0])]


INVALID_SELECTION_FLAGS = [
    (command, flags)
    for command in ("select", "panel")
    for flags in (["--alpha", "1.5"], ["--alpha-screen", "0"], ["--s=-1"],
                  ["--s=nan"], ["--s=inf"], ["--B", "50"], ["--folds", "1"],
                  # seeds are used modulo 2**64: -1 would write 2**64 - 1's bytes
                  ["--seed=-1"], ["--seed=18446744073709551616"])
    # panel has no folds
    if not (command == "panel" and flags[0] == "--folds")
]


@pytest.mark.parametrize("command,flags", INVALID_SELECTION_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in INVALID_SELECTION_FLAGS])
def test_invalid_selection_flag_exit_2(command, flags, data_csv, panel_csv, tmp_path,
                                       capsys):
    out = tmp_path / "out"
    rc = main(_selection_argv(command, data_csv, panel_csv)
              + ["--seed", "1", *flags, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("ranksel: ")
    assert not (out / "report.json").exists()


# RSR bootstraps one score, the full two-part projection, and `select` ranks
# |residual|: RSR reads only ranks, so no other loss could move a p-value.
REFUSED_FLAGS = [("panel", "--projection", "row_only"),
                 ("select", "--projection", "symmetrized"),
                 ("select", "--loss", "absolute"), ("select", "--tau", "1.0")]


@pytest.mark.parametrize("command,flag,value", REFUSED_FLAGS,
                         ids=[f"{c}{f}={v}" for c, f, v in REFUSED_FLAGS])
def test_refused_flags_exit_2(command, flag, value, data_csv, panel_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(_selection_argv(command, data_csv, panel_csv)
             + [flag, value, "--seed", "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ("panel", "simulate"))
def test_unwritable_out_exit_2(command, panel_csv, tmp_path, capsys):
    # --out names an existing file, so no directory can be made there.
    out = tmp_path / "afile"
    out.write_text("taken\n")
    if command == "panel":
        argv = ["panel", "--losses", str(panel_csv[0]), "--seed", "1"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 40\nx_df = 3\nreps = 1\nseed = 9\n")
        argv = ["simulate", "case1", "--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ranksel: cannot write output: ")
    assert "Traceback" not in err
    assert out.read_text() == "taken\n"


def _with_byte_ff(path, line_no):
    """Rewrite ``path`` with a 0xff byte, never valid UTF-8, in line ``line_no``."""
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1] = lines[line_no - 1].replace(b",", b"\xff,", 1)
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("line_no", (1, 3))
@pytest.mark.parametrize("command", ("panel", "select"))
def test_non_utf8_input_exit_3_names_the_file(command, line_no, data_csv, panel_csv,
                                              tmp_path, capsys):
    path = panel_csv[0] if command == "panel" else data_csv
    _with_byte_ff(path, line_no)
    with pytest.raises(DataError, match=f"{path} is not UTF-8 text"):
        read_loss_panel_csv(path) if command == "panel" else read_xy_csv(path, "y")
    rc = main([*_selection_argv(command, data_csv, panel_csv), "--seed", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert f"{path} is not UTF-8 text" in capsys.readouterr().err


class TestCliSimulate:
    def _cfg(self, tmp_path, body):
        path = tmp_path / "run.cfg"
        path.write_text(body)
        return path

    def test_case1_smoke_files(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, "n = 40\nx_df = 3\nreps = 2\nseed = 9\n")
        out = tmp_path / "sim"
        rc = main(["simulate", "case1", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["case"] == "case1"
        assert "rsr" in agg["metrics"]
        assert (out / "replicates.csv").exists()
        for name in ("setsize_vs_n.dat", "rates.dat"):
            lines = (out / name).read_text().splitlines()
            assert lines[0].startswith("#")
            assert len(lines) >= 2
            assert all(len(l.split()) == 3 for l in lines[1:])

    def test_seed_required(self, tmp_path):
        cfg = self._cfg(tmp_path, "n = 40\nx_df = 3\nreps = 1\n")
        rc = main(["simulate", "case1", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = self._cfg(tmp_path, "n = 40\nx_df = 3\nseed = 1\nbogus = 2\n")
        rc = main(["simulate", "case1", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_case2_dim_guard_lists_supported(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path,
                        "n = 100\np = 50\nnoise_df = 3\nrho = 0.25\nseed = 1\n")
        rc = main(["simulate", "case2", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "(200, 200)" in err and "(400, 2000)" in err

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"n = 40\nx_df = 3\xff\nseed = 1\n")
        with pytest.raises(ConfigError, match=f"config {cfg} is not UTF-8 text"):
            parse_config_file(cfg)
        rc = main(["simulate", "case1", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"config {cfg} is not UTF-8 text" in capsys.readouterr().err

    def test_config_with_byte_order_mark_is_read(self, tmp_path):
        # Editors that save UTF-8 with a BOM must not turn the first key into
        # '\ufeffn'; the run matches the one on the same file without it.
        body = "n = 40\nx_df = 3\nreps = 1\nseed = 9\n"
        marked = tmp_path / "marked.cfg"
        marked.write_text(body, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        for cfg, out in ((marked, "with_bom"), (self._cfg(tmp_path, body), "plain")):
            assert main(["simulate", "case1", "--config", str(cfg),
                         "--out", str(tmp_path / out)]) == 0
        assert ((tmp_path / "with_bom" / "aggregate.json").read_bytes()
                == (tmp_path / "plain" / "aggregate.json").read_bytes())

    def test_repeated_config_key_exit_2(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, "n = 40\nx_df = 3\nreps = 1\nseed = 5\nseed = 6\n")
        out = tmp_path / "sim"
        rc = main(["simulate", "case1", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "'seed'" in capsys.readouterr().err
        assert not (out / "aggregate.json").exists()

    def test_set_overrides(self, tmp_path):
        cfg = self._cfg(tmp_path, "n = 40\nx_df = 3\nreps = 1\nseed = 9\n")
        out = tmp_path / "sim"
        rc = main(["simulate", "case1", "--config", str(cfg), "--out", str(out),
                   "--set", "reps=2", "--set", "methods=rsr,cv"])
        assert rc == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["reps"] == 2
        assert sorted(agg["metrics"]) == ["cv", "rsr"]

    def test_case2_aggregate_schema(self, tmp_path):
        cfg = self._cfg(tmp_path, ("n = 200\np = 200\nnoise_df = 3\nrho = 0.25\n"
                                   "seed = 3\nreps = 1\nmethods = rsr,cv\n"))
        out = tmp_path / "sim2"
        rc = main(["simulate", "case2", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        agg = json.loads((out / "aggregate.json").read_text())
        for method in ("rsr", "cv"):
            for key in ("nonzeros", "support_rate", "oracle_rate", "cv_error"):
                assert key in agg["metrics"][method]

    def _assert_rejected_before_any_replicate(self, case, setting, tmp_path, capsys,
                                              monkeypatch):
        import ranksel.simlab as simlab_mod

        def no_replicate(config, rep):
            raise AssertionError("a replicate ran before the config was checked")

        monkeypatch.setattr(simlab_mod, f"{case}_replicate", no_replicate)
        body = ("n = 40\nx_df = 3\nreps = 1\nseed = 9\n" if case == "case1" else
                "n = 200\np = 200\nnoise_df = 3\nrho = 0.25\nreps = 1\nseed = 9\n")
        out = tmp_path / "sim"
        rc = main(["simulate", case, "--config", str(self._cfg(tmp_path, body)),
                   "--out", str(out), "--set", setting])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ranksel: ")
        assert not (out / "aggregate.json").exists()

    @pytest.mark.parametrize("case", ("case1", "case2"))
    @pytest.mark.parametrize("setting", ("B=50", "alpha=1.5", "alpha=0"))
    def test_bad_selection_setting_exit_2_before_any_replicate(self, case, setting,
                                                               tmp_path, capsys,
                                                               monkeypatch):
        self._assert_rejected_before_any_replicate(case, setting, tmp_path, capsys,
                                                   monkeypatch)

    @pytest.mark.parametrize("case, setting", [
        ("case1", "reps=0"), ("case1", "reps=-2"), ("case1", "threads=-3"),
        ("case2", "reps=0"), ("case2", "reps=-2"), ("case2", "threads=-3"),
        ("case2", "k_path=1"), ("case2", "k_path=0"),
        ("case1", "seed=-1"), ("case2", "seed=18446744073709551616"),
        ("case1", "methods=cv,cv"), ("case2", "methods=rsr,pcv,rsr"),
    ])
    def test_bad_study_setting_exit_2_before_any_replicate(self, case, setting,
                                                           tmp_path, capsys,
                                                           monkeypatch):
        self._assert_rejected_before_any_replicate(case, setting, tmp_path, capsys,
                                                   monkeypatch)

    @pytest.mark.parametrize("case, setting", [
        ("case1", "x_df=nan"), ("case1", "x_df=inf"), ("case2", "noise_df=nan"),
    ])
    def test_nonfinite_tail_index_exit_2_before_any_replicate(self, case, setting,
                                                              tmp_path, capsys,
                                                              monkeypatch):
        self._assert_rejected_before_any_replicate(case, setting, tmp_path, capsys,
                                                   monkeypatch)

    def test_out_of_memory_exit_4(self, tmp_path, capsys, monkeypatch):
        import ranksel.cli as cli_mod

        def no_memory(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli_mod, "run_case1", no_memory)
        cfg = self._cfg(tmp_path, "n = 40\nx_df = 3\nreps = 1\nseed = 9\n")
        out = tmp_path / "sim"
        rc = main(["simulate", "case1", "--config", str(cfg), "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err.startswith("ranksel: out of memory: Unable")
        assert not (out / "aggregate.json").exists()

    @pytest.mark.parametrize("case, entry, where", [
        ("case1", "n=abc", "set"),
        ("case1", "x_df=three", "file"),
        ("case1", "reps=2.5", "set"),
        ("case1", "screening=maybe", "set"),
        ("case1", "seed=", "set"),
        ("case2", "rho=high", "file"),
    ])
    def test_unparsable_value_exit_2(self, case, entry, where, tmp_path, capsys):
        body = ("n = 40\nx_df = 3\nreps = 1\nseed = 9\n" if case == "case1" else
                "n = 200\np = 200\nnoise_df = 3\nrho = 0.25\nreps = 1\nseed = 9\n")
        if where == "file":
            body += entry + "\n"
        out = tmp_path / "sim"
        argv = ["simulate", case, "--config", str(self._cfg(tmp_path, body)),
                "--out", str(out)]
        rc = main(argv + (["--set", entry] if where == "set" else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ranksel: ")
        assert repr(entry.split("=")[0]) in err
        assert not (out / "aggregate.json").exists()

    def test_threads_do_not_change_aggregate_bytes(self, tmp_path):
        cfg = self._cfg(tmp_path, "n = 40\nx_df = 3\nreps = 3\nseed = 5\n")
        outs = []
        for threads, name in ((1, "t1"), (2, "t2")):
            out = tmp_path / name
            rc = main(["simulate", "case1", "--config", str(cfg),
                       "--out", str(out), "--set", f"threads={threads}"])
            assert rc == 0
            outs.append((out / "aggregate.json").read_bytes())
        assert outs[0] == outs[1]
