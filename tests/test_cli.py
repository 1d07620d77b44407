import csv
import json

import numpy as np
import pytest

from ranksel import LossPanel, SelectionConfig, rsr_from_panel
from ranksel.cli import main
from ranksel.errors import ConfigError, DataError
from ranksel.io import (RunConfig, parse_config_file, read_loss_panel_csv,
                        read_xy_csv, write_loss_panel_csv)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
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

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        with open(path, "w") as fh:
            fh.write("model_a,model_b\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="line 3"):
            read_loss_panel_csv(path)

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


class TestReadXy:
    def test_reads_features_and_response(self, data_csv):
        x, y, names = read_xy_csv(data_csv, "y")
        assert x.shape == (60, 2)
        assert names == ["x1", "x2"]
        assert y.shape == (60,)

    def test_missing_response_names_flag(self, data_csv):
        with pytest.raises(ConfigError, match="--response"):
            read_xy_csv(data_csv, "nope")


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nn = 40\nx_df = 3   # inline\n\nseed=7\n")
        assert parse_config_file(path) == {"n": "40", "x_df": "3", "seed": "7"}

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

    def test_missing_response_exit_2(self, data_csv, tmp_path, capsys):
        rc = main(["select", "--data", str(data_csv), "--response", "zz",
                   "--learners", "ols", "--seed", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "--response" in capsys.readouterr().err

    def test_unknown_learner_exit_2(self, data_csv, tmp_path):
        rc = main(["select", "--data", str(data_csv), "--response", "y",
                   "--learners", "magic", "--seed", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_empty_learners_exit_2(self, data_csv, tmp_path):
        rc = main(["select", "--data", str(data_csv), "--response", "y",
                   "--learners", ",", "--seed", "1", "--out", str(tmp_path / "x")])
        assert rc == 2

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

    def test_numerical_failure_exit_4(self, panel_csv, tmp_path, monkeypatch):
        from ranksel.errors import NumericalError
        import ranksel.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setattr(cli_mod, "rsr_from_panel", boom)
        rc = main(["panel", "--losses", str(panel_csv[0]), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 4


INVALID_SELECTION_FLAGS = [
    (command, flags)
    for command in ("select", "panel")
    for flags in (["--alpha", "1.5"], ["--alpha-screen", "0"], ["--s=-1"],
                  ["--B", "50"], ["--folds", "1"], ["--tau=-1"], ["--tau=0"],
                  ["--tau=inf"], ["--tau=nan"])
    # panel has neither folds nor a loss to tune
    if not (command == "panel" and flags[0].startswith(("--folds", "--tau")))
]


@pytest.mark.parametrize("command,flags", INVALID_SELECTION_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in INVALID_SELECTION_FLAGS])
def test_invalid_selection_flag_exit_2(command, flags, data_csv, panel_csv, tmp_path,
                                       capsys):
    out = tmp_path / "out"
    if command == "select":
        argv = ["select", "--data", str(data_csv), "--response", "y",
                "--learners", "ols,huber"]
    else:
        argv = ["panel", "--losses", str(panel_csv[0])]
    rc = main(argv + flags + ["--seed", "1", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("ranksel: ")
    assert not (out / "report.json").exists()


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
