"""tools/bench_export.py: the per-workload summary that every committed
``BENCH_<label>.json`` carries, its usage error, its output name and the
source it records."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_export  # noqa: E402


def _record(workload, trace, **values):
    """A perfbench run record, cut down to the fields bench_export reads."""
    return {"environment": {"workload": workload, "trace": trace, "seed": 1},
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def test_one_record_is_its_own_median_and_quartiles():
    summary = bench_export.summarize([_record("case1", 0, setup_s=0.25)])
    assert summary == {"case1/trace0": {
        "setup_s": {"runs": 1, "median": 0.25, "q1": 0.25, "q3": 0.25}}}


def test_three_records_per_group():
    records = [_record("case1", 0, jobs_per_ref_s=21.0, setup_s=0.3),
               _record("panel_cont", 0, jobs_per_ref_s=4.5),
               _record("case1", 0, jobs_per_ref_s=25.0, setup_s=0.1),
               _record("case1", 1, jobs_per_ref_s=9.0),
               _record("case1", 0, jobs_per_ref_s=23.0, setup_s=0.2)]
    summary = bench_export.summarize(records)
    assert list(summary) == ["case1/trace0", "case1/trace1", "panel_cont/trace0"]
    # statistics.quantiles' default (exclusive) method on three values
    # gives the smallest, the middle and the largest.
    assert summary["case1/trace0"] == {
        "jobs_per_ref_s": {"runs": 3, "median": 23.0, "q1": 21.0, "q3": 25.0},
        "setup_s": {"runs": 3, "median": 0.2, "q1": 0.1, "q3": 0.3}}
    assert summary["case1/trace1"]["jobs_per_ref_s"]["runs"] == 1
    assert summary["panel_cont/trace0"]["jobs_per_ref_s"]["median"] == 4.5


@pytest.mark.parametrize("argv", [[], ["label_only"]])
def test_fewer_than_two_arguments_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_export, "ROOT", tmp_path)
    assert bench_export.main(argv) == 2
    assert capsys.readouterr().err.startswith("usage: python tools/bench_export.py")
    assert not list(tmp_path.iterdir())


def test_writes_bench_label_json_with_every_record_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_export, "ROOT", tmp_path)
    records = [_record("case1", 0, jobs_per_ref_s=v) for v in (20.0, 22.0)]
    paths = []
    for i, record in enumerate(records):
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        paths.append(str(path))
    assert bench_export.main(["case1_demo", *paths]) == 0
    out = tmp_path / "BENCH_case1_demo.json"
    assert capsys.readouterr().out.strip() == str(out)
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["label"] == "case1_demo"
    assert written["runs"] == records
    assert written["summary"] == bench_export.summarize(records)


def _fake_source(root, **files):
    pkg = root / "src" / "ranksel"
    pkg.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (pkg / f"{name}.py").write_text(text, encoding="utf-8")


def _export(tmp_path, records):
    paths = []
    for i, record in enumerate(records):
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        paths.append(str(path))
    assert bench_export.main(["demo", *paths]) == 0
    return json.loads((tmp_path / "BENCH_demo.json").read_text(encoding="utf-8"))


def test_output_names_the_source_that_ran(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_export, "ROOT", tmp_path)
    _fake_source(tmp_path, select="B = 1\n", ranksum="X = 2\n")
    (tmp_path / "src" / "ranksel" / "notes.txt").write_text("not hashed", encoding="utf-8")
    records = [_record("panel_cont", 0, jobs_per_ref_s=v) for v in (4.8, 5.3)]
    before = _export(tmp_path, records)
    assert before["summary"] == bench_export.summarize(records)
    assert before["runs"] == records
    # Name order, then bytes: ranksum.py before select.py.
    expected = hashlib.sha256(b"ranksum.py\0X = 2\nselect.py\0B = 1\n").hexdigest()
    assert before["source"] == expected
    (tmp_path / "src" / "ranksel" / "notes.txt").write_text("edited", encoding="utf-8")
    assert _export(tmp_path, records)["source"] == expected
    _fake_source(tmp_path, select="B = 2\n")
    after = _export(tmp_path, records)
    assert after["source"] != expected
    assert after["summary"] == before["summary"]


def test_src_dirty_follows_git_status(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_export, "ROOT", tmp_path)
    _fake_source(tmp_path, select="B = 1\n")
    records = [_record("case1", 0, jobs_per_ref_s=20.0)]
    assert _export(tmp_path, records)["src_dirty"] is None     # not a repository
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "src"]):
        subprocess.run(git + args, cwd=tmp_path, check=True, capture_output=True)
    assert _export(tmp_path, records)["src_dirty"] is False
    _fake_source(tmp_path, select="B = 2\n")
    assert _export(tmp_path, records)["src_dirty"] is True

    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(bench_export.subprocess, "run", no_git)
    assert _export(tmp_path, records)["src_dirty"] is None
