"""Byte identity of the pinned CLI outputs, checked against a golden file.

``golden_cli_hashes.txt`` is the output of ``PYTHONPATH=src python
tools/acceptance_hashes.py cli``: two comment lines naming the NumPy version
and its BLAS build, then one ``name sha256`` line per pinned output. The test
reruns the tool's in-process CLI runs and compares the lines one by one. A
change that moves bytes on purpose rewrites the file with the same command in
the same commit, and CHANGES.md gives each moved line's reason.

The hashes hold for the recorded build only: gemm rounding can flip a
p-value count. On another build the test fails and names both builds; it
never skips.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import acceptance_hashes  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_cli_hashes.txt")


def test_cli_outputs_match_golden_hashes():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    pinned = [tuple(line.split()) for line in lines if not line.startswith("#")]
    build = acceptance_hashes.build_header()
    assert header == build, (
        f"{GOLDEN.name} was recorded on another build:\n  " + "\n  ".join(header)
        + "\nthis build is:\n  " + "\n  ".join(build))
    got = list(acceptance_hashes.cli_hashes())
    assert [name for name, _ in got] == [name for name, _ in pinned], \
        "the tool's pinned outputs differ from the golden file's"
    moved = [name for (name, digest), (_, want) in zip(got, pinned) if digest != want]
    assert not moved, f"{len(moved)} pinned output(s) moved: {', '.join(moved)}"
