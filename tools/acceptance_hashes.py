"""Print the SHA-256 of each acceptance aggregate, one ``name hash`` line each.

    PYTHONPATH=src python tools/acceptance_hashes.py

The aggregates are the ones tests/test_acceptance.py builds, from its own
config helpers, at ACCEPT_SEED and threads=2: criterion 2's JSON, Case 1's
``to_json()`` at n=320 and n=40, and Case 2's at (200, 200). A change that
claims to keep output bytes compares these lines before and after. The four
runs take a few minutes on two cores; Case 2 is the longest.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_acceptance as acc  # noqa: E402

from ranksel import run_case1, run_case2  # noqa: E402

AGGREGATES = (
    ("crit2", lambda: acc._crit2_aggregate(threads=2)),
    ("case1_n320", lambda: run_case1(acc.case1_config(320)).to_json()),
    ("case1_n40", lambda: run_case1(acc.case1_config(40)).to_json()),
    ("case2", lambda: run_case2(acc.case2_config()).to_json()),
)


def main() -> int:
    for name, build in AGGREGATES:
        digest = hashlib.sha256(build().encode("utf-8")).hexdigest()
        print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
