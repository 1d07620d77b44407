"""Checks on the source and the README rather than on results: no module of
the package imports a name it never uses, and the README's quick tour and
learner list name only what the package exports."""

import ast
import re
from pathlib import Path

import pytest

import ranksel

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "ranksel").glob("*.py"))
NOQA = "# noqa: F401"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, apart from those on a line
    marked ``# noqa: F401``. ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name, line in imported.items()
                  if name not in used and NOQA not in lines[line - 1])


def test_the_check_finds_an_unused_name_and_honours_the_mark():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from os import path, sep\n"
              "from json import dumps  # noqa: F401\n"
              "print(sep)\n")
    assert unused_imports(source) == ["math", "path"]


# __init__.py imports only to re-export: its names are the public API.
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _readme() -> str:
    return (ROOT / "README.md").read_text()


def test_quick_tour_imports_from_the_package():
    block = re.search(r"```python\n(.*?)```", _readme(), re.S).group(1)
    names = [alias.name for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "ranksel"
             for alias in node.names]
    assert names
    missing = [name for name in names if not hasattr(ranksel, name)]
    assert missing == []


def test_every_listed_learner_is_exported():
    paragraph = re.search(r"^Learners included:.*?(?=\n\n)", _readme(), re.S | re.M).group(0)
    learners = re.findall(r"`((?:\w+\.)*fit_\w+)`", paragraph)
    assert {"fit_ols", "fit_huber_adaptive", "fit_huber_lasso"} <= set(learners)
    missing = []
    for dotted in learners:
        owner = ranksel
        for part in dotted.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(dotted)
    assert missing == []
