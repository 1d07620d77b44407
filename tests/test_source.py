"""Checks on the source and the README rather than on results: no module of
the package imports a name it never uses or defines a private name that no
module reads, and the README's quick tour and learner list name only what
the package exports."""

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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module._name`` of each module-level private function, class or
    assignment in ``sources`` (module name -> source) that no source reads
    as a name, an attribute or an imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_the_private_name_check_finds_an_orphan():
    sources = {"a": "_LIMIT = 3\n_ORPHAN = 4\ndef _orphan():\n    return _LIMIT\n"
                    "class _Used:\n    pass\n",
               "b": "from . import a\nfrom .a import _Used\nprint(a._orphan)\n"}
    assert unread_private_names(sources) == ["a._ORPHAN"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unread_private_names(sources) == []


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
