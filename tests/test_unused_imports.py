"""Every name a fewbody module imports is used in that module, and every
name a module defines at top level is named somewhere else."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "fewbody").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (other than from __future__) that no Name
    node of the module reads; attribute chains such as np.asarray start with
    a Name, so they count as uses of their root."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_import_guard_flags_an_unused_name() -> None:
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
        "def f():\n    import sys\n    return np.asarray(os.path.sep), pi\n"
    )
    assert unused_imports(source) == ["sys", "tau"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_module_has_no_unused_import(path: Path) -> None:
    assert unused_imports(path.read_text()) == []


def dead_names(sources: dict[str, str], searched: list[str]) -> list[str]:
    """module.name of each function, class and constant that a module of
    sources (name -> text) defines at top level and that no text of searched
    names outside the lines of its own definition."""
    dead = []
    for module, source in sources.items():
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
            own = "\n".join(lines[first - 1 : node.end_lineno])
            for name in names:
                word = re.compile(rf"\b{re.escape(name)}\b")
                uses = sum(len(word.findall(text)) for text in searched)
                if uses == len(word.findall(own)):
                    dead.append(f"{module}.{name}")
    return dead


def test_dead_name_guard_flags_an_unnamed_definition() -> None:
    source = (
        "LIMIT = 3\nUNREAD = (1, 2)\n"
        "@decorate\ndef helper(x):\n    return helper(x - 1) if x else LIMIT\n"
        "class Holder:\n    pass\n"
    )
    elsewhere = "from m import helper, Holder\n"
    assert dead_names({"m": source}, [source, elsewhere]) == ["m.UNREAD"]
    assert dead_names({"m": source}, [source]) == ["m.UNREAD", "m.helper", "m.Holder"]


def test_every_module_level_name_is_named_outside_its_definition() -> None:
    searched = [
        path.read_text()
        for folder in ("src", "perfbench", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert dead_names(sources, searched) == []
