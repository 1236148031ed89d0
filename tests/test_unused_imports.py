"""Every name a fewbody module imports is used in that module, and every
name a module defines at top level, and every method of its top-level
classes, is named somewhere else."""
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each function, class and constant defined
    at top level, and of each method of a top-level class other than a
    dunder."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((f"{module}.{t.id}", node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{module}.{node.name}.{item.name}", item


def dead_names(sources: dict[str, str], searched: list[str]) -> list[str]:
    """The qualified name of each definition (see definitions) of a module
    of sources (name -> text) whose name no text of searched names outside
    the lines of that definition."""
    dead = []
    for module, source in sources.items():
        lines = source.splitlines()
        for qualified, node in definitions(module, ast.parse(source)):
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
            own = "\n".join(lines[first - 1 : node.end_lineno])
            word = re.compile(rf"\b{re.escape(qualified.rsplit('.', 1)[1])}\b")
            uses = sum(len(word.findall(text)) for text in searched)
            if uses == len(word.findall(own)):
                dead.append(qualified)
    return dead


def test_dead_name_guard_flags_an_unnamed_definition() -> None:
    source = (
        "LIMIT = 3\nUNREAD = (1, 2)\n"
        "@decorate\ndef helper(x):\n    return helper(x - 1) if x else LIMIT\n"
        "class Holder:\n    def __init__(self):\n        self.size = 0\n\n"
        "    @property\n    def read(self):\n        return self.size\n\n"
        "    def unread(self):\n        return self.read\n"
    )
    elsewhere = "from m import helper, Holder\n"
    assert dead_names({"m": source}, [source, elsewhere]) == ["m.UNREAD", "m.Holder.unread"]
    assert dead_names({"m": source}, [source]) == [
        "m.UNREAD", "m.helper", "m.Holder", "m.Holder.unread"
    ]


def test_every_module_level_name_is_named_outside_its_definition() -> None:
    searched = [
        path.read_text()
        for folder in ("src", "perfbench", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert dead_names(sources, searched) == []
