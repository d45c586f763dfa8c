"""The package's modules import one another without a cycle.

Every ``src/teamrank/*.py`` is read with ``ast``, so imports inside
functions and ``TYPE_CHECKING`` blocks count as much as top-level ones.
"""

import ast
from pathlib import Path

import teamrank

PACKAGE = Path(teamrank.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def imported_modules(source: str) -> set[str]:
    """The package modules ``source`` imports, at any depth; ``__init__`` for names of the package itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "teamrank":
                continue
            module = parts[0] if node.level else (parts[1] if len(parts) > 1 else "")
            if module:
                found.add(module)
            else:
                # ``from . import x``: x is a module, or a name the package's __init__ defines
                found.update(alias.name if alias.name in MODULES else "__init__" for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "teamrank":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found & MODULES


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path that starts and ends at the same module, or None."""
    state: dict[str, str] = {}
    path: list[str] = []

    def visit(node):
        state[node] = "open"
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (cycle := visit(nxt)):
                return cycle
        state[node] = "done"
        path.pop()
        return None

    for node in sorted(graph):
        if node not in state and (cycle := visit(node)):
            return cycle
    return None


def package_graph() -> dict[str, set[str]]:
    return {path.stem: imported_modules(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def test_package_modules_import_no_cycle():
    graph = package_graph()
    assert {"core", "ranking", "nnindex"} <= graph.keys()
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_index_sits_above_ranking_above_core():
    graph = package_graph()
    assert "ranking" in graph["nnindex"]
    assert "core" in graph["ranking"]


def test_imports_inside_functions_count():
    source = (
        "from .core import diff\n"
        "import teamrank.dataio\n"
        "from teamrank import errors\n"
        "from . import bench as b, __version__\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .weighting import select_target\n"
        "def f():\n"
        "    from .nnindex import fingerprint\n"
    )
    assert imported_modules(source) == {"core", "dataio", "errors", "bench", "__init__", "weighting", "nnindex"}


def test_a_cycle_is_found():
    assert find_cycle({"ranking": {"core"}, "nnindex": {"ranking"}, "core": set()}) is None
    assert find_cycle({"ranking": {"core", "nnindex"}, "nnindex": {"ranking"}, "core": set()}) == [
        "nnindex",
        "ranking",
        "nnindex",
    ]
    assert find_cycle({"a": {"a"}}) == ["a", "a"]
