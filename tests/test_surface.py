"""The public surface of ``src/``: what the commands and README's library example use.

A helper that only tests call belongs in ``tests/_oracles.py``.  The scan
starts from the module-level statements of ``src/`` (``cli.main`` among them)
and from the names README's library example imports, plus ``save_design``.
A definition is used when a used definition mentions its name, as a name or
as an attribute, so a shared name keeps a definition rather than drops it.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "crossover_dropout"
EXTRA_ENTRY_POINTS = {"save_design"}


def _readme_example() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return block


def _library_entry_points() -> set[str]:
    imports = [node for node in ast.walk(ast.parse(_readme_example()))
               if isinstance(node, ast.ImportFrom) and node.module == "crossover_dropout"]
    return {alias.name for node in imports for alias in node.names}


def _mentions(node: ast.AST) -> set[str]:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def unused_definitions(src: Path, entry_points: set[str]) -> list[str]:
    """Top-level functions and classes of ``src`` that no entry point reaches."""
    graph: dict[str, set[str]] = {}
    roots = set(entry_points)
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                graph.setdefault(node.name, set()).update(_mentions(node) - {node.name})
            else:
                roots |= _mentions(node)
    seen, todo = set(), [name for name in roots if name in graph]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name] & graph.keys())
    return sorted(graph.keys() - seen)


def test_readme_names_the_library_entry_points():
    assert {"solve_minimax", "exact_search", "evaluate_reports"} <= _library_entry_points()


def test_every_definition_serves_a_command_or_a_library_entry_point():
    entry_points = _library_entry_points() | EXTRA_ENTRY_POINTS
    assert unused_definitions(SRC, entry_points) == []


def test_scan_flags_a_definition_only_its_own_body_mentions(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def lonely(k):\n    return lonely(k - 1) if k else 0\n\n\n"
        "def pair_a():\n    return pair_b()\n\n\n"
        "def pair_b():\n    return pair_a()\n\n\n"
        "TABLE = {'x': used}\n"
    )
    assert unused_definitions(tmp_path, set()) == ["lonely", "pair_a", "pair_b"]


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_readme_example(), "README.md", "exec"), {})
    rows = [line.split() for line in out.getvalue().splitlines()]
    assert [row[0] for row in rows] == ["A", "D", "E", "T"]
    assert all(0.0 < float(row[2]) <= 1.0 for row in rows)  # ell, an efficiency bound
