"""The public surface of ``src/``: what the commands and README's library example use.

A helper that only tests call belongs in ``tests/_oracles.py``.  The scan
starts from the module-level statements of ``src/`` (``cli.main`` among them)
and from the names README's library example imports, plus ``save_design``.
A definition is used when a used definition mentions its name, as a name or
as an attribute, so a shared name keeps a definition rather than drops it.

A parameter default is a knob, and one that no call in ``src/`` or in the
example passes is a knob only tests turn.  Calls reach a definition by name
alike: a call passes a parameter when it names it as a keyword or reaches
its position, counted after a method's bound first parameter; a starred
argument passes every positional parameter and ``**`` every keyword one.

An environment variable is a knob too: ``src/`` reads none, and it imports
no thread or process pool.
"""

import ast
import contextlib
import io
import re
from collections import defaultdict
from math import inf
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "crossover_dropout"
EXTRA_ENTRY_POINTS = {"save_design"}
# the console script calls main() and argparse reads sys.argv
EXEMPT_DEFAULTS = {"cli.main(argv)"}
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}
CONCURRENCY_MODULES = {"concurrent", "threading", "multiprocessing"}


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


def _passed_arguments(trees) -> tuple[dict[str, set], dict[str, float]]:
    """Per called name: the keywords its calls pass, and the most positional arguments."""
    keywords: dict[str, set] = defaultdict(set)
    positional: dict[str, float] = defaultdict(int)
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            positional[name] = max(positional[name], inf if starred else len(call.args))
            keywords[name] |= {kw.arg for kw in call.keywords}  # None stands for **
    return keywords, positional


def _defaults(tree: ast.Module, module: str):
    """(qualified name, parameter, its position in a call or None) of every parameter
    default in a module, positions counted after a method's bound first parameter."""
    todo = [(node, module, False) for node in tree.body]
    while todo:
        node, prefix, in_class = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += [(sub, f"{prefix}.{node.name}", True) for sub in node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound = in_class and not any(getattr(d, "id", "") == "staticmethod"
                                         for d in node.decorator_list)
            params = node.args.posonlyargs + node.args.args
            first = len(params) - len(node.args.defaults)
            for k in range(first, len(params)):
                yield f"{prefix}.{node.name}", params[k].arg, k - bound
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield f"{prefix}.{node.name}", arg.arg, None
            todo += [(sub, f"{prefix}.{node.name}", False) for sub in node.body]


def unpassed_defaults(src: Path, example: str = "") -> list[str]:
    """``module.function(parameter)`` for each default in ``src`` that no call in
    ``src`` or in ``example`` passes."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    keywords, positional = _passed_arguments([*modules.values(), ast.parse(example)])
    unpassed = []
    for module, tree in modules.items():
        for qualname, param, position in _defaults(tree, module):
            name = qualname.rsplit(".", 1)[1]
            passed = {param, None} & keywords[name] or (
                position is not None and position < positional[name]
            )
            if not passed:
                unpassed.append(f"{qualname}({param})")
    return sorted(unpassed)


def environment_reads_and_pools(src: Path) -> list[str]:
    """``file:line name`` of every environment read and every import of a
    concurrency module in ``src``, in file and line order."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if name in ENVIRONMENT_READS or name.split(".")[0] in CONCURRENCY_MODULES]
    return [f"{file}:{line} {name}" for file, line, name in sorted(found)]


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


def test_every_parameter_default_is_passed_by_a_command_or_the_example():
    assert sorted(set(unpassed_defaults(SRC, _readme_example())) - EXEMPT_DEFAULTS) == []


def test_parameter_scan_flags_the_defaults_no_call_passes(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, y=1, *, z=2, w=3):\n    return f(x, z=z)\n\n\n"
        "class C:\n    def m(self, a=1, b=2):\n        return a\n\n\n"
        "    @staticmethod\n    def s(a=1, b=2):\n        return a\n\n\n"
        "def g(u=1, v=2):\n    return u\n\n\n"
        "def h(q=1):\n    return q\n\n\n"
        "C().m(1)\nC.s(1)\ng(*[1, 2])\nh(**{'q': 2})\n"
    )
    assert unpassed_defaults(tmp_path) == ["a.C.m(b)", "a.C.s(b)", "a.f(w)", "a.f(y)"]
    assert unpassed_defaults(tmp_path, "f(0, 5)\nf(0, w=1)") == ["a.C.m(b)", "a.C.s(b)"]


def test_src_reads_no_environment_and_starts_no_pool():
    assert environment_reads_and_pools(SRC) == []


def test_environment_scan_flags_reads_and_pool_imports(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\nimport threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
        "from os import getenv\nimport multiprocessing.pool\n\n\n"
        "def f():\n    return os.environ.get('X'), os.getenv('Y'), os.path.join('a')\n"
    )
    assert environment_reads_and_pools(tmp_path) == [
        "a.py:2 threading",
        "a.py:3 concurrent.futures",
        "a.py:4 getenv",
        "a.py:5 multiprocessing.pool",
        "a.py:9 environ",
        "a.py:9 getenv",
    ]


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_readme_example(), "README.md", "exec"), {})
    rows = [line.split() for line in out.getvalue().splitlines()]
    assert [row[0] for row in rows] == ["A", "D", "E", "T"]
    assert all(0.0 < float(row[2]) <= 1.0 for row in rows)  # ell, an efficiency bound
