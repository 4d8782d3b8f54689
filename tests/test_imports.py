"""Import discipline of the package, read from its source with ``ast``.

The package is stdlib-only at runtime, imports at module level only, and
its modules import one another without cycles. Every name the benchmark
scripts under ``perfbench/`` import from the package exists, and every
top-level definition, method and property is used by the package or by
those scripts, not by tests alone. The engine's modules keep no state
that outlives a call: they bind constants only.
"""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nornet"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
BENCHMARK = PACKAGE.parent.parent / "perfbench"


def _imports(tree):
    """(absolute top-level name or None, package modules) per import
    statement; relative imports have no top-level name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], set()
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module.split(".")[0], set()
            elif node.module:
                yield None, {node.module.split(".")[0]}
            else:
                names = {a.name for a in node.names}
                yield None, {n for n in names if n in MODULES} or {"__init__"}


def test_modules_found():
    assert {"model", "inference", "experiment", "fileformat"} <= set(MODULES)


def test_every_import_is_stdlib_or_in_package():
    outside = sorted(
        f"{module}: {name}"
        for module, tree in MODULES.items()
        for name, _ in _imports(tree)
        if name is not None and name != "nornet" and name not in sys.stdlib_module_names
    )
    assert outside == []


def test_no_import_inside_a_function():
    nested = []
    for module, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        nested.append(f"{module}.{func.name} line {node.lineno}")
    assert nested == []


def test_package_imports_are_acyclic():
    graph = {
        module: set().union(*(deps for _, deps in _imports(tree)))
        for module, tree in MODULES.items()
    }
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, "import cycle: " + " -> ".join(path + [module])
        if module in done:
            return
        for dep in sorted(graph[module]):
            visit(dep, path + [module])
        done.add(module)

    for module in sorted(graph):
        visit(module, [])


def _benchmark_imports():
    """(script name, ``from nornet... import`` statement) per such import
    in the benchmark scripts."""
    for path in sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "nornet":
                    yield path.name, node


def test_benchmark_imports_from_package_exist():
    seen, missing = set(), []
    for script, node in _benchmark_imports():
        seen.add(node.module)
        module = importlib.import_module(node.module)
        missing += [
            f"{script}: {node.module}.{alias.name}"
            for alias in node.names
            if not hasattr(module, alias.name)
        ]
    assert {"nornet", "nornet.cli", "nornet.factors", "nornet.inference"} <= seen
    assert missing == []


def _names(tree):
    """Every name a tree reads, looks up as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_top_level_definition_is_used_outside_tests():
    # a definition's own body (recursion) does not count as a use of it;
    # an ``__init__`` re-export does. Methods and properties of package
    # classes meet the same rule, dunders apart (Python calls those), and
    # any name the benchmark scripts read counts as a use of a member.
    used = Counter(name for tree in MODULES.values() for name in _names(tree))
    imported = {alias.name for _, node in _benchmark_imports() for alias in node.names}
    read = {
        name
        for path in BENCHMARK.glob("*.py")
        for name in _names(ast.parse(path.read_text(), str(path)))
    }
    candidates = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                candidates.append((f"{module}.{node.name}", node, imported))
            if isinstance(node, ast.ClassDef):
                candidates += [
                    (f"{module}.{node.name}.{member.name}", member, read)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and not _is_dunder(member.name)
                ]
    unused = sorted(
        qualified
        for qualified, node, outside in candidates
        if node.name not in outside and used[node.name] == Counter(_names(node))[node.name]
    )
    assert unused == []


# modules whose caches must belong to a caller-made object, never to the
# module: a module-level cache would carry results from one call to the next
STATELESS = ("inference", "factors", "experiment")
CONSTANT_NODES = (
    ast.Constant, ast.Tuple, ast.UnaryOp, ast.BinOp, ast.unaryop, ast.operator, ast.Load,
)


def _is_constant(expr):
    """Literals, tuples of them and arithmetic on them: no dict, list or set
    literal or comprehension, no call and no name."""
    return all(isinstance(node, CONSTANT_NODES) for node in ast.walk(expr))


def _state_bindings(module, body):
    """Statements of a module or class body that run code or bind anything
    but a constant."""
    for stmt in body:
        where = f"{module} line {stmt.lineno}"
        if isinstance(stmt, (ast.Import, ast.ImportFrom, ast.FunctionDef)):
            continue
        if isinstance(stmt, ast.ClassDef):
            yield from _state_bindings(module, stmt.body)
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if stmt.value is not None and not _is_constant(stmt.value):
                yield where
        elif not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)):
            yield where


def test_engine_modules_bind_only_constants():
    found = []
    for module in STATELESS:
        tree = MODULES[module]
        found += _state_bindings(module, tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{module} line {node.lineno}: global")
            if isinstance(node, ast.FunctionDef):
                args = node.args
                for default in args.defaults + [d for d in args.kw_defaults if d is not None]:
                    if not _is_constant(default):
                        found.append(f"{module}.{node.name}: default argument")
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = getattr(target, "id", getattr(target, "attr", None))
                    if name in ("cache", "lru_cache"):
                        found.append(f"{module}.{node.name}: @{name}")
    assert found == []
