"""Import discipline of the package, read from its source with ``ast``.

The package is stdlib-only at runtime, imports at module level only, and
its modules import one another without cycles. Every name the benchmark
scripts under ``perfbench/`` import from the package exists and accepts
the arguments those scripts call it with, and every top-level
definition, method and property is used by the package or by those
scripts, or is public API that README.md names, not used by tests
alone. The engine's modules keep no state that outlives a call: they bind
constants only. README's Layout block lists every module.
"""

import ast
import importlib
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nornet"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
BENCHMARK = PACKAGE.parent.parent / "perfbench"
README = (PACKAGE.parent.parent / "README.md").read_text()


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


def test_readme_layout_lists_every_module():
    # the indented lines under ``src/nornet/`` in README's Layout block,
    # one per module; the package's entry points go unlisted
    block = README.split("## Layout", 1)[1].split("```\n", 2)[1]
    listed = re.findall(r"^  (\w+)\.py ", block.split("src/nornet/\n", 1)[1], re.M)
    assert sorted(listed) == sorted(set(MODULES) - {"__init__", "__main__"})


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


def test_benchmark_calls_bind_to_package_signatures():
    # each call of an imported package function binds to its signature, the
    # argument expressions standing in for their values; a call that
    # unpacks ``*args`` or ``**kwargs`` has no arity to check
    imported = {}
    for script, node in _benchmark_imports():
        module = importlib.import_module(node.module)
        for alias in node.names:
            imported[script, alias.asname or alias.name] = getattr(module, alias.name)
    checked, wrong = set(), []
    for path in sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            fn = imported.get((path.name, node.func.id))
            keywords = {k.arg: k.value for k in node.keywords}
            if fn is None or None in keywords or any(
                isinstance(a, ast.Starred) for a in node.args
            ):
                continue
            try:
                inspect.signature(fn).bind(*node.args, **keywords)
            except TypeError as exc:
                wrong.append(f"{path.name} line {node.lineno}: {node.func.id}: {exc}")
            checked.add((fn.__name__, len(node.args), tuple(sorted(keywords))))
    assert {
        ("min_degree_order", 2, ()),
        ("posterior", 2, ("conjunction", "method")),
        ("run_experiment", 3, ("jobs",)),
        ("main", 1, ()),
    } <= checked
    assert wrong == []


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


def _readme_names():
    """Names README.md gives as toolkit API: each inline code span that is a
    (dotted) name, and each name the Library overview imports from nornet."""
    names = set(re.findall(r"`(?:\w+\.)*(\w+)`", README))
    overview = README.split("## Library overview", 1)[1]
    code = overview.split("```python\n", 1)[1].split("```", 1)[0]
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.ImportFrom) and node.module == "nornet":
            names.update(alias.name for alias in node.names)
    return names


def test_every_top_level_definition_is_used_outside_tests():
    # a definition's own body (recursion) does not count as a use of it,
    # and an ``__init__`` re-export counts only for a name README.md names.
    # Methods and properties of package classes meet the same rule, dunders
    # apart (Python calls those), and any name the benchmark scripts read
    # counts as a use of a member.
    used = Counter(
        name for module, tree in MODULES.items() if module != "__init__" for name in _names(tree)
    )
    public = set(_names(MODULES["__init__"])) & _readme_names()
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
                candidates.append((f"{module}.{node.name}", node, imported | public))
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
