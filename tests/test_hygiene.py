"""Source hygiene: every name a module imports is used in that module,
every function, method and class the package defines is referenced
somewhere in the package, its tests or its benchmark, and no function
or method only forwards to another spelling of the same operation."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "permwit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _referenced_names(tree: ast.Module):
    # a name used only inside a quoted annotation counts as unused; the
    # modules import annotations from __future__, so none needs quotes
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _parse(path)
    unused = sorted(set(_imported_names(tree)) - _referenced_names(tree))
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def _defined_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name


def _mentioned_names(tree: ast.Module):
    # string constants count: perfbench's tracer looks names up by string
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_dead_definitions():
    sources = [p for d in ("src/permwit", "tests", "perfbench")
               for p in sorted((ROOT / d).glob("*.py"))]
    mentioned = set()
    for path in sources:
        mentioned.update(_mentioned_names(_parse(path)))
    dead = sorted(f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
                  for name in set(_defined_names(_parse(path))) - mentioned)
    assert dead == [], f"definitions nothing references: {dead}"


def test_every_export_exists():
    import permwit

    missing = sorted(name for name in permwit.__all__ if not hasattr(permwit, name))
    assert missing == [], f"permwit.__all__ names missing attributes: {missing}"


def _returned(func: ast.FunctionDef):
    """The returned expression and the parameter names of a function whose
    body, after an optional docstring, is one `return`; (None, params)
    otherwise."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    params = {a.arg for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs}
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return None, params
    return body[0].value, params


def _only_forwards(func: ast.FunctionDef) -> bool:
    """True iff the body, after an optional docstring, is one `return` of a
    parameter's attribute, of a binary operator on two parameters, or of a
    parameter's method called with parameters only."""
    value, params = _returned(func)
    if value is None:
        return False

    def is_param(node):
        return isinstance(node, ast.Name) and node.id in params

    if isinstance(value, ast.Call):
        if not all(is_param(a) for a in value.args + [k.value for k in value.keywords]):
            return False
        value = value.func
    if isinstance(value, ast.Attribute):
        return is_param(value.value)
    return isinstance(value, ast.BinOp) and is_param(value.left) and is_param(value.right)


def test_no_forwarding_functions():
    # a module function that only forwards to a method, an attribute or an
    # operator is a second spelling of one operation; callers use the first
    forwards = sorted(f"{path.name}:{node.name}" for path in MODULES
                      for node in _parse(path).body
                      if isinstance(node, ast.FunctionDef) and _only_forwards(node))
    assert forwards == [], f"functions that only forward: {forwards}"


def _only_calls_a_function(func: ast.FunctionDef) -> bool:
    """True iff the body, after an optional docstring, is one `return` of a
    plain function name, not a parameter, called with parameters only."""
    value, params = _returned(func)
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name) and value.func.id not in params
            and all(isinstance(a, ast.Name) and a.id in params
                    for a in value.args + [k.value for k in value.keywords]))


def test_no_functions_that_only_call_a_function():
    # a function or method whose whole body is a call of another function
    # on its own arguments is a second spelling of that function
    wrappers = sorted(f"{path.name}:{node.name}" for path in MODULES
                      for node in ast.walk(_parse(path))
                      if isinstance(node, ast.FunctionDef) and _only_calls_a_function(node))
    assert wrappers == [], f"functions that only call another function: {wrappers}"


def test_every_module_function_is_reached():
    # from the names the commands, the public API, the acceptance suite and
    # the benchmark use, follow the bodies of the package's module-level
    # functions and classes by name; a function no path reaches is code
    # only its own tests keep alive
    import permwit

    definitions = {}
    for path in MODULES:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((path.name, node))
    roots = [SRC / "cli.py", ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "perfbench").glob("*.py"))]
    pending = set(permwit.__all__)
    for path in roots:
        pending.update(_mentioned_names(_parse(path)))
    reached = set()
    while pending:
        for module, node in definitions.get(pending.pop(), ()):
            if (module, node.name) not in reached:
                reached.add((module, node.name))
                pending.update(_mentioned_names(node))
    unreached = sorted(f"{module}:{name}" for name, defs in definitions.items()
                       for module, node in defs
                       if isinstance(node, ast.FunctionDef)
                       and (module, name) not in reached)
    assert unreached == [], \
        f"module functions no command, export, acceptance test or benchmark reaches: {unreached}"
