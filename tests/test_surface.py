"""Every defaulted parameter of the library is passed somewhere in the
library or the benchmark: a default that only tests or demos override is a
test-only mode, and a default nobody overrides is a constant.

A call counts for a parameter when it names the function (by its bare or
attribute name) and passes that parameter by keyword, reaches its position,
or spreads `*args` or `**kwargs`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "multispec").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    # the only numeric route to the paper's cones W_k; no command sets it
    ("multicone", "normal_cone_probe", "directions"),
    # tests pass argv; the console script leaves it None to read sys.argv
    ("cli", "main", "argv"),
}


def _defaulted(path: Path):
    """(module, function, parameter, position) of each defaulted parameter;
    position is None for keyword-only ones and excludes self or cls."""
    tree = ast.parse(path.read_text())
    methods = {id(item) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for item in cls.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                           for dec in item.decorator_list)}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(fn) in methods else 0
        first = len(positional) - len(args.defaults)
        for pos in range(first, len(positional)):
            yield path.stem, fn.name, positional[pos].arg, pos - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield path.stem, fn.name, arg.arg, None


def _calls():
    """(name, positional count, spreads, keyword names) of every call."""
    out = []
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            keywords = {k.arg for k in node.keywords}
            spreads = (None in keywords
                       or any(isinstance(a, ast.Starred) for a in node.args))
            out.append((name, len(node.args), spreads, keywords))
    return out


def _unpassed():
    calls = _calls()
    for module, fn, param, pos in (entry for path in LIBRARY
                                   for entry in _defaulted(path)):
        if not any(name == fn and (spreads or param in keywords
                                   or (pos is not None and npos > pos))
                   for name, npos, spreads, keywords in calls):
            yield module, fn, param


def test_every_default_is_passed_by_the_library_or_the_benchmark():
    unpassed = set(_unpassed())
    assert unpassed - ALLOWED == set(), \
        "defaulted parameters no library or benchmark call passes"
    assert ALLOWED <= unpassed, "allowlist entries that are passed now"


def _private_imports(path: Path):
    """(module, imported module, name) of each `_`-prefixed name one library
    module takes from another: by `from .x import _name`, or as
    `x._name` of a sibling module it imported."""
    siblings = {p.stem for p in LIBRARY}
    modules = {}  # local name -> sibling module
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = (node.module or "").split(".")[-1] if node.level else (
            node.module or "").removeprefix("multispec.")
        for alias in node.names:
            if source in siblings and alias.name.startswith("_"):
                found.append((path.stem, source, alias.name))
            if alias.name in siblings and (node.level or source == "multispec"):
                modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and node.attr.startswith("_"):
            found.append((path.stem, modules[node.value.id], node.attr))
    return found


def test_no_library_module_imports_a_private_name_of_another():
    assert [f for path in LIBRARY for f in _private_imports(path)] == []


def test_private_imports_are_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .semigroup import run_pipeline, _stages\n"
                    "from multispec.levels import _reduced\n"
                    "from . import linear\n"
                    "from __future__ import annotations\n"
                    "x = linear._whole_row([1])\n")
    assert _private_imports(path) == [("mod", "semigroup", "_stages"),
                                      ("mod", "levels", "_reduced"),
                                      ("mod", "linear", "_whole_row")]
