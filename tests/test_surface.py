"""The library keeps only what a command, a fixture, the benchmark or the
documented API uses.

Every public top-level function and class of the library is referenced
outside its own definition, by the library or the benchmark, or exported
by `multispec/__init__.py`: code that only tests or demos reach belongs
with them.

Every defaulted parameter of the library is passed somewhere in the
library or the benchmark: a default that only tests or demos override is a
test-only mode, and a default nobody overrides is a constant.

A call counts for a parameter when it names the function (by its bare or
attribute name) and passes that parameter by keyword, reaches its position,
or spreads `*args` or `**kwargs`.

Every public field and method of a library class is read as an attribute
by the library or the benchmark: a field that is set and never read, or a
method only tests call, belongs with the tests.  The check goes by name,
so an operator, or a name that other classes share (such as `json`), is
invisible to it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "multispec").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
CALLERS = LIBRARY + BENCHMARK

ALLOWED = {
    # the only numeric route to the paper's cones W_k; no command sets it
    ("multicone", "normal_cone_probe", "directions"),
    # tests pass argv; the console script leaves it None to read sys.argv
    ("cli", "main", "argv"),
}


def _defaulted(path: Path):
    """(module, function, parameter, position) of each defaulted parameter;
    position is None for keyword-only ones and excludes self or cls.  An
    `__init__` goes by its class's name, which is how it is called."""
    tree = ast.parse(path.read_text())
    methods = {id(item): cls.name for cls in ast.walk(tree)
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
        name = methods[id(fn)] if fn.name == "__init__" else fn.name
        first = len(positional) - len(args.defaults)
        for pos in range(first, len(positional)):
            yield path.stem, name, positional[pos].arg, pos - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield path.stem, name, arg.arg, None


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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(path: Path):
    """(module, name) of each public top-level function and class."""
    return [(path.stem, node.name) for node in ast.parse(path.read_text()).body
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]


def _references(path: Path):
    """(name, the top-level definition it sits in, or None) of each bare
    name and attribute a module refers to."""
    out = set()
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.add((node.attr, owner))
    return out


def _benchmark_names(path: Path):
    """Every name a benchmark module refers to or imports, and every word
    of its strings (child-process commands and traced attributes)."""
    out = {name for name, _ in _references(path)}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
    return out


def _exports(init: Path):
    return {alias.name for node in ast.walk(ast.parse(init.read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _unreferenced(library, benchmark, init: Path):
    """(module, name) of each public definition of the library that no
    other library code references, the benchmark does not name, and the
    package does not export."""
    used = {name for path in library for name, owner in _references(path)
            if name != owner}
    used |= {name for path in benchmark for name in _benchmark_names(path)}
    used |= _exports(init)
    return [(module, name) for path in library
            for module, name in _public_definitions(path) if name not in used]


def test_every_public_name_is_used_or_exported():
    assert _unreferenced(LIBRARY, BENCHMARK,
                         ROOT / "src" / "multispec" / "__init__.py") == []


def test_unreferenced_names_are_found(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported\n")
    (tmp_path / "mod.py").write_text(
        "def exported(): pass\n"
        "def called(): pass\n"
        "def benchmarked(): pass\n"
        "def traced(): pass\n"
        "def recursive(): return recursive()\n"
        "def unused(): pass\n"
        "class Report: pass\n"
        "def build(): return Report(called())\n")
    (tmp_path / "bench.py").write_text(
        "from mod import benchmarked\n"
        "import mod\n"
        "tr.wrap(mod, 'traced')\n"
        "benchmarked()\n")
    library = [tmp_path / "__init__.py", tmp_path / "mod.py"]
    assert _unreferenced(library, [tmp_path / "bench.py"],
                         tmp_path / "__init__.py") == [
        ("mod", "recursive"), ("mod", "unused"), ("mod", "build")]


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


MEMBERS_ALLOWED = {
    # diagnostic safety data: the points a contraction moved out of the
    # system, for whoever inspects a failed check
    ("multicone", "ContractionReport", "failures"),
    # part of the YES certificate: the witness multiplies to probe^power
    ("semigroup", "MembershipResult", "power"),
    # N_k, the summand's ambient manifold, as data beside the text that
    # embeds it
    ("deformation", "BundleSummand", "ambient"),
}


def _public_members(path: Path):
    """(module, class, name) of each public field (an annotated class
    attribute) and method of a top-level class."""
    out = []
    for cls in ast.parse(path.read_text()).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name):
                name = item.target.id
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
            else:
                continue
            if not name.startswith("_"):
                out.append((path.stem, cls.name, name))
    return out


def _unread_members(library, benchmark):
    """(module, class, name) of each public member of the library that no
    library or benchmark module reads as an attribute."""
    reads = {node.attr for path in library + benchmark
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    return [member for path in library for member in _public_members(path)
            if member[2] not in reads]


def test_every_public_member_is_read():
    unread = set(_unread_members(LIBRARY, BENCHMARK))
    assert unread - MEMBERS_ALLOWED == set(), \
        "fields and methods no library or benchmark code reads"
    assert MEMBERS_ALLOWED <= unread, "allowlist entries that are read now"


def test_unread_members_are_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Report:\n"
        "    read: int\n"
        "    benchmarked: int\n"
        "    stored: int\n"
        "    _private: int = 0\n"
        "    def used(self): return self.read\n"
        "    def unused(self): pass\n"
        "    def __mul__(self, other): return self\n"
        "def build(): return Report(1, 2, stored=3).used()\n")
    (tmp_path / "bench.py").write_text(
        "print(report.benchmarked)\n"
        "report.unused = None\n")
    assert _unread_members([tmp_path / "mod.py"], [tmp_path / "bench.py"]) \
        == [("mod", "Report", "stored"), ("mod", "Report", "unused")]
