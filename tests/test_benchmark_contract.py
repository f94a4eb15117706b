"""The names the benchmark takes from the package resolve.

perfbench imports functions and classes from `multispec` (`from
multispec.x import name`, in its code and in the command strings of its
child processes) and its traced worker wraps attributes by name
(`tr.wrap(owner, "name", ...)`).  A rename or a deletion in the package
would only show as a failed benchmark run, so each name is read from
perfbench/*.py with `ast` and resolved here."""

import ast
import importlib
import pathlib
import re

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
IMPORT_TEXT = re.compile(r"from (multispec(?:\.\w+)*) import (\w+(?:, *\w+)*)")


def _is_package(module: str) -> bool:
    return module.split(".")[0] == "multispec"


def _contract() -> list[tuple[str, str, str]]:
    """(file, module, dotted name) for each name that perfbench imports
    or wraps; the name is empty for `import multispec.x`."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}  # local name -> (module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _is_package(
                    node.module or ""):
                for alias in node.names:
                    out.append((path.name, node.module, alias.name))
                    imported[alias.asname or alias.name] = (node.module,
                                                            alias.name)
            elif isinstance(node, ast.Import):
                out += [(path.name, alias.name, "") for alias in node.names
                        if _is_package(alias.name)]
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                for module, names in IMPORT_TEXT.findall(node.value):
                    out += [(path.name, module, name.strip())
                            for name in names.split(",")]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "wrap" and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)):
                owner, attr = ast.unparse(node.args[0]), node.args[1].value
                if _is_package(owner):
                    out.append((path.name, owner, attr))
                elif owner in imported:
                    module, name = imported[owner]
                    out.append((path.name, module, f"{name}.{attr}"))
    return sorted(set(out))


CONTRACT = _contract()


def test_the_contract_is_read():
    # the names whose loss would break the traced benchmark silently
    assert ("worker.py", "multispec.semigroup", "cone_feasible") in CONTRACT
    assert ("worker.py", "multispec.multicone",
            "MulticoneSystem.member") in CONTRACT
    assert ("workloads.py", "multispec.linear", "cone_feasible") in CONTRACT
    assert ("workloads.py", "multispec.semigroup",
            "eliminate_lambda") in CONTRACT
    assert ("workloads.py", "multispec.cli", "main") in CONTRACT


@pytest.mark.parametrize("where, module, name", CONTRACT,
                         ids=[f"{w}:{m}:{n}" for w, m, n in CONTRACT])
def test_benchmark_names_resolve(where, module, name):
    obj = importlib.import_module(module)
    for part in filter(None, name.split(".")):
        assert hasattr(obj, part), f"{where} needs {module}.{name}"
        obj = getattr(obj, part)
