"""helios modules share only public names: none imports an
underscore-prefixed name from another helios module."""

import ast
import pathlib

import helios


def private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("helios")):
            module = (node.module or "").split(".")
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            module = []
            names = [part for alias in node.names if alias.name.startswith("helios.")
                     for part in alias.name.split(".")[1:]]
        else:
            continue
        found += [name for name in module + names if name.startswith("_")]
    return found


def test_no_module_imports_a_private_helios_name():
    package = pathlib.Path(helios.__file__).parent
    offenders = {path.name: private_imports(path) for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_private_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .field import _check_kR, hankel_factors\n"
                      "from . import _dd, bounds\n"
                      "from helios._private import x\n"
                      "import helios._hidden\n"
                      "import numpy._core\n")
    assert private_imports(sample) == ["_check_kR", "_dd", "_private", "_hidden"]
