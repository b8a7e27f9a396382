"""The magnitude oracle stays independent of the finite sum it checks:
its body refers to no function of `specfun` except the argument check,
so acceptance criterion 1 compares two different identities."""

import ast
import pathlib

from helios import specfun


def module_functions_used(source: str, function: str) -> list[str]:
    """Sorted names of the module's own top-level functions that the body
    of `function` refers to, called or not."""
    tree = ast.parse(source)
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    (body,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == function]
    return sorted({node.id for node in ast.walk(body)
                   if isinstance(node, ast.Name) and node.id in defined})


def test_the_oracle_uses_only_the_argument_check():
    source = pathlib.Path(specfun.__file__).read_text()
    assert module_functions_used(source, "hankel_magnitude_oracle") == ["_check_args"]


def test_the_check_sees_a_call_into_the_finite_sum():
    sample = ("def _check_args(n, t): pass\n"
              "def _finite_sums(n, t): pass\n"
              "def hankel_value(n, t): pass\n"
              "def hankel_table(n, t): pass\n"
              "def hankel_magnitude_oracle(n, t):\n"
              "    _check_args(n, t)\n"
              "    s, _ = _finite_sums(n, t)\n"
              "    table = hankel_table\n"
              "    return abs(hankel_value(n, t).value) + abs(table(n, t)[0][n, 0])\n")
    assert module_functions_used(sample, "hankel_magnitude_oracle") == [
        "_check_args", "_finite_sums", "hankel_table", "hankel_value"]
