"""Every module-level private function of nhcreutz has a caller in the
package itself: a helper that only tests call is dead code that the tests
keep alive. The sources are read with ast, so docstrings, comments and
tests do not count as uses.
"""

import ast
from pathlib import Path

import nhcreutz

PACKAGE = Path(nhcreutz.__file__).resolve().parent


def private_functions_and_uses():
    """The module-level _-prefixed functions of the package as
    {"module.name": name}, and every name the package's code loads or
    reads as an attribute."""
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("_") \
                    and not node.name.endswith("__"):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_private_function_has_a_caller_in_the_package():
    defined, used = private_functions_and_uses()
    assert len(defined) >= 20
    assert sorted(q for q, name in defined.items() if name not in used) == []
