"""Every module-level import in extlab's modules is used in that module.

The package's __init__.py imports names only to re-export them, so it
is left out.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "extlab"


def unused_imports(source):
    """The names bound by module-level imports that no Name node reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = ("import os\nimport os.path as osp\nfrom math import gcd, lcm\n"
              "def f():\n    return gcd(os.sep, 2)\n")
    assert unused_imports(source) == [(2, "osp"), (3, "lcm")]


def test_no_unused_module_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
