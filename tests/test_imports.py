"""Every module-level import in extlab's modules is used in that module,
and every name the benchmark's tracer wraps is there to wrap.

The package's __init__.py imports names only to re-export them, so it
is left out.
"""

import ast
import importlib
import importlib.util
import pkgutil
import time
from pathlib import Path
from types import SimpleNamespace

import extlab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "extlab"


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


def test_tracer_finds_every_wrapped_name():
    # perfbench/tracing.py wraps extlab's functions and methods by name;
    # building its wrappers, without installing them, fails on a rename
    # of a wrapped name such as engine._orbit_partition, and leaves
    # every module and class as it was
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    lib = SimpleNamespace(**{
        m.name: importlib.import_module("extlab." + m.name)
        for m in pkgutil.iter_modules(extlab.__path__)})
    tracer = tracing.Tracer(time.perf_counter)
    tracer.wrap(lib)
    swapped = {(owner, attr) for owner, attr, _, _ in tracer.swaps}
    targets = tracing.function_targets(lib) + tracing.method_targets(lib)
    assert {(owner, attr) for owner, attr, _, _ in targets} <= swapped
    assert all(vars(owner)[attr] is original
               for owner, attr, original, _ in tracer.swaps)
