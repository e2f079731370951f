"""Every name the package exports resolves, and every name it defines is used.

A deletion that leaves a stale ``__all__`` entry breaks ``from module
import *`` only for the user who writes it; this test reads every module's
``__all__`` and star-imports every module, the package itself included.
The package keeps only what its commands run: a function, class or method
that nothing in ``src/`` references, that ``__init__`` does not import and
that the benchmark does not bind fails ``test_every_definition_is_referenced``.
"""

import ast
import importlib
import os
import pkgutil
from collections import Counter

import pytest

import lambda_homology

from test_bench_hooks import bench_table

MODULES = ["lambda_homology"] + [
    f"lambda_homology.{m.name}"
    for m in pkgutil.iter_modules(lambda_homology.__path__)
    if m.name != "__main__"   # importing it runs the command line
]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.{attr}"
    exec(f"from {name} import *", {})


# ---------------------------------------------------------------------------
# no uncalled API
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.abspath(lambda_homology.__file__))


def _bench_bound() -> set:
    """The package names the benchmark binds: its tracer's functions and
    methods and its set-up probe's stops."""
    names = {n for attrs in bench_table("spans.py", "FUNCTIONS").values() for n in attrs}
    names |= {n for _, _, meths in bench_table("spans.py", "METHODS") for n in meths}
    return names | set(bench_table("setup_probe.py", "STOPS"))


def uncalled_definitions(src_dir: str, exempt: set) -> list:
    """``module:name`` of every function, class or method defined under
    ``src_dir`` whose name no code there references (as a name or an
    attribute) outside its own body; dunder names and ``exempt`` are
    skipped.  Names are matched alone, so a definition escapes when any
    other name or attribute is spelled the same."""
    trees = {}
    for entry in sorted(os.listdir(src_dir)):
        if entry.endswith(".py"):
            with open(os.path.join(src_dir, entry), encoding="utf-8") as fh:
                trees[entry[:-3]] = ast.parse(fh.read())

    def references(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    used = Counter()
    for tree in trees.values():
        used += references(tree)
    flagged = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if used[name] <= references(node)[name]:
                flagged.append(f"{mod}:{name}")
    return flagged


def test_every_definition_is_referenced():
    """Every function, class and method in the package is referenced by the
    package itself, imported by ``__init__`` or bound by the benchmark;
    what only tests call belongs in the tests."""
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        init = ast.parse(fh.read())
    exported = {alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert uncalled_definitions(SRC, exported | _bench_bound()) == []
