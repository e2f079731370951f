"""Every name the package exports resolves.

A deletion that leaves a stale ``__all__`` entry breaks ``from module
import *`` only for the user who writes it; this test reads every module's
``__all__`` and star-imports every module, the package itself included.
"""

import importlib
import pkgutil

import pytest

import lambda_homology

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
