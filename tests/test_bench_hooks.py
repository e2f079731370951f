"""The package names that the benchmark's tracer and set-up probe bind.

``bench/spans.py`` wraps the functions in ``FUNCTIONS`` and the methods in
``METHODS`` by name, and ``bench/setup_probe.py`` stops at the functions in
``STOPS``.  A rename in the package would break ``bench/run.py --trace 1``
or ``setup_s`` only when the bench runs; this test reads those tables from
the bench files (without importing them) and looks every name up.
"""

import ast
import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def bench_table(filename, name):
    """The literal value assigned to ``name`` at the top of a bench file."""
    with open(os.path.join(BENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} assigns no {name}")


def module(layer):
    return importlib.import_module(f"lambda_homology.{layer}")


def test_traced_functions_resolve():
    functions = bench_table("spans.py", "FUNCTIONS")
    assert functions
    for layer, attrs in functions.items():
        for attr in attrs:
            assert callable(getattr(module(layer), attr, None)), f"{layer}.{attr}"


def test_traced_methods_resolve():
    methods = bench_table("spans.py", "METHODS")
    assert methods
    for layer, cls_name, names in methods:
        cls = getattr(module(layer), cls_name)
        for meth in names:
            # the tracer swaps the entry in the class dict itself
            assert meth in cls.__dict__, f"{layer}.{cls_name}.{meth}"


def test_setup_stops_resolve():
    stops = bench_table("setup_probe.py", "STOPS")
    assert stops
    for name in stops:
        assert callable(getattr(module("systems"), name, None)), name
