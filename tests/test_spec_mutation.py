"""Corrupted input files give an exit code, never a traceback.

Each of four small system specs, one per construction, is run through
``cli.main(["homology", ...])``, and each input file of ``verify`` (a
morphism, witness elements of both kinds, candidate subspaces and the
inner algebra of the Morita comparison) through its ``verify`` command,
once for every value inside it replaced by each of ``REPLACEMENTS``: a
value of every JSON type, and the integers that sit just outside most
ranges.  Whatever the corruption, the command must answer with exit code
0, 1 or 2.  A Hypothesis test then corrupts two or three values of one
file at once, with nested lists and dicts and large integers among the
new values, under small caps.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from lambda_homology import cli

REPLACEMENTS = (-1, 0, 2.5, True, None, "x", [], {}, [1], {"a": 1})

SPECS = {
    "hochschild": {
        "construction": "hochschild",
        "field": {"kind": "Q"},
        "algebra": {"dim": 2, "unit": ["1", "0"], "label": "dual",
                    "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]},
        "bimodule": {"dim": 1, "left": [[0, 0, 0, "1"]],
                     "right": [[0, 0, 0, "1"]]},
        "max_degree": 2,
    },
    "higher_hochschild": {
        "construction": "higher_hochschild",
        "field": {"kind": "Fp", "p": 3},
        "algebra": {"builtin": "ground_field"},
        "simplicial": {
            "max_level": 2, "sizes": [1, 2, 3], "label": "circle(2)",
            "faces": {"1": [[0, 0], [0, 0]],
                      "2": [[0, 0, 1], [0, 1, 1], [0, 1, 0]]},
            "degeneracies": {"0": [[0]], "1": [[0, 2], [0, 1]]},
        },
    },
    "secondary": {
        "construction": "secondary",
        "algebra": {"builtin": "truncated_polynomial", "order": 2},
        "second_algebra": {"builtin": "ground_field"},
        "epsilon": {"matrix": [[0, 0, "1"]], "label": "unit"},
        "max_degree": 2,
    },
    "sphere2": {
        "construction": "sphere2",
        "algebra": {"builtin": "group_algebra", "table": [[0, 1], [1, 0]]},
        "max_degree": 2,
    },
}


def positions(obj, path=()):
    """The path to every value inside a JSON value, depth first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from positions(value, path + (key,))


def replaced(spec, path, value):
    out = copy.deepcopy(spec)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def assert_exit_codes(kind, doc, doc_path, argv):
    """``argv`` passes on ``doc`` at ``doc_path`` and answers every
    one-value corruption of it with an exit code."""
    doc_path.write_text(json.dumps(doc))
    assert cli.main(argv) == 0
    for path in positions(doc):
        for value in REPLACEMENTS:
            doc_path.write_text(json.dumps(replaced(doc, path, value)))
            try:
                code = cli.main(argv)
            except Exception as exc:
                pytest.fail(f"{kind} with {list(path)} = {value!r} "
                            f"raised {exc!r}")
            assert code in (0, 1, 2), (path, value)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_corrupted_spec_gives_an_exit_code(kind, tmp_path):
    spec_path = tmp_path / "spec.json"
    argv = ["homology", str(spec_path), "--out", str(tmp_path / "report.json")]
    assert_exit_codes(kind, SPECS[kind], spec_path, argv)


DUAL = {"field": {"kind": "Q"}, "dim": 2, "unit": ["1", "0"],
        "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]}

# each verify input file, and its command with FILE where the file goes;
# ALGEBRA is DUAL and SPEC the Hochschild chain of DUAL to degree 1
VERIFY_INPUTS = {
    "morphism": (
        {"matrix": [[0, 0, "1"], [1, 1, "1"]], "label": "identity"},
        ["verify", "morphism", "--input", "FILE", "--source", "ALGEBRA",
         "--target", "ALGEBRA"],
    ),
    "elements-w": (
        {"e": ["1", "0", "0", "0"], "m": ["1", "0", "0", "0"]},
        ["verify", "witness", "--kind", "w", "--max-degree", "1",
         "--elements", "FILE"],
    ),
    "elements-t": (
        {"e": ["1", "0", "0", "0"], "f": ["1", "0", "0", "1"]},
        ["verify", "witness", "--kind", "t", "--max-degree", "1",
         "--elements", "FILE"],
    ),
    "subspaces": (
        {"subspaces": [{"vectors": [["1", "0"]]},
                       {"vectors": [["1", "0", "0", "0"]]}]},
        ["verify", "subcomplex", "--spec", "SPEC", "--subspaces", "FILE"],
    ),
    "morita-algebra": (
        DUAL,
        ["verify", "morita", "--algebra", "FILE", "--max-degree", "1"],
    ),
}


@pytest.mark.parametrize("kind", sorted(VERIFY_INPUTS))
def test_corrupted_verify_input_gives_an_exit_code(kind, tmp_path):
    files = {"FILE": tmp_path / "input.json",
             "ALGEBRA": tmp_path / "algebra.json",
             "SPEC": tmp_path / "spec.json"}
    files["ALGEBRA"].write_text(json.dumps(DUAL))
    files["SPEC"].write_text(json.dumps(
        {"construction": "hochschild", "algebra": DUAL, "max_degree": 1}))
    doc, command = VERIFY_INPUTS[kind]
    argv = [str(files.get(a, a)) for a in command]
    argv += ["--out", str(tmp_path / "report.json")]
    assert_exit_codes(kind, doc, files["FILE"], argv)


# ---------------------------------------------------------------------------
# several values at once
# ---------------------------------------------------------------------------

SMALL_CAPS = ["--cap-dim", "64", "--cap-index", "24"]

LEAVES = st.one_of(
    st.sampled_from(REPLACEMENTS + (1, 2, 3, 2000, 10**6, "1", "-1", "0")),
    st.integers(-2, 6),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["a", "dim", "builtin", "max_level", "table", "label"]),
        inner, max_size=2),
    max_leaves=6,
)


def mutated(doc, changes):
    """``doc`` with each ``(path, value)`` applied in turn, except one that
    lies inside a value an earlier change replaced."""
    out = copy.deepcopy(doc)
    done = []
    for path, value in changes:
        if any(path[:len(p)] == p for p in done):
            continue
        target = out
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        done.append(path)
    return out


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def assert_exit_code_under_changes(data, doc, doc_path, argv):
    """``argv`` answers ``doc`` with two or three values replaced with an
    exit code, never an exception.  A new value is drawn from ``VALUES`` or
    is one found elsewhere in the file, so that some changed files stay
    well formed and reach the computation."""
    paths = sorted(positions(doc))
    values = st.one_of(VALUES, st.sampled_from(
        [mutated(doc, [])] + [value_at(doc, path) for path in paths]))
    chosen = data.draw(st.lists(st.sampled_from(paths), min_size=2, max_size=3,
                                unique=True))
    changes = [(path, data.draw(values)) for path in chosen]
    doc_path.write_text(json.dumps(mutated(doc, changes)))
    try:
        code = cli.main(argv + SMALL_CAPS)
    except Exception as exc:
        pytest.fail(f"{changes!r} raised {exc!r}")
    assert code in (0, 1, 2), changes


@pytest.mark.parametrize("kind", sorted(SPECS))
@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_specs_with_several_corrupted_values_give_an_exit_code(
        kind, tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp()
    spec_path = root / f"several-{kind}.json"
    argv = ["homology", str(spec_path), "--out", str(root / "several-report.json")]
    assert_exit_code_under_changes(data, SPECS[kind], spec_path, argv)


@pytest.mark.parametrize("kind", sorted(VERIFY_INPUTS))
@settings(max_examples=250, derandomize=True, deadline=None)
@given(data=st.data())
def test_verify_inputs_with_several_corrupted_values_give_an_exit_code(
        kind, tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp()
    files = {"FILE": root / f"several-{kind}.json",
             "ALGEBRA": root / "several-algebra.json",
             "SPEC": root / "several-spec.json"}
    files["ALGEBRA"].write_text(json.dumps(DUAL))
    files["SPEC"].write_text(json.dumps(
        {"construction": "hochschild", "algebra": DUAL, "max_degree": 1}))
    doc, command = VERIFY_INPUTS[kind]
    argv = [str(files.get(a, a)) for a in command]
    argv += ["--out", str(root / "several-report.json")]
    assert_exit_code_under_changes(data, doc, files["FILE"], argv)
