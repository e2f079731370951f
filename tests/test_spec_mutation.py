"""Corrupted system specs give an exit code, never a traceback.

Each of four small specs, one per construction, is run through
``cli.main(["homology", ...])`` once for every value inside it replaced by
each of ``REPLACEMENTS``: a value of every JSON type, and the integers that
sit just outside most ranges.  Whatever the corruption, the command must
answer with exit code 0, 1 or 2.
"""

import copy
import json

import pytest

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


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_corrupted_spec_gives_an_exit_code(kind, tmp_path):
    spec_path = tmp_path / "spec.json"
    argv = ["homology", str(spec_path), "--out", str(tmp_path / "report.json")]
    spec_path.write_text(json.dumps(SPECS[kind]))
    assert cli.main(argv) == 0
    for path in positions(SPECS[kind]):
        for value in REPLACEMENTS:
            spec_path.write_text(json.dumps(replaced(SPECS[kind], path, value)))
            try:
                code = cli.main(argv)
            except Exception as exc:
                pytest.fail(f"{kind} spec with {list(path)} = {value!r} "
                            f"raised {exc!r}")
            assert code in (0, 1, 2), (path, value)
