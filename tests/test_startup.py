"""What a command-line job imports: the package loads only the modules a
job runs, and the heavy ones (``fractions``, which loads ``decimal``, and
``numpy``) only when a job uses them.  Each check runs in a fresh process
and counts the modules loaded after interpreter start-up."""

import json
import os
import subprocess
import sys
from fractions import Fraction

from lambda_homology.fields import Rationals
from lambda_homology.linalg import rref

from oracles import rref_dense

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "numpy")

# runs the code in {job} and prints, as a JSON list, the heavy modules it loads
PROBE = """
import json, sys
before = set(sys.modules)
{job}
loaded = set(sys.modules) - before
print(json.dumps(sorted(m for m in {heavy!r} if m in loaded)))
"""


def loaded_heavy(job):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src")
    env.pop("LAMBDA_HOMOLOGY_THREADS", None)
    r = subprocess.run(
        [sys.executable, "-c", PROBE.format(job=job, heavy=HEAVY)],
        capture_output=True, text=True, env=env, cwd=PKG_ROOT,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def cli_job(argv):
    return ("import io, contextlib\n"
            "from lambda_homology import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")


def test_cli_import_loads_no_heavy_module():
    assert loaded_heavy("import lambda_homology.cli") == []


def test_witness_job_reads_no_fraction():
    job = cli_job(["verify", "witness", "--kind", "t", "--matrix-size", "2",
                   "--max-degree", "2"])
    assert "fractions" not in loaded_heavy(job)


def test_integer_literals_read_no_fraction(tmp_path):
    """Structure constants written as integer literals are read as ints."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "construction": "hochschild", "field": {"kind": "Fp", "p": 7},
        "algebra": {"dim": 2, "unit": ["1", "0"],
                    "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]},
        "max_degree": 3,
    }))
    job = cli_job(["homology", str(spec), "--out", str(tmp_path / "report.json")])
    loaded = loaded_heavy(job)
    assert "fractions" not in loaded and "decimal" not in loaded
    report = json.loads((tmp_path / "report.json").read_text())
    assert [e["betti"] for e in report["entries"]] == [2, 1, 1]


def test_rational_m2_homology_with_bases_reads_no_fraction(tmp_path):
    """Elimination over Q is fraction-free, and every reduced form of this
    job is integral, so M_2(k) with bases loads no ``fractions``."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "construction": "higher_hochschild",
        "algebra": {"builtin": "matrix", "inner": {"builtin": "ground_field"},
                    "size": 2},
        "simplicial": {"builtin": "circle"}, "max_degree": 3,
    }))
    job = cli_job(["homology", str(spec), "--emit-bases",
                   "--out", str(tmp_path / "report.json")])
    loaded = loaded_heavy(job)
    assert "fractions" not in loaded and "decimal" not in loaded
    report = json.loads((tmp_path / "report.json").read_text())
    assert [e["betti"] for e in report["entries"]] == [4, 0, 7]


def test_rational_morita_job_reads_no_fraction(tmp_path):
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps({"builtin": "truncated_polynomial", "order": 2}))
    job = cli_job(["verify", "morita", "--algebra", str(algebra),
                   "--max-degree", "2"])
    loaded = loaded_heavy(job)
    assert "fractions" not in loaded and "decimal" not in loaded


def test_fraction_loads_for_a_non_integral_reduced_form():
    """Pivots other than +-1 alone load no ``fractions``; an entry of the
    reduced form that is not an integer does."""
    job = (
        "from lambda_homology.fields import RATIONALS as Q\n"
        "from lambda_homology.linalg import rref\n"
        "rows, _ = rref(Q, [{0: 2, 1: 4}, {1: 3, 2: 6}], 3)\n"
        "assert rows == [{0: 1, 2: -4}, {1: 1, 2: 2}]\n"
        "assert 'fractions' not in sys.modules\n"
        "rows, _ = rref(Q, [{0: 2, 1: 1}], 2)\n"
        "assert rows == [{0: 1, 1: 0.5}]\n"
    )
    assert "fractions" in loaded_heavy(job)


def test_non_integral_reduced_form_matches_oracle():
    """Entries are ints where integral and ``Fraction``s elsewhere, equal
    to the dense oracle's."""
    dense = [[6, 4, 0, 3, 0], [0, 3, 2, 0, -5], [3, 0, 0, 4, 1]]
    rows = [{c: v for c, v in enumerate(r) if v} for r in dense]
    got, pivots = rref(Rationals(), rows, 5)
    red, oracle_pivots = rref_dense([[Fraction(x) for x in r] for r in dense])
    assert pivots == tuple(oracle_pivots)
    assert got == [{c: v for c, v in enumerate(r) if v} for r in red]
    values = [v for row in got for v in row.values()]
    assert any(type(v) is Fraction for v in values)
    assert all(type(v) is int for v in values if v == int(v))


def test_small_dense_prime_field_job_does_not_import_numpy(tmp_path):
    """Its one dense elimination is 2 x 9, far too small to repay numpy."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "construction": "higher_hochschild",
        "algebra": {"builtin": "upper_triangular"},
        "simplicial": {"builtin": "circle"}, "max_degree": 4,
    }))
    job = cli_job(["homology", str(spec), "--field", "fp:7",
                   "--out", str(tmp_path / "report.json")])
    assert "numpy" not in loaded_heavy(job)
    report = json.loads((tmp_path / "report.json").read_text())
    assert [e["betti"] for e in report["entries"]] == [3, 0, 2, 0]


def test_dense_prime_field_rref_does_not_import_numpy():
    """rref reduces a filled 100 x 100 matrix over F_2147483629 without
    loading numpy; the Python and numpy dense engines, called by name
    afterwards, give the same reduced form."""
    job = (
        "import random\n"
        "from lambda_homology.fields import PrimeField\n"
        "from lambda_homology.linalg import (\n"
        "    _rref_dense_fp_numpy, _rref_dense_python, rref)\n"
        "F = PrimeField(2147483629)\n"
        "rng = random.Random(0)\n"
        "rows = [{c: rng.randrange(1, F.p) for c in range(100)}\n"
        "        for _ in range(100)]\n"
        "got = rref(F, [dict(r) for r in rows], 100)\n"
        "assert 'numpy' not in sys.modules\n"
        "assert got == _rref_dense_python(F, [dict(r) for r in rows], 100, True)\n"
        "assert got == _rref_dense_fp_numpy(F, [dict(r) for r in rows], 100, True)\n"
    )
    assert "numpy" in loaded_heavy(job)
