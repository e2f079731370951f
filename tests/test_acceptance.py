"""End-to-end acceptance run: nine numbered criteria.

Each test prints one ``criterion N: pass|FAIL`` line on the real stdout so
the result table survives output capture.  A module fixture builds every
system and computed subcomplex once and registers them; criterion 8 sweeps
the whole registry.  Criterion 4 checks the matrix-extension comparison:
the morphism certificates, the three tables that agree with the base
table, and the documented larger table of the matrix-level circle
subcomplex.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from conftest import betti_of, dense_table_of
from oracles import hochschild_betti_dense

from lambda_homology.algebras import (
    AlgebraMorphism,
    Bimodule,
    ground_field_algebra,
    matrix_algebra,
    matrix_bimodule,
    morphism_from_json,
)
from lambda_homology.constructions import (
    higher_hochschild_system,
    hochschild_system,
    morita_report,
    secondary_system,
    witness_t_suite,
    witness_w_suite,
)
from lambda_homology.linalg import Matrix
from lambda_homology.simplicial import circle
from lambda_homology.systems import compute_theta, maximality_probe

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_announcements(capfd):
    """Let the per-criterion result lines through pytest's capture."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def announce(num: int, ok: bool, note: str = "") -> None:
    line = f"criterion {num}: {'pass' if ok else 'FAIL'}"
    if note:
        line += f"  [{note}]"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print("\n" + line, flush=True)
    else:
        print("\n" + line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num: int, note: str = ""):
    try:
        yield
    except BaseException:
        announce(num, False, note)
        raise
    announce(num, True, note)


def run_cli(args, threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src")
    env["LAMBDA_HOMOLOGY_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "lambda_homology", *args],
        capture_output=True, text=True, env=env, cwd=PKG_ROOT,
    )


@pytest.fixture(scope="module")
def art(q, ground, dual, upper, s3, circle4, two_level):
    """Everything the criteria share, built once.

    ``thetas`` maps a readable name to every computed subcomplex produced
    along the way; criterion 8 checks the boundary on each of them.
    """
    a = {"thetas": {}}

    def reg(name, theta):
        a["thetas"][name] = theta
        return theta

    # criterion 1: classical and circle systems at depth 4
    a["pairs"] = {}
    for name, alg in (("ground", ground), ("dual", dual), ("s3", s3)):
        mod = Bimodule.regular(alg)
        classical = hochschild_system(alg, mod, 4)
        on_circle = higher_hochschild_system(alg, mod, circle4)
        a["pairs"][name] = (classical, on_circle)
        reg(f"{name}_classical_4", compute_theta(classical))
        reg(f"{name}_circle_4", compute_theta(on_circle))

    # criterion 2: fullness artifacts
    a["two_level_sys"] = higher_hochschild_system(
        dual, Bimodule.regular(dual), two_level)
    a["two_level_theta"] = reg("dual_two_level",
                               compute_theta(a["two_level_sys"]))

    # criterion 3: classical homology at depth 3, both routes, timed
    t0 = time.perf_counter()
    a["oracle_betti"] = hochschild_betti_dense(dense_table_of(dual), 2, 3)
    sys3 = hochschild_system(dual, Bimodule.regular(dual), 3)
    a["pipeline_betti"] = betti_of(reg("dual_classical_3", compute_theta(sys3)))
    a["c3_seconds"] = time.perf_counter() - t0

    # criterion 4: the matrix extension comparison for both base algebras
    a["morita"] = {
        "ground": morita_report(ground, Bimodule.regular(ground), 2, 3),
        "dual": morita_report(dual, Bimodule.regular(dual), 2, 3),
    }
    for name, alg in (("ground", ground), ("dual", dual)):
        big, _ = matrix_algebra(alg, 2)
        bigmod, _ = matrix_bimodule(big, Bimodule.regular(alg), 2)
        reg(f"matrix_{name}_classical_3",
            compute_theta(hochschild_system(big, bigmod, 3)))
        reg(f"matrix_{name}_circle_3",
            compute_theta(higher_hochschild_system(big, bigmod, circle(3))))

    # criterion 5: two-algebra systems degenerating over the ground field
    k = ground_field_algebra(q)
    m2 = matrix_algebra(ground, 2)[0]
    a["secondary"] = {}
    for name, alg in (("m2", m2), ("upper", upper)):
        eps = morphism_from_json({"builtin": "unit"}, k, alg)
        sec = secondary_system(alg, k, eps, 3)
        cls = hochschild_system(alg, Bimodule.regular(alg), 3)
        a["secondary"][name] = (sec, cls)
        t_sec = reg(f"{name}_secondary_3", compute_theta(sec))
        t_cls = reg(f"{name}_classical_3", compute_theta(cls))
        a["secondary"][name + "_betti"] = (betti_of(t_sec), betti_of(t_cls))

    # criterion 6: both witness suites on the 2x2 extension of the field
    big, _ = matrix_algebra(ground, 2)
    bigmod, _ = matrix_bimodule(big, Bimodule.regular(ground), 2)
    e11 = {0: q.one}
    a["w_suite"] = witness_w_suite(big, bigmod, circle4, e11, e11)
    reg("witness_circle_4",
        compute_theta(higher_hochschild_system(big, bigmod, circle4)))
    ident = AlgebraMorphism(big, big, Matrix.identity(q, big.dim))
    a["t_suite"] = witness_t_suite(big, big, ident, e11, dict(big.unit),
                                   4, theta_degree=2)
    reg("witness_paired_2",
        compute_theta(secondary_system(big, big, ident, 2)))

    # criterion 7: the maximality probe on a non-commutative circle system
    upper_sys = higher_hochschild_system(upper, Bimodule.regular(upper),
                                         circle(3))
    a["upper_theta"] = reg("upper_circle_3", compute_theta(upper_sys))
    a["probe"] = maximality_probe(a["upper_theta"])

    return a


def test_criterion_1_circle_recovers_classical_faces(art):
    with criterion(1):
        for name, (classical, on_circle) in art["pairs"].items():
            assert on_circle.dims == classical.dims, name
            for n in range(1, 5):
                for i in range(n + 1):
                    ref = on_circle.labels[(n, i)][0]
                    assert on_circle.face_matrix(n, i, ref) == \
                        classical.face_matrix(n, i), (name, n, i)


def test_criterion_2_commutative_fullness(art, dual, circle4, two_level):
    with criterion(2):
        full = art["thetas"]["dual_circle_4"]
        want = [2 * 2 ** (circle4.sizes[n] - 1) for n in range(5)]
        assert full.dims() == want == [2, 4, 8, 16, 32]
        want2 = [2 * 2 ** (two_level.sizes[n] - 1) for n in range(3)]
        assert art["two_level_theta"].dims() == want2 == [4, 4, 4]


def test_criterion_3_classical_homology_against_oracle(art):
    with criterion(3, f"{art['c3_seconds']:.3f}s"):
        assert art["oracle_betti"] == [2, 1, 1]
        assert art["pipeline_betti"] == [2, 1, 1]
        assert art["c3_seconds"] < 1.0


def test_criterion_4_matrix_extension_tables(art, ground, dual):
    note = "computed matrix-level circle subcomplex has larger homology"
    with criterion(4, note):
        algebras = {"ground": ground, "dual": dual}
        expected = {"ground": [1, 0, 0], "dual": [2, 1, 1]}
        # README, "The matrix extension comparison"
        circle_theta = {"ground": [4, 0, 7], "dual": [8, 1, 21]}
        for name, rep in art["morita"].items():
            assert rep["corner_to_circle"]["is_lambda_morphism"]
            assert rep["circle_to_classical"]["is_lambda_morphism"]
            assert rep["composition_matches_corner_to_classical"]
            assert rep["composite_induces_isomorphism"]
            betti = rep["betti"]
            for table in ("circle_small", "classical_small",
                          "classical_matrix"):
                assert betti[table] == expected[name], (name, table, betti)
            # both degree-1 positions of the circle share their two
            # candidates, so the restricted d_1 vanishes and H_0 is the
            # whole matrix algebra
            assert rep["tables_agree"] is False, (name, betti)
            big_dim = matrix_algebra(algebras[name], 2)[0].dim
            assert betti["circle_matrix_theta"][0] == big_dim, (name, betti)
            for entry in rep["circle_to_classical"]["induced"]:
                assert entry["rank"] == entry["target_betti"], (name, entry)
            assert betti["circle_matrix_theta"] == circle_theta[name], \
                (name, betti)


def test_criterion_5_secondary_degeneration(art):
    with criterion(5):
        for name in ("m2", "upper"):
            sec, cls = art["secondary"][name]
            assert sec.dims == cls.dims, name
            for n in range(1, 4):
                for i in range(n + 1):
                    want = cls.face_matrix(n, i)
                    for lab in sec.labels[(n, i)]:
                        assert sec.face_matrix(n, i, lab) == want, \
                            (name, n, i)
            b_sec, b_cls = art["secondary"][name + "_betti"]
            assert b_sec == b_cls, name


def test_criterion_6_witness_suites(art):
    parity_want = [(1, "zero"), (2, "previous_witness"),
                   (3, "zero"), (4, "previous_witness")]
    with criterion(6, "boundary alternates zero / previous witness"):
        for suite in (art["w_suite"], art["t_suite"]):
            assert suite["transport"]["ok"]
            assert suite["span_is_subcomplex"]["valid"]
            assert all(e["in_theta"] for e in suite["theta_membership"])
            parity = [(e["n"], e["boundary"])
                      for e in suite["boundary_parity"]["entries"]]
            assert parity == parity_want
            assert suite["boundary_parity"]["ok"]
        assert art["w_suite"]["transport"]["checked"] == 28
        assert art["w_suite"]["theta_checked_up_to"] == 4
        assert art["t_suite"]["theta_checked_up_to"] == 2


def test_criterion_7_maximality_probe(art):
    with criterion(7):
        probe = art["probe"]
        assert probe["ok"]
        assert probe["recomputation_identical"]
        assert probe["degrees"], "probe must cover positive degrees"
        for deg in probe["degrees"]:
            assert deg["all_violate"], deg["n"]
            assert deg["complement_dim"] == len(deg["entries"])
            for entry in deg["entries"]:
                reason = entry["violates"]
                assert reason is not None
                assert reason["condition"] in ("agreement", "closure",
                                               "identity")


def test_criterion_8_boundary_squares_on_every_subcomplex(art):
    names = sorted(art["thetas"])
    with criterion(8, f"{len(names)} complexes"):
        for name in names:
            art["thetas"][name].check_boundary_squares_to_zero()


def test_criterion_9_cli_determinism_across_thread_counts(art, tmp_path):
    dual_alg = {"builtin": "truncated_polynomial", "order": 2}
    m2_alg = {"builtin": "matrix", "inner": {"builtin": "ground_field"},
              "size": 2}

    def put(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj, indent=1))
        return str(path)

    dual_classical = put("dual_classical.json", {
        "construction": "hochschild", "algebra": dual_alg, "max_degree": 3,
    })
    dual_alg_file = put("dual_algebra.json", dual_alg)
    m2_secondary = put("m2_secondary.json", {
        "construction": "secondary", "algebra": m2_alg,
        "second_algebra": {"builtin": "ground_field"},
        "epsilon": "unit", "max_degree": 3,
    })
    m2_classical = put("m2_classical.json", {
        "construction": "hochschild", "algebra": m2_alg, "max_degree": 3,
    })
    upper_secondary = put("upper_secondary.json", {
        "construction": "secondary",
        "algebra": {"builtin": "upper_triangular"},
        "second_algebra": {"builtin": "ground_field"},
        "epsilon": "unit", "max_degree": 3,
    })
    upper_classical = put("upper_classical.json", {
        "construction": "hochschild",
        "algebra": {"builtin": "upper_triangular"}, "max_degree": 3,
    })

    invocations = {
        "homology_dual": ["homology", dual_classical],
        "morita_ground": ["verify", "morita", "--matrix-size", "2",
                          "--max-degree", "3"],
        "morita_dual": ["verify", "morita", "--algebra", dual_alg_file,
                        "--matrix-size", "2", "--max-degree", "3"],
        "secondary_m2": ["compare", m2_secondary, m2_classical, "--betti"],
        "secondary_upper": ["compare", upper_secondary, upper_classical,
                            "--betti"],
    }

    with criterion(9, "thread counts 1 and 8, byte-identical reports"):
        for name, args in invocations.items():
            outs = {}
            for threads in (1, 8):
                out = tmp_path / f"{name}.t{threads}.json"
                r = run_cli([*args, "--out", str(out)], threads)
                assert r.returncode == 0, (name, threads, r.stdout, r.stderr)
                outs[threads] = out.read_bytes()
            assert outs[1] == outs[8], name
