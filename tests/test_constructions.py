"""Concrete chain systems: classical, simplicial, paired, and the reports."""

import tracemalloc

import pytest

from lambda_homology.algebras import (
    AlgebraMorphism,
    Bimodule,
    ground_field_algebra,
    matrix_algebra,
    matrix_bimodule,
    morphism_from_json,
    truncated_polynomial_algebra,
    upper_triangular_2x2,
)
from lambda_homology import constructions
from lambda_homology.config import DEFAULT_CAPS, ResourceCaps
from lambda_homology.constructions import (
    _applied_only,
    circle_top,
    compare_systems,
    corner_chain_map,
    higher_hochschild_system,
    hochschild_system,
    loday_chain,
    morita_report,
    secondary_system,
    sphere2_system,
    t_witness_vector,
    w_witness_vector,
    witness_t_suite,
    witness_w_suite,
)
from lambda_homology.errors import ResourceCapError, ValidationError
from lambda_homology.fields import PrimeField, Rationals
from lambda_homology.linalg import Matrix
from lambda_homology.simplicial import circle, simplicial_from_json, sphere2
from lambda_homology.systems import compute_theta

from conftest import betti_of, dense_table_of, matrix_of, trivial_system
from oracles import boundary_triangle, hochschild_betti_dense

Q = Rationals()


# ---------------------------------------------------------------------------
# circle systems recover the classical faces
# ---------------------------------------------------------------------------


def assert_reference_faces_classical(a, max_degree):
    m = Bimodule.regular(a)
    classical = hochschild_system(a, m, max_degree)
    on_circle = higher_hochschild_system(a, m, circle(max_degree))
    assert on_circle.dims == classical.dims
    for n in range(1, max_degree + 1):
        for i in range(n + 1):
            ref = on_circle.labels[(n, i)][0]
            assert on_circle.face_matrix(n, i, ref) == \
                classical.face_matrix(n, i)


def test_circle_reference_faces_dual(dual):
    assert_reference_faces_classical(dual, 3)


def test_circle_reference_faces_upper(upper):
    assert_reference_faces_classical(upper, 3)


def test_circle_reference_faces_m2(m2):
    assert_reference_faces_classical(m2, 3)


def test_circle_reference_faces_s3(s3):
    assert_reference_faces_classical(s3, 2)


# ---------------------------------------------------------------------------
# commutative fullness away from the circle
# ---------------------------------------------------------------------------


def test_two_level_system_full_for_commutative(dual, two_level):
    m = Bimodule.regular(dual)
    sys_ = higher_hochschild_system(dual, m, two_level)
    theta = compute_theta(sys_)
    # dim M * dim A^(non-basepoint simplices) at every level
    assert list(sys_.dims) == [4, 4, 4]
    assert theta.dims() == [4, 4, 4]
    theta.check_boundary_squares_to_zero()


def test_two_level_system_cuts_for_noncommutative(upper, two_level):
    sys_ = higher_hochschild_system(upper, Bimodule.regular(upper), two_level)
    theta = compute_theta(sys_)
    assert theta.dims()[1] < sys_.dims[1]


# ---------------------------------------------------------------------------
# the commutative-case chain: same spaces, singleton indexing
# ---------------------------------------------------------------------------


def test_loday_chain_matches_simplicial_system(dual, circle4):
    m = Bimodule.regular(dual)
    full = higher_hochschild_system(dual, m, circle4)
    trimmed = loday_chain(dual, m, circle4)
    assert trimmed.dims == full.dims
    for n in range(1, 5):
        for i in range(n + 1):
            assert len(trimmed.labels[(n, i)]) == 1
            assert trimmed.face_matrix(n, i) == full.face_matrix(
                n, i, full.labels[(n, i)][0])


def test_loday_chain_requires_commutative(upper, circle4):
    with pytest.raises(ValidationError) as err:
        loday_chain(upper, Bimodule.regular(upper), circle4)
    assert "commutative" in err.value.message


@pytest.mark.parametrize("algebra, betti", [
    ("dual", {"circle": [2, 1], "boundary_triangle": [2, 1], "classical": [2, 1]}),
    ("cubic", {"circle": [3, 2], "boundary_triangle": [3, 2], "classical": [3, 2]}),
    ("cyclic3", {"circle": [3, 0], "boundary_triangle": [3, 0], "classical": [3, 0]}),
    ("upper", {"circle": [3, 0], "boundary_triangle": [2, 1], "classical": [2, 0]}),
], ids=["dual", "cubic", "cyclic3", "upper"])
def test_theta_homology_depends_on_the_model_of_the_circle(request, algebra, betti):
    """``circle`` and dDelta^2 are two simplicial models of the circle.  For
    a commutative algebra (k[x]/(x^2), k[x]/(x^3), the group algebra of
    Z/3) higher Hochschild homology depends only on the homotopy type
    (Pirashvili 2000), and the two models and the classical system agree;
    for the upper-triangular algebra all three differ, so theta-homology
    is not a homotopy invariant.  The classical table is also the dense
    oracle's."""
    a = request.getfixturevalue(algebra)
    m = Bimodule.regular(a)
    x = simplicial_from_json(boundary_triangle(2))
    assert x.sizes == (3, 6, 9)
    thetas = {
        "circle": compute_theta(higher_hochschild_system(a, m, circle(2))),
        "boundary_triangle": compute_theta(higher_hochschild_system(a, m, x)),
        "classical": compute_theta(hochschild_system(a, m, 2)),
    }
    assert {name: betti_of(theta) for name, theta in thetas.items()} == betti
    assert hochschild_betti_dense(dense_table_of(a), a.dim, 2) == betti["classical"]
    if algebra == "upper":
        assert thetas["boundary_triangle"].dims() == [27, 591, 14815]


# ---------------------------------------------------------------------------
# the two-sphere system
# ---------------------------------------------------------------------------


def test_sphere2_shape_and_homology(dual):
    m = Bimodule.regular(dual)
    sys_ = sphere2_system(dual, m, 3)
    assert sys_.dims == (2, 2, 4, 16)
    assert {f"{n},{i}": len(labs) for (n, i), labs in sys_.labels.items()} == {
        "1,0": 1, "1,1": 1,
        "2,0": 2, "2,1": 2, "2,2": 2,
        "3,0": 6, "3,1": 4, "3,2": 4, "3,3": 6,
    }
    theta = compute_theta(sys_)
    assert theta.dims() == [2, 2, 4, 16]
    assert betti_of(theta) == [2, 0, 1]
    theta.check_boundary_squares_to_zero()


def test_sphere2_cuts_for_noncommutative(upper):
    sys_ = sphere2_system(upper, Bimodule.regular(upper), 3)
    theta = compute_theta(sys_)
    assert theta.dims() != list(sys_.dims)
    theta.check_boundary_squares_to_zero()


# ---------------------------------------------------------------------------
# the paired system over a second algebra
# ---------------------------------------------------------------------------


def assert_secondary_degenerates(a):
    """With the ground field in the second slot every candidate face equals
    the classical face, pair slots being one-dimensional."""
    k = ground_field_algebra(Q)
    eps = morphism_from_json({"builtin": "unit"}, k, a)
    m = Bimodule.regular(a)
    sys2 = secondary_system(a, k, eps, 3)
    classical = hochschild_system(a, m, 3)
    assert sys2.dims == classical.dims
    for n in range(1, 4):
        for i in range(n + 1):
            want = classical.face_matrix(n, i)
            for lab in sys2.labels[(n, i)]:
                assert sys2.face_matrix(n, i, lab) == want
    assert betti_of(compute_theta(sys2)) == betti_of(compute_theta(classical))


def test_secondary_degenerates_for_m2(m2):
    assert_secondary_degenerates(m2)


def test_secondary_degenerates_for_upper(upper):
    assert_secondary_degenerates(upper)


def test_secondary_endpoint_check(dual, upper):
    eps = AlgebraMorphism(dual, dual, Matrix.identity(Q, 2))
    with pytest.raises(ValidationError):
        secondary_system(upper, dual, eps, 2)


# ---------------------------------------------------------------------------
# witness suites
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corner_setup():
    ground = ground_field_algebra(Q)
    big, emb = matrix_algebra(ground, 2)
    bigmod, corner = matrix_bimodule(big, Bimodule.regular(ground), 2)
    return ground, big, emb, bigmod, corner


def test_w_witness_suite(corner_setup):
    ground, big, _, bigmod, _ = corner_setup
    e = {0: Q.one}  # e_11
    suite = witness_w_suite(big, bigmod, circle(4), e, e)
    assert suite["kind"] == "module_idempotent"
    assert suite["transport"]["ok"]
    assert suite["transport"]["checked"] == 28
    assert suite["span_is_subcomplex"]["valid"]
    assert all(entry["in_theta"] for entry in suite["theta_membership"])
    assert suite["theta_checked_up_to"] == 4
    parity = [(e["n"], e["boundary"]) for e in suite["boundary_parity"]["entries"]]
    assert parity == [(1, "zero"), (2, "previous_witness"),
                      (3, "zero"), (4, "previous_witness")]
    assert suite["boundary_parity"]["ok"]


def test_w_witness_vector_is_fixed_by_all_faces(corner_setup):
    _, big, _, bigmod, _ = corner_setup
    e = {0: Q.one}
    x = circle(3)
    sys_ = higher_hochschild_system(big, bigmod, x)
    for n in range(1, 4):
        wn = w_witness_vector(bigmod, x, e, e, n)
        prev = w_witness_vector(bigmod, x, e, e, n - 1)
        for i in range(n + 1):
            for lab in sys_.labels[(n, i)]:
                assert sys_.apply_face(n, i, lab, wn) == prev


def test_w_witness_rejects_bad_pair(corner_setup):
    _, big, _, bigmod, _ = corner_setup
    with pytest.raises(ValidationError):
        witness_w_suite(big, bigmod, circle(3), {1: Q.one}, {0: Q.one})


def test_t_witness_suite(corner_setup):
    _, big, _, _, _ = corner_setup
    ident = AlgebraMorphism(big, big, Matrix.identity(Q, 4))
    e = {0: Q.one}
    f = dict(big.unit)
    suite = witness_t_suite(big, big, ident, e, f, 4, theta_degree=2)
    assert suite["kind"] == "paired_idempotents"
    assert suite["transport"]["ok"]
    assert suite["span_is_subcomplex"]["valid"]
    assert suite["theta_checked_up_to"] == 2
    assert all(entry["in_theta"] for entry in suite["theta_membership"])
    assert "subcomplex containment" in suite["membership_above_direct_check"]
    parity = [(e["n"], e["boundary"]) for e in suite["boundary_parity"]["entries"]]
    assert parity == [(1, "zero"), (2, "previous_witness"),
                      (3, "zero"), (4, "previous_witness")]


def _truncation_cases(field):
    """(system to depth 3, builder of the same system to depth k): M_2(k) on
    the circle, and an uncapped paired system whose B-factor enters upper
    triangular products through e_11, so its candidates disagree."""
    m2 = matrix_algebra(ground_field_algebra(field), 2)[0]
    m = Bimodule.regular(m2)
    upper = upper_triangular_2x2(field)
    k = ground_field_algebra(field)
    e11 = AlgebraMorphism(k, upper, Matrix(field, 3, 1, [{0: field.one}, {}, {}]))
    return [
        (higher_hochschild_system(m2, m, circle(3)),
         lambda n: higher_hochschild_system(m2, m, circle(3).truncate(n))),
        (secondary_system(upper, k, e11, 3, _applied_only(DEFAULT_CAPS)),
         lambda n: secondary_system(upper, k, e11, n)),
    ]


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_truncated_system_has_the_theta_of_the_rebuilt_one(field):
    """``truncate(k)`` keeps the dims and candidates of degrees <= k and
    the same evaluator, and its theta, bases included, is the theta of the
    system built to depth k."""
    for system, build in _truncation_cases(field):
        for k in range(4):
            low, rebuilt = system.truncate(k), build(k)
            assert low.column_fn is system.column_fn
            assert low.dims == system.dims[:k + 1] == rebuilt.dims
            assert low.labels == rebuilt.labels == {
                key: labs for key, labs in system.labels.items() if key[0] <= k}
            assert (compute_theta(low).to_json(emit_bases=True)
                    == compute_theta(rebuilt).to_json(emit_bases=True))


def test_each_witness_suite_builds_its_system_once(corner_setup, monkeypatch):
    """A suite builds and validates its system once and checks membership
    on that system truncated to the theta degree."""
    _, big, _, bigmod, _ = corner_setup
    e = {0: Q.one}
    ident = AlgebraMorphism(big, big, Matrix.identity(Q, 4))
    for name, run in (
            ("higher_hochschild_system",
             lambda: witness_w_suite(big, bigmod, circle(3), e, e, theta_degree=2)),
            ("secondary_system",
             lambda: witness_t_suite(big, big, ident, e, dict(big.unit), 3,
                                     theta_degree=1))):
        builds = []
        builder = getattr(constructions, name)
        monkeypatch.setattr(constructions, name,
                            lambda *args: builds.append(args) or builder(*args))
        suite = run()
        assert len(builds) == 1
        assert all(entry["in_theta"] for entry in suite["theta_membership"])


def test_t_witness_vector_shape(corner_setup):
    _, big, _, _, _ = corner_setup
    e = {0: Q.one}
    f = dict(big.unit)
    w2 = t_witness_vector(big, big, e, f, 2)
    # degree 2 lives on 3 algebra slots and 3 pair slots
    assert all(code < 4 ** 6 for code in w2)


# ---------------------------------------------------------------------------
# the corner comparison report
# ---------------------------------------------------------------------------


def test_corner_chain_map_shapes(corner_setup):
    ground, big, emb, bigmod, corner = corner_setup
    mats = corner_chain_map(ground, Bimodule.regular(ground),
                            emb.matrix, corner, 3, [4, 16, 64, 256])
    assert [m.nrows for m in mats] == [4, 16, 64, 256]
    assert all(m.ncols == 1 for m in mats)
    assert mats[0] == corner


def test_morita_report_ground_field(ground):
    rep = morita_report(ground, Bimodule.regular(ground), 2, 3)
    assert rep["valid_up_to"] == 2
    assert rep["betti"]["circle_small"] == [1, 0, 0]
    assert rep["betti"]["classical_small"] == [1, 0, 0]
    assert rep["betti"]["classical_matrix"] == [1, 0, 0]
    # the computed subcomplex of the matrix circle system has strictly
    # larger homology; the four-way agreement fails and is reported as data
    assert rep["betti"]["circle_matrix_theta"] == [4, 0, 7]
    assert rep["tables_agree"] is False
    assert rep["corner_to_circle"]["is_lambda_morphism"]
    assert rep["circle_to_classical"]["is_lambda_morphism"]
    assert rep["composition_matches_corner_to_classical"]
    assert rep["composite_induces_isomorphism"]
    for entry in rep["corner_to_classical_induced"]:
        assert entry["isomorphism"]
    # the identity comparison is onto in homology at every reported degree
    for entry in rep["circle_to_classical"]["induced"]:
        assert entry["rank"] == entry["target_betti"]


def test_morita_report_dual_numbers(dual):
    rep = morita_report(dual, Bimodule.regular(dual), 2, 3)
    assert rep["betti"]["classical_small"] == [2, 1, 1]
    assert rep["betti"]["circle_small"] == [2, 1, 1]
    assert rep["betti"]["classical_matrix"] == [2, 1, 1]
    assert rep["betti"]["circle_matrix_theta"] == [8, 1, 21]
    assert rep["tables_agree"] is False
    assert rep["composite_induces_isomorphism"]
    assert rep["composition_matches_corner_to_classical"]


def test_morita_report_heap_peak():
    """k[x]/(x^2) at matrix size 2 and depth 2 over Q: induced maps applied
    by row products, with no column views of built matrices and no ambient
    boundary images kept, keep the traced heap of morita_report below
    1.45 MB (1.21-1.23 MB measured; 1.30-1.32 MB when each complex kept
    its ambient boundary images, 1.52 MB when the reference faces of the
    matrix-level targets kept their columns)."""
    a = truncated_polynomial_algebra(Q, 2)
    tracemalloc.start()
    try:
        rep = morita_report(a, Bimodule.regular(a), 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["composite_induces_isomorphism"]
    assert peak < 1.45e6


def test_morita_needs_commutative(upper):
    with pytest.raises(ValidationError):
        morita_report(upper, Bimodule.regular(upper), 2, 2)


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------


def test_compare_equal_systems(dual, circle4):
    m = Bimodule.regular(dual)
    left = loday_chain(dual, m, circle4)
    right = higher_hochschild_system(dual, m, circle4)
    rep = compare_systems(left, right, with_homology=True)
    assert rep["equal"]
    assert rep["first_difference"] is None
    assert rep["homology_left"]["entries"] == rep["homology_right"]["entries"]


def test_compare_reports_dimension_difference(dual, upper):
    left = hochschild_system(dual, Bimodule.regular(dual), 2)
    right = hochschild_system(upper, Bimodule.regular(upper), 2)
    rep = compare_systems(left, right)
    assert not rep["equal"]
    assert rep["first_difference"]["kind"] == "dimension"


def test_compare_reports_face_difference():
    mats_a = {(1, 0): matrix_of(Q, [[1, 0]]),
              (1, 1): matrix_of(Q, [[0, 1]])}
    mats_b = {(1, 0): matrix_of(Q, [[1, 0]]),
              (1, 1): matrix_of(Q, [[0, 2]])}
    left = trivial_system(Q, (1, 2), mats_a, label="a")
    right = trivial_system(Q, (1, 2), mats_b, label="b")
    rep = compare_systems(left, right)
    assert not rep["equal"]
    assert rep["first_difference"]["kind"] == "face_matrix"
    assert rep["first_difference"]["degree"] == 1
    assert rep["first_difference"]["position"] == 1


# ---------------------------------------------------------------------------
# caps on the constructions
# ---------------------------------------------------------------------------


def test_fiber_cap(dual, two_level):
    # the orderings of a fiber are counted against the index cap before
    # the builder enumerates them
    caps = ResourceCaps(max_index_size=1)
    with pytest.raises(ResourceCapError) as err:
        higher_hochschild_system(dual, Bimodule.regular(dual), two_level,
                                 caps=caps)
    assert err.value.message == "candidate set exceeds cap"
    assert err.value.details["size"] > 1


def test_index_cap(dual, circle4):
    caps = ResourceCaps(max_index_size=1)
    sys_ = higher_hochschild_system(dual, Bimodule.regular(dual), circle4)
    with pytest.raises(ResourceCapError):
        compute_theta(sys_, caps=caps)


def _outcome(build):
    """A built system's shape, or the cap error its builder raised."""
    try:
        sys_ = build()
    except ResourceCapError as err:
        return err.message, err.details
    return sys_.dims, {key: len(labs) for key, labs in sys_.labels.items()}


@pytest.mark.parametrize("cap_dim, cap_index", [
    (200_000, 720), (64, 720), (10**6, 24), (2, 1)])
@pytest.mark.parametrize("algebra", ["ground", "dual", "m2"])
def test_builtin_sets_stop_where_their_systems_refuse(request, algebra,
                                                     cap_dim, cap_index):
    """The builtin circle and sphere are built no higher than the first
    level where a system over them refuses a cap (``circle_top`` and
    ``sphere2_system``), so the system over the lowered set either refuses
    with the error of the system over the whole set or is that system."""
    a = request.getfixturevalue(algebra)
    m = Bimodule.regular(a)
    caps = ResourceCaps(cap_dim, cap_index)
    for level in range(1, 10):
        top = circle_top(a, m, level, caps)
        assert _outcome(lambda: higher_hochschild_system(a, m, circle(top), caps)) \
            == _outcome(lambda: higher_hochschild_system(a, m, circle(level), caps))
    for level in range(1, 9):
        assert _outcome(lambda: sphere2_system(a, m, level, caps)) == _outcome(
            lambda: higher_hochschild_system(a, m, sphere2(level), caps))
