"""The maximal-subcomplex computation against hand cases and the sweep oracle."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambda_homology.algebras import (
    Bimodule,
    ground_field_algebra,
    group_algebra,
    matrix_algebra,
    upper_triangular_2x2,
)
from lambda_homology.config import ResourceCaps
from lambda_homology.constructions import (
    higher_hochschild_system,
    hochschild_system,
    sphere2_system,
)
from lambda_homology.errors import InternalCheckError, ResourceCapError, ValidationError
from lambda_homology.fields import PrimeField, Rationals
from lambda_homology.linalg import Matrix, Subspace, rank, rank_and_basis_rows
from lambda_homology.simplicial import circle
from lambda_homology import systems
from lambda_homology.systems import (
    LambdaMorphism,
    ThetaComplex,
    check_lambda_morphism,
    compute_theta,
    homology_quotients,
    induced_theta_map,
    maximality_probe,
    validate_subcomplex,
)

from conftest import (
    candidate_system,
    dense_matrix,
    dense_span,
    dense_table_of,
    matrix_of,
    same_span,
    symmetric_group_table,
    trivial_system,
)
from test_condition_golden import build as build_golden_case
from oracles import (
    boundary_dense, chain_betti_dense, circle_candidates_dense, columns, rank_dense,
    rank_dense_mod, tensor_dims, theta_sweep,
)

Q = Rationals()


# ---------------------------------------------------------------------------
# a toy system small enough to solve by hand
# ---------------------------------------------------------------------------
#
# Degrees (1, 2, 2).  Position (1, 0) carries two candidates, [1 0] and
# [1 1]; position (1, 1) carries [0 1]; degree 2 has identity matrices at
# all three positions.  By hand: agreement in degree 1 leaves span{e0};
# degree 2 closure leaves span{e0}, and the (0, 2) identity then demands
# v0 = v1, so the maximal subcomplex is (full, span{e0}, 0).


def toy_system():
    mats = {
        (1, 0): [matrix_of(Q, [[1, 0]]), matrix_of(Q, [[1, 1]])],
        (1, 1): [matrix_of(Q, [[0, 1]])],
        (2, 0): [Matrix.identity(Q, 2)],
        (2, 1): [Matrix.identity(Q, 2)],
        (2, 2): [Matrix.identity(Q, 2)],
    }
    return candidate_system(Q, (1, 2, 2), mats, label="toy")


def test_toy_theta_matches_hand_computation():
    theta = compute_theta(toy_system())
    assert theta.dims() == [1, 1, 0]
    assert theta.subspaces[1].contains({0: Q.one})
    assert not theta.subspaces[1].contains({1: Q.one})


def test_toy_homology_by_hand():
    theta = compute_theta(toy_system())
    rep = theta.homology()
    assert rep["valid_up_to"] == 1
    # boundary d0 - d1 = [1 -1] has rank 1 on span{e0}
    assert [e["betti"] for e in rep["entries"]] == [0, 0]
    assert rep["entries"][0]["rank_d_n_plus_1"] == 1


def test_toy_validate_and_probe():
    sys_ = toy_system()
    theta = compute_theta(sys_)
    rep = validate_subcomplex(sys_, theta.subspaces)
    assert rep["valid"] and rep["violations"] == []
    # the full spaces are not a subcomplex: agreement fails in degree 1
    full = [Subspace.full(Q, d) for d in sys_.dims]
    rep = validate_subcomplex(sys_, full)
    assert not rep["valid"]
    assert any(v["condition"] == "agreement" for v in rep["violations"])
    probe = maximality_probe(theta)
    assert probe["ok"]
    assert probe["recomputation_identical"]
    for deg in probe["degrees"]:
        assert deg["all_violate"]


def test_trivial_system_wraps_plain_matrices():
    mats = {
        (1, 0): matrix_of(Q, [[1, 0]]),
        (1, 1): matrix_of(Q, [[0, 0]]),
    }
    sys_ = trivial_system(Q, (1, 2), mats, label="wrapped")
    assert sys_.labels[(1, 0)] == (0,)
    theta = compute_theta(sys_)
    # nothing constrains a single-candidate chain complex shape here
    assert theta.dims() == [1, 2]
    with pytest.raises(ValidationError):
        trivial_system(Q, (1, 2), {(1, 0): mats[(1, 0)]})


# ---------------------------------------------------------------------------
# circle systems against the dense fixed-point oracle
# ---------------------------------------------------------------------------


def _oracle_cross_check(algebra, table, max_degree):
    m = Bimodule.regular(algebra)
    sys_ = higher_hochschild_system(algebra, m, circle(max_degree))
    theta = compute_theta(sys_)
    d = algebra.dim
    dims = [tensor_dims(d, n) for n in range(max_degree + 1)]
    cands = circle_candidates_dense(table, d, max_degree)
    # candidate faces must match the two orderings of the merged pair,
    # reference (identity permutation) first
    for n in range(1, max_degree + 1):
        for i in range(n + 1):
            labs = sys_.labels[(n, i)]
            assert len(labs) == 2
            got = [dense_matrix(sys_.face_matrix(n, i, lab)) for lab in labs]
            assert got == cands[(n, i)]
    spaces = theta_sweep(dims, cands, max_degree)
    for n in range(max_degree + 1):
        assert same_span(dense_span(theta.subspaces[n]), spaces[n])
    return theta, spaces


def test_dual_circle_matches_oracle(dual, dense_tables):
    theta, _ = _oracle_cross_check(dual, dense_tables["dual"], 3)
    # commutative algebra: nothing is cut, the subcomplex is everything
    assert theta.dims() == [2, 4, 8, 16]


def test_upper_circle_matches_oracle(upper, dense_tables):
    theta, spaces = _oracle_cross_check(upper, dense_tables["upper"], 3)
    assert theta.dims() == [3, 8, 20, 48]
    bnds = {n: boundary_dense(dense_tables["upper"], 3, n) for n in (1, 2, 3)}
    assert theta.betti() == chain_betti_dense(spaces, bnds, 3) == [3, 0, 2]


def test_m2_circle_matches_oracle_at_low_degree(m2, dense_tables):
    theta, _ = _oracle_cross_check(m2, dense_tables["m2"], 2)
    assert theta.dims() == [4, 13, 38]


def test_m2_circle_frozen_values(m2):
    # degree-3 run of the dense oracle takes minutes, so its output is
    # frozen here: theta (4, 13, 38, 104) of ambient (4, 16, 64, 256),
    # betti (4, 0, 7)
    sys_ = higher_hochschild_system(m2, Bimodule.regular(m2), circle(3))
    theta = compute_theta(sys_)
    assert theta.dims() == [4, 13, 38, 104]
    assert theta.betti() == [4, 0, 7]


def test_m2_circle_depth_six(m2):
    """The deepest case cheap enough for every run (about 2 s): degree 6,
    ambient 4^7 = 16384, frozen from the reduced-form elimination."""
    sys_ = higher_hochschild_system(m2, Bimodule.regular(m2), circle(6))
    theta = compute_theta(sys_)
    assert theta.dims() == [4, 13, 38, 104, 272, 688, 1696]
    assert theta.betti() == [4, 0, 7, 0, 11, 0]


def test_theta_of_classical_system_is_full(upper):
    # one candidate per position and honest simplicial faces: nothing is cut
    sys_ = hochschild_system(upper, Bimodule.regular(upper), 3)
    theta = compute_theta(sys_)
    assert theta.dims() == [3, 9, 27, 81]


# ---------------------------------------------------------------------------
# boundary, quotients, morphisms
# ---------------------------------------------------------------------------


def test_boundary_squares_to_zero_on_theta(upper):
    sys_ = higher_hochschild_system(upper, Bimodule.regular(upper), circle(3))
    theta = compute_theta(sys_)
    theta.check_boundary_squares_to_zero()
    # and directly on a couple of ambient vectors of the classical system
    csys = hochschild_system(upper, Bimodule.regular(upper), 3)
    for x in range(csys.dims[2]):
        img = csys.apply_boundary(2, {x: Q.one})
        assert csys.apply_boundary(1, img) == {}


# Dims (1, 1, 2, 3).  d_0 = d_1 in degree 1 and only d_0 is nonzero in
# degrees 2 and 3, so the boundaries are 0, [1 0] and [[0 1 1], [0 0 0]]:
# d d vanishes in degree 2, and in degree 3 it is [0 1 1], which kills e0
# and e1 - e2 but not e1.  No subcomplex computation is involved; the
# "theta" below is chosen by hand.


def _broken_square_theta(top_basis):
    z12, z23 = matrix_of(Q, [[0, 0]]), matrix_of(Q, [[0, 0, 0]] * 2)
    faces = {
        (1, 0): Matrix.identity(Q, 1), (1, 1): Matrix.identity(Q, 1),
        (2, 0): matrix_of(Q, [[1, 0]]), (2, 1): z12, (2, 2): z12,
        (3, 0): matrix_of(Q, [[0, 1, 1], [0, 0, 0]]),
        (3, 1): z23, (3, 2): z23, (3, 3): z23,
    }
    sys_ = trivial_system(Q, (1, 1, 2, 3), faces)
    subspaces = [Subspace.full(Q, 1), Subspace.full(Q, 1), Subspace.full(Q, 2),
                 Subspace.from_vectors(Q, 3, top_basis)]
    return ThetaComplex(sys_, subspaces)


def test_boundary_square_failure_names_degree_and_basis_row():
    theta = _broken_square_theta([{0: Q.one}, {1: Q.one}])
    for check in (theta.check_boundary_squares_to_zero, theta.homology):
        with pytest.raises(InternalCheckError) as info:
            check()
        assert info.value.message == "boundary does not square to zero"
        assert info.value.details == {"degree": 3, "basis_index": 1}


def test_nonzero_square_is_fine_on_a_subspace_it_kills():
    theta = _broken_square_theta([{0: Q.one}, {1: Q.one, 2: -Q.one}])
    theta.check_boundary_squares_to_zero()
    rep = theta.homology()
    assert [e["rank_d_n"] for e in rep["entries"]] == [0, 0, 1]
    assert theta.betti() == [1, 0, 1]


def test_homology_is_computed_once(dual, monkeypatch):
    theta = compute_theta(
        higher_hochschild_system(dual, Bimodule.regular(dual), circle(3)))
    calls = []
    real_rank = systems.rank_and_basis_rows
    monkeypatch.setattr(systems, "rank_and_basis_rows",
                        lambda m, skip: calls.append(m) or real_rank(m, skip))
    first = theta.homology()
    assert len(calls) == 3
    first["theta"] = {"changed": True}
    first["entries"][0]["betti"] = -1
    second = theta.homology()
    assert len(calls) == 3
    assert "theta" not in second and second["entries"][0]["betti"] != -1
    assert theta.betti() == [e["betti"] for e in second["entries"]]
    assert len(calls) == 3


def test_emitted_bases_replace_the_kernel_shaped_ones(m2):
    """With bases emitted, each degree keeps only its canonical basis, the
    one emitted; each distinct scalar of a basis is printed to one shared
    string; the report, and the homology read after it, are those of a
    complex that keeps its kernel-shaped bases."""
    def theta():
        return compute_theta(higher_hochschild_system(m2, Bimodule.regular(m2), circle(3)))

    kept, replaced = theta(), theta()
    assert not all(s.canonicalize() is s for s in kept.subspaces)
    report = replaced.to_json(emit_bases=True)
    assert all(s.canonicalize() is s for s in replaced.subspaces)
    assert report == {**kept.to_json(), "bases": [s.to_json() for s in kept.subspaces]}
    assert replaced.homology() == kept.homology()
    for basis in report["bases"]:
        strs = [e[2] for e in basis["basis"]]
        assert len({id(x) for x in strs}) == len(set(strs))


def test_each_boundary_is_built_once_and_squared_in_any_degree(dual):
    """A system keeps each boundary it builds, for the homology ranks, the
    square check and the induced maps alike; ``compute_theta`` builds them
    all and comes back holding no reference face, and a face asked for
    later is built again.  The square check runs in any one degree, the
    lowest included."""
    sys_ = hochschild_system(dual, Bimodule.regular(dual), 3)
    theta = compute_theta(sys_)
    assert not sys_._ref_cache and sorted(sys_._boundary_cache) == [1, 2, 3]
    assert sys_.face_matrix(2, 1) == sys_._build_face(2, 1, sys_.labels[(2, 1)][0])
    assert theta.check_boundary_squares_to_zero(2) is None
    assert theta.check_boundary_squares_to_zero(1) is None
    built = [sys_.boundary_matrix(n) for n in range(1, 4)]
    theta.homology()
    theta.check_boundary_squares_to_zero()
    theta.boundary_image_rows(3)
    for n, bnd in enumerate(built, 1):
        assert sys_.boundary_matrix(n) is bnd


def _case_system(request, case):
    """The regular bimodule's system on circle(3), or on the 2-sphere to
    depth 3 for a ``sphere2/`` case; ``s3/Fp`` is S3 over F_2147483629."""
    if case == "s3/Fp":
        a = group_algebra(PrimeField(2147483629), symmetric_group_table(3))
    else:
        a = request.getfixturevalue(case.split("/")[-1])
    m = Bimodule.regular(a)
    if case.startswith("sphere2"):
        return sphere2_system(a, m, 3)
    return higher_hochschild_system(a, m, circle(3))


def _ambient_images(theta, n):
    """B_n . d_n^T: the boundary images of theta_n's basis, ambient."""
    bnd = theta.system.boundary_matrix(n)
    return theta.subspaces[n].basis.mul(bnd.transpose()).rows


@pytest.mark.parametrize("case", ["m2", "upper", "s3/Fp", "sphere2/upper"])
def test_boundary_image_rows_are_theta_coordinates(request, case):
    """Each row of ``boundary_image_rows(n)`` is keyed by theta_{n-1}'s
    pivots only, and spread over theta_{n-1}'s basis (the sum of row[p]
    times the basis row with pivot p) it is the ambient image of its basis
    row, computed here from the boundary matrix."""
    theta = compute_theta(_case_system(request, case))
    f = theta.system.field
    proper = nonzero = False
    for n in range(1, theta.max_degree + 1):
        lower = theta.subspaces[n - 1]
        row_at = dict(zip(lower.pivots, lower.basis.rows))
        rows = theta.boundary_image_rows(n)
        ambient = _ambient_images(theta, n)
        assert len(rows) == len(ambient) == theta.dim(n)
        for row, amb in zip(rows, ambient):
            assert set(row) <= row_at.keys()
            spread: dict = {}
            for p, v in row.items():
                f.axpy_row(spread, row_at[p], v)
            assert spread == amb
            nonzero = nonzero or bool(row)
        proper = proper or not lower.is_full
    assert proper and nonzero


@pytest.mark.parametrize("case", ["dual", "upper", "m2", "s3/Fp", "sphere2/upper"])
def test_theta_coordinate_ranks_equal_ambient_ranks(request, case):
    """``homology()`` ranks each boundary on the pivot coordinates of
    theta_{n-1}; on the shipped constructions every rank equals the rank of
    the full ambient image rows, built here from the boundary matrix."""
    sys_ = _case_system(request, case)
    theta = compute_theta(sys_)
    entries = theta.homology()["entries"]
    ranks = [e["rank_d_n"] for e in entries] + [entries[-1]["rank_d_n_plus_1"]]
    ambient = [0]
    for n in range(1, theta.max_degree + 1):
        rows = _ambient_images(theta, n)
        ambient.append(rank(Matrix(sys_.field, len(rows), sys_.dims[n - 1], rows)))
    assert ranks == ambient
    if case != "dual":   # a proper theta_{n-1}, so entries were dropped
        assert not all(s.is_full for s in theta.subspaces[:-1])


@pytest.fixture(scope="module", params=[
    f"{shape}{algebra}/{field}" for shape in ("", "sphere2/")
    for algebra in ("m2", "s3", "upper") if shape == "" or algebra != "s3"
    for field in ("Q", "Fp")])
def theta_and_oracle_ranks(request):
    """Theta of the regular bimodule's system on circle(3), or on the
    2-sphere to depth 3, over Q or F_2147483629; with the dense oracle's
    rank of each degree's boundary images in theta coordinates."""
    case, fname = request.param.rsplit("/", 1)
    field = Q if fname == "Q" else PrimeField(2147483629)
    name = case.split("/")[-1]
    if name == "s3":
        a = group_algebra(field, symmetric_group_table(3))
    elif name == "m2":
        a = matrix_algebra(ground_field_algebra(field), 2)[0]
    else:
        a = upper_triangular_2x2(field)
    m = Bimodule.regular(a)
    if case.startswith("sphere2"):
        theta = compute_theta(sphere2_system(a, m, 3))
    else:
        theta = compute_theta(higher_hochschild_system(a, m, circle(3)))
    oracle = [0]
    for n in range(1, theta.max_degree + 1):
        pivots = theta.subspaces[n - 1].pivots
        dense = [[row.get(c, 0) for c in pivots] for row in theta.boundary_image_rows(n)]
        if len(dense) > len(pivots):
            dense = [list(col) for col in zip(*dense)]
        if field is Q:
            oracle.append(rank_dense([[Fraction(x) for x in row] for row in dense]))
        else:
            oracle.append(rank_dense_mod(dense, field.p))
    return theta, oracle


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_ranks_cut_by_square_zero_equal_uncut_and_oracle_ranks(
        theta_and_oracle_ranks, data):
    """``homology()`` ranks d_n with the columns at P deleted: the pivot
    coordinates of the theta_{n-1} basis rows that the rank of d_{n-1}
    names as a basis of its images.  As d_{n-1} d_n = 0, an image
    coordinate in P is a combination of those outside P, so in every degree
    the cut rank is the uncut rank and the oracle's; so it is when the rows
    of each degree's images are drawn in any order, which changes P."""
    theta, oracle = theta_and_oracle_ranks
    f = theta.system.field
    entries = theta.homology()["entries"]
    assert [e["rank_d_n"] for e in entries] + [entries[-1]["rank_d_n_plus_1"]] == oracle
    cut, cut_sizes = (), []
    for n in range(1, theta.max_degree + 1):
        rows = theta.boundary_image_rows(n)
        order = data.draw(st.permutations(range(len(rows))))
        m = Matrix(f, len(rows), theta.system.dims[n - 1], [rows[k] for k in order])
        r, basis = rank_and_basis_rows(m, cut)
        assert r == rank(m) == oracle[n]
        pivots = theta.subspaces[n].pivots
        cut_sizes.append(len(cut))
        cut = {pivots[order[k]] for k in basis}
    assert any(cut_sizes)


def dihedral4_table(perm):
    """Cayley table of D4 = <r, s | r^4 = s^2 = 1, s r = r^-1 s>, with
    r^k s^e as element perm[2k + e]."""
    def mul(g, h):
        (a, e), (b, f) = divmod(g, 2), divmod(h, 2)
        return 2 * ((a + (-1) ** e * b) % 4) + (e + f) % 2

    table = [[0] * 8 for _ in range(8)]
    for g in range(8):
        for h in range(8):
            table[perm[g]][perm[h]] = perm[mul(g, h)]
    return table


@pytest.mark.parametrize("perm", [list(range(8)), [5, 2, 7, 0, 3, 6, 1, 4]],
                         ids=["identity", "relabelled"])
def test_dihedral_group_ranks_on_circle(perm):
    """QD4 on circle(3): the d_3 image (3336 x 512, rank 382) is the
    largest rank the tests take over Q; a relabelling of the group
    elements changes no dimension, rank or Betti number."""
    a = group_algebra(Q, dihedral4_table(perm))
    theta = compute_theta(higher_hochschild_system(a, Bimodule.regular(a), circle(3)))
    entries = theta.homology()["entries"]
    assert [e["dim_theta"] for e in entries] == [8, 61, 450]
    assert [e["rank_d_n_plus_1"] for e in entries] == [0, 61, 382]
    assert [e["betti"] for e in entries] == [8, 0, 7]


def test_s3_homology_heap_peak():
    """S3 on circle(3) over F_2147483629: the condition blocks eliminated
    as they are built, rows released once they reduce to zero or the kernel
    is read off them, a pivot index of lists pruned as it is read, no
    reference faces kept past theta, and ranks that do not hold the image
    rows they copied keep the traced heap of compute_theta and homology
    below 1.7 MB (1.89 MB with an index of sets kept exact and the faces
    kept, 2.31 MB with every condition row of a degree stacked before its
    elimination)."""
    a = group_algebra(PrimeField(2147483629), symmetric_group_table(3))
    sys_ = higher_hochschild_system(a, Bimodule.regular(a), circle(3))
    tracemalloc.start()
    try:
        report = compute_theta(sys_).homology()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e["betti"] for e in report["entries"]] == [6, 0, 7]
    assert peak < 1.7e6


def test_m2_circle_five_theta_heap_peak(m2):
    """M_2(k) on circle(5) over Q: 4096-dimensional top ambient, whose
    condition rows mostly reduce to zero.  Released as they do, block by
    block, with the pivot index pruned as it is read and each degree's
    reference faces dropped once the next degree is done, they keep the
    traced heap of compute_theta below 6.7 MB (7.24 MB with an index of
    sets kept exact and every face kept, 10.09 MB with every row of a
    degree stacked before the elimination)."""
    sys_ = higher_hochschild_system(m2, Bimodule.regular(m2), circle(5))
    tracemalloc.start()
    try:
        theta = compute_theta(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert theta.dims() == [4, 13, 38, 104, 272, 688]
    assert peak < 6.7e6


def test_m2_circle_five_homology_heap_peak(m2):
    """M_2(k) on circle(5) over Q, homology after theta: boundaries in
    place of reference faces and top ranks cut by the square-zero identity
    keep the traced heap, theta included, below 3.5 MB (4.58 MB with the
    faces kept and the images ranked whole)."""
    sys_ = higher_hochschild_system(m2, Bimodule.regular(m2), circle(5))
    tracemalloc.start()
    try:
        theta = compute_theta(sys_)
        tracemalloc.reset_peak()
        report = theta.homology()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e["betti"] for e in report["entries"]] == [4, 0, 7, 0, 11]
    assert peak < 3.5e6


def test_built_faces_keep_rows_until_a_column_is_asked(upper):
    """A built face holds rows only, with no column view; its columns, asked
    for as the rows of its transpose, are the images ``apply_face`` gives
    of the unit vectors, zero columns included."""
    sys_ = hochschild_system(upper, Bimodule.regular(upper), 2)
    for n, i in ((1, 0), (2, 1), (2, 2)):
        lab = sys_.labels[(n, i)][0]
        face = sys_._build_face(n, i, lab)
        assert not hasattr(face, "__dict__") and not hasattr(face, "column")
        cols = face.transpose().rows
        assert cols == columns(face)
        units = [{x: Q.one} for x in range(face.ncols)]
        assert cols == [sys_.apply_face(n, i, lab, u) for u in units]
        assert any(not c for c in cols)


@pytest.mark.parametrize("algebra", ["dual", "m2"])
def test_homology_quotients_classify_cycles(request, algebra):
    """The cycles span the ambient boundary images, built here from the
    boundary matrix; for M_2(k) theta_1 is a proper subspace."""
    a = request.getfixturevalue(algebra)
    sys_ = higher_hochschild_system(a, Bimodule.regular(a), circle(3))
    theta = compute_theta(sys_)
    assert algebra == "dual" or not theta.subspaces[1].is_full
    table = theta.homology()["entries"]
    cycles = homology_quotients(theta, 2)
    assert len(cycles) == 3
    for n, rows in enumerate(cycles):
        amb = sys_.dims[n]
        for z in rows:
            assert theta.subspaces[n].contains(z)
            assert n == 0 or sys_.apply_boundary(n, z) == {}
        cycle_span = Subspace.from_vectors(Q, amb, rows)
        for b in _ambient_images(theta, n + 1):
            assert cycle_span.contains(b)
        assert rank(Matrix(Q, len(rows), amb, rows)) == len(rows)
        assert len(rows) - table[n]["rank_d_n_plus_1"] == table[n]["betti"]


@pytest.mark.parametrize("algebra", ["dual", "m2"])
def test_induced_maps_of_identity_and_zero(request, algebra):
    """The identity induces the identity on homology; the zero map has rank
    0, an isomorphism exactly where the homology vanishes (M_2(k) on the
    circle has betti [4, 0, 7])."""
    a = request.getfixturevalue(algebra)
    sys_ = higher_hochschild_system(a, Bimodule.regular(a), circle(3))
    theta = compute_theta(sys_)
    betti = theta.betti()
    ident = LambdaMorphism.identity(sys_, sys_)
    zero = LambdaMorphism(sys_, sys_, [Matrix.from_entries(Q, d, d, ()) for d in sys_.dims])
    for mor, expect in ((ident, betti), (zero, [0] * len(betti))):
        maps = induced_theta_map(mor, theta, theta)["homology_maps"]
        assert [h["rank"] for h in maps] == expect
        assert [h["source_betti"] for h in maps] == betti
        assert [h["target_betti"] for h in maps] == betti
        assert [h["isomorphism"] for h in maps] == [
            r == b for r, b in zip(expect, betti)]

def test_identity_morphism_circle_to_classical_is_lambda(upper):
    m = Bimodule.regular(upper)
    src = higher_hochschild_system(upper, m, circle(3))
    tgt = hochschild_system(upper, m, 3)
    mor = LambdaMorphism.identity(src, tgt)
    rep = check_lambda_morphism(mor)
    assert rep["ok"]
    # the single classical candidate is matched by the source reference,
    # the identity ordering of the merged fiber
    for a in rep["assignments"]:
        assert a["target_candidate"] == 0
        assert a["source_candidate"] == [[0, 1]]
    # the reverse direction must fail: the swapped candidate of the circle
    # system is not a face of the classical one for a noncommutative algebra
    rev = LambdaMorphism.identity(tgt, src)
    rep = check_lambda_morphism(rev)
    assert not rep["ok"]
    assert rep["failures"]
    first = rep["failures"][0]
    assert {"degree", "position", "target_candidate"} <= set(first)


def test_induced_map_on_theta(dual):
    m = Bimodule.regular(dual)
    src = higher_hochschild_system(dual, m, circle(3))
    tgt = hochschild_system(dual, m, 3)
    mor = LambdaMorphism.identity(src, tgt)
    th_src = compute_theta(src)
    th_tgt = compute_theta(tgt)
    rep = induced_theta_map(mor, th_src, th_tgt)
    for entry in rep["homology_maps"]:
        assert entry["isomorphism"]
        assert entry["source_betti"] == entry["target_betti"]


# Two hand-made systems with dims (1, 2) on which a morphism breaks
# induced_theta_map's own checks: a target whose two d_0 candidates [1 0]
# and [1 1] agree only on span{e0}, so e1 of a full source escapes θ_1;
# and a degreewise map diag(1, 2) that is not a chain map for the boundary
# [1 1] (the image of e1 has boundary 2, the boundary of e1 maps to 1).


def _line_system(d0_candidates):
    mats = {
        (1, 0): [matrix_of(Q, [row]) for row in d0_candidates],
        (1, 1): [matrix_of(Q, [[0, 0]])],
    }
    return candidate_system(Q, (1, 2), mats)


@pytest.mark.parametrize("broken, message", [
    ("target", "morphism image escapes the target subcomplex"),
    ("map", "morphism does not commute with the boundary"),
])
def test_induced_map_checks_name_degree_and_basis_row(broken, message):
    src = _line_system([[1, 1]])
    if broken == "target":
        tgt = _line_system([[1, 0], [1, 1]])
        mor = LambdaMorphism.identity(src, tgt)
    else:
        tgt = src
        mor = LambdaMorphism(src, tgt, [Matrix.identity(Q, 1),
                                        matrix_of(Q, [[1, 0], [0, 2]])])
    th_src, th_tgt = compute_theta(src), compute_theta(tgt)
    assert th_src.dims() == [1, 2]
    assert th_tgt.dims() == ([1, 1] if broken == "target" else [1, 2])
    with pytest.raises(InternalCheckError) as info:
        induced_theta_map(mor, th_src, th_tgt)
    assert info.value.message == message
    assert info.value.details == {"degree": 1, "basis_index": 1}


def test_caps_are_enforced(dual):
    caps = ResourceCaps(max_ambient_dim=10)
    sys_ = hochschild_system(dual, Bimodule.regular(dual), 3)
    with pytest.raises(ResourceCapError) as err:
        compute_theta(sys_, caps=caps)
    assert err.value.details.get("cap") == 10


def test_index_sizes_shape(dual):
    sys_ = higher_hochschild_system(dual, Bimodule.regular(dual), circle(2))
    sizes = {f"{n},{i}": len(labs) for (n, i), labs in sys_.labels.items()}
    assert sizes == {"1,0": 2, "1,1": 2, "2,0": 2, "2,1": 2, "2,2": 2}


# ---------------------------------------------------------------------------
# the probe against the per-vector checks
# ---------------------------------------------------------------------------


def _block_order(system, n, violation):
    """Where a violation's block comes in the probe's order."""
    cond = violation["condition"]
    if cond == "agreement":
        i = violation["position"]
        labs = [systems.label_json(lab) for lab in system.labels[(n, i)]]
        return 0, i, labs.index(violation["candidate"])
    if cond == "closure":
        return 1, violation["position"]
    i, j = violation["positions"]
    return 2, j, i


@pytest.mark.parametrize("case", ["Q/circle/upper", "Q/random/4"])
def test_probe_verdicts_hold_vector_by_vector(case):
    """Each probe entry checked through the per-vector path: adding e_f to
    the subcomplex in degree n breaks conditions only in degree n, and the
    first of them in block order is the one the probe names."""
    system = build_golden_case(case)
    theta = compute_theta(system)
    f = system.field
    probe = maximality_probe(theta)
    assert probe["ok"]
    checked = 0
    for deg in probe["degrees"]:
        n = deg["n"]
        sub = theta.subspaces[n]
        for entry in deg["entries"]:
            grown = Subspace.from_vectors(
                f, system.dims[n], sub.basis.rows + [{entry["coordinate"]: f.one}])
            candidates = theta.subspaces[:n] + [grown] + theta.subspaces[n + 1:]
            rep = validate_subcomplex(system, candidates)
            assert not rep["valid"]
            assert any(v["degree"] == n for v in rep["violations"])
            found = list(systems._violations(system, candidates))
            assert all(v["degree"] == n for v in found)
            first = min(found, key=lambda v: _block_order(system, n, v))
            del first["degree"], first["basis_index"]
            assert entry["violates"] == first
            checked += 1
    assert checked
