"""Exact linear algebra against the dense Fraction oracle."""

import random
import sys
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from lambda_homology import linalg
from lambda_homology.fields import PrimeField, Rationals
from lambda_homology.linalg import (
    Blocks,
    Matrix,
    Subspace,
    _rref_dense_fp_numpy,
    _rref_dense_python,
    _rref_sparse,
    kernel_of_rows,
    kernel_of_rows_raw,
    rank,
    rank_and_basis_rows,
    rank_and_kernel,
    rref,
)

from conftest import dense_rows, matrix_of
from oracles import (
    columns,
    kernel_dense,
    matvec_dense,
    matvec_sparse,
    member_dense,
    rank_dense,
    rank_dense_mod,
    rref_dense,
    rref_dense_mod,
)

Q = Rationals()
F7 = PrimeField(7)

# The properties that eliminate report the first failing example they
# find, unshrunk: shrinking the failures of a broken elimination took
# minutes per property.
no_shrink = settings(phases=[p for p in Phase if p is not Phase.shrink])


def dense_of(m: Matrix):
    return [[Fraction(str(x)) for x in row] for row in dense_rows(m)]


def vec_dense(vec: dict, n: int):
    return [Fraction(str(vec.get(i, 0))) for i in range(n)]


def vec_sparse(field, lst):
    return {i: v for i, v in enumerate(lst) if v}


# ---------------------------------------------------------------------------
# hand cases
# ---------------------------------------------------------------------------


def test_matrix_constructors_agree():
    entries = [(0, 1, Fraction(2)), (1, 0, Fraction(-1))]
    a = Matrix.from_entries(Q, 2, 2, entries)
    b = matrix_of(Q, [[0, 2], [-1, 0]])
    assert a == b
    assert dense_rows(a) == [[0, 2], [-1, 0]]
    assert dense_rows(Matrix.identity(Q, 3)) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_from_columns_keeps_rows_only():
    """A matrix built from column dicts (the transpose of the matrix whose
    rows they are) holds its rows and nothing else: no column view is kept
    beside them, and changing a column dict afterwards leaves it alone."""
    assert Matrix.__slots__ == ("field", "nrows", "ncols", "rows")
    cols = [{0: 1}, {}, {0: 2, 1: 3}]
    m = Matrix(Q, 3, 2, cols).transpose()
    assert not hasattr(m, "__dict__") and not hasattr(m, "column")
    assert m.rows == [{0: 1, 2: 2}, {2: 3}]
    cols[0][1] = 5
    assert m.rows == [{0: 1, 2: 2}, {2: 3}]
    assert columns(m) == [{0: 1}, {}, {0: 2, 1: 3}]


def test_known_kernel():
    # x + y + z = 0 has the plane spanned by (1, -1, 0) and (1, 0, -1)
    m = matrix_of(Q, [[1, 1, 1]])
    r, ker = rank_and_kernel(m)
    assert r == 1
    assert ker.dim == 2
    assert ker.contains(vec_sparse(Q, [1, -1, 0]))
    assert ker.contains(vec_sparse(Q, [1, 0, -1]))
    assert not ker.contains(vec_sparse(Q, [1, 0, 0]))


def test_rank_of_singular_square():
    m = matrix_of(Q, [[1, 2], [2, 4]])
    assert rank(m) == 1


def test_subspace_equality_is_basis_free():
    u = Subspace.from_vectors(Q, 3, [vec_sparse(Q, [1, 1, 0]),
                                     vec_sparse(Q, [0, 0, 1])])
    v = Subspace.from_vectors(Q, 3, [vec_sparse(Q, [2, 2, 2]),
                                     vec_sparse(Q, [0, 0, -5]),
                                     vec_sparse(Q, [1, 1, 1])])
    assert u == v
    assert u != Subspace.full(Q, 3)


def test_full_and_zero_subspaces():
    full = Subspace.full(Q, 4)
    zero = Subspace.from_vectors(Q, 4, [])
    assert full.dim == 4 and full.is_full
    assert zero.dim == 0
    assert full.contains(vec_sparse(Q, [1, 2, 3, 4]))
    assert zero.contains({})
    assert not zero.contains({0: Fraction(1)})


def test_complement_projector_kills_exactly_the_subspace():
    u = Subspace.from_vectors(Q, 3, [vec_sparse(Q, [1, 2, 0])])
    p = u.complement_projector()
    assert p.nrows == 2
    assert matvec_sparse(p, vec_sparse(Q, [1, 2, 0])) == {}
    assert matvec_sparse(p, vec_sparse(Q, [3, 6, 0])) == {}
    assert matvec_sparse(p, vec_sparse(Q, [1, 0, 0])) != {}


def test_kernel_raw_matches_canonical():
    rows = [vec_sparse(Q, [1, 1, 0, 0]), vec_sparse(Q, [0, 1, 1, 0])]
    # kernel_of_rows_raw eliminates the rows it is handed, so it gets copies
    raw = kernel_of_rows_raw(Q, [dict(r) for r in rows], 4)
    canon = kernel_of_rows(Q, rows, 4)
    assert raw == canon
    assert raw.dim == 2
    # raw pivots sit at the free columns of the constraint system
    assert raw.pivots == (2, 3)


# ---------------------------------------------------------------------------
# randomized comparisons with the dense oracle
# ---------------------------------------------------------------------------


@st.composite
def q_matrix(draw, max_dim=5):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
        st.integers(-4, 4).filter(bool), max_size=12))
    entries = [(r, c, v) for (r, c), v in cells.items()]
    return Matrix.from_entries(Q, nrows, ncols, entries)


@st.composite
def q_vectors(draw, max_dim=5, max_count=4):
    n = draw(st.integers(1, max_dim))
    count = draw(st.integers(0, max_count))
    vecs = []
    for _ in range(count):
        lst = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        vecs.append(vec_sparse(Q, lst))
    return n, vecs


@no_shrink
@given(q_matrix())
def test_rank_matches_oracle(m):
    assert rank(m) == rank_dense(dense_of(m))


@no_shrink
@given(q_matrix())
def test_kernel_matches_oracle(m):
    r, ker = rank_and_kernel(m)
    dense = dense_of(m)
    assert r == rank_dense(dense)
    assert ker.dim == m.ncols - r
    for row in ker.basis.rows:
        assert matvec_sparse(m, row) == {}
    oracle = kernel_dense(dense, m.ncols)
    oracle_span = Subspace.from_vectors(
        Q, m.ncols, [vec_sparse(Q, v) for v in oracle])
    assert ker == oracle_span


@no_shrink
@given(q_matrix(max_dim=6), st.sampled_from([_rref_sparse, _rref_dense_python]))
def test_int_and_fraction_entries_agree(m, engine):
    """An integer matrix gives the same results held as int or as Fraction,
    on the sparse and on the dense elimination engine."""
    assert all(type(v) is int for row in m.rows for v in row.values())
    as_frac = [{c: Fraction(v) for c, v in row.items()} for row in m.rows]
    # the engines eliminate the rows they are handed in place, so both sides
    # hand them copies and the kernels below see the original rows
    assert (engine(Q, [dict(r) for r in m.rows if r], m.ncols, True)
            == engine(Q, [dict(r) for r in as_frac if r], m.ncols, True))
    k_int = kernel_of_rows(Q, m.rows, m.ncols)
    k_frac = kernel_of_rows(Q, as_frac, m.ncols)
    assert k_int == k_frac
    assert k_int.to_json() == k_frac.to_json()


F_BIG = PrimeField(2147483629)


def residues(field):
    """The nonzero scalars of a prime field, drawn from all of [1, p) and
    held as the field's representatives, as the field's own arithmetic
    returns them (over F_2147483629, p - 1 is held as -1)."""
    return st.integers(1, field.p - 1).map(lambda v: field.add(0, v))


@st.composite
def shaped_matrix(draw):
    """A tall or wide matrix over Q, F_7 or F_2147483629, filled either at
    most a quarter or more."""
    field = draw(st.sampled_from([Q, F7, F_BIG]))
    short = draw(st.integers(1, 5))
    long = draw(st.integers(short + 1, 10))
    nrows, ncols = (long, short) if draw(st.booleans()) else (short, long)
    cells = [(r, c) for r in range(nrows) for c in range(ncols)]
    quarter = max(1, len(cells) // 4)
    if draw(st.booleans()):
        count = draw(st.integers(1, quarter))
    else:
        count = draw(st.integers(min(quarter + 1, len(cells)), len(cells)))
    chosen = draw(st.lists(st.sampled_from(cells), min_size=count,
                           max_size=count, unique=True))
    if field is Q:
        values = st.integers(-4, 4).filter(bool)
    else:
        values = residues(field)
    entries = [(r, c, draw(values)) for r, c in chosen]
    return Matrix.from_entries(field, nrows, ncols, entries)


@no_shrink
@given(shaped_matrix(), st.data())
def test_rank_does_not_depend_on_orientation(m, data):
    """Either orientation gives the oracle's rank.  With any set of columns
    deleted, ``rank_and_basis_rows`` gives the rank of the rest, and the
    rows it names, when it names any, are a basis of their row space."""
    def oracle(dense):
        if m.field.kind == "Q":
            return rank_dense([[Fraction(x) for x in row] for row in dense])
        return rank_dense_mod(dense, m.field.p)

    dense = dense_rows(m)
    assert rank(m) == rank(m.transpose()) == oracle(dense)
    skip = data.draw(st.sets(st.integers(0, m.ncols - 1)))
    kept = [[x for c, x in enumerate(row) if c not in skip] for row in dense]
    r, basis = rank_and_basis_rows(m, skip)
    assert r == oracle(kept)
    assert not basis or len(basis) == r == oracle([kept[i] for i in basis])
    assert dense_rows(m) == dense


@st.composite
def engine_case(draw):
    """Rows over Q, F_7 or F_2147483629, about half their entries zero and
    the rest drawn from all of [1, p) (small fractions over Q), plus some
    rows that combine two drawn ones so that the rank can fall short."""
    field = draw(st.sampled_from([Q, F7, F_BIG]))
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 8))
    if field is Q:
        nonzero = st.builds(lambda a, b: Q.parse(f"{a}/{b}"),
                            st.integers(-9, 9).filter(bool), st.integers(1, 4))
    else:
        nonzero = residues(field)
    entries = st.one_of(st.just(field.zero), nonzero)
    rows = []
    for _ in range(nrows):
        cells = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rows.append({c: v for c, v in enumerate(cells) if v})
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        a, b = draw(nonzero), draw(nonzero)
        row = {}
        field.axpy_row(row, rows[i], a)
        field.axpy_row(row, rows[j], b)
        rows.append(row)
    return field, [r for r in rows if r], ncols


@no_shrink
@given(engine_case(), st.booleans())
def test_elimination_engines_agree(case, full):
    """The sparse, dense and (over F_p) numpy engines on copies of the same
    rows: identical reduced forms with ``full``, otherwise identical pivots
    and equal row spans."""
    field, rows, ncols = case
    engines = [_rref_sparse, _rref_dense_python]
    if field.kind == "Fp":
        engines.append(_rref_dense_fp_numpy)
    results = [engine(field, [dict(r) for r in rows], ncols, full)
               for engine in engines]
    dense = dense_rows(Matrix(field, len(rows), ncols, rows))
    if field is Q:
        expect = rank_dense([[Fraction(x) for x in row] for row in dense])
    else:
        expect = rank_dense_mod(dense, field.p)
    first_rows, first_pivots = results[0]
    assert len(first_pivots) == expect
    span = Subspace.from_vectors(field, ncols, first_rows)
    for out_rows, pivots in results[1:]:
        assert pivots == first_pivots
        if full:
            assert out_rows == first_rows
        else:
            assert Subspace.from_vectors(field, ncols, out_rows) == span


def oracle_rref(field, rows, ncols):
    """The dense oracle's reduced form of sparse rows, as sparse rows of
    the field's representatives (the mod-p oracle's entries lie in [0, p)
    and are mapped there by the field's addition)."""
    dense = dense_rows(Matrix(field, len(rows), ncols, rows))
    if field is Q:
        red, pivots = rref_dense([[Fraction(x) for x in row] for row in dense])
    else:
        red, pivots = rref_dense_mod(dense, field.p)
    return ([{c: field.add(0, v) for c, v in enumerate(row) if v} for row in red],
            tuple(pivots))



@st.composite
def reduction_case(draw):
    """Up to 12 x 16 rows over Q, F_7 or F_2147483629, mostly zero, plus up
    to four rows that each combine two or three drawn ones.  Over Q the
    entries are fractions, so pivots are rarely +-1."""
    field = draw(st.sampled_from([Q, F7, F_BIG]))
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 16))
    if field is Q:
        nonzero = st.builds(lambda a, b: Q.parse(f"{a}/{b}"),
                            st.integers(-9, 9).filter(bool), st.integers(1, 5))
    else:
        nonzero = residues(field)
    entries = st.one_of(st.just(field.zero), st.just(field.zero), nonzero)
    rows = []
    for _ in range(nrows):
        cells = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rows.append({c: v for c, v in enumerate(cells) if v})
    for _ in range(draw(st.integers(0, 4))):
        picks = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=3))
        row: dict = {}
        for i in picks:
            field.axpy_row(row, rows[i], draw(nonzero))
        rows.append(row)
    return field, [r for r in rows if r], ncols


@settings(no_shrink, max_examples=150)
@given(reduction_case())
def test_reduced_form_matches_dense_engine_and_oracle(case):
    """The row-by-row reduced form equals, row for row, the dense engine's
    and the oracle's; over Q its integral entries are ints."""
    field, rows, ncols = case
    got = _rref_sparse(field, [dict(r) for r in rows], ncols, True)
    assert got == _rref_dense_python(field, [dict(r) for r in rows], ncols, True)
    assert got == oracle_rref(field, rows, ncols)
    if field is Q:
        assert all(type(v) is int or v.denominator > 1
                   for row in got[0] for v in row.values())


@settings(no_shrink, max_examples=150)
@given(reduction_case())
def test_rank_path_pivots_match_oracle(case):
    """``full=False`` reduces each row, shortest first, only until its
    leftmost column is new: the oracle's pivots, rows in echelon form (each
    starts at its pivot, later rows are zero there) spanning the same
    space."""
    field, rows, ncols = case
    out, pivots = _rref_sparse(field, [dict(r) for r in rows], ncols, False)
    oracle_rows, oracle_pivots = oracle_rref(field, rows, ncols)
    assert pivots == oracle_pivots
    assert len(out) == len(pivots)
    for i, (row, c) in enumerate(zip(out, pivots)):
        assert min(row) == c
        assert all(c not in later for later in out[i + 1:])
    assert (Subspace.from_vectors(field, ncols, out)
            == Subspace.from_vectors(field, ncols, oracle_rows))


def released(row: dict) -> bool:
    """Empty and cleared: a dict emptied by deleting its entries keeps its
    table, one cleared is as small as a new one."""
    return not row and sys.getsizeof(row) == sys.getsizeof({})


@settings(no_shrink, max_examples=150)
@given(reduction_case(), st.data())
def test_blocks_in_any_split_and_order_match_one_list_and_oracle(case, data):
    """The same rows, shuffled and cut into blocks (empty ones included),
    give the reduced form and pivots of the one-list call and of the
    oracle, and the kernel read off them.  Below full rank every row is
    visited, and each comes back released: a zero row at once, a pivot row
    once the kernel has been read off it."""
    field, rows, ncols = case
    order = data.draw(st.permutations(range(len(rows))))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    bounds = list(zip([0, *cuts], [*cuts, len(rows)]))

    def blocks(copies):
        return Blocks(copies[a:b] for a, b in bounds)

    one = rref(field, [dict(r) for r in rows], ncols)
    got = rref(field, blocks([dict(rows[i]) for i in order]), ncols)
    oracle = oracle_rref(field, rows, ncols)
    assert got == one == oracle

    oracle_rows, pivots = oracle
    free = tuple(c for c in range(ncols) if c not in pivots)
    oracle_kernel = [{f: field.one, **{p: field.neg(row[f])
                                       for p, row in zip(pivots, oracle_rows) if f in row}}
                     for f in free]
    copies = [dict(rows[i]) for i in order]
    streamed = blocks(copies)
    kernel = kernel_of_rows_raw(field, streamed, ncols)
    assert kernel.pivots == free
    assert kernel.basis.rows == oracle_kernel
    assert kernel_of_rows_raw(field, [dict(r) for r in rows], ncols).basis.rows == oracle_kernel
    assert len(streamed) <= len(rows)
    if len(pivots) < ncols:
        assert len(streamed) == len(rows)
        assert all(released(r) for r in copies)


@pytest.fixture
def back_clears(monkeypatch):
    """Counts the pivot rows ``_rref_sparse`` clears after they became
    pivot rows: the pivots it pops out of its column -> pivots index, each
    cleared once by the new pivot row of that column."""
    count = [0]

    class CountingIndex(defaultdict):
        def pop(self, *args):
            held = super().pop(*args)
            count[0] += len(held)
            return held

    monkeypatch.setattr(linalg, "defaultdict", CountingIndex)
    return count


def dependent_system(field):
    """240 sparse rows in 120 columns, two thirds of them combinations of
    the other 80, shuffled."""
    rng = random.Random(13)
    ncols = 120
    base = [{c: field.add(0, rng.randrange(1, field.p))
             for c in rng.sample(range(ncols), rng.randint(2, 7))}
            for _ in range(80)]
    rows = [dict(r) for r in base]
    for _ in range(160):
        row: dict = {}
        for r in rng.sample(base, rng.randint(2, 4)):
            field.axpy_row(row, r, rng.randrange(1, field.p))
        rows.append(row)
    rng.shuffle(rows)
    return rows, ncols


def test_sparse_system_with_many_dependent_rows(back_clears):
    """The dependent system over F_2147483629: the reduced form clears many
    pivot rows after the fact and still equals the dense engine's and the
    oracle's."""
    field = F_BIG
    rows, ncols = dependent_system(field)
    got = _rref_sparse(field, [dict(r) for r in rows], ncols, True)
    assert back_clears[0] > 50
    assert got == _rref_dense_python(field, [dict(r) for r in rows], ncols, True)
    assert got == oracle_rref(field, rows, ncols)
    assert len(got[1]) == rank_dense_mod(
        dense_rows(Matrix(field, len(rows), ncols, rows)), field.p)


def test_rank_path_never_changes_a_pivot_row(back_clears):
    """On the same system ``full=False`` clears no pivot row once chosen,
    and still finds the oracle's pivots."""
    field = F_BIG
    rows, ncols = dependent_system(field)
    _, pivots = _rref_sparse(field, [dict(r) for r in rows], ncols, False)
    assert back_clears[0] == 0
    assert pivots == oracle_rref(field, rows, ncols)[1]


@pytest.mark.parametrize("field", [Q, F7, F_BIG], ids=["Q", "F7", "F_BIG"])
@pytest.mark.parametrize("dense", [
    # 4 x 3, filled more than a quarter
    [[2, 4, 1], [1, 2, 3], [3, 6, 4], [0, 0, 5]],
    # 5 x 10, filled below it; pivots other than 1 and shared columns
    [[2, 1, 0, 0, 0, 0, 0, 0, 0, 0], [1, 3, 0, 0, 0, 0, 0, 0, 0, 0],
     [0, 0, 2, 4, 0, 0, 0, 0, 0, 0], [0, 0, 1, 2, 0, 0, 0, 0, 0, 0],
     [0, 0, 0, 0, 3, 0, 0, 0, 0, 0]],
], ids=["dense", "sparse"])
def test_eliminations_leave_callers_rows_unchanged(field, dense):
    m = matrix_of(field, dense)
    rows = [dict(r) for r in m.rows]
    before = [dict(r) for r in rows]
    rank(m)
    rank(m.transpose())
    rank_and_kernel(m)
    kernel_of_rows(field, rows, m.ncols)
    Subspace.from_vectors(field, m.ncols, rows)
    assert m.rows == before
    assert rows == before


@no_shrink
@given(q_vectors())
def test_span_membership_matches_oracle(nv):
    n, vecs = nv
    u = Subspace.from_vectors(Q, n, vecs)
    dense = [vec_dense(v, n) for v in vecs]
    assert u.dim == rank_dense(dense) if dense else u.dim == 0
    for v in vecs:
        assert u.contains(v)
    probe = vec_sparse(Q, [1] + [0] * (n - 1))
    assert u.contains(probe) == member_dense(dense, vec_dense(probe, n))


@no_shrink
@given(q_vectors())
def test_projector_characterizes_membership(nv):
    n, vecs = nv
    u = Subspace.from_vectors(Q, n, vecs)
    p = u.complement_projector()
    assert p.nrows == n - u.dim
    for v in vecs:
        assert matvec_sparse(p, v) == {}
    probe = vec_sparse(Q, list(range(1, n + 1)))
    assert (matvec_sparse(p, probe) == {}) == u.contains(probe)


@given(q_matrix())
def test_matvec_agrees_with_column_apply(m):
    """The product (vec as a row) . m^T, which applies a built matrix to
    vectors held as rows, is the dense matrix-vector product."""
    vec = {c: Fraction(c + 1) for c in range(m.ncols)}
    [img] = Matrix(Q, 1, m.ncols, [vec]).mul(m.transpose()).rows
    assert vec_dense(img, m.nrows) == matvec_dense(
        dense_of(m), vec_dense(vec, m.ncols))
    assert m.transpose().transpose() == m


@given(q_matrix())
def test_matrix_ring_ops_match_dense(m):
    assert m.mul(Matrix.from_entries(Q, m.ncols, m.ncols, ())).is_zero()
    prod = m.mul(Matrix.identity(Q, m.ncols))
    assert prod == m


@given(q_matrix(max_dim=4), q_matrix(max_dim=4))
def test_matrix_product_matches_dense(a, b):
    if a.ncols != b.nrows:
        return
    prod = a.mul(b)
    da, db = dense_of(a), dense_of(b)
    expect = [[sum(da[r][k] * db[k][c] for k in range(a.ncols))
               for c in range(b.ncols)] for r in range(a.nrows)]
    assert dense_of(prod) == expect


# ---------------------------------------------------------------------------
# prime-field consistency (no Fraction oracle; self-checks)
# ---------------------------------------------------------------------------


@st.composite
def f7_matrix(draw, max_dim=5):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
        st.integers(1, 6), max_size=12))
    entries = [(r, c, v) for (r, c), v in cells.items()]
    return Matrix.from_entries(F7, nrows, ncols, entries)


@no_shrink
@given(f7_matrix())
def test_prime_field_rank_nullity(m):
    r, ker = rank_and_kernel(m)
    assert r + ker.dim == m.ncols
    for row in ker.basis.rows:
        assert matvec_sparse(m, row, F7.p) == {}
    assert rank(m.transpose()) == r


@no_shrink
@given(f7_matrix())
def test_prime_field_projector(m):
    img = Subspace.from_vectors(F7, m.nrows, m.transpose().rows)
    p = img.complement_projector()
    for col in columns(m):
        assert matvec_sparse(p, col, F7.p) == {}


def test_rational_vs_prime_rank_can_differ():
    # 2x = 0 is singular mod 2 but invertible over the rationals
    m_q = matrix_of(Q, [[2]])
    m_2 = Matrix.from_entries(PrimeField(2), 1, 1, [(0, 0, 2 % 2)])
    assert rank(m_q) == 1
    assert rank(m_2) == 0
