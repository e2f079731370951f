"""Shared fixtures: small algebras, their hand-entered dense tables, and a
tiny two-level complex used wherever a non-circle shape is needed; plus the
test-side builders the package has no command for: dense matrices, systems
from hand-written face matrices, group tables and spec writers."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import pytest

from lambda_homology.algebras import (
    Bimodule,
    ground_field_algebra,
    group_algebra,
    matrix_algebra,
    truncated_polynomial_algebra,
    upper_triangular_2x2,
)
from lambda_homology.fields import Rationals
from lambda_homology.linalg import Matrix
from lambda_homology.simplicial import PointedSimplicialSet, circle
from lambda_homology.systems import LambdaSystem

from oracles import columns


@pytest.fixture(scope="session")
def q():
    return Rationals()


@pytest.fixture(scope="session")
def ground(q):
    return ground_field_algebra(q)


@pytest.fixture(scope="session")
def dual(q):
    """k[x]/(x^2), basis 1, x."""
    return truncated_polynomial_algebra(q, 2)


@pytest.fixture(scope="session")
def upper(q):
    return upper_triangular_2x2(q)


@pytest.fixture(scope="session")
def m2(q, ground):
    big, _ = matrix_algebra(ground, 2)
    return big


@pytest.fixture(scope="session")
def s3(q):
    return group_algebra(q, symmetric_group_table(3), label="QS3")


@pytest.fixture(scope="session")
def circle4():
    return circle(4)


@pytest.fixture(scope="session")
def two_level():
    """A validated two-level complex with one extra simplex per level.

    One extra vertex v, one edge from v to the basepoint, one triangle with
    that edge on two sides.  All simplicial identities hold; validate()
    confirms it before any test touches the fixture.
    """
    x = PointedSimplicialSet(
        max_level=2,
        sizes=(2, 2, 2),
        faces=(
            ((0, 1), (0, 0)),
            ((0, 1), (0, 1), (0, 0)),
        ),
        label="two-level",
    )
    assert x.validate() == []
    return x


# ---------------------------------------------------------------------------
# hand-entered dense tables for the oracle side.  These are written out
# independently of the package builders; a conftest self-check asserts the
# two transcriptions describe the same algebra.
# ---------------------------------------------------------------------------


def _table(d, entries):
    mult = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i, j, k, c in entries:
        mult[i][j][k] = Fraction(c)
    return mult


@pytest.fixture(scope="session")
def dense_tables():
    tables = {}
    tables["ground"] = _table(1, [(0, 0, 0, 1)])
    tables["dual"] = _table(2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)])
    # basis order e11, e12, e22 matching the package builder
    tables["upper"] = _table(3, [(0, 0, 0, 1), (0, 1, 1, 1),
                                 (1, 2, 1, 1), (2, 2, 2, 1)])
    m2_entries = []
    for r1 in range(2):
        for c1 in range(2):
            for r2 in range(2):
                for c2 in range(2):
                    if c1 == r2:
                        m2_entries.append(
                            (2 * r1 + c1, 2 * r2 + c2, 2 * r1 + c2, 1))
    tables["m2"] = _table(4, m2_entries)
    elems = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(elems)}
    s3_entries = []
    for p in elems:
        for s in elems:
            ps = tuple(p[s[x]] for x in range(3))
            s3_entries.append((idx[p], idx[s], idx[ps], 1))
    tables["s3"] = _table(6, s3_entries)
    return tables


def dense_table_of(algebra):
    """Read a package algebra's structure constants into oracle format."""
    d = algebra.dim
    mult = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k, c in algebra.pairs[i][j].items():
                mult[i][j][k] = Fraction(str(c))
    return mult


def dense_vec(vec: dict, n: int):
    """Sparse package vector to a dense Fraction list."""
    return [Fraction(str(vec.get(i, 0))) for i in range(n)]


def dense_rows(m):
    """A package matrix as a dense list of its rows."""
    zero = m.field.zero
    return [[row.get(c, zero) for c in range(m.ncols)] for row in m.rows]


def dense_matrix(m):
    return [[Fraction(str(x)) for x in row] for row in dense_rows(m)]


def dense_span(sub):
    return [dense_vec(row, sub.ambient_dim) for row in sub.basis.rows]


def same_span(dense_a, dense_b):
    from oracles import member_dense
    if len(dense_a) != len(dense_b):
        return False
    return (all(member_dense(dense_b, v) for v in dense_a)
            and all(member_dense(dense_a, v) for v in dense_b))


@pytest.fixture(scope="session")
def regular_of():
    return Bimodule.regular


# ---------------------------------------------------------------------------
# builders the package has no command for
# ---------------------------------------------------------------------------


def matrix_of(field, dense):
    """A package matrix from dense rows, through ``Matrix.from_entries``
    (so entries are reduced by the field's addition)."""
    ncols = len(dense[0]) if dense else 0
    return Matrix.from_entries(field, len(dense), ncols, (
        (r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v))


def candidate_system(field, dims, mats, label=""):
    """A system whose candidates at (n, i) are the matrices ``mats[(n, i)]``,
    the first one the reference, evaluated column by column."""
    labels = {pos: tuple(range(len(ms))) for pos, ms in mats.items()}

    def column_fn(n, i, lab, codes):
        cols = columns(mats[(n, i)][lab])
        return [(x, 0, cols[x].items()) for x in codes if cols[x]]

    return LambdaSystem(field, len(dims) - 1, dims, labels, column_fn, label=label)


def trivial_system(field, dims, faces, label=""):
    """A system with one candidate per face position, ``faces[(n, i)]``."""
    return candidate_system(field, dims, {pos: [m] for pos, m in faces.items()},
                            label=label)


def symmetric_group_table(n):
    """Cayley table of S_n; product g*h applies h first, then g."""
    elems = sorted(permutations(range(n)))
    index = {g: i for i, g in enumerate(elems)}
    return [[index[tuple(g[h[k]] for k in range(n))] for h in elems]
            for g in elems]


def cyclic_group_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_entries(table, fmt):
    """The [i, j, k, "c"] quadruples of a product table, in index order."""
    return [[i, j, k, fmt(v)]
            for i, row in enumerate(table)
            for j, entry in enumerate(row)
            for k, v in sorted(entry.items())]


def algebra_to_json(a):
    """An algebra spec that ``algebra_from_json`` reads back to ``a``."""
    fmt = a.field.fmt
    out = {"field": a.field.to_json(), "dim": a.dim,
           "mult": product_entries(a.pairs, fmt),
           "unit": [fmt(a.unit.get(k, a.field.zero)) for k in range(a.dim)]}
    if a.label:
        out["label"] = a.label
    return out


def bimodule_to_json(m):
    """A bimodule spec that ``bimodule_from_json`` reads back to ``m``."""
    fmt = m.field.fmt
    out = {"dim": m.dim, "left": product_entries(m.left, fmt),
           "right": product_entries(m.right, fmt)}
    if m.label:
        out["label"] = m.label
    return out


def morphism_to_json(m):
    """A morphism spec that ``morphism_from_json`` reads back to ``m``."""
    out = {"matrix": m.matrix.to_entries(), "unital": m.unital}
    if m.label:
        out["label"] = m.label
    return out
