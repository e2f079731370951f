"""Shared fixtures: small algebras, their hand-entered dense tables, and a
tiny two-level complex used wherever a non-circle shape is needed."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import pytest

from lambda_homology.algebras import (
    Bimodule,
    ground_field_algebra,
    group_algebra,
    matrix_algebra,
    symmetric_group_table,
    truncated_polynomial_algebra,
    upper_triangular_2x2,
)
from lambda_homology.fields import Rationals
from lambda_homology.simplicial import PointedSimplicialSet, circle


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


def dense_matrix(m):
    return [[Fraction(str(x)) for x in row] for row in m.to_dense()]


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
