"""Structure-constant algebras, bimodules, morphisms, and their validators."""

import random
from fractions import Fraction

import pytest

from lambda_homology.algebras import (
    AlgebraMorphism,
    Bimodule,
    algebra_from_json,
    bimodule_from_json,
    ground_field_algebra,
    group_algebra,
    is_t_witness_pair,
    is_w_witness_pair,
    matrix_algebra,
    matrix_bimodule,
    morphism_from_json,
    named_algebra,
    truncated_polynomial_algebra,
    upper_triangular_2x2,
    validate_algebra,
    validate_bimodule,
    vector_from_json,
)
from lambda_homology.config import ResourceCaps
from lambda_homology.errors import ResourceCapError, ValidationError
from lambda_homology.fields import PrimeField, Rationals
from lambda_homology.linalg import Matrix

from conftest import (
    algebra_to_json,
    bimodule_to_json,
    cyclic_group_table,
    dense_matrix,
    dense_table_of,
    dense_vec,
    morphism_to_json,
    symmetric_group_table,
)
from oracles import columns, matvec_dense


def test_builders_validate_clean(q, ground, dual, upper, m2, s3):
    for a in [ground, dual, upper, m2, s3]:
        assert validate_algebra(a) == []
        assert validate_bimodule(Bimodule.regular(a)) == []


def test_builders_match_hand_tables(dual, upper, m2, s3, dense_tables):
    # the conftest tables are entered by hand; the builders must agree
    assert dense_table_of(dual) == dense_tables["dual"]
    assert dense_table_of(upper) == dense_tables["upper"]
    assert dense_table_of(m2) == dense_tables["m2"]
    # group algebras can differ by element order, so compare invariants
    s3_table = dense_table_of(s3)
    ref = dense_tables["s3"]
    assert sorted(str(s3_table)) == sorted(str(ref))


def test_commutativity(q, dual, upper, m2):
    assert dual.is_commutative()
    assert not upper.is_commutative()
    assert not m2.is_commutative()
    assert Bimodule.regular(dual).is_symmetric()


def test_unit_is_checked():
    q = Rationals()
    # multiplication of k[x]/(x^2) but with the wrong unit vector
    a = truncated_polynomial_algebra(q, 2)
    bad = algebra_to_json(a)
    bad["unit"] = ["0", "1"]
    with pytest.raises(ValidationError):
        algebra_from_json(bad, field=q)


def test_non_associative_table_is_rejected():
    q = Rationals()
    obj = {
        "dim": 3,
        "unit": ["1", "0", "0"],
        "mult": [
            [0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
            [0, 2, 2, "1"], [2, 0, 2, "1"],
            [1, 1, 2, "1"], [1, 2, 0, "1"],
        ],
    }
    with pytest.raises(ValidationError) as err:
        algebra_from_json(obj, field=q)
    kinds = {v.get("kind") for v in err.value.details.get("violations", [])}
    assert "associativity" in kinds


def test_group_algebra_rejects_bad_table():
    q = Rationals()
    with pytest.raises(ValidationError):
        group_algebra(q, [[0, 1], [1, 1]])  # not a group: no inverses row 1


def test_cyclic_group_algebra_is_commutative():
    q = Rationals()
    a = group_algebra(q, cyclic_group_table(4), label="C4")
    assert a.dim == 4
    assert a.is_commutative()
    assert validate_algebra(a) == []


def test_symmetric_group_table_shape():
    t = symmetric_group_table(3)
    assert len(t) == 6
    # identity permutation sorts first, so row 0 is the identity
    assert t[0] == [0, 1, 2, 3, 4, 5]


def test_regular_bimodule_actions(dual):
    m = Bimodule.regular(dual)
    x = {1: dual.field.one}
    assert m.act_left(x, x) == {}            # x * x = 0
    assert m.act_right(dual.unit, x) == x    # unit as module element
    assert m.is_symmetric()


def test_matrix_algebra_shape_and_embedding(q, dual):
    big, emb = matrix_algebra(dual, 2)
    assert big.dim == 8
    assert validate_algebra(big) == []
    assert emb.validate() == []
    assert not big.is_commutative()
    # embedding is unital and multiplicative by validate; check a corner
    img = emb.apply_basis(1)  # x -> x * e_{11}
    assert list(img.keys()) == [1]


def test_matrix_bimodule_corner(q, dual):
    big, _ = matrix_algebra(dual, 2)
    m = Bimodule.regular(dual)
    bigmod, corner = matrix_bimodule(big, m, 2)
    assert bigmod.dim == 8
    assert validate_bimodule(bigmod) == []
    assert isinstance(corner, Matrix)
    assert corner.nrows == 8 and corner.ncols == 2
    # corner embedding lands in the (0, 0) block
    assert set(columns(corner)[0].keys()) <= {0, 1}


def test_morphism_validation(q, ground, dual):
    unit = morphism_from_json({"builtin": "unit"}, ground, dual)
    assert unit.validate() == []
    # a non-multiplicative map: send 1 to x
    bad = AlgebraMorphism(ground, dual,
                          Matrix.from_entries(q, 2, 1, [(1, 0, q.one)]))
    assert bad.validate() != []


@pytest.mark.parametrize("spec", ["identity", {"builtin": "identity"}])
def test_identity_morphism_builtin(q, dual, upper, spec):
    ident = morphism_from_json(spec, upper, upper)
    assert ident.label == "identity" and ident.unital
    assert ident.matrix == Matrix.identity(q, upper.dim)
    with pytest.raises(ValidationError, match="needs equal dimensions"):
        morphism_from_json(spec, dual, upper)
    # the same vector spaces, but e11 and e22 swap, which is not multiplicative
    swapped = algebra_from_json({"dim": 3, "unit": ["1", "0", "1"], "mult": [
        [0, 0, 0, "1"], [1, 0, 1, "1"], [2, 1, 1, "1"], [2, 2, 2, "1"]]})
    with pytest.raises(ValidationError, match="not multiplicative"):
        morphism_from_json(spec, upper, swapped)


def _morphisms(field):
    """The corner embedding, the ``unit`` and ``identity`` builtins, and a
    JSON morphism of k[x]/(x^2) that sends x to 0 (a zero column)."""
    ground = ground_field_algebra(field)
    dual = truncated_polynomial_algebra(field, 2)
    big, corner = matrix_algebra(dual, 2)
    kill_x = morphism_from_json({"matrix": [[0, 0, "1"]]}, dual, dual)
    assert columns(kill_x.matrix)[1] == {}
    return {
        "corner": corner,
        "unit": morphism_from_json("unit", ground, big),
        "identity": morphism_from_json("identity", big, big),
        "kill_x": kill_x,
    }


@pytest.mark.parametrize("field", [Rationals(), PrimeField(7)], ids=["Q", "F7"])
def test_morphism_apply_is_the_matrix_product(field):
    """``apply`` and ``apply_basis`` agree with the dense matrix-vector
    product, and the ``unital`` flag is the recorded one."""
    p = getattr(field, "p", None)

    def product(mor, vec):
        out = matvec_dense(dense_matrix(mor.matrix), dense_vec(vec, mor.source.dim))
        return out if p is None else [Fraction(int(x) % p) for x in out]

    unital = {"corner": False, "unit": True, "identity": True, "kill_x": True}
    for name, mor in _morphisms(field).items():
        assert mor.unital is unital[name], name
        d, t = mor.source.dim, mor.target.dim
        for i in range(d):
            basis = {i: field.one}
            assert dense_vec(mor.apply_basis(i), t) == product(mor, basis)
            assert mor.apply(basis) == mor.apply_basis(i)
        vec = {i: i + 2 for i in range(d)}
        assert dense_vec(mor.apply(vec), t) == product(mor, vec)
        assert mor.apply({}) == {}


def test_morphism_builtins_reject_unknown_names(ground, dual):
    for spec in ("twist", {"builtin": "twist"}):
        with pytest.raises(ValidationError, match="unknown builtin morphism"):
            morphism_from_json(spec, ground, dual)


def test_morphism_needs_one_field(q, dual):
    f5_dual = truncated_polynomial_algebra(PrimeField(5), 2)
    with pytest.raises(ValidationError) as exc:
        AlgebraMorphism(dual, f5_dual, Matrix.identity(q, 2))
    assert exc.value.details == {"source_field": {"kind": "Q"},
                                 "target_field": {"kind": "Fp", "p": 5}}


def test_morphism_json_round_trip(q, ground, dual):
    unit = morphism_from_json({"builtin": "unit"}, ground, dual)
    again = morphism_from_json(morphism_to_json(unit), ground, dual)
    assert again.matrix == unit.matrix


def test_algebra_json_round_trip(q, upper):
    again = algebra_from_json(algebra_to_json(upper), field=q)
    assert again.dim == upper.dim
    for i in range(upper.dim):
        for j in range(upper.dim):
            assert again.pairs[i][j] == upper.pairs[i][j]
    assert again.unit == upper.unit


def test_bimodule_json_round_trip(q, upper):
    m = Bimodule.regular(upper)
    again = bimodule_from_json(bimodule_to_json(m), over=upper)
    assert again.dim == m.dim
    for i in range(upper.dim):
        for j in range(m.dim):
            assert again.left[i][j] == m.left[i][j]
            assert again.right[j][i] == m.right[j][i]


@pytest.mark.parametrize("part, entry", [
    ("dim", "2"),
    ("left", [0, 0, "1"]),
    ("right", [0, 0.0, 0, "1"]),
    ("matrix", [0, False, "1"]),
    ("matrix", "0 0 1"),
])
def test_spec_integers_are_read_strictly(q, ground, dual, part, entry):
    m = bimodule_to_json(Bimodule.regular(dual))
    with pytest.raises(ValidationError) as exc:
        if part == "dim":
            bimodule_from_json(dict(m, dim=entry), over=dual)
        elif part == "matrix":
            morphism_from_json({"matrix": [[0, 0, "1"], entry]}, ground, dual)
        else:
            bimodule_from_json(dict(m, **{part: m[part] + [entry]}), over=dual)
    assert exc.value.details["entry"] == entry


@pytest.mark.parametrize("spec, part, entry, message", [
    ("algebra", "dim", -1, "dim must not be negative"),
    ("bimodule", "dim", -1, "dim must not be negative"),
    ("algebra", "mult", [0, 0, 2, "1"], "mult entry out of range"),
    ("bimodule", "left", [2, 0, 0, "1"], "left action entry out of range"),
    ("bimodule", "right", [0, 0, 2, "1"], "right action entry out of range"),
])
def test_spec_ranges_are_checked(q, dual, spec, part, entry, message):
    if spec == "algebra":
        obj = algebra_to_json(dual)
    else:
        obj = bimodule_to_json(Bimodule.regular(dual))
    bad = dict(obj, **{part: entry if part == "dim" else obj[part] + [entry]})
    with pytest.raises(ValidationError) as exc:
        if spec == "algebra":
            algebra_from_json(bad, field=q)
        else:
            bimodule_from_json(bad, over=dual)
    assert exc.value.message == message
    assert exc.value.details["entry"] == entry


def test_named_algebra_dispatch(q):
    assert named_algebra(q, "ground_field").dim == 1
    assert named_algebra(q, "truncated_polynomial", order=3).dim == 3
    assert named_algebra(q, "upper_triangular").dim == 3
    inner = {"builtin": "ground_field"}
    assert named_algebra(q, "matrix", inner=inner, size=3).dim == 9
    with pytest.raises(ValidationError):
        named_algebra(q, "octonions")


@pytest.mark.parametrize("obj, entry, value, cells", [
    ({"builtin": "truncated_polynomial", "order": 5}, "order", 5, 25),
    ({"builtin": "group_algebra", "table": symmetric_group_table(3)}, "table", 6, 36),
    ({"builtin": "matrix", "inner": {"builtin": "ground_field"}, "size": 3}, "size", 3, 81),
    ({"builtin": "matrix", "size": 2,
      "inner": {"builtin": "truncated_polynomial", "order": 6}}, "order", 6, 36),
    ({"dim": 5, "unit": []}, "dim", 5, 25),
], ids=["order", "group", "size", "inner-order", "dim"])
def test_product_table_over_the_cap_is_refused(q, obj, entry, value, cells):
    """An algebra of dim d has a table of d^2 cells, refused over the cap's
    ambient dimension before it is built; at most the cap passes, and the
    spec's own entries never collide with the reader's arguments."""
    caps = ResourceCaps(max_ambient_dim=24)
    with pytest.raises(ResourceCapError) as exc:
        algebra_from_json(obj, field=q, caps=caps)
    assert exc.value.message == "algebra table exceeds cap"
    assert exc.value.details == {"entry": entry, "value": value, "cells": cells,
                                 "cap": 24}
    assert algebra_from_json({"builtin": "truncated_polynomial", "order": 4,
                              "kind": "x", "caps": None}, field=q, caps=caps).dim == 4
    assert matrix_algebra(ground_field_algebra(q), 2, caps)[0].dim == 4
    with pytest.raises(ResourceCapError) as exc:
        bimodule_from_json({"dim": 9}, ground_field_algebra(q), ResourceCaps(8))
    assert exc.value.details == {"entry": "dim", "value": 9, "cells": 9, "cap": 8}


def test_vector_json(q):
    v = vector_from_json(q, ["1", "0", "-2/3"], 3)
    assert v == {0: q.one, 2: q.parse("-2/3")}
    assert [q.fmt(v.get(i, q.zero)) for i in range(3)] == ["1", "0", "-2/3"]
    with pytest.raises(ValidationError):
        vector_from_json(q, ["1", "2"], 3)


def test_prime_field_algebra(q):
    f5 = PrimeField(5)
    a = truncated_polynomial_algebra(f5, 2)
    assert validate_algebra(a) == []
    assert a.multiply({1: 3}, {1: 2}) == {}  # x*x = 0 regardless of scalars


def test_w_witness_pair(q, ground):
    big, _ = matrix_algebra(ground, 2)
    bim = Bimodule.regular(big)
    e = {0: q.one}           # e_{11}
    assert is_w_witness_pair(bim, e, e)
    assert not is_w_witness_pair(bim, {1: q.one}, e)   # e_{12} not idempotent
    assert not is_w_witness_pair(bim, e, {3: q.one})   # e_{11} kills e_{22}


def test_t_witness_pair(q, ground, dual):
    big, _ = matrix_algebra(ground, 2)
    ident = AlgebraMorphism(big, big, Matrix.identity(q, big.dim))
    assert ident.validate() == []
    e = {0: q.one}
    f = dict(big.unit)
    assert is_t_witness_pair(ident, e, f)
    assert not is_t_witness_pair(ident, {1: q.one}, f)
    # f must absorb e: f = e_{22} fails since e11 * e22 = 0
    assert not is_t_witness_pair(ident, e, {3: q.one})


def test_regular_bimodule_shares_the_product_table(upper, m2, s3):
    for a in (upper, m2, s3):
        m = Bimodule.regular(a)
        assert m.left is a.pairs and m.right is a.pairs


# a bimodule over the upper-triangular algebra whose two actions differ: k^2
# as column vectors on the left (e11 m0 = m0, e12 m1 = m0, e22 m1 = m1), and
# through e22 -> 1, e11, e12 -> 0 on the right
COLUMN_BIMODULE = {"dim": 2,
                   "left": [[0, 0, 0, "1"], [1, 1, 0, "1"], [2, 1, 1, "1"]],
                   "right": [[0, 2, 0, "1"], [1, 2, 1, "1"]]}


def _dense_quads(quads, shape):
    ni, nj, nk = shape
    table = [[[Fraction(0)] * nk for _ in range(nj)] for _ in range(ni)]
    for i, j, k, c in quads:
        table[i][j][k] += Fraction(c)
    return table


def _triple_loop(table, x, y):
    """sum over i, j, k of x_i y_j table[i][j][k] e_k, densely."""
    out = [Fraction(0)] * len(table[0][0])
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, c in enumerate(table[i][j]):
                out[k] += xi * yj * c
    return out


@pytest.mark.parametrize("field", [Rationals(), PrimeField(7)], ids=["Q", "F7"])
def test_products_and_actions_match_a_dense_triple_loop(field, dense_tables):
    """``multiply``, ``act_left`` and ``act_right`` against the structure
    constants written out by hand, on random sparse elements."""
    rng = random.Random(19)
    p = getattr(field, "p", None)

    def element(dim):
        vec, dense = {}, [Fraction(0)] * dim
        for i in range(dim):
            if rng.random() < 0.5:
                num, den = rng.choice([-3, -2, -1, 1, 2, 3]), 1
                if p is None:
                    den = rng.choice([1, 2, 3])
                vec[i] = field.parse(f"{num}/{den}")
                dense[i] = Fraction(num, den)
        return vec, dense

    def reduce(dense):
        return dense if p is None else [Fraction(int(v) % p) for v in dense]

    upper = upper_triangular_2x2(field)
    m2 = named_algebra(field, "matrix", inner={"builtin": "ground_field"}, size=2)
    column = bimodule_from_json(COLUMN_BIMODULE, over=upper)
    assert not column.is_symmetric()
    cases = []   # (algebra, module, dense product, dense left, dense right)
    for a, name in ((upper, "upper"), (m2, "m2")):
        assert not a.is_commutative()
        t = dense_tables[name]
        cases.append((a, Bimodule.regular(a), t, t, t))
    cases.append((upper, column, dense_tables["upper"],
                  _dense_quads(COLUMN_BIMODULE["left"], (3, 2, 2)),
                  _dense_quads(COLUMN_BIMODULE["right"], (2, 3, 2))))
    for a, m, product, left, right in cases:
        for _ in range(30):
            x, dx = element(a.dim)
            y, dy = element(a.dim)
            v, dv = element(m.dim)
            assert dense_vec(a.multiply(x, y), a.dim) == \
                reduce(_triple_loop(product, dx, dy))
            assert dense_vec(m.act_left(x, v), m.dim) == \
                reduce(_triple_loop(left, dx, dv))
            assert dense_vec(m.act_right(v, x), m.dim) == \
                reduce(_triple_loop(right, dv, dx))
