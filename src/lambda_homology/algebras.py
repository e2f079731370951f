"""Finite-dimensional algebras, bimodules, and algebra morphisms.

An algebra is a unital associative algebra given by structure constants on
a chosen basis; a bimodule carries left and right action tensors over such
an algebra.  Elements are sparse coordinate vectors (dict index -> scalar).
Each of the three is a plain table of basis products, read by index, and
one kernel (``_bilinear``) computes a product or an action from it; the
regular bimodule's two action tables are its algebra's product table.
Validation checks the axioms exhaustively on basis triples, which is the
honest thing to do at these dimensions.

Two formats live here and nowhere else: the basis of the matrix
extensions M_l(A) and M_l(M), ordered (row, col, inner index), with one
product rule (``_matrix_products``) for the algebra and both actions, so
callers reach block (0, 0) through the corner embeddings; and the JSON
[i, j, k, "c"] quadruples of a spec's product tables (``_read_products``).
"""

from __future__ import annotations

import itertools

from .config import DEFAULT_CAPS
from .errors import ValidationError, spec_ints, spec_of
from .fields import field_of
from .linalg import Matrix

__all__ = [
    "Algebra",
    "Bimodule",
    "AlgebraMorphism",
    "validate_algebra",
    "validate_bimodule",
    "ground_field_algebra",
    "truncated_polynomial_algebra",
    "group_algebra",
    "upper_triangular_2x2",
    "named_algebra",
    "matrix_algebra",
    "matrix_bimodule",
    "is_w_witness_pair",
    "is_t_witness_pair",
    "algebra_from_json",
    "bimodule_from_json",
    "MORPHISM_BUILTINS",
    "morphism_from_json",
    "vector_from_json",
]


def _clean(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def _bilinear(field, table: list[list[dict]], x: dict, y: dict) -> dict:
    """The sum of x_i y_j table[i][j]: a product, or an action, read off its
    table of basis products."""
    out: dict = {}
    for i, a in x.items():
        row = table[i]
        for j, b in y.items():
            prod = row[j]
            if prod:
                field.axpy_row(out, prod, field.mul(a, b))
    return out


class Algebra:
    """Unital associative algebra via basis products.

    ``pairs[i][j]`` holds the product of basis elements i and j as a sparse
    vector; ``unit`` is the coordinate vector of 1.
    """

    def __init__(self, field, dim: int, pairs: list[list[dict]], unit: dict, label: str = ""):
        self.field = field
        self.dim = dim
        self.pairs = pairs
        self.unit = _clean(unit)
        self.label = label

    def multiply(self, x: dict, y: dict) -> dict:
        return _bilinear(self.field, self.pairs, x, y)

    def is_commutative(self) -> bool:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.pairs[i][j] != self.pairs[j][i]:
                    return False
        return True

    def __repr__(self):
        tag = self.label or "algebra"
        return f"Algebra({tag}, dim={self.dim} over {self.field})"


class Bimodule:
    """A bimodule over an algebra, by left/right action tensors on bases."""

    def __init__(self, over: Algebra, dim: int, left: list[list[dict]],
                 right: list[list[dict]], label: str = ""):
        self.over = over
        self.field = over.field
        self.dim = dim
        # left[a_i][m_j] and right[m_j][a_i], both sparse module vectors
        self.left = left
        self.right = right
        self.label = label

    def act_left(self, avec: dict, mvec: dict) -> dict:
        return _bilinear(self.field, self.left, avec, mvec)

    def act_right(self, mvec: dict, avec: dict) -> dict:
        return _bilinear(self.field, self.right, mvec, avec)

    def is_symmetric(self) -> bool:
        """True when a.m == m.a on all basis pairs."""
        for i in range(self.over.dim):
            for j in range(self.dim):
                if self.left[i][j] != self.right[j][i]:
                    return False
        return True

    @classmethod
    def regular(cls, algebra: Algebra) -> "Bimodule":
        """A acting on itself: both action tables are its product table."""
        return cls(algebra, algebra.dim, algebra.pairs, algebra.pairs,
                   label=algebra.label or "regular")

    def __repr__(self):
        return f"Bimodule(dim={self.dim} over {self.over!r})"


class AlgebraMorphism:
    """A linear map between algebras that preserves products.

    Unit preservation is recorded as a flag rather than required: corner
    embeddings into matrix algebras are multiplicative but not unital.
    """

    def __init__(self, source: Algebra, target: Algebra, matrix: Matrix, label: str = ""):
        if source.field != target.field:
            raise ValidationError(
                f"morphism source is over {source.field!r} but target over {target.field!r}",
                source_field=source.field.to_json(), target_field=target.field.to_json())
        if matrix.ncols != source.dim or matrix.nrows != target.dim:
            raise ValidationError(
                "morphism matrix shape mismatch",
                shape=[matrix.nrows, matrix.ncols],
                source_dim=source.dim,
                target_dim=target.dim,
            )
        self.source = source
        self.target = target
        self.matrix = matrix
        self.label = label
        self._images = matrix.transpose().rows   # basis images, read-only
        self.unital = self.apply(source.unit) == target.unit

    def apply(self, vec: dict) -> dict:
        """The image of a vector: its coefficients times the basis images."""
        f = self.target.field
        out: dict = {}
        for i, a in vec.items():
            f.axpy_row(out, self._images[i], a)
        return out

    def apply_basis(self, i: int) -> dict:
        return self._images[i]

    def validate(self) -> list[dict]:
        """Check multiplicativity on basis pairs; unit status is a flag."""
        bad = []
        for i in range(self.source.dim):
            fi = self.apply_basis(i)
            for j in range(self.source.dim):
                lhs = self.apply(self.source.pairs[i][j])
                rhs = self.target.multiply(fi, self.apply_basis(j))
                if lhs != rhs:
                    bad.append({"kind": "multiplicativity", "pair": [i, j]})
        return bad

    def __repr__(self):
        tag = self.label or "morphism"
        u = "unital" if self.unital else "non-unital"
        return f"AlgebraMorphism({tag}, {u})"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_algebra(a: Algebra) -> list[dict]:
    """All failed axiom instances: associativity triples and unit laws."""
    bad = []
    d = a.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = a.multiply(a.pairs[i][j], {k: a.field.one})
                rhs = a.multiply({i: a.field.one}, a.pairs[j][k])
                if lhs != rhs:
                    bad.append({"kind": "associativity", "triple": [i, j, k]})
    for i in range(d):
        e = {i: a.field.one}
        if a.multiply(a.unit, e) != e:
            bad.append({"kind": "unit", "basis": i, "side": "left"})
        if a.multiply(e, a.unit) != e:
            bad.append({"kind": "unit", "basis": i, "side": "right"})
    return bad


def validate_bimodule(m: Bimodule) -> list[dict]:
    bad = []
    a = m.over
    one = m.field.one
    for i in range(a.dim):
        for j in range(a.dim):
            ab = a.pairs[i][j]
            for k in range(m.dim):
                mk = {k: one}
                # (ab)m = a(bm)
                if m.act_left(ab, mk) != m.act_left({i: one}, m.act_left({j: one}, mk)):
                    bad.append({"kind": "left_associativity", "triple": [i, j, k]})
                # m(ab) = (ma)b
                if m.act_right(mk, ab) != m.act_right(m.act_right(mk, {i: one}), {j: one}):
                    bad.append({"kind": "right_associativity", "triple": [i, j, k]})
                # (am)b = a(mb)
                lhs = m.act_right(m.act_left({i: one}, mk), {j: one})
                rhs = m.act_left({i: one}, m.act_right(mk, {j: one}))
                if lhs != rhs:
                    bad.append({"kind": "middle_associativity", "triple": [i, j, k]})
    for k in range(m.dim):
        mk = {k: one}
        if m.act_left(a.unit, mk) != mk:
            bad.append({"kind": "unit", "basis": k, "side": "left"})
        if m.act_right(mk, a.unit) != mk:
            bad.append({"kind": "unit", "basis": k, "side": "right"})
    return bad


def is_w_witness_pair(bim: Bimodule, e: dict, m: dict) -> bool:
    """e idempotent in the algebra and acting as identity on m, both sides."""
    a = bim.over
    return (
        a.multiply(e, e) == _clean(e)
        and bim.act_left(e, m) == _clean(m)
        and bim.act_right(m, e) == _clean(m)
    )


def is_t_witness_pair(eps: AlgebraMorphism, e: dict, f: dict) -> bool:
    """e, f idempotent with eps(f) absorbing e from both sides."""
    a = eps.target
    b = eps.source
    ef = eps.apply(f)
    return (
        a.multiply(e, e) == _clean(e)
        and b.multiply(f, f) == _clean(f)
        and a.multiply(e, ef) == _clean(e)
        and a.multiply(ef, e) == _clean(e)
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def ground_field_algebra(field) -> Algebra:
    one = field.one
    return Algebra(field, 1, [[{0: one}]], {0: one}, label="k")


def truncated_polynomial_algebra(field, order: int) -> Algebra:
    """k[x]/(x^order); basis 1, x, ..., x^(order-1)."""
    if order < 1:
        raise ValidationError("truncation order must be at least 1", order=order)
    one = field.one
    pairs = [
        [({i + j: one} if i + j < order else {}) for j in range(order)]
        for i in range(order)
    ]
    return Algebra(field, order, pairs, {0: one}, label=f"k[x]/(x^{order})")


def group_algebra(field, table: list[list[int]], label: str = "") -> Algebra:
    """Group algebra from a Cayley table; the table is checked to be a group."""
    n = len(spec_of(table, "Cayley table"))
    if any(len(spec_of(row, "Cayley table row")) != n for row in table):
        raise ValidationError("Cayley table is not square")
    for row in table:
        for v in row:
            if not (0 <= spec_ints(v, "Cayley table entry") < n):
                raise ValidationError("Cayley table entry out of range", entry=v)
    identity = None
    for e in range(n):
        if all(table[e][g] == g and table[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise ValidationError("Cayley table has no identity element")
    for g in range(n):
        if not any(table[g][h] == identity and table[h][g] == identity for h in range(n)):
            raise ValidationError("Cayley table element has no inverse", element=g)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise ValidationError(
                        "Cayley table is not associative", triple=[i, j, k]
                    )
    one = field.one
    pairs = [[{table[i][j]: one} for j in range(n)] for i in range(n)]
    return Algebra(field, n, pairs, {identity: one}, label=label or f"group({n})")


def upper_triangular_2x2(field) -> Algebra:
    """Upper-triangular 2x2 matrices; basis e11, e12, e22."""
    one = field.one
    e11, e12, e22 = 0, 1, 2
    pairs = [[{} for _ in range(3)] for _ in range(3)]
    pairs[e11][e11] = {e11: one}
    pairs[e11][e12] = {e12: one}
    pairs[e12][e22] = {e12: one}
    pairs[e22][e22] = {e22: one}
    return Algebra(field, 3, pairs, {e11: one, e22: one}, label="upper_triangular_2x2")


def named_algebra(field, kind: str, caps=DEFAULT_CAPS, /, **params) -> Algebra:
    """Named constructors used by the JSON loaders and the CLI; the size
    of the product table is checked against ``caps`` before it is built.
    The spec's own entries are the keyword ``params``."""
    if kind == "ground_field":
        return ground_field_algebra(field)
    if kind == "truncated_polynomial":
        order = spec_ints(params.get("order", 2), "order")
        caps.check_table_size("algebra", "order", order, order * order)
        return truncated_polynomial_algebra(field, order)
    if kind == "group_algebra":
        table = params.get("table")
        if table is None:
            raise ValidationError("group_algebra needs a 'table'")
        n = len(spec_of(table, "Cayley table"))
        caps.check_table_size("algebra", "table", n, n * n)
        return group_algebra(field, table, label=params.get("label", ""))
    if kind == "upper_triangular":
        return upper_triangular_2x2(field)
    if kind == "matrix":
        inner = params.get("inner")
        size = spec_ints(params.get("size", 2), "size")
        if inner is None:
            raise ValidationError("matrix algebra needs an 'inner' algebra spec")
        base = algebra_from_json(inner, field=field, caps=caps)
        alg, _ = matrix_algebra(base, size, caps)
        return alg
    raise ValidationError(f"unknown builtin algebra {kind!r}", kind=kind)


def _matrix_products(size: int, left_dim: int, right_dim: int, out_dim: int,
                     inner: list[list[dict]]) -> list[list[dict]]:
    """Basis products of size x size matrices over a bilinear product.

    A matrix basis is ordered (row, col, factor index) lexicographically, so
    e_rc x_i has index ``(r * size + c) * dim + i``.  The product
    (e_rc x_i)(e_cd y_j) is e_rd (x_i y_j) with x_i y_j = ``inner[i][j]``;
    blocks whose inner indices differ multiply to zero.
    """
    table = [[{} for _ in range(size * size * right_dim)]
             for _ in range(size * size * left_dim)]
    for r, c, i, d, j in itertools.product(range(size), range(size), range(left_dim),
                                           range(size), range(right_dim)):
        prod = inner[i][j]
        if prod:
            base = (r * size + d) * out_dim
            table[(r * size + c) * left_dim + i][(c * size + d) * right_dim + j] = {
                base + t: v for t, v in prod.items()
            }
    return table


def matrix_algebra(a: Algebra, size: int,
                   caps=DEFAULT_CAPS) -> tuple[Algebra, AlgebraMorphism]:
    """size x size matrices over a, with the corner embedding into slot (0,0).

    Basis order is (row, col, inner basis index), lexicographic, so block
    (0, 0) holds the first ``a.dim`` basis vectors.  The corner embedding is
    multiplicative; it is unital only for size 1, and the morphism's
    ``unital`` flag records that.  The product table's size is checked
    against ``caps`` before it is built.
    """
    if size < 1:
        raise ValidationError("matrix size must be at least 1", size=size)
    f = a.field
    d = a.dim
    caps.check_table_size("algebra", "size", size, (size * size * d) ** 2)
    pairs = _matrix_products(size, d, d, d, a.pairs)
    unit = {(r * size + r) * d + k: v for r in range(size) for k, v in a.unit.items()}
    label = f"M{size}({a.label})" if a.label else f"M{size}"
    big = Algebra(f, size * size * d, pairs, unit, label=label)
    corner = Matrix.from_entries(f, big.dim, d, [(k, k, f.one) for k in range(d)])
    return big, AlgebraMorphism(a, big, corner, label="corner")


def matrix_bimodule(big: Algebra, m: Bimodule, size: int) -> tuple[Bimodule, Matrix]:
    """size x size matrices over a bimodule, over the matching matrix algebra.

    Returns the bimodule together with the corner embedding matrix of the
    underlying module spaces; both bases are ordered as in ``matrix_algebra``.
    """
    f = m.field
    d = m.over.dim
    dm = m.dim
    if big.dim != size * size * d:
        raise ValidationError(
            "matrix algebra does not match bimodule base algebra",
            algebra_dim=big.dim,
            expected=size * size * d,
        )
    left = _matrix_products(size, d, dm, dm, m.left)
    right = _matrix_products(size, dm, d, dm, m.right)
    label = f"M{size}({m.label})" if m.label else f"M{size}"
    bigmod = Bimodule(big, size * size * dm, left, right, label=label)
    corner = Matrix.from_entries(f, bigmod.dim, dm, [(k, k, f.one) for k in range(dm)])
    return bigmod, corner


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------
#
# algebra:  {"field": {"kind": "Fp", "p": 7}, "dim": d,
#            "mult": [[i, j, k, "num/den"], ...], "unit": ["...", ...]}
# bimodule: {"dim": m, "left": [[a_i, m_j, m_k, "c"], ...],
#            "right": [[m_j, a_i, m_k, "c"], ...]}
# morphism: {"matrix": [[target_row, source_col, "c"], ...]}
#
# Omitted entries are zero; the field rule is fields.field_of.  A
# {"builtin": ...} algebra object delegates to named_algebra; a morphism
# may also be one of MORPHISM_BUILTINS, as a string or as {"builtin": name}.

MORPHISM_BUILTINS = ("unit", "identity")


def _read_dim(obj: dict, spec: str) -> int:
    if "dim" not in obj:
        raise ValidationError(f"{spec} spec needs 'dim'")
    dim = spec_ints(obj["dim"], "dim")
    if dim < 0:
        raise ValidationError("dim must not be negative", entry=dim)
    return dim


def _read_products(field, quads, what: str, shape: tuple[int, int, int],
                   message: str) -> list[list[dict]]:
    """A ``shape[0]`` x ``shape[1]`` table of sparse vectors of length
    ``shape[2]`` from [i, j, k, "c"] quadruples; repeated entries add up."""
    ni, nj, nk = shape
    table = [[{} for _ in range(nj)] for _ in range(ni)]
    for quad in spec_of(quads, what):
        i, j, k, lit = spec_ints(quad, what, 4)
        if not (0 <= i < ni and 0 <= j < nj and 0 <= k < nk):
            raise ValidationError(message, entry=quad)
        v = field.parse(lit)
        if v:
            table[i][j][k] = field.add(table[i][j].get(k, field.zero), v)
    return [[_clean(entry) for entry in row] for row in table]


def algebra_from_json(obj: dict, field=None, caps=DEFAULT_CAPS) -> Algebra:
    """An algebra spec read over ``field``, if given, else over its own; a
    product table over ``caps`` is refused before it is built."""
    field = field_of(spec_of(obj, "algebra spec", dict), field)
    if "builtin" in obj:
        params = {k: v for k, v in obj.items() if k not in ("builtin", "field")}
        return named_algebra(field, obj["builtin"], caps, **params)
    dim = _read_dim(obj, "algebra")
    caps.check_table_size("algebra", "dim", dim, dim * dim)
    pairs = _read_products(field, obj.get("mult", []), "mult", (dim, dim, dim),
                           "mult entry out of range")
    unit_list = obj.get("unit")
    if unit_list is None or len(spec_of(unit_list, "unit")) != dim:
        raise ValidationError("algebra spec needs a dense 'unit' of length dim")
    unit = {}
    for k, lit in enumerate(unit_list):
        v = field.parse(lit)
        if v:
            unit[k] = v
    a = Algebra(field, dim, pairs, unit, label=obj.get("label", ""))
    bad = validate_algebra(a)
    if bad:
        raise ValidationError("algebra axioms fail", violations=bad[:5])
    return a


def bimodule_from_json(obj: dict, over: Algebra, caps=DEFAULT_CAPS) -> Bimodule:
    """A bimodule spec over ``over``; its action tables, of dim x over.dim
    cells each, are refused before they are built if over ``caps``."""
    field = over.field
    if "builtin" in spec_of(obj, "bimodule spec", dict):
        if obj["builtin"] == "regular":
            return Bimodule.regular(over)
        raise ValidationError(f"unknown builtin bimodule {obj['builtin']!r}")
    dim = _read_dim(obj, "bimodule")
    caps.check_table_size("bimodule", "dim", dim, dim * over.dim)
    left = _read_products(field, obj.get("left", []), "left", (over.dim, dim, dim),
                          "left action entry out of range")
    right = _read_products(field, obj.get("right", []), "right", (dim, over.dim, dim),
                           "right action entry out of range")
    m = Bimodule(over, dim, left, right, label=obj.get("label", ""))
    bad = validate_bimodule(m)
    if bad:
        raise ValidationError("bimodule axioms fail", violations=bad[:5])
    return m


def morphism_from_json(obj, source: Algebra, target: Algebra) -> AlgebraMorphism:
    """A morphism spec: a sparse matrix, or a builtin (``MORPHISM_BUILTINS``)
    named alone or as ``{"builtin": name}``."""
    if isinstance(obj, str):
        obj = {"builtin": obj}
    builtin = spec_of(obj, "morphism spec", dict).get("builtin")
    field = source.field
    if builtin == "unit":
        # the unit map from a one-dimensional algebra spanned by its unit
        if source.dim != 1 or source.unit != {0: field.one}:
            raise ValidationError(
                "builtin 'unit' morphism needs a one-dimensional source spanned by 1"
            )
        mat = Matrix.from_entries(field, target.dim, 1,
                                  ((r, 0, v) for r, v in target.unit.items()))
        return AlgebraMorphism(source, target, mat, label="unit")
    if builtin == "identity":
        if source.dim != target.dim:
            raise ValidationError("identity morphism needs equal dimensions")
        mat, label = Matrix.identity(field, source.dim), "identity"
        failure = "identity is not multiplicative between these algebras"
    elif builtin is None:
        entries = []
        for trip in spec_of(obj.get("matrix", []), "morphism matrix"):
            r, c, lit = spec_ints(trip, "morphism matrix", 3)
            entries.append((r, c, field.parse(lit)))
        mat = Matrix.from_entries(field, target.dim, source.dim, entries)
        label, failure = obj.get("label", ""), "morphism is not multiplicative"
    else:
        raise ValidationError(f"unknown builtin morphism {builtin!r}")
    mor = AlgebraMorphism(source, target, mat, label=label)
    bad = mor.validate()
    if bad:
        raise ValidationError(failure, violations=bad[:5])
    return mor


def vector_from_json(field, lits: list, dim: int) -> dict:
    if len(spec_of(lits, "vector")) != dim:
        raise ValidationError("vector length mismatch", expected=dim, got=len(lits))
    out = {}
    for i, lit in enumerate(lits):
        v = field.parse(lit)
        if v:
            out[i] = v
    return out
