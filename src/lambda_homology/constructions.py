"""Concrete face systems built from algebras, bimodules, and simplicial sets.

Every system here lives on a tensor-power module with a documented slot
order and faces given by structure-constant products:

* the classical cyclic-bar system (one candidate per face, the oracle);
* the simplicial-set system: one algebra factor per non-basepoint simplex,
  candidates enumerate the orderings of each face-map fiber; the
  two-sphere system is this system on Delta^2/dDelta^2;
* the two-algebra system: factors of one algebra on a diagonal and of a
  second algebra above it, connected by an algebra morphism;
* idempotent witness vectors fixed by every face candidate, and the
  matrix-extension comparison report built from the corner embeddings.
"""

from __future__ import annotations

import itertools
import math
from operator import add

from .algebras import (
    Algebra,
    AlgebraMorphism,
    Bimodule,
    commutativity_report,
    is_t_witness_pair,
    is_w_witness_pair,
    matrix_algebra,
    matrix_bimodule,
)
from .config import DEFAULT_CAPS
from .errors import ValidationError
from .linalg import Matrix, Subspace
from .simplicial import PointedSimplicialSet, circle, sphere2
from .systems import (
    LambdaMorphism,
    LambdaSystem,
    check_lambda_morphism,
    compute_theta,
    induced_theta_map,
    validate_subcomplex,
)

__all__ = [
    "TensorLayout",
    "hochschild_system",
    "loday_chain",
    "higher_hochschild_system",
    "sphere2_system",
    "secondary_system",
    "w_witness_vector",
    "t_witness_vector",
    "witness_w_suite",
    "witness_t_suite",
    "corner_chain_map",
    "morita_report",
    "compare_systems",
]


class TensorLayout:
    """Row-major coordinates for a tensor product of based factors.

    Slot 0 is the most significant: the index of slot t in a flat basis
    code is ``code // strides[t] % dims[t]``.
    """

    __slots__ = ("dims", "strides", "total")

    def __init__(self, dims: tuple[int, ...]):
        self.dims = dims
        strides = [1] * len(dims)
        for t in range(len(dims) - 2, -1, -1):
            strides[t] = strides[t + 1] * dims[t + 1]
        self.strides = strides
        self.total = strides[0] * dims[0] if dims else 1

    def expand(self, field, slots) -> dict:
        """Tensor product of per-slot sparse vectors, as a sparse vector."""
        partial = {0: field.one}
        mul = field.mul
        for d, vec in zip(self.dims, slots):
            if not vec:
                return {}
            nxt = {}
            for code, cf in partial.items():
                base = code * d
                for i, v in vec.items():
                    nxt[base + i] = mul(cf, v)
            partial = nxt
        return partial


def _alg_product(a: Algebra, factors: list[dict]) -> dict:
    if not factors:
        return dict(a.unit)
    acc = factors[0]
    for g in factors[1:]:
        acc = a.multiply(acc, g)
        if not acc:
            return {}
    return acc


def _mixed_product(bim: Bimodule, factors: list[dict], module_pos: int) -> dict:
    """Product of a sequence with one module factor at ``module_pos``."""
    mvec = factors[module_pos]
    prefix = factors[:module_pos]
    suffix = factors[module_pos + 1 :]
    if prefix:
        mvec = bim.act_left(_alg_product(bim.over, prefix), mvec)
        if not mvec:
            return {}
    if suffix:
        mvec = bim.act_right(mvec, _alg_product(bim.over, suffix))
    return mvec


def _basis_products(a: Algebra, m: Bimodule | None = None,
                    b: Algebra | None = None, eps: AlgebraMorphism | None = None):
    """Products of basis factors by kind, as sparse vectors of the result.

    Kinds: ``"a"`` a basis element of ``a``, ``"m"`` one of the module,
    ``"b"`` one of ``b``, ``"e"`` a basis element of ``b`` sent through
    ``eps`` (its column) into ``a``.  A product with a module factor lies in
    the module, one of ``"b"`` factors in ``b``, any other in ``a``; the
    empty product is the unit of ``a``.
    """
    one = a.field.one

    def product(kinds: tuple, idx: list) -> dict:
        vecs = [eps.apply_basis(j) if k == "e" else {j: one}
                for k, j in zip(kinds, idx)]
        if "m" in kinds:
            return _mixed_product(m, vecs, kinds.index("m"))
        return _alg_product(b if kinds and kinds[0] == "b" else a, vecs)

    return product


def _strided(specs, codes) -> list:
    """The sum of ``code // stride % modulus * weight`` over the ``(stride,
    modulus, weight)`` specs, for every code in ``codes``.  Over a whole
    face's codes, ``range(total)``, a term cycles through its ``modulus``
    values, each repeated ``stride`` times, so no code is divided."""
    sums = [0] * len(codes)
    whole = isinstance(codes, range) and codes.start == 0 and codes.step == 1
    for stride, modulus, weight in specs:
        if whole:
            terms = itertools.cycle([v * weight for v in range(modulus)])
            if stride > 1:
                terms = itertools.chain.from_iterable(
                    map(itertools.repeat, terms, itertools.repeat(stride)))
            sums = list(map(add, sums, terms))
        else:
            sums = [t + c // stride % modulus * weight for t, c in zip(sums, codes)]
    return sums


def _recipe_evaluator(field, layouts: list[TensorLayout], slots_of, product):
    """The face evaluator of every construction, driven by slot recipes.

    ``slots_of(n, i, lab)`` describes a candidate face: for each slot of the
    degree n-1 layout, the slots of the degree n layout whose basis factors
    are multiplied into it, in order, each as ``(source slot, kind)`` with
    the kinds of ``_basis_products``.  The description is compiled on first
    use of ``(n, i, lab)`` into a recipe and kept.  Single-factor slots of
    kind other than ``"e"`` copy their index: consecutive runs of them
    become one strided block, ``code // source stride % modulus * target
    stride``.  Every other slot reads its factors' indices, in mixed radix,
    as the key of a table of basis products (already scaled by the target
    stride), shared by all recipes of the system and filled on first use of
    a key.  A column is the block sum plus the tensor product of the table
    entries.  ``column_fn(n, i, lab, codes)`` evaluates a list of codes
    (all of a face, or a vector's support) slot by slot: the keys of all
    codes at once, each missing table entry filled once, and a code with an
    empty entry dropped before the next slot is read.
    """
    one = field.one
    mul = field.mul
    recipes: dict = {}
    tables: dict = {}
    parts: dict = {}
    shared: dict = {}

    def share(x: tuple) -> tuple:
        """Equal blocks, strides, kinds and table entries are stored once."""
        return shared.setdefault(x, x)

    def compile_recipe(n, i, lab):
        src = layouts[n].dims
        src_strides = layouts[n].strides
        tgt_strides = layouts[n - 1].strides
        blocks = []
        multis = []
        last = None
        for t, factors in enumerate(slots_of(n, i, lab)):
            if len(factors) == 1 and factors[0][1] != "e":
                s = factors[0][0]
                if last == (t - 1, s - 1):
                    block = blocks[-1]
                    block[0] = src_strides[s]
                    block[1] *= src[s]
                    block[2] = tgt_strides[t]
                else:
                    blocks.append([src_strides[s], src[s], tgt_strides[t]])
                last = (t, s)
                continue
            last = None
            kinds = share(tuple(k for _, k in factors))
            ds = [src[s] for s, _ in factors]
            radix = tuple(share((src_strides[s], ds[j], math.prod(ds[j + 1:])))
                          for j, (s, _) in enumerate(factors))
            key = (radix, kinds, tgt_strides[t])
            part = parts.get(key)
            if part is None:
                table = tables.setdefault(key[1:], {})
                part = parts[key] = (radix, table, kinds, tgt_strides[t])
            multis.append(part)
        blocks = tuple(share(tuple(b)) for b in blocks)
        return recipes.setdefault((n, i, lab), (blocks, tuple(multis)))

    def fill(part, key: int) -> None:
        """Compute and store the table entry of ``key``."""
        radix, table, kinds, stride = part
        vec = product(kinds, [key // w % d for _, d, w in radix])
        table[key] = share(tuple((j * stride, v) for j, v in vec.items()))

    def column_fn(n, i, lab, codes):
        blocks, multis = recipes.get((n, i, lab)) or compile_recipe(n, i, lab)
        factors = []
        for part in multis:
            keys = _strided(part[0], codes)
            for key in set(keys).difference(part[1]):
                fill(part, key)
            prods = list(map(part[1].__getitem__, keys))
            kept = (codes, *factors, prods)
            if not all(prods):      # a zero product: drop its code
                kept = [list(itertools.compress(c, prods)) for c in kept]
            codes, *factors = kept
        terms = factors[0] if factors else [((0, one),)] * len(codes)
        for more in factors[1:]:    # tensor products, as (offset, scalar) pairs
            terms = [[(o + p, mul(c, v)) for o, c in ts for p, v in prod]
                     for ts, prod in zip(terms, more)]
        return zip(codes, _strided(blocks, codes), terms)

    return column_fn


def _check_pair(a: Algebra, m: Bimodule) -> None:
    if m.over is not a:
        raise ValidationError("bimodule is not over the given algebra")


# ---------------------------------------------------------------------------
# classical cyclic-bar system (the oracle)
# ---------------------------------------------------------------------------


def hochschild_system(a: Algebra, m: Bimodule, max_degree: int) -> LambdaSystem:
    """The classical complex on M (x) A^n with one candidate per face.

    d_0 multiplies the first algebra factor into the module from the right,
    middle faces merge adjacent algebra factors, and the last face wraps the
    final factor onto the module from the left.  This construction is kept
    independent of the simplicial-set machinery so the two can corroborate
    each other.
    """
    _check_pair(a, m)
    field = a.field
    layouts = [TensorLayout((m.dim,) + (a.dim,) * n) for n in range(max_degree + 1)]
    dims = tuple(layouts[n].total for n in range(max_degree + 1))
    labels = {(n, i): (0,) for n in range(1, max_degree + 1) for i in range(n + 1)}

    def slots_of(n, i, lab):
        alg = [((s, "a"),) for s in range(1, n + 1)]
        if i == 0:
            return [((0, "m"), (1, "a"))] + alg[1:]
        if i == n:
            return [((n, "a"), (0, "m"))] + alg[:-1]
        return [((0, "m"),)] + alg[: i - 1] + [((i, "a"), (i + 1, "a"))] + alg[i + 1 :]

    column_fn = _recipe_evaluator(field, layouts, slots_of, _basis_products(a, m))
    tag = f"classical({a.label or 'A'},{m.label or 'M'})"
    return LambdaSystem(field, max_degree, dims, labels, column_fn, label=tag)


# ---------------------------------------------------------------------------
# simplicial-set systems
# ---------------------------------------------------------------------------


def _simplicial_layout(m: Bimodule, x: PointedSimplicialSet, n: int) -> TensorLayout:
    """M (x) A^(X_n minus the basepoint): the module, then one algebra
    factor per non-basepoint n-simplex."""
    return TensorLayout((m.dim,) + (m.over.dim,) * (x.size(n) - 1))


def _simplicial_engine(a: Algebra, m: Bimodule, x: PointedSimplicialSet):
    """Shared dims, fibers and evaluator for systems over a simplicial set.

    Simplex ids double as slot indices: slot 0 holds the module factor at
    the basepoint and slot j holds the algebra factor of simplex j.  For
    each face map, each target simplex collects the ordered product of its
    fiber; a candidate label picks one ordering per fiber of size > 1,
    listed per target id, in the order of ``multis[(n, i)]``.
    """
    _check_pair(a, m)
    field = a.field
    bad = x.validate()
    if bad:
        raise ValidationError("simplicial set axioms fail", violations=bad[:5])
    max_degree = x.max_level
    layouts = [_simplicial_layout(m, x, n) for n in range(max_degree + 1)]
    dims = tuple(layouts[n].total for n in range(max_degree + 1))

    fibers = {}
    multis = {}
    for n in range(1, max_degree + 1):
        for i in range(n + 1):
            part = fibers[(n, i)] = x.fibers(n, i)
            multis[(n, i)] = [(t, c) for t, c in sorted(part.items()) if len(c) > 1]

    def slots_of(n, i, lab):
        part = fibers[(n, i)]
        perm_of = {t: p for (t, _), p in zip(multis[(n, i)], lab)}
        out = []
        for t in range(x.size(n - 1)):
            fib = part.get(t, ())
            perm = perm_of.get(t)
            ordered = [fib[p] for p in perm] if perm else fib
            out.append(tuple((s, "m" if t == 0 and s == 0 else "a") for s in ordered))
        return out

    return dims, multis, _recipe_evaluator(field, layouts, slots_of,
                                           _basis_products(a, m))


def higher_hochschild_system(a: Algebra, m: Bimodule, x: PointedSimplicialSet,
                             caps=DEFAULT_CAPS) -> LambdaSystem:
    """The system over a pointed simplicial set with all fiber orderings,
    identity orderings first; their number is checked before they are
    enumerated."""
    dims, multis, column_fn = _simplicial_engine(a, m, x)
    labels = {}
    for (n, i), multi in multis.items():
        caps.check_index_size(
            n, i, math.prod(math.factorial(len(fib)) for _, fib in multi))
        labels[(n, i)] = tuple(itertools.product(
            *(itertools.permutations(range(len(fib))) for _, fib in multi)))
    tag = f"simplicial({a.label or 'A'},{m.label or 'M'},{x.label or 'X'})"
    return LambdaSystem(a.field, x.max_level, dims, labels, column_fn, label=tag)


def loday_chain(a: Algebra, m: Bimodule, x: PointedSimplicialSet) -> LambdaSystem:
    """The commutative-case chain: fiber products with no ordering choices.

    Requires a commutative algebra and symmetric bimodule, where unordered
    fiber products are well defined; the faces equal the reference faces of
    the full system, whose identity orderings are its single candidates.
    """
    rep = commutativity_report(a, m)
    if not rep["algebra_commutative"]:
        raise ValidationError("commutative chain needs a commutative algebra")
    if not rep["bimodule_symmetric"]:
        raise ValidationError("commutative chain needs a symmetric bimodule")
    dims, multis, column_fn = _simplicial_engine(a, m, x)
    labels = {key: (tuple(tuple(range(len(fib))) for _, fib in multi),)
              for key, multi in multis.items()}
    tag = f"commutative({a.label or 'A'},{m.label or 'M'},{x.label or 'X'})"
    return LambdaSystem(a.field, x.max_level, dims, labels, column_fn, label=tag)


def sphere2_system(a: Algebra, m: Bimodule, max_degree: int,
                   caps=DEFAULT_CAPS) -> LambdaSystem:
    """The simplicial system on the two-sphere Delta^2/dDelta^2
    (``simplicial.sphere2``): algebra factors at the positions (p, q),
    1 <= p < q <= n, row-major after the module; the ends have n!
    candidates and the middle faces 2^(n-1)."""
    if max_degree < 0:
        raise ValidationError("max_degree must be nonnegative", max_degree=max_degree)
    system = higher_hochschild_system(a, m, sphere2(max_degree), caps)
    system.label = f"triangular({a.label or 'A'},{m.label or 'M'})"
    return system


# ---------------------------------------------------------------------------
# the two-algebra system
# ---------------------------------------------------------------------------


def _ordered(x, y, swap) -> tuple:
    return (y, x) if swap else (x, y)


def _pair_merge(factor, n: int, i: int, pp: int, qq: int, swaps: dict) -> tuple:
    """Factors of target pair (pp, qq) when face i collapses rows and
    columns i, i+1 of the pairs above the diagonal: the merged row and
    column pairs in the order ``swaps`` picks, every other pair shifted
    past i."""
    if qq == i and pp < i:
        return _ordered(factor(pp, i), factor(pp, i + 1), swaps[pp])
    if pp == i and qq >= i + 1:
        return _ordered(factor(i, qq + 1), factor(i + 1, qq + 1), swaps[qq])
    return (factor(pp + 1 if pp > i else pp, qq + 1 if qq > i else qq),)


def _pair_slot(n: int, p: int, q: int) -> int:
    """Slot of pair (p, q), 0 <= p < q <= n, row-major, after the diagonal."""
    return (n + 1) + p * (2 * n + 1 - p) // 2 + (q - p - 1)


def _secondary_layout(a: Algebra, b: Algebra, n: int) -> TensorLayout:
    """A^(n+1) (x) B^(n(n+1)/2): the diagonal, then the pairs above it."""
    return TensorLayout((a.dim,) * (n + 1) + (b.dim,) * (n * (n + 1) // 2))


def secondary_system(a: Algebra, b: Algebra, eps: AlgebraMorphism,
                     max_degree: int, caps=DEFAULT_CAPS) -> LambdaSystem:
    """Faces on A^(n+1) (x) B^(n(n+1)/2) connected by a morphism B -> A.

    Face i < n merges diagonal factors i, i+1; the (i, i+1) factor of B
    enters that product through the morphism, placed left, center, or right
    (the ternary candidate component), while the other B-factors of the
    collapsed rows and columns merge pairwise in one of two orders.  The
    last face wraps diagonal factor n onto factor 0 the same way.  With a
    one-dimensional B this reduces to the classical system on A, matrix for
    matrix.
    """
    if eps.source is not b or eps.target is not a:
        raise ValidationError("morphism endpoints do not match the algebras")
    field = a.field
    layouts = [_secondary_layout(a, b, n) for n in range(max_degree + 1)]
    dims = tuple(layouts[n].total for n in range(max_degree + 1))
    labels = {}
    for n in range(1, max_degree + 1):
        for i in range(n + 1):
            caps.check_index_size(n, i, 3 * 2 ** (n - 1))
            ternary_at = 0 if i == n else i
            ranges = [
                (0, 1, 2) if j == ternary_at else (0, 1)
                for j in range(n)
            ]
            labels[(n, i)] = tuple(itertools.product(*ranges))

    def slots_of(n, i, lab):
        def da(j):
            return ((j, "a"),)

        def db(p, q):
            return (_pair_slot(n, p, q), "b")

        def triple(a1, a2, p, q, mode):
            # the (p, q) factor of B enters through the morphism
            eb = (_pair_slot(n, p, q), "e")
            return ((eb, a1, a2), (a1, eb, a2), (a1, a2, eb))[mode]

        if i < n:
            diag = [da(j) for j in range(i)]
            diag.append(triple((i, "a"), (i + 1, "a"), i, i + 1, lab[i]))
            diag.extend(da(j) for j in range(i + 2, n + 1))
            return diag + [
                _pair_merge(db, n, i, pp, qq, lab)
                for pp in range(n) for qq in range(pp + 1, n)
            ]
        # wrap: diagonal n folds onto diagonal 0 through the (0, n) factor
        diag = [triple((n, "a"), (0, "a"), 0, n, lab[0])]
        diag.extend(da(j) for j in range(1, n))
        pairs = []
        for pp in range(n):
            for qq in range(pp + 1, n):
                if pp == 0:
                    pairs.append(_ordered(db(0, qq), db(qq, n), lab[qq]))
                else:
                    pairs.append((db(pp, qq),))
        return diag + pairs

    column_fn = _recipe_evaluator(field, layouts, slots_of,
                                  _basis_products(a, b=b, eps=eps))
    tag = f"paired({a.label or 'A'},{b.label or 'B'})"
    return LambdaSystem(field, max_degree, dims, labels, column_fn, label=tag)


# ---------------------------------------------------------------------------
# witness vectors
# ---------------------------------------------------------------------------


def w_witness_vector(m: Bimodule, x: PointedSimplicialSet, e: dict,
                     mvec: dict, n: int) -> dict:
    """The module vector in slot 0 and the idempotent in every other slot."""
    layout = _simplicial_layout(m, x, n)
    return layout.expand(m.field, [mvec] + [e] * (len(layout.dims) - 1))


def t_witness_vector(a: Algebra, b: Algebra, e: dict, f: dict, n: int) -> dict:
    """One idempotent along the diagonal, the other in every pair slot."""
    layout = _secondary_layout(a, b, n)
    return layout.expand(a.field, [e] * (n + 1) + [f] * (len(layout.dims) - n - 1))


def _transport_report(system: LambdaSystem, vectors: list[dict]) -> dict:
    """Check every face candidate maps each witness onto the previous one."""
    checked = 0
    failures = []
    for n in range(1, len(vectors)):
        for i in range(n + 1):
            for lab in system.labels[(n, i)]:
                img = system.apply_face(n, i, lab, vectors[n])
                checked += 1
                if img != vectors[n - 1]:
                    failures.append({"degree": n, "position": i})
                    if len(failures) >= 5:
                        return {"ok": False, "checked": checked,
                                "failures": failures}
    return {"ok": not failures, "checked": checked, "failures": failures}


def _boundary_parity_report(system: LambdaSystem, vectors: list[dict]) -> dict:
    """Alternating sums on the witnesses: zero in odd degrees, the previous
    witness in even degrees (an odd/even count of cancelling terms)."""
    entries = []
    ok = True
    for n in range(1, len(vectors)):
        img = system.apply_boundary(n, vectors[n])
        if n % 2 == 1:
            expected = "zero"
            good = not img
        else:
            expected = "previous_witness"
            good = img == vectors[n - 1]
        ok = ok and good
        entries.append({
            "n": n,
            "boundary": "zero" if not img else "previous_witness"
            if img == vectors[n - 1] else "other",
            "expected": expected,
            "ok": good,
        })
    return {"ok": ok, "entries": entries}


def _witness_report(kind: str, system: LambdaSystem, vectors: list[dict],
                    theta_system_of, n_theta: int | None, caps) -> dict:
    """Transport, span validation, membership, and boundary parity for one
    witness vector per degree of ``system``.

    Membership is checked directly up to ``n_theta`` (default: the top
    degree) in the computed subspace of ``theta_system_of(n_theta)``, the
    system truncated there; it is built only after the span is validated.
    """
    if n_theta is None:
        n_theta = system.max_degree
    if not 0 <= n_theta <= system.max_degree:
        raise ValidationError(
            "theta degree must lie between 0 and the max degree",
            theta_degree=n_theta, max_degree=system.max_degree,
        )
    spans = [Subspace.from_vectors(system.field, system.dims[n], [v])
             for n, v in enumerate(vectors)]
    sub_report = validate_subcomplex(system, spans)
    theta = compute_theta(theta_system_of(n_theta), caps)
    membership = [
        {"n": n, "in_theta": theta.subspaces[n].contains(vectors[n])}
        for n in range(n_theta + 1)
    ]
    return {
        "kind": kind,
        "max_degree": system.max_degree,
        "transport": _transport_report(system, vectors),
        "span_is_subcomplex": sub_report,
        "theta_membership": membership,
        "theta_checked_up_to": n_theta,
        "boundary_parity": _boundary_parity_report(system, vectors),
    }


def witness_w_suite(a: Algebra, m: Bimodule, x: PointedSimplicialSet,
                    e: dict, mvec: dict, theta_degree: int | None = None,
                    caps=DEFAULT_CAPS) -> dict:
    """Transport, span validation, membership, and boundary parity for the
    module-type witness on a simplicial-set system."""
    if not is_w_witness_pair(m, e, mvec):
        raise ValidationError(
            "witness data must be an idempotent acting as identity on the module vector"
        )
    vectors = [w_witness_vector(m, x, e, mvec, n) for n in range(x.max_level + 1)]
    return _witness_report(
        "module_idempotent", higher_hochschild_system(a, m, x, caps), vectors,
        lambda n: higher_hochschild_system(a, m, x.truncate(n), caps),
        theta_degree, caps,
    )


def witness_t_suite(a: Algebra, b: Algebra, eps: AlgebraMorphism,
                    e: dict, f: dict, max_degree: int,
                    theta_degree: int | None = None,
                    caps=DEFAULT_CAPS) -> dict:
    """The same suite for the two-idempotent witness on the paired system.

    Direct membership is checked up to ``theta_degree`` (the ambient grows
    too fast beyond desk scale); above that the validated one-dimensional
    subcomplex certifies membership, since the computed space contains
    every subcomplex degreewise.
    """
    if not is_t_witness_pair(eps, e, f):
        raise ValidationError(
            "witness data must be idempotents absorbing through the morphism"
        )
    vectors = [t_witness_vector(a, b, e, f, n) for n in range(max_degree + 1)]
    report = _witness_report(
        "paired_idempotents", secondary_system(a, b, eps, max_degree, caps),
        vectors, lambda n: secondary_system(a, b, eps, n, caps), theta_degree,
        caps,
    )
    report["membership_above_direct_check"] = "certified by subcomplex containment"
    return report


# ---------------------------------------------------------------------------
# matrix extension comparison
# ---------------------------------------------------------------------------


def corner_chain_map(a: Algebra, m: Bimodule, corner_a: Matrix,
                     corner_m: Matrix, max_degree: int,
                     big_dims) -> list[Matrix]:
    """Degreewise corner embeddings M (x) A^n -> M_l(M) (x) M_l(A)^n."""
    field = a.field
    cols_m, cols_a = corner_m.transpose().rows, corner_a.transpose().rows
    mats = []
    for n in range(max_degree + 1):
        tgt = TensorLayout((corner_m.nrows,) + (corner_a.nrows,) * n)
        if tgt.total != big_dims[n]:
            raise ValidationError("corner map shape mismatch", degree=n)
        # the images of the source codes, in TensorLayout's row-major order
        cols = [tgt.expand(field, [cols_m[idx[0]], *[cols_a[j] for j in idx[1:]]])
                for idx in itertools.product(range(m.dim), *[range(a.dim)] * n)]
        mats.append(Matrix(field, len(cols), big_dims[n], cols).transpose())
    return mats


def morita_report(a: Algebra, m: Bimodule, size: int, max_degree: int,
                  caps=DEFAULT_CAPS) -> dict:
    """Compare four homology tables across the matrix extension.

    Tables: (1) the circle system of (a, m), full by commutativity; (2) the
    classical system of (a, m); (3) the classical system of the matrix
    extension; (4) the computed subcomplex of the circle system of the
    matrix extension.  Alongside: certificates for the corner embedding and
    the identity comparison map, their induced maps on homology, and the
    matrix identity composite = identity_after_corner.
    """
    rep = commutativity_report(a, m)
    if not rep["algebra_commutative"] or not rep["bimodule_symmetric"]:
        raise ValidationError(
            "matrix comparison needs a commutative algebra and symmetric bimodule"
        )
    field = a.field
    big, corner_emb = matrix_algebra(a, size)
    bigmod, corner_mod = matrix_bimodule(big, m, size)
    circ = circle(max_degree)

    sys_small_circle = higher_hochschild_system(a, m, circ, caps)
    sys_small_classical = hochschild_system(a, m, max_degree)
    sys_big_classical = hochschild_system(big, bigmod, max_degree)
    sys_big_circle = higher_hochschild_system(big, bigmod, circ, caps)

    theta1 = compute_theta(sys_small_circle, caps)
    theta2 = compute_theta(sys_small_classical, caps)
    theta3 = compute_theta(sys_big_classical, caps)
    theta4 = compute_theta(sys_big_circle, caps)

    tables = [theta1.homology(), theta2.homology(), theta3.homology(),
              theta4.homology()]
    betti = [[e["betti"] for e in t["entries"]] for t in tables]
    agree = all(b == betti[0] for b in betti[1:])

    corner_mats = corner_chain_map(
        a, m, corner_emb.matrix, corner_mod, max_degree, sys_big_circle.dims
    )
    mor0 = LambdaMorphism(sys_small_classical, sys_big_circle, corner_mats)
    mor1 = LambdaMorphism.identity(sys_big_circle, sys_big_classical)
    cert0 = check_lambda_morphism(mor0)
    cert1 = check_lambda_morphism(mor1)
    # the circle and classical systems of the extension have equal dims
    # (mor1 checks it), so the corner maps into either are the same matrices
    mor2 = mor1.compose(mor0)
    composition_ok = all(
        mor2.matrices[n] == corner_mats[n] for n in range(max_degree + 1)
    )
    ind0 = induced_theta_map(mor0, theta2, theta4)
    ind1 = induced_theta_map(mor1, theta4, theta3)
    ind2 = induced_theta_map(mor2, theta2, theta3)

    return {
        "field": field.to_json(),
        "matrix_size": size,
        "max_degree": max_degree,
        "valid_up_to": max_degree - 1,
        "tables": {
            "circle_small": tables[0],
            "classical_small": tables[1],
            "classical_matrix": tables[2],
            "circle_matrix_theta": tables[3],
        },
        "betti": {
            "circle_small": betti[0],
            "classical_small": betti[1],
            "classical_matrix": betti[2],
            "circle_matrix_theta": betti[3],
        },
        "tables_agree": agree,
        "corner_to_circle": {
            "is_lambda_morphism": cert0["ok"],
            "matched_candidates": len(cert0["assignments"]),
            "failures": cert0["failures"],
            "induced": ind0["homology_maps"],
        },
        "circle_to_classical": {
            "is_lambda_morphism": cert1["ok"],
            "matched_candidates": len(cert1["assignments"]),
            "failures": cert1["failures"],
            "induced": ind1["homology_maps"],
        },
        "composition_matches_corner_to_classical": composition_ok,
        "corner_to_classical_induced": ind2["homology_maps"],
        "composite_induces_isomorphism": all(
            h["isomorphism"] for h in ind2["homology_maps"]
        ),
    }


# ---------------------------------------------------------------------------
# system comparison
# ---------------------------------------------------------------------------


def compare_systems(left: LambdaSystem, right: LambdaSystem,
                    with_homology: bool = False, caps=DEFAULT_CAPS) -> dict:
    """Degreewise reference-face comparison, with optional betti tables.

    Reports the first differing dimension or face matrix; candidate counts
    are listed so degenerate indexings are visible next to rich ones.
    """
    depth = min(left.max_degree, right.max_degree)

    def index_sizes(system):
        return {f"{n},{i}": len(labs)
                for (n, i), labs in sorted(system.labels.items()) if n <= depth}

    report = {
        "max_degree": depth,
        "left": left.label,
        "right": right.label,
        "first_difference": None,
        "dims_left": list(left.dims[: depth + 1]),
        "dims_right": list(right.dims[: depth + 1]),
        "index_sizes_left": index_sizes(left),
        "index_sizes_right": index_sizes(right),
    }
    if left.dims[: depth + 1] != right.dims[: depth + 1]:
        for n in range(depth + 1):
            if left.dims[n] != right.dims[n]:
                report["equal"] = False
                report["first_difference"] = {
                    "kind": "dimension", "degree": n,
                    "left": left.dims[n], "right": right.dims[n],
                }
                return report
    for n in range(1, depth + 1):
        for i in range(n + 1):
            if left.face_matrix(n, i) != right.face_matrix(n, i):
                report["equal"] = False
                report["first_difference"] = {
                    "kind": "face_matrix", "degree": n, "position": i,
                }
                return report
    report["equal"] = True
    if with_homology:
        report["homology_left"] = compute_theta(left, caps).homology()
        report["homology_right"] = compute_theta(right, caps).homology()
    return report
