"""Independent dense-arithmetic oracles used to freeze expected values.

Everything here is deliberately written from scratch on top of
``fractions.Fraction`` lists: no imports from the package under test, no
sparse tricks, no pivot heuristics.  The implementations favor obviousness
over speed; they exist to certify the package's answers on small inputs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# dense linear algebra
# ---------------------------------------------------------------------------


def rref_dense(rows):
    """Reduced row echelon form of a list of Fraction lists."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank_dense(rows) -> int:
    return len(rref_dense(rows)[0])


def rank_dense_mod(rows, p: int) -> int:
    """Rank of a list of int lists over the field with p elements."""
    mat = [[x % p for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = pow(mat[r][c], -1, p)
        for i in range(r + 1, len(mat)):
            f = mat[i][c] * inv % p
            if f:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def rref_dense_mod(rows, p: int):
    """Reduced row echelon form of a list of int lists over the field with
    p elements: (rows with entries in [0, p), pivot columns)."""
    mat = [[x % p for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def kernel_dense(rows, ncols):
    """Basis of the right null space, rows as Fraction lists."""
    red, pivots = rref_dense(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def matvec_dense(mat, vec):
    return [sum((row[j] * vec[j] for j in range(len(vec))), Fraction(0))
            for row in mat]


def matmul_dense(a, b):
    """Product of two dense matrices given as lists of rows."""
    bt = list(zip(*b)) if b else []
    return [[sum((ra[k] * cb[k] for k in range(len(ra))), Fraction(0))
             for cb in bt] for ra in a]


def columns(m):
    """The columns of a matrix held by rows (``m.rows``, ``m.ncols``): the
    rows of its transpose, as fresh sparse dicts."""
    cols = [{} for _ in range(m.ncols)]
    for r, row in enumerate(m.rows):
        for c, v in row.items():
            cols[c][r] = v
    return cols


def matvec_sparse(m, vec, p=None):
    """A matrix held by rows times a sparse column vector, as a sparse dict
    without zeros; the entries are reduced mod p when p is given."""
    out = {}
    for r, row in enumerate(m.rows):
        acc = sum((v * vec[c] for c, v in row.items() if c in vec), 0)
        if p is not None:
            acc %= p
        if acc:
            out[r] = acc
    return out


def member_dense(basis, vec) -> bool:
    """Is vec in the span of the basis rows?"""
    if not basis:
        return all(x == 0 for x in vec)
    return rank_dense(basis) == rank_dense(list(basis) + [list(vec)])


def annihilator_dense(basis, dim):
    """Functionals (as rows) vanishing exactly on the span of the basis."""
    if not basis:
        return [[Fraction(1 if i == j else 0) for j in range(dim)]
                for i in range(dim)]
    return kernel_dense(basis, dim)


# ---------------------------------------------------------------------------
# classical faces from a multiplication table
# ---------------------------------------------------------------------------
#
# An algebra is given by mult[i][j] = dense list of structure constants; the
# module is the algebra itself.  Chain coordinates in degree n are tuples
# (m, a_1, ..., a_n) encoded left to right.


def tensor_dims(d: int, n: int) -> int:
    return d ** (n + 1)


def _decode(code: int, d: int, n: int):
    idx = []
    for _ in range(n + 1):
        idx.append(code % d)
        code //= d
    return list(reversed(idx))


def _encode(idx, d: int) -> int:
    code = 0
    for i in idx:
        code = code * d + i
    return code


def classical_face_dense(mult, d: int, n: int, i: int, swap: bool = False):
    """Dense matrix of the degree-n classical face d_i.

    d_0 merges (m, a_1), d_i merges (a_i, a_{i+1}), d_n wraps a_n around to
    act on the module from the left.  With ``swap`` the merged pair
    multiplies in the opposite order, which is the other candidate of the
    circle system at every position.
    """
    dim_lo = tensor_dims(d, n - 1)
    dim_hi = tensor_dims(d, n)
    rows = [[Fraction(0)] * dim_hi for _ in range(dim_lo)]
    for code in range(dim_hi):
        idx = _decode(code, d, n)
        if i == n:
            seq = [idx[n], idx[0]] + idx[1:n]
        else:
            seq = idx[:]
        pos = 0 if i == n else i
        if swap:
            seq = seq[:pos] + [seq[pos + 1], seq[pos]] + seq[pos + 2:]
        left, right = seq[pos], seq[pos + 1]
        for k in range(d):
            c = mult[left][right][k]
            if c:
                new = seq[:pos] + [k] + seq[pos + 2:]
                rows[_encode(new, d)][code] += Fraction(c)
    return rows


def boundary_dense(mult, d: int, n: int):
    dim_lo = tensor_dims(d, n - 1)
    dim_hi = tensor_dims(d, n)
    acc = [[Fraction(0)] * dim_hi for _ in range(dim_lo)]
    sign = 1
    for i in range(n + 1):
        face = classical_face_dense(mult, d, n, i)
        for r in range(dim_lo):
            arow = acc[r]
            frow = face[r]
            for c in range(dim_hi):
                if frow[c]:
                    arow[c] += sign * frow[c]
        sign = -sign
    return acc


def hochschild_betti_dense(mult, d: int, max_degree: int):
    """Brute-force betti table of the algebra acting on itself."""
    ranks = [0] * (max_degree + 2)
    for n in range(1, max_degree + 1):
        ranks[n] = rank_dense(boundary_dense(mult, d, n))
    betti = []
    for n in range(max_degree):
        dim = tensor_dims(d, n)
        betti.append(dim - ranks[n] - ranks[n + 1])
    return betti


def circle_candidates_dense(mult, d: int, max_degree: int):
    """Candidate face matrices of the circle system, straight from the
    two orderings of the merged pair."""
    cands = {}
    for n in range(1, max_degree + 1):
        for i in range(n + 1):
            cands[(n, i)] = [
                classical_face_dense(mult, d, n, i, swap=False),
                classical_face_dense(mult, d, n, i, swap=True),
            ]
    return cands


def boundary_triangle(max_level: int) -> dict:
    """The circle dDelta^2, pointed at a vertex, in the simplicial JSON format.

    Its n-simplices are the sequences 0...0 1...1 2...2 of length n + 1 that
    miss a value, numbered in lexicographic order, so the basepoint 0...0
    is simplex 0; d_i deletes entry i.
    """
    levels = [[s for s in itertools.combinations_with_replacement(range(3), n + 1)
               if len(set(s)) < 3] for n in range(max_level + 1)]
    ids = [{s: k for k, s in enumerate(level)} for level in levels]
    faces = {
        str(n): [[ids[n - 1][s[:i] + s[i + 1:]] for s in levels[n]]
                 for i in range(n + 1)]
        for n in range(1, max_level + 1)
    }
    return {"max_level": max_level, "sizes": [len(lv) for lv in levels],
            "faces": faces, "label": f"boundary_triangle({max_level})"}


# ---------------------------------------------------------------------------
# fixed-point sweep for the maximal subcomplex
# ---------------------------------------------------------------------------


def theta_sweep(dims, candidates, max_degree):
    """Maximal subcomplex by global sweeps, not bottom-up elimination.

    ``candidates[(n, i)]`` lists dense face matrices, reference first.
    Starting from the full spaces, every sweep rebuilds each positive
    degree against the CURRENT neighbors until nothing changes.  Iterating
    to a fixed point is a different strategy from the package's single
    bottom-up pass, so agreement is meaningful evidence.
    """
    spaces = [
        [[Fraction(1 if i == j else 0) for j in range(dims[n])]
         for i in range(dims[n])]
        for n in range(max_degree + 1)
    ]
    changed = True
    while changed:
        changed = False
        for n in range(1, max_degree + 1):
            cur = spaces[n]
            if not cur:
                continue
            cons = []
            for i in range(n + 1):
                mats = candidates[(n, i)]
                ref = mats[0]
                for alt in mats[1:]:
                    for r in range(len(ref)):
                        row = [ref[r][c] - alt[r][c] for c in range(dims[n])]
                        if any(row):
                            cons.append(row)
            for f in annihilator_dense(spaces[n - 1], dims[n - 1]):
                for i in range(n + 1):
                    ref = candidates[(n, i)][0]
                    row = [sum((f[r] * ref[r][c] for r in range(len(ref))),
                               Fraction(0)) for c in range(dims[n])]
                    if any(row):
                        cons.append(row)
            if n >= 2:
                for j in range(1, n + 1):
                    for i in range(j):
                        left = matmul_dense(candidates[(n - 1, i)][0],
                                            candidates[(n, j)][0])
                        right = matmul_dense(candidates[(n - 1, j - 1)][0],
                                             candidates[(n, i)][0])
                        for r in range(len(left)):
                            row = [left[r][c] - right[r][c]
                                   for c in range(dims[n])]
                            if any(row):
                                cons.append(row)
            if not cons:
                continue
            sys_rows = [
                [sum((row[c] * cur[b][c] for c in range(dims[n])),
                     Fraction(0)) for b in range(len(cur))]
                for row in cons
            ]
            null = kernel_dense(sys_rows, len(cur))
            if len(null) == len(cur):
                continue
            new_basis = []
            for coeffs in null:
                vec = [Fraction(0)] * dims[n]
                for b, cf in enumerate(coeffs):
                    if cf:
                        vec = [v + cf * cur[b][c] for c, v in enumerate(vec)]
                new_basis.append(vec)
            spaces[n], _ = rref_dense(new_basis)
            changed = True
    return spaces


def chain_betti_dense(bases, boundaries, max_degree):
    """Betti numbers of subspaces under ambient boundary matrices.

    ``bases[n]`` spans the degree-n subspace, ``boundaries[n]`` is the full
    alternating-sum matrix.  Ranks are taken on the images of the basis
    vectors, exactly like a hand computation.
    """
    ranks = [0] * (max_degree + 2)
    for n in range(1, max_degree + 1):
        imgs = [matvec_dense(boundaries[n], vec) for vec in bases[n]]
        imgs = [v for v in imgs if any(v)]
        ranks[n] = rank_dense(imgs) if imgs else 0
    return [len(bases[n]) - ranks[n] - ranks[n + 1]
            for n in range(max_degree)]
