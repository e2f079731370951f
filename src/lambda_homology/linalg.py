"""Sparse exact linear algebra: matrices, echelon subspaces, kernels.

Everything here is exact.  Matrices are stored row-major as dicts mapping
column -> nonzero scalar, and only so: a matrix M is applied to vectors
held as the rows of V by the product V . M^T.  Subspaces are stored via a
basis in reduced row-echelon form with strictly increasing pivots, so two
equal subspaces have syntactically identical bases and equality is a plain
comparison.

``rref`` runs one sparse engine, one loop over the rows, shortest row
first within a block (a list of rows is one block; ``Blocks`` hands
blocks over as a caller builds them).  A row that reduces to zero is
cleared at once, since CPython never shrinks a dict whose entries are
deleted.  For the reduced echelon form each row is reduced in one pass
against the reduced pivot rows found so far, and a row that survives is
cleared out of the pivot rows that hold its leftmost column, found through
a column -> pivots index the loop keeps itself (the form is unique, so the
visiting order cannot change it).  The index only grows, and an entry whose
row has since lost the column is skipped when the column is read.  A rank
needs only an echelon form: each row is reduced until its leftmost column
is new, and then becomes that column's pivot row for good.  ``rank``
eliminates the side of its matrix with fewer nonempty lines, that side's
columns renumbered sparsest first, which leaves less fill and cannot change
a rank; ``rank_and_basis_rows`` also deletes given columns and names the
rows that a transposed elimination finds to be a basis.  Kernels and
reduced forms keep the natural column order.  Over Q elimination is
fraction-free: rows are primitive integer dicts, and a pivot row of the
reduced form is divided by its pivot only at the end, giving ``Fraction``
entries only where the reduced form is not integral.  The dense engines
``_rref_dense_python`` and ``_rref_dense_fp_numpy`` are kept for
comparison (the engine tests and the benchmark trace use them; both
return the field's representatives, like the sparse engine); ``rref``
calls neither, since the sparse engine is the faster one even on filled
matrices.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Sequence

from .errors import ValidationError


class Matrix:
    """An immutable-by-convention sparse matrix over an exact field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows: int, ncols: int, rows: list[dict]):
        if len(rows) != nrows:
            raise ValidationError("row count mismatch", expected=nrows, got=len(rows))
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    # ---------------------------------------------------------------- build

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        one = field.one
        return cls(field, n, n, [{i: one} for i in range(n)])

    @classmethod
    def from_entries(cls, field, nrows: int, ncols: int, entries: Iterable) -> "Matrix":
        """Build from (row, col, scalar) triples; duplicates accumulate."""
        rows = [dict() for _ in range(nrows)]
        add = field.add
        for r, c, v in entries:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValidationError(
                    "entry out of bounds", row=r, col=c, nrows=nrows, ncols=ncols
                )
            row = rows[r]
            w = add(row.get(c, field.zero), v)
            if w:
                row[c] = w
            elif c in row:
                del row[c]
        return cls(field, nrows, ncols, rows)

    # ------------------------------------------------------------- queries

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def to_entries(self) -> list[list]:
        """Sorted (row, col, str) triples for serialization; each distinct
        scalar is formatted once and its string shared."""
        fmt = self.field.fmt
        strs: dict = {}
        out = []
        for r, row in enumerate(self.rows):
            for c in sorted(row):
                v = row[c]
                s = strs.get(v)
                if s is None:
                    s = strs[v] = fmt(v)
                out.append([r, c, s])
        return out

    # ---------------------------------------------------------- arithmetic

    def mul(self, other: "Matrix") -> "Matrix":
        """Matrix product self @ other."""
        if self.field != other.field:
            raise ValidationError("field mismatch")
        if self.ncols != other.nrows:
            raise ValidationError(
                "inner dimension mismatch", left=self.ncols, right=other.nrows
            )
        f = self.field
        orows = other.rows
        rows = []
        for row in self.rows:
            acc: dict = {}
            for c, a in row.items():
                src = orows[c]
                if src:
                    f.axpy_row(acc, src, a)
            rows.append(acc)
        return Matrix(f, self.nrows, other.ncols, rows)

    def transpose(self) -> "Matrix":
        rows = [dict() for _ in range(self.ncols)]
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                rows[c][r] = v
        return Matrix(self.field, self.ncols, self.nrows, rows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# elimination engines
# ---------------------------------------------------------------------------


class Blocks:
    """Row blocks handed to one elimination as they are built: ``rref``
    reduces a block before it asks for the next.  The blocks are iterated
    once; ``len`` counts the rows taken so far."""

    def __init__(self, blocks: Iterable[list[dict]]):
        self._blocks = iter(blocks)
        self._taken = 0

    def __iter__(self):
        for block in self._blocks:
            self._taken += len(block)
            yield block

    def __len__(self) -> int:
        return self._taken


def _rref_sparse(field, work, ncols: int, full: bool):
    # ``work`` is a list of rows (one block) or ``Blocks``.  With ``full``
    # one pass against the reduced pivot rows reduces a row (they are zero
    # at each other's pivots); without it a pivot row is never touched
    # again, since an echelon form is enough for a rank.  ``holders`` only
    # grows: a pivot whose row lost the column since is skipped when read.
    blocks = work if isinstance(work, Blocks) else (work,)
    key_of = field.pivot_key
    cancel = field.cancel
    row_at: dict[int, dict] = {}           # pivot column -> its row
    keys: dict[int, object] = {}
    holders = defaultdict(list)            # column -> pivots whose row had it
    for row in (row for block in blocks for row in sorted(block, key=len)):
        field.make_integral(row)
        if full:
            for c in [c for c in row if c in row_at]:
                cancel(row, row_at[c], c, keys[c])
        else:
            while row and (c := min(row)) in row_at:
                cancel(row, row_at[c], c, keys[c])
        if not row:
            row.clear()                    # an emptied dict keeps its table
            continue
        col = min(row)
        key = keys[col] = key_of(row[col])
        row_at[col] = row
        if full:
            for pc in holders.pop(col, ()):
                prow = row_at[pc]
                if col not in prow:
                    continue               # cleared out of it since
                # only the columns of ``row`` can enter ``prow``; ``col``
                # leaves it and is held by no row from now on
                fill = [c for c in row if c not in prow]
                cancel(prow, row, col, key)
                for c in fill:
                    holders[c].append(pc)
            for c in row:
                if c != col:
                    holders[c].append(col)
        if len(row_at) == ncols:
            break
    pivots = sorted(row_at)
    rows = [row_at[c] for c in pivots]
    if full:
        for c, row in zip(pivots, rows):
            field.unit_pivot(row, c)
    return rows, tuple(pivots)


def _rref_dense_python(field, work: list[dict], ncols: int, full: bool):
    zero = field.zero
    dense = []
    for row in work:
        drow = [zero] * ncols
        for c, v in row.items():
            drow[c] = v
        dense.append(drow)
    nrows = len(dense)
    piv_cols: list[int] = []
    piv_rows: list[int] = []
    r = 0
    for col in range(ncols):
        sel = -1
        for i in range(r, nrows):
            if dense[i][col]:
                sel = i
                break
        if sel < 0:
            continue
        dense[r], dense[sel] = dense[sel], dense[r]
        prow = dense[r]
        pv = prow[col]
        if pv != field.one:
            c = field.inv(pv)
            for j in range(col, ncols):
                if prow[j]:
                    prow[j] = field.mul(prow[j], c)
        lo = 0 if full else r + 1
        for i in range(lo, nrows):
            if i == r:
                continue
            f = dense[i][col]
            if f:
                trow = dense[i]
                nf = field.neg(f)
                for j in range(col, ncols):
                    v = prow[j]
                    if v:
                        trow[j] = field.add(trow[j], field.mul(nf, v))
        piv_cols.append(col)
        piv_rows.append(r)
        r += 1
        if r == nrows:
            break
    out_rows = []
    for r in piv_rows:
        drow = dense[r]
        out_rows.append({c: drow[c] for c in range(ncols) if drow[c]})
    return out_rows, tuple(piv_cols)


def _rref_dense_fp_numpy(field, work: list[dict], ncols: int, full: bool):
    import numpy as np

    p = field.p
    m = np.zeros((len(work), ncols), dtype=np.int64)
    for i, row in enumerate(work):
        for c, v in row.items():
            m[i, c] = v % p
    nrows = m.shape[0]
    piv_cols: list[int] = []
    r = 0
    for col in range(ncols):
        nz = np.nonzero(m[r:, col])[0]
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            m[[r, sel]] = m[[sel, r]]
        pv = int(m[r, col])
        if pv != 1:
            m[r] = (m[r] * pow(pv, -1, p)) % p
        if full:
            targets = np.nonzero(m[:, col])[0]
            targets = targets[targets != r]
        else:
            below = np.nonzero(m[r + 1 :, col])[0]
            targets = below + r + 1
        if targets.size:
            factors = m[targets, col][:, None]
            m[targets] = (m[targets] - factors * m[r][None, :]) % p
        piv_cols.append(col)
        r += 1
        if r == nrows:
            break
    m[m > field.h] -= p                    # the field's representatives
    out_rows = []
    for i in range(len(piv_cols)):
        nz = np.nonzero(m[i])[0]
        out_rows.append({int(c): int(m[i, c]) for c in nz})
    return out_rows, tuple(piv_cols)


def rref(field, rows, ncols: int, full: bool = True):
    """Row-reduce sparse rows; returns (echelon rows, pivot columns).

    ``rows`` is a list of rows, reduced as one block, or ``Blocks``, whose
    blocks are reduced in turn as they are built.  Either way the rows of a
    block are visited shortest first; the reduced form is unique, so the
    order cannot change it.  With ``full=True`` the result is the reduced
    row-echelon form; with ``full=False`` each row is reduced only until
    its leftmost column is no other row's pivot, which gives an echelon
    form, enough for ranks: the pivots are the same and the rows are not
    scaled to a unit pivot (over Q they are primitive integer rows).
    Pivots come back strictly increasing with their rows in matching order.
    The caller hands the row dicts over, each a distinct dict: they are
    eliminated in place, not copied.  A row that reduces to zero comes back
    cleared, its memory released at once; the others are unspecified
    afterwards.  Pass copies to keep the rows.  Entries must be the field's
    own scalars, as ``parse`` and the field's arithmetic return them: an
    entry the elimination never touches comes back as given, and nothing
    checks it.
    """
    return _rref_sparse(field, rows, ncols, full)


def kernel_rows_from_rref(field, rref_rows: list[dict], pivots: tuple, ncols: int) -> list[dict]:
    """Standard kernel basis read off a reduced echelon form.

    One vector per free column f: 1 at f and minus row[f] at the pivot of
    each echelon row, filled in by a single pass over the rows; each
    echelon row is cleared once read.
    """
    pivset = set(pivots)
    one = field.one
    neg = field.neg
    by_free = {c: {c: one} for c in range(ncols) if c not in pivset}
    for pcol, row in zip(pivots, rref_rows):
        for c, a in row.items():
            vec = by_free.get(c)
            if vec is not None:
                vec[pcol] = neg(a)
        row.clear()
    return list(by_free.values())


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A linear subspace held by a pivot-structured basis.

    Every basis carries a set of pivot columns at which the basis rows form
    an identity pattern (row r is 1 at pivots[r] and 0 at the other pivots).
    Membership and complement projectors only need that much.
    A basis may additionally be the reduced echelon form, which is canonical:
    equality and serialization canonicalize lazily so that hot paths can
    keep cheaper kernel-shaped bases.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_canon", "_row_at")

    def __init__(self, field, ambient_dim: int, basis: Matrix, pivots: tuple,
                 canonical: bool = True):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots
        self._canon = self if canonical else None
        self._row_at = None

    @classmethod
    def _from_rref(cls, field, ambient_dim: int, rows: list[dict], pivots: tuple) -> "Subspace":
        return cls(field, ambient_dim, Matrix(field, len(rows), ambient_dim, rows), pivots)

    @classmethod
    def from_vectors(cls, field, ambient_dim: int, vectors: Sequence[dict]) -> "Subspace":
        """The span of the vectors; entries must be field scalars (``rref``)."""
        rows, pivots = rref(field, [dict(v) for v in vectors if v], ambient_dim, full=True)
        return cls._from_rref(field, ambient_dim, rows, pivots)

    @classmethod
    def from_pivot_basis(cls, field, ambient_dim: int, rows: list[dict],
                         pivots: tuple) -> "Subspace":
        """Adopt rows already in identity pattern at the given pivots."""
        m = Matrix(field, len(rows), ambient_dim, rows)
        return cls(field, ambient_dim, m, pivots, canonical=False)

    def canonicalize(self) -> "Subspace":
        """The same subspace with the unique reduced-echelon basis."""
        if self._canon is None:
            self._canon = Subspace.from_vectors(
                self.field, self.ambient_dim, self.basis.rows
            )
        return self._canon

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        one = field.one
        rows = [{i: one} for i in range(ambient_dim)]
        return cls._from_rref(field, ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    # ----------------------------------------------------------- membership

    def contains(self, vec: dict) -> bool:
        """Whether vec minus its projection onto the basis is zero; by the
        identity pattern, the projection has coefficient vec[c] on the row
        with pivot c, so only vec's own pivot entries are read."""
        row_at = self._row_at
        if row_at is None:
            row_at = self._row_at = dict(zip(self.pivots, self.basis.rows))
        f = self.field
        out = dict(vec)
        for c, a in vec.items():
            row = row_at.get(c)
            if row is not None:
                f.axpy_row(out, row, f.neg(a))
        return not out

    # ---------------------------------------------------------- operations

    def complement_free_coords(self) -> tuple:
        pivset = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivset)

    def complement_projector(self) -> Matrix:
        """Rows indexed by free coordinates; kills the subspace exactly.

        For v in the ambient space, row f computes v[f] minus the f-entry of
        the projection of v onto the basis, so P v = 0 iff v is contained.
        """
        f = self.field
        neg = f.neg
        free = self.complement_free_coords()
        rows = []
        row_entries: dict[int, dict] = {fc: {fc: f.one} for fc in free}
        for pcol, brow in zip(self.pivots, self.basis.rows):
            for c, v in brow.items():
                if c != pcol and c in row_entries:
                    row_entries[c][pcol] = neg(v)
        for fc in free:
            rows.append(row_entries[fc])
        return Matrix(f, len(free), self.ambient_dim, rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            return False
        if self.dim != other.dim:
            return False
        a = self.canonicalize()
        b = other.canonicalize()
        return a.pivots == b.pivots and a.basis == b.basis

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim={self.dim} in {self.ambient_dim} over {self.field})"

    def to_json(self) -> dict:
        canon = self.canonicalize()
        return {
            "ambient_dim": canon.ambient_dim,
            "dim": canon.dim,
            "pivots": list(canon.pivots),
            "basis": canon.basis.to_entries(),
        }


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def rank_and_kernel(m: Matrix) -> tuple[int, Subspace]:
    """Rank and kernel of a matrix acting on column vectors."""
    kernel = kernel_of_rows(m.field, m.rows, m.ncols)
    return m.ncols - kernel.dim, kernel


def rank(m: Matrix) -> int:
    """Rank of m; its rows stay unchanged (``rank_and_basis_rows``)."""
    return rank_and_basis_rows(m)[0]


def rank_and_basis_rows(m: Matrix, skip=()) -> tuple[int, tuple]:
    """Rank of m with the columns in ``skip`` deleted, and the indices of
    rows of m that form a basis of its row space when the transpose was
    eliminated; none when the rows were.

    The side eliminated is the one with fewer nonempty lines: the rows of m
    if they are no more than its nonempty columns, else the transpose
    (rank(A) = rank(A^T)).  The columns of that side are renumbered
    sparsest first: by ascending nonzero count, ties in their natural
    order (Dumas and Villard 2002).  A column permutation does not change
    a rank, and a sparse column that leads rows meets few rows to clear, so
    the echelon form fills in less.  The pivots of the transpose's echelon
    form are then rows of m, none in the span of the rows before it in that
    order.  The elimination runs on a copy without holding the argument:
    its rows stay unchanged, and a matrix nobody else holds is freed first.
    """
    field = m.field
    cols = set().union(*m.rows)
    cols.difference_update(skip)
    if m.nrows > len(cols):
        # the columns of the transpose are the rows of m, sparsest first
        lengths = [len(row) for row in m.rows]
        order = sorted(range(m.nrows), key=lengths.__getitem__)
        at = {c: {} for c in sorted(cols)}
        for k, r in enumerate(order):
            for c, v in m.rows[r].items():
                if c in at:
                    at[c][k] = v
        rows, ncols = list(at.values()), m.nrows
        del at
    else:
        order = ()
        count = Counter(c for row in m.rows for c in row if c in cols)
        new = {c: k for k, c in enumerate(sorted(cols, key=lambda c: (count[c], c)))}
        rows = [{new[c]: v for c, v in row.items() if c in new} for row in m.rows if row]
        ncols = len(new)
    del m
    _, pivots = rref(field, rows, ncols, full=False)
    return len(pivots), tuple(order[k] for k in pivots) if order else ()


def kernel_of_rows(field, rows: Sequence[dict], ncols: int) -> Subspace:
    """Kernel of the linear map whose matrix has the given rows."""
    return kernel_of_rows_raw(field, [dict(r) for r in rows if r], ncols).canonicalize()


def kernel_of_rows_raw(field, rows, ncols: int) -> Subspace:
    """Like kernel_of_rows but keeps the kernel-shaped basis uncanonicalized.

    The pivots of the result are the free columns of the constraint system.
    This avoids a second elimination pass on large kernels; callers that
    need the canonical basis call canonicalize().  As with ``rref``, the
    rows are a list or ``Blocks``, the caller hands the row dicts over and
    their entries must be the field's own scalars.  A row that reduces to
    zero or becomes a pivot row comes back cleared, the pivot rows once the
    kernel has been read off them.
    """
    rr, pivots = rref(field, rows, ncols, full=True)
    if not pivots:
        return Subspace.full(field, ncols)
    krows = kernel_rows_from_rref(field, rr, pivots, ncols)
    pivset = set(pivots)
    free = tuple(c for c in range(ncols) if c not in pivset)
    return Subspace.from_pivot_basis(field, ncols, krows, free)
