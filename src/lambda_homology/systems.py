"""Multi-indexed face systems and their largest well-behaved subcomplex.

A system assigns to each degree n a vector space M_n and to each face
position i a finite family of candidate linear maps M_n -> M_{n-1}.  The
object of interest is the largest graded subspace on which (i) all the
candidates at each position agree, (ii) face images stay inside the lower
subspace, and (iii) the pre-simplicial identities d_i d_j = d_{j-1} d_i
(i < j) hold.  Those three conditions only reference lower degrees, so the
subcomplex is computed bottom-up, degree by degree, as the kernel of one
linear system per degree, with rows of three kinds:

* agreement rows:   d_i^a - d_i^ref for every non-reference candidate a;
* closure rows:     (projector killing the lower subspace) . d_i^ref;
* identity rows:    d_i^ref d_j^ref - d_{j-1}^ref d_i^ref for i < j.

``_condition_blocks`` builds these rows block by block for both
``compute_theta`` and ``maximality_probe``.  ``compute_theta`` hands the
blocks to one elimination as they are built (``linalg.Blocks``), so the
rows of a block that reduce to zero are released before the next block
exists, and the pivot rows once the kernel is read off them.  The probe
reads the first block each excluded unit vector breaks off the column
supports of the blocks.

One evaluator, ``column_fn``, gives a face's columns at any basis codes:
faces are built whole from all of them and kept by rows, and
``apply_face`` reads a vector's support only, for ambients too large to
build.  Every built matrix is applied to a stack of vectors by one
product with their rows.  A system holds no matrix.  ``_degrees`` owns
the reference faces: it builds each degree's once, hands them to that
degree's condition blocks and to the next degree's identity rows, and
drops them after that.  ``compute_theta`` sums each degree's into its
boundary, and the ``ThetaComplex`` keeps the boundaries.  The boundary of
theta has one representation, ``boundary_image_rows``: the images of a
basis in theta_{n-1} coordinates, which the ranks, the cycles and the
induced maps all read; no ambient image of a basis is kept.
``homology()`` ranks them with the coordinates that d_{n-1} d_n = 0 makes
redundant deleted.
"""

from __future__ import annotations

from itertools import islice
from operator import ne

from .config import DEFAULT_CAPS
from .errors import InternalCheckError, ValidationError
from .linalg import (
    Blocks,
    Matrix,
    Subspace,
    kernel_of_rows_raw,
    rank,
    rank_and_basis_rows,
)

__all__ = [
    "LambdaSystem",
    "ThetaComplex",
    "compute_theta",
    "validate_subcomplex",
    "LambdaMorphism",
    "check_lambda_morphism",
    "induced_theta_map",
    "maximality_probe",
    "label_json",
]


def label_json(lab):
    """Face-candidate labels (nested tuples of ints) as JSON-ready lists."""
    if isinstance(lab, tuple):
        return [label_json(x) for x in lab]
    return lab


class LambdaSystem:
    """Graded spaces with families of candidate face maps.

    ``labels[(n, i)]`` lists the candidates at position i in degree n, the
    first one being the reference.  ``column_fn(n, i, lab, codes)`` returns
    the nonzero columns of that candidate at a list of basis codes, as
    ``(code, offset, terms)``: the column holds v in row offset + p for each
    ``(p, v)`` in terms, and a code with a zero column is left out.
    A system holds no matrix: every face is built when asked for.
    """

    def __init__(self, field, max_degree: int, dims, labels: dict,
                 column_fn, label: str = ""):
        if max_degree < 0:
            raise ValidationError("max_degree must be nonnegative", max_degree=max_degree)
        dims = tuple(int(d) for d in dims)
        if len(dims) != max_degree + 1:
            raise ValidationError(
                "dims must cover degrees 0..max_degree",
                expected=max_degree + 1, got=len(dims),
            )
        for n in range(1, max_degree + 1):
            for i in range(n + 1):
                labs = labels.get((n, i))
                if not labs:
                    raise ValidationError("empty candidate set", degree=n, position=i)
                if len(set(labs)) != len(labs):
                    raise ValidationError("duplicate candidate labels", degree=n, position=i)
        self.field = field
        self.max_degree = max_degree
        self.dims = dims
        self.labels = labels
        self.column_fn = column_fn
        self.label = label

    def face_matrix(self, n: int, i: int, lab=None) -> Matrix:
        """The candidate's matrix, the reference one by default, built
        whole from its columns at every basis code."""
        if lab is None:
            lab = self.labels[(n, i)][0]
        rows = [{} for _ in range(self.dims[n - 1])]
        for x, offset, terms in self.column_fn(n, i, lab, range(self.dims[n])):
            for p, v in terms:
                rows[offset + p][x] = v
        return Matrix(self.field, self.dims[n - 1], self.dims[n], rows)

    def apply_face(self, n: int, i: int, lab, vec: dict) -> dict:
        """Image of a vector, from the columns at its support only; no
        matrix is built."""
        out: dict = {}
        for x, offset, terms in self.column_fn(n, i, lab, vec):
            self.field.axpy_row(out, {offset + p: v for p, v in terms}, vec[x])
        return out

    def apply_boundary(self, n: int, vec: dict) -> dict:
        # goes through apply_face so huge ambients with sparse vectors
        # never force a full matrix build
        f = self.field
        out: dict = {}
        sign = f.one
        for i in range(n + 1):
            img = self.apply_face(n, i, self.labels[(n, i)][0], vec)
            if img:
                f.axpy_row(out, img, sign)
            sign = f.neg(sign)
        return out

    def truncate(self, max_degree: int) -> "LambdaSystem":
        """The system on degrees 0..max_degree, with their dims and
        candidates and this system's ``column_fn``, whose compiled recipes
        and product tables it shares."""
        labels = {k: labs for k, labs in self.labels.items() if k[0] <= max_degree}
        return LambdaSystem(self.field, max_degree, self.dims[:max_degree + 1],
                            labels, self.column_fn, self.label)

    def check_caps(self, caps=DEFAULT_CAPS) -> None:
        for n, d in enumerate(self.dims):
            caps.check_ambient_dim(n, d)
        for (n, i), labs in self.labels.items():
            caps.check_index_size(n, i, len(labs))

    def __repr__(self):
        tag = self.label or "system"
        return f"LambdaSystem({tag}, dims={list(self.dims)})"


# ---------------------------------------------------------------------------
# the maximal subcomplex
# ---------------------------------------------------------------------------


def _degrees(system: LambdaSystem, subspaces: list[Subspace]):
    """Yield ``(n, faces, blocks)`` for each degree n >= 1: its reference
    faces d_0..d_n and its condition blocks relative to ``subspaces[n-1]``,
    read when ``_degrees`` resumes to yield degree n: the caller appends
    each degree's subspace before it asks for the next.

    Each degree's reference faces are built once, here, and reach its own
    blocks and the next degree's identity rows; the degree after that no
    longer holds them.
    """
    lower: list[Matrix] = []
    for n in range(1, system.max_degree + 1):
        faces = [system.face_matrix(n, i) for i in range(n + 1)]
        yield n, faces, _condition_blocks(system, n, subspaces[n - 1], faces, lower)
        lower = faces


def _condition_blocks(system: LambdaSystem, n: int, lower: Subspace,
                      faces: list[Matrix], lower_faces: list[Matrix]):
    """Yield ``(reason, rows)`` for each block of conditions in degree n.

    ``faces`` are degree n's reference faces and ``lower_faces`` degree
    n-1's.  The rows of a block vanish on a vector exactly when it
    satisfies that condition, so a unit vector e_f breaks the block exactly
    when column f of its rows is nonzero.  Blocks come in a fixed order:
    agreement d_i^a - d_i^ref by (i, candidate), then closure (projector
    killing ``lower``) . d_i^ref by i, then identities d_i d_j - d_{j-1}
    d_i on reference faces by (j, i).
    """
    f = system.field
    minus_one = f.neg(f.one)
    for i in range(n + 1):
        labs = system.labels[(n, i)]
        for lab in labs[1:]:
            rows = system.face_matrix(n, i, lab).rows
            for row, ref in zip(rows, faces[i].rows):
                f.axpy_row(row, ref, minus_one)
            yield ({"condition": "agreement", "position": i,
                    "candidate": label_json(lab)}, [r for r in rows if r])
    if not lower.is_full:
        proj = lower.complement_projector()
        for i, face in enumerate(faces):
            prod = proj.mul(face)
            yield {"condition": "closure", "position": i}, [r for r in prod.rows if r]
        del proj, prod  # not kept alive through the identity products
    if n < 2:
        return
    for j in range(1, n + 1):
        for i in range(j):
            left = lower_faces[i].mul(faces[j])
            right = lower_faces[j - 1].mul(faces[i])
            if left == right:
                continue
            for lrow, rrow in zip(left.rows, right.rows):
                f.axpy_row(lrow, rrow, minus_one)
            yield {"condition": "identity", "positions": [i, j]}, [r for r in left.rows if r]


def compute_theta(system: LambdaSystem, caps=DEFAULT_CAPS,
                  canonical: bool = False) -> "ThetaComplex":
    """The unique maximal subcomplex, degree by degree.

    The system is checked against ``caps`` first.  Each degree is the
    kernel of the agreement/closure/identity rows relative to the degree
    below (degree 0 has none), their blocks eliminated as
    ``_condition_blocks`` yields them.  Each kernel's
    basis is the one its elimination reads off (``kernel_of_rows_raw``):
    with ``canonical``, for a caller that emits the bases, already the
    reduced echelon basis; otherwise the kernel-shaped one, which is
    sparser to rank and canonicalized only if asked.  A degree with no
    conditions is the whole space, its identity basis marked canonical
    either way, so emitting it eliminates nothing.  Once degree n's
    kernel is found, its reference faces are summed into its boundary,
    which the complex keeps; the faces are dropped with the next degree.
    """
    system.check_caps(caps)
    f = system.field
    subspaces = [kernel_of_rows_raw(f, [], system.dims[0])]
    boundaries = [Matrix(f, 0, system.dims[0], [])]
    for n, faces, blocks in _degrees(system, subspaces):
        subspaces.append(kernel_of_rows_raw(
            f, Blocks(rows for _, rows in blocks), system.dims[n], canonical))
        rows = [{} for _ in range(system.dims[n - 1])]
        sign = f.one
        for face in faces:
            for acc, frow in zip(rows, face.rows):
                f.axpy_row(acc, frow, sign)
            sign = f.neg(sign)
        boundaries.append(Matrix(f, system.dims[n - 1], system.dims[n], rows))
    return ThetaComplex(system, subspaces, boundaries)


class ThetaComplex:
    """The computed maximal subcomplex with its boundary structure:
    ``boundaries[n]`` is the ambient boundary d_n, the alternating sum of
    the reference faces (d_0 the zero map), which every reader of the
    boundary takes from here."""

    def __init__(self, system: LambdaSystem, subspaces: list[Subspace],
                 boundaries: list[Matrix]):
        self.system = system
        self.subspaces = subspaces
        self.boundaries = boundaries
        self._ranks: list[int] | None = None

    @property
    def max_degree(self) -> int:
        return self.system.max_degree

    def dim(self, n: int) -> int:
        return self.subspaces[n].dim

    def dims(self) -> list[int]:
        return [s.dim for s in self.subspaces]

    def boundary_image_rows(self, n: int) -> list[dict]:
        """The boundary images of theta_n's basis rows in theta_{n-1}
        coordinates, computed on each call and not kept.

        The reference faces compute the boundary, as all candidates agree
        on theta.  Theta is closed under it (``compute_theta``'s closure
        rows), so an image lies in theta_{n-1}, whose basis is an identity
        pattern at its pivots: the image's entries there are its
        coefficients.  A row is the basis row times the transpose of the
        boundary's rows at those pivots, keyed by ambient column.
        """
        bnd = self.boundaries[n]
        keep = set(self.subspaces[n - 1].pivots)
        picked = [r if p in keep else {} for p, r in enumerate(bnd.rows)]
        at_pivots = Matrix(bnd.field, bnd.nrows, bnd.ncols, picked)
        return self.subspaces[n].basis.mul(at_pivots.transpose()).rows

    def check_boundary_squares_to_zero(self, n: int | None = None) -> None:
        """Exact check that the boundary composes to zero: from degree ``n``
        to n-2, or in every degree when called without arguments.

        A zero product certifies the degree; otherwise the first nonzero
        row of basis . square^T names the basis row it does not kill.
        """
        bnd = self.boundaries
        for n in range(2, self.max_degree + 1) if n is None else range(max(n, 2), n + 1):
            square = bnd[n - 1].mul(bnd[n])
            if not square.is_zero():
                _fail_at_first(_images(square, self.subspaces[n].basis.rows),
                               "boundary does not square to zero", n)

    def homology(self) -> dict:
        """Per-degree dims, boundary ranks, and betti numbers.

        Degree N is excluded: under truncation the incoming boundary at the
        top degree is unknown, so the report is valid up to N-1.  The ranks
        are computed once, degree by degree, each after the check that the
        boundary squares to zero in its degree; each call returns a fresh
        report.

        Each rank is that of ``boundary_image_rows(n)``: restricting
        theta_{n-1} to its pivots is injective, so it is the rank of the
        ambient images.  The columns at P are deleted first, P the pivots
        of the theta_{n-1} basis rows that the rank of d_{n-1} names as a
        basis of its images (``rank_and_basis_rows``; none when it
        eliminated the rows).  Checked in degree n, d_{n-1} d_n = 0 says
        that a coefficient vector c of an image has sum_j c_j d_{n-1}(b_j)
        = 0, and each d_{n-1}(b_j) is a combination of those at P, so c at
        P is a function of c outside P: the deletion keeps the rank.  The
        matrix keeps the ambient column count, and no name holds it, so the
        images are freed once they have been copied and are not kept
        through the elimination.
        """
        f = self.system.field
        n_max = self.max_degree
        if self._ranks is None:
            ranks = [0] * (n_max + 2)
            cut = ()
            for n in range(1, n_max + 1):
                self.check_boundary_squares_to_zero(n)
                ranks[n], rows = rank_and_basis_rows(
                    Matrix(f, self.dim(n), self.system.dims[n - 1],
                           self.boundary_image_rows(n)), cut)
                pivots = self.subspaces[n].pivots
                cut = {pivots[r] for r in rows}
            self._ranks = ranks
        ranks = self._ranks
        entries = []
        for n in range(n_max):
            dim_n = self.dim(n)
            betti = dim_n - ranks[n] - ranks[n + 1]
            if betti < 0:
                raise InternalCheckError(
                    "negative betti", degree=n, dim=dim_n,
                    rank_in=ranks[n], rank_out=ranks[n + 1],
                )
            entries.append({
                "n": n,
                "dim_theta": dim_n,
                "rank_d_n": ranks[n],
                "rank_d_n_plus_1": ranks[n + 1],
                "betti": betti,
            })
        return {
            "field": f.to_json(),
            "system": self.system.label,
            "max_degree": n_max,
            "valid_up_to": n_max - 1,
            "entries": entries,
        }

    def to_json(self, emit_bases: bool = False) -> dict:
        """The dims, and with ``emit_bases`` each degree's canonical basis,
        which from then on replaces the kernel-shaped one."""
        out = {
            "field": self.system.field.to_json(),
            "system": self.system.label,
            "max_degree": self.max_degree,
            "ambient_dims": list(self.system.dims),
            "theta_dims": self.dims(),
        }
        if emit_bases:
            subspaces = self.subspaces
            for n, sub in enumerate(subspaces):
                subspaces[n] = sub.canonicalize()    # one basis per degree
            out["bases"] = [sub.to_json() for sub in subspaces]
        return out


# ---------------------------------------------------------------------------
# validation of candidate subcomplexes
# ---------------------------------------------------------------------------


def validate_subcomplex(system: LambdaSystem, candidates: list[Subspace]) -> dict:
    """Check conditions (i)-(iii) on candidate subspaces, vector by vector.

    The report is empty exactly when the candidate is a genuine subcomplex;
    otherwise it lists the first ten violations, in the order of
    ``_violations``, with the offending degree, positions, and basis index.
    """
    if len(candidates) != system.max_degree + 1:
        raise ValidationError(
            "candidate subspaces must cover degrees 0..max_degree",
            expected=system.max_degree + 1, got=len(candidates),
        )
    for n, sub in enumerate(candidates):
        if sub.ambient_dim != system.dims[n]:
            raise ValidationError(
                "candidate ambient mismatch",
                degree=n, ambient=sub.ambient_dim, expected=system.dims[n],
            )
    violations = list(islice(_violations(system, candidates), 10))
    return {"valid": not violations, "violations": violations}


def _violations(system: LambdaSystem, candidates: list[Subspace]):
    """Each condition a candidate basis vector breaks, in report order: per
    degree, by position and basis index the agreement candidates and then
    closure, after them the identities by (j, i, basis index).

    Faces are applied to each vector, never built as matrices, since
    witness spans live in ambients far too large for that.
    """
    def ref(n, i, vec):
        return system.apply_face(n, i, system.labels[(n, i)][0], vec)

    for n in range(1, system.max_degree + 1):
        basis = candidates[n].basis.rows
        for i in range(n + 1):
            labs = system.labels[(n, i)]
            for idx, w in enumerate(basis):
                base_img = ref(n, i, w)
                for lab in labs[1:]:
                    if system.apply_face(n, i, lab, w) != base_img:
                        yield {"condition": "agreement", "degree": n,
                               "position": i, "candidate": label_json(lab),
                               "basis_index": idx}
                if not candidates[n - 1].contains(base_img):
                    yield {"condition": "closure", "degree": n,
                           "position": i, "basis_index": idx}
        if n < 2:
            continue
        for j in range(1, n + 1):
            for i in range(j):
                for idx, w in enumerate(basis):
                    if ref(n - 1, i, ref(n, j, w)) != ref(n - 1, j - 1, ref(n, i, w)):
                        yield {"condition": "identity", "degree": n,
                               "positions": [i, j], "basis_index": idx}


# ---------------------------------------------------------------------------
# morphisms and induced maps
# ---------------------------------------------------------------------------


class LambdaMorphism:
    """Degreewise linear maps from one system to another.

    The defining property: every candidate face of the *target* composed
    with the map equals the map composed with some candidate face of the
    *source* (checked by ``check_lambda_morphism``).
    """

    def __init__(self, source: LambdaSystem, target: LambdaSystem,
                 matrices: list[Matrix]):
        if source.field != target.field:
            raise ValidationError("systems live over different fields")
        depth = min(source.max_degree, target.max_degree)
        if len(matrices) < depth + 1:
            raise ValidationError(
                "need a matrix per degree", expected=depth + 1, got=len(matrices)
            )
        for n in range(depth + 1):
            m = matrices[n]
            if m.ncols != source.dims[n] or m.nrows != target.dims[n]:
                raise ValidationError(
                    "morphism matrix shape mismatch", degree=n,
                    shape=[m.nrows, m.ncols],
                    expected=[target.dims[n], source.dims[n]],
                )
        self.source = source
        self.target = target
        self.matrices = matrices[: depth + 1]
        self.max_degree = depth

    @classmethod
    def identity(cls, source: LambdaSystem, target: LambdaSystem) -> "LambdaMorphism":
        if source.dims != target.dims:
            raise ValidationError("identity morphism needs equal dims")
        depth = min(source.max_degree, target.max_degree)
        mats = [Matrix.identity(source.field, source.dims[n]) for n in range(depth + 1)]
        return cls(source, target, mats)

    def compose(self, earlier: "LambdaMorphism") -> "LambdaMorphism":
        """self after earlier (earlier's target must be self's source)."""
        if earlier.target is not self.source and earlier.target.dims != self.source.dims:
            raise ValidationError("composition endpoint mismatch")
        depth = min(self.max_degree, earlier.max_degree)
        mats = [self.matrices[n].mul(earlier.matrices[n]) for n in range(depth + 1)]
        return LambdaMorphism(earlier.source, self.target, mats)


def check_lambda_morphism(mor: LambdaMorphism) -> dict:
    """Certify the intertwining property, recording the matched candidates.

    For each degree, position, and target candidate the first source
    candidate achieving matrix equality is recorded; failures list target
    candidates with no match, and the check stops at the fifth.  Every face
    is built for the comparison and dropped with its position.
    """
    assignments = []
    failures = []
    for n in range(1, mor.max_degree + 1):
        f_n = mor.matrices[n]
        f_prev = mor.matrices[n - 1]
        for i in range(n + 1):
            rhs_cache = {}
            for alpha in mor.target.labels[(n, i)]:
                lhs = mor.target.face_matrix(n, i, alpha).mul(f_n)
                found = None
                for beta in mor.source.labels[(n, i)]:
                    rhs = rhs_cache.get(beta)
                    if rhs is None:
                        rhs = f_prev.mul(mor.source.face_matrix(n, i, beta))
                        rhs_cache[beta] = rhs
                    if lhs == rhs:
                        found = beta
                        break
                if found is None:
                    failures.append({
                        "degree": n, "position": i, "target_candidate": label_json(alpha),
                    })
                    if len(failures) == 5:
                        return {"ok": False, "assignments": assignments,
                                "failures": failures}
                else:
                    assignments.append({
                        "degree": n, "position": i,
                        "target_candidate": label_json(alpha),
                        "source_candidate": label_json(found),
                    })
    return {"ok": not failures, "assignments": assignments, "failures": failures}


def homology_quotients(theta: ThetaComplex, up_to: int) -> list[list[dict]]:
    """Cycle rows of degrees 0..up_to (inclusive), in ambient coordinates.

    Degree 0 is the whole basis.  Above it the cycles are the kernel of the
    boundary images (``boundary_image_rows``, injective on theta_{n-1}) on
    the basis coefficients, mapped back onto the basis once.
    """
    f = theta.system.field
    out = [list(theta.subspaces[0].basis.rows)]
    for n in range(1, up_to + 1):
        basis = theta.subspaces[n].basis
        img = theta.boundary_image_rows(n)
        columns = Matrix(f, len(img), theta.system.dims[n - 1], img).transpose()
        coeffs = kernel_of_rows_raw(f, columns.rows, basis.nrows).basis
        out.append(coeffs.mul(basis).rows)
    return out


def _images(m: Matrix, rows: list[dict]) -> list[dict]:
    """The images under m of the vectors held as rows V: the rows of V . m^T."""
    return Matrix(m.field, len(rows), m.ncols, rows).mul(m.transpose()).rows


def _fail_at_first(failed, message: str, degree: int) -> None:
    """Raise naming the degree and the index of the first true flag."""
    idx = next((idx for idx, bad in enumerate(failed) if bad), None)
    if idx is not None:
        raise InternalCheckError(message, degree=degree, basis_index=idx)


def induced_theta_map(mor: LambdaMorphism, theta_src: ThetaComplex,
                      theta_tgt: ThetaComplex) -> dict:
    """Restrict a certified morphism to the subcomplexes and to homology.

    Verifies degree by degree, lowest first, by row products in ambient
    coordinates that assume no closure: the rows of B_n . F_n^T (B_n the
    source basis, F_n the map) lie in the target subcomplex, and the rows
    of (B_n . D_n^T) . F_{n-1}^T (D_n the source's boundary) equal those of
    (B_n . F_n^T) . d_n^T (d_n the target's).  A failure names the degree
    and the first basis row; an escape signals a broken certificate.  The
    image of H_n is (f(Z_src) + B_tgt) / B_tgt, so its rank is the rank of
    the rows of Z_n . F_n^T (Z_n the source cycles) at the target's theta_n
    pivots, stacked on the target's ``boundary_image_rows(n + 1)``, minus
    the target's rank of d_{n+1}.
    """
    depth = min(mor.max_degree, theta_src.max_degree, theta_tgt.max_degree)
    f = mor.source.field
    table_src = theta_src.homology()["entries"]
    table_tgt = theta_tgt.homology()["entries"]
    for n in range(depth + 1):
        basis = theta_src.subspaces[n].basis.rows
        img = _images(mor.matrices[n], basis)
        tgt = theta_tgt.subspaces[n]
        _fail_at_first((not tgt.contains(v) for v in img),
                       "morphism image escapes the target subcomplex", n)
        if n:
            via_src = _images(mor.matrices[n - 1],
                              _images(theta_src.boundaries[n], basis))
            via_tgt = _images(theta_tgt.boundaries[n], img)
            _fail_at_first(map(ne, via_src, via_tgt),
                           "morphism does not commute with the boundary", n)
    img = via_src = via_tgt = None     # not held through the ranks
    valid = depth - 1
    report = {
        "max_degree": depth,
        "valid_up_to": valid,
        "homology_maps": [],
    }
    if valid >= 0:
        cycles = homology_quotients(theta_src, valid)
        for n in range(valid + 1):
            keep = set(theta_tgt.subspaces[n].pivots)
            rows = [{c: v for c, v in row.items() if c in keep}
                    for row in _images(mor.matrices[n], cycles[n])]
            rows.extend(theta_tgt.boundary_image_rows(n + 1))
            stacked = Matrix(f, len(rows), theta_tgt.system.dims[n], rows)
            r = rank(stacked) - table_tgt[n]["rank_d_n_plus_1"]
            b_src = table_src[n]["betti"]
            b_tgt = table_tgt[n]["betti"]
            report["homology_maps"].append({
                "n": n,
                "source_betti": b_src,
                "target_betti": b_tgt,
                "rank": r,
                "isomorphism": r == b_src == b_tgt,
            })
    return report


# ---------------------------------------------------------------------------
# maximality probe
# ---------------------------------------------------------------------------


def maximality_probe(theta: ThetaComplex) -> dict:
    """Certify maximality per degree from the condition blocks.

    Every standard basis vector e_f of a complement of the computed subspace
    must violate agreement, closure, or an identity: e_f breaks the first
    block of ``_condition_blocks`` whose rows are nonzero in column f, so
    one pass over the blocks names the reason of every f.  Re-running the
    fixed-point computation must also reproduce the subspaces verbatim.
    """
    system = theta.system
    report = {"degrees": [], "recomputation_identical": None}
    for n, _, blocks in _degrees(system, theta.subspaces):
        first: dict = {}
        for reason, rows in blocks:
            for row in rows:
                for c in row:
                    first.setdefault(c, reason)
        entries = [{"coordinate": fc, "violates": first.get(fc)}
                   for fc in theta.subspaces[n].complement_free_coords()]
        report["degrees"].append({
            "n": n,
            "complement_dim": len(entries),
            "all_violate": all(e["violates"] for e in entries),
            "entries": entries,
        })
    again = compute_theta(system)
    report["recomputation_identical"] = all(
        a == b for a, b in zip(theta.subspaces, again.subspaces)
    )
    report["ok"] = report["recomputation_identical"] and all(
        d["all_violate"] for d in report["degrees"]
    )
    return report
