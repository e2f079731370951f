"""Golden digests of every candidate face matrix of the shipped constructions.

Each case hashes, in (degree, position, candidate) order, the label and
``to_entries()`` of every candidate face matrix, not only the reference
ones.  The algebras are the upper-triangular 2x2 matrices on their matrix
units and the same algebra on the basis u0 = e11 + e22, u1 = (e11 + e12)/2,
u2 = e12 + e22, where u1 u2 = -u0/2 + u1 + u2/2: basis products with several
terms and non-integral constants.  The digests were recorded from the face
evaluation that multiplied each column's factors with ``Algebra.multiply``;
any faster evaluation must reproduce them exactly.  The two-sphere cases
hash the sorted candidate matrices without their labels, since those are
the fiber orderings of the simplicial engine on Delta^2/dDelta^2; the
digests were recorded from the hand-written triangular system it replaced.
"""

import hashlib
import json
import random

import pytest

from lambda_homology.algebras import (
    Bimodule,
    algebra_from_json,
    ground_field_algebra,
    morphism_from_json,
    upper_triangular_2x2,
)
from lambda_homology.constructions import (
    higher_hochschild_system,
    hochschild_system,
    loday_chain,
    secondary_system,
    sphere2_system,
)
from lambda_homology.fields import RATIONALS, PrimeField
from lambda_homology.linalg import Matrix
from lambda_homology.simplicial import circle
from lambda_homology.systems import label_json

from oracles import columns

FIELDS = {"Q": RATIONALS, "F7": PrimeField(7)}
CONSTRUCTIONS = ("classical", "circle", "sphere2", "secondary_unit",
                 "secondary_twist")

TWISTED = {
    "dim": 3, "unit": ["1", "0", "0"],
    "mult": [
        [0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"], [1, 0, 1, "1"],
        [1, 1, 1, "1/2"], [1, 2, 0, "-1/2"], [1, 2, 1, "1"], [1, 2, 2, "1/2"],
        [2, 0, 2, "1"], [2, 2, 2, "1"],
    ],
}
# the matrix units written in the twisted basis: an isomorphism whose
# columns have several terms
TWIST = {"matrix": [
    [0, 0, "1/2"], [1, 0, "1"], [2, 0, "-1/2"], [0, 1, "-1/2"], [1, 1, "1"],
    [2, 1, "1/2"], [0, 2, "1/2"], [1, 2, "-1"], [2, 2, "1/2"],
]}
IDENTITY = {"matrix": [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"]]}


def _algebras(field, kind):
    """(A, B, eps: B -> A) with B the upper-triangular matrix units."""
    upper = upper_triangular_2x2(field)
    if kind == "upper":
        return upper, upper, morphism_from_json(IDENTITY, upper, upper)
    twisted = algebra_from_json(TWISTED, field=field)
    return twisted, upper, morphism_from_json(TWIST, upper, twisted)


def build(field_name, kind, construction):
    field = FIELDS[field_name]
    a, b, eps = _algebras(field, kind)
    m = Bimodule.regular(a)
    if construction == "classical":
        return hochschild_system(a, m, 3)
    if construction == "circle":
        return higher_hochschild_system(a, m, circle(3))
    if construction == "sphere2":
        return sphere2_system(a, m, 3)
    if construction == "secondary_unit":
        k = ground_field_algebra(field)
        return secondary_system(a, k, morphism_from_json("unit", k, a), 3)
    assert construction == "secondary_twist"
    return secondary_system(a, b, eps, 2)


def face_digest(system) -> str:
    h = hashlib.sha256()
    for n in range(1, system.max_degree + 1):
        for i in range(n + 1):
            for lab in system.labels[(n, i)]:
                entries = system.face_matrix(n, i, lab).to_entries()
                h.update(json.dumps([n, i, label_json(lab), entries]).encode())
    return h.hexdigest()


def sorted_face_digest(system) -> str:
    """Label-free: per (degree, position), the sorted ``to_entries()`` of
    every candidate face matrix, so neither the labels nor the candidate
    order enter the digest."""
    h = hashlib.sha256()
    for n in range(1, system.max_degree + 1):
        for i in range(n + 1):
            mats = sorted(system.face_matrix(n, i, lab).to_entries()
                          for lab in system.labels[(n, i)])
            h.update(json.dumps([n, i, mats]).encode())
    return h.hexdigest()


# the candidate matrices of the two-sphere system, whatever their labels
# and order
SORTED_GOLDEN = {
    "F7/twisted/sphere2":
        "405cc7d57cf433ed454c248e94fa3d2909c71dcef1199640027becf3106eccea",
    "F7/upper/sphere2":
        "4126fb9f67ec178fb46c86c52de0f71557497a94e2f76105b141089c321845e6",
    "Q/twisted/sphere2":
        "d56f779966c15408ba2ad178fcd70fb686488f85e876fd2fb64330c3d7e4ff6f",
    "Q/upper/sphere2":
        "4126fb9f67ec178fb46c86c52de0f71557497a94e2f76105b141089c321845e6",
}


GOLDEN = {
    "F7/twisted/classical":
        "c5261a7dc214bf29abd01b8a943685b161655d8339652ec173c7444df7c2b4b3",
    "F7/twisted/circle":
        "3850abf022ca4a59f2f9bd35ca9f3a84b7eca45130ba440e4cbba599ad37971d",
    "F7/twisted/sphere2":
        "405cc7d57cf433ed454c248e94fa3d2909c71dcef1199640027becf3106eccea",
    "F7/twisted/secondary_unit":
        "a8aca31f5cbce1da98d668fb4432630268f7194bd8520e653c9ecb59a039318b",
    "F7/twisted/secondary_twist":
        "cb66a55b669a5e3b86bfd5bedc256866a05c550f58dbad0c143851445c531039",
    "F7/upper/classical":
        "73a3a66e5980889cffdcb998e24c39bf1e6027265f9d29773b8428d648256ae4",
    "F7/upper/circle":
        "9d3051e6bbfdeaa9e008e817a01dd8919e02e64ddc494e7e014189f73761f248",
    "F7/upper/sphere2":
        "4126fb9f67ec178fb46c86c52de0f71557497a94e2f76105b141089c321845e6",
    "F7/upper/secondary_unit":
        "a71e564185f92f4eba9c7ce1506e56adf8d5786792c155fc294bc04db5cb6631",
    "F7/upper/secondary_twist":
        "d813edb44890d4ce813c1b7f88096bf6230a1d8a5a0dbffe24f9525df75ceb37",
    "Q/twisted/classical":
        "9fa82d875c5d1b10f32c09152a71ab8b197a600bbfa1d071afcf2550af8bd4e6",
    "Q/twisted/circle":
        "64e1607f5ed2a330ef21df9593c1b02d09477ee9a9727fc76e926aaf0285b86a",
    "Q/twisted/sphere2":
        "d56f779966c15408ba2ad178fcd70fb686488f85e876fd2fb64330c3d7e4ff6f",
    "Q/twisted/secondary_unit":
        "f36ec28e0875be5554e2514faa9341fa7032862cb2e0825014b2f77ea6d3e0d7",
    "Q/twisted/secondary_twist":
        "75c270fb356c60f9f1da69983cf9b1b9f1b405df22fd5d003fd03a2a3a35bd01",
    "Q/upper/classical":
        "73a3a66e5980889cffdcb998e24c39bf1e6027265f9d29773b8428d648256ae4",
    "Q/upper/circle":
        "9d3051e6bbfdeaa9e008e817a01dd8919e02e64ddc494e7e014189f73761f248",
    "Q/upper/sphere2":
        "4126fb9f67ec178fb46c86c52de0f71557497a94e2f76105b141089c321845e6",
    "Q/upper/secondary_unit":
        "a71e564185f92f4eba9c7ce1506e56adf8d5786792c155fc294bc04db5cb6631",
    "Q/upper/secondary_twist":
        "d813edb44890d4ce813c1b7f88096bf6230a1d8a5a0dbffe24f9525df75ceb37",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_face_digest(case):
    field_name, kind, construction = case.split("/")
    digest = sorted_face_digest if construction == "sphere2" else face_digest
    assert digest(build(field_name, kind, construction)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SORTED_GOLDEN))
def test_sorted_face_digest(case):
    field_name, kind, construction = case.split("/")
    system = build(field_name, kind, construction)
    assert sorted_face_digest(system) == SORTED_GOLDEN[case]


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_returned_columns_are_owned_by_the_caller(construction):
    system = build("Q", "twisted", construction)
    n = system.max_degree
    for i in range(n + 1):
        ref = system.face_matrix(n, i)
        entries = ref.to_entries()
        cols = columns(ref)
        for lab in system.labels[(n, i)]:
            for x in range(system.dims[n]):
                unit = {x: system.field.one}
                col = system.apply_face(n, i, lab, unit)
                expect = dict(col)
                col.clear()
                col[-1] = 7
                assert system.apply_face(n, i, lab, unit) == expect
        assert ref.to_entries() == entries
        assert columns(ref) == cols
        again = system.face_matrix(n, i)
        assert again.to_entries() == entries
        assert columns(again) == cols


def build_extra(field_name, construction, two_level):
    """The simplicial system on a truncated circle and on ``two_level``,
    whose degree-1 faces send no simplex to the extra vertex (an empty
    product: the unit), on the twisted basis; and the commutative chain,
    which needs a commutative algebra: k[x]/(x^3)."""
    field = FIELDS[field_name]
    if construction == "loday":
        a = algebra_from_json({"builtin": "truncated_polynomial", "order": 3}, field=field)
        return loday_chain(a, Bimodule.regular(a), circle(3))
    a = algebra_from_json(TWISTED, field=field)
    x = two_level if construction == "two_level" else circle(4).truncate(2)
    return higher_hochschild_system(a, Bimodule.regular(a), x)


EXTRA = ("twisted/truncated_circle", "twisted/two_level", "truncated_polynomial/loday")
EVALUATOR_CASES = sorted(GOLDEN) + [f"{f}/{c}" for f in FIELDS for c in EXTRA]


def random_vectors(rng, cols, count=3):
    """Sparse vectors with nonzero entries at a shuffled subset of the
    codes, which holds a zero column whenever the face has one."""
    codes = list(range(len(cols)))
    zero = [x for x in codes if not cols[x]]
    vecs = []
    for _ in range(count):
        support = rng.sample(codes, rng.randint(1, len(codes)))
        if zero and not any(not cols[x] for x in support):
            support.append(rng.choice(zero))
        rng.shuffle(support)
        vecs.append({x: rng.randint(1, 6) for x in support})
    return vecs


@pytest.mark.parametrize("case", EVALUATOR_CASES)
def test_whole_face_rows_equal_the_columns(case, two_level):
    """``column_fn`` evaluates a face at any list of basis codes: a built
    candidate face (every code) holds exactly the images ``apply_face``
    gives of the unit vectors (one code each), and ``apply_face`` on a
    random sparse vector (its shuffled support) is the product V . M^T.
    On the twisted basis some products have several terms and some faces
    have zero columns, and the test requires both to occur."""
    field_name, kind, construction = case.split("/")
    if construction in ("truncated_circle", "two_level", "loday"):
        system = build_extra(field_name, construction, two_level)
    else:
        system = build(field_name, kind, construction)
    field = system.field
    rng = random.Random(case)
    zero = several = 0
    for (n, i), labs in sorted(system.labels.items()):
        for lab in labs:
            face = system.face_matrix(n, i, lab)
            assert len(face.rows) == system.dims[n - 1]
            cols = face.transpose().rows
            units = [{x: field.one} for x in range(system.dims[n])]
            assert cols == [system.apply_face(n, i, lab, u) for u in units]
            vecs = random_vectors(rng, cols)
            stack = Matrix(field, len(vecs), system.dims[n], vecs)
            expect = stack.mul(face.transpose()).rows
            assert [system.apply_face(n, i, lab, v) for v in vecs] == expect
            zero += sum(not c for c in cols)
            several += sum(len(c) > 1 for c in cols)
    if kind == "twisted":
        assert zero and several
