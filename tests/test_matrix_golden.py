"""Golden digests of the matrix-extension tables.

Each case hashes ``json.dumps(payload, sort_keys=True)`` where the payload
holds the spec (``conftest.algebra_to_json``) of M_l(A), that of M_l(M)
(``conftest.bimodule_to_json``) and the
``to_entries()`` of both corner embeddings, for A the upper-triangular 2x2
algebra (not commutative) and M either its regular bimodule (not symmetric)
or the explicit two-dimensional bimodule below, over Q and F_7 at sizes 1
to 3.  The digests pin the basis order (row, col, inner index) and the
product tables entry by entry; any rewrite of the builders must reproduce
them exactly.
"""

import hashlib
import json

import pytest

from lambda_homology.algebras import (
    Bimodule,
    bimodule_from_json,
    matrix_algebra,
    matrix_bimodule,
    upper_triangular_2x2,
)
from lambda_homology.fields import RATIONALS, PrimeField

from conftest import algebra_to_json, bimodule_to_json

FIELDS = {"Q": RATIONALS, "F7": PrimeField(7)}

# Column vectors v0, v1 with the upper-triangular algebra (basis e11, e12,
# e22) acting on the left by e11 v0 = v0, e12 v1 = 2 v0, e22 v1 = v1, and
# on the right through the character e11 -> 1: not the regular bimodule,
# and a.m != m.a.
COLUMN_BIMODULE = {
    "dim": 2,
    "left": [[0, 0, 0, "1"], [1, 1, 0, "2"], [2, 1, 1, "1"]],
    "right": [[0, 0, 0, "1"], [1, 0, 1, "1"]],
    "label": "column",
}

GOLDEN = {
    ("regular", "Q", 1):
        "1339e6faeb5d8a2d47fc05f1cb4ad231821c38c5da1a9aea3e613877b2a1efbb",
    ("regular", "Q", 2):
        "42428b270c022fc555d5d784e713e0443fe2be828cdf38001be2fef2e01cffcd",
    ("regular", "Q", 3):
        "21c3be5b303735d35828c07fa2a5869b7c839f11f0afd9f8b9b471d39867ac68",
    ("regular", "F7", 1):
        "64313ecc08825fc33804f1fd74f8363232caa6062cc32e2a47a524349367542d",
    ("regular", "F7", 2):
        "a13a5c5894a67e02e696cfa00856a91baf63b7eedfba32285f83692b52284b2e",
    ("regular", "F7", 3):
        "3289b54274c26a39479b14d4743d4a96c1008ad182c04ae4b86099718dceb055",
    ("column", "Q", 1):
        "7595d77be590f4a8f82bfd61761c6a423af12fa733cf5f8e865b73d5c842978d",
    ("column", "Q", 2):
        "771e22aa6b3fd61ae0dae76a93e60089099b204e3c39187ab41ffee965e211ae",
    ("column", "Q", 3):
        "f468f222fc8d8067b50fe9ebcbb7934d8708ba5d3b30d2988ed849726373cf89",
    ("column", "F7", 1):
        "eef94800a8e4f81dc9236523ac623e2fa7c1b2774749d2718e9cb55e36951403",
    ("column", "F7", 2):
        "b522f11acac7a6c6dc4e5858867b320574ebfbc1b457a6313419a6586acf5484",
    ("column", "F7", 3):
        "937e1599a8a6970ad20516d4bcc898ba7a0348aaf2e521f624f982ecb5e9b27e",
}


def _payload(module: str, field_name: str, size: int) -> dict:
    a = upper_triangular_2x2(FIELDS[field_name])
    if module == "regular":
        m = Bimodule.regular(a)
    else:
        m = bimodule_from_json(COLUMN_BIMODULE, over=a)
    big, corner_alg = matrix_algebra(a, size)
    bigmod, corner_mod = matrix_bimodule(big, m, size)
    return {
        "algebra": algebra_to_json(big),
        "bimodule": bimodule_to_json(bigmod),
        "corner_algebra": corner_alg.matrix.to_entries(),
        "corner_module": corner_mod.to_entries(),
    }


def _digest(case) -> str:
    payload = json.dumps(_payload(*case), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_matrix_extension_digest(case):
    assert _digest(case) == GOLDEN[case]


def test_column_bimodule_is_not_symmetric():
    a = upper_triangular_2x2(RATIONALS)
    m = bimodule_from_json(COLUMN_BIMODULE, over=a)
    assert not m.is_symmetric()
    assert not Bimodule.regular(a).is_symmetric()
