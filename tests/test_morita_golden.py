"""Golden digests of the matrix-extension comparison, ``morita_report``.

Each case hashes ``json.dumps(report, sort_keys=True)`` for the ground
field k or k[x]/(x^2) with its regular bimodule, over Q, F_5 or F_7, at
matrix size 2 or 3 and depth 2 or 3.  The reports hold the four homology
tables, the morphism certificates and the ranks of the induced maps,
including the circle-to-classical maps whose ranks fall below the Betti
numbers of the matrix-level circle.  The digests were recorded from the
implementation that computed the induced maps through quotient bases of
the cycle kernels; any rewrite must reproduce them exactly.
"""

import hashlib
import json

import pytest

from lambda_homology.algebras import (
    Bimodule,
    ground_field_algebra,
    truncated_polynomial_algebra,
)
from lambda_homology.constructions import morita_report
from lambda_homology.fields import RATIONALS, PrimeField

FIELDS = {"Q": RATIONALS, "F5": PrimeField(5), "F7": PrimeField(7)}

GOLDEN = {
    ("k", "Q", 2, 3):
        "9daa6c9b9b3bb1db818d0e0193194e453608f1a7bc4436b891d2c7217e53a666",
    ("k", "Q", 3, 2):
        "464435effb3e2aadaa9b399cc1f3e6de83e5faee7dc673385c8301e41a88313e",
    ("dual", "Q", 2, 2):
        "92ea63dd6f1a40ff600d3c2c5fadc4c295e5228e7f84e276047c65526d89b043",
    ("dual", "Q", 2, 3):
        "26e224625365ac57336a39bbd22ef800f582eecefc0e566534512beaea0165d8",
    ("dual", "F5", 2, 2):
        "544a9a2927c0e3002bb2e38638ed472822ba5577dc3850d183fb7de904d4040e",
    ("k", "F7", 3, 2):
        "31194c50c0b6a3a6cb65f6f3cc7ee9b6195e9670361a3f7cd6303b205daba2bd",
}


def _algebra(field, name):
    if name == "k":
        return ground_field_algebra(field)
    assert name == "dual"
    return truncated_polynomial_algebra(field, 2)


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_morita_report_digest(case):
    name, field_name, size, depth = case
    a = _algebra(FIELDS[field_name], name)
    report = morita_report(a, Bimodule.regular(a), size, depth)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN[case]
