"""Golden digests of the subcomplex checks: ``validate_subcomplex`` and
``maximality_probe``.

Each case hashes ``json.dumps(..., sort_keys=True)`` of four outputs:
``validate_subcomplex`` on the computed subcomplex, on the full spaces and
on the subcomplex with its top degree replaced by the full space, and
``maximality_probe`` on the subcomplex.  The full-space cases give more
than ten violations, so they pin the cut at ten.  The shipped systems are
the classical Hochschild complex to depth 3 and the higher Hochschild
system on ``circle(3)``.  No shipped system breaks a pre-simplicial
identity, so seeded random systems (``conftest.trivial_system``, one
candidate per position) with faces that break them
cover the identity branch.  The digests were recorded from the
implementation that checked each condition vector by vector; any
rewrite must reproduce them exactly.
"""

import hashlib
import json
import random

import pytest

from lambda_homology.algebras import (
    Bimodule,
    ground_field_algebra,
    group_algebra,
    matrix_algebra,
    truncated_polynomial_algebra,
    upper_triangular_2x2,
)
from lambda_homology.constructions import higher_hochschild_system, hochschild_system
from lambda_homology.fields import RATIONALS, PrimeField
from lambda_homology.simplicial import circle
from lambda_homology.systems import compute_theta, maximality_probe, validate_subcomplex

from conftest import full_space, matrix_of, symmetric_group_table, trivial_system

FIELDS = {"Q": RATIONALS, "F7": PrimeField(7)}
OUTPUTS = ("theta", "full", "full_top", "probe")


def _algebra(field, name):
    if name == "dual":
        return truncated_polynomial_algebra(field, 2)
    if name == "m2":
        return matrix_algebra(ground_field_algebra(field), 2)[0]
    if name == "upper":
        return upper_triangular_2x2(field)
    assert name == "s3"
    return group_algebra(field, symmetric_group_table(3), label="S3")


def random_trivial(field, seed):
    """Faces with entries in -2..2, three quarters of them zero (reduced
    mod p over F_p by ``matrix_of``)."""
    rng = random.Random(seed)
    dims = (2, 3, 4, 4)
    faces = {}
    for n in range(1, len(dims)):
        for i in range(n + 1):
            dense = [[rng.choice((0,) * 12 + (-2, -1, 1, 2))
                      for _ in range(dims[n])] for _ in range(dims[n - 1])]
            faces[(n, i)] = matrix_of(field, dense)
    return trivial_system(field, dims, faces, label=f"random{seed}")


def build(case):
    field_name, kind, arg = case.split("/")
    field = FIELDS[field_name]
    if kind == "random":
        return random_trivial(field, int(arg))
    a = _algebra(field, arg)
    m = Bimodule.regular(a)
    if kind == "classical":
        return hochschild_system(a, m, 3)
    assert kind == "circle"
    return higher_hochschild_system(a, m, circle(3))


def outputs(system) -> dict:
    f = system.field
    theta = compute_theta(system)
    full = [full_space(f, d) for d in system.dims]
    return {
        "theta": validate_subcomplex(system, theta.subspaces),
        "full": validate_subcomplex(system, full),
        "full_top": validate_subcomplex(system, theta.subspaces[:-1] + full[-1:]),
        "probe": maximality_probe(theta),
    }


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


GOLDEN = {
    "F7/circle/dual": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full_top": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "probe": "8619f723b95e52057012f75ff82f701a4aa3ea801f64a9f0e7259583d31db708",
    },
    "F7/circle/m2": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "81e56274adff2cffc9369feebbf06769c0a2d691027d64d507cdafbb8f0ca9ac",
        "full_top": "2307d685baa708ed1d98c70a42e6430bc420b6704490f92756e0b125bbf0593c",
        "probe": "3b190a251f87d06fddc0181e5c1387670f44dac58f25fc4488e17e6b8f3cd5b6",
    },
    "F7/circle/s3": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "d5747ca0dd83dd114e41fe0acbc5316b5cb8021e7cae8755c9e5f19d421377a0",
        "full_top": "d61cdb72639df28a469f22939b6c27eac612bc562ee996f709eb12d9ba7045ed",
        "probe": "254dcea1149b26ed2b8ef4c01f0113f21014845a836e68895e096b8180d21062",
    },
    "F7/circle/upper": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "61e5066d61d056223a2c550296ea147a0e2f64c3f53a6bd4b27a74766766a2ff",
        "full_top": "28dd7ba12eeae243d788fca0eb71cebd4824db555a239f08783bfafa3c2b506c",
        "probe": "d2607a45915f43c019acf014f0a9c237fa9c487f884c5e721ce70af623b883b9",
    },
    "F7/classical/dual": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full_top": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "probe": "8619f723b95e52057012f75ff82f701a4aa3ea801f64a9f0e7259583d31db708",
    },
    "F7/classical/m2": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full_top": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "probe": "8619f723b95e52057012f75ff82f701a4aa3ea801f64a9f0e7259583d31db708",
    },
    "F7/classical/s3": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full_top": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "probe": "8619f723b95e52057012f75ff82f701a4aa3ea801f64a9f0e7259583d31db708",
    },
    "F7/classical/upper": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full_top": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "probe": "8619f723b95e52057012f75ff82f701a4aa3ea801f64a9f0e7259583d31db708",
    },
    "F7/random/1": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "3c11f535facf68e6a2b6371a06ec7dd83c218a6e706a3e11a6ca4e7737148e89",
        "full_top": "15b88cbb6c7bb3f89c02dd35be755b83c3a424de18b016851a93c433fd308c92",
        "probe": "1c3db65159cb37f8d75c4888dce6f5523440a580cdf9803ffe2f57cb7506bfba",
    },
    "F7/random/2": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "320543f2acdc0cfc304e9ba1d2baa0b4610daffa97210666deda3a4503ecee4c",
        "full_top": "7d4a4ea6d3795dded26b2db12ef9bee303643edaa4ecfefb2829125490ba35f5",
        "probe": "282c395c93ba3c1b63262720a6cc3b2cde72268c895e86e98e1702082f26abdf",
    },
    "F7/random/3": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "4f00bc40eb9ded22e1da4e9bee077387b22063a84acbf842d8f27f43180bcc80",
        "full_top": "992965d56dba0c80790feb36eb2d478f2973059f76e81cad389a391f9d568af2",
        "probe": "090f2b170666326718921c6683c589a2361020554de53d556edd2b6f34437581",
    },
    "F7/random/4": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "bdc7dfeb0185850e233f46d863eb6690609c33d69e4a98eea5462a42e4d35be9",
        "full_top": "e38efd1f129e882b84f2b32d3229470eae7fd992acab4f8428fcee66a4a2d2e4",
        "probe": "02a824fd71ace97a8bf82317d981160f31dd171d27c25becccbb5e0dc14e2680",
    },
    "F7/random/5": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "a967d2a42d2bd92e1ce298f4cd67e032d27155546e3a45aeb11858fca0744c69",
        "full_top": "7b5c3ea819c670e40b9e02895c66824652aa39aaaf28bd16a512956462f0f5f3",
        "probe": "ebf02bd30a3bba49e763de32ad0fbe1bd8f42326695a95ab39bcc75f28fed88f",
    },
    "Q/circle/dual": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full_top": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "probe": "8619f723b95e52057012f75ff82f701a4aa3ea801f64a9f0e7259583d31db708",
    },
    "Q/circle/m2": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "81e56274adff2cffc9369feebbf06769c0a2d691027d64d507cdafbb8f0ca9ac",
        "full_top": "2307d685baa708ed1d98c70a42e6430bc420b6704490f92756e0b125bbf0593c",
        "probe": "3b190a251f87d06fddc0181e5c1387670f44dac58f25fc4488e17e6b8f3cd5b6",
    },
    "Q/circle/s3": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "d5747ca0dd83dd114e41fe0acbc5316b5cb8021e7cae8755c9e5f19d421377a0",
        "full_top": "d61cdb72639df28a469f22939b6c27eac612bc562ee996f709eb12d9ba7045ed",
        "probe": "254dcea1149b26ed2b8ef4c01f0113f21014845a836e68895e096b8180d21062",
    },
    "Q/circle/upper": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "61e5066d61d056223a2c550296ea147a0e2f64c3f53a6bd4b27a74766766a2ff",
        "full_top": "28dd7ba12eeae243d788fca0eb71cebd4824db555a239f08783bfafa3c2b506c",
        "probe": "d2607a45915f43c019acf014f0a9c237fa9c487f884c5e721ce70af623b883b9",
    },
    "Q/classical/dual": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full_top": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "probe": "8619f723b95e52057012f75ff82f701a4aa3ea801f64a9f0e7259583d31db708",
    },
    "Q/classical/m2": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full_top": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "probe": "8619f723b95e52057012f75ff82f701a4aa3ea801f64a9f0e7259583d31db708",
    },
    "Q/classical/s3": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full_top": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "probe": "8619f723b95e52057012f75ff82f701a4aa3ea801f64a9f0e7259583d31db708",
    },
    "Q/classical/upper": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full_top": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "probe": "8619f723b95e52057012f75ff82f701a4aa3ea801f64a9f0e7259583d31db708",
    },
    "Q/random/1": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "3c11f535facf68e6a2b6371a06ec7dd83c218a6e706a3e11a6ca4e7737148e89",
        "full_top": "15b88cbb6c7bb3f89c02dd35be755b83c3a424de18b016851a93c433fd308c92",
        "probe": "1c3db65159cb37f8d75c4888dce6f5523440a580cdf9803ffe2f57cb7506bfba",
    },
    "Q/random/2": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "320543f2acdc0cfc304e9ba1d2baa0b4610daffa97210666deda3a4503ecee4c",
        "full_top": "7d4a4ea6d3795dded26b2db12ef9bee303643edaa4ecfefb2829125490ba35f5",
        "probe": "282c395c93ba3c1b63262720a6cc3b2cde72268c895e86e98e1702082f26abdf",
    },
    "Q/random/3": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "4f00bc40eb9ded22e1da4e9bee077387b22063a84acbf842d8f27f43180bcc80",
        "full_top": "992965d56dba0c80790feb36eb2d478f2973059f76e81cad389a391f9d568af2",
        "probe": "090f2b170666326718921c6683c589a2361020554de53d556edd2b6f34437581",
    },
    "Q/random/4": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "bdc7dfeb0185850e233f46d863eb6690609c33d69e4a98eea5462a42e4d35be9",
        "full_top": "e38efd1f129e882b84f2b32d3229470eae7fd992acab4f8428fcee66a4a2d2e4",
        "probe": "02a824fd71ace97a8bf82317d981160f31dd171d27c25becccbb5e0dc14e2680",
    },
    "Q/random/5": {
        "theta": "66420400e748762234450f64d39f39f372a8a2a0104d17998c9060fee4ed8544",
        "full": "a967d2a42d2bd92e1ce298f4cd67e032d27155546e3a45aeb11858fca0744c69",
        "full_top": "7b5c3ea819c670e40b9e02895c66824652aa39aaaf28bd16a512956462f0f5f3",
        "probe": "ebf02bd30a3bba49e763de32ad0fbe1bd8f42326695a95ab39bcc75f28fed88f",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_condition_digests(case):
    got = {name: digest(out) for name, out in outputs(build(case)).items()}
    assert got == GOLDEN[case]
