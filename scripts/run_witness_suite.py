#!/usr/bin/env python3
"""Exercise both witness families on the 2x2 matrix extension of a field.

The module witness uses the corner idempotent e_11 acting on itself inside
the circle system of the matrix algebra; the paired witness uses e_11
together with the identity element under the identity comparison map on the
two-algebra system.  Both runs print the transport certificate, the span
validation, maximal-subcomplex membership, and the boundary parity pattern
(zero in odd degrees, a positive multiple of the previous witness in even
degrees).
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lambda_homology.algebras import (
    AlgebraMorphism,
    Bimodule,
    ground_field_algebra,
    matrix_algebra,
    matrix_bimodule,
)
from lambda_homology.constructions import witness_t_suite, witness_w_suite
from lambda_homology.fields import parse_field_flag
from lambda_homology.linalg import Matrix
from lambda_homology.simplicial import circle


def print_suite(name: str, suite: dict) -> None:
    print(f"[{name}]")
    print(f"  transport ok: {suite['transport']['ok']} "
          f"(checked {suite['transport']['checked']} face applications)")
    print(f"  span is a subcomplex: {suite['span_is_subcomplex']['valid']}")
    membership = ", ".join(
        f"n={entry['n']}:{entry['in_theta']}"
        for entry in suite["theta_membership"]
    )
    print(f"  inside the maximal subcomplex (checked to degree "
          f"{suite['theta_checked_up_to']}): {membership}")
    parity = ", ".join(
        f"n={entry['n']}:{entry['boundary']}"
        for entry in suite["boundary_parity"]["entries"]
    )
    print(f"  boundary pattern: {parity}")
    print(f"  parity ok: {suite['boundary_parity']['ok']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--field", default="q", help="q or fp:P")
    ap.add_argument("--max-degree", type=int, default=4)
    ap.add_argument("--theta-degree", type=int, default=2,
                    help="direct membership depth for the paired witness")
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="also write both JSON reports here")
    args = ap.parse_args(argv)

    field = parse_field_flag(args.field)
    base = ground_field_algebra(field)
    big, corner_emb = matrix_algebra(base, 2)
    bigmod, _ = matrix_bimodule(big, Bimodule.regular(base), 2)

    corner = corner_emb.apply(base.unit)  # e_11
    w_suite = witness_w_suite(big, bigmod, circle(args.max_degree),
                              corner, corner)
    print_suite("module witness", w_suite)

    ident = AlgebraMorphism(big, big, Matrix.identity(field, big.dim))
    t_suite = witness_t_suite(big, big, ident, corner, dict(big.unit),
                              args.max_degree,
                              theta_degree=args.theta_degree)
    print_suite("paired witness", t_suite)

    if args.out is not None:
        payload = {"module_witness": w_suite, "paired_witness": t_suite}
        args.out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
