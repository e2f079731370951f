"""The benchmark's workloads: seeded inputs, job command lines, report checks.

Each workload is one CLI job with fixed arguments.  Seed 0 uses the algebra
as the package ships it (a ``builtin`` spec).  On a relabelled workload any
other seed relabels the algebra basis by a non-identity permutation, drawn
afresh for each job of a run from the seed and the job's number, and
passes the result as explicit structure constants.  A relabelling is an
algebra isomorphism, so every theta dimension, rank and Betti number stays
the same, while matrix order and pivot choice change.  Drawing one per job
lets a run's median cover several relabellings.

Expected results live in ``bench/expected/<workload>[.smoke].json``: the
exit code, the SHA-256 and length of the seed-0 report, and the report's
basis-free part (``invariants``).  Seed 0 must match byte for byte; other
seeds must match the invariants.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"

LARGE_PRIME = 2147483629


def _s3_table() -> list[list[int]]:
    """Cayley table of the symmetric group on three letters, as permutations
    in sorted order; g*h applies h first."""
    def mul(g, h):
        return tuple(g[h[k]] for k in range(3))

    gens = ((1, 2, 0), (1, 0, 2))           # 3-cycle, transposition
    group = {tuple(range(3))}
    while True:
        grown = group | {mul(g, x) for g in group for x in gens}
        if grown == group:
            break
        group = grown
    elems = sorted(group)
    index = {g: i for i, g in enumerate(elems)}
    return [[index[mul(g, h)] for h in elems] for g in elems]


def _s3_structure() -> tuple[int, list, list]:
    """The S3 group algebra on its group elements; the identity is index 0."""
    table = _s3_table()
    return 6, [[i, j, table[i][j]] for i in range(6) for j in range(6)], [0]


def _m2_structure() -> tuple[int, list, list]:
    """M_2(k) on matrix units e_rc at index 2r + c."""
    mult = [[2 * r + c, 2 * c + d, 2 * r + d]
            for r in range(2) for c in range(2) for d in range(2)]
    return 4, mult, [0, 3]


def _dual_structure() -> tuple[int, list, list]:
    """k[x]/(x^2) on 1, x."""
    return 2, [[0, 0, 0], [0, 1, 1], [1, 0, 1]], [0]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "homology", "witness" or "morita"
    why: str
    builtin: dict | None      # the shipped algebra; None: no algebra input
    structure: object = None  # structure constants; None: seed ignored
    args: tuple = ()          # CLI flags after the spec or suite arguments
    smoke_args: tuple = ()    # the same job at a tiny size
    circle: int = 0           # circle truncation of homology workloads
    smoke_circle: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="homology-q-m2c4",
            kind="homology",
            why="M_2(k) on circle(4) over Q with bases: Fraction elimination, "
                "canonicalization and a 270 kB report write",
            builtin={"builtin": "matrix", "inner": {"builtin": "ground_field"},
                     "size": 2},
            structure=_m2_structure,
            args=("--emit-bases",),
            smoke_args=("--emit-bases",),
            circle=4, smoke_circle=2,
        ),
        Workload(
            name="homology-fp-s3c3",
            kind="homology",
            why="S3 group algebra on circle(3) over F_2147483629: sparse "
                "mod-p elimination, the kernel read-off scan and the top "
                "rank; bypasses Q-only changes",
            builtin={"builtin": "group_algebra", "table": _s3_table(),
                     "label": "S3"},
            structure=_s3_structure,
            args=("--field", f"fp:{LARGE_PRIME}"),
            smoke_args=("--field", f"fp:{LARGE_PRIME}"),
            circle=3, smoke_circle=2,
        ),
        Workload(
            name="witness-t-m2",
            kind="witness",
            why="paired witness suite on M_2(k) to depth 3: face evaluation "
                "in the transport check and subcomplex validation, little "
                "elimination; seed ignored",
            builtin=None,
            args=("--kind", "t", "--matrix-size", "2", "--max-degree", "3",
                  "--theta-degree", "1"),
            smoke_args=("--kind", "t", "--matrix-size", "2", "--max-degree",
                        "2", "--theta-degree", "1"),
        ),
        Workload(
            name="morita-dual",
            kind="morita",
            why="Morita comparison for k[x]/(x^2) at depth 2 over Q: morphism "
                "certificates and many small kernels",
            builtin={"builtin": "truncated_polynomial", "order": 2},
            structure=_dual_structure,
            args=("--matrix-size", "2", "--max-degree", "2"),
            smoke_args=("--matrix-size", "2", "--max-degree", "1"),
        ),
    )
}


def permutation(dim: int, seed: int, job: int = 0) -> list[int]:
    """A permutation of range(dim) drawn from (seed, job), never the identity
    if dim > 1."""
    rng = random.Random(f"{seed}/{job}")
    perm = list(range(dim))
    while dim > 1 and perm == sorted(perm):
        rng.shuffle(perm)
    return perm


def relabelled_algebra(w: Workload, seed: int, job: int = 0) -> dict:
    """The algebra as explicit structure constants under a relabelling.

    Basis vector i becomes basis vector perm[i]; the permutation is never
    the identity, so every non-zero seed changes the input.
    """
    dim, mult, unit_support = w.structure()
    perm = permutation(dim, seed, job)
    unit = ["0"] * dim
    for k in unit_support:
        unit[perm[k]] = "1"
    quads = sorted([perm[i], perm[j], perm[k], "1"] for i, j, k in mult)
    return {"dim": dim, "mult": quads, "unit": unit}


def algebra_input(w: Workload, seed: int, job: int) -> dict:
    if seed == 0 or w.structure is None:
        return w.builtin
    return relabelled_algebra(w, seed, job)


def write_inputs(w: Workload, seed: int, smoke: bool, workdir: Path,
                 job: int = 0) -> list[str]:
    """Write the inputs of one job of a run; return its CLI arguments."""
    workdir.mkdir(parents=True, exist_ok=True)
    args = list(w.smoke_args if smoke else w.args)
    if w.kind == "witness":
        return ["verify", "witness", *args]
    algebra = algebra_input(w, seed, job)
    if w.kind == "morita":
        path = workdir / "algebra.json"
        path.write_text(json.dumps(algebra, sort_keys=True) + "\n")
        return ["verify", "morita", "--algebra", str(path), *args]
    spec = {
        "construction": "higher_hochschild",
        "field": {"kind": "Q"},
        "algebra": algebra,
        "bimodule": {"builtin": "regular"},
        "simplicial": {"builtin": "circle"},
        "max_degree": w.smoke_circle if smoke else w.circle,
    }
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec, sort_keys=True) + "\n")
    return ["homology", str(path), *args]


# ---------------------------------------------------------------------------
# expected reports
# ---------------------------------------------------------------------------


_BASIS_KEYS = ("bases", "system")


def invariants(obj):
    """The report without basis-dependent parts: emitted bases and labels."""
    if isinstance(obj, dict):
        return {k: invariants(v) for k, v in obj.items()
                if k not in _BASIS_KEYS}
    if isinstance(obj, list):
        return [invariants(v) for v in obj]
    return obj


def expected_path(w: Workload, smoke: bool) -> Path:
    return EXPECTED_DIR / f"{w.name}{'.smoke' if smoke else ''}.json"


def load_expected(w: Workload, smoke: bool) -> dict:
    return json.loads(expected_path(w, smoke).read_text())


def check_report(expected: dict, seed: int, w: Workload, exit_code: int,
                 data: bytes) -> str | None:
    """None when the job's result is the expected one, else the reason."""
    if exit_code != expected["exit_code"]:
        return f"exit code {exit_code}, expected {expected['exit_code']}"
    if seed == 0 or w.structure is None:
        if hashlib.sha256(data).hexdigest() != expected["sha256"]:
            return "report differs from the seed-0 report"
        return None
    try:
        got = invariants(json.loads(data))
    except ValueError:
        return "report is not JSON"
    if got != expected["invariants"]:
        return "theta dims, ranks or Betti numbers differ from seed 0"
    return None
