"""Command-line front end.

Subcommands: ``homology``, ``theta``, ``verify`` (simplicial, algebra,
morphism, subcomplex, morita, witness), ``compare``, ``circle``.  Inputs
are JSON files; reports are JSON (default) or TSV, written to stdout or
``--out``.  Exit codes: 0 success, 1 validation failure or a failed
verification, 2 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebras import (
    MORPHISM_BUILTINS,
    Bimodule,
    algebra_from_json,
    bimodule_from_json,
    matrix_algebra,
    matrix_bimodule,
    morphism_from_json,
    vector_from_json,
)
from .config import DEFAULT_CAPS, ResourceCaps, thread_bound
from .constructions import (
    compare_systems,
    higher_hochschild_system,
    hochschild_system,
    loday_chain,
    morita_report,
    secondary_system,
    sphere2_system,
    witness_t_suite,
    witness_w_suite,
)
from .errors import ResourceCapError, ValidationError, spec_ints, spec_of
from .fields import field_of, parse_field_flag
from .linalg import Subspace
from .simplicial import circle, simplicial_from_json, simplicial_to_json
from .systems import compute_theta, validate_subcomplex


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------


def _read_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def _resolve(obj, base: Path):
    """A string is a path relative to the enclosing spec file."""
    if isinstance(obj, str):
        return _read_json(base / obj), (base / obj).parent
    return obj, base


def _load_simplicial(obj, base: Path, max_degree):
    """The max degree fills a builtin's missing ``max_level`` and lowers a
    higher one, so the builtin is built at the level the job uses and its
    label names that level (``simplicial_from_json`` checks the value); an
    explicit set is truncated and keeps its label."""
    obj, _ = _resolve(obj, base)
    if isinstance(obj, dict) and "builtin" in obj and max_degree is not None:
        level = obj.get("max_level", max_degree)
        if type(level) is int and level > max_degree:
            level = max_degree
        obj = {**obj, "max_level": level}
    x = simplicial_from_json(obj)
    if max_degree is not None and max_degree < x.max_level:
        x = x.truncate(max_degree)
    return x


def load_system(spec, base: Path, field=None, max_degree=None,
                caps=DEFAULT_CAPS):
    """Build a face system from a JSON spec (see README for the format)."""
    spec, base = _resolve(spec, base)
    if not isinstance(spec, dict):
        raise ValidationError("system spec must be a JSON object")
    kind = spec.get("construction")
    if kind is None:
        raise ValidationError("system spec needs a 'construction' key")
    f = field_of(spec, field)
    degree = max_degree
    if degree is None and spec.get("max_degree") is not None:
        degree = spec_ints(spec["max_degree"], "max_degree")

    def algebra(key="algebra"):
        obj = spec.get(key)
        if obj is None:
            raise ValidationError(f"system spec needs '{key}'")
        obj, _ = _resolve(obj, base)
        return algebra_from_json(obj, field=f)

    def bimodule(a):
        obj = spec.get("bimodule", {"builtin": "regular"})
        obj, _ = _resolve(obj, base)
        return bimodule_from_json(obj, a)

    if kind in ("hochschild", "sphere2"):
        if degree is None:
            raise ValidationError("spec needs 'max_degree' or --max-degree")
        a = algebra()
        m = bimodule(a)
        if kind == "hochschild":
            return hochschild_system(a, m, degree)
        return sphere2_system(a, m, degree, caps)
    if kind in ("higher_hochschild", "loday"):
        a = algebra()
        m = bimodule(a)
        x = _load_simplicial(
            spec.get("simplicial", {"builtin": "circle"}), base, degree,
        )
        if kind == "loday":
            return loday_chain(a, m, x)
        return higher_hochschild_system(a, m, x, caps)
    if kind == "secondary":
        if degree is None:
            raise ValidationError("spec needs 'max_degree' or --max-degree")
        a = algebra()
        b = algebra("second_algebra")
        eps_obj = spec.get("epsilon", "unit")
        if eps_obj not in MORPHISM_BUILTINS:
            eps_obj, _ = _resolve(eps_obj, base)
        return secondary_system(a, b, morphism_from_json(eps_obj, b, a), degree, caps)
    raise ValidationError(f"unknown construction {kind!r}")


def _caps_from_args(args) -> ResourceCaps:
    updates = {}
    for flag, cap in (("cap_dim", "max_ambient_dim"), ("cap_index", "max_index_size")):
        value = getattr(args, flag)
        if value is not None:
            if value < 1:
                raise ValidationError(f"--{flag.replace('_', '-')} must be at least 1",
                                      value=value)
            updates[cap] = value
    return ResourceCaps(**updates) if updates else DEFAULT_CAPS


def _field_from_args(args):
    flag = getattr(args, "field", None)
    return parse_field_flag(flag) if flag else None


def _system_from_args(args, spec: str):
    """The system spec file ``spec`` read with the common flags, and the caps."""
    caps = _caps_from_args(args)
    path = Path(spec)
    system = load_system(path.name, path.parent, field=_field_from_args(args),
                         max_degree=args.max_degree, caps=caps)
    return system, caps


def _inner_algebra(args):
    """The ``--algebra`` file of ``verify morita`` and ``verify witness``,
    by default the ground field."""
    obj = _read_json(Path(args.algebra)) if args.algebra else {"builtin": "ground_field"}
    return algebra_from_json(obj, field=_field_from_args(args))


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------


def _tsv_escape(v) -> str:
    s = str(v)
    return s.replace("\t", " ").replace("\n", " ")


def _tsv_table(header: list, rows: list) -> str:
    out = ["\t".join(header)]
    out.extend("\t".join(_tsv_escape(c) for c in row) for row in rows)
    return "\n".join(out) + "\n"


def _homology_tsv(report: dict) -> str:
    rows = [
        [e["n"], e["dim_theta"], e["rank_d_n"], e["rank_d_n_plus_1"], e["betti"]]
        for e in report["entries"]
    ]
    return _tsv_table(["n", "dim_theta", "rank_d_n", "rank_d_n_plus_1", "betti"],
                      rows)


def _theta_tsv(report: dict) -> str:
    rows = [
        [n, a, t]
        for n, (a, t) in enumerate(zip(report["ambient_dims"],
                                       report["theta_dims"]))
    ]
    return _tsv_table(["n", "ambient_dim", "theta_dim"], rows)


def _flat_checks(report: dict, prefix="") -> list:
    rows = []
    for k in sorted(report):
        v = report[k]
        name = f"{prefix}{k}"
        if isinstance(v, bool):
            rows.append([name, "pass" if v else "fail"])
        elif isinstance(v, dict):
            rows.extend(_flat_checks(v, prefix=name + "."))
    return rows


def write_report(report: dict, args, tsv_fn=None) -> None:
    """Write the report to ``--out`` or stdout, as a TSV table or as
    indented JSON; the JSON is streamed, never held as one string."""
    out = getattr(args, "out", None)
    fh = open(out, "w", encoding="utf-8") if out else sys.stdout
    try:
        if getattr(args, "format", "json") == "tsv":
            fh.write(tsv_fn(report) if tsv_fn else _tsv_table(
                ["check", "result"], _flat_checks(report)))
        else:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    finally:
        if out:
            fh.close()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_homology(args) -> int:
    system, caps = _system_from_args(args, args.spec)
    theta = compute_theta(system, caps)
    report = theta.homology()
    if args.emit_bases:
        report["theta"] = theta.to_json(emit_bases=True)
    del system, theta   # faces and boundaries are not held through the write
    write_report(report, args, _homology_tsv)
    return 0


def cmd_theta(args) -> int:
    system, caps = _system_from_args(args, args.spec)
    theta = compute_theta(system, caps)
    report = theta.to_json(emit_bases=args.emit_bases)
    write_report(report, args, _theta_tsv)
    return 0


def cmd_circle(args) -> int:
    x = circle(args.max_level)
    bad = x.validate()
    report = {
        "label": x.label,
        "max_level": x.max_level,
        "sizes": list(x.sizes),
        "violations": bad,
        "valid": not bad,
    }
    if args.emit:
        report["simplicial"] = simplicial_to_json(x)
    write_report(report, args,
                 lambda r: _tsv_table(["n", "size"],
                                      list(enumerate(r["sizes"]))))
    return 0 if report["valid"] else 1


def cmd_compare(args) -> int:
    left, caps = _system_from_args(args, args.left)
    right, _ = _system_from_args(args, args.right)
    report = compare_systems(left, right, with_homology=args.betti, caps=caps)
    write_report(report, args)
    return 0 if report["equal"] else 1


def _verify_simplicial(args) -> tuple[dict, bool]:
    if args.circle is not None:
        x = circle(args.circle)
    elif args.input:
        x = simplicial_from_json(_read_json(Path(args.input)))
    else:
        raise ValidationError("verify simplicial needs --input or --circle")
    bad = x.validate()
    report = {
        "check": "simplicial_identities",
        "label": x.label,
        "sizes": list(x.sizes),
        "violations": bad[:10],
        "passed": not bad,
    }
    return report, not bad


def _axioms_report(check: str, read, facts) -> tuple[dict, bool]:
    """The report of ``check`` on the object ``read()`` returns: its reader's
    ``ValidationError`` is the failure, else ``facts(obj)`` fills the pass."""
    try:
        obj = read()
    except ValidationError as exc:
        return {
            "check": check,
            "passed": False,
            "violations": exc.details.get("violations", [str(exc)]),
        }, False
    return {"check": check, **facts(obj), "violations": [], "passed": True}, True


def _verify_algebra(args) -> tuple[dict, bool]:
    if not args.input:
        raise ValidationError("verify algebra needs --input")
    obj = _read_json(Path(args.input))
    field = _field_from_args(args)
    return _axioms_report(
        "algebra_axioms", lambda: algebra_from_json(obj, field=field),
        lambda a: {"label": a.label, "dim": a.dim,
                   "commutative": a.is_commutative()})


def _verify_morphism(args) -> tuple[dict, bool]:
    if not (args.input and args.source and args.target):
        raise ValidationError(
            "verify morphism needs --input, --source, and --target"
        )
    field = _field_from_args(args)
    src = algebra_from_json(_read_json(Path(args.source)), field=field)
    tgt = algebra_from_json(_read_json(Path(args.target)), field=field)
    obj = _read_json(Path(args.input))
    return _axioms_report(
        "algebra_morphism", lambda: morphism_from_json(obj, src, tgt),
        lambda mor: {"unital": mor.unital, "multiplicative": True})


def _verify_subcomplex(args) -> tuple[dict, bool]:
    if not args.spec or not args.subspaces:
        raise ValidationError("verify subcomplex needs --spec and --subspaces")
    system, _ = _system_from_args(args, args.spec)
    data = spec_of(_read_json(Path(args.subspaces)), "subspaces file", dict)
    degrees = data.get("subspaces")
    if not isinstance(degrees, list):
        raise ValidationError("subspaces file needs a 'subspaces' list")
    if len(degrees) != len(system.dims):
        raise ValidationError("subspaces file needs one entry per degree",
                              expected=len(system.dims), got=len(degrees))
    f = system.field
    candidates = []
    for n, entry in enumerate(degrees):
        spec_of(entry, "subspaces entry", dict)
        vecs = [
            vector_from_json(f, v, system.dims[n])
            for v in spec_of(entry.get("vectors", []), "vectors")
        ]
        candidates.append(Subspace.from_vectors(f, system.dims[n], vecs))
    result = validate_subcomplex(system, candidates)
    report = {
        "check": "lambda_subcomplex",
        "system": system.label,
        "dims": [s.dim for s in candidates],
        "violations": result["violations"],
        "passed": result["valid"],
    }
    return report, result["valid"]


def _verify_morita(args) -> tuple[dict, bool]:
    a = _inner_algebra(args)
    m = Bimodule.regular(a)
    caps = _caps_from_args(args)
    if args.max_degree is None:
        raise ValidationError("verify morita needs --max-degree")
    report = morita_report(a, m, args.matrix_size, args.max_degree, caps)
    checks = {
        "corner_map_is_lambda_morphism":
            report["corner_to_circle"]["is_lambda_morphism"],
        "identity_map_is_lambda_morphism":
            report["circle_to_classical"]["is_lambda_morphism"],
        "composition_matches_corner_to_classical":
            report["composition_matches_corner_to_classical"],
        "composite_induces_isomorphism":
            report["composite_induces_isomorphism"],
    }
    report["check"] = "morita_comparison"
    report["passed"] = all(checks.values())
    report["checks"] = checks
    return report, report["passed"]


def _witness_elements(args, big, bigmod):
    """Elements file for the witness suites; None means use the defaults."""
    if not args.elements:
        return None, None
    field = big.field
    data = spec_of(_read_json(Path(args.elements)), "elements file", dict)
    if "e" not in data:
        raise ValidationError("elements file needs 'e'")
    e = vector_from_json(field, data["e"], big.dim)
    if bigmod is not None:
        if "m" not in data:
            raise ValidationError("elements file needs 'm' for the w witness")
        return e, vector_from_json(field, data["m"], bigmod.dim)
    if "f" not in data:
        raise ValidationError("elements file needs 'f' for the t witness")
    return e, vector_from_json(field, data["f"], big.dim)


def _verify_witness(args) -> tuple[dict, bool]:
    caps = _caps_from_args(args)
    if args.max_degree is None:
        raise ValidationError("verify witness needs --max-degree")
    inner = _inner_algebra(args)
    size = args.matrix_size
    big, corner_emb = matrix_algebra(inner, size)
    # the default idempotent: the corner image of the unit
    corner_unit = corner_emb.apply(inner.unit)
    if args.kind == "w":
        bigmod, _ = matrix_bimodule(big, Bimodule.regular(inner), size)
        e, mv = _witness_elements(args, big, bigmod)
        if e is None:
            # the regular bimodule's basis is the algebra's, so e is also m
            e, mv = corner_unit, dict(corner_unit)
        report = witness_w_suite(big, bigmod, circle(args.max_degree), e, mv,
                                 theta_degree=args.theta_degree, caps=caps)
    else:
        eps = morphism_from_json("identity", big, big)
        e, f_vec = _witness_elements(args, big, None)
        if e is None:
            e, f_vec = corner_unit, dict(big.unit)
        report = witness_t_suite(big, big, eps, e, f_vec, args.max_degree,
                                 theta_degree=args.theta_degree, caps=caps)
    passed = (
        report["transport"]["ok"]
        and report["span_is_subcomplex"]["valid"]
        and all(d["in_theta"] for d in report["theta_membership"])
        and report["boundary_parity"]["ok"]
    )
    report["check"] = "witness_suite"
    report["passed"] = passed
    return report, passed


def cmd_verify(args) -> int:
    handler = {
        "simplicial": _verify_simplicial,
        "algebra": _verify_algebra,
        "morphism": _verify_morphism,
        "subcomplex": _verify_subcomplex,
        "morita": _verify_morita,
        "witness": _verify_witness,
    }[args.target_kind]
    report, passed = handler(args)
    write_report(report, args)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p, spec_positional=True):
    if spec_positional:
        p.add_argument("spec", help="system spec JSON file")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--field", default=None,
                   help="field override: q or fp:<prime>")
    p.add_argument("--cap-dim", type=int, default=None,
                   help="ambient dimension cap")
    p.add_argument("--cap-index", type=int, default=None,
                   help="face-variant count cap")
    p.add_argument("--out", default=None, help="write the report here")
    p.add_argument("--format", choices=("json", "tsv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lambda-homology",
        description="Exact homology of maximal subcomplexes of face systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="betti table of the maximal subcomplex")
    _add_common(p)
    p.add_argument("--emit-bases", action="store_true")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("theta", help="dimensions (and bases) of the maximal subcomplex")
    _add_common(p)
    p.add_argument("--emit-bases", action="store_true")
    p.set_defaults(fn=cmd_theta)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("target_kind", choices=(
        "simplicial", "algebra", "morphism", "subcomplex", "morita", "witness"
    ))
    p.add_argument("--spec", default=None, help="system spec (subcomplex)")
    p.add_argument("--input", default=None, help="object file to verify")
    p.add_argument("--source", default=None, help="source algebra (morphism)")
    p.add_argument("--target", default=None, help="target algebra (morphism)")
    p.add_argument("--subspaces", default=None, help="candidate subspaces file")
    p.add_argument("--circle", type=int, default=None,
                   help="verify the built-in circle at this truncation")
    p.add_argument("--algebra", default=None,
                   help="inner algebra file (morita, witness)")
    p.add_argument("--matrix-size", type=int, default=2)
    p.add_argument("--kind", choices=("w", "t"), default="w",
                   help="witness flavor")
    p.add_argument("--elements", default=None,
                   help="witness elements file with dense 'e' and 'm'/'f'")
    p.add_argument("--theta-degree", type=int, default=None,
                   help="check membership directly up to this degree")
    _add_common(p, spec_positional=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compare", help="compare two systems face by face")
    p.add_argument("left", help="left system spec")
    p.add_argument("right", help="right system spec")
    p.add_argument("--betti", action="store_true",
                   help="also compare homology tables")
    _add_common(p, spec_positional=False)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("circle", help="emit the built-in circle model")
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--emit", action="store_true",
                   help="include the full face/degeneracy tables")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(fn=cmd_circle)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for resource caps
        return 0 if exc.code == 0 else 1
    try:
        thread_bound()
        return args.fn(args)
    except ResourceCapError as exc:
        sys.stdout.write(json.dumps(exc.to_json(), sort_keys=True, indent=2) + "\n")
        return 2
    except ValidationError as exc:
        sys.stdout.write(json.dumps(exc.to_json(), sort_keys=True, indent=2) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
