"""Spans around the package's layer boundaries, and the per-layer metrics.

The package is not modified.  ``Tracer.install`` replaces public functions
and methods of each module with wrappers that record one span per call:
name, start, end, parent span and job id.  A function imported by name into
another module is replaced there too, so every call path is seen.  Each
system's ``column_fn`` is wrapped when its constructor returns.  Spans are
kept in flat arrays in memory and written out once, at the end.

Layers are the package's modules.  ``config`` and ``errors`` do no work;
field arithmetic runs inside its callers' spans, so the ``fields`` layer
holds only parsing and field construction.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "simplicial", "algebras", "constructions", "systems",
          "linalg", "fields")

# (module, attribute) pairs wrapped as plain functions.
FUNCTIONS = {
    "cli": ("main", "load_system", "write_report", "cmd_homology",
            "cmd_verify"),
    "simplicial": ("circle", "simplicial_from_json"),
    "algebras": ("algebra_from_json", "bimodule_from_json", "matrix_algebra",
                 "matrix_bimodule", "validate_algebra", "validate_bimodule"),
    "constructions": ("hochschild_system", "higher_hochschild_system",
                      "loday_chain", "sphere2_system", "secondary_system",
                      "witness_w_suite", "witness_t_suite", "morita_report",
                      "corner_chain_map", "compare_systems"),
    "systems": ("compute_theta", "validate_subcomplex",
                "check_lambda_morphism", "induced_theta_map",
                "homology_quotients", "maximality_probe"),
    "linalg": ("rref", "kernel_of_rows_raw", "kernel_of_rows",
               "rank_and_kernel", "rank", "kernel_rows_from_rref",
               "_rref_sparse", "_rref_dense_python", "_rref_dense_fp_numpy"),
    "fields": ("field_from_json", "parse_field_flag"),
}

# (module, class, method) triples wrapped on the class.
METHODS = (
    ("simplicial", "PointedSimplicialSet", ("validate", "truncate", "fibers")),
    ("algebras", "Algebra", ("multiply",)),
    ("systems", "ThetaComplex", ("homology", "check_boundary_squares_to_zero",
                                 "boundary_image_rows", "to_json")),
    ("linalg", "Subspace", ("canonicalize", "contains", "from_vectors",
                            "complement_projector", "to_json")),
    ("linalg", "Matrix", ("mul",)),
)

BUILDERS = ("hochschild_system", "higher_hochschild_system", "loday_chain",
            "sphere2_system", "secondary_system")
KERNELS = ("kernel_of_rows_raw", "kernel_of_rows", "rank_and_kernel")
DENSE_ENGINES = ("_rref_dense_python", "_rref_dense_fp_numpy")
ENGINES = ("_rref_sparse",) + DENSE_ENGINES
MAX_DEGREE_SUFFIX = 4

KERNEL_KEYS = ("calls", "s", "rows_in", "nnz_in", "dim_out")
RANK_KEYS = ("calls", "s", "rows_in", "nnz_in", "out")


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += [
        "cli.load_system_s", "cli.write_report_s", "cli.report_bytes",
        "simplicial.circle_s", "constructions.build_s",
        "constructions.column_fn_calls", "constructions.column_fn_s",
        "algebras.multiply_calls", "algebras.multiply_s",
        "systems.theta_calls", "systems.theta_s", "systems.theta_rowbuild_s",
        "systems.homology_s", "systems.d2_check_s",
        "systems.boundary_images_s", "systems.validate_subcomplex_s",
        "systems.morphism_cert_s", "systems.induced_map_s",
    ]
    for group, keys in (("kernel", KERNEL_KEYS), ("rank", RANK_KEYS)):
        names += [f"linalg.{group}_{k}" for k in keys]
        names += [f"linalg.{group}_{k}.d{n}"
                  for n in range(1, MAX_DEGREE_SUFFIX + 1) for k in keys]
    names += [
        "linalg.dense_share", "linalg.canonicalize_s", "linalg.contains_calls",
        "linalg.contains_s", "linalg.matmul_s", "fields.max_entry_bits",
        "trace.spans", "trace.job_s", "trace.untraced_job_s",
        "trace.overhead_s", "trace.overhead_share",
    ]
    return names


def _nnz(rows) -> int:
    return sum(len(r) for r in rows)


class Tracer:
    """Records spans from wrapped package functions, one job at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.job_id = -1
        # span index -> (group, degree or None, rows, nnz, result size)
        self.elims: dict[int, tuple] = {}
        self.report_bytes: dict[int, int] = {}
        self._systems: list = []     # systems whose degree a call is in
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None, context=None):
        """``fn`` recording a span named ``name`` per call.

        ``after(idx, args, result)`` runs once the span has ended;
        ``context(args)`` names the system whose degrees nested calls use.
        """
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.job.append(self.job_id)
            self.end.append(0.0)
            stack.append(idx)
            if context is not None:
                self._systems.append(context(args))
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                if context is not None:
                    self._systems.pop()
            if after is not None:
                after(idx, args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _degree(self, ncols: int, offset: int):
        for system in reversed(self._systems):
            if ncols in system.dims:
                return system.dims.index(ncols) + offset
        return None

    def _after_kernel(self, idx, args, out):
        if len(args) == 1:                      # rank_and_kernel(m)
            m = args[0]
            rows, ncols, dim = m.rows, m.ncols, out[1].dim
        else:
            rows, ncols, dim = args[1], args[2], out.dim
        self.elims[idx] = ("kernel", self._degree(ncols, 0), len(rows),
                           _nnz(rows), dim)

    def _after_rank(self, idx, args, out):
        m = args[0]
        self.elims[idx] = ("rank", self._degree(m.ncols, 1), m.nrows,
                           _nnz(m.rows), out)

    def _after_engine(self, idx, args, out):
        self.elims[idx] = ("engine", None, len(args[1]), 0, len(out[1]))

    def _after_write(self, idx, args, out):
        path = getattr(args[1], "out", None)
        if path:
            self.report_bytes[self.job_id] = Path(path).stat().st_size

    def _after_build(self, idx, args, system):
        system.column_fn = self.wrap("constructions.column_fn",
                                     system.column_fn)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's layer boundaries; ``uninstall`` undoes it."""
        pkg = "lambda_homology"
        import lambda_homology.cli  # noqa: F401  (imports every layer)

        modules = [m for k, m in sys.modules.items()
                   if (k == pkg or k.startswith(pkg + ".")) and m is not None]
        for layer, attrs in FUNCTIONS.items():
            mod = sys.modules[f"{pkg}.{layer}"]
            for attr in attrs:
                orig = getattr(mod, attr)
                after = context = None
                if attr in KERNELS:
                    after = self._after_kernel
                elif attr == "rank":
                    after = self._after_rank
                elif attr in ENGINES:
                    after = self._after_engine
                elif attr == "write_report":
                    after = self._after_write
                elif attr in BUILDERS:
                    after = self._after_build
                if attr == "compute_theta":
                    context = lambda args: args[0]  # noqa: E731
                wrapped = self.wrap(f"{layer}.{attr}", orig, after, context)
                for m in modules:
                    if getattr(m, attr, None) is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapped)
        for layer, cls_name, methods in METHODS:
            cls = getattr(sys.modules[f"{pkg}.{layer}"], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                context = None
                if cls_name == "ThetaComplex" and meth in (
                        "homology", "check_boundary_squares_to_zero"):
                    context = lambda args: args[0].system  # noqa: E731
                wrapped = self.wrap(f"{layer}.{cls_name}.{meth}", fn,
                                    context=context)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span arrays (a view would stop them growing)."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "job": np.array(self.job, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        """Write every span as numpy arrays; ``names`` maps ``name_id``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def job_metrics(self, job: int) -> dict:
        """Per-layer numbers of one traced job (see ``per_layer_names``)."""
        a = self.arrays()
        sel = np.nonzero(a["job"] == job)[0]
        if not len(sel):
            return {}
        layer_idx = np.array([LAYERS.index(n.split(".", 1)[0])
                              for n in self.names])
        nid = a["name_id"][sel]
        dur = a["end"][sel] - a["start"][sel]
        # parent positions inside this job's slice (spans are contiguous)
        base = sel[0]
        parent = a["parent"][sel] - base
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(sel))
        self_time = dur - child_time
        layer_of = layer_idx[nid]

        def ids(*full):
            return [self._ids[n] for n in full if n in self._ids]

        def mask(*full):
            return np.isin(nid, ids(*full))

        def total(*full):
            return float(dur[mask(*full)].sum())

        def calls(*full):
            return int(mask(*full).sum())

        out = {f"{layer}.self_s": float(self_time[layer_of == i].sum())
               for i, layer in enumerate(LAYERS)}
        out["cli.load_system_s"] = total("cli.load_system")
        out["cli.write_report_s"] = total("cli.write_report")
        out["cli.report_bytes"] = self.report_bytes.get(job, 0)
        out["simplicial.circle_s"] = total("simplicial.circle")
        out["constructions.build_s"] = total(
            *(f"constructions.{b}" for b in BUILDERS))
        out["constructions.column_fn_calls"] = calls("constructions.column_fn")
        out["constructions.column_fn_s"] = total("constructions.column_fn")
        out["algebras.multiply_calls"] = calls("algebras.Algebra.multiply")
        out["algebras.multiply_s"] = total("algebras.Algebra.multiply")
        out["systems.theta_calls"] = calls("systems.compute_theta")
        out["systems.theta_s"] = total("systems.compute_theta")
        out["systems.theta_rowbuild_s"] = self._rowbuild(
            nid, parent, dur, mask("systems.compute_theta"),
            mask(*(f"linalg.{k}" for k in KERNELS),
                 "constructions.column_fn"))
        out["systems.homology_s"] = total("systems.ThetaComplex.homology")
        out["systems.d2_check_s"] = total(
            "systems.ThetaComplex.check_boundary_squares_to_zero")
        out["systems.boundary_images_s"] = total(
            "systems.ThetaComplex.boundary_image_rows")
        out["systems.validate_subcomplex_s"] = total(
            "systems.validate_subcomplex")
        out["systems.morphism_cert_s"] = total("systems.check_lambda_morphism")
        out["systems.induced_map_s"] = total("systems.induced_theta_map")
        out.update(self._elim_metrics(sel, dur))
        out["linalg.canonicalize_s"] = total("linalg.Subspace.canonicalize")
        out["linalg.contains_calls"] = calls("linalg.Subspace.contains")
        out["linalg.contains_s"] = total("linalg.Subspace.contains")
        out["linalg.matmul_s"] = total("linalg.Matrix.mul")
        out["trace.spans"] = len(sel)
        return out

    @staticmethod
    def _rowbuild(nid, parent, dur, theta, cut) -> float:
        """compute_theta time minus the kernel and column_fn spans under it.

        Only the outermost cut span on each path counts, so nested ones are
        not subtracted twice.
        """
        owner = np.full(len(nid), -1)
        cut_above = np.zeros(len(nid), dtype=bool)
        cur = parent.copy()
        while (cur >= 0).any():
            live = cur >= 0
            at = cur[live]
            found = live.copy()
            found[live] = theta[at]
            owner = np.where(found & (owner < 0), cur, owner)
            above = live.copy()
            above[live] = cut[at]
            cut_above |= above & (owner < 0)
            cur = np.where(live, parent[np.maximum(cur, 0)], -1)
        counted = cut & ~cut_above & (owner >= 0)
        removed = float(dur[counted].sum())
        return float(dur[theta].sum()) - removed

    def _elim_metrics(self, sel, dur) -> dict:
        out = {}
        for group, keys in (("kernel", KERNEL_KEYS), ("rank", RANK_KEYS)):
            for suffix in [""] + [f".d{n}" for n in
                                  range(1, MAX_DEGREE_SUFFIX + 1)]:
                for k in keys:
                    out[f"linalg.{group}_{k}{suffix}"] = 0
        base, last = sel[0], sel[-1]
        rows_dense = rows_all = 0
        for idx, rec in self.elims.items():
            if not base <= idx <= last:
                continue
            group, degree, rows, nnz, result = rec
            if group == "engine":
                rows_all += rows
                engine = self.names[self.name_id[idx]].rsplit(".", 1)[-1]
                if engine in DENSE_ENGINES:
                    rows_dense += rows
                continue
            keys = KERNEL_KEYS if group == "kernel" else RANK_KEYS
            values = (1, float(dur[idx - base]), rows, nnz, result)
            suffixes = [""]
            if degree is not None and 1 <= degree <= MAX_DEGREE_SUFFIX:
                suffixes.append(f".d{degree}")
            for suffix in suffixes:
                for k, v in zip(keys, values):
                    out[f"linalg.{group}_{k}{suffix}"] += v
        out["linalg.dense_share"] = rows_dense / rows_all if rows_all else 0.0
        return out


def max_entry_bits(report: dict) -> int:
    """Largest numerator or denominator bit length in emitted theta bases."""
    bases = report.get("theta", {}).get("bases", [])
    best = 0
    for sub in bases:
        for _, _, lit in sub.get("basis", []):
            for part in str(lit).lstrip("-").split("/"):
                best = max(best, int(part).bit_length())
    return best
