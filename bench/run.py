"""Closed-loop benchmark of lambda-homology CLI jobs.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...  # every workload in turn
    python3 bench/run.py --smoke            # every workload once, tiny sizes

One client runs one job at a time (a closed loop).  With ``--trace 0`` each
job is a fresh ``python -m lambda_homology`` process, timed from spawn to
exit, and the end-to-end metrics are printed; their CPU times are scaled
by the host's speed, measured between jobs (``reference.py``).  With ``--trace 1`` the same
jobs run in this process through ``cli.main(argv)`` in pairs, one untraced
and one with spans around every layer boundary (``spans.py``), and the
per-layer metrics are printed.  Every report is checked against
``bench/expected``; a mismatch counts as a failed job and makes the exit
code non-zero.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import reference  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_report,
    load_expected,
    write_inputs,
)

THREADS_ENV = "LAMBDA_HOMOLOGY_THREADS"
JOB_TIMEOUT_S = 150.0


def job_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], log: Path, timeout: float = JOB_TIMEOUT_S) -> dict:
    """Run one child through ``launch.py``: wall time, CPU time, peak RSS."""
    launcher = [sys.executable, "-S", str(BENCH_DIR / "launch.py"),
                str(timeout), str(log)]
    proc = subprocess.run(launcher + cmd, env=job_env(), cwd=ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def setup_time(argv: list[str], workdir: Path) -> float:
    """CPU time of a fresh process that only imports and builds."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *argv]
    res = spawn(cmd, workdir / "setup.log")
    if res["exit_code"] != 0:
        raise RuntimeError(
            f"set-up probe failed: {(workdir / 'setup.log').read_text()}")
    return res["cpu_s"]


def percentile_line(name: str, values: list[float], unit: str) -> str | None:
    """The highest percentile with at least ten samples above it, if >= p50."""
    n = len(values)
    rank = n - 10
    if rank < 1 or rank / n < 0.5:
        return None
    pct = 100.0 * rank / n
    return (f"{name} p{pct:.0f}: {sorted(values)[rank - 1]:.4f} {unit} "
            f"(n={n})")


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        THREADS_ENV: "unset in every job",
    }


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def cli_job(argv: list[str], workdir: Path) -> tuple[dict, bytes]:
    """One job in a fresh process: its timings and the report it wrote."""
    out = workdir / "report.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "lambda_homology", *argv, "--out", str(out)]
    res = spawn(cmd, workdir / "job.log")
    return res, out.read_bytes() if out.exists() else b""


def run_untraced(w, seed: int, seconds: float, workdir: Path) -> dict:
    expected = load_expected(w, False)
    refs, setups, jobs, failures = [], [], [], []
    t_start = time.perf_counter()
    while True:
        # the host's speed, a set-up probe on the job's own inputs and the
        # job, in turn, so that all three medians cover the same stretch
        refs.append(reference.cpu_s())
        argv = write_inputs(w, seed, False, workdir, job=len(jobs))
        setups.append(setup_time(argv, workdir))
        res, data = cli_job(argv, workdir)
        reason = ("timed out" if res["timed_out"] else
                  check_report(expected, seed, w, res["exit_code"], data))
        if reason:
            failures.append(reason)
        jobs.append(res)
        elapsed = time.perf_counter() - t_start
        # start another round only if a typical one ends within the run
        walls = [j["wall_s"] for j in jobs]
        if elapsed + statistics.median(walls) + statistics.median(
                setups) + statistics.median(refs) > seconds:
            break
    ref = statistics.median(refs)
    scale = reference.NOMINAL_S / ref
    setup = statistics.median(setups)
    cpu = statistics.median(j["cpu_s"] for j in jobs)
    metrics = {
        "setup_s": (setup * scale, "s"),
        "job_cpu_s": (cpu * scale, "s"),
        # the median job's peak: the largest varies with the relabellings
        # that a seed happens to draw
        "peak_rss_mb": (statistics.median(j["rss_mb"] for j in jobs), "MB"),
    }
    lines = [f"{k}: {v:.4f} {u}" for k, (v, u) in metrics.items()]
    lines += [
        f"reference: {ref:.4f} s (nominal {reference.NOMINAL_S} s), "
        f"scale {scale:.4f}",
        f"measured setup_s: {setup:.4f} s, job_cpu_s: {cpu:.4f} s",
        # Wall time is printed but not a result metric: on a shared virtual
        # machine it includes time the hypervisor gives to other guests.
        f"job_s: {statistics.median(walls):.4f} s",
    ]
    pline = percentile_line("job_s", walls, "s")
    if pline:
        lines.append(pline)
    largest = max(j["rss_mb"] for j in jobs)
    lines.append(f"largest peak_rss_mb: {largest:.4f} MB")
    lines.append(f"jobs: {len(jobs)}")
    lines.append(f"failed_ratio: {len(failures) / len(jobs):.4f} jobs/jobs")
    lines += [f"failure: {r}" for r in sorted(set(failures))]
    return {"metrics": metrics, "attempted": len(jobs),
            "failed": len(failures), "lines": lines}


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def in_process_job(argv: list[str], out: Path) -> tuple[float, int, bytes]:
    """One ``cli.main`` call in this process; its stdout is discarded."""
    from lambda_homology import cli

    out.unlink(missing_ok=True)
    sink = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(sink):
        code = cli.main([*argv, "--out", str(out)])
    wall = time.perf_counter() - t0
    return wall, code, out.read_bytes() if out.exists() else b""


def unit_of(name: str) -> str:
    name = re.sub(r"\.d\d+$", "", name)       # per-degree suffix
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def run_traced(w, seed: int, seconds: float, workdir: Path,
               smoke: bool = False) -> dict:
    from spans import Tracer, max_entry_bits, per_layer_names

    expected = load_expected(w, smoke)
    out = workdir / "report.json"
    tracer = Tracer()
    # Import every layer and build the wrappers once before timing, so the
    # first job of either kind pays for neither.
    tracer.install()
    tracer.uninstall()
    untraced, traced, per_job, failures = [], [], [], []

    def untraced_job(argv):
        wall, code, data = in_process_job(argv, out)
        untraced.append(wall)
        reason = check_report(expected, seed, w, code, data)
        if reason:
            failures.append(f"untraced: {reason}")

    def traced_job(argv):
        tracer.job_id += 1
        tracer.install()
        try:
            wall, code, data = in_process_job(argv, out)
        finally:
            tracer.uninstall()
        traced.append(wall)
        reason = check_report(expected, seed, w, code, data)
        if reason:
            failures.append(f"traced: {reason}")
        per_job.append(tracer.job_metrics(tracer.job_id))
        per_job[-1]["fields.max_entry_bits"] = max_entry_bits(
            json.loads(data)) if data else 0

    t_start = time.perf_counter()
    while True:
        argv = write_inputs(w, seed, smoke, workdir, job=len(traced))
        # alternate which side of the pair runs first
        pair = (untraced_job, traced_job)
        for job in pair if len(traced) % 2 == 0 else pair[::-1]:
            job(argv)
        elapsed = time.perf_counter() - t_start
        if smoke or elapsed + untraced[-1] + traced[-1] > seconds:
            break
    tracer.save(workdir / "spans.npz")
    values = {name: statistics.median(job.get(name, 0) for job in per_job)
              for name in per_layer_names()}
    values["trace.job_s"] = statistics.median(traced)
    values["trace.untraced_job_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.job_s"] - values[
        "trace.untraced_job_s"]
    values["trace.overhead_share"] = (values["trace.overhead_s"]
                                      / values["trace.untraced_job_s"])
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}
    lines = [f"{k}: {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"pairs: {len(traced)}")
    lines.append(f"spans written to {workdir / 'spans.npz'}")
    lines += [f"failure: {r}" for r in sorted(set(failures))]
    attempted = len(untraced) + len(traced)
    return {"metrics": metrics, "attempted": attempted,
            "failed": len(failures), "lines": lines}


# ---------------------------------------------------------------------------
# smoke mode
# ---------------------------------------------------------------------------


def smoke() -> int:
    """Each workload at a tiny size: seeds 0 and 1, one traced job, set-up."""
    failed = attempted = 0
    for w in WORKLOADS.values():
        workdir = OUT_DIR / "smoke" / w.name
        expected = load_expected(w, True)
        for seed in (0, 1):
            argv = write_inputs(w, seed, True, workdir)
            res, data = cli_job(argv, workdir)
            reason = check_report(expected, seed, w, res["exit_code"], data)
            attempted += 1
            failed += bool(reason)
            print(f"{w.name} seed {seed}: {reason or 'ok'}")
        setup_time(write_inputs(w, 0, True, workdir), workdir)
        res = run_traced(w, 0, 0.0, workdir, smoke=True)
        attempted += res["attempted"]
        failed += res["failed"]
        print(f"{w.name} traced: "
              f"{res['metrics']['trace.spans'][0]:.0f} spans, "
              f"{res['failed']} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "lambda_homology" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(THREADS_ENV, None)
    sys.path.insert(0, str(SRC))
    # An installed package runs from compiled bytecode: compile it once here,
    # so that no job or set-up probe pays for compiling the sources, whether
    # or not the environment lets the interpreter write bytecode itself.
    compileall.compile_dir(str(SRC / "lambda_homology"), quiet=1)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")

    # "all" runs every workload in turn and prefixes metric names with it
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for k, v in environment().items():
        print(f"env {k}: {v}")
    runner = run_traced if args.trace else run_untraced
    attempted = failed = 0
    metrics = {}
    for name in names:
        w = WORKLOADS[name]
        print(f"workload: {w.name} (seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace})")
        print(f"why: {w.why}")
        res = runner(w, args.seed, args.seconds, OUT_DIR / w.name)
        for line in res["lines"]:
            print(line)
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({f"{prefix}{k}": {"value": v, "unit": u}
                        for k, (v, u) in res["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
