"""Tests of the benchmark itself: ``python3 -m pytest bench`` (a few seconds).

They run every workload once at a tiny size (``run.py --smoke``), check the
seeded relabelling and the set-up probe's stop, and check that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, permutation, relabelled_algebra  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_runs_every_workload():
    proc = _run(ROOT, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4 * len(WORKLOADS)


@pytest.mark.parametrize(
    "name", [n for n, w in WORKLOADS.items() if w.structure is not None])
def test_relabelling_is_seeded_and_never_the_identity(name):
    w = WORKLOADS[name]
    dim, mult, unit_support = w.structure()
    for seed in range(1, 20):
        perm = permutation(dim, seed)
        assert sorted(perm) == list(range(dim)) and perm != sorted(perm)
        alg = relabelled_algebra(w, seed)
        assert alg == relabelled_algebra(w, seed)
        assert sorted(alg["mult"]) == sorted(
            [perm[i], perm[j], perm[k], "1"] for i, j, k in mult)
        assert alg["unit"].count("1") == len(unit_support)


def test_setup_probe_stops_at_the_systems_layer(tmp_path):
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*argv):
        return subprocess.run([*probe, *argv], env=env, capture_output=True,
                              text=True, timeout=60)

    stopped = run("verify", "witness", "--kind", "t", "--max-degree", "2",
                  "--theta-degree", "1")
    assert stopped.returncode == 0, stopped.stderr
    assert stopped.stdout == ""
    # a job that never reaches the systems layer is not a set-up
    missed = run("circle", "--max-level", "1", "--out",
                 str(tmp_path / "circle.json"))
    assert missed.returncode == 1
    assert "before reaching" in missed.stderr


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "morita-x3", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_computes_its_expected_result():
    import reference

    assert reference.work() == reference.EXPECTED
    assert reference.cpu_s() > 0
