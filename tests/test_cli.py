"""End-to-end command line runs in subprocesses: exit codes, determinism,
report formats, and error bodies."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import symmetric_group_table
from test_face_golden import TWISTED

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(args, threads=None, cwd=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src")
    env.pop("LAMBDA_HOMOLOGY_THREADS", None)
    if threads is not None:
        env["LAMBDA_HOMOLOGY_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "lambda_homology", *args],
        capture_output=True, text=True, env=env, cwd=cwd or PKG_ROOT,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    """A directory of small system specs used across the CLI tests."""
    root = tmp_path_factory.mktemp("specs")

    def put(name, obj):
        path = root / name
        path.write_text(json.dumps(obj, indent=1))
        return str(path)

    dual = {"builtin": "truncated_polynomial", "order": 2}
    files = {
        "dual_classical": put("dual_classical.json", {
            "construction": "hochschild", "algebra": dual, "max_degree": 3,
        }),
        "dual_circle": put("dual_circle.json", {
            "construction": "higher_hochschild", "algebra": dual,
            "simplicial": {"builtin": "circle"}, "max_degree": 3,
        }),
        "dual_loday": put("dual_loday.json", {
            "construction": "loday", "algebra": dual,
            "simplicial": {"builtin": "circle"}, "max_degree": 3,
        }),
        "upper_circle": put("upper_circle.json", {
            "construction": "higher_hochschild",
            "algebra": {"builtin": "upper_triangular"},
            "simplicial": {"builtin": "circle"}, "max_degree": 3,
        }),
        "upper_secondary": put("upper_secondary.json", {
            "construction": "secondary",
            "algebra": {"builtin": "upper_triangular"},
            "second_algebra": {"builtin": "ground_field"},
            "epsilon": "unit", "max_degree": 3,
        }),
        "upper_classical": put("upper_classical.json", {
            "construction": "hochschild",
            "algebra": {"builtin": "upper_triangular"}, "max_degree": 3,
        }),
        "good_algebra": put("good_algebra.json", {
            "dim": 2, "unit": ["1", "0"],
            "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
        }),
        "bad_algebra": put("bad_algebra.json", {
            "dim": 3, "unit": ["1", "0", "0"],
            "mult": [
                [0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                [0, 2, 2, "1"], [2, 0, 2, "1"],
                [1, 1, 2, "1"], [1, 2, 0, "1"],
            ],
        }),
        "unit_morphism": put("unit_morphism.json", {"builtin": "unit"}),
        "ground": put("ground.json", {"builtin": "ground_field"}),
    }
    files["root"] = str(root)
    return files


# ---------------------------------------------------------------------------
# homology and theta
# ---------------------------------------------------------------------------


def test_homology_dual_classical(specs):
    r = run_cli(["homology", specs["dual_classical"]])
    assert r.returncode == 0, r.stdout + r.stderr
    rep = json.loads(r.stdout)
    assert [e["betti"] for e in rep["entries"]] == [2, 1, 1]
    assert rep["valid_up_to"] == 2


def test_homology_deterministic_across_thread_counts(specs):
    a = run_cli(["homology", specs["dual_circle"]], threads=1)
    b = run_cli(["homology", specs["dual_circle"]], threads=8)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_homology_rejects_bad_thread_env(specs):
    r = run_cli(["homology", specs["dual_classical"]], threads="many")
    assert r.returncode == 1
    body = json.loads(r.stdout)
    assert "LAMBDA_HOMOLOGY_THREADS" in body["message"]


def test_homology_tsv_and_out_file(specs, tmp_path):
    out = tmp_path / "report.tsv"
    r = run_cli(["homology", specs["dual_classical"],
                 "--format", "tsv", "--out", str(out)])
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split("\t") == [
        "n", "dim_theta", "rank_d_n", "rank_d_n_plus_1", "betti"]
    assert lines[1].split("\t") == ["0", "2", "0", "0", "2"]


def test_homology_prime_field_override(specs):
    r = run_cli(["homology", specs["dual_classical"], "--field", "fp:7"])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["field"] == {"kind": "Fp", "p": 7}
    assert [e["betti"] for e in rep["entries"]] == [2, 1, 1]


def test_homology_emit_bases(specs):
    r = run_cli(["homology", specs["upper_circle"], "--emit-bases"])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["theta"]["theta_dims"] == [3, 8, 20, 48]
    assert len(rep["theta"]["bases"]) == 4


def test_theta_command(specs):
    r = run_cli(["theta", specs["upper_circle"], "--format", "tsv"])
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].split("\t") == ["n", "ambient_dim", "theta_dim"]
    assert [l.split("\t") for l in lines[1:]] == [
        ["0", "3", "3"], ["1", "9", "8"], ["2", "27", "20"], ["3", "81", "48"]]


def test_cap_exceeded_exits_2(specs):
    r = run_cli(["homology", specs["dual_classical"], "--cap-dim", "4"])
    assert r.returncode == 2
    body = json.loads(r.stdout)
    assert body["error"] == "ResourceCapError"
    assert body["details"]["cap"] == 4


# On Linux a child's ru_maxrss starts at the resident size of the process
# that spawned it, and this test process can be large.  A small interpreter
# spawns the CLI instead and reports the CLI's exit code and peak (KiB).
SPAWN_AND_MEASURE = """
import os, sys
pid = os.posix_spawn(sys.executable,
                     [sys.executable, "-m", "lambda_homology", *sys.argv[1:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


@pytest.mark.parametrize("construction, degree, extra, first_over", [
    ("sphere2", 9, {}, 7),
    ("secondary", 15, {"second_algebra": {"builtin": "ground_field"},
                       "epsilon": "unit"}, 9),
], ids=["sphere2", "secondary"])
def test_index_cap_stops_before_enumerating(tmp_path, construction, degree,
                                            extra, first_over):
    """Candidate counts grow factorially or exponentially with the degree,
    so the cap is checked on the count before any label is built: the run
    names the first degree over 720 and stays small."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "construction": construction, "algebra": {"builtin": "ground_field"},
        "max_degree": degree, **extra,
    }))
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    r = subprocess.run(
        [sys.executable, "-S", "-c", SPAWN_AND_MEASURE, "homology", str(spec)],
        capture_output=True, text=True, env=env, cwd=PKG_ROOT, timeout=120)
    code, peak_kib = map(int, r.stderr.split()[-2:])
    assert code == 2, r.stdout + r.stderr
    body = json.loads(r.stdout)
    assert body["message"] == "candidate set exceeds cap"
    assert body["details"]["degree"] == first_over
    assert peak_kib < 60 * 1024


# The same under a 1 GiB address-space and a 30 s CPU limit on the CLI,
# printing its CPU seconds too, so that a runaway fails the test instead of
# exhausting the host.
SPAWN_CAPPED = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_CPU, (30, 30))
pid = os.posix_spawn(sys.executable,
                     [sys.executable, "-m", "lambda_homology", *sys.argv[1:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss,
      usage.ru_utime + usage.ru_stime, file=sys.stderr)
"""

Z2 = {"builtin": "group_algebra", "table": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("construction, extra, message, first_over", [
    ("hochschild", {}, "ambient dimension exceeds cap", 17),
    ("higher_hochschild", {}, "ambient dimension exceeds cap", 17),
    ("secondary", {"second_algebra": {"builtin": "ground_field"},
                   "epsilon": "unit"}, "candidate set exceeds cap", 9),
    ("sphere2", {}, "candidate set exceeds cap", 7),
], ids=["hochschild", "higher_hochschild", "secondary", "sphere2"])
def test_mistyped_max_degree_stops_at_the_first_degree_over_a_cap(
        tmp_path, construction, extra, message, first_over):
    """A max degree of 2000 over Z/2: each builder makes its degrees (and
    the builtin circle and sphere2 their levels) one at a time and stops at
    the first over a cap, with the error a max degree of 20 gives, so the
    run exits 2 in under 2 s of CPU and 60 MB."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "construction": construction, "algebra": Z2, "max_degree": 2000, **extra,
    }))
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    r = subprocess.run(
        [sys.executable, "-S", "-c", SPAWN_CAPPED, "homology", str(spec)],
        capture_output=True, text=True, env=env, cwd=PKG_ROOT, timeout=60)
    code, peak_kib, cpu_s = r.stderr.split()[-3:]
    assert int(code) == 2, r.stdout + r.stderr
    body = json.loads(r.stdout)
    assert body["message"] == message
    assert body["details"]["degree"] == first_over
    assert float(cpu_s) < 2 and int(peak_kib) < 60 * 1024


DUAL = {"builtin": "truncated_polynomial", "order": 2}


def test_mistyped_morita_max_degree_stops_at_the_first_degree_over_a_cap(tmp_path):
    """``verify morita`` builds its circle only up to the first level whose
    matrix-level system is over a cap, as ``homology`` does, so a max
    degree of 2000 on k[x]/(x^2) exits 2 with the error a max degree of 20
    gives, in under 2 s of CPU and 60 MB."""
    algebra = tmp_path / "dual.json"
    algebra.write_text(json.dumps(DUAL))
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    outputs = []
    for degree in ("2000", "20"):
        r = subprocess.run(
            [sys.executable, "-S", "-c", SPAWN_CAPPED, "verify", "morita",
             "--algebra", str(algebra), "--max-degree", degree],
            capture_output=True, text=True, env=env, cwd=PKG_ROOT, timeout=60)
        code, peak_kib, cpu_s = r.stderr.split()[-3:]
        assert int(code) == 2, r.stdout + r.stderr
        assert float(cpu_s) < 2 and int(peak_kib) < 60 * 1024
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1]
    body = json.loads(outputs[0])
    assert body["message"] == "ambient dimension exceeds cap"
    assert body["details"] == {"cap": 200000, "degree": 17, "dim": 262144}


# The whole stdout of ``verify`` runs that stop at a cap: the witness
# suites' theta is checked against the caps on the suite's own system, and
# the Morita circle is lowered to the matrix-level system's first level
# over a cap, without changing which error a run ends in.
OVER_CAP_RUNS = {
    "witness-t-theta3": (
        ["verify", "witness", "--kind", "t", "--max-degree", "3",
         "--theta-degree", "3"],
        "ambient dimension exceeds cap", {"cap": 200000, "degree": 3, "dim": 1048576}),
    "witness-w-9": (
        ["verify", "witness", "--kind", "w", "--max-degree", "9"],
        "ambient dimension exceeds cap", {"cap": 200000, "degree": 8, "dim": 262144}),
    "witness-w-cap-index": (
        ["verify", "witness", "--kind", "w", "--max-degree", "3", "--cap-index", "1"],
        "candidate set exceeds cap", {"cap": 1, "degree": 1, "position": 0, "size": 2}),
    "morita-dual-7": (
        ["verify", "morita", "--algebra", "DUAL", "--max-degree", "7"],
        "ambient dimension exceeds cap", {"cap": 200000, "degree": 5, "dim": 262144}),
    "morita-dual-cap-index": (
        ["verify", "morita", "--algebra", "DUAL", "--max-degree", "20",
         "--cap-index", "1"],
        "candidate set exceeds cap", {"cap": 1, "degree": 1, "position": 0, "size": 2}),
}


@pytest.mark.parametrize("case", sorted(OVER_CAP_RUNS))
def test_verify_over_a_cap_prints_the_first_cap_error(tmp_path, case):
    argv, message, details = OVER_CAP_RUNS[case]
    algebra = tmp_path / "dual.json"
    algebra.write_text(json.dumps(DUAL))
    r = run_cli([str(algebra) if a == "DUAL" else a for a in argv])
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == json.dumps(
        {"details": details, "error": "ResourceCapError", "message": message},
        sort_keys=True, indent=2) + "\n"


def measure_s3_circle_four(tmp_path, command, *flags):
    """``command`` on S3 on circle(4) over F_2147483629, spawned and
    measured: the finished run, which exited 0, and its peak RSS in KiB."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "construction": "higher_hochschild",
        "algebra": {"builtin": "group_algebra", "table": symmetric_group_table(3)},
        "simplicial": {"builtin": "circle"}, "max_degree": 4,
    }))
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    r = subprocess.run(
        [sys.executable, "-S", "-c", SPAWN_AND_MEASURE, command, str(spec),
         "--field", "fp:2147483629", *flags],
        capture_output=True, text=True, env=env, cwd=PKG_ROOT, timeout=300)
    code, peak_kib = map(int, r.stderr.split()[-2:])
    assert code == 0, r.stdout + r.stderr
    return r, peak_kib


def test_s3_circle_four_homology_peak_rss(tmp_path):
    """``homology`` of S3 on circle(4) over F_2147483629, top ambient 7776:
    theta's condition blocks eliminated as they are built, with rows
    released once they reduce to zero or the kernel is read off them, keep
    the CLI's peak RSS under 41 MB (45.2 MB with every condition row of a
    degree stacked before its elimination)."""
    r, peak_kib = measure_s3_circle_four(tmp_path, "homology")
    assert [e["betti"] for e in json.loads(r.stdout)["entries"]] == [6, 0, 7, 0]
    assert peak_kib < 41 * 1024


def test_s3_circle_four_theta_bases_peak_rss(tmp_path):
    """``theta --emit-bases`` of S3 on circle(4) over F_2147483629: each
    degree's reduced echelon basis is read off its one elimination, whose
    pivots sit at each row's last column, and none is eliminated again to
    be emitted, so the CLI's peak RSS stays under 42 MB (58.3 MB when every
    kernel-shaped basis was canonicalized by a second elimination)."""
    r, peak_kib = measure_s3_circle_four(tmp_path, "theta", "--emit-bases")
    report = json.loads(r.stdout)
    assert report["theta_dims"] == [6, 33, 172, 888, 4624]
    assert [b["dim"] for b in report["bases"]] == report["theta_dims"]
    assert peak_kib < 42 * 1024


# The CLI under a 1 GiB address-space limit: a run that builds a table far
# over the caps fails with a MemoryError there instead of growing until
# the machine runs out of memory.
UNDER_ONE_GIB = """
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.argv[0] = "lambda_homology"
runpy.run_module("lambda_homology", run_name="__main__", alter_sys=True)
"""

GROUND = {"builtin": "ground_field"}


@pytest.mark.parametrize("spec, argv, what, entry, value", [
    ({"algebra": {"builtin": "truncated_polynomial", "order": 3000}}, [],
     "algebra", "order", 3000),
    ({"algebra": {"dim": 100000, "unit": []}}, [], "algebra", "dim", 100000),
    ({"algebra": {"builtin": "matrix", "inner": GROUND, "size": 300}}, [],
     "algebra", "size", 300),
    ({"algebra": GROUND, "bimodule": {"dim": 10 ** 9}}, [],
     "bimodule", "dim", 10 ** 9),
    (None, ["verify", "morita", "--matrix-size", "400", "--max-degree", "2"],
     "algebra", "size", 400),
], ids=["order", "dim", "matrix-size", "bimodule-dim", "morita-size"])
def test_product_table_over_the_cap_is_refused_before_it_is_built(
        tmp_path, spec, argv, what, entry, value):
    """An algebra's product table has dim^2 cells, a bimodule's actions
    dim x (algebra dim) each; one over ``--cap-dim`` exits 2 naming the
    spec entry that sets its size, before the table is allocated."""
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"construction": "hochschild",
                                    "max_degree": 2, **spec}))
        argv = ["homology", str(path)]
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    r = subprocess.run([sys.executable, "-c", UNDER_ONE_GIB, *argv],
                       capture_output=True, text=True, env=env, cwd=PKG_ROOT,
                       timeout=60)
    assert r.returncode == 2, r.stdout + r.stderr[-2000:]
    body = json.loads(r.stdout)
    assert body["error"] == "ResourceCapError"
    assert body["message"] == f"{what} table exceeds cap"
    assert body["details"]["entry"] == entry
    assert body["details"]["value"] == value
    assert body["details"]["cap"] == 200000


@pytest.mark.parametrize("flag, value", [
    ("--cap-dim", "0"), ("--cap-index", "0"), ("--cap-dim", "-3"),
], ids=["dim-zero", "index-zero", "dim-negative"])
def test_cap_below_one_exits_1(specs, flag, value):
    r = run_cli(["homology", specs["dual_classical"], flag, value])
    assert r.returncode == 1
    body = json.loads(r.stdout)
    assert body["error"] == "ValidationError"
    assert flag in body["message"]
    assert body["details"]["value"] == int(value)


# The two-sphere reports, bases included, byte for byte: theta and its
# homology do not depend on the order of the face candidates.
SPHERE2_ALGEBRAS = {"upper": ({"builtin": "upper_triangular"}, 4),
                    "twisted": (TWISTED, 3)}
SPHERE2_REPORTS = {
    "upper/q/homology":
        "af402a5dce0bf7c5172daa62515cc27efbfc042e10a356fc142a12e901c20d2b",
    "upper/q/theta":
        "743c040386d69c1ca1c50ec4276443e0c61167e03f65b2c751fbe0bc075128fa",
    "upper/fp:7/homology":
        "132087681fb97738975753b4f5a5244bab427343c8942405f8188fb292ff7042",
    "upper/fp:7/theta":
        "37738a92702af89d728da14f1b8eda85fb66c1cd9a328ec481c27edc1c87a42d",
    "twisted/q/homology":
        "dc034bb458dfb74b23a66e6bcede90c823d08ab5f005025e1c8c822d3d9ff6fe",
    "twisted/q/theta":
        "0d1a1a59f48e5d39dc8b9a68771503d0d82b4786f26f59560c2c7bdfd827f9a6",
    "twisted/fp:7/homology":
        "be2abbf8ee70b101a9a473159f48fee3736fdba7e94b6af82ca058f8733626b6",
    "twisted/fp:7/theta":
        "7cb3c799eebb2eb908a3c81e3ce1df0e08142ab603addcd8b0deafbf58beade5",
}


def _sphere2_spec(tmp_path, algebra, degree):
    spec = tmp_path / "sphere2.json"
    spec.write_text(json.dumps({"construction": "sphere2", "algebra": algebra,
                                "max_degree": degree}))
    return str(spec)


@pytest.mark.parametrize("case", sorted(SPHERE2_REPORTS))
def test_sphere2_report_digest(tmp_path, case):
    kind, field, command = case.split("/")
    spec = _sphere2_spec(tmp_path, *SPHERE2_ALGEBRAS[kind])
    r = run_cli([command, spec, "--field", field, "--emit-bases"])
    assert r.returncode == 0, r.stdout + r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == SPHERE2_REPORTS[case]


M2_OVER_K = {"builtin": "matrix", "size": 2, "inner": {"builtin": "ground_field"}}

# SHA-256 of the full stdout of each command; the upper-triangular algebra's
# regular actions differ on the left and the right.  Over F_2147483629 the
# bases hold p - 1, printed in [0, p) whatever the field stores.
CLI_REPORTS = {
    "witness-w": (
        (["verify", "witness", "--kind", "w", "--max-degree", "2"], None),
        "b7197c613cb4279c50cfde1ff4f8c5fd102d1df77cad25646b6e5aadfbcc549e"),
    "witness-t": (
        (["verify", "witness", "--kind", "t", "--max-degree", "3",
          "--theta-degree", "1"], None),
        "0dcc127aad309c868f7aabcc126742eb301d9b02e1a33fbfa724df5b01ff4a12"),
    "m2-circle3-q-bases": (
        (["homology", "--emit-bases"], M2_OVER_K),
        "6c63a7eb5f6be07499c0402c78270d15ab02a7c2ff6635bb3b17df95ce329d07"),
    "upper-circle3-f7-bases": (
        (["homology", "--emit-bases", "--field", "fp:7"],
         {"builtin": "upper_triangular"}),
        "049533bbceb264dd853d3c500849f6ed005461c191526afa97e440315bd5b438"),
    "upper-circle3-fbig-bases": (
        (["homology", "--emit-bases", "--field", "fp:2147483629"],
         {"builtin": "upper_triangular"}),
        "292f00de09bc0041183a7d9a313f3e78554465412423d4504a9ae46dfe16ca42"),
}


@pytest.mark.parametrize("case", sorted(CLI_REPORTS))
def test_cli_report_digest(tmp_path, case):
    (args, algebra), digest = CLI_REPORTS[case]
    if algebra is not None:
        spec = tmp_path / "circle3.json"
        spec.write_text(json.dumps({
            "construction": "higher_hochschild", "algebra": algebra,
            "simplicial": {"builtin": "circle"}, "max_degree": 3}))
        args = [args[0], str(spec), *args[1:]]
    r = run_cli(args)
    assert r.returncode == 0, r.stdout + r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


UPPER_SPHERE2 = "triangular(upper_triangular_2x2,upper_triangular_2x2)"


@pytest.mark.parametrize("command, degree, code, body", [
    ("homology", 0, 0, {"entries": [], "field": {"kind": "Q"}, "max_degree": 0,
                        "system": UPPER_SPHERE2, "valid_up_to": -1}),
    ("theta", 0, 0, {"ambient_dims": [3], "field": {"kind": "Q"},
                     "max_degree": 0, "system": UPPER_SPHERE2,
                     "theta_dims": [3]}),
    ("homology", -1, 1, {"details": {"max_degree": -1},
                         "error": "ValidationError",
                         "message": "max_degree must be nonnegative"}),
], ids=["homology-0", "theta-0", "homology-negative"])
def test_sphere2_low_degree_bodies(tmp_path, command, degree, code, body):
    spec = _sphere2_spec(tmp_path, {"builtin": "upper_triangular"}, degree)
    r = run_cli([command, spec])
    assert r.returncode == code
    assert r.stdout == json.dumps(body, sort_keys=True, indent=2) + "\n"


def test_missing_spec_file_exits_1(specs):
    r = run_cli(["homology", os.path.join(specs["root"], "nope.json")])
    assert r.returncode == 1
    body = json.loads(r.stdout)
    assert "nope.json" in body["message"]


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}",
                                     b"[" * 100_000 + b"]" * 100_000],
                         ids=["directory", "not-utf8", "nested-too-deep"])
def test_unreadable_input_exits_1(tmp_path, content):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    r = run_cli(["homology", str(path)])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    body = json.loads(r.stdout)
    assert body["error"] == "ValidationError"
    assert str(path) in body["message"]


def test_relative_spec_path_in_a_subdirectory(tmp_path):
    """A relative spec path is read once from the working directory, and
    the files the spec names are read next to it."""
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "algebra.json").write_text(json.dumps(
        {"builtin": "truncated_polynomial", "order": 2}))
    (sub / "spec.json").write_text(json.dumps(
        {"construction": "hochschild", "algebra": "algebra.json",
         "max_degree": 2}))
    r = run_cli(["homology", os.path.join("sub", "spec.json")],
                cwd=str(tmp_path))
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout == run_cli(["homology", str(sub / "spec.json")]).stdout


@pytest.mark.parametrize("literal", ["1/0", "abc"])
def test_bad_prime_field_literal_exits_1(tmp_path, literal):
    spec = tmp_path / "bad_literal.json"
    spec.write_text(json.dumps({
        "construction": "hochschild", "field": {"kind": "Fp", "p": 7},
        "algebra": {"dim": 1, "unit": ["1"], "mult": [[0, 0, 0, literal]]},
        "max_degree": 2,
    }))
    r = run_cli(["homology", str(spec)])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    body = json.loads(r.stdout)
    assert body["error"] == "ValidationError"
    assert body["details"]["literal"] == literal
    assert repr(literal) in body["message"]


@pytest.mark.parametrize("where", ["flag", "spec"])
def test_prime_beyond_exact_test_exits_1(specs, tmp_path, where):
    # 2^89 - 1 is prime; the bound itself is composite.  Both lie beyond the
    # range where primality is decided exactly, and both are refused at once.
    if where == "flag":
        p = 618970019642690137449562111
        args = ["homology", specs["dual_classical"], "--field", f"fp:{p}"]
    else:
        p = 318665857834031151167461
        spec = tmp_path / "big_prime.json"
        spec.write_text(json.dumps({
            "construction": "hochschild", "field": {"kind": "Fp", "p": p},
            "algebra": {"builtin": "truncated_polynomial", "order": 2},
            "max_degree": 2,
        }))
        args = ["homology", str(spec)]
    r = run_cli(args, timeout=60)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    body = json.loads(r.stdout)
    assert body["error"] == "ValidationError"
    assert body["details"] == {"p": p, "bound": 318665857834031151167461}


@pytest.mark.parametrize("field, value", [
    ("max_degree", "x"),
    ("max_degree", 2.5),
    ("max_degree", True),
    ("mult", [[0, 0, 0, "1"], [0, 0, "1"]]),
    ("mult", [["a", 0, 0, "1"]]),
], ids=["degree-string", "degree-float", "degree-bool", "mult-three-items",
        "mult-string-index"])
def test_malformed_integer_in_spec_exits_1(tmp_path, field, value):
    spec = {
        "construction": "hochschild",
        "algebra": {"dim": 1, "unit": ["1"], "mult": [[0, 0, 0, "1"]]},
        "max_degree": 2,
    }
    if field == "mult":
        spec["algebra"]["mult"] = value
        entry = value[-1]
    else:
        spec[field] = value
        entry = value
    path = tmp_path / "bad_integer.json"
    path.write_text(json.dumps(spec))
    r = run_cli(["homology", str(path)])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    body = json.loads(r.stdout)
    assert body["error"] == "ValidationError"
    assert field in body["message"]
    assert body["details"]["entry"] == entry


@pytest.mark.parametrize("where, value, named, entry", [
    ("algebra", 5, "algebra", 5),
    ("bimodule", 5, "bimodule", 5),
    ("mult", 5, "mult", 5),
    ("unit", 5, "unit", 5),
    ("table", 5, "Cayley table", 5),
    ("table", [[0, "1"], [1, 0]], "Cayley table entry", "1"),
], ids=["algebra-int", "bimodule-int", "mult-int", "unit-int", "table-int",
        "table-string-entry"])
def test_malformed_spec_value_exits_1(tmp_path, where, value, named, entry):
    spec = {
        "construction": "hochschild",
        "algebra": {"dim": 1, "unit": ["1"], "mult": [[0, 0, 0, "1"]]},
        "max_degree": 2,
    }
    if where in ("algebra", "bimodule"):
        spec[where] = value
    elif where == "table":
        spec["algebra"] = {"builtin": "group_algebra", "table": value}
    else:
        spec["algebra"][where] = value
    path = tmp_path / "bad_value.json"
    path.write_text(json.dumps(spec))
    r = run_cli(["homology", str(path)])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    body = json.loads(r.stdout)
    assert body["error"] == "ValidationError"
    assert named in body["message"]
    assert body["details"]["entry"] == entry


def test_usage_error_exits_1():
    r = run_cli(["homology"])
    assert r.returncode == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_simplicial_circle():
    r = run_cli(["verify", "simplicial", "--circle", "4"])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["passed"] is True
    assert rep["violations"] == []


def test_verify_algebra_pass(specs):
    r = run_cli(["verify", "algebra", "--input", specs["good_algebra"]])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["passed"] is True


def test_verify_algebra_fail_names_triple(specs):
    r = run_cli(["verify", "algebra", "--input", specs["bad_algebra"]])
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["passed"] is False
    kinds = {v["kind"] for v in rep["violations"]}
    assert "associativity" in kinds
    first = next(v for v in rep["violations"] if v["kind"] == "associativity")
    assert "triple" in first


def test_verify_morphism(specs):
    r = run_cli(["verify", "morphism", "--input", specs["unit_morphism"],
                 "--source", specs["ground"], "--target", specs["good_algebra"]])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["passed"] is True


def test_verify_subcomplex(specs, tmp_path):
    subs = {"subspaces": [
        {"vectors": [["1", "0"], ["0", "1"]]},
        {"vectors": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                     ["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
    ]}
    path = tmp_path / "subs.json"
    path.write_text(json.dumps(subs))
    spec = {"construction": "hochschild",
            "algebra": {"builtin": "truncated_polynomial", "order": 2},
            "max_degree": 1}
    spec_path = tmp_path / "sys.json"
    spec_path.write_text(json.dumps(spec))
    r = run_cli(["verify", "subcomplex", "--spec", str(spec_path),
                 "--subspaces", str(path)])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["passed"] is True


def test_verify_morita(specs):
    r = run_cli(["verify", "morita", "--matrix-size", "2", "--max-degree", "3"])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["passed"] is True
    assert rep["tables_agree"] is False
    assert rep["composite_induces_isomorphism"] is True
    assert set(rep["checks"]) == {
        "corner_map_is_lambda_morphism",
        "identity_map_is_lambda_morphism",
        "composition_matches_corner_to_classical",
        "composite_induces_isomorphism",
    }


def test_verify_witness_w():
    r = run_cli(["verify", "witness", "--kind", "w", "--max-degree", "4"])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["passed"] is True
    assert rep["transport"]["ok"] is True


def test_verify_witness_t():
    r = run_cli(["verify", "witness", "--kind", "t", "--max-degree", "4",
                 "--theta-degree", "2"])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["passed"] is True


@pytest.mark.parametrize("subspaces, named", [
    ([], "subspaces file"),
    ({"subspaces": [5, {"vectors": []}]}, "subspaces entry"),
    ({"subspaces": [{"vectors": [5]}, {"vectors": []}]}, "vector"),
], ids=["file-list", "entry-int", "vector-int"])
def test_verify_subcomplex_malformed_exits_1(specs, tmp_path, subspaces, named):
    path = tmp_path / "subs.json"
    path.write_text(json.dumps(subspaces))
    r = run_cli(["verify", "subcomplex", "--spec", specs["dual_classical"],
                 "--max-degree", "1", "--subspaces", str(path)])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    body = json.loads(r.stdout)
    assert body["error"] == "ValidationError"
    assert body["message"].startswith(named)


def test_verify_witness_malformed_elements_exits_1(tmp_path):
    path = tmp_path / "elements.json"
    path.write_text(json.dumps({"e": 5, "f": ["1", "0", "0", "1"]}))
    r = run_cli(["verify", "witness", "--kind", "t", "--max-degree", "1",
                 "--elements", str(path)])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    body = json.loads(r.stdout)
    assert body["error"] == "ValidationError"
    assert body["details"]["entry"] == 5


def test_verify_witness_theta_above_max_degree_exits_1():
    r = run_cli(["verify", "witness", "--kind", "t", "--max-degree", "1",
                 "--theta-degree", "3"])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    body = json.loads(r.stdout)
    assert body["error"] == "ValidationError"
    assert body["details"] == {"theta_degree": 3, "max_degree": 1}


def test_verify_witness_reads_the_algebra_files_field(tmp_path):
    """The --algebra file's own field applies, and --elements is read in
    it: 6 is 1 in F_5, so e = m = 6 e_11 is a witness pair."""
    algebra = tmp_path / "k5.json"
    algebra.write_text(json.dumps(
        {"builtin": "ground_field", "field": {"kind": "Fp", "p": 5}}))
    elements = tmp_path / "elements.json"
    elements.write_text(json.dumps(
        {"e": ["6", "0", "0", "0"], "m": ["6", "0", "0", "0"]}))
    r = run_cli(["verify", "witness", "--kind", "w", "--max-degree", "1",
                 "--algebra", str(algebra), "--elements", str(elements)])
    assert r.returncode == 0, r.stdout + r.stderr
    assert json.loads(r.stdout)["passed"] is True


def test_verify_morphism_across_fields_exits_1(tmp_path):
    dual = {"builtin": "truncated_polynomial", "order": 2}
    source = tmp_path / "source.json"
    source.write_text(json.dumps(dual))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({**dual, "field": {"kind": "Fp", "p": 5}}))
    mor = tmp_path / "map.json"
    mor.write_text(json.dumps({"matrix": [[0, 0, "1"], [1, 1, "1/2"]]}))
    r = run_cli(["verify", "morphism", "--input", str(mor),
                 "--source", str(source), "--target", str(target)])
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["passed"] is False
    assert rep["violations"] == ["morphism source is over Q but target over F5"]


def test_circle_max_level_is_truncated_at_max_degree(tmp_path):
    """A circle spec that states its own max_level is truncated at
    max_degree, as an explicit simplicial set is."""
    tables = []
    for circle in ({"builtin": "circle", "max_level": 4},
                   {"builtin": "circle"}):
        path = tmp_path / "circle_spec.json"
        path.write_text(json.dumps({
            "construction": "higher_hochschild",
            "algebra": {"builtin": "truncated_polynomial", "order": 2},
            "simplicial": circle, "max_degree": 2,
        }))
        r = run_cli(["homology", str(path)])
        assert r.returncode == 0, r.stdout + r.stderr
        tables.append([e["betti"] for e in json.loads(r.stdout)["entries"]])
    assert tables == [[2, 1], [2, 1]]


def test_truncated_circle_is_labelled_by_its_level(tmp_path):
    """A builtin circle cut down to --max-degree names the level it has; an
    explicit simplicial set keeps its own label."""
    circle4 = run_cli(["circle", "--max-level", "4", "--emit"])
    explicit = {**json.loads(circle4.stdout)["simplicial"], "label": "mine"}
    results = []
    for simplicial in ({"builtin": "circle", "max_level": 4}, explicit):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "construction": "higher_hochschild",
            "algebra": {"builtin": "truncated_polynomial", "order": 2},
            "simplicial": simplicial,
        }))
        r = run_cli(["homology", str(path), "--max-degree", "2"])
        assert r.returncode == 0, r.stdout + r.stderr
        rep = json.loads(r.stdout)
        results.append((rep["system"], [e["betti"] for e in rep["entries"]]))
    assert results == [
        ("simplicial(k[x]/(x^2),k[x]/(x^2),circle(2))", [2, 1]),
        ("simplicial(k[x]/(x^2),k[x]/(x^2),mine)", [2, 1]),
    ]


def test_builtin_circle_level_is_checked_by_its_reader(tmp_path):
    """Lowering a builtin circle's max_level to --max-degree leaves a bad
    value for the simplicial reader to refuse."""
    path = tmp_path / "spec.json"
    for level, message in (("4", "max_level must be an integer"),
                           (4.0, "max_level must be an integer"),
                           (True, "max_level must be an integer"),
                           (0, "circle needs max_level >= 1")):
        path.write_text(json.dumps({
            "construction": "higher_hochschild",
            "algebra": {"builtin": "truncated_polynomial", "order": 2},
            "simplicial": {"builtin": "circle", "max_level": level},
        }))
        r = run_cli(["homology", str(path), "--max-degree", "2"])
        assert r.returncode == 1, (level, r.stdout + r.stderr)
        body = json.loads(r.stdout)
        assert (body["error"], body["message"]) == ("ValidationError", message)


def test_verify_morphism_unreadable_files_answer_alike(specs, tmp_path):
    """A missing --input and a missing --source both give the
    ValidationError body, not one of them a failed check report."""
    missing = str(tmp_path / "missing.json")
    bodies = []
    for input_, source in ((missing, specs["ground"]),
                           (specs["unit_morphism"], missing)):
        r = run_cli(["verify", "morphism", "--input", input_,
                     "--source", source, "--target", specs["good_algebra"]])
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        bodies.append(json.loads(r.stdout))
    for body in bodies:
        assert sorted(body) == ["details", "error", "message"]
        assert body["error"] == "ValidationError"
        assert body["message"].startswith(f"cannot read input file {missing}")


# ---------------------------------------------------------------------------
# morphism builtins
# ---------------------------------------------------------------------------


def _secondary_spec(tmp_path, second, epsilon):
    path = tmp_path / "secondary.json"
    path.write_text(json.dumps({
        "construction": "secondary",
        "algebra": {"builtin": "upper_triangular"},
        "second_algebra": second, "epsilon": epsilon, "max_degree": 2,
    }))
    return str(path)


def test_identity_epsilon_as_string_or_object(tmp_path):
    second = {"builtin": "upper_triangular"}
    reports = []
    for epsilon in ("identity", {"builtin": "identity"}):
        r = run_cli(["homology", _secondary_spec(tmp_path, second, epsilon)])
        assert r.returncode == 0, r.stdout + r.stderr
        reports.append(r.stdout)
    assert reports[0] == reports[1]
    assert [e["betti"] for e in json.loads(reports[0])["entries"]] == [2, 0]


@pytest.mark.parametrize("epsilon", ["identity", {"builtin": "identity"}],
                         ids=["string", "object"])
def test_identity_epsilon_needs_equal_dimensions(tmp_path, epsilon):
    spec = _secondary_spec(tmp_path, {"builtin": "ground_field"}, epsilon)
    r = run_cli(["homology", spec])
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    body = json.loads(r.stdout)
    assert body["error"] == "ValidationError"
    assert body["message"] == "identity morphism needs equal dimensions"


# ---------------------------------------------------------------------------
# compare and circle
# ---------------------------------------------------------------------------


def test_compare_equal(specs):
    r = run_cli(["compare", specs["dual_loday"], specs["dual_circle"],
                 "--betti"])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["equal"] is True
    assert rep["first_difference"] is None


def test_compare_secondary_degenerates(specs):
    r = run_cli(["compare", specs["upper_secondary"],
                 specs["upper_classical"]])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["equal"] is True


def test_compare_unequal_exits_1(specs):
    r = run_cli(["compare", specs["dual_classical"], specs["upper_classical"]])
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["equal"] is False
    assert rep["first_difference"]["kind"] == "dimension"


def test_circle_command(tmp_path):
    out = tmp_path / "circle.json"
    r = run_cli(["circle", "--max-level", "3", "--emit", "--out", str(out)])
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["sizes"] == [1, 2, 3, 4]
    assert rep["valid"] is True
    assert "faces" in rep["simplicial"]


def test_reports_are_bytewise_stable(specs):
    """The same invocation twice gives identical bytes on stdout."""
    for args in (["homology", specs["upper_circle"]],
                 ["verify", "witness", "--kind", "w", "--max-degree", "3"],
                 ["compare", specs["dual_loday"], specs["dual_circle"]]):
        a = run_cli(args)
        b = run_cli(args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode
