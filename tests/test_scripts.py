"""Smoke runs of the example scripts: each is loaded by path and its
``main`` run on small arguments, writing its JSON report under tmp_path."""

import importlib.util
import json
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run(name: str, argv: list[str]) -> int:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def test_run_morita(tmp_path, capsys):
    out = tmp_path / "morita.json"
    assert _run("run_morita", ["--max-degree", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["corner_to_circle"]["is_lambda_morphism"]
    assert report["circle_to_classical"]["is_lambda_morphism"]
    assert report["composition_matches_corner_to_classical"]
    assert "tables_agree" in capsys.readouterr().out


def test_run_witness_suite(tmp_path, capsys):
    out = tmp_path / "witness.json"
    argv = ["--max-degree", "2", "--theta-degree", "1", "--out", str(out)]
    assert _run("run_witness_suite", argv) == 0
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["module_witness", "paired_witness"]
    for suite in payload.values():
        assert suite["transport"]["ok"]
        assert suite["span_is_subcomplex"]["valid"]
        assert all(entry["in_theta"] for entry in suite["theta_membership"])
        assert suite["boundary_parity"]["ok"]
    assert "parity ok: True" in capsys.readouterr().out
