import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import sparsetrig
from sparsetrig import cli
from sparsetrig.blockpoly import BlockSum, BlockTerm
from sparsetrig.cli import main
from sparsetrig.trigpoly import TrigPoly


def run_cli(args):
    return main([str(a) for a in args])


def test_usage_error_empty(tmp_path, capsys):
    rc = run_cli(["approximate", "--out", tmp_path])
    assert rc == 2  # empty config: no kind


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "hadamard", "bogus": 1}))
    rc = run_cli(["build-spectrum", "--config", cfg, "--out", tmp_path])
    assert rc == 2
    report = json.loads((tmp_path / "failure.json").read_text())
    assert "bogus" in report["error"]


def test_build_spectrum_and_determinism(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "hadamard", "eps": "1/n", "n": 120}))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(["build-spectrum", "--config", cfg, "--out", out1,
                    "--seed", "7"]) == 0
    assert run_cli(["build-spectrum", "--config", cfg, "--out", out2,
                    "--seed", "7"]) == 0
    for name in ("spectrum.txt", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["size"] >= 240  # symmetric, 120 positive entries


def test_sharpness_command(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"A": 1, "r": 4, "checked_range": 500}))
    out = tmp_path / "r"
    assert run_cli(["sharpness", "--config", cfg, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["gap_certificate"]["p"] <= 13
    assert manifest["nonresidue_run"]["verified"]


def test_riesz_command(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 30, "n_max": 30, "clt_terms": 30}))
    out = tmp_path / "r"
    rc = run_cli(["riesz", "--config", cfg, "--out", out, "--grid", "8192"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert rc == 0 and manifest["certificates_passed"]
    assert (out / "cosine_diag.csv").exists()


def test_approximate_korner(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "korner", "eps": 0.25, "delta": 0.25}))
    out = tmp_path / "r"
    rc = run_cli(["approximate", "--config", cfg, "--out", out,
                  "--grid", "8192"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["certificates_passed"]


def test_approximate_infeasible_exit_code(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "block", "eps": 0.25, "delta": 0.25,
                               "target": "step", "s": 100000, "a": 3}))
    out = tmp_path / "r"
    rc = run_cli(["approximate", "--config", cfg, "--out", out,
                  "--grid", "16382"])
    assert rc == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["certificates_passed"]
    assert "infeasible" in manifest


def test_represent_zero_engine(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"engine": "stoptime", "target": "zero",
                               "eps": 0.25}))
    out = tmp_path / "r"
    rc = run_cli(["represent", "--config", cfg, "--out", out,
                  "--grid", "16382"])
    assert rc == 0
    assert (out / "stages.csv").exists()


def test_represent_infinity_manifest_is_strict_json(tmp_path):
    # the residual is NaN at the infinite points; residual_l0 skips them
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"engine": "infinity",
                               "target": "plus_infinity_arc", "stages": 0}))
    out = tmp_path / "r"
    assert run_cli(["represent", "--config", cfg, "--out", out,
                    "--grid", "256"]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=reject)
    assert manifest["run"]["residual_l0"] == 0.0


@pytest.mark.parametrize("spectrum, word", [
    ({"kind": "squares", "eps": "bogus"}, "squares"),
    ({"kind": "hadamard", "eps": "bogus"}, "bogus"),
    ({"kind": "hadamard", "w": "k"}, "'w'"),
    ("hadamard", "object"),
], ids=["squares-kind", "unknown-eps", "unknown-key", "not-object"])
def test_represent_ae_rejects_bad_spectrum(tmp_path, spectrum, word):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"engine": "ae", "target": "const",
                               "spectrum": spectrum}))
    out = tmp_path / "r"
    assert run_cli(["represent", "--config", cfg, "--out", out]) == 2
    report = json.loads((out / "failure.json").read_text())
    assert word in report["error"]
    assert not (out / "manifest.json").exists()


def test_console_entrypoint():
    # the child imports the package under test, also from an uninstalled checkout
    src = str(Path(sparsetrig.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sparsetrig.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "build-spectrum" in proc.stdout


def test_unprintable_exact_frequencies_write_headers_only(tmp_path):
    # exact rate 10^5000: more decimal digits than int-to-str allows
    huge = BlockSum([BlockTerm(TrigPoly({0: 1.0}), TrigPoly({-1: 0.5, 1: 0.5}),
                               10 ** 5000)])
    cli._write_poly_csv(tmp_path / "poly.csv", huge)
    run = SimpleNamespace(stages=[SimpleNamespace(poly=huge)])
    cli._write_merged_stream(tmp_path / "merged.csv", run)
    assert (tmp_path / "poly.csv").read_text().splitlines() == ["k,re,im"]
    assert (tmp_path / "merged.csv").read_text().splitlines() == \
        ["order_index,k,re,im"]
