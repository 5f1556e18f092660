import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsetrig
from coeff_oracle import oracle_iter_coeffs
from sparsetrig import cli
from sparsetrig.blockpoly import BlockSum, BlockTerm, LazyRate, ScaledProduct
from sparsetrig.cli import main
from sparsetrig.trigpoly import TrigPoly


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_cli(args):
    """Run the CLI; every JSON file in --out must then parse as strict JSON."""
    args = [str(a) for a in args]
    rc = main(args)
    for path in Path(args[args.index("--out") + 1]).glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)
    return rc


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


@pytest.mark.parametrize("cfg, text", [
    ({"n": 60, "n_max": 0}, "at least 1"),
    ({"n": 60, "clt_terms": 0}, "at least 1"),
    ({"n": 10, "n_max": 11}, "n_max exceeds schedule length"),
    ({"n": 10}, "bound window [20, 10] is empty"),
], ids=["n_max-0", "clt_terms-0", "n_max-past-n", "empty-window"])
def test_riesz_rejects_factor_count_out_of_range(tmp_path, cfg, text):
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    out = tmp_path / "r"
    assert run_cli(["riesz", "--config", tmp_path / "c.json", "--out", out,
                    "--grid", "1024"]) == 2
    assert text in json.loads((out / "failure.json").read_text())["error"]
    assert not (out / "manifest.json").exists()


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


def test_represent_defaults_to_engine_grid(tmp_path):
    # the README's squares example, run without --grid: on 2^14 the lazy
    # rates a(2s)^(k+s) share every factor of two with M and the stage-1
    # S** certificate reads 1.0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"engine": "squares", "target": "const",
                               "stages": 4}))
    out = tmp_path / "r"
    run_cli(["represent", "--config", cfg, "--out", out])
    assert np.load(out / "final_residual.npy").size == 2 * 8191
    manifest = json.loads((out / "manifest.json").read_text())
    stage1 = manifest["run"]["stages"][0]
    assert stage1["n"] == 1 and stage1["certificates"]
    assert all(c["pass"] for c in stage1["certificates"].values())


def test_represent_infinity_manifest_is_strict_json(tmp_path):
    # the residual is NaN at the infinite points; residual_l0 skips them
    # (no stage is built, so the run certifies nothing and exits 1)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"engine": "infinity",
                               "target": "plus_infinity_arc", "stages": 0}))
    out = tmp_path / "r"
    assert run_cli(["represent", "--config", cfg, "--out", out,
                    "--grid", "256"]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run"]["residual_l0"] == 0.0


@pytest.mark.parametrize("engine", ["ae", "squares", "asymptotic_l2",
                                    "infinity", "measure"])
@pytest.mark.parametrize("stages", [0, -2])
def test_represent_without_stages_certifies_nothing(tmp_path, engine, stages):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"engine": engine, "target": "const",
                               "stages": stages}))
    out = tmp_path / "r"
    assert run_cli(["represent", "--config", cfg, "--out", out,
                    "--grid", "256"]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run"]["stages"] == []
    assert manifest["certificates_passed"] is False


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


# The coefficient-CSV writer as it stood before rows were rendered from
# arrays in chunks: csv.writer over rows sorted as Python objects, the rows
# taken one by one from the per-row coefficient oracle.  It is the oracle
# for the chunked writer, which must write the same bytes.

def _oracle_coeff_rows(poly):
    max_digits = sys.get_int_max_str_digits()
    if max_digits and poly.degree_log2() * math.log10(2.0) + 1.0 > max_digits:
        return None
    ks, real, imag = [], array("d"), array("d")
    try:
        for k, c in oracle_iter_coeffs(poly, cli.STREAM_COEFF_CAP):
            ks.append(k)
            real.append(c.real)
            imag.append(c.imag)
    except OverflowError:
        return None
    return ks, real, imag


def _oracle_sorted_rows(rows, key=None):
    ks, real, imag = rows
    order = np.array(ks, dtype=object)
    if key is not None:
        order = key(order)
    for i in np.argsort(order, kind="stable"):
        yield ks[i], repr(real[i]), repr(imag[i])


def _oracle_write_rows_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re", "im"])
        if rows is not None:
            w.writerows(_oracle_sorted_rows(rows))


def _oracle_write_stage_csvs(out, run):
    with open(out / "merged_stream.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["order_index", "k", "re", "im"])
        order = 0
        for stage in run.stages:
            if stage.poly is None:
                continue
            rows = _oracle_coeff_rows(stage.poly)
            _oracle_write_rows_csv(out / f"stage_{stage.index}.csv", rows)
            if rows is None:
                continue
            for row in _oracle_sorted_rows(rows, key=np.abs):
                w.writerow([order, *row])
                order += 1


def assert_csvs_match_oracle(polys):
    """poly.csv of the first polynomial, and the stage files of a run with
    one stage per polynomial and a stage without one after the first,
    byte for byte as the oracle writes them."""
    stage_polys = polys[:1] + [None] + polys[1:]
    run = SimpleNamespace(stages=[SimpleNamespace(index=i + 1, poly=p)
                                  for i, p in enumerate(stage_polys)])
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new"), Path(tmp, "old")
        new.mkdir()
        old.mkdir()
        cli._write_poly_csv(new / "poly.csv", polys[0])
        _oracle_write_rows_csv(old / "poly.csv", _oracle_coeff_rows(polys[0]))
        cli._write_stage_csvs(new, run)
        _oracle_write_stage_csvs(old, run)
        names = sorted(f.name for f in old.iterdir())
        assert sorted(f.name for f in new.iterdir()) == names
        for name in names:
            assert (new / name).read_bytes() == (old / name).read_bytes(), name


# -0.0 and 5e-324 (a subnormal), and values on both sides of repr's switch
# to exponent notation (1e-5 and 1e16)
csv_floats = st.sampled_from([-0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5, 1e-4,
                              9999999999999998.0, 1.0 / 3.0])
csv_freqs = st.one_of(st.integers(-40, 40), st.integers(2 ** 62, 2 ** 70),
                      st.integers(-2 ** 70, -2 ** 62))


@st.composite
def csv_polys(draw):
    """A TrigPoly in random storage order, with ties in |k| from mirrored
    frequencies."""
    items = draw(st.lists(st.tuples(csv_freqs, csv_floats, csv_floats),
                          max_size=30))
    mirrored = draw(st.integers(0, len(items)))
    items += [(-k, im, re) for k, re, im in items[:mirrored]]
    return TrigPoly({k: complex(re, im) for k, re, im in items})


@settings(max_examples=60, deadline=None)
@given(st.lists(csv_polys(), min_size=2, max_size=3), st.integers(1, 7),
       st.integers(1, 40))
def test_coefficient_csvs_match_oracle(polys, chunk_rows, cap):
    # small chunks and a small row cap, so order_index runs on across
    # chunks and stages and the cap truncates before sorting
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        mp.setattr(cli, "STREAM_COEFF_CAP", cap)
        assert_csvs_match_oracle(polys)


def _large_unsorted_poly():
    rng = np.random.default_rng(5)
    ks = rng.permutation(np.arange(-20000, 20000))[:cli.CSV_CHUNK_ROWS + 100]
    return TrigPoly(dict(zip(ks.tolist(), (rng.standard_normal(ks.size)
                                           + 1j * rng.standard_normal(ks.size)).tolist())))


def _block_sum(rate2=101):
    # rows come term by term, payload frequency by carrier frequency
    payload = TrigPoly({2: 0.5, -1: 1.0, 1: 1.0, -2: 0.5})
    return BlockSum([BlockTerm(TrigPoly({1: 0.5, 0: 1.0, -1: 0.5}), payload, 11),
                     BlockTerm(TrigPoly({-1: 0.25j, 1: -0.25j}), payload, rate2)])


def _scaled_product():
    return ScaledProduct(TrigPoly({2: 0.25j, -1: 0.5}), 409, _block_sum())


def _one_sided(sign):
    """A BlockSum with frequencies of one sign only, and a ScaledProduct of
    it: no ties in |k|, and the k and |k| orders agree (sign > 0) or run
    opposite (sign < 0)."""
    payload = TrigPoly({sign * 2: 0.5, sign: -1.0, sign * 3: 0.25j})
    blocks = BlockSum([BlockTerm(TrigPoly({0: 1.0, sign: 0.5}), payload, 11),
                       BlockTerm(TrigPoly({sign: -0.25j}), payload, 101)])
    outer = TrigPoly({sign: 0.5, sign * 4: -1.5})
    return [blocks, ScaledProduct(outer, 2 ** 62, blocks)]


CSV_ORACLE_CASES = {
    "blocksum": lambda: [_block_sum(), _scaled_product()],
    "scaled_product": lambda: [_scaled_product(), _block_sum()],
    "several_chunks": lambda: [_large_unsorted_poly(), _large_unsorted_poly()],
    "lazy": lambda: [_block_sum(LazyRate(1, 3, 40)), _scaled_product()],
    "nonnegative": lambda: _one_sided(+1),
    "negative": lambda: _one_sided(-1),
    "unprintable": lambda: [_block_sum(10 ** 5000), _scaled_product()],
}


@pytest.mark.parametrize("name", sorted(CSV_ORACLE_CASES))
def test_coefficient_csvs_match_oracle_for_block_polys(name):
    assert_csvs_match_oracle(CSV_ORACLE_CASES[name]())


@pytest.mark.parametrize("name, renders", [("nonnegative", 1), ("negative", 2)])
def test_stage_rows_rendered_once_where_orders_agree(tmp_path, name, renders):
    # a stage whose k and |k| orders agree renders each row once for both
    # its stage file and the merged stream; otherwise once for each
    polys = CSV_ORACLE_CASES[name]()
    run = SimpleNamespace(stages=[SimpleNamespace(index=i + 1, poly=p)
                                  for i, p in enumerate(polys)])
    rendered = []
    render = cli._render_rows

    def counting(rows, idx):
        rendered.append(len(idx))
        return render(rows, idx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_render_rows", counting)
        mp.setattr(cli, "CSV_CHUNK_ROWS", 5)
        cli._write_stage_csvs(tmp_path, run)
    assert sum(rendered) == renders * sum(p.spectrum_size() for p in polys)


def test_unprintable_exact_frequencies_write_headers_only(tmp_path):
    # exact rate 10^5000: more decimal digits than int-to-str allows
    huge = BlockSum([BlockTerm(TrigPoly({0: 1.0}), TrigPoly({-1: 0.5, 1: 0.5}),
                               10 ** 5000)])
    cli._write_poly_csv(tmp_path / "poly.csv", huge)
    run = SimpleNamespace(stages=[SimpleNamespace(index=1, poly=huge)])
    cli._write_stage_csvs(tmp_path, run)
    assert (tmp_path / "poly.csv").read_text().splitlines() == ["k,re,im"]
    assert (tmp_path / "stage_1.csv").read_text().splitlines() == ["k,re,im"]
    assert (tmp_path / "merged_stream.csv").read_text().splitlines() == \
        ["order_index,k,re,im"]


INFINITE_TARGET_CONFIGS = {
    **{f"represent-{engine}": ("represent", {"engine": engine, "stages": 2})
       for engine in ("ae", "squares", "asymptotic_l2", "stoptime", "measure")},
    **{f"approximate-{kind}": ("approximate", {"kind": kind, "eps": 0.3,
                                               "delta": 0.3, "s": 150000, "a": 3})
       for kind in ("block", "analytic_block")},
}


@pytest.mark.parametrize("name", sorted(INFINITE_TARGET_CONFIGS))
def test_infinite_targets_refused_outside_infinity_mode(tmp_path, name):
    # `values` reads 0 at the +inf points, so these paths would certify the
    # zero series as a representation of +inf; only `infinity` takes them
    command, body = INFINITE_TARGET_CONFIGS[name]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**body, "target": "plus_infinity_arc"}))
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", out, "--grid", 1022]) == 2
    report = json.loads((out / "failure.json").read_text())
    assert "needs a finite target" in report["error"]
    assert not (out / "manifest.json").exists()
