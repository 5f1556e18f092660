import csv
import json
import math
import os
import re
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
from sparsetrig import approximants, cli, targets
from sparsetrig.blockpoly import BlockSum, BlockTerm, LazyRate, ScaledProduct
from sparsetrig.circle import CircleGrid, SampledFunction
from sparsetrig.cli import main
from sparsetrig.approximants import analytic_korner
from sparsetrig.engines import (run_infinity_mode, run_squares_engine,
                                run_stoptime_engine)
from sparsetrig.targets import make_target
from sparsetrig.trigpoly import TrigPoly
from structure_loader import load_structure


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


#: runs whose records span every shape: plain requirements, the structural
#: containment record (checked/reasons), stage certificates, the copied S**
#: measure and the reported window norm (bound null)
CERTIFICATE_RUNS = [
    ("approximate", {"kind": "korner", "eps": 0.25, "delta": 0.25}, 8192),
    ("approximate", {"kind": "block", "eps": 0.3, "delta": 0.3, "target": "const",
                     "s": 8000, "a": 3}, 1018),
    ("represent", {"engine": "squares", "target": "const", "stages": 1}, 1018),
    ("represent", {"engine": "asymptotic_l2", "target": "const", "stages": 1}, 1018),
]


def test_every_certificate_comes_from_one_constructor(tmp_path, monkeypatch):
    made = approximants.certificate
    monkeypatch.setattr(approximants, "certificate",
                        lambda *args, **details: made(*args, dummy=1, **details))
    records = []
    for i, (command, body, grid) in enumerate(CERTIFICATE_RUNS):
        cfg = tmp_path / f"c{i}.json"
        cfg.write_text(json.dumps(body))
        out = tmp_path / f"r{i}"
        assert run_cli([command, "--config", cfg, "--out", out, "--grid", grid]) in (0, 1)
        if command == "approximate":
            reqs = json.loads((out / "report.json").read_text())["requirements"]
            assert all(r["requirement"] == name for name, r in reqs.items())
            records += reqs.values()
        else:
            stages = json.loads((out / "manifest.json").read_text())["run"]["stages"]
            assert stages and all(st["certificates"] for st in stages)
            records += [r for st in stages for r in st["certificates"].values()]
    assert {"checked", "reasons"} <= set().union(*records)
    assert any(r["bound"] is None for r in records)
    for r in records:
        assert r["dummy"] == 1
        assert r["pass"] == ((r["bound"] is None or r["measured"] < r["bound"])
                             and not r.get("reasons"))


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
# for the chunked writer, which must write the same bytes.  Only a TrigPoly
# whose frequencies print in decimal is written as CSV; any other
# polynomial is written as its structure record.

def _oracle_flat(poly):
    max_digits = sys.get_int_max_str_digits()
    return isinstance(poly, TrigPoly) and not (
        max_digits and poly.degree_log2() * math.log10(2.0) + 1.0 > max_digits)


def _oracle_coeff_rows(poly):
    ks, real, imag = [], array("d"), array("d")
    for k, c in oracle_iter_coeffs(poly):
        ks.append(k)
        real.append(c.real)
        imag.append(c.imag)
    return ks, real, imag


def _oracle_sorted_rows(rows):
    ks, real, imag = rows
    for i in np.argsort(np.array(ks, dtype=object), kind="stable"):
        yield ks[i], repr(real[i]), repr(imag[i])


def _oracle_write_rows_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re", "im"])
        w.writerows(_oracle_sorted_rows(rows))


def _oracle_write_stage_csvs(out, run):
    for stage in run.stages:
        if _oracle_flat(stage.poly):
            _oracle_write_rows_csv(out / f"stage_{stage.index}.csv",
                                   _oracle_coeff_rows(stage.poly))


def assert_same_values(x, y, grids=(1022, 16382)):
    with np.errstate(all="ignore"):
        for m in grids:
            grid = CircleGrid(m)
            assert x.values(grid).tobytes() == y.values(grid).tobytes()


def assert_csvs_match_oracle(polys):
    """poly.* of the first polynomial, and the stage files of a run with one
    stage per polynomial and a stage without one after the first.  The CSVs
    match the oracle's byte for byte; every other polynomial has a structure
    record instead, which rebuilds it."""
    stage_polys = polys[:1] + [None] + polys[1:]
    run = SimpleNamespace(stages=[SimpleNamespace(index=i + 1, poly=p)
                                  for i, p in enumerate(stage_polys)])
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new"), Path(tmp, "old")
        new.mkdir()
        old.mkdir()
        cli._write_poly(new, "poly", polys[0])
        if _oracle_flat(polys[0]):
            _oracle_write_rows_csv(old / "poly.csv", _oracle_coeff_rows(polys[0]))
        cli._write_stage_outputs(new, run)
        _oracle_write_stage_csvs(old, run)
        names = sorted(f.name for f in old.iterdir())
        assert sorted(f.name for f in new.glob("*.csv")) == names
        for name in names:
            assert (new / name).read_bytes() == (old / name).read_bytes(), name
        structured = {"poly": polys[0]} if not _oracle_flat(polys[0]) else {}
        structured.update({f"stage_{st.index}": st.poly for st in run.stages
                           if st.poly is not None and not _oracle_flat(st.poly)})
        assert sorted(f.stem for f in new.glob("*.json")) == sorted(structured)
        assert sorted(f.stem for f in new.glob("*.npz")) == sorted(structured)
        for name, poly in structured.items():
            assert_same_values(load_structure(new / f"{name}.json"), poly)


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
@given(st.lists(csv_polys(), min_size=2, max_size=3), st.integers(1, 7))
def test_coefficient_csvs_match_oracle(polys, chunk_rows):
    # small chunks, so a file's rows run on across chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        assert_csvs_match_oracle(polys)


def _large_unsorted_poly():
    rng = np.random.default_rng(5)
    ks = rng.permutation(np.arange(-20000, 20000))[:cli.CSV_CHUNK_ROWS + 100]
    return TrigPoly(dict(zip(ks.tolist(), (rng.standard_normal(ks.size)
                                           + 1j * rng.standard_normal(ks.size)).tolist())))


def _block_sum(rate2=101):
    payload = TrigPoly({2: 0.5, -1: 1.0, 1: 1.0, -2: 0.5})
    return BlockSum([BlockTerm(TrigPoly({1: 0.5, 0: 1.0, -1: 0.5}), payload, 11),
                     BlockTerm(TrigPoly({-1: 0.25j, 1: -0.25j}), payload, rate2)])


def _scaled_product():
    return ScaledProduct(TrigPoly({2: 0.25j, -1: 0.5}), 409, _block_sum())


def _one_sided(sign):
    """The coefficients of a BlockSum with frequencies of one sign only, and
    of a ScaledProduct of it, in export order."""
    payload = TrigPoly({sign * 2: 0.5, sign: -1.0, sign * 3: 0.25j})
    blocks = BlockSum([BlockTerm(TrigPoly({0: 1.0, sign: 0.5}), payload, 11),
                       BlockTerm(TrigPoly({sign: -0.25j}), payload, 101)])
    outer = TrigPoly({sign: 0.5, sign * 4: -1.5})
    return [TrigPoly(dict(oracle_iter_coeffs(x)))
            for x in (blocks, ScaledProduct(outer, 2 ** 62, blocks))]


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


def test_unprintable_exact_frequencies_write_structure(tmp_path):
    # exact rate 10^5000, and a TrigPoly frequency of that size: more
    # decimal digits than int-to-str allows, so both go to structure
    # records, the rate and the frequency as hex strings
    huge = BlockSum([BlockTerm(TrigPoly({0: 1.0}), TrigPoly({-1: 0.5, 1: 0.5}),
                               10 ** 5000)])
    flat = TrigPoly({10 ** 5000: 1.5, -3: 0.25j})
    entry = cli._write_poly(tmp_path, "poly", huge)
    run = SimpleNamespace(stages=[SimpleNamespace(index=1, poly=flat)])
    [stage] = cli._write_stage_outputs(tmp_path, run)
    assert entry == {"files": ["poly.json", "poly.npz"], "parts": 2,
                     "spectrum_size": 2}
    assert stage == {"n": 1, "files": ["stage_1.json", "stage_1.npz"],
                     "parts": 1, "spectrum_size": 2}
    record = json.loads((tmp_path / "poly.json").read_text())
    assert record["poly"]["terms"][0]["rate"] == hex(10 ** 5000)
    with np.load(tmp_path / "stage_1.npz", allow_pickle=False) as z:
        assert z["k0"].tolist() == [hex(10 ** 5000), "-0x3"]
    assert not list(tmp_path.glob("*.csv"))
    assert_same_values(load_structure(tmp_path / "poly.json"), huge)
    assert_same_values(load_structure(tmp_path / "stage_1.json"), flat)


def _shared_payload_sum():
    """Exact rates, one of them past 4300 decimal digits, and lazy rates,
    all on one shared payload; a second payload on the last term."""
    payload = TrigPoly({-2: 0.5, -1: 1.0 / 3.0, 1: 1.0, 3: -0.25j})
    other = TrigPoly({1: 2.0, 2: 1e-300})
    return BlockSum([
        BlockTerm(TrigPoly({0: 1.0, 1: 0.5}), payload, 11),
        BlockTerm(TrigPoly({-1: 0.25j}), payload, 10 ** 4400 + 1),
        BlockTerm(TrigPoly({1: 0.75}), payload, LazyRate(3, 2 * 7, 4000)),
        BlockTerm(TrigPoly({0: -1.0, 2: 0.5}), other, LazyRate(5, 2 * 7, 4100)),
    ])


def _squares_stage():
    grid = CircleGrid(2 * 509)
    run = run_squares_engine(make_target("const", grid, {"c": 1.0}), 1)
    return run.stages[0].poly


def _infinity_stage():
    """Stage 1 of an `infinity` run: Q(R t) g, Q the 41-term analytic
    Korner sum, whose terms hold one tile with shifts."""
    grid = CircleGrid(2 * 8191)
    run = run_infinity_mode(make_target("plus_infinity_arc", grid, {}), 1)
    return run.stages[0].poly


def _stoptime_stage():
    """Stage 0 of a `stoptime` run: an analytic block polynomial times
    e^{i nu t}."""
    grid = CircleGrid(4096)
    mask = (grid.points >= 0) & (grid.points < math.pi / 2)
    run = run_stoptime_engine(targets.const(grid, 10.0), mask, 16.0,
                              s_budget=10 ** 210)
    return run.stages[0].poly


ROUND_TRIP_CASES = {
    "blocksum": _shared_payload_sum,
    "infinity_stage": _infinity_stage,
    "nested_q": lambda: ScaledProduct(_scaled_product(), 2 ** 70 + 1,
                                      TrigPoly({-1: 0.5, 0: 1.0, 2 ** 62 + 3: 0.25})),
    "nested_p": lambda: ScaledProduct(TrigPoly({1: 0.5, -3: 2.0}),
                                      LazyRate(7, 3, 9000), _scaled_product()),
    "engine_stage": _squares_stage,
    "stoptime_stage": _stoptime_stage,
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CASES))
def test_structure_records_rebuild_the_polynomial(tmp_path, name):
    # the written files rebuild a polynomial whose values are the
    # original's bit for bit; each distinct part is stored once
    poly = ROUND_TRIP_CASES[name]()
    run = SimpleNamespace(stages=[SimpleNamespace(index=2, poly=poly)])
    [entry] = cli._write_stage_outputs(tmp_path, run)
    assert entry["files"] == ["stage_2.json", "stage_2.npz"]
    assert entry["spectrum_size"] == poly.spectrum_size()
    rebuilt = load_structure(tmp_path / "stage_2.json")
    assert type(rebuilt) is type(poly)
    assert_same_values(rebuilt, poly)
    if name == "blocksum":
        assert entry["parts"] == 6  # four carriers, two payloads
        assert rebuilt.terms[0].payload is rebuilt.terms[2].payload
        assert rebuilt.terms[1].rate == 10 ** 4400 + 1
    if name == "engine_stage":
        assert type(poly).__name__ == "_Modulated" and poly.inner.lazy
    if name == "stoptime_stage":
        assert type(poly).__name__ == "_Modulated" and poly.kind == "exp"
    if name == "infinity_stage":
        assert entry["parts"] == 3  # the tile, the unit payload and g
        terms = json.loads((tmp_path / "stage_2.json").read_text())["poly"]["q"]["terms"]
        assert [t["shift"] for t in terms] == [[s, 41] for s in range(1, 42)]
        assert all(t.carrier is rebuilt.q.terms[0].carrier for t in rebuilt.q.terms)


def test_korner_record_writes_its_tile_once(tmp_path):
    # the 41 terms of the analytic Korner sum hold one tile with shifts:
    # the record is the tile and the unit payload, 0.25 MB where the 41
    # translates took 8.1 MB, and it rebuilds the sum bit for bit
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "analytic_korner", "eps": 0.3}))
    out = tmp_path / "r"
    run_cli(["approximate", "--config", cfg, "--out", out, "--grid", 2 ** 14])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["poly"]["parts"] == 2
    assert (out / "poly.npz").stat().st_size < 0.5e6
    record = json.loads((out / "poly.json").read_text())
    assert record["format"] == "sparsetrig-structure/2"
    terms = record["poly"]["terms"]
    assert [t["shift"] for t in terms] == [[s, 41] for s in range(1, 42)]
    assert {t["carrier"] for t in terms} == {terms[0]["carrier"]}
    poly = analytic_korner(0.3, grid=CircleGrid(2 ** 14), strict=False).poly
    assert_same_values(load_structure(out / "poly.json"), poly,
                       grids=(2 ** 14, 2 * 8191))


def test_manifests_record_what_each_file_holds(tmp_path):
    # a CSV says how many rows it holds, every coefficient; a structure
    # record how many parts
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "analytic_unit", "eps": 0.45}))
    assert run_cli(["approximate", "--config", cfg, "--out", tmp_path / "u",
                    "--grid", "1024"]) == 0
    entry = json.loads((tmp_path / "u" / "manifest.json").read_text())["poly"]
    assert entry["files"] == ["poly.csv"]
    assert entry["coeff_rows"] == entry["spectrum_size"] > 100
    assert len((tmp_path / "u" / "poly.csv").read_text().splitlines()) == \
        entry["coeff_rows"] + 1
    cfg.write_text(json.dumps({"engine": "squares", "target": "const",
                               "stages": 1}))
    run_cli(["represent", "--config", cfg, "--out", tmp_path / "r",
             "--grid", "1018"])
    man = json.loads((tmp_path / "r" / "manifest.json").read_text())
    [stage] = man["stage_outputs"]
    assert stage["n"] == 1 and stage["files"] == ["stage_1.json", "stage_1.npz"]
    assert stage["spectrum_size"] > 10 ** 5 and "coeff_rows" not in stage


@pytest.mark.parametrize("cfg", [
    {"kind": "analytic_block", "eps": 0.3, "delta": 0.3, "s": 150000, "a": 3},
    {"kind": "korner", "eps": 0.3, "delta": 0.3, "target": "const"},
    {"kind": "analytic_korner", "eps": 0.3, "target_params": {}},
    {"kind": "analytic_unit", "eps": 0.3, "s": 10},
    {"kind": "korner", "eps": 0.3, "delta": 0.3, "a": 3},
    {"kind": "analytic_unit", "eps": 0.3, "delta": 0.3},
], ids=["analytic_block-delta", "korner-target", "analytic_korner-target_params",
        "analytic_unit-s", "korner-a", "analytic_unit-delta"])
def test_approximate_rejects_keys_its_kind_does_not_read(tmp_path, cfg):
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    out = tmp_path / "r"
    assert run_cli(["approximate", "--config", tmp_path / "c.json", "--out", out,
                    "--grid", "1024"]) == 2
    bad = sorted(set(cfg) - {"kind"} - cli.APPROXIMATE_KEYS[cfg["kind"]])
    assert str(bad) in json.loads((out / "failure.json").read_text())["error"]
    assert not (out / "manifest.json").exists()


# One small run per command: the files it writes are those the README's
# Outputs table lists for it, and a second run writes the same bytes.
README_RUNS = {
    "build-spectrum": [({"kind": "hadamard", "eps": "1/n", "n": 40}, 1024)],
    "approximate": [({"kind": "korner", "eps": 0.3, "delta": 0.3}, 1024),
                    ({"kind": "analytic_unit", "eps": 0.45}, 1024)],
    "represent": [({"engine": "squares", "target": "const", "stages": 1}, 1018)],
    "riesz": [({"n": 30, "n_max": 30, "clt_terms": 30}, 1024)],
    "sharpness": [({"A": 1, "r": 3, "checked_range": 300}, 1024)],
}


def _readme_outputs(command):
    """(always, sometimes): the file-name patterns of the command's row in
    the README's Outputs table, `<n>` standing for a stage number."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] == f"`{command}`":
            return tuple([re.escape(n).replace("<n>", "[0-9]+")
                          for n in re.findall(r"`([^`]+)`", cell)] for cell in cells[1:])
    raise AssertionError(f"README lists no outputs for {command}")


@pytest.mark.parametrize("command", sorted(README_RUNS))
def test_outputs_match_readme_and_repeat_byte_for_byte(tmp_path, command):
    always, sometimes = _readme_outputs(command)
    for i, (body, grid) in enumerate(README_RUNS[command]):
        cfg = tmp_path / f"c{i}.json"
        cfg.write_text(json.dumps(body))
        outs = [tmp_path / f"run{i}-{j}" for j in (1, 2)]
        codes = [run_cli([command, "--config", cfg, "--out", out, "--grid", grid])
                 for out in outs]
        assert codes[0] == codes[1] and codes[0] in (0, 1)
        names = sorted(f.name for f in outs[0].iterdir())
        assert sorted(f.name for f in outs[1].iterdir()) == names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
            assert any(re.fullmatch(p, name) for p in always + sometimes), name
        for p in always:
            assert any(re.fullmatch(p, name) for name in names), p


INFINITE_TARGET_CONFIGS = {
    **{f"represent-{engine}": ("represent", {"engine": engine, "stages": 2})
       for engine in ("ae", "squares", "asymptotic_l2", "stoptime", "measure")},
    "approximate-block": ("approximate", {"kind": "block", "eps": 0.3,
                                          "delta": 0.3, "s": 150000, "a": 3}),
    "approximate-analytic_block": ("approximate", {"kind": "analytic_block",
                                                   "eps": 0.3, "s": 150000, "a": 3}),
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


def test_const_target_is_one_read_only_number():
    g = CircleGrid(1018)
    f = targets.const(g, 0.75)
    assert f.values.dtype == complex
    assert f.values.tobytes() == np.full(g.size, complex(0.75)).tobytes()
    assert not f.values.flags.writeable
    with pytest.raises(ValueError):
        f.values[0] = 0.0


CONST_TARGET_CONFIGS = {
    "approximate-block": ("approximate", {"kind": "block", "eps": 0.3, "delta": 0.3,
                                          "s": 8000, "a": 3}, 1018),
    "represent-squares": ("represent", {"engine": "squares", "stages": 2}, 1022),
    "represent-ae": ("represent", {"engine": "ae", "stages": 2}, 1022),
}


@pytest.mark.parametrize("name", sorted(CONST_TARGET_CONFIGS))
def test_const_target_writes_what_a_full_array_writes(tmp_path, monkeypatch, name):
    command, body, grid = CONST_TARGET_CONFIGS[name]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**body, "target": "const", "target_params": {"c": 0.75}}))
    outs = [tmp_path / "view", tmp_path / "full"]
    codes = [run_cli([command, "--config", cfg, "--out", outs[0], "--grid", grid])]
    monkeypatch.setattr(targets, "const", lambda g, c=1.0: SampledFunction(
        g, np.full(g.size, complex(c))))
    codes.append(run_cli([command, "--config", cfg, "--out", outs[1], "--grid", grid]))
    assert codes[0] == codes[1]
    names = sorted(f.name for f in outs[0].iterdir())
    assert names and sorted(f.name for f in outs[1].iterdir()) == names
    for n in names:
        assert (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes(), n
