"""Batch experiment runner.

Subcommands: build-spectrum, approximate, represent, riesz, sharpness.
Each reads a JSON config (strict keys), writes a manifest JSON plus data
files into --out, and exits 0 iff every certificate in the run passed;
failures leave a machine-readable report and a nonzero exit code.
Identical configs (including the seed) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import blocks, numbertheory, riesz
from .approximants import (ApproximantReport, ConstructionInfeasible,
                           analytic_korner, analytic_unit, block_approximant,
                           analytic_block_approximant, korner_polynomial)
from .circle import CircleGrid
from .engines import (ENGINE_GRID_SIZE, run_ae_engine,
                      run_asymptotic_l2_engine, run_infinity_mode,
                      run_measure_engine, run_squares_engine,
                      run_stoptime_engine)
from .targets import make_target
from .trigpoly import TrigPoly

CSV_CHUNK_ROWS = 16384
STRUCTURE_FORMAT = "sparsetrig-structure/2"
#: config keys each approximant kind reads, besides "kind"
APPROXIMATE_KEYS = {
    "analytic_unit": {"eps"},
    "korner": {"eps", "delta"},
    "analytic_korner": {"eps"},
    "block": {"target", "target_params", "eps", "delta", "s", "a"},
    "analytic_block": {"target", "target_params", "eps", "s", "a"},
}


class ConfigError(ValueError):
    pass


def _check_keys(cfg: dict, allowed: set, context: str):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {context}: {sorted(unknown)}")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1, default=str)
                    + "\n")


def _write_rows_csv(path: Path, ks: np.ndarray, cs: np.ndarray) -> None:
    """Coefficient CSV of the frequencies `ks` and coefficients `cs`, rows
    k,re,im written CSV_CHUNK_ROWS at a time.  These are the lines
    csv.writer's default dialect writes for these fields: "\\r\\n" line
    ends, and no quoting, since neither str of an int nor repr of a float
    contains a delimiter, a quote or a line break."""
    with open(path, "w", newline="") as fh:
        fh.write("k,re,im\r\n")
        for lo in range(0, len(ks), CSV_CHUNK_ROWS):
            rows = slice(lo, lo + CSV_CHUNK_ROWS)
            fields = (ks[rows].tolist(), cs.real[rows].tolist(),
                      cs.imag[rows].tolist())
            fh.write("".join(map("%d,%r,%r\r\n".__mod__, zip(*fields))))


def _write_structure(out: Path, name: str, poly) -> dict:
    """The structure record of poly: `<name>.json`, the tree of its types,
    layouts, terms and rates, and `<name>.npz`, each distinct TrigPoly part
    once, as frequencies `k<i>` (int64, or hex strings past 2^62) and
    complex128 coefficients `c<i>` in storage order.  The archive is written
    without pickle; np.savez stamps every member with the zip format's
    default date, so identical runs write identical bytes."""
    parts = {}  # id -> (part number, TrigPoly)

    def part(p: TrigPoly) -> int:
        return parts.setdefault(id(p), (len(parts), p))[0]

    _write_json(out / f"{name}.json", {"format": STRUCTURE_FORMAT,
                                       "parts_file": f"{name}.npz",
                                       "poly": poly.structure(part)})
    arrays = {}
    for i, p in parts.values():
        arrays[f"k{i}"] = p._k if p._k.dtype != object else np.array(list(map(hex, p._k)))
        arrays[f"c{i}"] = p._c
    np.savez(out / f"{name}.npz", allow_pickle=False, **arrays)
    return {"files": [f"{name}.json", f"{name}.npz"], "parts": len(parts),
            "spectrum_size": poly.spectrum_size()}


def _write_poly(out: Path, name: str, poly) -> dict:
    """Write poly under `name` and return its manifest entry.  A TrigPoly
    whose frequencies int-to-str can print becomes the coefficient CSV
    `<name>.csv`, in frequency order; any other polynomial its structure
    record."""
    max_digits = sys.get_int_max_str_digits()
    if not isinstance(poly, TrigPoly) or (
            max_digits and poly.degree_log2() * math.log10(2.0) + 1.0 > max_digits):
        return _write_structure(out, name, poly)
    ks, cs = poly.coeff_arrays()
    _write_rows_csv(out / f"{name}.csv", ks, cs)
    return {"files": [f"{name}.csv"], "coeff_rows": len(ks),
            "spectrum_size": poly.spectrum_size()}


def _eps_rule(name):
    """The eps(n) schedule of a Hadamard spectrum config: "1/log", "1/n"
    or a constant."""
    if name == "1/log":
        return lambda i: 1.0 / math.log(i + 2)
    if name == "1/n":
        return lambda i: 1.0 / (i + 2)
    if isinstance(name, (int, float)):
        return lambda i: float(name)
    raise ConfigError(f"unknown eps rule {name!r}")


def cmd_build_spectrum(cfg: dict, out: Path, grid_size: int, seed: int) -> int:
    _check_keys(cfg, {"kind", "eps", "n", "w", "blocks", "s_cap"}, "build-spectrum")
    kind = cfg.get("kind")
    s_cap = int(cfg.get("s_cap", blocks.DEFAULT_S_CAP))
    if kind in ("hadamard", "analytic_hadamard"):
        eps = _eps_rule(cfg.get("eps", "1/log"))
        n = int(cfg.get("n", 200))
        build = blocks.build_hadamard_spectrum if kind == "hadamard" \
            else blocks.build_analytic_hadamard_spectrum
        built = build(eps, n, s_cap=s_cap)
    elif kind in ("squares", "analytic_squares"):
        n_blocks = int(cfg.get("blocks", 3))
        w_name = cfg.get("w", "k")
        if w_name == "k":
            w = lambda k: float(k)
        elif w_name == "sqrt":
            w = lambda k: math.sqrt(max(k, 0))
        else:
            raise ConfigError(f"unknown w rule {w_name!r}")
        build = blocks.build_squares_spectrum if kind == "squares" \
            else blocks.build_analytic_squares_spectrum
        built = build(w, n_blocks, s_cap=s_cap)
    else:
        raise ConfigError(f"unknown spectrum kind {kind!r}")
    built.spectrum.to_file(out / "spectrum.txt")
    _write_json(out / "manifest.json", {
        "command": "build-spectrum", "kind": kind, "seed": seed,
        "size": len(built.spectrum),
        "blocks": [m.as_dict() for m in built.manifest],
        "certificates_passed": True,
    })
    return 0


def cmd_approximate(cfg: dict, out: Path, grid_size: int, seed: int) -> int:
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in APPROXIMATE_KEYS:
        raise ConfigError(f"unknown approximant kind {kind!r}")
    _check_keys(cfg, {"kind"} | APPROXIMATE_KEYS[kind], f"approximate {kind}")
    grid = CircleGrid(grid_size)
    report: ApproximantReport
    try:
        if kind == "analytic_unit":
            report = analytic_unit(float(cfg["eps"]), grid=grid, strict=False)
        elif kind == "korner":
            report = korner_polynomial(float(cfg["eps"]), float(cfg["delta"]),
                                       grid=grid, strict=False)
        elif kind == "analytic_korner":
            report = analytic_korner(float(cfg["eps"]), grid=grid, strict=False)
        else:
            f = make_target(cfg.get("target", "step"), grid,
                            cfg.get("target_params", {}))
            s, a = int(cfg["s"]), int(cfg["a"])
            if kind == "block":
                report = block_approximant(f, float(cfg["eps"]),
                                           float(cfg["delta"]), s, a,
                                           strict=False)
            else:
                report = analytic_block_approximant(f, float(cfg["eps"]),
                                                    s, a, strict=False)
    except ConstructionInfeasible as exc:
        _write_json(out / "manifest.json", {
            "command": "approximate", "kind": kind, "seed": seed,
            "certificates_passed": False,
            "infeasible": {"message": str(exc), "diagnostics": exc.diagnostics},
        })
        return 2
    poly_entry = _write_poly(out, "poly", report.poly)
    (out / "report.json").write_text(report.to_json() + "\n")
    if report.exceptional_set is not None:
        np.save(out / "exceptional_mask.npy", report.exceptional_set)
    passed = report.all_passed()
    _write_json(out / "manifest.json", {
        "command": "approximate", "kind": kind, "seed": seed,
        "certificates_passed": passed,
        "failures": report.failures(),
        "poly": poly_entry,
    })
    return 0 if passed else 1


def cmd_represent(cfg: dict, out: Path, grid_size: int, seed: int) -> int:
    _check_keys(cfg, {"engine", "target", "target_params", "stages",
                      "eps", "s", "a", "spectrum"}, "represent")
    engine = cfg.get("engine")
    grid = CircleGrid(grid_size)
    f = make_target(cfg.get("target", "zero"), grid,
                    cfg.get("target_params", {}))
    stages = int(cfg.get("stages", 3))
    if engine == "ae":
        spec_cfg = cfg.get("spectrum", {"kind": "hadamard", "eps": "1/n", "n": 120})
        if not isinstance(spec_cfg, dict):
            raise ConfigError("represent ae: spectrum must be a JSON object")
        _check_keys(spec_cfg, {"kind", "eps", "n"}, "represent ae spectrum")
        if spec_cfg.get("kind", "hadamard") != "hadamard":
            raise ConfigError(f"represent ae: spectrum kind must be 'hadamard', "
                              f"got {spec_cfg['kind']!r}")
        built = blocks.build_hadamard_spectrum(_eps_rule(spec_cfg.get("eps", "1/n")),
                                               int(spec_cfg.get("n", 120)))
        run = run_ae_engine(f, built, stages)
    elif engine == "squares":
        run = run_squares_engine(f, stages,
                                 s_budget=int(cfg.get("s", 200000)),
                                 a=int(cfg.get("a", 3)))
    elif engine == "asymptotic_l2":
        run = run_asymptotic_l2_engine(f, stages)
    elif engine == "infinity":
        run = run_infinity_mode(f, stages)
    elif engine == "stoptime":
        t = grid.points
        mask = (t >= 0) & (t < math.pi / 2)
        run = run_stoptime_engine(f, mask, float(cfg.get("eps", 0.25)),
                                  s_budget=int(cfg.get("s", 200000)),
                                  a=int(cfg.get("a", 3)))
    elif engine == "measure":
        run = run_measure_engine(f, stages,
                                 s_budget=int(cfg.get("s", 200000)),
                                 a=int(cfg.get("a", 3)))
    else:
        raise ConfigError(f"unknown engine {engine!r}")
    with open(out / "stages.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "ok", "note"])
        for st in run.stages:
            w.writerow([st.index, int(st.ok), st.note])
    _write_json(out / "manifest.json", {
        "command": "represent", "engine": engine, "seed": seed,
        "run": run.manifest(),
        "certificates_passed": run.all_certificates_passed(),
        "stage_outputs": _write_stage_outputs(out, run),
    })
    if run.final_residual is not None:
        np.save(out / "final_residual.npy", run.final_residual)
    return 0 if run.all_certificates_passed() else 1


def _write_stage_outputs(out: Path, run) -> list:
    """`_write_poly` output `stage_<n>` for each stage with a polynomial;
    returns the stages' manifest entries."""
    return [{"n": st.index, **_write_poly(out, f"stage_{st.index}", st.poly)}
            for st in run.stages if st.poly is not None]


def cmd_riesz(cfg: dict, out: Path, grid_size: int, seed: int) -> int:
    _check_keys(cfg, {"n", "nu1", "n_max", "threshold", "clt_terms"}, "riesz")
    n = int(cfg.get("n", 60))
    sched = riesz.make_schedule(n, nu1=int(cfg.get("nu1", 9)))
    grid = CircleGrid(grid_size)
    n_max = int(cfg.get("n_max", min(n, 60)))
    cos_diag = riesz.cosine_product_bounds(sched, grid, n_max)
    an_diag = riesz.analytic_product_diagnostics(
        sched, grid, min(n_max, 40), threshold=float(cfg.get("threshold", 1e-2)))
    cross = riesz.cross_identity_max_error(sched, grid, min(n_max, 40))
    clt = riesz.clt_check(sched, grid, min(int(cfg.get("clt_terms", n)), n))
    riesz.export_diagnostics_csv(cos_diag, out / "cosine_diag.csv")
    riesz.export_diagnostics_csv(an_diag, out / "analytic_diag.csv")
    payload = {
        "command": "riesz", "seed": seed,
        "cosine": cos_diag.summary, "analytic": an_diag.summary,
        "cross_identity_max_log_error": cross,
        "clt": clt,
        "certificates_passed": bool(
            abs(cos_diag.summary["mean_log_one_minus_cos"]
                - riesz.NEG_LOG_2) < 0.05 and cross < 1e-9),
    }
    _write_json(out / "manifest.json", payload)
    return 0 if payload["certificates_passed"] else 1


def cmd_sharpness(cfg: dict, out: Path, grid_size: int, seed: int) -> int:
    _check_keys(cfg, {"A", "r", "checked_range"}, "sharpness")
    a_bound = int(cfg.get("A", 1))
    cert = numbertheory.squares_gap_certificate(
        a_bound, checked_range=int(cfg.get("checked_range", 10 ** 4)))
    run_r = int(cfg.get("r", 4))
    p, x = numbertheory.find_nonresidue_run(run_r)
    ok = all(numbertheory.legendre(x + i, p) == -1 for i in range(1, run_r + 1))
    (out / "gap_certificate.json").write_text(cert.to_json() + "\n")
    _write_json(out / "manifest.json", {
        "command": "sharpness", "seed": seed,
        "gap_certificate": json.loads(cert.to_json()),
        "nonresidue_run": {"r": run_r, "p": p, "x": x, "verified": ok},
        "certificates_passed": bool(ok),
    })
    return 0 if ok else 1


COMMANDS = {
    "build-spectrum": cmd_build_spectrum,
    "approximate": cmd_approximate,
    "represent": cmd_represent,
    "riesz": cmd_riesz,
    "sharpness": cmd_sharpness,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparsetrig",
        description="sparse trigonometric spectra and representation engines")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory")
    parser.add_argument("--grid", type=int, default=None,
                        help="grid size M (even, >= 8); default 2*8191 for "
                             "represent, 2^14 otherwise")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.grid is None:
        args.grid = ENGINE_GRID_SIZE if args.command == "represent" else 2 ** 14

    cfg = {}
    if args.config is not None:
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            print("config must be a JSON object", file=sys.stderr)
            return 2
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, args.out, args.grid, args.seed)
    except (ConfigError, KeyError, ValueError) as exc:
        report = {"error": str(exc), "command": args.command}
        _write_json(args.out / "failure.json", report)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
