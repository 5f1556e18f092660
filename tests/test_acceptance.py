"""Acceptance suite: one test per criterion, one printed line per check.

Several criteria are known to be unattainable in double precision at their
stated tolerances (the constructions need exponential dynamic range or
tower-of-exponential block sizes); those tests run the faithful
construction, print the measured values, and fail honestly.  See the
package README for the summary table.
"""

import json
import math

import numpy as np
import pytest

from sparsetrig import blocks as bl
from sparsetrig import numbertheory as nt
from sparsetrig import riesz
from sparsetrig import trigpoly as tp
from sparsetrig.approximants import (ConstructionInfeasible,
                                     analytic_block_approximant,
                                     analytic_korner, analytic_unit,
                                     block_approximant, korner_polynomial)
from sparsetrig.circle import (CircleGrid, SampledFunction, l0_of_abs,
                               measure_fraction, triangle_coeff_array,
                               triangle_coeff_tail)
from sparsetrig.engines import (ENGINE_GRID_SIZE, run_ae_engine,
                                run_asymptotic_l2_engine, run_squares_engine,
                                run_stoptime_engine)
from sparsetrig.targets import const, sign_t, step, zero
from sparsetrig.trigpoly import TrigPoly


class Checker:
    def __init__(self, criterion: str):
        self.criterion = criterion
        self.failures = []

    def __call__(self, name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        print(f"[{self.criterion}] {status} {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def done(self):
        assert not self.failures, f"{self.criterion}: " + "; ".join(self.failures)


def test_criterion_01_triangle_identity():
    c = Checker("criterion 1")
    n_max = 10 ** 5
    for eps in (math.pi, math.pi / 4, 2 * math.pi / 64):
        arr = triangle_coeff_array(eps, n_max)
        partial = float(arr[0] + 2.0 * arr[1:].sum())
        total = partial + triangle_coeff_tail(eps, n_max)
        c(f"sum+tail in [1-1e-6, 1] (eps={eps:.4f})",
          1.0 - 1e-6 <= total <= 1.0 + 1e-9, f"total={total:.12f}")
        c(f"partial sum <= 1 (eps={eps:.4f})", partial <= 1.0 + 1e-12,
          f"partial={partial:.12f}")
        c(f"all coefficients > 0 (eps={eps:.4f})", bool((arr > 0.0).all()),
          f"min={arr.min():.3e}")
    c.done()


def test_criterion_02_special_product_decomposition():
    c = Checker("criterion 2")
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for trial in range(50):
        deg_p = int(rng.integers(1, 21))
        n_q = int(rng.integers(1, 21))
        p_keys = rng.choice(np.arange(-deg_p, deg_p + 1),
                            size=min(deg_p + 1, 6), replace=False)
        p = TrigPoly({int(k): complex(*rng.integers(-3, 4, 2)) / 2 for k in p_keys})
        q_keys = [int(k) for k in rng.choice(
            np.concatenate([np.arange(-20, 0), np.arange(1, 21)]),
            size=min(n_q, 10), replace=False)]
        q = TrigPoly({k: complex(*rng.integers(-3, 4, 2)) / 2 for k in q_keys})
        if not len(p) or not len(q):
            continue
        r = 2 * p.degree() + 1 + int(rng.integers(0, 5))
        h = tp.special_product(p, q, r)
        deg_h = h.degree()
        for n in range(0, deg_h + 1):
            d = tp.partial_sum_rect(h, 0, n) - tp.special_product_window(p, q, r, n)
            worst = max(worst, tp.coeff_norms(d).l1)
        for n in range(-deg_h, 1):
            d = tp.partial_sum_rect(h, n, 0) - tp.special_product_window(p, q, r, n)
            worst = max(worst, tp.coeff_norms(d).l1)
    c("window identity exact over 50 seeded triples", worst < 1e-10,
      f"worst l1 deviation {worst:.2e}")
    c.done()


def test_criterion_03_block_algebra():
    c = Checker("criterion 3")
    c("B(1,1) exact", bl.block_B(1, 1).elements ==
      (-21, -18, -16, -14, -11, 11, 14, 16, 18, 21))
    c("D(1,1) exact", bl.block_D(1, 1).elements == (16, 18, 21))
    ok_sym = ok_hole = ok_gap = ok_inj = True
    for s in (1, 2, 3):
        hole = (2 * s) ** (2 * s + 1)
        for a in range(1, 51):
            b = bl.block_B(s, a)
            ok_sym &= b.is_symmetric()
            ok_hole &= b.min_abs() > hole * a
            try:
                cert = bl.linearize(s, a)
            except bl.LinearizationError:
                ok_inj = False
                continue
            gap = a - 2 * cert.C_s
            els = b.elements
            ok_gap &= all(y - x > gap for x, y in zip(els, els[1:]))
    c("lattice symmetry (s<=3, a<=50)", ok_sym)
    c("lattice hole bound", ok_hole)
    c("lattice sparsity gap", ok_gap)
    c("lattice injective linearization", ok_inj)
    c.done()


def test_criterion_04_korner_certificate():
    c = Checker("criterion 4")
    rep = korner_polynomial(0.25, 0.25, grid=CircleGrid(2 ** 14), strict=False)
    c("Q^(0) = 0 exactly", rep.poly.coeff_zero() == 0)
    m = rep.measured
    c("|Q^|_inf < 0.25", m["qhat_linf"]["pass"],
      f"measured {m['qhat_linf']['measured']:.4f}")
    c("m{|Q-1| > 0.25} < 0.25", m["close_to_one"]["pass"],
      f"measured {m['close_to_one']['measured']:.4f}")
    c("S** constant * eps < 64", m["sstar_star_constant"]["pass"],
      f"certified upper {m['sstar_star_constant']['measured']:.1f}, "
      f"lower {rep.extras['sstar_star_lower_times_eps']:.1f}")
    c.done()


def test_criterion_05_analytic_approximants():
    c = Checker("criterion 5")
    grid = CircleGrid(2 ** 15)
    for eps in (0.5, 0.2):
        rep = analytic_unit(eps, grid=grid, strict=False)
        c(f"analytic_unit({eps}): spectrum in Z+", rep.poly.is_analytic())
        got = rep.measured["l0_R_minus_1"]["measured"]
        c(f"analytic_unit({eps}): l0(R-1) < {eps}", got < eps,
          f"measured {got:.4f}")
    rep = analytic_korner(0.2, grid=grid, strict=False)
    for name, entry in rep.measured.items():
        c(f"analytic_korner(0.2): {name}", entry["pass"],
          f"measured {entry['measured']:.6g} bound {entry['bound']:.6g}")
    c.done()


def test_criterion_06_block_approximants():
    c = Checker("criterion 6")
    grid = CircleGrid(ENGINE_GRID_SIZE)
    f = step(grid)
    try:
        rep = block_approximant(f, 0.25, 0.25, s=150000, a=3, strict=False)
        for name in ("approximates_f", "spectrum_in_block", "sstar_measure"):
            e = rep.measured[name]
            c(f"two-sided: {name}", e["pass"], f"measured {e['measured']}")
    except ConstructionInfeasible as exc:
        c("two-sided Lemma-4 certificates for the indicator", False,
          f"construction infeasible: {exc}")
    try:
        rep = analytic_block_approximant(f, 0.25, s=150000, a=3, strict=False)
        for name in ("l0_f_minus_P", "spectrum_in_block", "sn_measure"):
            e = rep.measured[name]
            c(f"one-sided: {name}", e["pass"], f"measured {e['measured']}")
    except ConstructionInfeasible as exc:
        c("one-sided certificates for the indicator", False,
          f"construction infeasible: {exc}")
    c.done()


def test_criterion_07_riesz_diagnostics():
    c = Checker("criterion 7")
    grid = CircleGrid(2 ** 14)
    sched = riesz.make_schedule(200)
    diag = riesz.cosine_product_bounds(sched, grid, 200, n_lo=20)
    mean = diag.summary["mean_log_one_minus_cos"]
    c("mean of (1/n) sum log(1 - cos) near -log 2", abs(mean + math.log(2)) < 0.05,
      f"measured {mean:.4f}")
    diag60 = riesz.cosine_product_bounds(sched, grid, 60, n_lo=20)
    frac = diag60.summary["fraction_lower_bound"]
    c(">= 95% satisfy 3^-n lower bound on [20, 60]", frac >= 0.95,
      f"measured fraction {frac:.3f}; both-bounds fraction "
      f"{diag60.summary['fraction_both_bounds']:.3f}")
    an = riesz.analytic_product_diagnostics(sched, grid, 40, threshold=1e-2)
    lp = an.summary["liminf_proxy_fraction"]
    c(">= 95% reach min |q_n| < 1e-2 by n = 40", lp >= 0.95,
      f"measured fraction {lp:.3f}")
    cross = riesz.cross_identity_max_error(sched, grid, 40)
    c("cosine/analytic cross identity to 1e-9", cross < 1e-9,
      f"max log-error {cross:.2e}")
    ks = riesz.clt_check(sched, grid, 200)["ks_distance"]
    c("KS distance at N = 200 < 0.05", ks < 0.05, f"measured {ks:.4f}")
    c.done()


def test_criterion_08_engines():
    c = Checker("criterion 8")
    grid = CircleGrid(ENGINE_GRID_SIZE)
    # (i) a.e. engine, f = step, 3 stages
    built = bl.build_hadamard_spectrum(lambda n: 1.0 / (n + 2), 120)
    run = run_ae_engine(step(grid), built, 3)
    res = run.residual_l0()
    c("(i) residual L0 <= 2^-3 + 4/M after 3 stages",
      res <= 0.125 + 4.0 / grid.size, f"measured {res:.4f}, "
      f"flags {list(run.flags)}")
    c("(i) stage spectra disjoint / follow", run.follows_chain_ok())
    c("(i) stage S* certificates", all(
        st.certificates.get("sstar_measure", {"pass": False})["pass"]
        for st in run.stages) and len(run.stages) == 3,
      f"stages built: {len(run.stages)}")
    # (ii) asymptotic-L2 engine, f = sign, 4 stages
    run2 = run_asymptotic_l2_engine(sign_t(grid), 4)
    stages = run2.stages
    if len(stages) == 4 and stages[3].certificates:
        e4 = stages[3].certificates.get("exceptional_measure", {})
        c("(ii) m(T\\E_4) < 2^-4", bool(e4.get("pass")),
          f"measured {e4.get('measured')}")
        cl = stages[3].certificates.get("close_on_E", {})
        c("(ii) |sum P - f| < 2^-4 on E_4", bool(cl.get("pass")),
          f"measured {cl.get('measured')}")
    else:
        c("(ii) four analytic stages built", False,
          f"stages completed: {sum(1 for s in stages if s.poly is not None)}"
          f", flags: {run2.flags.get('infeasible')}")
    norms = [n for n in run2.flags.get("l2_window_norms", []) if n]
    decay_ok = len(norms) >= 3 and all(
        norms[i + 1] <= norms[i] / 1.5 for i in range(1, len(norms) - 1))
    c("(ii) L2 window norms decay by 1.5x over stages 2-4", decay_ok,
      f"norms {norms}")
    # (iii) stop-time engine, f = indicator [0, pi/2), eps = 0.25
    mask = (grid.points >= 0) & (grid.points < math.pi / 2)
    f3 = SampledFunction(grid, mask.astype(complex))
    run3 = run_stoptime_engine(f3, mask, 0.25)
    c("(iii) ||P - f||_0 < 0.25", run3.flags.get("cert_l0", 1.0) < 0.25,
      f"measured {run3.flags.get('cert_l0')}, flags "
      f"{run3.flags.get('infeasible', {})}")
    c("(iii) off-interval partial sums small",
      run3.flags.get("cert_outside_fraction", 1.0) < 0.25,
      f"measured {run3.flags.get('cert_outside_fraction')}")
    # (iv) squares engine, f = 1, 4 stages
    run4 = run_squares_engine(const(grid, 1.0), 4)
    med = run4.flags.get("median_final_residual", math.inf)
    c("(iv) median |F_4| < 0.9^4 after 4 stages", med < 0.9 ** 4,
      f"measured {med:.4f}, stages built {len(run4.stages)}, flags "
      f"{run4.flags.get('infeasible', {}).get('reason', '')[:60]}")
    c.done()


def test_criterion_09_spectrum_builders():
    c = Checker("criterion 9")
    eps = lambda n: 1.0 / math.log(n + 2)
    built = bl.build_hadamard_spectrum(eps, 200)
    pos = built.spectrum.positive()
    from fractions import Fraction
    ratios_ok = all(pos[i + 1] > pos[i] * (1 + Fraction(eps(i + 1)))
                    for i in range(min(len(pos), 200) - 1))
    c("hadamard(1/log, 200): all ratios exceed 1 + eps(n)", ratios_ok)
    c("hadamard(1/log, 200): manifest nonempty", len(built.manifest) > 0,
      f"blocks embedded: {len(built.manifest)} (insertion needs "
      f"eps < 1/(2C(s)) ~ 0.024)")
    sq = bl.build_squares_spectrum(lambda k: float(k), 3)
    worst = 0.0
    for b in sq.spectrum.positive():
        k = math.isqrt(b)
        tau, kk = min(((abs(b - (k + d) ** 2), k + d) for d in (-1, 0, 1)))
        worst = max(worst, tau / math.sqrt(max(kk, 1)))
    c("squares(w=k): max |tau|/sqrt(w) < 1 over 3 blocks", worst < 1.0,
      f"measured {worst:.6f}")
    an1 = bl.build_analytic_hadamard_spectrum(lambda n: 1.0 / (n + 2), 120)
    an2 = bl.build_analytic_squares_spectrum(lambda k: float(k), 2)
    c("analytic builders emit only positive integers",
      all(x > 0 for x in an1.spectrum.elements) and
      all(x > 0 for x in an2.spectrum.elements))
    c.done()


def test_criterion_10_sharpness():
    c = Checker("criterion 10")
    cert = nt.squares_gap_certificate(1)
    c("gap certificate with p <= 13", cert.p <= 13, f"p={cert.p}, m={cert.m}")
    cls = {(n * n) % cert.p for n in range(cert.p)}
    cls |= {(-x) % cert.p for x in cls}
    c("independent re-enumeration confirms the gap",
      all((cert.m + t) % cert.p not in cls
          for t in range(-(cert.A - 1), cert.A)))
    c("nonresidue run r=2 gives (5, 1)", nt.find_nonresidue_run(2) == (5, 1))
    p4, x4 = nt.find_nonresidue_run(4)
    c("nonresidue run r=4 verified by legendre",
      all(nt.legendre(x4 + i, p4) == -1 for i in range(1, 5)),
      f"p={p4}, x={x4}")
    c.done()


def test_criterion_11_lp_product_law():
    c = Checker("criterion 11")
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        deg_p = int(rng.integers(1, 9))
        p = TrigPoly({int(k): complex(*rng.integers(-3, 4, 2)) / 2
                      for k in rng.choice(np.arange(-deg_p, deg_p + 1),
                                          size=min(4, 2 * deg_p + 1),
                                          replace=False)})
        q = TrigPoly({int(k): complex(*rng.integers(-3, 4, 2)) / 2
                      for k in rng.choice(
                          np.concatenate([np.arange(-8, 0), np.arange(1, 9)]),
                          size=5, replace=False)})
        if not len(p) or not len(q):
            continue
        r = 2 * p.degree() + 1
        h = tp.special_product(p, q, r)
        for pw in (2.0, 3.0, 4.0):
            lhs = tp.coeff_norms(h, [pw]).lp[pw]
            rhs = tp.coeff_norms(p, [pw]).lp[pw] * tp.coeff_norms(q, [pw]).lp[pw]
            if rhs > 0:
                worst = max(worst, abs(lhs - rhs) / rhs)
    c("lp product law exact for 20 seeded special products (p=2,3,4)",
      worst < 1e-12, f"worst relative deviation {worst:.2e}")
    c.done()


def test_criterion_12_cli_determinism(tmp_path):
    c = Checker("criterion 12")
    from sparsetrig.cli import main as cli_main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "hadamard", "eps": "1/n", "n": 100}))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = cli_main(["build-spectrum", "--config", str(cfg),
                       "--out", str(out), "--seed", "3"])
        assert rc == 0
        outs.append(out)
    same = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
               for name in ("spectrum.txt", "manifest.json"))
    c("identical config -> byte-identical outputs", same)
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps({"A": 1, "checked_range": 300}))
    for tag in ("c", "d"):
        rc = cli_main(["sharpness", "--config", str(cfg2),
                       "--out", str(tmp_path / tag), "--seed", "5"])
        assert rc == 0
    same2 = (tmp_path / "c" / "manifest.json").read_bytes() == \
        (tmp_path / "d" / "manifest.json").read_bytes()
    c("sharpness outputs byte-identical", same2)
    c.done()
