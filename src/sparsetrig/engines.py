"""Finite-stage representation engines.

Each engine runs a finite induction: approximate the current residual by a
polynomial confined to a prescribed frequency block, subtract, certify,
repeat.  Runs are honest: every stage reports its measured certificates,
and a stage whose construction is infeasible at the requested tolerances
flags the run instead of silently degrading it.  Infinite conclusions are
out of reach by design; an engine's output is the per-stage certificate
table plus the final residual diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import approximants
from .approximants import (ConstructionInfeasible, analytic_block_approximant,
                           analytic_korner, block_approximant, fejer_until,
                           l2_on)
from .blockpoly import (Freq, LazyRate, ScaledProduct, contracted_index_map,
                        log2_sum_upper, rate_log2, rate_record)
from .blocks import BuiltSpectrum
from .circle import (CircleGrid, SampledFunction, l0_of_abs, measure_fraction)
from .riesz import default_ratio_rule
from .trigpoly import TrigPoly

#: engine default grid: even with an odd prime cofactor, so contraction
#: orbits stay dense even for rates carrying many factors of two
ENGINE_GRID_SIZE = 2 * 8191


class _Modulated:
    """carrier(nu t) * inner, carrier = cos or a one-sided exponential.

    Speaks the polynomial protocol of `sparsetrig.blockpoly` as far as the
    engines and the CLI's structure records use it; its frequencies are
    never materialized.
    """

    def __init__(self, nu, inner, kind: str):
        self.nu = nu
        self.inner = inner
        self.kind = kind  # "cos" | "exp"

    def values(self, grid: CircleGrid, allow_alias: bool = True) -> np.ndarray:
        idx = contracted_index_map(self.nu, grid)
        theta = grid.points[idx]
        carrier = np.cos(theta) if self.kind == "cos" else np.exp(1j * theta)
        return carrier * self.inner.values(grid, allow_alias=True)

    def degree_log2(self) -> float:
        # spectrum sits at +-nu + spec(inner): degree <= nu + deg(inner)
        return log2_sum_upper(rate_log2(self.nu), self.inner.degree_log2())

    def min_abs_freq(self) -> Freq:
        # spectrum sits at +-nu + spec(inner); the block hole keeps
        # deg(inner) far below nu
        return Freq(1, rate_log2(self.nu) - 1.0)

    def is_analytic(self) -> bool:
        return self.kind == "exp"

    def coeff_l1(self) -> float:
        return self.inner.coeff_l1()

    def sstar_upper(self, grid: CircleGrid) -> np.ndarray:
        # windows of cos(nu t) P split into two half-windows of P shifted by
        # +-nu; each is bounded by a rectangular window of P
        return self.inner.sstar_upper(grid)

    def spectrum_size(self) -> int:
        n = self.inner.spectrum_size()
        return 2 * n if self.kind == "cos" else n

    def structure(self, part) -> dict:
        return {"type": "Modulated", "kind": self.kind, "nu": rate_record(self.nu),
                "inner": self.inner.structure(part)}


@dataclass
class RunStage:
    index: int
    block: Optional[dict]
    poly: object
    certificates: dict = field(default_factory=dict)
    ok: bool = True
    note: str = ""

    def cert(self, name: str, measured: float, bound: Optional[float]):
        self.certificates[name] = approximants.certificate(measured, bound)
        self.ok = self.ok and self.certificates[name]["pass"]


@dataclass
class RepresentationRun:
    kind: str
    target: SampledFunction
    grid: CircleGrid
    stages: List[RunStage] = field(default_factory=list)
    flags: dict = field(default_factory=dict)
    final_residual: Optional[np.ndarray] = None

    def all_certificates_passed(self) -> bool:
        """Every stage passed; a run without stages certifies nothing."""
        if self.flags.get("infeasible") or self.flags.get("exhausted") \
                or self.flags.get("stop_unreached"):
            return False
        return bool(self.stages) and all(st.ok for st in self.stages)

    def residual_l0(self) -> float:
        """L0 of the final residual over the points where it is defined:
        the infinity mode leaves NaN at the target's infinite points."""
        if self.final_residual is None:
            return math.inf
        r = self.final_residual
        return l0_of_abs(np.abs(r[~np.isnan(r)]))

    def stage_polys(self):
        return [st.poly for st in self.stages if st.poly is not None]

    def follows_chain_ok(self) -> bool:
        """Each stage's spectrum beyond the previous stage's degree."""
        prev = -math.inf
        for st in self.stages:
            if st.poly is None or st.poly.spectrum_size() == 0:
                continue
            if Freq.of(st.poly.min_abs_freq()).log2 <= prev:
                return False
            prev = st.poly.degree_log2()
        return True

    def manifest(self) -> dict:
        return {
            "engine": self.kind,
            "stages": [
                {"n": st.index, "block": st.block, "ok": st.ok,
                 "note": st.note, "certificates": st.certificates}
                for st in self.stages
            ],
            "flags": self.flags,
            "residual_l0": None if self.final_residual is None else self.residual_l0(),
        }

    def to_json(self) -> str:
        return json.dumps(self.manifest(), sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# a.e.-style engine over a built two-sided spectrum
# ---------------------------------------------------------------------------

def run_ae_engine(f: SampledFunction, built: BuiltSpectrum,
                  n_stages: int) -> RepresentationRun:
    """Stagewise representation over the blocks embedded in a spectrum.

    Stage n approximates the residual at tolerances (2^-n, 2^-2n) inside
    the first unused manifest block that admits the construction and keeps
    the stage spectra separated.  Exhausting the manifest (or hitting an
    infeasible approximation) flags a partial run.
    """
    f.require_finite("the ae engine")
    grid = f.grid
    run = RepresentationRun("ae", f, grid)
    residual = f.values.copy()
    used = 0
    prev_deg_log2 = -math.inf
    for n in range(1, n_stages + 1):
        eps_n, delta_n = 2.0 ** -n, 4.0 ** -n
        if l0_of_abs(np.abs(residual)) < 0.5 * delta_n:
            # residual already below the stage target: a zero stage needs
            # no block and trivially follows everything
            stage = RunStage(n, None, TrigPoly(), note="zero stage")
            stage.cert("residual_measure",
                       measure_fraction(np.abs(residual) > delta_n), eps_n)
            run.stages.append(stage)
            continue
        stage = None
        while used < len(built.manifest):
            entry = built.manifest[used]
            used += 1
            try:
                rep = block_approximant(
                    SampledFunction(grid, residual), eps_n, delta_n,
                    entry.s, entry.a, strict=False)
            except ConstructionInfeasible as exc:
                run.flags.setdefault("skipped_blocks", []).append(
                    {"n": n, "s": entry.s, "a": entry.a,
                     "reason": str(exc)})
                continue
            poly = rep.poly
            # a zero stage follows anything
            lo_log = Freq.of(poly.min_abs_freq()).log2 \
                if poly.spectrum_size() else math.inf
            if lo_log <= prev_deg_log2:
                run.flags.setdefault("skipped_blocks", []).append(
                    {"n": n, "s": entry.s, "a": entry.a,
                     "reason": "block does not clear the previous stage"})
                continue
            stage = RunStage(n, entry.as_dict(), poly)
            break
        if stage is None:
            run.flags["exhausted"] = True
            run.flags.setdefault("notes", []).append(
                f"manifest exhausted before stage {n}")
            break
        residual = residual - stage.poly.values(grid, allow_alias=True)
        stage.cert("residual_measure",
                   measure_fraction(np.abs(residual) > delta_n), eps_n)
        # `rep` is the report that built the stage's polynomial
        stage.cert("sstar_measure", rep.measured["sstar_measure"]["measured"], eps_n)
        if stage.poly.spectrum_size():
            prev_deg_log2 = stage.poly.degree_log2()
        run.stages.append(stage)
    run.final_residual = residual
    return run


# ---------------------------------------------------------------------------
# squares engine with cosine damping
# ---------------------------------------------------------------------------

def auto_nu(prev_nu, ratio: float, min_log2: float) -> LazyRate:
    """Smallest odd 3^e lazy frequency above both constraints."""
    lo = max(rate_log2(prev_nu) + math.log2(max(ratio, 1.0)) if prev_nu else 0.0,
             min_log2) + 1e-6
    e = max(1, math.ceil(lo / math.log2(3.0)))
    return LazyRate(1, 3, e)


def run_squares_engine(f: SampledFunction, n_stages: int,
                       s_budget: int = 200000, a: int = 3) -> RepresentationRun:
    """Residual damping through cosine-modulated block approximants.

    Stage n: approximate the residual F_n at (n^-2, 4^-n) inside a block
    B(s_n, a_n), then emit P_n = cos(nu_n t) P_n^1 with nu_n beyond both
    the ratio schedule and every previously used frequency.  The residual
    then follows F_{n+1} = F_n (1 - cos nu_n t) + r_n, and the product
    damps it at almost every point.
    """
    f.require_finite("the squares engine")
    grid = f.grid
    run = RepresentationRun("squares", f, grid)
    residual = f.values.copy()
    prev_nu = None
    prev_deg_log2 = 0.0
    for n in range(1, n_stages + 1):
        eps_n, delta_n = 1.0 / n ** 2, 4.0 ** -n
        try:
            rep = block_approximant(SampledFunction(grid, residual),
                                    eps_n, delta_n, s_budget, a, strict=False)
        except ConstructionInfeasible as exc:
            run.flags["infeasible"] = {"stage": n, "reason": str(exc),
                                       "diagnostics": exc.diagnostics}
            break
        inner = rep.poly
        # nu must clear both the current block and the previous stage
        floor_log2 = max(inner.degree_log2(), prev_deg_log2) \
            if inner.spectrum_size() else prev_deg_log2
        nu_n = auto_nu(prev_nu, default_ratio_rule(n), floor_log2 + 1.0)
        poly = _Modulated(nu_n, inner, "cos") if inner.spectrum_size() else inner
        stage = RunStage(n, {"kind": "B_nu", "s": s_budget, "a": a,
                             "nu_log2": rate_log2(nu_n)}, poly)
        idx = contracted_index_map(nu_n, grid)
        cosv = np.cos(grid.points[idx])
        pv = poly.values(grid, allow_alias=True)
        # r_n = P_n - F_n cos nu_n t: the approximation error of the stage
        r_n = pv - residual * cosv
        stage.cert("stage_error_measure",
                   measure_fraction(np.abs(r_n) > delta_n), eps_n)
        stage.cert("sstar_measure", rep.measured["sstar_measure"]["measured"], eps_n)
        residual = residual - pv
        prev_nu = nu_n
        if poly.spectrum_size():
            prev_deg_log2 = poly.degree_log2()
        run.stages.append(stage)
    run.final_residual = residual
    med = float(np.median(np.abs(residual)))
    run.flags["median_final_residual"] = med
    return run


# ---------------------------------------------------------------------------
# asymptotic-L2 analytic engine and the infinity mode
# ---------------------------------------------------------------------------

def _analytic_stage(f_target: np.ndarray, n: int, grid: CircleGrid,
                    prev_deg: int, prev_e: Optional[np.ndarray],
                    partial: np.ndarray, finite: Optional[np.ndarray]):
    """One stage of the positive-spectrum scheme; returns (stage, P values,
    E_n, new degree).  With a `finite` mask the L2 window norm is also
    reported split over the finite and the infinite points."""
    tol = 2.0 ** -(n + 1)
    resid = f_target - partial
    g_n, gdiag = fejer_until(SampledFunction(grid, resid), tol, tol, 4096)
    stage = RunStage(n, None, None)
    if g_n is None:
        stage.ok = False
        stage.note = f"residual approximation stalled: {gdiag}"
        return stage, None, None, prev_deg
    g_l1 = g_n.coeff_l1()
    eps_n = tol / (g_l1 + 1.0)
    q_rep = analytic_korner(eps_n, grid=grid, strict=False)
    q = q_rep.poly
    r_n = (prev_deg + 2 * g_n.degree() + 1) | 1
    poly = ScaledProduct(q, r_n, g_n)
    # g_n's values, transformed once for the mask, the values and the bound
    d_mask = np.abs(poly.inner_values(grid) - resid) <= tol
    e_mask = q_rep.exceptional_set[contracted_index_map(r_n, grid)] & d_mask
    stage.block = {"kind": "analytic", "r_log2": math.log2(r_n),
                   "eps_n": eps_n, "korner_failures": q_rep.failures()}
    stage.poly = poly
    pv = poly.values(grid)
    new_partial = partial + pv
    stage.cert("exceptional_measure", measure_fraction(~e_mask), 2.0 ** -n)
    on_e = np.abs(new_partial - f_target)[e_mask]
    stage.cert("close_on_E", float(on_e.max()) if on_e.size else 0.0, 2.0 ** -n)
    if not poly.is_analytic():
        stage.cert("analytic", 1.0, 0.5)
    sup = poly.sstar_upper(grid)
    both = e_mask & (prev_e if prev_e is not None else np.ones(grid.size, bool))
    windows = {"l2_window_norm": both}
    if finite is not None:
        windows["l2_window_norm_finite"] = both & finite
        windows["l2_window_norm_infinite"] = both & ~finite
    for name, mask in windows.items():
        stage.cert(name, l2_on(sup, mask), None)
    # exact integer degree: the analytic stage factors keep integer rates
    new_deg = r_n * q.degree() + g_n.degree()
    return stage, pv, e_mask, new_deg


def _run_analytic(kind: str, f: SampledFunction, n_stages: int,
                  target_at: Callable[[int], np.ndarray],
                  finite: Optional[np.ndarray] = None):
    """Drive the positive-spectrum stages toward target_at(n) at stage n;
    returns the run and the final partial sum."""
    grid = f.grid
    run = RepresentationRun(kind, f, grid)
    partial = np.zeros(grid.size, dtype=complex)
    prev_deg = 0
    prev_e = None
    for n in range(1, n_stages + 1):
        stage, pv, e_mask, prev_deg = _analytic_stage(
            target_at(n), n, grid, prev_deg, prev_e, partial, finite)
        run.stages.append(stage)
        if pv is None:
            run.flags["infeasible"] = {"stage": n, "reason": stage.note}
            break
        partial = partial + pv
        prev_e = e_mask
    return run, partial


def run_asymptotic_l2_engine(f: SampledFunction,
                             n_stages: int) -> RepresentationRun:
    """Positive-spectrum stagewise representation, L2-windowed certificates.

    Per stage: approximate the residual by G_n, multiply by a contracted
    analytic near-one polynomial, intersect exceptional sets.  Stage
    certificates: m(T \\ E_n) < 2^-n, |sum P - f| < 2^-n on E_n, all
    spectra positive, and the L2(E_n cap E_{n-1}) window norms (reported,
    with the stage-to-stage decay as the acceptance handle).
    """
    f.require_finite("the asymptotic_l2 engine")
    run, partial = _run_analytic("asymptotic_l2", f, n_stages,
                                 lambda n: f.values)
    run.final_residual = f.values - partial
    run.flags["l2_window_norms"] = [
        st.certificates.get("l2_window_norm", {}).get("measured")
        for st in run.stages]
    return run


def run_infinity_mode(f: SampledFunction, n_stages: int) -> RepresentationRun:
    """Extended-target variant: clip +-infinity to +-n at stage n.

    The L2 window certificate splits over the finite part (must decay like
    C 2^-n) and the infinite part (bounded); convergence in measure toward
    the clipped targets is reported through the per-stage masks.
    """
    finite = f.extended_sign == 0
    f_base = np.where(finite, f.values, 0.0)

    def clipped(n: int) -> np.ndarray:
        return f_base + np.where(f.extended_sign > 0, float(n), 0.0) \
            + np.where(f.extended_sign < 0, float(-n), 0.0)

    run, partial = _run_analytic("infinity", f, n_stages, clipped, finite)
    run.final_residual = np.where(finite, f_base - partial, np.nan)
    run.flags["final_partial_real_quantiles"] = [
        float(np.quantile(partial.real[f.extended_sign > 0], q))
        for q in (0.1, 0.5)
    ] if np.any(f.extended_sign > 0) else []
    return run


# ---------------------------------------------------------------------------
# stop-time engine and the interval-cover engine
# ---------------------------------------------------------------------------

def run_stoptime_engine(f: SampledFunction, interval_mask: np.ndarray,
                        eps: float, s_budget: int = 200000, a: int = 3,
                        max_stages: int = 40) -> RepresentationRun:
    """Freeze-on-success representation of a target supported on an interval.

    The working residual freezes to zero at any point whose history dipped
    below eps/2 (or outside the interval); each stage approximates the
    frozen residual inside a positive block shifted by an exponential
    carrier whose frequencies follow the lacunary schedule.
    """
    f.require_finite("the stoptime engine")
    grid = f.grid
    run = RepresentationRun("stoptime", f, grid)
    interval_mask = np.asarray(interval_mask, dtype=bool)
    t_vals = f.values.copy()
    active = interval_mask.copy()
    prev_nu = None
    prev_deg_log2 = 0.0
    sup_total = np.zeros(grid.size)
    stopped = False
    for k in range(max_stages):
        active = active & (np.abs(t_vals) > eps / 2.0)
        r_k = np.where(active, t_vals, 0.0)
        if l0_of_abs(np.abs(t_vals)) < eps and k > 0:
            stopped = True
            break
        nu_k = auto_nu(prev_nu, default_ratio_rule(k + 1), prev_deg_log2 + 1.0)
        eps_k = eps * 2.0 ** (-k - 2)
        try:
            rep = analytic_block_approximant(SampledFunction(grid, r_k), eps_k,
                                             s_budget, a, strict=False)
        except ConstructionInfeasible as exc:
            run.flags["infeasible"] = {"stage": k, "reason": str(exc),
                                       "diagnostics": exc.diagnostics}
            break
        poly = rep.poly
        if poly.spectrum_size():
            poly = _Modulated(nu_k, poly, "exp")
            sup_total += poly.sstar_upper(grid)
            prev_deg_log2 = poly.degree_log2()
            prev_nu = nu_k
        pv = poly.values(grid, allow_alias=True)
        stage = RunStage(k, {"kind": "D_nu", "s": s_budget, "a": a,
                             "nu_log2": rate_log2(nu_k)}, poly)
        stage.cert("stage_l0", rep.measured["l0_f_minus_P"]["measured"],
                   max(eps_k, 1e-9))
        t_vals = t_vals - pv
        run.stages.append(stage)
    if not stopped and not run.flags.get("infeasible"):
        run.flags["stop_unreached"] = True
    run.final_residual = t_vals
    # the three construction certificates
    run.flags["cert_l0"] = l0_of_abs(np.abs(t_vals))
    off = ~interval_mask
    if off.any():
        run.flags["cert_outside_fraction"] = measure_fraction(
            (sup_total > eps) & off)
    return run


def dyadic_cover(grid: CircleGrid, n_intervals: int):
    """Dyadic arcs covering each point infinitely often: pass p emits the
    2^p arcs of length 2 pi 2^-p, p = 1, 2, ..."""
    out = []
    p = 1
    while len(out) < n_intervals:
        m = grid.size
        for j in range(2 ** p):
            lo = j * 2.0 ** -p
            hi = (j + 1) * 2.0 ** -p
            idx = np.arange(m)
            frac = idx / m
            out.append((frac >= lo) & (frac < hi))
            if len(out) >= n_intervals:
                break
        p += 1
    return out


def run_measure_engine(f: SampledFunction, n_stages: int,
                       s_budget: int = 200000, a: int = 3) -> RepresentationRun:
    """Interval-cover engine: localized stop-time passes over dyadic arcs."""
    f.require_finite("the measure engine")
    grid = f.grid
    run = RepresentationRun("measure", f, grid)
    covers = dyadic_cover(grid, n_stages)
    partial = np.zeros(grid.size, dtype=complex)
    prev_deg_log2 = 0.0
    for k, mask in enumerate(covers, start=1):
        eps_k = 2.0 ** -k
        r_k = np.where(mask, f.values - partial, 0.0)
        sub = run_stoptime_engine(SampledFunction(grid, r_k), mask, eps_k,
                                  s_budget=s_budget, a=a, max_stages=8)
        stage_poly = sub.stage_polys()
        pv = f.values * 0
        for p in stage_poly:
            pv = pv + p.values(grid, allow_alias=True)
        partial = partial + pv
        stage = RunStage(k, {"kind": "cover", "arc_measure": measure_fraction(mask)},
                         None)
        stage.cert("stage_l0", l0_of_abs(np.abs(r_k - pv)), eps_k + 1e-9)
        stage.note = json.dumps(sub.flags, default=str)
        if sub.flags.get("infeasible"):
            stage.ok = False
            run.flags["infeasible"] = sub.flags["infeasible"]
            run.stages.append(stage)
            break
        run.stages.append(stage)
    run.final_residual = f.values - partial
    return run
