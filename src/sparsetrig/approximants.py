"""Constructive approximants: unit approximants, tiled dip polynomials,
and block-spectrum approximation of arbitrary sampled targets.

The constructions here are products and sums of a low-degree "carrier"
with violently contracted "payload" polynomials.  Their supports routinely
exceed anything materializable, so the central data structure is a lazy
block sum evaluated through exact modular index arithmetic, with
certified upper/lower brackets for the partial-sum maxima instead of
exhaustive window sweeps.

Every construction measures its own certificates on the grid and reports
them; `strict=True` turns a failed certificate into an exception.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import trigpoly as tp
from .blockpoly import (BlockSum, BlockTerm, LazyRate, ScaledProduct,
                        contracted_index_map)
from .blocks import block_member_B, block_member_D, scale_factor
from .circle import (CircleGrid, SampledFunction, l0_of_abs, measure_fraction,
                     triangle_coeff, triangle_coeff_array, triangle_coeff_tail)
from .numbertheory import primes_from
from .trigpoly import TrigPoly

DEGREE_CAP = 2 ** 16
#: tile degree cap of the analytic tiled construction
ANALYTIC_TILE_DEGREE_CAP = 4096
#: S** constant C of the block approximant's m{S**(P) > C/eps (|f| + delta)}
SSTAR_CONSTANT = 64.0
#: outer-function peak budget: exp at which double-precision FFT cancellation
#: noise begins to drown the off-arc values we must resolve
OUTER_PEAK_LOG_CAP = 27.0


class ConstructionInfeasible(RuntimeError):
    """Construction cannot run at the requested parameters.

    Carries a diagnostics dict explaining which resource exploded (degree
    cap, dynamic range of the outer factor, or block budget).
    """

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class CertificateError(RuntimeError):
    """A measured certificate failed in strict mode; carries the report."""

    def __init__(self, message: str, report: "ApproximantReport"):
        super().__init__(message)
        self.report = report


def _entry(name: str, measured: float, bound: float, strict_less: bool = True) -> dict:
    ok = measured < bound if strict_less else measured <= bound
    return {"requirement": name, "measured": float(measured),
            "bound": float(bound), "pass": bool(ok)}


@dataclass
class ApproximantReport:
    """Constructed polynomial plus its measured certificate table."""

    poly: object
    measured: Dict[str, dict] = field(default_factory=dict)
    exceptional_set: Optional[np.ndarray] = None
    deviations: Tuple[str, ...] = ()
    extras: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, measured: float, bound: float, strict_less=True):
        self.measured[name] = _entry(name, measured, bound, strict_less)

    def all_passed(self) -> bool:
        return all(v["pass"] for v in self.measured.values())

    def failures(self) -> List[str]:
        return [k for k, v in self.measured.items() if not v["pass"]]

    def to_json(self) -> str:
        body = {
            "requirements": self.measured,
            "deviations": list(self.deviations),
            "extras": self.extras,
        }
        return json.dumps(body, sort_keys=True, default=float)

    def raise_if_failed(self, context: str):
        if not self.all_passed():
            raise CertificateError(
                f"{context}: certificates failed: {self.failures()}", self
            )


# ---------------------------------------------------------------------------
# analytic unit approximant (outer-function construction)
# ---------------------------------------------------------------------------

def _conjugate_series_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Apply the -i*sign(k) multiplier to an FFT coefficient layout."""
    m = coeffs.size
    out = coeffs.copy()
    out[0] = 0.0
    half = m // 2
    out[1:half] *= -1j
    out[half] = 0.0  # Nyquist bin has no well-defined sign; drop it
    out[half + 1:] *= 1j
    return out


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """C^1 ramp 0 -> 1 on [0, 1]."""
    y = np.clip(x, 0.0, 1.0)
    return y * y * (3.0 - 2.0 * y)


def analytic_unit(eps: float, grid: Optional[CircleGrid] = None,
                  strict: bool = True) -> ApproximantReport:
    """Analytic polynomial R with spectrum in Z+ and ||R - 1||_0 < eps.

    Outer-function construction: a smooth real profile g with exact zero
    mean, very negative off a small arc; G + i*conj(G) via the -i sign(k)
    multiplier; F = exp(G + i conj G); R = the analytic part of 1 - S_N(F)
    with N doubled until the measured bound holds.

    The arc is widened to measure ~0.7*eps and the off-arc depth set to
    log(eps/3) so the outer peak stays inside double-precision range; the
    required peak grows like exp(C/eps), so below eps ~ 0.1 the
    construction fails loudly rather than return cancellation noise.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    grid = grid or CircleGrid(2 ** 15)

    arc_measure = 0.7 * eps
    half_width = arc_measure * math.pi  # m((-w, w)) = w/pi
    depth = math.log(eps / 3.0)
    peak_est = abs(depth) * (1.0 - arc_measure) / arc_measure
    if peak_est > OUTER_PEAK_LOG_CAP:
        raise ConstructionInfeasible(
            f"outer factor needs exp({peak_est:.1f}) dynamic range "
            f"(cap exp({OUTER_PEAK_LOG_CAP}))",
            {"eps": eps, "peak_log": peak_est,
             "reason": "double precision cannot cancel the outer peak"},
        )

    # G is built on power-of-two grids whatever the evaluation grid, so
    # every FFT below has a smooth length and the refinement stops at 2^18
    m_work = 1 << (max(grid.size, 2 ** 12) - 1).bit_length()
    while True:
        t = -math.pi + 2.0 * math.pi * np.arange(m_work) / m_work
        # plateau at `depth` off the arc, smooth bump inside; bump height
        # fixed by the exact zero-mean constraint
        bump = _smoothstep((half_width - np.abs(t)) / (0.35 * half_width))
        height = -depth / max(bump.mean(), 1e-12)
        g = depth + height * bump
        g = g - g.mean()

        ghat = np.fft.fft(g) / m_work
        # G + i * conj(G): coefficients g^(k) (1 + sign k), spectrum >= 0
        analytic_exp = ghat + 1j * _conjugate_series_coeffs(ghat)
        boundary = np.fft.ifft(analytic_exp * m_work)
        f_vals = np.exp(boundary)
        fhat = np.fft.fft(f_vals) / m_work

        n = 256
        best = None
        while n <= min(DEGREE_CAP, m_work // 4):
            window = np.zeros(m_work, dtype=complex)
            window[1:n + 1] = fhat[1:n + 1]
            sn_analytic = np.fft.ifft(window * m_work)
            r_minus_1 = -(sn_analytic + fhat[0])
            l0 = l0_of_abs(np.abs(r_minus_1))
            if best is None or l0 < best[0]:
                best = (l0, n)
            if l0 < eps * 0.95:
                break
            n *= 2
        l0_meas, n_used = best
        if l0_meas < eps * 0.95 or m_work >= 2 ** 18:
            break
        m_work *= 2  # work grid too coarse for the profile; refine

    if l0_meas >= eps:
        raise ConstructionInfeasible(
            f"analytic unit truncation stalled at degree {n_used} "
            f"(measured L0 {l0_meas:.4f} >= eps {eps})",
            {"eps": eps, "best_l0": l0_meas, "degree": n_used,
             "degree_cap": DEGREE_CAP},
        )
    coeffs = -fhat[1:n_used + 1]
    keep = coeffs != 0
    r_poly = TrigPoly._of_arrays(np.arange(1, n_used + 1)[keep], coeffs[keep])

    report = ApproximantReport(r_poly, deviations=(
        "dip arc widened to measure ~0.7*eps with depth log(eps/3) to keep "
        "the outer factor in double-precision range",
    ))
    # certificates on the requested evaluation grid
    rv = r_poly.values(grid, allow_alias=True)
    l0_eval = l0_of_abs(np.abs(rv - 1.0))
    report.add("spectrum_in_Zplus", 0.0 if r_poly.is_analytic() else 1.0, 0.5)
    report.add("l0_R_minus_1", l0_eval, eps)
    mean_f = complex(f_vals.mean())
    report.add("mean_F_near_1", abs(mean_f - 1.0), 1e-3)
    report.extras["degree"] = float(r_poly.degree())
    report.extras["coeff_l1"] = tp.coeff_norms(r_poly).l1
    report.extras["outer_peak_log"] = peak_est
    if strict:
        report.raise_if_failed("analytic_unit")
    return report


# ---------------------------------------------------------------------------
# symmetric (two-sided) unit approximant: 1 - Jackson-type dip
# ---------------------------------------------------------------------------

def jackson_dip(half_degree: int) -> TrigPoly:
    """Zero-mean two-sided unit approximant V = 1 - J_N.

    J_N is the Jackson kernel (sin(Nt/2)/sin(t/2))^4 normalized to unit
    mass, so V^(0) = 0 exactly, spec V = +-[1, 2N-2], V is ~1 away from a
    narrow dip at t = 0, and |V - 1| = J_N has fourth-power tails.
    """
    n = int(half_degree)
    if n < 2:
        raise ValueError("half_degree must be >= 2")
    m = 1 << max(8, (4 * n - 1).bit_length())
    t = -math.pi + 2.0 * math.pi * np.arange(m) / m
    s = np.sin(t / 2.0)
    num = np.sin(n * t / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ker = np.where(np.abs(s) < 1e-15, float(n) ** 4, (num / s) ** 4)
    ker_hat = np.fft.fft(ker).real / m
    scale = ker_hat[0]
    deg = 2 * n - 2
    coeffs = {}
    for k in range(1, deg + 1):
        # undo the -pi grid offset: fft bins carry (-1)^k
        c = ker_hat[k] * (-1.0) ** (k % 2) / scale
        if abs(c) > 1e-18:
            coeffs[k] = complex(-c)
            coeffs[-k] = complex(-c)
    return TrigPoly(coeffs)


def symmetric_unit(bad_measure: float, quality: float, max_degree: int,
                   grid: CircleGrid) -> Tuple[TrigPoly, dict]:
    """Two-sided zero-mean V with m{|V - 1| > quality} <= bad_measure.

    Degree is doubled until the measured certificate holds; the last
    (largest) attempt is returned either way, with its measured fraction.
    """
    n = 8
    best = None
    while 2 * n - 2 <= max_degree:
        v = jackson_dip(n)
        vals = v.values(grid, allow_alias=True)
        frac = measure_fraction(np.abs(vals - 1.0) > quality)
        best = (v, frac, 2 * n - 2)
        if frac <= bad_measure:
            break
        n *= 2
    if best is None:
        raise ConstructionInfeasible(
            f"payload budget {max_degree} below the minimal dip degree 14",
            {"max_degree": max_degree},
        )
    v, frac, deg = best
    return v, {"bad_fraction": frac, "quality": quality, "degree": deg}


# ---------------------------------------------------------------------------
# Fejer approximation of sampled targets
# ---------------------------------------------------------------------------

def fejer_poly(f: SampledFunction, degree: int) -> TrigPoly:
    """Fejer mean of degree `degree` from the grid DFT of f.

    Frequencies above the grid Nyquist alias into the DFT coefficients;
    for the smooth low-degree stage this is the intended estimator.
    """
    m = f.grid.size
    vals = f.values
    hat = np.fft.fft(vals) / m
    coeffs = {}
    n = degree + 1
    for k in range(-degree, degree + 1):
        w = 1.0 - abs(k) / n
        c = hat[k % m] * w
        # undo the -pi grid offset: hat indexes exp(2 pi i k j / M)
        c *= (-1.0) ** (k % 2)
        if abs(c) > 1e-15:
            coeffs[k] = complex(c)
    return TrigPoly(coeffs)


def fejer_until(f: SampledFunction, delta: float, eps: float,
                max_degree: int) -> Tuple[Optional[TrigPoly], dict]:
    """Smallest power-of-two-degree Fejer mean with m{|f - P| > delta} < eps."""
    grid = f.grid
    best = None
    deg = 0
    while deg <= max_degree:
        p = fejer_poly(f, deg)
        err = np.abs(p.values(grid, allow_alias=True) - f.values)
        frac = measure_fraction(err > delta)
        if best is None or frac < best[1]:
            best = (p, frac, deg)
        if frac < eps:
            return p, {"degree": deg, "bad_fraction": frac}
        deg = 1 if deg == 0 else deg * 2
    p, frac, deg = best
    return None, {"degree": deg, "bad_fraction": frac,
                  "reason": f"no degree <= {max_degree} reaches the bound"}


# ---------------------------------------------------------------------------
# payload rate selection (disjoint layouts)
# ---------------------------------------------------------------------------

def disjoint_prime_rates(count: int, payload_deg: int,
                         carrier_spread: int) -> List[int]:
    """Odd primes N_1 < ... < N_count whose dilates k*N_i stay separated.

    Ensures |k N_i - k' N_j| > 2*carrier_spread + 2 for all distinct pairs
    with 1 <= k, k' <= payload_deg (prime rates preclude exact collisions;
    the greedy walk enforces the gap).
    """
    gap = 2 * carrier_spread + 2
    used: List[int] = []  # sorted multiples k * N_i
    rates: List[int] = []
    cand = next(primes_from(max(2 * carrier_spread + 3,
                                2 * payload_deg * (carrier_spread + 2))))
    while len(rates) < count:
        ok = True
        mults = [k * cand for k in range(1, payload_deg + 1)]
        for v in mults:
            i = bisect.bisect_left(used, v)
            for j in (i - 1, i):
                if 0 <= j < len(used) and abs(used[j] - v) <= gap:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            rates.append(cand)
            for v in mults:
                bisect.insort(used, v)
        cand = next(primes_from(cand + 2))
    return rates


# ---------------------------------------------------------------------------
# Korner polynomial: sum of translated tiles times contracted dips
# ---------------------------------------------------------------------------

def _triangle_partial(eps_width: float, l1_tol: float,
                      max_degree: int = 2 ** 16) -> TrigPoly:
    """Partial sum of the width-2*eps triangle with l1 coefficient tail < tol."""
    n = 16
    while triangle_coeff_tail(eps_width, n) >= l1_tol and n < max_degree:
        n *= 2
    lo, hi = n // 2, n
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if triangle_coeff_tail(eps_width, mid) < l1_tol:
            hi = mid
        else:
            lo = mid
    n = hi
    arr = triangle_coeff_array(eps_width, n)
    coeffs = {0: complex(arr[0])}
    for k in range(1, n + 1):
        if arr[k] != 0.0:
            coeffs[k] = complex(arr[k])
            coeffs[-k] = complex(arr[k])
    return TrigPoly(coeffs)


def _dip_payload(dip_width: float, degree: int) -> TrigPoly:
    """Zero-mean dip G = 1 - A * S_N(tau_w) with A = 1/tau_hat(0).

    The polynomial's stored coefficients are exactly -A*tau_hat(k), k != 0;
    its values are 1 - A * S_N(tau_w)(t).
    """
    amp = 1.0 / triangle_coeff(dip_width, 0)
    arr = triangle_coeff_array(dip_width, degree)
    coeffs = {}
    for k in range(1, degree + 1):
        c = -amp * arr[k]
        if c != 0.0:
            coeffs[k] = complex(c)
            coeffs[-k] = complex(c)
    return TrigPoly(coeffs)


def _segment_rates(K: int, deg_tile: int, deg_payload: int) -> List[int]:
    """Rates (K B^s) | 1, s = 1..K, with B = (2 deg_tile + deg_payload + 2) | 1:
    each block follows the previous one, and odd rates keep full sampling
    orbits on even grids."""
    base = (2 * deg_tile + deg_payload + 2) | 1
    rates = []
    r = K
    for _ in range(K):
        r *= base
        rates.append(r | 1)
    return rates


def _tiled_sum(tile: TrigPoly, payload: TrigPoly, rates: List[int],
               layout: str) -> BlockSum:
    """sum_s (tile translated by 2 pi s / K) * payload(N_s t), K = len(rates)."""
    K = len(rates)
    return BlockSum([BlockTerm(tp.translate(tile, 2.0 * math.pi * s / K),
                               payload, r)
                     for s, r in enumerate(rates, start=1)], layout=layout)


def _tiled_setup(eps: float, delta: float, K: int,
                 tile_l1_tol: float) -> Tuple[TrigPoly, float, int, List[str]]:
    """(tile, dip width, dip degree, deviations) shared by both tiled dips:
    the K-tile triangle partial sum with l1 tail < tile_l1_tol and the
    zero-mean dip's width eps/4 and degree for delta."""
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    tile = _triangle_partial(2.0 * math.pi / K, tile_l1_tol)
    dip_width = eps / 4.0
    amp = 1.0 / triangle_coeff(dip_width, 0)  # zero-mean normalization
    # off-dip partial-sum residual ~ 24 A / (pi w^2 N^2) kept under delta/4
    deg_dip = max(64, int(math.sqrt(
        96.0 * amp / (math.pi * dip_width ** 2 * delta))) + 1)
    deviations = [
        "dip amplitude normalized to 1/tau_hat(0) so that the zero-mean "
        "requirement holds exactly",
        f"tile count K = {K} chosen from the exact coefficient bound "
        "|Q^|_inf = |F^|_inf |G^|_inf rather than the crude l1 chain",
    ]
    return tile, dip_width, deg_dip, deviations


def korner_polynomial(eps: float, delta: float,
                      grid: Optional[CircleGrid] = None,
                      strict: bool = True) -> ApproximantReport:
    """Zero-mean polynomial Q with Q ~ 1 off an eps-set and tame partial sums.

    Q = sum_{s=1}^{K} (tile translated by 2 pi s / K) * (dip contracted by
    N_s): the tiles are triangle partial sums summing to 1, the dip is the
    zero-mean 1 - A*tau_{eps/4} profile, and the geometric rates N_s make
    each block follow the previous one.

    Certified: Q^(0) = 0 and |Q^|_inf < delta (exact, blockwise);
    m{|Q - 1| > delta} < eps (grid measure); a certified upper bound for
    |S**(Q)|_inf with the measured constant reported.
    """
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    grid = grid or CircleGrid(2 ** 14)
    K = max(8, 2 ** math.ceil(math.log2(4.0 / min(eps, delta))))
    tile, dip_width, deg_dip, deviations = _tiled_setup(
        eps, delta, K, min(1.0 / (2 * K), eps * delta / 16.0))
    deg_f = tile.degree()
    dip = _dip_payload(dip_width, deg_dip)
    rates = _segment_rates(K, deg_f, dip.degree())
    deviations.append(
        "block rates follow the geometric growth K*(2 deg F + deg G + 2)^s "
        "rounded to odd values (full sampling orbits on even grids)"
    )
    q = _tiled_sum(tile, dip, rates, "segments")

    report = ApproximantReport(q, deviations=tuple(deviations))
    report.add("qhat_zero", abs(q.coeff_zero()), 1e-15, strict_less=False)
    report.add("qhat_linf", q.coeff_linf(), delta)
    vals = q.values(grid)
    report.add("close_to_one", measure_fraction(np.abs(vals - 1.0) > delta), eps)
    lower, upper = q.sstar_star_bracket(grid)
    report.extras["sstar_star_lower_times_eps"] = float(lower.max()) * eps
    c_meas = float(upper.max()) * eps
    report.add("sstar_star_constant", c_meas, SSTAR_CONSTANT)
    report.extras["sstar_star_constant"] = c_meas
    report.extras["tiles"] = float(K)
    report.extras["deg_tile"] = float(deg_f)
    report.extras["deg_dip"] = float(dip.degree())
    report.extras["coeff_l1"] = q.coeff_l1()
    report.extras["min_orbit_fraction"] = q.min_orbit_fraction(grid)
    if strict:
        report.raise_if_failed("korner_polynomial")
    return report


def _budget_tiled_dip(eps: float, delta: float, tiles: int,
                      budget: int) -> Tuple[BlockSum, Tuple[str, ...]]:
    """The block approximant's tiled dip Q3, of total degree <= budget.

    Same tiles-times-contracted-dip sum as `korner_polynomial`, with tile
    l1 tail 0.02 and greedy prime rates (disjoint, interleaved blocks); the
    dip is capped, then shrunk, until the sum fits the budget.  Nothing is
    measured here: the block approximant certifies the product it builds.
    """
    tile, dip_width, deg_dip, deviations = _tiled_setup(eps, delta, tiles, 0.02)
    deg_f = tile.degree()
    # greedy prime rates start around 2 * deg_dip * (2 deg_f + 2), so the
    # total degree grows like 2 (2 deg_f + 2) deg_dip^2; solve for the
    # largest dip that fits and widen it so the dip stays resolvable
    fit = int(math.sqrt(budget / max(2.2 * (2 * deg_f + 2), 1.0)))
    if fit < 8:
        raise ConstructionInfeasible(
            f"payload budget {budget} below the minimal tiled-dip size",
            {"budget": budget, "deg_tile": deg_f},
        )
    if fit < deg_dip:
        deg_dip = fit
        dip_width = max(dip_width, min(2.0, 12.0 / deg_dip))
        deviations.append(
            f"dip degree capped at {deg_dip} (budget {budget}); dip "
            f"widened to {dip_width:.3g} to stay resolvable"
        )
    dip = _dip_payload(dip_width, deg_dip)
    while True:
        rates = disjoint_prime_rates(tiles, dip.degree(), 2 * deg_f)
        needed = dip.degree() * rates[-1] + deg_f
        if needed <= budget:
            break
        new_deg = max(8, min(int(dip.degree() * math.sqrt(budget / needed)),
                             dip.degree() - 1))
        if new_deg == dip.degree():
            raise ConstructionInfeasible(
                f"tiled dip polynomial cannot fit budget {budget}",
                {"budget": budget, "tiles": tiles, "deg_tile": deg_f,
                 "deg_dip": dip.degree(), "needed_degree": float(needed)},
            )
        dip = _dip_payload(max(dip_width, min(2.0, 12.0 / new_deg)), new_deg)
    deviations.append(
        "block rates are greedy primes with disjoint (interleaved) "
        "blocks; partial-sum control falls back to the l1 bound"
    )
    return _tiled_sum(tile, dip, rates, "subblocks"), tuple(deviations)


# ---------------------------------------------------------------------------
# analytic variant with exceptional set
# ---------------------------------------------------------------------------

def analytic_korner(eps: float, grid: Optional[CircleGrid] = None,
                    unit_floor: float = 0.2, k_cap: int = 41,
                    strict: bool = True) -> ApproximantReport:
    """Analytic Q and exceptional mask E with Q ~ 1 on E.

    Construction: an analytic unit approximant G, tile partial sums F of
    the K-tile triangle, and Q = sum T^s(F) * G(N_s t) with N_s = K * B^s;
    E removes the pullback sets where |G(N_s t) - 1| >= eps/4 inside each
    tile interval.

    Certified (measured): |Q^|_inf < eps; m(T \\ E) < eps; |Q - 1| < eps
    on E; sup_n |S_n(Q)|_{L2(E)} < 2; sup_n m{|S_n(Q)| > 2} < eps.  The
    partial-sum certificates use the certified pointwise upper bound for
    sup_n |S_n| (per-prefix decomposition), so a pass is rigorous while a
    failure reports the bound, not necessarily a sharp value.

    The unit approximant quality eps/4 requires an outer factor of size
    exp(C/eps) (see analytic_unit); below `unit_floor` the G quality is
    clamped with a recorded deviation, which generally costs certificates
    2 and 3 at small eps.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    grid = grid or CircleGrid(2 ** 15)
    deviations = []
    g_target = eps / 4.0
    if g_target < unit_floor:
        deviations.append(
            f"unit approximant quality clamped to {unit_floor} (requested "
            f"{g_target:.4g} exceeds double-precision outer range)"
        )
        g_target = unit_floor
    g_rep = analytic_unit(g_target, grid=grid, strict=False)
    g_poly: TrigPoly = g_rep.poly
    g_l1 = tp.coeff_norms(g_poly).l1

    k_req = (2.0 * g_l1 / eps) ** 2
    K = int(min(k_req, k_cap))
    K = max(9, K)
    if K % 2 == 0:
        K += 1
    if k_req > k_cap:
        deviations.append(
            f"tile count clamped to {K} (exact rule needs K > {k_req:.3g}); "
            "L2 window certificates are expected to fail at this scale"
        )
    tile_width = 2.0 * math.pi / K
    f_tol = eps / (10.0 * K * g_l1)
    tile = _triangle_partial(tile_width, max(f_tol, 1e-4),
                             max_degree=ANALYTIC_TILE_DEGREE_CAP)
    if triangle_coeff_tail(tile_width, tile.degree()) >= f_tol:
        deviations.append(
            f"tile l1 accuracy capped at degree {tile.degree()} "
            f"(rule wants tail < {f_tol:.3g})"
        )
    deg_f = tile.degree()

    rates = _segment_rates(K, deg_f, g_poly.degree())
    q = _tiled_sum(tile, g_poly, rates, "segments")

    # exceptional set: inside each tile interval, remove the pullback bad set
    t = grid.points
    two_pi = 2.0 * math.pi
    g_vals = g_poly.values(grid, allow_alias=True)
    bad = np.zeros(grid.size, dtype=bool)
    u_threshold = eps / 4.0
    if g_target > eps / 4.0:
        # with a clamped unit approximant the eps/4 cut would empty E;
        # carve the exceptional set at the achieved quality instead
        u_threshold = g_target
        deviations.append(
            f"exceptional-set threshold raised to {u_threshold} to match "
            "the clamped unit approximant")
    for s in range(1, K + 1):
        center = two_pi * s / K
        # I_s = [2 pi (s-1)/K, 2 pi (s+1)/K] on the circle
        d = np.angle(np.exp(1j * (t - center)))
        in_interval = np.abs(d) <= tile_width
        pull = np.abs(g_vals[contracted_index_map(rates[s - 1], grid)] - 1.0) >= u_threshold
        bad |= in_interval & pull
    e_mask = ~bad

    report = ApproximantReport(q, exceptional_set=e_mask,
                               deviations=tuple(deviations))
    report.add("qhat_linf", q.coeff_linf(), eps)
    report.add("exceptional_measure", measure_fraction(bad), eps)
    vals = q.values(grid)
    on_e = np.abs(vals - 1.0)[e_mask]
    report.add("close_to_one_on_E", float(on_e.max()) if on_e.size else 0.0, eps)
    # certified pointwise bound for sup_n |S_n(Q)|: the S** upper bracket
    sup_sn = q.sstar_upper(grid)
    l2_on = math.sqrt(float(np.mean(np.minimum(sup_sn, 1e18)[e_mask] ** 2))) if e_mask.any() else 0.0
    report.add("sup_n_L2_on_E", l2_on, 2.0)
    report.add("sup_n_tail_measure", measure_fraction(sup_sn > 2.0), eps)
    report.add("analytic", 0.0 if q.is_analytic() else 1.0, 0.5)
    report.extras["tiles"] = float(K)
    report.extras["g_l1"] = g_l1
    report.extras["deg_tile"] = float(deg_f)
    if strict:
        report.raise_if_failed("analytic_korner")
    return report


# ---------------------------------------------------------------------------
# block-spectrum approximants
# ---------------------------------------------------------------------------

P1_DEGREE_CAP = 2 ** 12
#: above this s, the cascade rates a*(2s)^(k+s) switch to lazy handles
EXACT_RATE_S_CAP = 10000


def _scale_rate(s: int, k: int, a: int):
    if s <= EXACT_RATE_S_CAP:
        return scale_factor(s, k, a)
    return LazyRate(a, 2 * s, k + s)


def _unit_payload(quality: float, s: int, grid: CircleGrid, message: str,
                  diagnostics: dict) -> ApproximantReport:
    """The one-sided unit approximant at `quality`, as a block payload of
    degree <= s; its infeasibility is raised again as `message`, with
    `diagnostics` and the inner diagnostics under "inner"."""
    try:
        rep = analytic_unit(quality, grid=grid, strict=False)
    except ConstructionInfeasible as exc:
        raise ConstructionInfeasible(
            message, {**diagnostics, "inner": exc.diagnostics}) from exc
    if rep.poly.degree() > s:
        raise ConstructionInfeasible(
            f"unit approximant degree {rep.poly.degree()} exceeds s = {s}",
            {"step": "unit", "required_order_exceeds": rep.poly.degree()},
        )
    return rep


def _carrier_rate_terms(p1: TrigPoly, payload: TrigPoly, s: int, a: int):
    """One BlockTerm per carrier frequency k, contracted at rate a(2s)^(k+s)."""
    return [BlockTerm(TrigPoly({k: c}), payload, _scale_rate(s, k, a))
            for k, c in p1.iter_coeffs()]


def _structural_containment(product, p1: TrigPoly, payload: TrigPoly,
                            q3, s: int, a: int, analytic: bool) -> dict:
    """Certify spec P inside the block family from the factored structure.

    Elements of the assembled product are k_q * a(2s)^(2s+2) + k + k_v *
    a(2s)^(k+s); membership in the sumset family amounts to range checks
    on the component indices, which this verifies exactly.  For exact
    integer rates a sample of reconstructed frequencies is additionally
    re-checked against the standalone membership oracle.
    """
    ok = True
    reasons = []
    if p1.degree() > s:
        ok = False
        reasons.append("carrier degree exceeds s")
    if payload.degree() > s:
        ok = False
        reasons.append("payload degree exceeds s")
    if analytic and not payload.is_analytic():
        ok = False
        reasons.append("payload not analytic")
    if q3.degree_log2() > math.log2(max(s, 1)) + 1e-12:
        ok = False
        reasons.append("tiled stage degree exceeds s")
    sampled = 0
    bad = 0
    if isinstance(product, ScaledProduct) and not product.lazy:
        member = block_member_D if analytic else block_member_B
        for k, _ in product.iter_coeffs(limit=96):
            sampled += 1
            if not member(k, s, a):
                bad += 1
        if bad:
            ok = False
            reasons.append(f"{bad} sampled frequencies outside the block")
    return {"requirement": "spectrum_in_block", "measured": float(bad),
            "bound": 0.5, "pass": bool(ok), "checked": sampled,
            "reasons": reasons}


def block_approximant(f: SampledFunction, eps: float, delta: float,
                      s: int, a: int,
                      strict: bool = True) -> ApproximantReport:
    """Polynomial P with spec P inside the two-sided block family B(s, a).

    Three steps: a low-degree approximant P1 of f; P2 spreading each
    carrier frequency onto its own contracted copy of a zero-mean unit
    approximant (whose values sit near 1); and the final special product
    with a contracted tiled-dip polynomial riding the coarse carrier
    progression, P = Q3(R t) * P2 with R = a (2s)^(2s+2).

    Certified (measured): m{|P - f| > delta} < eps; spectrum containment
    (structural + sampled oracle); m{S**(P) > C/eps (|f| + delta)} < eps
    with C = SSTAR_CONSTANT and S** replaced by its certified pointwise
    upper bound.

    Carrier degrees >= 1 force one-sided unit approximants at quality
    ~eps/deg(P1), whose outer factor grows like exp(C deg(P1)/eps);
    infeasible requests raise ConstructionInfeasible with the computed
    ingredient requirements.
    """
    grid = f.grid
    if s < 1 or a < 1:
        raise ValueError("s and a must be positive integers")

    p1, diag1 = fejer_until(f, delta / 3.0, eps / 3.0, min(s, P1_DEGREE_CAP))
    if p1 is None:
        raise ConstructionInfeasible(
            "no carrier-degree approximant reaches the (delta/3, eps/3) bound; "
            f"required order exceeds {min(s, P1_DEGREE_CAP)}",
            {"step": "P1", "required_order_exceeds": min(s, P1_DEGREE_CAP),
             "best": diag1},
        )
    deg1 = p1.degree()
    l1_p1 = max(tp.coeff_norms(p1).l1, 1e-12)
    # unit-approximant quality: eps2 divides the eps/3 budget among the
    # 2 deg P1 + 1 pullback copies of the bad set; delta2 divides delta/3
    # by the carrier l1 mass
    eps2 = eps / (3.0 * (2 * deg1 + 1))
    delta2 = delta / (3.0 * l1_p1)
    deviations = []

    if len(p1) == 0:  # P = 0: the certificates measure f itself
        report = ApproximantReport(TrigPoly(), deviations=("zero target",))
        report.add("approximates_f",
                   measure_fraction(np.abs(f.values) > delta), eps)
        report.add("spectrum_in_block", 0.0, 0.5)
        report.add("sstar_measure", 0.0, eps)
        return report

    # step 2: unit approximants on the carrier frequencies.  The payloads
    # are zero-mean polynomials whose *values* stay near 1, so
    # P2 = sum_k P1^(k) e^{ikt} payload(r_k t) reproduces P1 off a small set
    # while the spectrum lands entirely on the translated progressions.
    if deg1 == 0:
        payload, vdiag = symmetric_unit(eps / 3.0, delta2, max_degree=s, grid=grid)
        if vdiag["bad_fraction"] > eps / 3.0:
            raise ConstructionInfeasible(
                "two-sided dip cannot reach the required bad-set measure "
                f"within payload degree {s}",
                {"step": "unit", "required_order_exceeds": s, "detail": vdiag},
            )
        deviations.append(
            "constant carrier served by a two-sided Jackson dip on the "
            "mirrored halves of the block (zero mean exactly)"
        )
    else:
        target = min(eps2, delta2)
        payload = _unit_payload(
            target, s, grid,
            f"one-sided unit approximant infeasible at quality {target:.3g} "
            f"(needed for carrier degree {deg1})",
            {"step": "unit", "carrier_degree": deg1,
             "required_quality": target}).poly
    unit_l1 = tp.coeff_norms(payload).l1 + 1.0

    p2 = BlockSum(_carrier_rate_terms(p1, payload, s, a), layout="segments")

    # step 3: tiled dip contracted onto the coarse carrier progression
    delta3 = delta / (6.0 * l1_p1 * unit_l1)
    q3 = q3_exc = None
    for tiles in (4, 3):
        try:
            q3, q3_deviations = _budget_tiled_dip(eps / 3.0, delta3, tiles, s)
            break
        except ConstructionInfeasible as exc:
            q3_exc = exc
    if q3 is None:
        raise ConstructionInfeasible(
            f"tiled-dip stage does not fit inside payload budget s = {s}",
            {"step": "Q3", "inner": q3_exc.diagnostics},
        ) from q3_exc
    # P = Q3(R t) * P2: the tiled dip's values sit near 1, so P tracks P2,
    # while every frequency k_q R + (k + k_v p(k)) lands inside the block.
    poly = ScaledProduct(q3, _scale_rate(s, s + 2, a), p2)

    report = ApproximantReport(
        poly, deviations=tuple(deviations) + q3_deviations)
    vals = poly.values(grid)
    report.add("approximates_f",
               measure_fraction(np.abs(vals - f.values) > delta), eps)
    sup = poly.sstar_upper(grid)
    thresh = (SSTAR_CONSTANT / eps) * (np.abs(f.values) + delta)
    report.add("sstar_measure", measure_fraction(sup > thresh), eps)
    report.extras["sstar_constant_budget"] = SSTAR_CONSTANT
    report.extras["carrier_degree"] = float(deg1)
    report.extras["payload_degree"] = float(payload.degree())
    report.extras["q3_degree_log2"] = float(math.log2(max(q3.degree(), 1)))
    report.extras["spectrum_size"] = float(poly.spectrum_size())
    report.extras["min_orbit_fraction"] = poly.min_orbit_fraction(grid)
    report.measured["spectrum_in_block"] = _structural_containment(
        poly, p1, payload, q3, s, a, analytic=False)
    if strict:
        report.raise_if_failed("block_approximant")
    return report


def analytic_block_approximant(f: SampledFunction, eps: float,
                               s: int, a: int,
                               strict: bool = True) -> ApproximantReport:
    """One-sided variant: spec P inside the positive block family D(s, a).

    Same three-step scheme with every ingredient analytic, so even the
    constant-carrier path needs the one-sided unit approximant; certified
    (measured): ||f - P||_0 < eps; spectrum containment; for every n,
    m{|S_n(P)| > 2|f| + eps} < eps via the certified window bound.
    """
    grid = f.grid
    if s < 1 or a < 1:
        raise ValueError("s and a must be positive integers")

    p1, diag1 = fejer_until(f, eps / 3.0, eps / 3.0, min(s, P1_DEGREE_CAP))
    if p1 is None:
        raise ConstructionInfeasible(
            "no carrier-degree approximant reaches the eps/3 bound",
            {"step": "P1", "best": diag1},
        )
    if len(p1) == 0:  # P = 0: the certificates measure f itself
        report = ApproximantReport(TrigPoly(), deviations=("zero target",))
        report.add("l0_f_minus_P", l0_of_abs(np.abs(f.values)), eps)
        report.add("spectrum_in_block", 0.0, 0.5)
        report.add("sn_measure", 0.0, eps)
        return report
    deg1 = p1.degree()
    l1_p1 = max(tp.coeff_norms(p1).l1, 1e-12)

    eps2 = eps / (6.0 * max(l1_p1, deg1) + 3.0)
    q2_rep = _unit_payload(
        eps2, s, grid,
        f"one-sided unit approximant infeasible at quality {eps2:.3g}",
        {"step": "unit", "required_quality": eps2, "carrier_degree": deg1})
    payload = q2_rep.poly
    unit_l1 = tp.coeff_norms(payload).l1

    p2 = BlockSum(_carrier_rate_terms(p1, payload, s, a), layout="segments")

    eps3 = eps / (6.0 * l1_p1 * unit_l1 + 3.0)
    q3_rep = analytic_korner(eps3, grid=grid, strict=False)
    q3 = q3_rep.poly
    if q3.degree() > s:
        raise ConstructionInfeasible(
            f"analytic tiled stage degree exceeds s = {s}",
            {"step": "Q3", "required_order_exceeds": float(math.log2(q3.degree()))},
        )
    poly = ScaledProduct(q3, _scale_rate(s, s + 2, a), p2)

    report = ApproximantReport(
        poly, deviations=tuple(q2_rep.deviations) + tuple(q3_rep.deviations))
    vals = poly.values(grid)
    report.add("l0_f_minus_P", l0_of_abs(np.abs(vals - f.values)), eps)
    sup = poly.sstar_upper(grid)
    report.add("sn_measure",
               measure_fraction(sup > 2.0 * np.abs(f.values) + eps), eps)
    report.add("analytic", 0.0 if poly.is_analytic() else 1.0, 0.5)
    report.measured["spectrum_in_block"] = _structural_containment(
        poly, p1, payload, q3, s, a, analytic=True)
    report.extras["carrier_degree"] = float(deg1)
    if strict:
        report.raise_if_failed("analytic_block_approximant")
    return report
