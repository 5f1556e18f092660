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

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import trigpoly as tp
from .blockpoly import (BlockSum, BlockTerm, LazyRate, ScaledProduct,
                        contracted_index_map)
from .blocks import BlockRates, block_member_B, block_member_D
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
#: outer profile of `analytic_unit`: the arc measures UNIT_ARC_FRACTION*eps,
#: the off-arc depth is log(eps/UNIT_DEPTH_DIVISOR), and the bump ramps up
#: over UNIT_RAMP_FRACTION of the arc's half-width
UNIT_ARC_FRACTION = 0.9
UNIT_DEPTH_DIVISOR = 1.2
UNIT_RAMP_FRACTION = 0.35
#: prime candidates `disjoint_prime_rates` tries: over 10x the 521 of its
#: widest test draw (8 rates, degree 60, spread 31); `twosided` takes <= 135
RATE_WALK_CANDIDATES = 6000


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


def certificate(measured: float, bound: Optional[float], **details) -> dict:
    """The one certificate record: {"measured", "bound", "pass"} plus details.

    The only verdict in the package: a record passes iff its bound is None
    (a reported measurement) or measured < bound (so NaN fails), and it
    lists no failure `reasons`.
    """
    measured = float(measured)
    bound = None if bound is None else float(bound)
    passed = (bound is None or measured < bound) and not details.get("reasons")
    return {"measured": measured, "bound": bound, "pass": passed, **details}


@dataclass
class ApproximantReport:
    """Constructed polynomial plus its measured certificate table."""

    poly: object
    measured: Dict[str, dict] = field(default_factory=dict)
    exceptional_set: Optional[np.ndarray] = None
    deviations: Tuple[str, ...] = ()
    extras: Dict[str, float] = field(default_factory=dict)
    #: the polynomial's values on the evaluation grid, where the
    #: construction measured them (`analytic_unit`)
    values: Optional[np.ndarray] = None

    def add(self, name: str, measured: float, bound: float):
        self.measured[name] = certificate(measured, bound)

    def all_passed(self) -> bool:
        return all(v["pass"] for v in self.measured.values())

    def failures(self) -> List[str]:
        return [k for k, v in self.measured.items() if not v["pass"]]

    def to_json(self) -> str:
        body = {
            "requirements": {k: {"requirement": k, **v}
                             for k, v in self.measured.items()},
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

    Jensen's formula bounds the outer peak from below: |F| <= eps off a
    set of measure eps forces log sup|F| >= (1 - eps)/eps * log(1/eps)
    (`jensen_peak_log` in the extras).  The profile stays near that bound:
    its arc measures UNIT_ARC_FRACTION*eps and its off-arc depth is
    log(eps/UNIT_DEPTH_DIVISOR), so at eps = 0.2 R has degree 2048 on one
    2^14 work grid.  The truncation degree grows like the peak,
    exp(C/eps): eps = 0.15 needs degree 32768, eps = 0.14 DEGREE_CAP
    itself, and from 0.13 down no degree up to DEGREE_CAP reaches the
    bound, so the construction fails loudly rather than return
    cancellation noise.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    grid = grid or CircleGrid(2 ** 15)

    arc_measure = UNIT_ARC_FRACTION * eps
    half_width = arc_measure * math.pi  # m((-w, w)) = w/pi
    depth = math.log(eps / UNIT_DEPTH_DIVISOR)
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
        t = CircleGrid(m_work).points
        # plateau at `depth` off the arc, smooth bump inside; bump height
        # fixed by the exact zero-mean constraint
        bump = _smoothstep((half_width - np.abs(t))
                           / (UNIT_RAMP_FRACTION * half_width))
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
        f"dip arc of measure {UNIT_ARC_FRACTION}*eps with depth "
        f"log(eps/{UNIT_DEPTH_DIVISOR}): the outer peak sits near Jensen's "
        "bound and inside double-precision range",
    ))
    # certificates on the requested evaluation grid
    report.values = rv = r_poly.values(grid, allow_alias=True)
    l0_eval = l0_of_abs(np.abs(rv - 1.0))
    report.add("spectrum_in_Zplus", 0.0 if r_poly.is_analytic() else 1.0, 0.5)
    report.add("l0_R_minus_1", l0_eval, eps)
    mean_f = complex(f_vals.mean())
    report.add("mean_F_near_1", abs(mean_f - 1.0), 1e-3)
    report.extras["degree"] = float(r_poly.degree())
    report.extras["coeff_l1"] = tp.coeff_norms(r_poly).l1
    report.extras["outer_peak_log"] = peak_est
    # log |F| = Re(G + i conj G) on the final work grid
    report.extras["sampled_peak_log"] = float(boundary.real.max())
    report.extras["jensen_peak_log"] = (1.0 - eps) / eps * math.log(1.0 / eps)
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
    t = CircleGrid(m).points
    s = np.sin(t / 2.0)
    num = np.sin(n * t / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ker = np.where(np.abs(s) < 1e-15, float(n) ** 4, (num / s) ** 4)
    ker_hat = np.fft.fft(ker).real / m
    ks = np.arange(1, 2 * n - 1)
    # undo the -pi grid offset: fft bins carry (-1)^k
    c = ker_hat[ks] * (-1.0) ** (ks % 2) / ker_hat[0]
    keep = np.abs(c) > 1e-18
    return _mirrored(ks[keep], -c[keep])


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

def _mirrored(ks: np.ndarray, cs: np.ndarray) -> TrigPoly:
    """The even polynomial with coefficient cs[i] at +-ks[i], stored in the
    order k, -k; ks ascends from 0 or 1 (k = 0 is stored once) and cs holds
    nonzero reals."""
    pairs = np.column_stack((ks, -ks)).ravel()
    coeffs = np.repeat(cs.astype(complex), 2)
    skip = int(ks.size > 0 and ks[0] == 0)
    return TrigPoly._of_arrays(pairs[skip:], coeffs[skip:])


def _fejer_mean(hat: np.ndarray, degree: int) -> TrigPoly:
    """Fejer mean of degree `degree` from the normalized grid DFT `hat`,
    frequencies ascending; coefficients with modulus <= 1e-15 are dropped.

    The weights are real, so each complex-by-real product rounds as the
    scalar product c_k * w_k does.
    """
    ks = np.arange(-degree, degree + 1)
    c = hat[ks % hat.size] * (1.0 - np.abs(ks) / (degree + 1))
    # undo the -pi grid offset: hat indexes exp(2 pi i k j / M)
    c *= (-1.0) ** (ks % 2)
    keep = np.hypot(c.real, c.imag) > 1e-15
    return TrigPoly._of_arrays(ks[keep], c[keep])


def fejer_poly(f: SampledFunction, degree: int) -> TrigPoly:
    """Fejer mean of degree `degree` from the grid DFT of f.

    Frequencies above the grid Nyquist alias into the DFT coefficients;
    for the smooth low-degree stage this is the intended estimator.
    """
    return _fejer_mean(np.fft.fft(f.values) / f.grid.size, degree)


def fejer_until(f: SampledFunction, delta: float, eps: float,
                max_degree: int) -> Tuple[Optional[TrigPoly], dict]:
    """Smallest power-of-two-degree Fejer mean with m{|f - P| > delta} < eps."""
    grid = f.grid
    hat = np.fft.fft(f.values) / grid.size
    best = None
    deg = 0
    while deg <= max_degree:
        p = _fejer_mean(hat, deg)
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

def _first_clash(used: np.ndarray, cand: int, payload_deg: int,
                 gap: int) -> Optional[Tuple[int, int]]:
    """(k, u) for the first multiple k * cand, 1 <= k <= payload_deg,
    within `gap` of a used multiple u (the larger such u), or None.  The
    sorted int64 `used` starts at the sentinel -2^62 and its entries lie
    more than `gap` apart, so that u is the largest <= k * cand + gap;
    the multiples are looked up 4096 at a time."""
    for lo in range(1, payload_deg + 1, 4096):
        v = np.arange(lo, min(lo + 4096, payload_deg + 1)) * cand
        u = used[used.searchsorted(v + gap, "right") - 1]
        hit = u >= v - gap
        n = int(hit.argmax())
        if hit[n]:
            return lo + n, int(u[n])
    return None


def disjoint_prime_rates(count: int, payload_deg: int,
                         carrier_spread: int) -> List[int]:
    """Odd primes N_1 < ... < N_count whose dilates k*N_i stay separated.

    Ensures |k N_i - k' N_j| > 2*carrier_spread + 2 for all distinct pairs
    with 1 <= k, k' <= payload_deg (prime rates preclude exact collisions;
    the greedy walk enforces the gap).  The walk takes the primes in
    increasing order and keeps the first whose multiples clear every used
    one; a candidate whose k-th multiple comes within the gap of a used u
    is left at that multiple, and since every N' <= (u + gap) // k clashes
    with u at the same k, the walk jumps past them.  It gives up after
    RATE_WALK_CANDIDATES candidates, or at multiples past 2^62.
    """
    gap = 2 * carrier_spread + 2
    used = np.array([-2 ** 62])  # the sorted multiples k * N_i follow
    rates: List[int] = []
    cand = next(primes_from(max(2 * carrier_spread + 3,
                                2 * payload_deg * (carrier_spread + 2))))
    for _ in range(RATE_WALK_CANDIDATES):
        if len(rates) == count or payload_deg * cand >= 2 ** 62:
            break
        clash = _first_clash(used, cand, payload_deg, gap)
        if clash is None:
            rates.append(cand)
            used = np.sort(np.concatenate([used, np.arange(1, payload_deg + 1) * cand]))
            cand = next(primes_from(cand + 2))
        else:
            k, u = clash
            cand = next(primes_from((u + gap) // k + 1))
    if len(rates) < count:
        raise ConstructionInfeasible(
            f"found {len(rates)} of {count} prime rates in RATE_WALK_CANDIDATES = "
            f"{RATE_WALK_CANDIDATES} candidates with multiples below 2^62",
            {"candidate_cap": RATE_WALK_CANDIDATES, "rates_found": len(rates),
             "payload_deg": payload_deg, "carrier_spread": carrier_spread})
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
    ks = np.flatnonzero(arr)  # arr[0] = eps_width / 2 pi > 0
    return _mirrored(ks, arr[ks])


def _dip_payload(dip_width: float, degree: int) -> TrigPoly:
    """Zero-mean dip G = 1 - A * S_N(tau_w) with A = 1/tau_hat(0).

    The polynomial's stored coefficients are exactly -A*tau_hat(k), k != 0;
    its values are 1 - A * S_N(tau_w)(t).
    """
    amp = 1.0 / triangle_coeff(dip_width, 0)
    c = -amp * triangle_coeff_array(dip_width, degree)
    ks = np.flatnonzero(c[1:]) + 1
    return _mirrored(ks, c[ks])


def _segment_rates(K: int, deg_tile: int, deg_payload: int) -> List[int]:
    """Rates (K B^s) | 1, s = 1..K, with B = (2 deg_tile + deg_payload + 2) | 1:
    each block follows the previous one, and odd rates keep full sampling
    orbits on power-of-two grids."""
    base = (2 * deg_tile + deg_payload + 2) | 1
    rates = []
    r = K
    for _ in range(K):
        r *= base
        rates.append(r | 1)
    return rates


def _tiled_sum(tile: TrigPoly, payload: TrigPoly, rates: List[int],
               layout: str) -> BlockSum:
    """sum_s (tile translated by 2 pi s / K) * payload(N_s t), K = len(rates).

    Term s holds the tile itself with the shift (s, K) (`BlockTerm`), so
    the sum keeps one tile: its translates are formed only while the sum
    is evaluated or its coefficients are listed, and its structure record
    writes the tile once."""
    K = len(rates)
    return BlockSum([BlockTerm(tile, payload, r, shift=(s, K))
                     for s, r in enumerate(rates, start=1)], layout=layout)


def _tile(K: int, l1_tol: float, floor: float = 0.0,
          max_degree: int = 2 ** 16) -> Tuple[TrigPoly, List[str]]:
    """(tile, deviations): the K-tile triangle partial sum with l1 tail
    < max(l1_tol, floor), and a deviation where its tail is not below
    l1_tol, because of the floor or of `_triangle_partial`'s degree cap."""
    width = 2.0 * math.pi / K
    tile = _triangle_partial(width, max(l1_tol, floor), max_degree=max_degree)
    if triangle_coeff_tail(width, tile.degree()) < l1_tol:
        return tile, []
    return tile, [f"tile l1 accuracy capped at degree {tile.degree()} "
                  f"(rule wants tail < {l1_tol:.3g})"]


def _tiled_setup(eps: float, delta: float, K: int,
                 tile_l1_tol: float) -> Tuple[TrigPoly, float, int, List[str]]:
    """(tile, dip width, dip degree, deviations) shared by both tiled dips:
    the K-tile `_tile` for tile_l1_tol, and the zero-mean dip's width
    eps/4 and degree for delta."""
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    tile, tile_deviations = _tile(K, tile_l1_tol)
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
    ] + tile_deviations
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
        "rounded to odd values (full sampling orbits on power-of-two grids; "
        "extras.min_orbit_fraction reports the orbit on other grids)"
    )
    q = _tiled_sum(tile, dip, rates, "segments")

    report = ApproximantReport(q, deviations=tuple(deviations))
    report.add("qhat_zero", abs(q.coeff_zero()), 1e-15)
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


#: decimal digits up to which messages print a payload budget in full; a
#: larger one is printed as 10^<log10>
BUDGET_DIGITS = 30


def _budget_text(budget: int) -> str:
    """The budget in full up to BUDGET_DIGITS digits, else as 10^<log10>."""
    if budget < 10 ** BUDGET_DIGITS:
        return str(budget)
    return f"10^{math.log10(budget):.4g}"


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
            f"payload budget {_budget_text(budget)} below the minimal tiled-dip size",
            {"budget": budget, "deg_tile": deg_f},
        )
    if fit < deg_dip:
        deg_dip = fit
        dip_width = max(dip_width, min(2.0, 12.0 / deg_dip))
        deviations.append(
            f"dip degree capped at {deg_dip} (budget {_budget_text(budget)}); dip "
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
                f"tiled dip polynomial cannot fit budget {_budget_text(budget)}",
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

#: grid steps by which each tile's index window reaches past its interval,
#: far above the rounding of the angle test it still runs on the window
TILE_WINDOW_SLACK = 3


def _pullback_bad_set(g_vals: np.ndarray, rates: List[int], grid: CircleGrid,
                      threshold: float) -> np.ndarray:
    """Mask of the grid points t in some tile interval
    I_s = [2 pi (s-1)/K, 2 pi (s+1)/K] with |G(rates[s-1] t) - 1| >=
    threshold, for s = 1, ..., K = len(rates) and G's grid values `g_vals`.

    Membership is the angle test |angle(e^{i(t - 2 pi s/K)})| <= 2 pi/K,
    run only on the index window of I_s widened by TILE_WINDOW_SLACK grid
    steps on each side (the whole circle when that covers it), so it
    decides every point as a test over the whole circle does; the index
    map and G are taken only at the points inside.
    """
    m, count = grid.size, len(rates)
    h = m // 2
    tile_width = 2.0 * math.pi / count
    t = grid.points
    bad = np.zeros(m, dtype=bool)
    for s in range(1, count + 1):
        center = 2.0 * math.pi * s / count
        # t_j = 2 pi (j - h) / M: I_s spans j - h = M (s - 1)/K .. M (s + 1)/K
        lo = h + m * (s - 1) // count - TILE_WINDOW_SLACK
        hi = h - (-m * (s + 1) // count) + TILE_WINDOW_SLACK
        j = np.arange(m) if hi - lo + 1 >= m else np.arange(lo, hi + 1) % m
        d = np.angle(np.exp(1j * (t[j] - center)))
        j = j[np.abs(d) <= tile_width]
        index = contracted_index_map(rates[s - 1], grid, j)
        bad[j[np.abs(g_vals[index] - 1.0) >= threshold]] = True
    return bad


def l2_on(sup: np.ndarray, mask: np.ndarray) -> float:
    """L2 norm over `mask` of the window bound, capped at 1e15 (0 on an
    empty mask)."""
    return math.sqrt(float(np.mean(np.minimum(sup, 1e15)[mask] ** 2))) \
        if mask.any() else 0.0


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

    With the default `unit_floor` and `k_cap`, every eps in (0, 1/2) builds
    the same sum and exceptional set: eps/4 < 1/8 clamps the unit quality,
    and with it the exceptional-set threshold, to 0.2; the tile-count rule
    (2 l1(G) / eps)^2 asks for far more than 41 tiles (l1(G) is about
    7.6e4); and the tile accuracy eps / (10 K l1(G)) stays below its floor
    1e-4.  Only the certificate bounds and the deviation strings depend on
    eps.
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
    g_l1 = g_rep.extras["coeff_l1"]

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
    tile, tile_deviations = _tile(K, eps / (10.0 * K * g_l1), 1e-4,
                                  ANALYTIC_TILE_DEGREE_CAP)
    deviations += tile_deviations
    deg_f = tile.degree()

    rates = _segment_rates(K, deg_f, g_poly.degree())
    q = _tiled_sum(tile, g_poly, rates, "segments")

    # exceptional set: inside each tile interval, remove the pullback bad set
    u_threshold = eps / 4.0
    if g_target > eps / 4.0:
        # with a clamped unit approximant the eps/4 cut would empty E;
        # carve the exceptional set at the achieved quality instead
        u_threshold = g_target
        deviations.append(
            f"exceptional-set threshold raised to {u_threshold} to match "
            "the clamped unit approximant")
    bad = _pullback_bad_set(g_rep.values, rates, grid, u_threshold)
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
    report.add("sup_n_L2_on_E", l2_on(sup_sn, e_mask), 2.0)
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


def _scale_rate(rates: BlockRates, k: int):
    """a(2s)^(k+s) from the construction's rate table, or a lazy handle
    above EXACT_RATE_S_CAP."""
    s = rates.s
    if s <= EXACT_RATE_S_CAP:
        return rates[k]
    return LazyRate(rates.a, 2 * s, k + s)


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


def _carrier_rate_terms(p1: TrigPoly, payload: TrigPoly, rates: BlockRates):
    """One BlockTerm per carrier frequency k, contracted at rate a(2s)^(k+s)."""
    return [BlockTerm(TrigPoly({k: c}), payload, _scale_rate(rates, k))
            for k, c in p1.iter_coeffs()]


#: frequencies the membership oracle re-checks in `_structural_containment`
CONTAINMENT_SAMPLES = 96
#: steps of the R3 low-discrepancy sequence: g^-1, g^-2, g^-3 with g the
#: plastic number, the real root of g^3 = g + 1
_R3_STEPS = tuple(1.324717957244746 ** -j for j in (1, 2, 3))


def _sampled_frequencies(product: ScaledProduct, count: int) -> List[int]:
    """Up to `count` frequencies k_q R + c + k_v r of product = Q(R t) * P2
    with exact rates: k_q a frequency of Q, c a carrier frequency of a term
    of the BlockSum P2, r that term's rate and k_v a frequency of its
    payload.  When the product has at most `count` frequencies, all are
    taken.  Otherwise sample i takes the point (0.5 + i g^-j) mod 1 of the
    j-th index range (the R3 sequence), so the samples spread over the
    three ranges together, and the construction alone fixes them."""
    kq = product.q.coeff_arrays()[0].tolist()
    carriers = [(c, t.rate, t.payload._k.tolist())
                for t in product.p.terms for c in t.carrier._k.tolist()]
    if len(kq) * sum(len(kv) for _, _, kv in carriers) <= count:
        return [q * product.rate + c + v * r
                for q in kq for c, r, kv in carriers for v in kv]
    out = []
    for i in range(count):
        x, y, z = ((0.5 + i * a) % 1.0 for a in _R3_STEPS)
        c, r, kv = carriers[int(y * len(carriers))]
        out.append(kq[int(x * len(kq))] * product.rate + c + kv[int(z * len(kv))] * r)
    return out


def _structural_containment(product, p1: TrigPoly, payload: TrigPoly,
                            q3, rates: BlockRates, analytic: bool) -> dict:
    """Certify spec P inside the block family from the factored structure.

    Elements of the assembled product are k_q * a(2s)^(2s+2) + k + k_v *
    a(2s)^(k+s); membership in the sumset family amounts to range checks
    on the component indices, which this verifies exactly.  For exact
    integer rates CONTAINMENT_SAMPLES frequencies spread over the
    (k_q, k, k_v) triples (`_sampled_frequencies`) are additionally
    re-checked against the standalone membership oracle.  The oracle reads
    its rates from `rates`, the table the construction built its terms
    from, so the sample costs no new power for a translate the carrier
    already uses and one power for each other translate that passes the
    oracle's 2-adic filter.
    """
    s = rates.s
    reasons = []
    if p1.degree() > s:
        reasons.append("carrier degree exceeds s")
    if payload.degree() > s:
        reasons.append("payload degree exceeds s")
    if analytic and not payload.is_analytic():
        reasons.append("payload not analytic")
    if q3.degree_log2() > math.log2(max(s, 1)) + 1e-12:
        reasons.append("tiled stage degree exceeds s")
    sampled = 0
    bad = 0
    if not product.lazy:
        member = block_member_D if analytic else block_member_B
        samples = _sampled_frequencies(product, CONTAINMENT_SAMPLES)
        sampled = len(samples)
        bad = sum(not member(k, rates) for k in samples)
        if bad:
            reasons.append(f"{bad} sampled frequencies outside the block")
    return certificate(bad, 0.5, checked=sampled, reasons=reasons)


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
    f.require_finite("block_approximant")
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
        unit_l1 = tp.coeff_norms(payload).l1
        deviations.append(
            "constant carrier served by a two-sided Jackson dip on the "
            "mirrored halves of the block (zero mean exactly)"
        )
    else:
        target = min(eps2, delta2)
        unit = _unit_payload(
            target, s, grid,
            f"one-sided unit approximant infeasible at quality {target:.3g} "
            f"(needed for carrier degree {deg1})",
            {"step": "unit", "carrier_degree": deg1,
             "required_quality": target})
        payload = unit.poly
        unit_l1 = unit.extras["coeff_l1"]

    rates = BlockRates(s, a)
    p2 = BlockSum(_carrier_rate_terms(p1, payload, rates), layout="segments")

    # step 3: tiled dip contracted onto the coarse carrier progression
    delta3 = delta / (6.0 * l1_p1 * (unit_l1 + 1.0))
    q3 = q3_exc = None
    for tiles in (4, 3):
        try:
            q3, q3_deviations = _budget_tiled_dip(eps / 3.0, delta3, tiles, s)
            break
        except ConstructionInfeasible as exc:
            q3_exc = exc
    if q3 is None:
        raise ConstructionInfeasible(
            f"tiled-dip stage infeasible at payload budget s = {_budget_text(s)}: "
            f"{q3_exc}",
            {"step": "Q3", "inner": q3_exc.diagnostics},
        ) from q3_exc
    # P = Q3(R t) * P2: the tiled dip's values sit near 1, so P tracks P2,
    # while every frequency k_q R + (k + k_v p(k)) lands inside the block.
    poly = ScaledProduct(q3, _scale_rate(rates, s + 2), p2)

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
        poly, p1, payload, q3, rates, analytic=False)
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
    f.require_finite("analytic_block_approximant")
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
    unit_l1 = q2_rep.extras["coeff_l1"]

    rates = BlockRates(s, a)
    p2 = BlockSum(_carrier_rate_terms(p1, payload, rates), layout="segments")

    eps3 = eps / (6.0 * l1_p1 * unit_l1 + 3.0)
    q3_rep = analytic_korner(eps3, grid=grid, strict=False)
    q3 = q3_rep.poly
    if q3.degree() > s:
        raise ConstructionInfeasible(
            f"analytic tiled stage degree exceeds s = {_budget_text(s)}",
            {"step": "Q3", "required_order_exceeds": float(math.log2(q3.degree()))},
        )
    poly = ScaledProduct(q3, _scale_rate(rates, s + 2), p2)

    report = ApproximantReport(
        poly, deviations=tuple(q2_rep.deviations) + tuple(q3_rep.deviations))
    vals = poly.values(grid)
    report.add("l0_f_minus_P", l0_of_abs(np.abs(vals - f.values)), eps)
    sup = poly.sstar_upper(grid)
    report.add("sn_measure",
               measure_fraction(sup > 2.0 * np.abs(f.values) + eps), eps)
    report.add("analytic", 0.0 if poly.is_analytic() else 1.0, 0.5)
    report.measured["spectrum_in_block"] = _structural_containment(
        poly, p1, payload, q3, rates, analytic=True)
    report.extras["carrier_degree"] = float(deg1)
    if strict:
        report.raise_if_failed("analytic_block_approximant")
    return report
