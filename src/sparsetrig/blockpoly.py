"""Lazy polynomials built from carrier * contracted-payload blocks.

The constructions in this package multiply low-degree carriers C_i(t) by
payloads H_i contracted to enormous rates r_i:

    W(t) = sum_i C_i(t) * H_i(r_i * t),      spec H_i excludes 0.

Supports multiply out to sizes (and degrees) that cannot be materialized,
so this module represents W structurally and provides

  * exact values at grid points through modular index arithmetic
    (e^{i r t_j} only depends on r mod M and the parity of r);
  * exact coefficient norms from per-block products, valid because the
    frequency blocks k*r_i + spec C_i are validated pairwise disjoint;
  * certified pointwise upper bounds (and boundary-family lower bounds)
    for the partial-sum maxima S* and S**, based on decomposing any
    window into complete half-block segments plus at most two cut blocks.

Rates may be exact integers or LazyRate objects a * b^e whose value is
never materialized; frequency bookkeeping then runs in signed-log space
with explicit relative margins instead of exact integer comparisons.

TrigPoly, BlockSum and ScaledProduct answer one polynomial protocol:
values(grid, allow_alias), degree, degree_log2, min_abs_freq, is_analytic,
spectrum_size, coeff_zero/coeff_l1/coeff_linf, sstar_upper(grid),
iter_coeffs(limit), min_orbit_fraction(grid) and the `lazy` flag.

Sampling health: values are exact pointwise regardless of gcd(r_i, M),
but a small orbit M/gcd means the grid sees few distinct payload samples;
the orbit fraction is recorded so reports can flag degenerate sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .circle import CircleGrid
from .trigpoly import TrigPoly, coeff_norms, max_window_gap

#: relative log2 margin required between lazily compared frequencies
LOG_MARGIN = 1e-9


class LazyRate:
    """Positive integer mult * base**exp, never materialized.

    Supports exactly what the block machinery needs: residues mod M,
    parity, multiplication by small integers, and log2-based ordering.
    """

    __slots__ = ("mult", "base", "exp", "log2")

    def __init__(self, mult: int, base: int, exp: int):
        if mult < 1 or base < 2 or exp < 0:
            raise ValueError("need mult >= 1, base >= 2, exp >= 0")
        self.mult = int(mult)
        self.base = int(base)
        self.exp = int(exp)
        self.log2 = math.log2(self.mult) + self.exp * math.log2(self.base)

    def __mod__(self, m: int) -> int:
        return (self.mult * pow(self.base, self.exp, m)) % m

    def times(self, k: int) -> "LazyRate":
        return LazyRate(self.mult * k, self.base, self.exp)

    @property
    def is_odd(self) -> bool:
        return self.mult % 2 == 1 and (self.base % 2 == 1 or self.exp == 0)

    def __repr__(self):
        return f"LazyRate({self.mult}*{self.base}^{self.exp})"


Rate = Union[int, LazyRate]


def rate_log2(r: Rate) -> float:
    if isinstance(r, LazyRate):
        return r.log2
    return math.log2(r)


def rate_is_odd(r: Rate) -> bool:
    if isinstance(r, LazyRate):
        return r.is_odd
    return r % 2 == 1


@total_ordering
class Freq:
    """Signed frequency magnitude in log2 space.

    Exact for small integers; beyond 2^52 the ordering carries a ulp-level
    ambiguity, which the layout validators guard with explicit margins.
    """

    __slots__ = ("sign", "log2")

    def __init__(self, sign: int, log2: float):
        self.sign = 0 if log2 == -math.inf else sign
        self.log2 = log2 if self.sign else -math.inf

    @staticmethod
    def of(x) -> "Freq":
        if isinstance(x, Freq):
            return x
        if x == 0:
            return Freq(0, -math.inf)
        if isinstance(x, LazyRate):
            return Freq(1, x.log2)
        return Freq(1 if x > 0 else -1, math.log2(abs(x)))

    def _key(self):
        return (self.sign, self.sign * self.log2 if self.sign else 0.0)

    def __eq__(self, other):
        return self._key() == Freq.of(other)._key()

    def __lt__(self, other):
        return self._key() < Freq.of(other)._key()

    def __neg__(self):
        return Freq(-self.sign, self.log2)

    def __abs__(self):
        return Freq(abs(self.sign), self.log2)

    def __float__(self):
        if self.sign == 0:
            return 0.0
        if self.log2 > 1020:
            return math.inf * self.sign
        return self.sign * 2.0 ** self.log2

    def clearly_below(self, other: "Freq", margin: float = LOG_MARGIN) -> bool:
        """True when self < other with a relative log2 margin."""
        o = Freq.of(other)
        if self.sign != o.sign:
            return self.sign < o.sign
        if self.sign == 0:
            return False
        if self.sign > 0:
            return self.log2 < o.log2 - margin
        return self.log2 > o.log2 + margin

    def __repr__(self):
        return f"Freq({'+' if self.sign > 0 else '-' if self.sign < 0 else '0'}2^{self.log2:.3f})"


def log2_sum_upper(a: float, b: float) -> float:
    """Upper bound on log2(2^a + 2^b), kept in log space; the 1e-12 covers
    float rounding."""
    hi, lo = max(a, b), min(a, b)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi)) + 1e-12


def log2_diff_lower(a: float, b: float) -> float:
    """Lower bound on log2(2^a - 2^b), -inf when 2^b >= 2^a."""
    gap = 1.0 - 2.0 ** (b - a)
    return a + math.log2(gap) - 1e-12 if gap > 0.0 else -math.inf


def freq_times_rate(k: int, r: Rate) -> Freq:
    if k == 0:
        return Freq(0, -math.inf)
    return Freq(1 if k > 0 else -1, math.log2(abs(k)) + rate_log2(r))


def contracted_index_map(rate: Rate, grid: CircleGrid) -> np.ndarray:
    """sigma with theta_{sigma(j)} = rate * t_j (mod 2 pi), exact for any rate."""
    return grid.contracted_indices(rate % grid.size, rate_is_odd(rate))


def orbit_fraction(rate: Rate, grid: CircleGrid) -> float:
    """Fraction of distinct grid angles hit by t -> rate * t."""
    g = math.gcd(rate % grid.size, grid.size)
    return 1.0 / g


def _half(p: TrigPoly, sign: int) -> TrigPoly:
    if sign > 0:
        return TrigPoly({k: c for k, c in p.coeffs.items() if k > 0})
    return TrigPoly({k: c for k, c in p.coeffs.items() if k < 0})


@dataclass(frozen=True)
class BlockTerm:
    """One carrier * contracted payload product.

    The rate must exceed the carrier's spectral spread so the translated
    carrier copies k * rate + spec C stay disjoint within the term.
    """

    carrier: TrigPoly
    payload: TrigPoly
    rate: Rate

    def __post_init__(self):
        if not len(self.carrier) or not len(self.payload):
            raise ValueError("carrier and payload must be nonzero")
        if self.payload[0] != 0:
            raise ValueError("payload must have zero mean coefficient")
        spec = self.carrier.spectrum()
        spread = spec[-1] - spec[0]
        if not Freq.of(spread).clearly_below(Freq.of(self.rate), 0.0):
            raise ValueError("rate must exceed the carrier spectral spread")

    @property
    def lazy(self) -> bool:
        return isinstance(self.rate, LazyRate)

    def carrier_span(self) -> Tuple[int, int]:
        spec = self.carrier.spectrum()
        return spec[0], spec[-1]

    def _corner(self, k: int, off: int):
        """Frequency k * rate + off, exact int or Freq for lazy rates."""
        if self.lazy:
            base = freq_times_rate(k, self.rate)
            return base if k != 0 else Freq.of(off)
        return k * self.rate + off

    def degree(self):
        lo_c, hi_c = self.carrier_span()
        ks = self.payload.spectrum()
        corners = [self._corner(k, off) for k in (ks[0], ks[-1]) for off in (lo_c, hi_c)]
        if self.lazy:
            return max(abs(Freq.of(c)) for c in corners)
        return max(abs(c) for c in corners)

    def segments(self) -> List[dict]:
        """Frequency intervals of the two payload halves."""
        out = []
        lo_c, hi_c = self.carrier_span()
        ks = list(self.payload.spectrum())
        for sign, group in ((-1, [k for k in ks if k < 0]),
                            (+1, [k for k in ks if k > 0])):
            if group:
                out.append({"sign": sign,
                            "lo": self._corner(min(group), lo_c),
                            "hi": self._corner(max(group), hi_c)})
        return out


class BlockSum:
    """Lazy sum of carrier * payload(rate * t) terms.

    layout="segments": the two payload halves of each term occupy pairwise
    disjoint frequency intervals, so S*/S** brackets are available.
    layout="subblocks": only the individual sub-blocks k*r_i + spec C_i
    are disjoint (segments may interleave); coefficient statistics remain
    exact but partial-sum control falls back to the crude l1 bound.
    """

    def __init__(self, terms: Sequence[BlockTerm], layout: str = "segments"):
        if not terms:
            raise ValueError("need at least one term")
        if layout not in ("segments", "subblocks"):
            raise ValueError(f"unknown layout {layout!r}")
        self.terms = list(terms)
        self.layout = layout
        self.lazy = any(t.lazy for t in self.terms)
        self._segments = self._collect_segments()
        if layout == "segments":
            self._validate_segments()
        else:
            self._validate_subblocks()

    # -- layout ------------------------------------------------------------

    def _collect_segments(self):
        segs = []
        for i, term in enumerate(self.terms):
            for seg in term.segments():
                seg["term"] = i
                if self.lazy:
                    seg["lo"] = Freq.of(seg["lo"])
                    seg["hi"] = Freq.of(seg["hi"])
                segs.append(seg)
        segs.sort(key=lambda s: Freq.of(s["lo"]) if self.lazy else s["lo"])
        return segs

    def _require_below(self, a, b, what: str):
        if self.lazy:
            if not Freq.of(a).clearly_below(Freq.of(b)):
                raise ValueError(what)
        elif a >= b:
            raise ValueError(what)

    def _validate_segments(self):
        # disjoint segment intervals: any frequency window then decomposes
        # into complete segments plus at most two cut blocks
        for a, b in zip(self._segments, self._segments[1:]):
            self._require_below(
                a["hi"], b["lo"],
                f"block segments overlap: terms {a['term']} and {b['term']}")

    def _validate_subblocks(self):
        if self.lazy:
            # lazy universes only arise from the geometric-rate cascade,
            # whose segments are validated; interleaved lazy layouts are
            # not supported
            raise ValueError("subblocks layout requires exact integer rates")
        ivs = []
        for t in self.terms:
            lo_c, hi_c = t.carrier_span()
            for k in t.payload.spectrum():
                ivs.append((k * t.rate + lo_c, k * t.rate + hi_c))
        ivs.sort()
        for a, b in zip(ivs, ivs[1:]):
            if a[1] >= b[0]:
                raise ValueError("sub-blocks overlap; coefficient stats unsafe")

    # -- basic stats ---------------------------------------------------------

    def degree(self):
        degs = [t.degree() for t in self.terms]
        if self.lazy:
            return max(Freq.of(d) for d in degs)
        return max(degs)

    def degree_log2(self) -> float:
        d = self.degree()
        return d.log2 if isinstance(d, Freq) else math.log2(max(int(d), 1))

    def min_abs_freq(self):
        vals = []
        for seg in self._segments:
            lo, hi = seg["lo"], seg["hi"]
            if self.lazy:
                lo, hi = Freq.of(lo), Freq.of(hi)
                if lo.sign <= 0 <= hi.sign and not (lo.sign == hi.sign):
                    return Freq.of(0)
                vals.append(min(abs(lo), abs(hi)))
            else:
                vals.append(0 if lo <= 0 <= hi else min(abs(lo), abs(hi)))
        return min(vals)

    def spectrum_size(self) -> int:
        return sum(len(t.carrier) * len(t.payload) for t in self.terms)

    def iter_coeffs(self, limit: Optional[int] = None) -> Iterator[Tuple[object, complex]]:
        """Yield (frequency, coefficient); integer rates only, lazy rates
        raise OverflowError."""
        if self.lazy:
            raise OverflowError("lazy rates: frequencies not materializable")
        count = 0
        for t in self.terms:
            for k, hk in t.payload.coeffs.items():
                base = k * t.rate
                for c, cc in t.carrier.coeffs.items():
                    yield base + c, hk * cc
                    count += 1
                    if limit is not None and count >= limit:
                        return

    def coeff_zero(self) -> complex:
        return 0j  # payloads exclude frequency 0 and rates exceed carriers

    def coeff_linf(self) -> float:
        return max(coeff_norms(t.carrier).linf * coeff_norms(t.payload).linf
                   for t in self.terms)

    def coeff_l1(self) -> float:
        return sum(coeff_norms(t.carrier).l1 * coeff_norms(t.payload).l1
                   for t in self.terms)

    def coeff_lp(self, p: float) -> float:
        tot = 0.0
        for t in self.terms:
            tot += (coeff_norms(t.carrier, [p]).lp[p]
                    * coeff_norms(t.payload, [p]).lp[p]) ** p
        return tot ** (1.0 / p)

    def is_analytic(self) -> bool:
        if self.lazy:
            return all(Freq.of(seg["lo"]).sign > 0 for seg in self._segments)
        return all(seg["lo"] > 0 for seg in self._segments)

    def min_orbit_fraction(self, grid: CircleGrid) -> float:
        return min(orbit_fraction(t.rate, grid) for t in self.terms)

    # -- values ---------------------------------------------------------------

    def values(self, grid: CircleGrid, allow_alias: bool = True) -> np.ndarray:
        out = np.zeros(grid.size, dtype=complex)
        for t in self.terms:
            cv = t.carrier.values(grid, allow_alias=True)
            pv = t.payload.values(grid, allow_alias=True)
            out += cv * pv[contracted_index_map(t.rate, grid)]
        return out

    # -- partial-sum brackets ---------------------------------------------------

    def _segment_values(self, grid: CircleGrid) -> List[np.ndarray]:
        vals = []
        carrier_cache = {}
        for seg in self._segments:
            i = seg["term"]
            t = self.terms[i]
            if i not in carrier_cache:
                carrier_cache[i] = t.carrier.values(grid, allow_alias=True)
            half = _half(t.payload, seg["sign"])
            pv = half.values(grid, allow_alias=True)
            vals.append(carrier_cache[i] * pv[contracted_index_map(t.rate, grid)])
        return vals

    def _cut_bounds(self, grid: CircleGrid) -> List[np.ndarray]:
        """Pointwise bound on any rectangular cut inside each segment."""
        out = []
        for seg in self._segments:
            t = self.terms[seg["term"]]
            half = _half(t.payload, seg["sign"])
            half_l1 = coeff_norms(half).l1
            h_linf = coeff_norms(t.payload).linf
            c_l1 = coeff_norms(t.carrier).l1
            cv = np.abs(t.carrier.values(grid, allow_alias=True))
            out.append(cv * half_l1 + h_linf * c_l1)
        return out

    def sstar_star_bracket(self, grid: CircleGrid) -> Tuple[np.ndarray, np.ndarray]:
        """(lower, upper) pointwise brackets for sup over windows |S_{n,m}|.

        lower: exact maximum over windows whose endpoints fall between
        segments; upper: lower family plus a certified bound on the at
        most two cut blocks any other window adds.
        """
        if self.layout != "segments":
            raise ValueError("partial-sum brackets need the segments layout")
        segs = self._segment_values(grid)
        m = grid.size
        dmid = max_window_gap(lambda i, cols: segs[i][cols], len(segs), m)
        cuts = self._cut_bounds(grid)
        top1 = np.zeros(m)
        top2 = np.zeros(m)
        for c in cuts:
            swap = c > top1
            top2 = np.where(swap, top1, np.maximum(top2, np.minimum(c, top1)))
            top1 = np.where(swap, c, top1)
        return dmid, dmid + top1 + top2

    def sstar_upper(self, grid: CircleGrid) -> np.ndarray:
        """Pointwise upper bound for sup over windows on the grid."""
        if self.layout == "segments":
            return self.sstar_star_bracket(grid)[1]
        return np.full(grid.size, self.coeff_l1())


class ScaledProduct:
    """Outer special product Q(R t) * P with R > 2 deg P and Q^(0) = 0.

    Q and P may be any polynomials of the shared protocol (TrigPoly,
    BlockSum or ScaledProduct).  The partial-sum bound follows the standard
    block decomposition: any window value is P(t) * (window of Q)(Rt) plus
    at most two cut outer blocks, each a coefficient of Q times a window
    of P.
    """

    def __init__(self, q, rate: Rate, p):
        self.q = q
        self.p = p
        self.rate = rate
        dp = Freq.of(p.degree())
        two_dp = Freq(dp.sign, dp.log2 + 1.0) if dp.sign else Freq.of(0)
        if not two_dp.clearly_below(Freq.of(rate), 0.0):
            raise ValueError("rate must exceed 2 * deg(inner)")
        if q.coeff_zero() != 0:
            raise ValueError("outer factor must have zero mean coefficient")
        #: scalar bound for sup_t sup_windows |S(Q)|: the crude l1
        self.q_sstar_bound = q.coeff_l1()

    @property
    def lazy(self) -> bool:
        return isinstance(self.rate, LazyRate) or self.p.lazy or self.q.lazy

    def degree(self):
        # max |k_q R + k_p| <= deg(Q) R + deg(P)
        dq = Freq.of(self.q.degree())
        if dq.sign == 0:
            return Freq.of(0)
        return Freq(1, log2_sum_upper(dq.log2 + rate_log2(self.rate),
                                      Freq.of(self.p.degree()).log2))

    def degree_log2(self) -> float:
        return self.degree().log2

    def min_abs_freq(self):
        mq = Freq.of(self.q.min_abs_freq())
        if mq.sign == 0:
            return Freq.of(0)
        # min |k_q R + k_p| >= minabs(Q) R - deg(P)
        return Freq(1, log2_diff_lower(mq.log2 + rate_log2(self.rate),
                                       Freq.of(self.p.degree()).log2))

    def spectrum_size(self):
        return self.q.spectrum_size() * self.p.spectrum_size()

    def is_analytic(self) -> bool:
        # the inner polynomial's degree must stay below minabs(Q) * rate
        if not self.q.is_analytic():
            return False
        dp = Freq.of(self.p.degree())
        mq = Freq.of(self.q.min_abs_freq())
        return dp.sign == 0 or dp.clearly_below(
            Freq(1, mq.log2 + rate_log2(self.rate)), 0.0)

    def coeff_linf(self):
        return self.q.coeff_linf() * self.p.coeff_linf()

    def coeff_l1(self):
        return self.q.coeff_l1() * self.p.coeff_l1()

    def coeff_zero(self):
        return 0j

    def iter_coeffs(self, limit: Optional[int] = None):
        if self.lazy:
            raise OverflowError("lazy rates: frequencies not materializable")
        count = 0
        for kq, cq in self.q.iter_coeffs():
            base = kq * self.rate
            for kp, cp in self.p.iter_coeffs():
                yield base + kp, cq * cp
                count += 1
                if limit is not None and count >= limit:
                    return

    def values(self, grid: CircleGrid, allow_alias: bool = True) -> np.ndarray:
        qv = self.q.values(grid, allow_alias=True)
        pv = self.p.values(grid, allow_alias=True)
        return qv[contracted_index_map(self.rate, grid)] * pv

    def sstar_upper(self, grid: CircleGrid) -> np.ndarray:
        """Pointwise certified bound on sup over windows of |S_{n,m}|."""
        pv = np.abs(self.p.values(grid, allow_alias=True))
        inner = self.p.sstar_upper(grid)
        return pv * self.q_sstar_bound + 2.0 * self.q.coeff_linf() * inner

    def min_orbit_fraction(self, grid: CircleGrid) -> float:
        return min(orbit_fraction(self.rate, grid), self.p.min_orbit_fraction(grid),
                   self.q.min_orbit_fraction(grid))
