"""Lazy polynomials built from carrier * contracted-payload blocks.

The constructions in this package multiply low-degree carriers C_i(t) by
payloads H_i contracted to enormous rates r_i:

    W(t) = sum_i C_i(t) * H_i(r_i * t),      spec H_i excludes 0.

Supports multiply out to sizes (and degrees) that cannot be materialized,
so this module represents W structurally and provides

  * exact values at grid points through modular index arithmetic
    (e^{i r t_j} only depends on r mod M);
  * exact coefficient norms from per-block products, valid because the
    frequency blocks k*r_i + spec C_i are validated pairwise disjoint;
  * certified pointwise brackets for the partial-sum maxima S* and S**,
    based on decomposing any window into complete half-block segments
    plus at most two cut blocks: the largest window of complete segments
    is the diameter of the segments' prefix sums, taken exactly below
    WIDTH_BRACKET_ROWS segments and bracketed by widths over
    WIDTH_DIRECTIONS directions from there on.

Rates may be exact integers or LazyRate objects a * b^e whose value is
never materialized; a lazy term's frequencies are then Freq bounds in
signed-log space (`BlockTerm._corner`), and exact and lazy ones are
compared through the same `<`.

TrigPoly, BlockSum and ScaledProduct answer one polynomial protocol:
values(grid), exact at the grid points on any grid, degree, degree_log2,
min_abs_freq, is_analytic, spectrum_size, coeff_zero/coeff_l1/coeff_linf,
sstar_upper(grid), min_orbit_fraction(grid), structure(part) and the
`lazy` flag.  TrigPoly and BlockSum also list their coefficients:
coeff_arrays() with its row view iter_coeffs().  A TrigPoly's values and
a block sum's carrier rows take the same path rule: the FFT fold or the
direct sum, chosen by `trigpoly._takes_fft` in `_fill_row` and
`BlockSum._carrier_rows`.

Sampling health: values are exact pointwise regardless of gcd(r_i, M),
but a small orbit M/gcd means the grid sees few distinct payload samples;
the orbit fraction is recorded so reports can flag degenerate sampling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .circle import CircleGrid
from .trigpoly import (TrigPoly, _cmul, _fill_row, _freq_array, _ifft_runs,
                       _outer_freqs, _takes_fft, coeff_norms, max_window_gap,
                       partial_sum_rect, translate, translate_parts)

#: grid cells (carriers x points) `BlockSum` transforms in one batch, and
#: the segment rows of each side a pass holds: four carriers on 2^14
#: points, 1 MB.  At 2^17 cells (eight carriers) the `analytic` benchmark's peak
#: RSS read 65.7 MB in 4 of 6 paired runs, against 58.1-59.4 MB here.
EVAL_BATCH_CELLS = 2 ** 16

#: directions pi d / D of the width bracket (`WidthBracket`); its
#: upper bound sits at most 1/cos(pi/2D) - 1 = 0.48 % above the exact one
WIDTH_DIRECTIONS = 16
#: segment rows from which `BlockSum.sstar_star_bracket` takes the width
#: bracket instead of the exact O(S^2 M) sweep: the crossover measured on
#: 2^14, 2*8191 and 1022 points, where both take the same time
WIDTH_BRACKET_ROWS = 16
#: grid columns per block of the width bracket: a block's running prefix
#: sum, projections, extremes and their differences hold about 0.7 MB for
#: any row count
WIDTH_BLOCK_COLUMNS = 1024
#: the width bracket's rounding margin, relative to its largest |point|
#: per column
WIDTH_MARGIN = 1e-12
#: the width bracket's absolute margin: sixteen subnormal steps, above the
#: underflow of two products and a difference in each projected width
WIDTH_UNDERFLOW = 2.0 ** -1070

_WIDTH_ANGLES = np.pi * np.arange(WIDTH_DIRECTIONS) / WIDTH_DIRECTIONS
_WIDTH_UNITS = np.array([np.cos(_WIDTH_ANGLES), np.sin(_WIDTH_ANGLES)])
_WIDTH_COS = math.cos(math.pi / (2 * WIDTH_DIRECTIONS))


class LazyRate:
    """Positive integer mult * base**exp, never materialized.

    Supports exactly what the block machinery needs: residues mod M and
    log2-based ordering.
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

    def __repr__(self):
        return f"LazyRate({self.mult}*{self.base}^{self.exp})"


Rate = Union[int, LazyRate]


def rate_record(r: Rate):
    """A rate for a structure record: an exact rate as a hex string, which
    no int-to-str digit limit covers, a LazyRate as {mult, base, exp}."""
    if isinstance(r, LazyRate):
        return {"mult": r.mult, "base": r.base, "exp": r.exp}
    return hex(r)


def rate_log2(r: Rate) -> float:
    if isinstance(r, LazyRate):
        return r.log2
    return math.log2(r)


@total_ordering
class Freq:
    """Signed frequency magnitude in log2 space, ordered as the numbers."""

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

    def __abs__(self):
        return Freq(abs(self.sign), self.log2)

    def __repr__(self):
        return f"Freq({'+' if self.sign > 0 else '-' if self.sign < 0 else '0'}2^{self.log2:.3f})"


def _log2_margin(x: float) -> float:
    """16 eps (x + 1), above the float error of a log2 magnitude x
    computed as a sum of nonnegative logs (LazyRate.log2, log2|k| plus a
    rate's, log2 deg Q plus a rate's), each a log2 within one ulp or an
    integer times one, which stays below a few eps x; the 1 covers the
    absolute rounding of log2(1 + 2^-d) in the bounds below."""
    return 16 * sys.float_info.epsilon * (x + 1.0)


def log2_sum_upper(a: float, b: float) -> float:
    """Upper bound on log2(2^A + 2^B) for any A, B within `_log2_margin`
    of a, b (interval reasoning, Moore 1966): both move up by the margin,
    and the result once more for its own rounding."""
    hi, lo = max(a, b), min(a, b)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi)) + 2 * _log2_margin(hi)


def log2_diff_lower(a: float, b: float) -> float:
    """Lower bound on log2(2^A - 2^B) for any A, B within `_log2_margin`
    of a, b: a moves down and b up by the margin, and the result down once
    more; -inf when 2^B may reach 2^A.  Certified where 2^b <= 2^a / 2: a
    difference of nearer magnitudes loses the bits of its gap."""
    m = _log2_margin(a)
    gap = 1.0 - 2.0 ** (b - a + 2 * m)
    return a + math.log2(gap) - 2 * m if gap > 0.0 else -math.inf


def contracted_index_map(rate: Rate, grid: CircleGrid,
                         j: Optional[np.ndarray] = None) -> np.ndarray:
    """sigma with t_{sigma(j)} = rate * t_j (mod 2 pi), exact for any rate,
    at the indices `j` (all grid points when None)."""
    return grid.contracted_indices(rate % grid.size, j)


def orbit_fraction(rate: Rate, grid: CircleGrid) -> float:
    """Fraction of distinct grid angles hit by t -> rate * t."""
    g = math.gcd(rate % grid.size, grid.size)
    return 1.0 / g


def _ends(ks: np.ndarray) -> Tuple[int, int]:
    """The lowest and highest of a nonempty frequency array, as ints."""
    return int(ks.min()), int(ks.max())


def _width_blocks(m: int) -> List[slice]:
    """The column blocks of the width bracket: WIDTH_BLOCK_COLUMNS each,
    and a last block of one column joins the block before it, since numpy
    projects a single point through BLAS's matrix-vector kernel, which
    rounds differently from the matrix one."""
    edges = list(range(0, m, WIDTH_BLOCK_COLUMNS)) + [m]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


class WidthBracket:
    """Certified (lower, upper) on the window maximum of segment rows that
    arrive a batch at a time, in O(D S M) work where `max_window_gap`
    takes O(S^2 M).

    The rows come in a `BlockSum`'s segment order: negative halves in
    reverse term order, then positive halves in term order.  The window
    maximum is the diameter of their prefix sums P_i (P_0 = 0).  Less the
    negative-half total N, those are the points -Q_k and R_j, with Q_k and
    R_j the sums of the first k negative- and j positive-half rows in term
    order, and a translation keeps every width.  So `add` keeps -Q and R
    running and folds the projections of the points into a top and a
    bottom extreme per column and direction: 2 D floats per column and
    the two prefixes, whatever the row count.

    The width along any direction is at most the diameter, and the
    diameter lies within pi/2D of one of the D directions pi d / D, along
    which the width is then at least diam * cos(pi/2D); so the widest
    width W gives W <= diam <= W / cos(pi/2D).  Both bounds move out by
    WIDTH_MARGIN times the largest |point|, far above the few ulps of it
    by which the projections round, and by which the exact sweep's
    differences do (|P_i| = |point - (-N)| is at most twice the largest),
    plus the rounding model's underflow term WIDTH_UNDERFLOW.  Rows fold
    in column blocks (`_width_blocks`), one row at a time within a block,
    so any split of the rows into batches gives the same bits.
    """

    def __init__(self, m: int):
        self.prefix = {}  # side -> its running point: R (1) or -Q (-1)
        # one allocation, P_0 = 0 projecting to 0
        self.top, self.bottom = np.zeros((2, m, WIDTH_DIRECTIONS))

    def add(self, rows: Sequence[np.ndarray], neg: Sequence[np.ndarray] = ()):
        """Fold the next positive-half `rows` and negative-half rows `neg`,
        each side in term order."""
        sides = [(sign, side) for sign, side in ((1, rows), (-1, neg)) if len(side)]
        for sign, _ in sides:
            if sign not in self.prefix:
                self.prefix[sign] = np.zeros(len(self.top), dtype=complex)
        for cols in _width_blocks(len(self.top)):
            proj = np.empty((cols.stop - cols.start, WIDTH_DIRECTIONS))
            top, bottom = self.top[cols], self.bottom[cols]
            for sign, side in sides:
                prefix = self.prefix[sign][cols]
                pairs = prefix.view(float).reshape(-1, 2)
                # -Q is kept: negation is exact, so it rounds as Q does
                fold = np.add if sign > 0 else np.subtract
                for row in side:
                    fold(prefix, row[cols], out=prefix)
                    np.matmul(pairs, _WIDTH_UNITS, out=proj)
                    np.maximum(top, proj, out=top)
                    np.minimum(bottom, proj, out=bottom)

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """(lower, upper) on the window maximum of the rows added so far."""
        m = len(self.top)
        lower, upper = np.empty(m), np.empty(m)
        for cols in _width_blocks(m):
            top, bottom = self.top[cols], self.bottom[cols]
            # the widest width and the largest |projection| (>= cos(pi/2D)
            # times the largest |point|), maxima over 2^4 directions by halving
            both = np.stack((top - bottom, np.maximum(top, -bottom)))
            while both.shape[2] > 1:
                both = np.maximum(both[..., ::2], both[..., 1::2])
            width, biggest = both[..., 0]
            margin = WIDTH_MARGIN / _WIDTH_COS * biggest + WIDTH_UNDERFLOW
            lower[cols] = np.maximum(width - margin, 0.0)
            upper[cols] = width / _WIDTH_COS + margin
        return lower, upper


def _times_gathered(cv: np.ndarray, gathered: np.ndarray) -> np.ndarray:
    """cv * gathered, written into `gathered` and rounded as numpy rounds
    `cv * h[index]`: from 256 KiB on numpy computes that product in place
    in the indexed temporary, as gathered * cv, and under FMA that operand
    order decides the last bit (see trigpoly._term)."""
    a, b = (gathered, cv) if gathered.nbytes >= 256 * 1024 else (cv, gathered)
    return np.multiply(a, b, out=gathered)


def _half(p: TrigPoly, sign: int) -> TrigPoly:
    """The coefficients of p with positive (sign > 0) or negative frequency."""
    d = max(p.degree(), 1)
    return partial_sum_rect(p, 1, d) if sign > 0 else partial_sum_rect(p, -d, -1)


@dataclass(frozen=True)
class BlockTerm:
    """One carrier * contracted payload product.

    The rate must exceed the carrier's spectral spread so the translated
    carrier copies k * rate + spec C stay disjoint within the term.

    With an exact `shift` (s, K) the term's carrier is `carrier` translated
    by 2 pi s / K, coefficients c_k e^{ik 2 pi s/K}: Korner's sums hold one
    tile in each of their K terms this way.  The translate has the tile's
    frequencies, and it is formed only while it is used (`translated`):
    when the sum is evaluated and when its coefficients are listed.  Its
    coefficient norms, in the sum's `coeff_l1`/`coeff_linf` and S** cut
    bounds, are taken as the tile's, since |c e^{i theta}| = |c|.
    """

    carrier: TrigPoly
    payload: TrigPoly
    rate: Rate
    shift: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if not len(self.carrier) or not len(self.payload):
            raise ValueError("carrier and payload must be nonzero")
        if self.payload[0] != 0:
            raise ValueError("payload must have zero mean coefficient")
        lo, hi = self.carrier_span()
        if not Freq.of(hi - lo) < self.rate:
            raise ValueError("rate must exceed the carrier spectral spread")
        if self.shift is not None and self.carrier._k.dtype == object:
            raise ValueError("a shifted carrier needs frequencies below 2^62")

    @property
    def lazy(self) -> bool:
        return isinstance(self.rate, LazyRate)

    @property
    def angle(self) -> Optional[float]:
        """The shift's angle 2 pi s / K; None without a shift."""
        if self.shift is None:
            return None
        s, k = self.shift
        return 2.0 * math.pi * s / k

    def translated(self) -> TrigPoly:
        """The carrier translated by the shift,
        `trigpoly.translate(carrier, angle)`; the carrier without one."""
        return self.carrier if self.shift is None else translate(self.carrier, self.angle)

    def carrier_span(self) -> Tuple[int, int]:
        return _ends(self.carrier._k)

    def _corner(self, k: int, off: int, outer: bool):
        """Frequency k * rate + off of a segment end (k != 0: payloads have
        no frequency 0).

        An integer rate gives the exact int.  A lazy rate gives a Freq that
        bounds it, from the log2 magnitudes of k * rate and off and their
        float error (`_log2_margin`): at a segment's outer end |k rate| +
        |off| with k's sign, away from 0; at its inner end |k rate| - |off|
        with k's sign, toward 0, or, where |off| may pass |k rate| / 2 and
        that difference is badly conditioned, |off| on the other side of 0.
        """
        if not self.lazy:
            return k * self.rate + off
        sign = 1 if k > 0 else -1
        mag = math.log2(abs(k)) + self.rate.log2
        o = Freq.of(off).log2
        if outer:
            return Freq(sign, log2_sum_upper(mag, o))
        if o + 1.0 < mag:
            return Freq(sign, log2_diff_lower(mag, o))
        return Freq(-sign, o + _log2_margin(o))

    def segments(self) -> List[dict]:
        """Frequency intervals of the two payload halves."""
        out = []
        lo_c, hi_c = self.carrier_span()
        ks = self.payload._k  # the payload has no frequency 0
        for sign, group in ((-1, ks[ks < 0]), (+1, ks[ks > 0])):
            if group.size:
                lo, hi = _ends(group)
                out.append({"sign": sign, "lo": self._corner(lo, lo_c, sign < 0),
                            "hi": self._corner(hi, hi_c, sign > 0)})
        return out


class BlockSum:
    """Lazy sum of carrier * payload(rate * t) terms.

    layout="segments": the two payload halves of each term occupy pairwise
    disjoint frequency intervals, so S*/S** brackets are available.
    layout="subblocks": only the individual sub-blocks k*r_i + spec C_i
    are disjoint (segments may interleave); coefficient statistics remain
    exact but partial-sum control falls back to the crude l1 bound.

    A term may hold a shared tile with a shift (`BlockTerm`): the sum then
    keeps one coefficient array per tile, and its translates exist only
    inside the evaluation pass and `coeff_arrays`.

    The terms are kept in rate order: they are sorted by Freq.of(rate) at
    construction, stably, so a sum already in that order keeps it.  The
    segments layout also needs its segments, in frequency order, to be the
    negative halves in reverse term order, then the positive halves in
    term order (`_validate_segments`); every program layout is.

    Values and, in the segments layout, the S** bracket come from one pass
    over the terms, run on the first call per grid size and kept on the
    instance as read-only arrays (three M-point arrays, 0.5 MB at 2^14),
    so each carrier is transformed once per grid.  Besides the values and
    two cut bounds, the pass holds one or two reused batches and, from 16
    segments on, the two running prefixes and 2 * 16 extremes per column
    of a `WidthBracket`, or the at most 15 segment rows below that
    (`_evaluate`).
    """

    def __init__(self, terms: Sequence[BlockTerm], layout: str = "segments"):
        if not terms:
            raise ValueError("need at least one term")
        if layout not in ("segments", "subblocks"):
            raise ValueError(f"unknown layout {layout!r}")
        self.terms = sorted(terms, key=lambda t: Freq.of(t.rate))
        self.layout = layout
        #: distinct payloads by identity: terms usually share one payload,
        #: whose values are then computed once per grid
        self._payloads = {id(t.payload): t.payload for t in self.terms}
        self.lazy = any(t.lazy for t in self.terms)
        #: grid size -> the read-only (values, lower, upper) of `_evaluate`
        self._memo = {}
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
                segs.append(seg)
        segs.sort(key=lambda s: s["lo"])
        return segs

    def _validate_segments(self):
        # disjoint segment intervals: any frequency window then decomposes
        # into complete segments plus at most two cut blocks; the ends are
        # ints, or Freq bounds of lazy terms (`BlockTerm._corner`)
        for a, b in zip(self._segments, self._segments[1:]):
            if not a["hi"] < b["lo"]:
                raise ValueError(
                    f"block segments overlap: terms {a['term']} and {b['term']}")
        # the segment order `WidthBracket` folds in term order
        order = [(s["sign"], s["sign"] * s["term"]) for s in self._segments]
        if order != sorted(order):
            raise ValueError("block segments out of rate order: negative halves "
                             "must fall, then positive halves rise, with the rate")

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

    # -- the evaluation pass -------------------------------------------------

    def _evaluated(self, grid: CircleGrid):
        """`_evaluate` on the grid, run on the first call per grid size and
        kept, with its arrays made read-only."""
        hit = self._memo.get(grid.size)
        if hit is None:
            hit = self._evaluate(grid)
            for a in hit:
                if a is not None:
                    a.flags.writeable = False
            self._memo[grid.size] = hit
        return hit

    def _evaluate(self, grid: CircleGrid):
        """(values, lower, upper) on the grid from one pass over the terms;
        lower and upper are the S** bracket, None in the subblocks layout.

        Carriers are transformed EVAL_BATCH_CELLS at a time, in place in
        one reused batch buffer (`_carrier_rows`), and values are added in
        term order.  In the segments layout a term then fills its
        segment rows (carrier times contracted payload half; a half that
        is the whole payload reuses the term's values) and folds the
        pointwise bound on a rectangular cut inside each segment into the
        two largest bounds.  Each distinct payload, and each payload half,
        is evaluated once.  From WIDTH_BRACKET_ROWS segments on, each
        batch's rows go into a `WidthBracket` a side at a time: a
        positive-half row over its carrier, once the term has read it, and
        a negative-half row into a second reused buffer.  Below that, the
        at most WIDTH_BRACKET_ROWS - 1 rows are kept and swept exactly in
        segment order.
        """
        m = grid.size
        n = len(self.terms)
        pv = {i: h.values(grid) for i, h in self._payloads.items()}
        out = np.zeros(m, dtype=complex)
        segments = self.layout == "segments"
        halves = self._halves(grid) if segments else {}
        count = len(self._segments) if segments else 0
        width = WidthBracket(m) if count >= WIDTH_BRACKET_ROWS else None
        kept = {}  # (term, sign) -> segment row, below WIDTH_BRACKET_ROWS
        buf = np.empty((min(max(1, EVAL_BATCH_CELLS // m), n), m), dtype=complex)
        neg = (np.empty_like(buf) if width and any(s["sign"] < 0 for s in self._segments)
               else None)
        top1, top2 = np.zeros(m), np.zeros(m)
        tiles = {}  # shifted carriers' tiles, by id: see _carrier_rows
        for lo in range(0, n, len(buf)):
            batch = range(lo, min(lo + len(buf), n))
            self._carrier_rows(batch, grid, buf[:len(batch)], tiles)
            streamed = {1: [], -1: []}  # the batch's rows of each side
            for slot, i in enumerate(batch):
                t, cv = self.terms[i], buf[slot]
                if segments:
                    # the cut bounds first, and freed before the term's
                    # rows: they read |cv|, and a positive-half row goes
                    # over cv
                    acv = np.abs(cv)
                    base = coeff_norms(t.payload).linf * coeff_norms(t.carrier).l1
                    for _, _, half_l1 in halves[id(t.payload)]:
                        cut = acv * half_l1
                        cut += base
                        swap = cut > top1
                        np.maximum(top2, np.minimum(cut, top1), out=top2)
                        np.copyto(top2, top1, where=swap)
                        np.copyto(top1, cut, where=swap)
                    del acv, cut, swap
                index = contracted_index_map(t.rate, grid)
                term = _times_gathered(cv, pv[id(t.payload)][index])
                out += term
                rows_of = halves.get(id(t.payload), ())
                if all(half is not None for _, half, _ in rows_of):
                    term = None  # no segment row is the term's: free it now
                # the negative half first: the positive one goes over cv
                for sign, half, _ in rows_of:
                    row = term if half is None else _times_gathered(cv, half[index])
                    if width is None:
                        kept[i, sign] = row
                    else:
                        dest = (buf if sign > 0 else neg)[slot]
                        dest[...] = row
                        streamed[sign].append(dest)
                    row = None  # freed before the next half's row
                # free this term's arrays before the next term's
                del index, term
            if width is not None:
                width.add(streamed[1], streamed[-1])
            del cv
        if not segments:
            return out, None, None
        del pv, halves, buf, neg, tiles
        if width is None:
            rows = [kept[s["term"], s["sign"]] for s in self._segments]
            dmid = max_window_gap(lambda i, cols: rows[i][cols], count, m)
            return out, dmid, dmid + top1 + top2
        lower, upper = width.bounds()
        return out, lower, upper + top1 + top2

    def _carrier_rows(self, batch: range, grid: CircleGrid, rows: np.ndarray,
                      tiles: dict) -> None:
        """The values of the carriers of the terms in `batch`, translated by
        their shifts, into `rows`, bit for bit as `TrigPoly.values` gives
        them for the carriers and their translates.

        On the FFT path a translate is never formed as a polynomial: its
        coefficients' real and imaginary parts go into two float rows per
        tile (`translate_parts`), folded with the tile's residues and
        parities (`TrigPoly._folded`).  `tiles` keeps both, by tile id,
        for the pass, so each is made once per tile and grid, and nothing
        else of the tile's size is allocated."""
        m = grid.size
        folded = []
        for row, i in zip(rows, batch):
            t = self.terms[i]
            c = t.carrier
            if t.shift is None or not _takes_fft(len(c), m):
                folded.append(_fill_row(t.translated(), grid, row))
                continue
            held = tiles.get(id(c))
            if held is None:
                held = tiles[id(c)] = (c._residues(m), np.empty((2, len(c))))
            residues, parts = held
            translate_parts(c, t.angle, *parts)
            c._folded(m, row, residues, parts)
            folded.append(True)
        _ifft_runs(rows, folded)

    def _halves(self, grid: CircleGrid) -> dict:
        """payload id -> (sign, values, l1 norm) of each nonempty half of
        the payload, the negative half first; a half that is the whole
        payload has values None: its rows are the term's values."""
        halves = {i: [] for i in self._payloads}
        for i, h in self._payloads.items():
            for sign in (-1, 1):
                p = _half(h, sign)
                if len(p) == len(h):
                    halves[i].append((sign, None, coeff_norms(h).l1))
                elif len(p):
                    halves[i].append((sign, p.values(grid), coeff_norms(p).l1))
        return halves

    # -- basic stats ---------------------------------------------------------

    def degree(self):
        # each segment lies between its ends (ints, or Freq bounds)
        return max(max(abs(s["lo"]), abs(s["hi"])) for s in self._segments)

    def degree_log2(self) -> float:
        return Freq.of(self.degree()).log2

    def min_abs_freq(self):
        return min(0 if s["lo"] <= 0 <= s["hi"] else min(abs(s["lo"]), abs(s["hi"]))
                   for s in self._segments)

    def spectrum_size(self) -> int:
        return sum(len(t.carrier) * len(t.payload) for t in self.terms)

    def coeff_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The coefficients term by term, payload coefficient by carrier
        coefficient, both in storage order, each term as one outer product.
        Frequencies k * rate + c follow `_freq_array`'s int64/object rule,
        and each coefficient is the product of its payload and carrier
        coefficients (a shifted term's translated ones), rounded as
        Python's complex product.  Integer rates only; lazy rates raise
        OverflowError."""
        if self.lazy:
            raise OverflowError("lazy rates: frequencies not materializable")
        ks = [_outer_freqs(t.payload._k, t.rate, t.carrier._k) for t in self.terms]
        cs = []
        for t in self.terms:
            c = t.translated()._c
            cs.append(_cmul(t.payload._c[:, None], c.real, c.imag).ravel())
        # int64 terms join object ones as Python ints
        return (np.concatenate(ks) if ks else _freq_array([]),
                np.concatenate(cs) if cs else np.zeros(0, dtype=complex))

    def iter_coeffs(self) -> Iterator[Tuple[object, complex]]:
        """`coeff_arrays` as (frequency, coefficient) Python numbers."""
        return zip(*(a.tolist() for a in self.coeff_arrays()))

    def coeff_zero(self) -> complex:
        return 0j  # payloads exclude frequency 0 and rates exceed carriers

    def _payload_norms(self) -> dict:
        return {i: coeff_norms(h) for i, h in self._payloads.items()}

    def coeff_linf(self) -> float:
        # a shifted term's carrier norms are its tile's (`BlockTerm`)
        h = self._payload_norms()
        return max(coeff_norms(t.carrier).linf * h[id(t.payload)].linf
                   for t in self.terms)

    def coeff_l1(self) -> float:
        h = self._payload_norms()
        return sum(coeff_norms(t.carrier).l1 * h[id(t.payload)].l1
                   for t in self.terms)

    def is_analytic(self) -> bool:
        return all(seg["lo"] > 0 for seg in self._segments)

    def min_orbit_fraction(self, grid: CircleGrid) -> float:
        return min(orbit_fraction(t.rate, grid) for t in self.terms)

    # -- values and partial-sum brackets ------------------------------------

    def values(self, grid: CircleGrid) -> np.ndarray:
        """Values on the grid (read-only; see `_evaluated`)."""
        return self._evaluated(grid)[0]

    def sstar_star_bracket(self, grid: CircleGrid) -> Tuple[np.ndarray, np.ndarray]:
        """(lower, upper) pointwise brackets for sup over windows |S_{n,m}|.

        Windows whose endpoints fall between segments sum whole segment
        rows.  Below WIDTH_BRACKET_ROWS rows, lower is the exact maximum
        over that family (`max_window_gap`) and upper adds a certified
        bound on the at most two cut blocks any other window adds.  From
        WIDTH_BRACKET_ROWS rows on, `WidthBracket` brackets the family's
        maximum instead: lower is its width W less the margin, and upper
        adds the same cut bound to W / cos(pi/2D) plus the margin.

        The brackets come from the pass that gives `values` (`_evaluate`),
        run once per grid; both arrays are read-only.
        """
        if self.layout != "segments":
            raise ValueError("partial-sum brackets need the segments layout")
        return self._evaluated(grid)[1:]

    def sstar_upper(self, grid: CircleGrid) -> np.ndarray:
        """Pointwise upper bound for sup over windows on the grid."""
        if self.layout == "segments":
            return self.sstar_star_bracket(grid)[1]
        return np.full(grid.size, self.coeff_l1())

    def structure(self, part) -> dict:
        """The sum as a structure record; `part` numbers each TrigPoly.  A
        shifted term's record names its tile and adds "shift": [s, K]."""
        terms = []
        for t in self.terms:
            record = {"carrier": part(t.carrier), "payload": part(t.payload),
                      "rate": rate_record(t.rate)}
            if t.shift is not None:
                record["shift"] = list(t.shift)
            terms.append(record)
        return {"type": "BlockSum", "layout": self.layout, "terms": terms}


class ScaledProduct:
    """Outer special product Q(R t) * P with R > 2 deg P and Q^(0) = 0.

    Q and P may be any polynomials of the shared protocol (TrigPoly,
    BlockSum or ScaledProduct).  The partial-sum bound follows the standard
    block decomposition: any window value is P(t) * (window of Q)(Rt) plus
    at most two cut outer blocks, each a coefficient of Q times a window
    of P.

    P's values are computed on the first call per grid size and kept as a
    read-only array (`inner_values`), so `values` and `sstar_upper` share
    one transform of P.
    """

    def __init__(self, q, rate: Rate, p):
        self.q = q
        self.p = p
        self.rate = rate
        dp = Freq.of(p.degree())
        two_dp = Freq(dp.sign, dp.log2 + 1.0) if dp.sign else Freq.of(0)
        if not two_dp < rate:
            raise ValueError("rate must exceed 2 * deg(inner)")
        if q.coeff_zero() != 0:
            raise ValueError("outer factor must have zero mean coefficient")
        #: scalar bound for sup_t sup_windows |S(Q)|: the crude l1
        self.q_sstar_bound = q.coeff_l1()
        #: grid size -> P's read-only values
        self._inner = {}

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
        # minabs(Q) R >= R > 2 deg P keeps k_q R + k_p on the side of k_q
        return self.q.is_analytic()

    def coeff_linf(self):
        return self.q.coeff_linf() * self.p.coeff_linf()

    def coeff_l1(self):
        return self.q.coeff_l1() * self.p.coeff_l1()

    def coeff_zero(self):
        return 0j

    def inner_values(self, grid: CircleGrid) -> np.ndarray:
        """P's values on the grid (read-only), kept per grid size."""
        pv = self._inner.get(grid.size)
        if pv is None:
            pv = self.p.values(grid)
            pv.flags.writeable = False
            self._inner[grid.size] = pv
        return pv

    def values(self, grid: CircleGrid) -> np.ndarray:
        qv = self.q.values(grid)
        return qv[contracted_index_map(self.rate, grid)] * self.inner_values(grid)

    def sstar_upper(self, grid: CircleGrid) -> np.ndarray:
        """Pointwise certified bound on sup over windows of |S_{n,m}|."""
        pv = np.abs(self.inner_values(grid))
        inner = self.p.sstar_upper(grid)
        return pv * self.q_sstar_bound + 2.0 * self.q.coeff_linf() * inner

    def min_orbit_fraction(self, grid: CircleGrid) -> float:
        return min(orbit_fraction(self.rate, grid), self.p.min_orbit_fraction(grid),
                   self.q.min_orbit_fraction(grid))

    def structure(self, part) -> dict:
        return {"type": "ScaledProduct", "q": self.q.structure(part),
                "rate": rate_record(self.rate), "p": self.p.structure(part)}
