"""Sparse trigonometric polynomials with exact coefficient algebra.

A polynomial is a finite map frequency -> complex coefficient; the spectrum
is exactly the stored key set.  Frequencies are arbitrary Python integers,
so contractions by huge factors never overflow.  Evaluation on a grid is
exact at the grid points for any degree (e^{ikt_j} is reduced modulo the
grid); only the partial-sum maxima `s_star` and `s_star_star`, whose
meaning depends on resolving the polynomial, enforce M > 4*deg.

Storage is two arrays in the order coefficients were first inserted: the
frequencies (int64, or Python ints in an object array once some |k| reaches
FREQ_INT64_LIMIT) and the coefficients (complex128).  Array arithmetic
rounds exactly as a Python loop over the items would: moduli go through
np.hypot (Python's abs; np.abs differs in the last bit), and complex
products are written out in real arithmetic, because numpy's complex
multiply may fuse them into FMA instructions.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import types
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from .circle import CircleGrid, GridError, SampledFunction

#: on a grid with a prime factor above 7 (where pocketfft needs Bluestein's
#: chirp-z step), supports up to this size are summed term by term: the
#: crossover of the two paths measured on 2*8191 points
DENSE_EVAL_THRESHOLD = 18
#: largest support the exact S** window sweep accepts
S_STAR_STAR_SUPPORT_CAP = 4096
#: grid columns per block of the streamed window sweep (`max_window_gap`)
WINDOW_SWEEP_COLUMNS = 2048
#: coefficients per block of the phases `translate_parts` forms, and of
#: the signs `TrigPoly._folded` writes into a caller's rows
PHASE_BLOCK = 4096
#: frequencies of this magnitude or more are stored as Python ints; below
#: it, sums of two frequencies and negation cannot overflow int64
FREQ_INT64_LIMIT = 2 ** 62


class AliasingError(GridError):
    """Grid too small to resolve the polynomial (needs M > 4*deg)."""


def _freq_array(ks) -> np.ndarray:
    """Frequencies as int64 when every |k| < FREQ_INT64_LIMIT, else as an
    object array of Python ints; `ks` is a list or an object array."""
    if not len(ks):
        return np.zeros(0, dtype=np.int64)
    lo, hi = (min(ks), max(ks)) if isinstance(ks, list) else (ks.min(), ks.max())
    small = -FREQ_INT64_LIMIT < lo and hi < FREQ_INT64_LIMIT
    return np.array(ks, dtype=np.int64 if small else object)


def _outer_freqs(outer: np.ndarray, rate: int, inner: np.ndarray) -> np.ndarray:
    """outer[i] * rate + inner[j] in row-major (i, j) order, under
    `_freq_array`'s int64/object rule.  Products are taken in int64 when no
    |outer[i] * rate + inner[j]| can reach FREQ_INT64_LIMIT, else as Python
    ints."""
    if not outer.size or not inner.size:
        return np.zeros(0, dtype=np.int64)
    bound = int(np.abs(outer).max()) * rate + int(np.abs(inner).max())
    if bound < FREQ_INT64_LIMIT:
        outer, inner = outer.astype(np.int64), inner.astype(np.int64)
        return (outer[:, None] * rate + inner).ravel()
    ks = (outer.astype(object)[:, None] * rate + inner.astype(object)).ravel()
    return _freq_array(ks)


def _cmul(z: np.ndarray, wr, wi) -> np.ndarray:
    """z * (wr + i wi) elementwise, rounded as CPython's complex product:
    (a wr - b wi) + i (a wi + b wr), each product rounded on its own, and
    as quiet as it on overflow (inf) and inf - inf (nan)."""
    out = np.empty(np.broadcast_shapes(np.shape(z), np.shape(wr)), dtype=complex)
    _cmul_parts(z, wr, wi, out.real, out.imag)
    return out


def _cmul_parts(z: np.ndarray, wr, wi, re: np.ndarray, im: np.ndarray) -> None:
    """`_cmul(z, wr, wi)`'s real and imaginary parts, written into `re` and
    `im` with one temporary at a time."""
    a, b = z.real, z.imag
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(a, wr, out=re)
        np.subtract(re, b * wi, out=re)
        np.multiply(a, wi, out=im)
        np.add(im, b * wr, out=im)


class TrigPoly:
    """Immutable sparse trigonometric polynomial sum c_k e^{ikt}."""

    #: _norms: the `coeff_norms` of the polynomial, once computed
    __slots__ = ("_k", "_c", "_norms")

    def __init__(self, coeffs: Mapping[int, complex] | Iterable[Tuple[int, complex]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        d: Dict[int, complex] = {}
        for k, c in items:
            c = complex(c)
            if c != 0:
                kk = int(k)
                if kk in d:
                    c = d[kk] + c
                    if c == 0:
                        del d[kk]
                        continue
                d[kk] = c
        self._k = _freq_array(list(d))
        self._c = np.fromiter(d.values(), dtype=complex, count=len(d))
        self._norms = None

    @classmethod
    def _of_arrays(cls, ks: np.ndarray, cs: np.ndarray) -> "TrigPoly":
        """The polynomial with distinct frequencies `ks` and nonzero
        coefficients `cs`, kept in that order; nothing is checked.  `ks` is
        int64 with every |k| < FREQ_INT64_LIMIT, or an object array.  The
        arrays may be shared, so no polynomial writes into its own."""
        out = cls.__new__(cls)
        out._k = ks if ks.dtype != object else _freq_array(ks)
        out._c = cs
        out._norms = None
        return out

    @classmethod
    def _of_dict(cls, d: Dict[int, complex]) -> "TrigPoly":
        """The polynomial of an int -> complex map, taken as it is."""
        return cls._of_arrays(_freq_array(list(d)),
                              np.fromiter(d.values(), dtype=complex, count=len(d)))

    def _items(self) -> Iterator[Tuple[int, complex]]:
        """(frequency, coefficient) as Python numbers, in storage order."""
        return zip(self._k.tolist(), self._c.tolist())

    def _restrict(self, mask: np.ndarray) -> "TrigPoly":
        return TrigPoly._of_arrays(self._k[mask], self._c[mask])

    # -- basic queries ---------------------------------------------------

    @property
    def coeffs(self) -> Mapping[int, complex]:
        """Read-only coefficient map in insertion order, built per call."""
        return types.MappingProxyType(dict(self._items()))

    def __getitem__(self, k: int) -> complex:
        hit = np.flatnonzero(self._k == k)
        return complex(self._c[hit[0]]) if hit.size else 0j

    def __len__(self) -> int:
        return self._k.size

    def __eq__(self, other) -> bool:
        return isinstance(other, TrigPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self._items()))

    def __repr__(self) -> str:
        n = len(self)
        if n <= 6:
            return f"TrigPoly({dict(self._items())!r})"
        return f"TrigPoly(<{n} coefficients, degree {self.degree()}>)"

    def spectrum(self) -> Tuple[int, ...]:
        """Sorted support of the coefficient map."""
        return tuple(np.sort(self._k).tolist())

    def degree(self) -> int:
        """max |k| over the spectrum; 0 for the zero polynomial."""
        return int(np.abs(self._k).max()) if len(self) else 0

    def min_abs_freq(self) -> int:
        return int(np.abs(self._k).min()) if len(self) else 0

    def is_analytic(self) -> bool:
        """True iff the spectrum lies in Z+ = {1, 2, ...}."""
        return bool((self._k > 0).all())

    # -- polynomial protocol (shared with the lazy types in blockpoly) ----

    #: frequencies are exact integers, never lazy handles
    lazy = False

    def degree_log2(self) -> float:
        return math.log2(max(self.degree(), 1))

    def spectrum_size(self) -> int:
        return len(self)

    def coeff_zero(self) -> complex:
        return self[0]

    def coeff_l1(self) -> float:
        return coeff_norms(self).l1

    def coeff_linf(self) -> float:
        return coeff_norms(self).linf

    def sstar_upper(self, grid: CircleGrid) -> np.ndarray:
        """Crude but always valid pointwise bound on S**: the l1 norm."""
        return np.full(grid.size, self.coeff_l1())

    def coeff_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The coefficients in frequency order: the frequencies, stored
        under `_freq_array`'s int64/object rule, and the complex128
        coefficients."""
        order = np.argsort(self._k, kind="stable")
        return self._k[order], self._c[order]

    def iter_coeffs(self) -> Iterator[Tuple[int, complex]]:
        """`coeff_arrays` as (frequency, coefficient) Python numbers."""
        return zip(*(a.tolist() for a in self.coeff_arrays()))

    def min_orbit_fraction(self, grid: CircleGrid) -> float:
        return 1.0

    def structure(self, part) -> dict:
        """A structure record leaf: the number `part` gives this polynomial."""
        return {"type": "TrigPoly", "part": part(self)}

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        d = dict(self._items())
        for k, c in other._items():
            v = d.get(k, 0j) + c
            if v == 0:
                d.pop(k, None)
            else:
                d[k] = v
        return TrigPoly._of_dict(d)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + other.scale(-1)

    def scale(self, c: complex) -> "TrigPoly":
        c = complex(c)
        if c == 0:
            return TrigPoly()
        v = _cmul(self._c, c.real, c.imag)
        keep = v != 0  # products that underflow to zero leave the map
        return TrigPoly._of_arrays(self._k[keep], v[keep])

    def shift_freq(self, n: int) -> "TrigPoly":
        """Multiply by e^{int}: moves coefficient k to k + n."""
        k = self._k
        if self.degree() + abs(n) >= FREQ_INT64_LIMIT:
            k = k.astype(object)
        return TrigPoly._of_arrays(k + n, self._c)

    # -- evaluation ------------------------------------------------------

    def values(self, grid: CircleGrid) -> np.ndarray:
        """Values at the grid points, exact for any degree: the one-row
        case of a batched evaluation (`_fill_row`, then `_ifft_runs`)."""
        out = np.empty((1, grid.size), dtype=complex)
        return _ifft_runs(out, [_fill_row(self, grid, out[0])])[0]

    def _residues(self, m: int) -> Tuple[np.ndarray, np.ndarray]:
        """The frequencies' residues mod m and parities: where `_folded`
        adds each coefficient, and with which sign."""
        return (self._k % m).astype(np.intp, copy=False), (self._k % 2).astype(bool)

    def _folded(self, m: int, out: Optional[np.ndarray] = None,
                residues: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                parts: Optional[np.ndarray] = None) -> np.ndarray:
        """The coefficients folded onto the m residues, into `out` (a new
        array when None): the values are m times its inverse FFT.

        `residues` are `_residues(m)` when the caller holds them already.
        `parts`, when given, are two contiguous float rows that hold the
        real and imaginary parts of other coefficients at these
        frequencies (a translate's, `translate_parts`), folded in place of
        the stored ones and overwritten by the fold; nothing of the
        polynomial's size is then allocated."""
        # e^{ik t_j} = (-1)^k * omega^{k j}, t_j = -pi + 2*pi*j/m; bincount
        # adds each residue's terms in storage order from 0.0, a part at a time
        r, odd = self._residues(m) if residues is None else residues
        out = np.empty(m, dtype=complex) if out is None else out
        sources = (self._c.real, self._c.imag) if parts is None else parts
        for part, dest in zip(sources, (out.real, out.imag)):
            if parts is None:
                weights = np.where(odd, -part, part)
            else:  # the signs go into the caller's row, a block at a time
                weights = part
                for lo in range(0, len(part), PHASE_BLOCK):
                    block = slice(lo, lo + PHASE_BLOCK)
                    part[block] = np.where(odd[block], -part[block], part[block])
            dest[...] = np.bincount(r, weights=weights, minlength=m)
            del weights  # freed before the next part's
        return out

    def _values_direct(self, m: int) -> np.ndarray:
        out = np.zeros(m, dtype=complex)
        roots, j = _roots(m), np.arange(m)
        for k, c in self._items():
            out += _term(roots, k, c, j)
        return out


# -- partial sums and maxima ----------------------------------------------

def partial_sum(p: TrigPoly, n: int) -> TrigPoly:
    """Symmetric partial sum S_n: restriction of coefficients to [-n, n]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return p._restrict((-n <= p._k) & (p._k <= n))


def partial_sum_rect(p: TrigPoly, m: int, n: int) -> TrigPoly:
    """Rectangular partial sum S_{n,m}: coefficients with m <= k <= n."""
    if m > n:
        raise ValueError(f"need m <= n, got m={m} n={n}")
    return p._restrict((m <= p._k) & (p._k <= n))


def _guard(p: TrigPoly, grid: CircleGrid):
    if grid.size <= 4 * p.degree():
        raise AliasingError(
            f"grid size {grid.size} too small for degree {p.degree()}"
        )


def _takes_fft(size: int, m: int) -> bool:
    """The evaluation path of a nonzero polynomial with `size` terms on m
    points: the FFT fold when m has no prime factor above 7 or the support
    exceeds DENSE_EVAL_THRESHOLD, else the direct sum."""
    return size > DENSE_EVAL_THRESHOLD or _fft_smooth(m)


def _fill_row(p: TrigPoly, grid: CircleGrid, row: np.ndarray) -> bool:
    """One row of a batched evaluation: p's folded coefficients when p
    takes the FFT path (True; `_ifft_runs` then transforms the row), else
    p's values by the direct sum (False)."""
    if len(p) and _takes_fft(len(p), grid.size):
        p._folded(grid.size, row)
        return True
    row[...] = p._values_direct(grid.size)
    return False


def _ifft_runs(out: np.ndarray, folded: Sequence[bool]) -> np.ndarray:
    """The rows of `out`, a C-contiguous (rows, M) complex array, flagged
    in `folded`, which hold folded coefficients, transformed in place into
    values: each run of consecutive flagged rows by one batched inverse
    FFT.  pocketfft transforms each row as it transforms one array, so a
    row's values do not depend on the rows batched with it: they are its
    polynomial's `values` (the one-row case) bit for bit."""
    m = out.shape[1]
    row = 0
    for batched, group in itertools.groupby(folded):
        count = len(list(group))
        if batched:
            run = out[row:row + count]
            np.fft.ifft(run, axis=1, out=run)
            run *= m
        row += count
    return out


def _fft_smooth(m: int) -> bool:
    """True iff m has no prime factor above 7, so that pocketfft transforms
    m points without Bluestein's algorithm."""
    for f in (2, 3, 5, 7):
        while m % f == 0:
            m //= f
    return m == 1


@functools.lru_cache(maxsize=2)
def _roots(m: int) -> np.ndarray:
    """exp(2 pi i j / m) for 0 <= j < m, as a read-only table; the tables
    of the last two grid sizes are kept."""
    roots = np.exp(1j * (2.0 * math.pi / m) * np.arange(m))
    roots.flags.writeable = False
    return roots


def _term(roots: np.ndarray, k: int, c: complex, j: np.ndarray) -> np.ndarray:
    """c e^{ik t_j} at grid indices j, from the table of the m-th roots.

    e^{ik t_j} = (-1)^k omega^{(k mod m) j} for t_j = -pi + 2 pi j/m.
    Values match `coef * np.exp(...)` over the whole grid bit for bit.
    numpy evaluates that product in place as `row * coef` once the row
    reaches 256 KiB (temporary elision), and under FMA a complex product
    can change in its last bit when its operands swap, so the operand order
    follows the full row size m.
    """
    m = roots.size
    row = roots[((k % m) * j) % m]
    coef = (1.0 if k % 2 == 0 else -1.0) * c
    a, b = (row, coef) if m * 16 >= 256 * 1024 else (coef, row)
    return np.multiply(a, b, out=row)


def max_window_gap(rows: Callable[[int, slice], np.ndarray], count: int,
                   m: int) -> np.ndarray:
    """Pointwise max over 0 <= i < l <= count of |P_l - P_i| on m points.

    P_i is the sum of the first i rows (P_0 = 0); `rows(i, cols)` gives row
    i at the grid columns `cols`.  The sweep streams WINDOW_SWEEP_COLUMNS
    columns at a time, so it holds O(count * WINDOW_SWEEP_COLUMNS) values
    for any m, and each column's maximum is the one the full prefix matrix
    gives.
    """
    best = np.zeros(m)
    for lo in range(0, m, WINDOW_SWEEP_COLUMNS):
        cols = slice(lo, min(lo + WINDOW_SWEEP_COLUMNS, m))
        prefix = np.zeros((count + 1, cols.stop - lo), dtype=complex)
        for i in range(count):
            np.add(prefix[i], rows(i, cols), out=prefix[i + 1])
        out = best[cols]
        for i in range(count):
            np.maximum(out, np.abs(prefix[i + 1:] - prefix[i]).max(axis=0), out=out)
    return best


def s_star(p: TrigPoly, grid: CircleGrid) -> SampledFunction:
    """Pointwise sup over n >= 0 of |S_n(p)| on the grid.

    One incremental sweep over support levels |k|; partial sums only change
    at support frequencies.
    """
    _guard(p, grid)
    m = grid.size
    roots, j = _roots(m), np.arange(m)
    running = np.zeros(m, dtype=complex)
    best = np.zeros(m)
    levels: Dict[int, list] = {}
    for k, c in p._items():
        levels.setdefault(abs(k), []).append((k, c))
    for lev in sorted(levels):
        for k, c in levels[lev]:
            running += _term(roots, k, c, j)
        np.maximum(best, np.abs(running), out=best)
    return SampledFunction(grid, best.astype(complex))


def s_star_star(p: TrigPoly, grid: CircleGrid) -> SampledFunction:
    """Pointwise sup over all windows [m, n] of |S_{n,m}(p)|.

    Windows are delimited by support frequencies (sums are constant
    between them), giving an O(|supp|^2 * M) sweep over prefix values.
    """
    _guard(p, grid)
    if len(p) > S_STAR_STAR_SUPPORT_CAP:
        raise ValueError(
            f"support {len(p)} too large for the exact window sweep "
            f"(cap {S_STAR_STAR_SUPPORT_CAP})"
        )
    items = list(p.iter_coeffs())
    m = grid.size
    roots, j = _roots(m), np.arange(m)
    best = max_window_gap(lambda i, cols: _term(roots, *items[i], j[cols]),
                          len(items), m)
    return SampledFunction(grid, best.astype(complex))


# -- transforms ------------------------------------------------------------

def contract(p: TrigPoly, r: int) -> TrigPoly:
    """Frequency dilation t -> r t: coefficient at k moves to k*r."""
    if r < 1:
        raise ValueError("contraction factor must be a positive integer")
    k = p._k
    if max(p.degree(), 1) * r >= FREQ_INT64_LIMIT:
        k = k.astype(object)
    return TrigPoly._of_arrays(k * r, p._c)


def translate(p: TrigPoly, shift: float) -> TrigPoly:
    """Translation by `shift`: c_k -> c_k * e^{ik shift}."""
    if p._k.dtype == object:
        return TrigPoly({k: c * cmath.exp(1j * k * shift) for k, c in p._items()})
    # every coefficient stays nonzero, so p's frequencies are shared, as
    # `contract` shares p's coefficients.  With w = c + id, |c| or |d|
    # exceeds 1/2, and its product with a nonzero a or b never rounds to 0;
    # a zero (a + ib) w would then need fl(ac) = fl(bd) and
    # fl(ad) = -fl(bc), all four nonzero, whose signs give
    # sign(cd) = -sign(cd)
    out = np.empty(len(p), dtype=complex)
    translate_parts(p, shift, out.real, out.imag)
    return TrigPoly._of_arrays(p._k, out)


def translate_parts(p: TrigPoly, shift: float, re: np.ndarray, im: np.ndarray) -> None:
    """The real and imaginary parts of `translate(p, shift)`'s coefficients,
    for int64 frequencies, into the float arrays `re` and `im`.

    Each is c_k * exp(1j * k * shift) as CPython multiplies them; np.exp
    agrees with cmath.exp here.  The phases are formed in place,
    PHASE_BLOCK at a time, so nothing else of p's size is allocated."""
    for lo in range(0, len(p), PHASE_BLOCK):
        block = slice(lo, lo + PHASE_BLOCK)
        phase = np.multiply(1j, p._k[block])
        phase *= shift
        np.exp(phase, out=phase)
        _cmul_parts(p._c[block], phase.real, phase.imag, re[block], im[block])


def multiply(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Exact coefficient convolution."""
    if len(p) > len(q):
        p, q = q, p
    out: Dict[int, complex] = {}
    q_items = list(q._items())
    for k1, c1 in p._items():
        for k2, c2 in q_items:
            k = k1 + k2
            v = out.get(k, 0j) + c1 * c2
            if v == 0:
                out.pop(k, None)
            else:
                out[k] = v
    return TrigPoly._of_dict(out)


def follows(p: TrigPoly, q: TrigPoly) -> bool:
    """True iff every |k| in spec p strictly exceeds every |l| in spec q."""
    if not len(p) or not len(q):
        return True
    return p.min_abs_freq() > q.degree()


# -- special products -------------------------------------------------------

def special_product(p: TrigPoly, q: TrigPoly, r: int) -> TrigPoly:
    """H = Q_[r] * P for r > 2 deg P and Q^(0) = 0.

    The spectrum of H splits into disjoint blocks s*r + spec P, one per
    s in spec Q; `special_product_window` exposes the induced partial-sum
    decomposition.
    """
    if r <= 2 * p.degree():
        raise ValueError(f"need r > 2*deg P = {2 * p.degree()}, got {r}")
    if q[0] != 0:
        raise ValueError("Q must have zero mean coefficient")
    return multiply(contract(q, r), p)


def split_index(n: int, r: int) -> Tuple[int, int]:
    """Write n = s*r + l with -r/2 <= l < r/2."""
    s = (n + r // 2) // r
    l = n - s * r
    if not (-r / 2 <= l < r / 2 or (r % 2 == 1 and l == (r - 1) // 2)):
        raise AssertionError("block index split failed")
    return s, l


def special_product_window(p: TrigPoly, q: TrigPoly, r: int, n: int) -> TrigPoly:
    """Closed form for the one-sided partial sum of H = Q_[r] * P.

    For n >= 0 this is the coefficient restriction of H to [0, n] written
    as P * (complete blocks of Q) + (partial block); mirrored for n < 0.
    The identity is exact on coefficient maps and is exercised against the
    direct restriction in the tests.
    """
    if n >= 0:
        s, l = split_index(n, r)
        complete = q._restrict((1 <= q._k) & (q._k <= s - 1))
        out = multiply(p, contract(complete, r))
        hi = min(l, p.degree())
        if q[s] != 0 and s >= 1 and hi >= -p.degree():
            part = partial_sum_rect(p, -p.degree(), hi)
            out = out + part.scale(q[s]).shift_freq(s * r)
        return out
    s, l = split_index(n, r)
    complete = q._restrict((s + 1 <= q._k) & (q._k <= -1))
    out = multiply(p, contract(complete, r))
    lo = max(l, -p.degree())
    if q[s] != 0 and s <= -1 and lo <= p.degree():
        part = partial_sum_rect(p, lo, p.degree())
        out = out + part.scale(q[s]).shift_freq(s * r)
    return out


# -- coefficient norms -------------------------------------------------------

class CoeffNorms:
    """l_inf, l_1 and requested l_p norms of the coefficient sequence; the
    l_p norms are a read-only map p -> norm."""

    def __init__(self, p: TrigPoly, ps: Sequence[float] = ()):
        # np.hypot is Python's abs(complex) bit for bit; np.abs is not
        a = np.hypot(p._c.real, p._c.imag) if len(p) else np.zeros(1)
        self.linf = float(a.max(initial=0.0))
        self.l1 = float(a.sum())
        lp = {}
        for q in ps:
            if q < 1:
                raise ValueError("p-norms require p >= 1")
            lp[q] = float(np.power(np.power(a, q).sum(), 1.0 / q))
        self.lp = types.MappingProxyType(lp)

    def __repr__(self):
        return f"CoeffNorms(linf={self.linf}, l1={self.l1}, lp={dict(self.lp)})"


def coeff_norms(p: TrigPoly, ps: Sequence[float] = ()) -> CoeffNorms:
    """The norms of p.  Without `ps` they are computed once per polynomial
    and kept (a TrigPoly is immutable); a request for l_p norms is computed
    per call."""
    if len(ps):
        return CoeffNorms(p, ps)
    if p._norms is None:
        p._norms = CoeffNorms(p)
    return p._norms
