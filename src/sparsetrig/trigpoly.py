"""Sparse trigonometric polynomials with exact coefficient algebra.

A polynomial is a finite map frequency -> complex coefficient; the spectrum
is exactly the stored key set.  Frequencies are arbitrary Python integers,
so contractions by huge factors never overflow.  Evaluation on a grid is
exact at the grid points for any degree (e^{ikt_j} is reduced modulo the
grid), but operations whose *meaning* depends on resolving the polynomial
(norm and measure estimates, partial-sum sweeps) enforce M > 4*deg.

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
import math
import types
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from .circle import CircleGrid, GridError, SampledFunction

DENSE_EVAL_THRESHOLD = 512
#: largest support the exact S** window sweep accepts
S_STAR_STAR_SUPPORT_CAP = 4096
#: grid columns per block of the streamed window sweep (`max_window_gap`)
WINDOW_SWEEP_COLUMNS = 2048
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


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _cmul(z: np.ndarray, wr, wi) -> np.ndarray:
    """z * (wr + i wi) elementwise, rounded as CPython's complex product:
    (a wr - b wi) + i (a wi + b wr), each product rounded on its own."""
    a, b = z.real, z.imag
    return _complex(a * wr - b * wi, a * wi + b * wr)


class TrigPoly:
    """Immutable sparse trigonometric polynomial sum c_k e^{ikt}."""

    __slots__ = ("_k", "_c")

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

    @classmethod
    def _of_arrays(cls, ks: np.ndarray, cs: np.ndarray) -> "TrigPoly":
        """The polynomial with distinct frequencies `ks` and nonzero
        coefficients `cs`, kept in that order; nothing is checked.  `ks` is
        int64 with every |k| < FREQ_INT64_LIMIT, or an object array.  The
        arrays may be shared, so no polynomial writes into its own."""
        out = cls.__new__(cls)
        out._k = ks if ks.dtype != object else _freq_array(ks)
        out._c = cs
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

    def iter_coeffs(self, limit: Optional[int] = None) -> Iterator[Tuple[int, complex]]:
        """(frequency, coefficient) in frequency order, the first `limit`."""
        order = np.argsort(self._k, kind="stable")
        if limit:
            order = order[:limit]
        return zip(self._k[order].tolist(), self._c[order].tolist())

    def min_orbit_fraction(self, grid: CircleGrid) -> float:
        return 1.0

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

    def values(self, grid: CircleGrid, allow_alias: bool = False) -> np.ndarray:
        """Exact values at the grid points.

        With allow_alias=False (default) requires M > 4*deg; the escape
        hatch exists for sampling-based diagnostics on spectra whose degree
        exceeds any storable grid, where values are still exact pointwise.
        """
        m = grid.size
        if not allow_alias and m <= 4 * self.degree():
            raise AliasingError(
                f"grid size {m} too small for degree {self.degree()} (need M > 4*deg)"
            )
        if not len(self):
            return np.zeros(m, dtype=complex)
        if len(self) > DENSE_EVAL_THRESHOLD:
            return self._values_fft(m)
        return self._values_direct(m)

    def _values_fft(self, m: int) -> np.ndarray:
        # e^{ik t_j} = (-1)^k * omega^{k j}, t_j = -pi + 2*pi*j/m; bincount
        # adds each residue's terms in storage order, starting from 0.0
        r = (self._k % m).astype(np.intp)
        signed = np.where((self._k % 2).astype(bool), -self._c, self._c)
        folded = _complex(np.bincount(r, weights=signed.real, minlength=m),
                          np.bincount(r, weights=signed.imag, minlength=m))
        return m * np.fft.ifft(folded)

    def _values_direct(self, m: int) -> np.ndarray:
        out = np.zeros(m, dtype=complex)
        roots, j = _roots(m), np.arange(m)
        for k, c in self._items():
            out += _term(roots, k, c, j)
        return out

    def evaluate(self, grid: CircleGrid) -> SampledFunction:
        """Evaluate as a SampledFunction (aliasing guarded)."""
        return SampledFunction(grid, self.values(grid))


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


def _roots(m: int) -> np.ndarray:
    """exp(2 pi i j / m) for 0 <= j < m, built per call and never kept."""
    return np.exp(1j * (2.0 * math.pi / m) * np.arange(m))


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
    # np.exp agrees with cmath.exp here; the product is CPython's
    phase = np.exp(1j * p._k * shift)
    c = _cmul(p._c, phase.real, phase.imag)
    keep = c != 0
    return TrigPoly._of_arrays(p._k[keep], c[keep])


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
    """l_inf, l_1 and requested l_p norms of the coefficient sequence."""

    def __init__(self, p: TrigPoly, ps: Sequence[float] = ()):
        # np.hypot is Python's abs(complex) bit for bit; np.abs is not
        a = np.hypot(p._c.real, p._c.imag) if len(p) else np.zeros(1)
        self.linf = float(a.max(initial=0.0))
        self.l1 = float(a.sum())
        self.lp = {}
        for q in ps:
            if q < 1:
                raise ValueError("p-norms require p >= 1")
            self.lp[q] = float(np.power(np.power(a, q).sum(), 1.0 / q))

    def __repr__(self):
        return f"CoeffNorms(linf={self.linf}, l1={self.l1}, lp={self.lp})"


def coeff_norms(p: TrigPoly, ps: Sequence[float] = ()) -> CoeffNorms:
    return CoeffNorms(p, ps)
