"""Sparse trigonometric polynomials with exact coefficient algebra.

A polynomial is a finite map frequency -> complex coefficient; the spectrum
is exactly the stored key set.  Frequencies are arbitrary Python integers,
so contractions by huge factors never overflow.  Evaluation on a grid is
exact at the grid points for any degree (e^{ikt_j} is reduced modulo the
grid), but operations whose *meaning* depends on resolving the polynomial
(norm and measure estimates, partial-sum sweeps) enforce M > 4*deg.
"""

from __future__ import annotations

import cmath
import csv
import math
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from .circle import CircleGrid, GridError, SampledFunction

DENSE_EVAL_THRESHOLD = 512


class AliasingError(GridError):
    """Grid too small to resolve the polynomial (needs M > 4*deg)."""


class TrigPoly:
    """Immutable sparse trigonometric polynomial sum c_k e^{ikt}."""

    __slots__ = ("_coeffs",)

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
        self._coeffs = d

    # -- basic queries ---------------------------------------------------

    @property
    def coeffs(self) -> Mapping[int, complex]:
        return dict(self._coeffs)

    def __getitem__(self, k: int) -> complex:
        return self._coeffs.get(k, 0j)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, TrigPoly) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        n = len(self._coeffs)
        if n <= 6:
            return f"TrigPoly({self._coeffs!r})"
        return f"TrigPoly(<{n} coefficients, degree {self.degree()}>)"

    def spectrum(self) -> Tuple[int, ...]:
        """Sorted support of the coefficient map."""
        return tuple(sorted(self._coeffs))

    def degree(self) -> int:
        """max |k| over the spectrum; 0 for the zero polynomial."""
        if not self._coeffs:
            return 0
        return max(abs(k) for k in self._coeffs)

    def min_abs_freq(self) -> int:
        if not self._coeffs:
            return 0
        return min(abs(k) for k in self._coeffs)

    def is_analytic(self) -> bool:
        """True iff the spectrum lies in Z+ = {1, 2, ...}."""
        return all(k > 0 for k in self._coeffs)

    # -- polynomial protocol (shared with the lazy types in blockpoly) ----

    #: frequencies are exact integers, never lazy handles
    lazy = False

    def degree_log2(self) -> float:
        return math.log2(max(self.degree(), 1))

    def spectrum_size(self) -> int:
        return len(self._coeffs)

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
        items = sorted(self._coeffs.items())
        return iter(items[:limit] if limit else items)

    def min_orbit_fraction(self, grid: CircleGrid) -> float:
        return 1.0

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        d = dict(self._coeffs)
        for k, c in other._coeffs.items():
            v = d.get(k, 0j) + c
            if v == 0:
                d.pop(k, None)
            else:
                d[k] = v
        out = TrigPoly()
        out._coeffs = d
        return out

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + other.scale(-1)

    def scale(self, c: complex) -> "TrigPoly":
        c = complex(c)
        if c == 0:
            return TrigPoly()
        out = TrigPoly()
        out._coeffs = {k: v * c for k, v in self._coeffs.items()}
        return out

    def shift_freq(self, n: int) -> "TrigPoly":
        """Multiply by e^{int}: moves coefficient k to k + n."""
        out = TrigPoly()
        out._coeffs = {k + n: v for k, v in self._coeffs.items()}
        return out

    def conjugate(self) -> "TrigPoly":
        out = TrigPoly()
        out._coeffs = {-k: v.conjugate() for k, v in self._coeffs.items()}
        return out

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
        if not self._coeffs:
            return np.zeros(m, dtype=complex)
        if len(self._coeffs) > DENSE_EVAL_THRESHOLD:
            return self._values_fft(m)
        return self._values_direct(m)

    def _values_fft(self, m: int) -> np.ndarray:
        folded = np.zeros(m, dtype=complex)
        for k, c in self._coeffs.items():
            r = k % m
            # e^{ik t_j} = (-1)^k * omega^{k j}, t_j = -pi + 2*pi*j/m
            folded[r] += c if (k % 2 == 0) else -c
        return m * np.fft.ifft(folded)

    def _values_direct(self, m: int) -> np.ndarray:
        out = np.zeros(m, dtype=complex)
        j = np.arange(m)
        base = 2.0 * math.pi / m
        for k, c in self._coeffs.items():
            r = k % m
            sign = 1.0 if (k % 2 == 0) else -1.0
            out += (sign * c) * np.exp(1j * base * ((r * j) % m))
        return out

    def evaluate(self, grid: CircleGrid) -> SampledFunction:
        """Evaluate as a SampledFunction (aliasing guarded)."""
        return SampledFunction(grid, self.values(grid))

    def value_at(self, t: float) -> complex:
        """Value at an arbitrary angle (frequencies must fit a double)."""
        out = 0j
        for k, c in self._coeffs.items():
            if abs(k) > 2 ** 52:
                raise OverflowError("value_at requires |k| <= 2**52; use grid sampling")
            out += c * cmath.exp(1j * k * t)
        return out

    # -- serialization ---------------------------------------------------

    def to_csv(self, path) -> None:
        """Write columns k, re, im sorted by frequency."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "re", "im"])
            for k in self.spectrum():
                c = self._coeffs[k]
                w.writerow([k, repr(float(c.real)), repr(float(c.imag))])


def from_csv(path) -> TrigPoly:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return TrigPoly({int(r[0]): complex(float(r[1]), float(r[2])) for r in rows[1:]})


# -- partial sums and maxima ----------------------------------------------

def partial_sum(p: TrigPoly, n: int) -> TrigPoly:
    """Symmetric partial sum S_n: restriction of coefficients to [-n, n]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return TrigPoly({k: c for k, c in p.coeffs.items() if -n <= k <= n})


def partial_sum_rect(p: TrigPoly, m: int, n: int) -> TrigPoly:
    """Rectangular partial sum S_{n,m}: coefficients with m <= k <= n."""
    if m > n:
        raise ValueError(f"need m <= n, got m={m} n={n}")
    return TrigPoly({k: c for k, c in p.coeffs.items() if m <= k <= n})


def _guard(p: TrigPoly, grid: CircleGrid):
    if grid.size <= 4 * p.degree():
        raise AliasingError(
            f"grid size {grid.size} too small for degree {p.degree()}"
        )


def s_star(p: TrigPoly, grid: CircleGrid) -> SampledFunction:
    """Pointwise sup over n >= 0 of |S_n(p)| on the grid.

    One incremental sweep over support levels |k|; partial sums only change
    at support frequencies.
    """
    _guard(p, grid)
    m = grid.size
    running = np.zeros(m, dtype=complex)
    best = np.zeros(m)
    levels: Dict[int, list] = {}
    for k, c in p.coeffs.items():
        levels.setdefault(abs(k), []).append((k, c))
    for lev in sorted(levels):
        for k, c in levels[lev]:
            running += TrigPoly({k: c}).values(grid, allow_alias=True)
        np.maximum(best, np.abs(running), out=best)
    return SampledFunction(grid, best.astype(complex))


def s_star_star(p: TrigPoly, grid: CircleGrid, max_support: int = 4096) -> SampledFunction:
    """Pointwise sup over all windows [m, n] of |S_{n,m}(p)|.

    Windows are delimited by support frequencies (sums are constant
    between them), giving an O(|supp|^2 * M) sweep over prefix values.
    """
    _guard(p, grid)
    spec = p.spectrum()
    if len(spec) > max_support:
        raise ValueError(
            f"support {len(spec)} too large for the exact window sweep "
            f"(cap {max_support})"
        )
    m = grid.size
    if not spec:
        return SampledFunction(grid, np.zeros(m, dtype=complex))
    # prefix[i] = value of sum over the first i support frequencies
    prefixes = np.zeros((len(spec) + 1, m), dtype=complex)
    running = np.zeros(m, dtype=complex)
    for i, k in enumerate(spec):
        running = running + TrigPoly({k: p[k]}).values(grid, allow_alias=True)
        prefixes[i + 1] = running
    best = np.zeros(m)
    for i in range(len(spec) + 1):
        diff = np.abs(prefixes[i + 1:] - prefixes[i])
        if diff.size:
            np.maximum(best, diff.max(axis=0), out=best)
    return SampledFunction(grid, best.astype(complex))


# -- transforms ------------------------------------------------------------

def contract(p: TrigPoly, r: int) -> TrigPoly:
    """Frequency dilation t -> r t: coefficient at k moves to k*r."""
    if r < 1:
        raise ValueError("contraction factor must be a positive integer")
    return TrigPoly({k * r: c for k, c in p.coeffs.items()})


def translate(p: TrigPoly, shift: float) -> TrigPoly:
    """Translation by `shift`: c_k -> c_k * e^{ik shift}."""
    return TrigPoly({k: c * cmath.exp(1j * k * shift) for k, c in p.coeffs.items()})


def multiply(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Exact coefficient convolution."""
    if len(p) > len(q):
        p, q = q, p
    out: Dict[int, complex] = {}
    for k1, c1 in p.coeffs.items():
        for k2, c2 in q.coeffs.items():
            k = k1 + k2
            v = out.get(k, 0j) + c1 * c2
            if v == 0:
                out.pop(k, None)
            else:
                out[k] = v
    return TrigPoly(out)


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
        complete = TrigPoly({k: c for k, c in q.coeffs.items() if 1 <= k <= s - 1})
        out = multiply(p, contract(complete, r))
        hi = min(l, p.degree())
        if q[s] != 0 and s >= 1 and hi >= -p.degree():
            part = partial_sum_rect(p, -p.degree(), hi)
            out = out + part.scale(q[s]).shift_freq(s * r)
        return out
    s, l = split_index(n, r)
    complete = TrigPoly({k: c for k, c in q.coeffs.items() if s + 1 <= k <= -1})
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
        a = np.array([abs(c) for c in p.coeffs.values()]) if len(p) else np.zeros(1)
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
