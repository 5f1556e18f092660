"""Discretized circle, sampled functions, and grid measure estimation.

The circle is identified with [-pi, pi) and sampled on M uniform points
t_j = -pi + 2*pi*j/M.  Normalized Lebesgue measure is replaced throughout
by counting fractions of grid points, so every measure-based quantity in
this package carries an implicit O(1/M) grid slack.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

#: callable applied to the complex value array, or an explicit boolean mask
Predicate = Union[Callable[[np.ndarray], np.ndarray], np.ndarray]


class GridError(ValueError):
    """Raised for invalid grids or grid/degree mismatches."""


class ExtendedValueError(ValueError):
    """Raised when an operation cannot handle +/-inf sample points."""


@dataclass(frozen=True)
class CircleGrid:
    """Uniform grid t_j = -pi + 2*pi*j/M on the circle.

    M must be even and at least 8.  Operations that consume a polynomial of
    degree d on this grid require M > 4*d (exact quadrature for degree-2d
    products); see `sparsetrig.trigpoly`.
    """

    size: int

    def __post_init__(self):
        if self.size < 8:
            raise GridError(f"grid size must be >= 8, got {self.size}")
        if self.size % 2 != 0:
            raise GridError(f"grid size must be even, got {self.size}")

    @property
    def points(self) -> np.ndarray:
        return -math.pi + 2.0 * math.pi * np.arange(self.size) / self.size

    def contracted_indices(self, residue: int, odd: bool) -> np.ndarray:
        """sigma with t_{sigma(j)} = r * t_j (mod 2 pi) for any integer rate r
        with r = residue (mod M) and the given parity.

        e^{i r t_j} = (-1)^r omega^{r j}: the half-turn lands on index M/2
        when r is even, 0 otherwise.
        """
        m = self.size
        base = 0 if odd else m // 2
        return (base + residue * np.arange(m, dtype=np.int64)) % m


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples of a target function on a CircleGrid.

    `extended_sign[j] = +-1` marks points where the target is +-infinity
    (the stored complex value there is ignored); 0 marks finite points.
    """

    grid: CircleGrid
    values: np.ndarray
    extended_sign: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid size {self.grid.size}"
            )
        object.__setattr__(self, "values", vals)
        ext = self.extended_sign
        if ext is None:
            ext = np.zeros(self.grid.size, dtype=np.int8)
        else:
            ext = np.asarray(ext, dtype=np.int8)
            if ext.shape != (self.grid.size,):
                raise ValueError("extended_sign shape does not match grid size")
            if not np.all(np.isin(ext, (-1, 0, 1))):
                raise ValueError("extended_sign entries must be -1, 0 or +1")
        object.__setattr__(self, "extended_sign", ext)

    @property
    def has_extended(self) -> bool:
        return bool(np.any(self.extended_sign != 0))

    def effective_values(self) -> np.ndarray:
        """Values with extended points replaced by signed real infinities."""
        if not self.has_extended:
            return self.values
        out = self.values.copy()
        out[self.extended_sign > 0] = complex(np.inf, 0.0)
        out[self.extended_sign < 0] = complex(-np.inf, 0.0)
        return out

    def to_csv(self, path) -> None:
        """Write columns t, re, im, extended_sign."""
        t = self.grid.points
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "re", "im", "extended_sign"])
            for j in range(self.grid.size):
                w.writerow([repr(float(t[j])), repr(float(self.values[j].real)),
                            repr(float(self.values[j].imag)),
                            int(self.extended_sign[j])])


def from_csv(path) -> SampledFunction:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    vals = np.array([complex(float(r[1]), float(r[2])) for r in body])
    ext = np.array([int(r[3]) for r in body], dtype=np.int8)
    return SampledFunction(CircleGrid(len(body)), vals, ext)


def constant(grid: CircleGrid, c: complex) -> SampledFunction:
    return SampledFunction(grid, np.full(grid.size, complex(c)))


@dataclass(frozen=True)
class MeasureEstimate:
    """Counting estimate of m{t : predicate} on a grid."""

    fraction: float
    count: int
    grid_size: int

    def __post_init__(self):
        if self.fraction != self.count / self.grid_size:
            raise ValueError("fraction must equal count / grid_size")


def estimate_measure(f: SampledFunction, predicate: Predicate) -> MeasureEstimate:
    """Fraction of grid points whose sample satisfies the predicate.

    `predicate` is either a callable applied to the (effective) value array
    or a precomputed boolean mask.  Extended points are passed through as
    signed infinities, so tests like ``abs(v) > c`` behave naturally.
    """
    if callable(predicate):
        mask = np.asarray(predicate(f.effective_values()), dtype=bool)
    else:
        mask = np.asarray(predicate, dtype=bool)
    if mask.shape != (f.grid.size,):
        raise ValueError("predicate mask shape does not match grid")
    count = int(np.count_nonzero(mask))
    return MeasureEstimate(count / f.grid.size, count, f.grid.size)


def measure_fraction(mask: np.ndarray) -> float:
    """Fraction of True entries in a boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    return float(np.count_nonzero(mask)) / mask.size


def l0_norm(f: SampledFunction) -> float:
    """Grid L0 quasi-norm inf{eps > 0 : m{|f| > eps} < eps}.

    Computed by bisection; the result is within 2/M of the grid-exact
    infimum (and far closer in practice: the bisection tolerance is
    1e-6 * max(1, max|f|)).  Sub-additive but not homogeneous.
    """
    if f.has_extended:
        raise ExtendedValueError("L0 undefined for infinite values")
    absv = np.abs(f.values)
    return l0_of_abs(absv)


def l0_of_abs(absv: np.ndarray) -> float:
    """L0 quasi-norm from a precomputed |f| array.

    The norm never exceeds 1 (any eps > 1 beats the full measure), so the
    bisection runs on [0, 1 + 2/M] with an absolute tolerance, regardless
    of how large the values are.
    """
    m = absv.size
    vmax = float(absv.max()) if m else 0.0
    if vmax == 0.0:
        return 0.0

    def ok(eps: float) -> bool:
        return np.count_nonzero(absv > eps) / m < eps

    lo, hi = 0.0, min(vmax, 1.0) + 2.0 / m
    tol = 1e-6
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def triangle_function(eps: float, grid: CircleGrid) -> SampledFunction:
    """Triangle bump of width 2*eps: 1 - |t|/eps on |t| < eps, else 0."""
    if not 0.0 < eps <= math.pi:
        raise ValueError(f"eps must lie in (0, pi], got {eps}")
    t = grid.points
    return SampledFunction(grid, np.maximum(0.0, 1.0 - np.abs(t) / eps).astype(complex))


def triangle_coeff(eps: float, n: int) -> float:
    """Fourier coefficient of the width-2*eps triangle under normalized measure.

    Closed form (eps/2pi) * (sin(n*eps/2)/(n*eps/2))**2 for n != 0 and
    eps/2pi at n = 0; validated against quadrature in the test suite.
    Nonnegative for every n, and the full series sums to 1.
    """
    if not 0.0 < eps <= math.pi:
        raise ValueError(f"eps must lie in (0, pi], got {eps}")
    if n == 0:
        return eps / (2.0 * math.pi)
    x = n * eps / 2.0
    s = math.sin(x) / x
    return (eps / (2.0 * math.pi)) * s * s


def triangle_coeff_array(eps: float, n_max: int) -> np.ndarray:
    """triangle_coeff(eps, n) for n = 0..n_max as a vector."""
    if not 0.0 < eps <= math.pi:
        raise ValueError(f"eps must lie in (0, pi], got {eps}")
    n = np.arange(1, n_max + 1, dtype=float)
    x = n * eps / 2.0
    vals = (eps / (2.0 * math.pi)) * (np.sin(x) / x) ** 2
    return np.concatenate(([eps / (2.0 * math.pi)], vals))


def triangle_coeff_tail(eps: float, n_max: int) -> float:
    """Exact sum of triangle_coeff(eps, n) over |n| > n_max.

    Uses the closed forms sum_{n>=1} 1/n^2 = pi^2/6 and
    sum_{n>=1} cos(n h)/n^2 = pi^2/6 - pi*h/2 + h^2/4 (0 <= h <= 2pi),
    so that partial sum + tail reconstructs the total mass 1 analytically.
    """
    if not 0.0 < eps <= math.pi:
        raise ValueError(f"eps must lie in (0, pi], got {eps}")
    n = np.arange(1, n_max + 1, dtype=float)
    head_inv = float(np.sum(1.0 / n ** 2))
    head_cos = float(np.sum(np.cos(n * eps) / n ** 2))
    total_inv = math.pi ** 2 / 6.0
    total_cos = math.pi ** 2 / 6.0 - math.pi * eps / 2.0 + eps ** 2 / 4.0
    # tau_hat(n) = (1 - cos(n*eps)) / (pi * eps * n^2), summed over both signs
    tail = 2.0 * ((total_inv - head_inv) - (total_cos - head_cos)) / (math.pi * eps)
    return tail
