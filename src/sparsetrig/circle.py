"""Discretized circle, sampled functions, and grid measure estimation.

The circle is identified with [-pi, pi) and sampled on M uniform points
t_j = -pi + 2*pi*j/M.  Normalized Lebesgue measure is replaced throughout
by counting fractions of grid points, so every measure-based quantity in
this package is a grid estimate.  For a set of a few intervals its error
is O(1/M); on sets cut out by contracted factors it is far wider: the
exceptional set of `analytic_korner(0.2)` measures 0.3200 to 0.3276
across M = 4096, 4078, 16384, 16382 and 32768, about 30 times 1/4096.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


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

    def contracted_indices(self, residue: int,
                           j: Optional[np.ndarray] = None) -> np.ndarray:
        """sigma(j) with t_{sigma(j)} = r * t_j (mod 2 pi) for any integer
        rate r with r = residue (mod M), at the int64 indices `j` (all M
        when None).

        t_j = 2 pi (j - h) / M with h = M // 2 the index of t = 0, so
        r * t_j is the angle of index h + r (j - h) (mod M), whatever r's
        parity.  The constant h - r h is reduced as a Python int, so the
        array takes one product, one sum and one remainder.
        """
        m = self.size
        h = m // 2
        j = np.arange(m, dtype=np.int64) if j is None else j
        return (residue * j + (h - residue * h) % m) % m


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

    def require_finite(self, who: str) -> None:
        """Refuse +-inf points, which only `run_infinity_mode` represents:
        `values` reads 0 there."""
        if self.has_extended:
            raise ExtendedValueError(f"{who} needs a finite target; only the "
                                     "infinity engine takes +-inf values")

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


def measure_fraction(mask: np.ndarray) -> float:
    """Fraction of True entries in a boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    return float(np.count_nonzero(mask)) / mask.size


def l0_of_abs(absv: np.ndarray) -> float:
    """Grid L0 quasi-norm inf{eps > 0 : m{|f| > eps} < eps} from |f|.

    Sub-additive but not homogeneous.  The norm never exceeds 1 (any
    eps > 1 beats the full measure), so the bisection runs on
    [0, 1 + 2/M] with an absolute tolerance, regardless of how large the
    values are.
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
