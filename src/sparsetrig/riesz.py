"""Riesz product diagnostics on the sampled circle.

Cosine products prod(1 - cos nu_k t) and their analytic counterparts
prod(1 - e^{i nu_k t}) over fast-growing frequency schedules, with the
almost-orthogonality and central-limit checks that justify treating the
contracted factors as quasi-independent.

Frequencies grow far beyond any storable grid, so factors are sampled
exactly at grid points through modular index arithmetic; this requires
gcd(nu_k, M) = 1 (full sampling orbit), which the default schedule
guarantees by keeping every frequency odd.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .circle import CircleGrid, GridError

LOG_SINGULARITY_FLOOR = 1e-30
NEG_LOG_2 = -math.log(2.0)
#: L2 norm of log|1 - e^{it}| under normalized measure (= pi/sqrt(12))
PHI_L2_NORM = math.pi / math.sqrt(12.0)


class OrbitError(GridError):
    """Sampling orbit of a contracted factor does not cover the grid."""


@dataclass(frozen=True)
class RieszSchedule:
    """Strictly increasing frequencies with recorded per-index ratio floors."""

    frequencies: Tuple[int, ...]
    ratio_floor: Tuple[float, ...]

    def __post_init__(self):
        f = self.frequencies
        if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
            raise ValueError("frequencies must be strictly increasing")
        if any(x < 1 for x in f):
            raise ValueError("frequencies must be positive")
        if len(self.ratio_floor) != len(f):
            raise ValueError("ratio_floor must align with frequencies")
        for k in range(1, len(f)):
            floor = self.ratio_floor[k]
            if floor > 0:
                # log2 comparison: the frequencies overflow floats quickly
                if math.log2(f[k]) - math.log2(f[k - 1]) < math.log2(floor) - 1e-9:
                    raise ValueError(f"ratio condition violated at index {k}")

    def __len__(self):
        return len(self.frequencies)


def default_ratio_rule(k: int) -> float:
    """L_k = 4 * 2^k (1-indexed); any faster-growing rule also works."""
    return 4.0 * 2.0 ** k


def make_schedule(n: int, nu1: int = 9,
                  growth: Callable[[int], float] = default_ratio_rule,
                  force_odd: bool = True) -> RieszSchedule:
    """Build nu_1 < nu_2 < ... with nu_{k+1} the first admissible integer
    at or above nu_k * L_k.

    With force_odd (the default) every frequency is rounded up to the next
    odd integer, keeping gcd(nu_k, M) = 1 on even grids so that sampled
    diagnostics see the full factor rather than a collapsed orbit.
    """
    if n < 1:
        raise ValueError("schedule length must be >= 1")
    if nu1 < 1:
        raise ValueError("nu1 must be positive")
    first = nu1 + 1 if (force_odd and nu1 % 2 == 0) else nu1
    freqs = [first]
    floors = [0.0]
    for k in range(1, n):
        lk = float(growth(k))
        # integer arithmetic: frequencies quickly exceed float range
        cand = freqs[-1] * max(1, math.ceil(lk))
        if force_odd and cand % 2 == 0:
            cand += 1
        freqs.append(cand)
        floors.append(lk)
    return RieszSchedule(tuple(freqs), tuple(floors))


def _check_orbit(nu: int, m: int):
    if math.gcd(nu % m, m) != 1:
        raise OrbitError(
            f"gcd(nu, M) = {math.gcd(nu % m, m)} != 1: contracted factor "
            f"would be sampled on a collapsed orbit"
        )


def contracted_angle_indices(nu: int, grid: CircleGrid) -> np.ndarray:
    """Index map sigma with theta_{sigma(j)} = nu * t_j (mod 2 pi), exact."""
    _check_orbit(nu, grid.size)
    return grid.contracted_indices(nu % grid.size, nu % 2 == 1)


@dataclass
class RieszDiagnostics:
    """Per-grid-point traces for a product diagnostic run."""

    grid: CircleGrid
    n_max: int
    #: first index from which the lower bound holds onward (n_max+1 => never)
    first_ok_index: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: per-point minimum of |q_n| (analytic) or product (cosine) over n <= n_max
    min_trace: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: mask of points excluded because a factor hit the log singularity
    masked: np.ndarray = field(default=None)  # type: ignore[assignment]
    summary: dict = field(default_factory=dict)


def cosine_product_bounds(sched: RieszSchedule, grid: CircleGrid, n_max: int,
                          c_upper: float = 0.9, n_lo: int = 20) -> RieszDiagnostics:
    """Evaluate prod_{k<=n}(1 - cos nu_k t) against 3^-n and c^n bounds.

    Reports the fraction of unmasked points obeying both bounds for every
    n in [n_lo, n_max], and the empirical mean of (1/n) sum log(1 - cos),
    whose limit is -log 2.
    """
    if n_max > len(sched):
        raise ValueError("n_max exceeds schedule length")
    m = grid.size
    theta = grid.points
    log_one_minus_cos = np.empty(m)
    base_vals = 1.0 - np.cos(theta)
    sing = base_vals < LOG_SINGULARITY_FLOOR
    log_one_minus_cos[~sing] = np.log(base_vals[~sing])
    log_one_minus_cos[sing] = 0.0

    log_sum = np.zeros(m)
    masked = np.zeros(m, dtype=bool)
    ok_all = np.ones(m, dtype=bool)
    ok_lower = np.ones(m, dtype=bool)
    last_fail = np.zeros(m, dtype=np.int64)
    min_trace = np.full(m, np.inf)
    log3 = math.log(3.0)
    logc = math.log(c_upper)
    for n in range(1, n_max + 1):
        idx = contracted_angle_indices(sched.frequencies[n - 1], grid)
        masked |= sing[idx]
        log_sum += log_one_minus_cos[idx]
        np.minimum(min_trace, log_sum, out=min_trace)
        lo_ok = log_sum > -n * log3
        hi_ok = log_sum < n * logc
        both = lo_ok & hi_ok
        last_fail[~both] = n
        if n_lo <= n:
            ok_all &= both
            ok_lower &= lo_ok
    valid = ~masked
    nvalid = max(1, int(valid.sum()))
    frac = float(np.count_nonzero(ok_all & valid)) / nvalid
    frac_lower = float(np.count_nonzero(ok_lower & valid)) / nvalid
    mean_log = float(log_sum[valid].mean()) / n_max
    diag = RieszDiagnostics(grid, n_max)
    diag.first_ok_index = last_fail + 1
    diag.min_trace = min_trace
    diag.masked = masked
    diag.summary = {
        "fraction_both_bounds": frac,
        "fraction_lower_bound": frac_lower,
        "mean_log_one_minus_cos": mean_log,
        "target_mean": NEG_LOG_2,
        "n_window": (n_lo, n_max),
        "c_upper": c_upper,
        "masked_points": int(masked.sum()),
    }
    return diag


def log_abs_one_minus_exp(theta: np.ndarray) -> np.ndarray:
    """log |1 - e^{i theta}| with the dyadic singular points zeroed out."""
    vals = 2.0 * np.abs(np.sin(theta / 2.0))
    out = np.empty_like(vals)
    sing = vals < math.sqrt(LOG_SINGULARITY_FLOOR)
    out[~sing] = np.log(vals[~sing])
    out[sing] = 0.0
    return out


def analytic_product_diagnostics(sched: RieszSchedule, grid: CircleGrid, n_max: int,
                                 threshold: float = 1e-2,
                                 n_lo: int = 20) -> RieszDiagnostics:
    """Track q_n(t) = prod_{k<=n}(1 - e^{i nu_k t}).

    Reports (i) the fraction of points where min_{n<=n_max} |q_n| <
    threshold (finite-stage proxy for liminf |q_n| = 0), (ii) the fraction
    where the (3/4)^n lower bound holds for all n in [n_lo, n_max], and
    (iii) the per-point index from which that bound holds onward.
    """
    if n_max > len(sched):
        raise ValueError("n_max exceeds schedule length")
    m = grid.size
    theta = grid.points
    log_factor = log_abs_one_minus_exp(theta)
    sing = 2.0 * np.abs(np.sin(theta / 2.0)) < math.sqrt(LOG_SINGULARITY_FLOOR)

    log_abs = np.zeros(m)
    masked = np.zeros(m, dtype=bool)
    min_trace = np.full(m, np.inf)
    ok_all = np.ones(m, dtype=bool)
    last_fail = np.zeros(m, dtype=np.int64)
    log34 = math.log(0.75)
    for n in range(1, n_max + 1):
        idx = contracted_angle_indices(sched.frequencies[n - 1], grid)
        masked |= sing[idx]
        log_abs += log_factor[idx]
        np.minimum(min_trace, log_abs, out=min_trace)
        lo_ok = log_abs > n * log34
        last_fail[~lo_ok] = n
        if n_lo <= n:
            ok_all &= lo_ok
    valid = ~masked
    nvalid = max(1, int(valid.sum()))
    liminf_frac = float(np.count_nonzero((min_trace < math.log(threshold)) & valid)) / nvalid
    lower_frac = float(np.count_nonzero(ok_all & valid)) / nvalid
    diag = RieszDiagnostics(grid, n_max)
    diag.first_ok_index = last_fail + 1
    diag.min_trace = min_trace
    diag.masked = masked
    diag.summary = {
        "liminf_proxy_fraction": liminf_frac,
        "lower_bound_fraction": lower_frac,
        "threshold": threshold,
        "n_window": (n_lo, n_max),
        "masked_points": int(masked.sum()),
    }
    return diag


def cross_identity_max_error(sched: RieszSchedule, grid: CircleGrid, n_max: int) -> float:
    """Max relative error of prod(1 - cos nu_k t) = 2^-n |q_n|^2 over the grid.

    The two sides are accumulated from independently computed factor tables.
    """
    m = grid.size
    theta = grid.points
    cos_tab = 1.0 - np.cos(theta)
    qn_tab = 2.0 * np.abs(np.sin(theta / 2.0))
    keep = (cos_tab >= LOG_SINGULARITY_FLOOR)
    log_cos = np.where(keep, np.log(np.maximum(cos_tab, LOG_SINGULARITY_FLOOR)), 0.0)
    log_q = np.where(keep, np.log(np.maximum(qn_tab, math.sqrt(LOG_SINGULARITY_FLOOR))), 0.0)
    s_cos = np.zeros(m)
    s_q = np.zeros(m)
    masked = np.zeros(m, dtype=bool)
    worst = 0.0
    for n in range(1, n_max + 1):
        idx = contracted_angle_indices(sched.frequencies[n - 1], grid)
        masked |= ~keep[idx]
        s_cos += log_cos[idx]
        s_q += log_q[idx]
        rhs = n * NEG_LOG_2 + 2.0 * s_q
        err = np.abs(s_cos - rhs)[~masked]
        if err.size:
            worst = max(worst, float(err.max()))
    # error in log space == relative error of the products to first order
    return worst


def ks_distance_to_normal(samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of an empirical sample to N(0, 1)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))
    upper = np.abs(np.arange(1, n + 1) / n - cdf)
    lower = np.abs(cdf - np.arange(0, n) / n)
    return float(max(upper.max(), lower.max()))


def clt_check(sched: RieszSchedule, grid: CircleGrid, n_terms: int) -> dict:
    """KS distance of (1/sqrt N) sum phi(nu_k t) to the standard normal.

    phi is log|1 - e^{it}| normalized to zero mean and unit L2 norm (the
    mean is exactly zero analytically; the norm is pi/sqrt(12)).
    """
    if n_terms > len(sched):
        raise ValueError("n_terms exceeds schedule length")
    m = grid.size
    theta = grid.points
    phi = log_abs_one_minus_exp(theta) / PHI_L2_NORM
    sing = 2.0 * np.abs(np.sin(theta / 2.0)) < math.sqrt(LOG_SINGULARITY_FLOOR)
    total = np.zeros(m)
    masked = np.zeros(m, dtype=bool)
    for k in range(n_terms):
        idx = contracted_angle_indices(sched.frequencies[k], grid)
        masked |= sing[idx]
        total += phi[idx]
    total /= math.sqrt(n_terms)
    dist = ks_distance_to_normal(total[~masked])
    return {"ks_distance": dist, "n_terms": n_terms,
            "masked_points": int(masked.sum())}


def almost_orthogonality(sched: RieszSchedule, grid: CircleGrid) -> np.ndarray:
    """Matrix of |(1/M) sum F_k F_k'| for F = log(1 - cos t) + log 2.

    Off-diagonal entries are certified against 2^-(k+k') by the caller;
    singular points are clipped to zero (a null set of dyadic angles).
    """
    n = len(sched)
    m = grid.size
    theta = grid.points
    base_vals = 1.0 - np.cos(theta)
    sing = base_vals < LOG_SINGULARITY_FLOOR
    f_tab = np.where(sing, 0.0, np.log(np.maximum(base_vals, LOG_SINGULARITY_FLOOR)) - NEG_LOG_2)
    rows = []
    for k in range(n):
        idx = contracted_angle_indices(sched.frequencies[k], grid)
        rows.append(f_tab[idx])
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = abs(float(np.dot(rows[i], rows[j])) / m)
    return out


def export_diagnostics_csv(diag: RieszDiagnostics, path, stride: int = 64) -> None:
    """Thin CSV export: columns t, first_ok_index, min_log_trace, masked."""
    t = diag.grid.points
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "first_ok_index", "min_log_trace", "masked"])
        for j in range(0, diag.grid.size, stride):
            w.writerow([repr(float(t[j])), int(diag.first_ok_index[j]),
                        repr(float(diag.min_trace[j])), int(diag.masked[j])])
