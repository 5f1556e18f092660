"""Riesz product diagnostics on the sampled circle.

Cosine products prod(1 - cos nu_k t) and their analytic counterparts
prod(1 - e^{i nu_k t}) over fast-growing frequency schedules, with the
almost-orthogonality and central-limit checks that justify treating the
contracted factors as quasi-independent.

Frequencies grow far beyond any storable grid, so factors are sampled
exactly at grid points through modular index arithmetic; this requires
gcd(nu_k, M) = 1 (full sampling orbit), which the default schedule
guarantees by keeping every frequency odd.  A full orbit per factor does
not keep distinct factors apart mod M: congruent frequencies sample one
function, so on 2^14 criterion 7's 200-term sums repeat a few of them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .circle import CircleGrid, GridError

LOG_SINGULARITY_FLOOR = 1e-30
NEG_LOG_2 = -math.log(2.0)
#: c of the upper bound prod_{k<=n} (1 - cos nu_k t) < c^n
C_UPPER = 0.9
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
                  force_odd: bool = True) -> RieszSchedule:
    """Build nu_1 < nu_2 < ... with nu_{k+1} the first admissible integer
    at or above nu_k * L_k, L_k = default_ratio_rule(k).

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
        lk = float(default_ratio_rule(k))
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
    first_ok_index: np.ndarray
    #: per-point minimum of |q_n| (analytic) or product (cosine) over n <= n_max
    min_trace: np.ndarray
    #: mask of points excluded because a factor hit the log singularity
    masked: np.ndarray
    summary: dict


def _masked_log(vals: np.ndarray, floor: float):
    """log(vals) with the points below floor zeroed out, and their mask."""
    sing = vals < floor
    return np.where(sing, 0.0, np.log(np.maximum(vals, floor))), sing


def _log_one_minus_cos(theta: np.ndarray):
    """log(1 - cos theta) with the singular points zeroed out, and their mask."""
    return _masked_log(1.0 - np.cos(theta), LOG_SINGULARITY_FLOOR)


def log_abs_one_minus_exp(theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """log |1 - e^{i theta}| with the dyadic singular points zeroed out, and
    the mask of those points."""
    return _masked_log(2.0 * np.abs(np.sin(theta / 2.0)),
                       math.sqrt(LOG_SINGULARITY_FLOOR))


def _factor_terms(sched: RieszSchedule, grid: CircleGrid, n: int, tables):
    """Yield k and each table sampled at nu_k t, for k = 1..n."""
    if n > len(sched):
        raise ValueError("n_max exceeds schedule length")
    if n < 1:
        raise ValueError(f"factor count must be at least 1, got {n}")
    for k in range(1, n + 1):
        idx = contracted_angle_indices(sched.frequencies[k - 1], grid)
        yield k, [tab[idx] for tab in tables]


def _factor_sums(sched: RieszSchedule, grid: CircleGrid, n: int, tables,
                 sing: np.ndarray):
    """Yield k, the sums over j <= k of each table at nu_j t (one array per
    table, updated in place), and the points where some factor so far fell
    on `sing`."""
    sums = [np.zeros(grid.size) for _ in tables]
    masked = np.zeros(grid.size, dtype=bool)
    for k, (hit, *terms) in _factor_terms(sched, grid, n, [sing, *tables]):
        masked |= hit
        for total, term in zip(sums, terms):
            total += term
        yield k, sums, masked


def _bound_traces(sched, grid, n_max, table, sing, n_lo, log_lo, log_hi=None):
    """Track the partial sums of one log-factor table against n log_lo < sum
    (and sum < n log_hi when given).

    Returns the last sum, the mask, the per-point minimum, the first index
    from which the bounds hold onward, and the points where both bounds
    (and the lower one alone) hold for every n in [n_lo, n_max].  An empty
    window raises ValueError, after the sweep has checked the factor count.
    """
    m = grid.size
    ok_all = np.ones(m, dtype=bool)
    ok_lower = np.ones(m, dtype=bool)
    last_fail = np.zeros(m, dtype=np.int64)
    min_trace = np.full(m, np.inf)
    for n, (log_sum,), masked in _factor_sums(sched, grid, n_max, [table], sing):
        np.minimum(min_trace, log_sum, out=min_trace)
        lo_ok = log_sum > n * log_lo
        both = lo_ok if log_hi is None else lo_ok & (log_sum < n * log_hi)
        last_fail[~both] = n
        if n_lo <= n:
            ok_all &= both
            ok_lower &= lo_ok
    if n_lo > n_max:
        raise ValueError(f"bound window [{n_lo}, {n_max}] is empty: "
                         f"n_max must be at least n_lo = {n_lo}")
    return log_sum, masked, min_trace, last_fail + 1, ok_all, ok_lower


def _fraction(sel: np.ndarray, masked: np.ndarray) -> float:
    """Share of the unmasked points that lie in sel."""
    valid = ~masked
    return float(np.count_nonzero(sel & valid)) / max(1, int(valid.sum()))


def cosine_product_bounds(sched: RieszSchedule, grid: CircleGrid, n_max: int,
                          n_lo: int = 20) -> RieszDiagnostics:
    """Evaluate prod_{k<=n}(1 - cos nu_k t) against 3^-n and c^n bounds,
    c = C_UPPER.

    Reports the fraction of unmasked points obeying both bounds for every
    n in [n_lo, n_max], and the empirical mean of (1/n) sum log(1 - cos),
    whose limit is -log 2.
    """
    table, sing = _log_one_minus_cos(grid.points)
    log_sum, masked, min_trace, first_ok, ok_all, ok_lower = _bound_traces(
        sched, grid, n_max, table, sing, n_lo, -math.log(3.0), math.log(C_UPPER))
    return RieszDiagnostics(grid, n_max, first_ok, min_trace, masked, {
        "fraction_both_bounds": _fraction(ok_all, masked),
        "fraction_lower_bound": _fraction(ok_lower, masked),
        "mean_log_one_minus_cos": float(log_sum[~masked].mean()) / n_max,
        "target_mean": NEG_LOG_2,
        "n_window": (n_lo, n_max),
        "c_upper": C_UPPER,
        "masked_points": int(masked.sum()),
    })


def analytic_product_diagnostics(sched: RieszSchedule, grid: CircleGrid, n_max: int,
                                 threshold: float = 1e-2,
                                 n_lo: int = 20) -> RieszDiagnostics:
    """Track q_n(t) = prod_{k<=n}(1 - e^{i nu_k t}).

    Reports (i) the fraction of points where min_{n<=n_max} |q_n| <
    threshold (finite-stage proxy for liminf |q_n| = 0), (ii) the fraction
    where the (3/4)^n lower bound holds for all n in [n_lo, n_max], and
    (iii) the per-point index from which that bound holds onward.
    """
    table, sing = log_abs_one_minus_exp(grid.points)
    _, masked, min_trace, first_ok, ok_all, _ = _bound_traces(
        sched, grid, n_max, table, sing, n_lo, math.log(0.75))
    return RieszDiagnostics(grid, n_max, first_ok, min_trace, masked, {
        "liminf_proxy_fraction": _fraction(min_trace < math.log(threshold), masked),
        "lower_bound_fraction": _fraction(ok_all, masked),
        "threshold": threshold,
        "n_window": (n_lo, n_max),
        "masked_points": int(masked.sum()),
    })


def cross_identity_max_error(sched: RieszSchedule, grid: CircleGrid, n_max: int) -> float:
    """Max relative error of prod(1 - cos nu_k t) = 2^-n |q_n|^2 over the grid.

    The two sides are accumulated from independently computed factor tables.
    """
    log_cos, sing = _log_one_minus_cos(grid.points)
    log_q, _ = log_abs_one_minus_exp(grid.points)  # its mask lies inside sing
    worst = 0.0
    for n, (s_cos, s_q), masked in _factor_sums(sched, grid, n_max,
                                                [log_cos, log_q], sing):
        err = np.abs(s_cos - (n * NEG_LOG_2 + 2.0 * s_q))[~masked]
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
    log_q, sing = log_abs_one_minus_exp(grid.points)
    # the last step holds the sum over all n_terms factors
    *_, (_, (total,), masked) = _factor_sums(sched, grid, n_terms,
                                             [log_q / PHI_L2_NORM], sing)
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
    table, sing = _log_one_minus_cos(grid.points)
    rows = [row for _, (row,) in _factor_terms(
        sched, grid, n, [np.where(sing, 0.0, table - NEG_LOG_2)])]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = abs(float(np.dot(rows[i], rows[j])) / grid.size)
    return out


def export_diagnostics_csv(diag: RieszDiagnostics, path) -> None:
    """Thin CSV export of every 64th grid point: columns t, first_ok_index,
    min_log_trace, masked."""
    t = diag.grid.points
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "first_ok_index", "min_log_trace", "masked"])
        for j in range(0, diag.grid.size, 64):
            w.writerow([repr(float(t[j])), int(diag.first_ok_index[j]),
                        repr(float(diag.min_trace[j])), int(diag.masked[j])])
