import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrig import riesz
from sparsetrig.blockpoly import contracted_index_map
from sparsetrig.circle import CircleGrid
from sparsetrig.riesz import (C_UPPER, LOG_SINGULARITY_FLOOR, NEG_LOG_2, PHI_L2_NORM,
                              RieszSchedule, ks_distance_to_normal)


def test_schedule_example():
    # L_1 = 8 and L_2 = 16, each product rounded up to odd
    sched = riesz.make_schedule(3, nu1=8)
    assert sched.frequencies == (9, 73, 1169)
    assert sched.ratio_floor == (0.0, 8.0, 16.0)
    # the ratio floors hold with equality for even frequencies too
    assert len(RieszSchedule((8, 64, 1024), (0.0, 8.0, 16.0))) == 3
    with pytest.raises(ValueError):
        RieszSchedule((8, 63, 1024), (0.0, 8.0, 16.0))


def test_schedule_default_odd_hadamard():
    sched = riesz.make_schedule(8)
    f = sched.frequencies
    assert all(x % 2 == 1 for x in f)
    for a, b in zip(f, f[1:]):
        assert b / a > 2.0  # Hadamard and far beyond


def test_schedule_length_one():
    sched = riesz.make_schedule(1, nu1=5)
    assert len(sched) == 1


def test_contracted_indices_exact():
    grid = CircleGrid(64)
    nu = 9
    idx = contracted_index_map(nu, grid)
    lhs = np.cos(grid.points[idx])
    rhs = np.cos(nu * grid.points)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_orbit_guard():
    grid = CircleGrid(64)
    sched = RieszSchedule((32,), (0.0,))
    with pytest.raises(riesz.OrbitError):
        riesz.almost_orthogonality(sched, grid)


def test_mean_log_converges():
    sched = riesz.make_schedule(20)
    errs = []
    for m in (2 ** 12, 2 ** 14):
        diag = riesz.cosine_product_bounds(sched, CircleGrid(m), 20, n_lo=5)
        errs.append(abs(diag.summary["mean_log_one_minus_cos"] - riesz.NEG_LOG_2))
    assert errs[1] < errs[0]
    assert errs[1] < 0.01


def test_degenerate_point_masked():
    sched = riesz.make_schedule(3)
    grid = CircleGrid(1024)
    diag = riesz.cosine_product_bounds(sched, grid, 3, n_lo=1)
    # t = 0 is a grid point and a zero of every factor
    assert diag.masked[512]


def test_cross_identity():
    sched = riesz.make_schedule(30)
    err = riesz.cross_identity_max_error(sched, CircleGrid(2 ** 13), 30)
    assert err < 1e-9


def test_almost_orthogonality_bound():
    # the 2^-(k+k') targets sit near the grid-quadrature noise floor; the
    # bound clears it from M = 2^20 upward
    sched = riesz.make_schedule(6)
    mat = riesz.almost_orthogonality(sched, CircleGrid(2 ** 20))
    for i in range(6):
        for j in range(6):
            if i != j:
                assert mat[i, j] < 2.0 ** -(i + 1 + j + 1), (i, j)
    # diagonal carries the full norm, not the off-diagonal bound
    assert mat[0, 0] > 0.5


def test_analytic_diag_fields():
    sched = riesz.make_schedule(40)
    diag = riesz.analytic_product_diagnostics(sched, CircleGrid(2 ** 13), 40)
    s = diag.summary
    assert 0.0 <= s["liminf_proxy_fraction"] <= 1.0
    assert 0.0 <= s["lower_bound_fraction"] <= 1.0
    assert diag.first_ok_index.shape == (2 ** 13,)


def test_qn_trivial_upper():
    # |1 - e^{i nu t}| <= 2 so log |q_n| <= n log 2
    sched = riesz.make_schedule(10)
    grid = CircleGrid(2 ** 12)
    diag = riesz.analytic_product_diagnostics(sched, grid, 10, n_lo=1)
    assert diag.min_trace[~diag.masked].max() <= 10 * math.log(2.0) + 1e-9


def test_clt_base_case_and_scaling():
    sched = riesz.make_schedule(60)
    grid = CircleGrid(2 ** 13)
    base = riesz.clt_check(sched, grid, 1)
    assert 0.0 < base["ks_distance"] <= 1.0  # reported, not gated
    d1 = riesz.clt_check(sched, grid, 60)["ks_distance"]
    d2 = riesz.clt_check(sched, CircleGrid(2 ** 14), 60)["ks_distance"]
    assert abs(d1 - d2) < 0.01


def test_export_csv(tmp_path):
    sched = riesz.make_schedule(5)
    diag = riesz.cosine_product_bounds(sched, CircleGrid(1024), 5, n_lo=1)
    riesz.export_diagnostics_csv(diag, tmp_path / "d.csv")
    text = (tmp_path / "d.csv").read_text().splitlines()
    assert text[0] == "t,first_ok_index,min_log_trace,masked"
    assert len(text) > 10


# The five diagnostics as they stood before the factor walk was shared: one
# index-map loop and one factor table each.  They are the oracle for the
# shared loop, which must give the same bits.

@dataclass
class _OldDiagnostics:
    grid: CircleGrid
    n_max: int
    first_ok_index: np.ndarray = None
    min_trace: np.ndarray = None
    masked: np.ndarray = None
    summary: dict = field(default_factory=dict)


def _old_cosine_product_bounds(sched: RieszSchedule, grid: CircleGrid, n_max: int,
                               n_lo: int = 20) -> _OldDiagnostics:
    """Evaluate prod_{k<=n}(1 - cos nu_k t) against 3^-n and c^n bounds,
    c = C_UPPER.

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
    logc = math.log(C_UPPER)
    for n in range(1, n_max + 1):
        idx = contracted_index_map(sched.frequencies[n - 1], grid)
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
    diag = _OldDiagnostics(grid, n_max)
    diag.first_ok_index = last_fail + 1
    diag.min_trace = min_trace
    diag.masked = masked
    diag.summary = {
        "fraction_both_bounds": frac,
        "fraction_lower_bound": frac_lower,
        "mean_log_one_minus_cos": mean_log,
        "target_mean": NEG_LOG_2,
        "n_window": (n_lo, n_max),
        "c_upper": C_UPPER,
        "masked_points": int(masked.sum()),
    }
    return diag


def _old_log_abs_one_minus_exp(theta: np.ndarray) -> np.ndarray:
    """log |1 - e^{i theta}| with the dyadic singular points zeroed out."""
    vals = 2.0 * np.abs(np.sin(theta / 2.0))
    out = np.empty_like(vals)
    sing = vals < math.sqrt(LOG_SINGULARITY_FLOOR)
    out[~sing] = np.log(vals[~sing])
    out[sing] = 0.0
    return out


def _old_analytic_product_diagnostics(sched: RieszSchedule, grid: CircleGrid,
                                      n_max: int, threshold: float = 1e-2,
                                      n_lo: int = 20) -> _OldDiagnostics:
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
    log_factor = _old_log_abs_one_minus_exp(theta)
    sing = 2.0 * np.abs(np.sin(theta / 2.0)) < math.sqrt(LOG_SINGULARITY_FLOOR)

    log_abs = np.zeros(m)
    masked = np.zeros(m, dtype=bool)
    min_trace = np.full(m, np.inf)
    ok_all = np.ones(m, dtype=bool)
    last_fail = np.zeros(m, dtype=np.int64)
    log34 = math.log(0.75)
    for n in range(1, n_max + 1):
        idx = contracted_index_map(sched.frequencies[n - 1], grid)
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
    diag = _OldDiagnostics(grid, n_max)
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


def _old_cross_identity_max_error(sched: RieszSchedule, grid: CircleGrid, n_max: int) -> float:
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
        idx = contracted_index_map(sched.frequencies[n - 1], grid)
        masked |= ~keep[idx]
        s_cos += log_cos[idx]
        s_q += log_q[idx]
        rhs = n * NEG_LOG_2 + 2.0 * s_q
        err = np.abs(s_cos - rhs)[~masked]
        if err.size:
            worst = max(worst, float(err.max()))
    # error in log space == relative error of the products to first order
    return worst


def _old_clt_check(sched: RieszSchedule, grid: CircleGrid, n_terms: int) -> dict:
    """KS distance of (1/sqrt N) sum phi(nu_k t) to the standard normal.

    phi is log|1 - e^{it}| normalized to zero mean and unit L2 norm (the
    mean is exactly zero analytically; the norm is pi/sqrt(12)).
    """
    if n_terms > len(sched):
        raise ValueError("n_terms exceeds schedule length")
    m = grid.size
    theta = grid.points
    phi = _old_log_abs_one_minus_exp(theta) / PHI_L2_NORM
    sing = 2.0 * np.abs(np.sin(theta / 2.0)) < math.sqrt(LOG_SINGULARITY_FLOOR)
    total = np.zeros(m)
    masked = np.zeros(m, dtype=bool)
    for k in range(n_terms):
        idx = contracted_index_map(sched.frequencies[k], grid)
        masked |= sing[idx]
        total += phi[idx]
    total /= math.sqrt(n_terms)
    dist = ks_distance_to_normal(total[~masked])
    return {"ks_distance": dist, "n_terms": n_terms,
            "masked_points": int(masked.sum())}


def _old_almost_orthogonality(sched: RieszSchedule, grid: CircleGrid) -> np.ndarray:
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
        idx = contracted_index_map(sched.frequencies[k], grid)
        rows.append(f_tab[idx])
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = abs(float(np.dot(rows[i], rows[j])) / m)
    return out


@settings(max_examples=20, deadline=None)
@given(m=st.sampled_from([1024, 4096, 2 * 8191, 2 ** 14]),
       n=st.integers(1, 60), nu1=st.integers(1, 40), data=st.data())
def test_diagnostics_match_oracle(m, n, nu1, data):
    grid = CircleGrid(m)
    sched = riesz.make_schedule(n, nu1=nu1)
    n_max = data.draw(st.integers(1, n), label="n_max")
    n_lo = data.draw(st.integers(1, 25), label="n_lo")
    threshold = data.draw(st.sampled_from([1e-2, 0.1, 0.5]), label="threshold")
    try:
        old_orth = _old_almost_orthogonality(sched, grid)
    except riesz.OrbitError:  # a frequency shares the factor 8191 with M
        with pytest.raises(riesz.OrbitError):
            riesz.almost_orthogonality(sched, grid)
        return
    assert np.array_equal(riesz.almost_orthogonality(sched, grid), old_orth)
    if n_lo > n_max:  # the oracle reported fractions over an empty window
        for run in (riesz.cosine_product_bounds,
                    riesz.analytic_product_diagnostics):
            with pytest.raises(ValueError, match="is empty"):
                run(sched, grid, n_max, n_lo=n_lo)
    else:
        pairs = [(riesz.cosine_product_bounds(sched, grid, n_max, n_lo=n_lo),
                  _old_cosine_product_bounds(sched, grid, n_max, n_lo=n_lo)),
                 (riesz.analytic_product_diagnostics(sched, grid, n_max,
                                                     threshold, n_lo),
                  _old_analytic_product_diagnostics(sched, grid, n_max,
                                                    threshold, n_lo))]
        for new, old in pairs:
            assert (new.grid, new.n_max) == (old.grid, old.n_max)
            for name in ("first_ok_index", "min_trace", "masked"):
                assert np.array_equal(getattr(new, name), getattr(old, name)), name
            assert new.summary == old.summary
    assert (riesz.cross_identity_max_error(sched, grid, n_max)
            == _old_cross_identity_max_error(sched, grid, n_max))
    assert riesz.clt_check(sched, grid, n_max) == _old_clt_check(sched, grid, n_max)


def test_empty_bound_window_raises():
    sched, grid = riesz.make_schedule(30), CircleGrid(1024)
    for run in (riesz.cosine_product_bounds, riesz.analytic_product_diagnostics):
        with pytest.raises(ValueError, match=r"bound window \[20, 10\] is empty"):
            run(sched, grid, 10)
        assert run(sched, grid, 20).summary["n_window"] == (20, 20)


@pytest.mark.parametrize("count, text", [(0, "at least 1"), (4, "exceeds")])
def test_factor_count_out_of_range(count, text):
    sched, grid = riesz.make_schedule(3), CircleGrid(256)
    for run in (riesz.cosine_product_bounds, riesz.analytic_product_diagnostics,
                riesz.cross_identity_max_error, riesz.clt_check):
        with pytest.raises(ValueError, match=text):
            run(sched, grid, count)
