import math
import tracemalloc

import numpy as np
import pytest

from sparsetrig import trigpoly as tp
from sparsetrig.approximants import (CertificateError, ConstructionInfeasible,
                                     analytic_block_approximant,
                                     analytic_korner, analytic_unit,
                                     block_approximant, fejer_poly,
                                     fejer_until, jackson_dip,
                                     korner_polynomial, symmetric_unit)
from sparsetrig.circle import (CircleGrid, SampledFunction, constant, l0_norm,
                               measure_fraction)
from sparsetrig.targets import step, zero

GRID = CircleGrid(2 ** 13)
CASCADE_GRID = CircleGrid(2 * 8191)


def test_fejer_recovers_polynomial():
    g = CircleGrid(1024)
    p = tp.TrigPoly({-2: 0.5, 0: 1.0, 3: 0.25j})
    f = p.evaluate(g)
    approx = fejer_poly(f, 64)
    err = np.abs(approx.values(g) - f.values)
    assert err.max() < 0.1
    poly, diag = fejer_until(f, 0.05, 0.05, 1024)
    assert poly is not None and diag["bad_fraction"] < 0.05


def test_fejer_step_degree_scale():
    f = step(CircleGrid(4096))
    poly, diag = fejer_until(f, 1 / 12, 1 / 6, 4096)
    assert poly is not None
    assert 4 <= poly.degree() <= 256


def test_jackson_dip_zero_mean():
    v = jackson_dip(32)
    assert v[0] == 0
    assert v.degree() == 62
    g = CircleGrid(1024)
    vals = v.values(g)
    # dip at t = 0, near 1 elsewhere
    assert abs(vals[512] - 1.0) > 0.5
    far = np.abs(vals - 1.0)[np.abs(g.points) > 1.0]
    assert far.max() < 0.01


def test_symmetric_unit_certificate():
    v, diag = symmetric_unit(0.1, 0.05, 4096, GRID)
    assert diag["bad_fraction"] <= 0.1
    vals = v.values(GRID, allow_alias=True)
    assert measure_fraction(np.abs(vals - 1.0) > 0.05) <= 0.1


def test_analytic_unit_passes():
    for eps in (0.5, 0.25):
        rep = analytic_unit(eps, grid=GRID)
        assert rep.poly.is_analytic()
        assert rep.measured["l0_R_minus_1"]["measured"] < eps
        assert rep.measured["mean_F_near_1"]["pass"]


def test_analytic_unit_work_grid_is_a_power_of_two():
    # on 2*8191 G is built on the power-of-two grids of 2^14, so R is the
    # same polynomial, and no work grid overshoots 2^18
    for eps in (0.2, 0.35):
        r_engine = analytic_unit(eps, grid=CASCADE_GRID).poly
        r_pow2 = analytic_unit(eps, grid=CircleGrid(2 ** 14)).poly
        assert np.array_equal(r_engine._k, r_pow2._k)
        assert np.array_equal(r_engine._c, r_pow2._c)
    tracemalloc.start()
    try:
        analytic_unit(0.2, grid=CASCADE_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_analytic_unit_infeasible_below_float_floor():
    with pytest.raises(ConstructionInfeasible) as exc:
        analytic_unit(0.02, grid=GRID)
    assert "dynamic range" in str(exc.value) or "stalled" in str(exc.value)


def test_korner_small_grid():
    rep = korner_polynomial(0.25, 0.25, grid=GRID, strict=True)
    q = rep.poly
    assert q.coeff_zero() == 0
    assert rep.measured["qhat_linf"]["measured"] < 0.25
    assert rep.measured["close_to_one"]["measured"] < 0.25
    assert rep.measured["sstar_star_constant"]["measured"] < 64.0
    # bracket sanity: lower <= upper
    assert rep.extras["sstar_star_lower_times_eps"] <= \
        rep.extras["sstar_star_constant"] + 1e-9


def test_block_approximant_zero_target():
    rep = block_approximant(zero(CASCADE_GRID), 0.25, 0.25, s=100, a=3)
    assert isinstance(rep.poly, tp.TrigPoly) and len(rep.poly) == 0
    assert rep.all_passed()


def test_block_approximant_constant_target():
    f = constant(CASCADE_GRID, 1.0)
    rep = block_approximant(f, 0.3, 0.3, s=150000, a=3, strict=False)
    assert rep.measured["approximates_f"]["pass"]
    assert rep.measured["spectrum_in_block"]["pass"]
    assert rep.measured["sstar_measure"]["pass"]
    assert rep.extras["min_orbit_fraction"] >= 0.4


def test_block_approximant_small_s_exact_rates_oracle():
    # s <= 10000 keeps exact integer rates so the membership oracle runs
    f = constant(CircleGrid(2 * 509), 1.0)
    rep = block_approximant(f, 0.4, 0.4, s=8000, a=3, strict=False)
    chk = rep.measured["spectrum_in_block"]
    assert chk["checked"] > 0 and chk["pass"]
    # four tiles cannot fit the budget; three fit with a capped dip
    assert rep.deviations == (
        "constant carrier served by a two-sided Jackson dip on the mirrored "
        "halves of the block (zero mean exactly)",
        "dip amplitude normalized to 1/tau_hat(0) so that the zero-mean "
        "requirement holds exactly",
        "tile count K = 3 chosen from the exact coefficient bound "
        "|Q^|_inf = |F^|_inf |G^|_inf rather than the crude l1 chain",
        "dip degree capped at 10 (budget 8000); dip widened to 1.2 to stay "
        "resolvable",
        "block rates are greedy primes with disjoint (interleaved) blocks; "
        "partial-sum control falls back to the l1 bound",
    )
    assert rep.extras["q3_degree_log2"] == pytest.approx(12.623881490013458,
                                                         rel=1e-12)
    with pytest.raises(ConstructionInfeasible) as exc:
        block_approximant(f, 0.4, 0.4, s=4000, a=3, strict=False)
    assert str(exc.value) == \
        "tiled-dip stage does not fit inside payload budget s = 4000"
    assert exc.value.diagnostics == {
        "step": "Q3", "inner": {"budget": 4000, "deg_tile": 16}}


def test_block_approximant_jump_target_infeasible():
    f = step(CASCADE_GRID)
    with pytest.raises(ConstructionInfeasible) as exc:
        block_approximant(f, 0.25, 0.25, s=150000, a=3)
    diag = exc.value.diagnostics
    assert diag["step"] == "unit"
    assert diag["required_quality"] < 0.01


def test_analytic_korner_report_shape():
    # strict mode raises on the documented float barrier and carries the
    # full report
    with pytest.raises(CertificateError) as exc:
        analytic_korner(0.2, grid=CircleGrid(2 ** 13), strict=True)
    rep = exc.value.report
    # construction is honest about which requirements fail at this scale
    assert rep.poly.is_analytic()
    assert rep.exceptional_set is not None
    assert set(rep.measured) >= {"qhat_linf", "exceptional_measure",
                                 "close_to_one_on_E", "sup_n_L2_on_E",
                                 "sup_n_tail_measure"}
    assert any("clamped" in d for d in rep.deviations)
    assert not rep.all_passed()  # the documented float barrier


def test_analytic_block_approximant_zero():
    rep = analytic_block_approximant(zero(CASCADE_GRID), 0.25, s=1000, a=3)
    assert rep.all_passed()


def test_block_approximants_measure_f_when_the_carrier_fit_is_zero():
    # a dipole whose mean is zero: the degree-0 Fejer mean meets the P1
    # bound, so P = 0 and both certificates read the measure of f itself
    g = CircleGrid(4096)
    vals = np.zeros(g.size)
    vals[100], vals[101] = 1.0, -1.0
    f = SampledFunction(g, vals)
    rep = analytic_block_approximant(f, 0.9, s=150000, a=3)
    assert len(rep.poly) == 0 and rep.deviations == ("zero target",)
    assert rep.measured["l0_f_minus_P"]["measured"] == l0_norm(f)
    assert 2 / 4096 <= l0_norm(f) < 3 / 4096
    rep = block_approximant(f, 0.3, 0.3, s=150000, a=3)
    assert len(rep.poly) == 0
    assert rep.measured["approximates_f"]["measured"] == 2 / 4096


def test_analytic_block_approximant_infeasible_nonzero():
    f = constant(CASCADE_GRID, 1.0)
    with pytest.raises(ConstructionInfeasible):
        analytic_block_approximant(f, 0.25, s=150000, a=3)


def test_analytic_block_approximant_nonzero_path():
    # eps 1.9 is the first budget the one-sided unit step meets (at 1.5 it
    # needs quality 0.167), and s must exceed the analytic tiled stage's
    # degree of about 2^684
    f = constant(CircleGrid(4096), 1.0)
    rep = analytic_block_approximant(f, 1.9, s=10 ** 210, a=3)
    assert rep.failures() == []
    assert list(rep.measured) == ["l0_f_minus_P", "sn_measure", "analytic",
                                  "spectrum_in_block"]
    assert len(rep.deviations) == 5
    chk = rep.measured["spectrum_in_block"]
    assert chk["pass"] and chk["checked"] == 0  # lazy rates: no oracle sample
