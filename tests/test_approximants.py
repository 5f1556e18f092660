import bisect
import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from coeff_oracle import oracle_iter_coeffs
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrig import approximants as ap
from sparsetrig import blocks as bl
from sparsetrig import trigpoly as tp
from sparsetrig.approximants import (OUTER_PEAK_LOG_CAP, CertificateError,
                                     ConstructionInfeasible, certificate,
                                     _pullback_bad_set,
                                     _structural_containment,
                                     analytic_block_approximant,
                                     analytic_korner, analytic_unit,
                                     block_approximant, fejer_poly,
                                     fejer_until, jackson_dip,
                                     korner_polynomial, symmetric_unit)
from sparsetrig.circle import (CircleGrid, SampledFunction, l0_of_abs,
                               measure_fraction, triangle_coeff,
                               triangle_coeff_array)
from sparsetrig.blockpoly import BlockSum, BlockTerm, LazyRate, ScaledProduct
from tile_oracle import ref_pullback_bad_set
from sparsetrig.numbertheory import primes_from
from sparsetrig.targets import const, step, zero

GRID = CircleGrid(2 ** 13)
CASCADE_GRID = CircleGrid(2 * 8191)


def test_fejer_recovers_polynomial():
    g = CircleGrid(1024)
    p = tp.TrigPoly({-2: 0.5, 0: 1.0, 3: 0.25j})
    f = SampledFunction(g, p.values(g))
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


# the dict loops the array builders replaced, kept as oracles

def loop_fejer_poly(f, degree):
    m = f.grid.size
    hat = np.fft.fft(f.values) / m
    coeffs = {}
    n = degree + 1
    for k in range(-degree, degree + 1):
        w = 1.0 - abs(k) / n
        c = hat[k % m] * w
        c *= (-1.0) ** (k % 2)
        if abs(c) > 1e-15:
            coeffs[k] = complex(c)
    return tp.TrigPoly(coeffs)


def loop_jackson_dip(n):
    m = 1 << max(8, (4 * n - 1).bit_length())
    t = -math.pi + 2.0 * math.pi * np.arange(m) / m
    s = np.sin(t / 2.0)
    num = np.sin(n * t / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ker = np.where(np.abs(s) < 1e-15, float(n) ** 4, (num / s) ** 4)
    ker_hat = np.fft.fft(ker).real / m
    coeffs = {}
    for k in range(1, 2 * n - 1):
        c = ker_hat[k] * (-1.0) ** (k % 2) / ker_hat[0]
        if abs(c) > 1e-18:
            coeffs[k] = complex(-c)
            coeffs[-k] = complex(-c)
    return tp.TrigPoly(coeffs)


def loop_triangle_partial(width, n):
    arr = triangle_coeff_array(width, n)
    coeffs = {0: complex(arr[0])}
    for k in range(1, n + 1):
        if arr[k] != 0.0:
            coeffs[k] = complex(arr[k])
            coeffs[-k] = complex(arr[k])
    return tp.TrigPoly(coeffs)


def loop_dip_payload(width, degree):
    amp = 1.0 / triangle_coeff(width, 0)
    arr = triangle_coeff_array(width, degree)
    coeffs = {}
    for k in range(1, degree + 1):
        c = -amp * arr[k]
        if c != 0.0:
            coeffs[k] = complex(c)
            coeffs[-k] = complex(c)
    return tp.TrigPoly(coeffs)


def assert_same_bits(p, ref):
    """Same frequencies in the same storage order, same dtype, and the
    same coefficient bits, signed zeros included."""
    assert p._k.dtype == ref._k.dtype
    assert p._k.tolist() == ref._k.tolist()
    assert p._c.tobytes() == ref._c.tobytes()


# real parts and imaginary parts mix exact zeros of both signs with
# integers (exact-zero DFT bins) and arbitrary floats
parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                  st.floats(-8.0, 8.0))


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([8, 10, 16, 62, 64, 250, 1024]), real=st.booleans(),
       data=st.data())
def test_fejer_poly_matches_loop_oracle(m, real, data):
    re = data.draw(st.lists(parts, min_size=m, max_size=m))
    im = [0.0] * m if real else data.draw(st.lists(parts, min_size=m, max_size=m))
    vals = np.array(re) + 1j * np.array(im)
    f = SampledFunction(CircleGrid(m), vals)
    for degree in (0, 1, data.draw(st.integers(2, 2 * m + 3))):
        assert_same_bits(fejer_poly(f, degree), loop_fejer_poly(f, degree))


@pytest.mark.parametrize("m", [8, 250, 1022, 4096])
def test_fejer_poly_matches_loop_oracle_on_structured_targets(m):
    # constants, cosines and real steps give bins that are exactly zero,
    # and imaginary parts that are zeros of either sign
    t = CircleGrid(m).points
    for vals in (np.ones(m), np.cos(3 * t), np.sign(t), 1j * np.sin(t),
                 np.where(np.abs(t) < 1.0, 1.0, -0.0), np.zeros(m)):
        f = SampledFunction(CircleGrid(m), vals.astype(complex))
        for degree in (0, 1, 3, 16, m // 2, m + 1):
            assert_same_bits(fejer_poly(f, degree), loop_fejer_poly(f, degree))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 400), width=st.floats(0.01, math.pi),
       tol=st.sampled_from([1e-2, 1e-3, 1e-4]), degree=st.integers(1, 3000))
def test_kernel_builders_match_loop_oracles(n, width, tol, degree):
    assert_same_bits(jackson_dip(n), loop_jackson_dip(n))
    tri = ap._triangle_partial(width, tol)
    assert_same_bits(tri, loop_triangle_partial(width, tri.degree()))
    assert_same_bits(ap._dip_payload(width, degree), loop_dip_payload(width, degree))


def test_fejer_until_takes_one_dft(monkeypatch):
    f = step(CircleGrid(4096))
    calls = []
    fft = np.fft.fft

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return fft(a, *args, **kwargs)
    monkeypatch.setattr(np.fft, "fft", counting)
    poly, diag = fejer_until(f, 1 / 12, 1 / 6, 4096)
    monkeypatch.undo()
    assert poly is not None and diag["degree"] >= 4  # several degrees tried
    assert calls == [4096]
    assert_same_bits(poly, loop_fejer_poly(f, diag["degree"]))


def test_symmetric_unit_certificate():
    v, diag = symmetric_unit(0.1, 0.05, 4096, GRID)
    assert diag["bad_fraction"] <= 0.1
    vals = v.values(GRID)
    assert measure_fraction(np.abs(vals - 1.0) > 0.05) <= 0.1


def test_analytic_unit_passes():
    for eps in (0.5, 0.25):
        rep = analytic_unit(eps, grid=GRID)
        assert rep.poly.is_analytic()
        assert rep.measured["l0_R_minus_1"]["measured"] < eps
        assert rep.measured["mean_F_near_1"]["pass"]


class _NumpyCountingFFT:
    """numpy, with `fft.fft` and `fft.ifft` recording each length; patched
    into the approximants namespace only, so trigpoly's transforms of R on
    the evaluation grid are not counted."""

    def __init__(self, lengths):
        def counted(fn):
            def call(a, *args, **kwargs):
                lengths.append(len(a))
                return fn(a, *args, **kwargs)
            return call
        self.fft = SimpleNamespace(fft=counted(np.fft.fft),
                                   ifft=counted(np.fft.ifft))

    def __getattr__(self, name):
        return getattr(np, name)


def unit_fft_lengths(monkeypatch, eps, grid):
    lengths = []
    with monkeypatch.context() as patch:
        patch.setattr(ap, "np", _NumpyCountingFFT(lengths))
        analytic_unit(eps, grid=grid)
    return lengths


def test_analytic_unit_near_jensen_sizes():
    # the profile near Jensen's bound keeps eps 0.2 small (degree <= 4096,
    # l1 <= 1e5) and makes eps 0.15 feasible
    rep = analytic_unit(0.2, grid=CircleGrid(2 ** 14))
    assert rep.extras["degree"] <= 4096
    assert rep.extras["coeff_l1"] <= 1e5
    assert rep.extras["jensen_peak_log"] == pytest.approx(4 * math.log(5))
    assert rep.extras["jensen_peak_log"] < rep.extras["outer_peak_log"] \
        < rep.extras["sampled_peak_log"] < OUTER_PEAK_LOG_CAP
    rep = analytic_unit(0.15, grid=CircleGrid(2 ** 14))
    assert rep.all_passed()


@pytest.mark.parametrize("m", [2 ** 14, 2 * 8191, 4096])
def test_analytic_unit_certificate_from_coefficients(m):
    # |R - 1| recomputed from R's coefficients (an add.at fold and one
    # inverse FFT) satisfies the L0 definition at the reported L0, up to
    # the fold's rounding bar 1e-12 l1
    grid = CircleGrid(m)
    for eps in (0.15, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9):
        rep = analytic_unit(eps, grid=grid)
        r = rep.poly
        ks, cs = r.coeff_arrays()
        assert ks.min() >= 1
        folded = np.zeros(m, dtype=complex)
        np.add.at(folded, ks % m, np.where(ks % 2 == 1, -cs, cs))
        dev = np.abs(m * np.fft.ifft(folded) - 1.0)
        l0 = rep.measured["l0_R_minus_1"]["measured"]
        bar = 1e-12 * rep.extras["coeff_l1"]
        assert l0 < eps
        assert np.count_nonzero(dev > l0 + bar) / m < l0


def test_analytic_unit_work_grid_is_a_power_of_two(monkeypatch):
    # on 2*8191 G is built on the power-of-two grids of 2^14, so R is the
    # same polynomial, and no work grid overshoots 2^18; eps 0.15 refines
    # to 2^17, while eps 0.2 and 0.35 run every FFT at 2^14
    for eps, work in ((0.15, 2 ** 17), (0.2, 2 ** 14), (0.35, 2 ** 14)):
        r_engine = analytic_unit(eps, grid=CASCADE_GRID).poly
        r_pow2 = analytic_unit(eps, grid=CircleGrid(2 ** 14)).poly
        assert np.array_equal(r_engine._k, r_pow2._k)
        assert np.array_equal(r_engine._c, r_pow2._c)
        for grid in (CASCADE_GRID, CircleGrid(2 ** 14)):
            lengths = unit_fft_lengths(monkeypatch, eps, grid)
            assert all(n & (n - 1) == 0 for n in lengths)
            assert min(lengths) == 2 ** 14 and max(lengths) == work
    tracemalloc.start()
    try:
        analytic_unit(0.15, grid=CASCADE_GRID)
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


def test_korner_reports_a_tile_tail_it_could_not_reach():
    # K = 128 tiles asked for an l1 tail below 1.875e-4: _triangle_partial
    # stops at its cap 2^16 with the tail 1.979e-4, and the report says so;
    # at eps = delta = 0.25 the tile reaches its tolerance
    capped = korner_polynomial(0.05, 0.06, grid=CircleGrid(1024), strict=False)
    assert capped.extras["deg_tile"] == 2 ** 16
    assert "tile l1 accuracy capped at degree 65536 (rule wants tail < 0.000188)" \
        in capped.deviations
    rep = korner_polynomial(0.25, 0.25, grid=GRID, strict=False)
    assert not any("tile l1 accuracy" in d for d in rep.deviations)


def test_certificate_verdict_rule():
    assert certificate(0.1, 0.2) == {"measured": 0.1, "bound": 0.2, "pass": True}
    assert not certificate(0.2, 0.2)["pass"]
    # containment failing on one structural reason alone: nothing sampled
    chk = certificate(0, 0.5, checked=0, reasons=["carrier degree exceeds s"])
    assert chk == {"measured": 0.0, "bound": 0.5, "pass": False, "checked": 0,
                   "reasons": ["carrier degree exceeds s"]}
    assert certificate(0, 0.5, checked=96, reasons=[])["pass"]
    # a reported measurement passes; NaN never passes a bound
    assert certificate(3.0e6, None) == {"measured": 3.0e6, "bound": None, "pass": True}
    assert not certificate(math.nan, 0.5)["pass"]
    assert not certificate(math.nan, math.inf)["pass"]


def test_block_approximant_zero_target():
    rep = block_approximant(zero(CASCADE_GRID), 0.25, 0.25, s=100, a=3)
    assert isinstance(rep.poly, tp.TrigPoly) and len(rep.poly) == 0
    assert rep.all_passed()


def test_block_approximant_constant_target():
    f = const(CASCADE_GRID, 1.0)
    rep = block_approximant(f, 0.3, 0.3, s=150000, a=3, strict=False)
    assert rep.measured["approximates_f"]["pass"]
    assert rep.measured["spectrum_in_block"]["pass"]
    assert rep.measured["sstar_measure"]["pass"]
    assert rep.extras["min_orbit_fraction"] >= 0.4


def test_block_approximant_small_s_exact_rates_oracle():
    # s <= 10000 keeps exact integer rates so the membership oracle runs
    f = const(CircleGrid(2 * 509), 1.0)
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
    assert str(exc.value) == (
        "tiled-dip stage infeasible at payload budget s = 4000: payload "
        "budget 4000 below the minimal tiled-dip size")
    assert exc.value.diagnostics == {
        "step": "Q3", "inner": {"budget": 4000, "deg_tile": 16}}


def test_block_approximant_computes_each_exact_rate_once(monkeypatch):
    # the carrier terms, the outer rate and the 96-frequency oracle sample
    # share one rate table: each a(2s)^(k+s), some 28 KB at s = 8000, is
    # computed once per construction
    calls = []
    real = bl.scale_factor

    def counting(s, k, a):
        calls.append((s, k, a))
        return real(s, k, a)

    monkeypatch.setattr(bl, "scale_factor", counting)
    # approximants does not import it; a direct call there would count too
    monkeypatch.setattr(ap, "scale_factor", counting, raising=False)
    f = const(CircleGrid(2 * 509), 1.0)
    rep = block_approximant(f, 0.4, 0.4, s=8000, a=3, strict=False)
    assert rep.measured["spectrum_in_block"]["checked"] > 0
    assert (8000, 8002, 3) in calls
    assert len(calls) == len(set(calls)), sorted(calls)


def _ref_disjoint_prime_rates(count, payload_deg, carrier_spread):
    """The greedy prime walk as it stood before it jumped: every prime in
    turn, all its multiples built up front, one insort per multiple."""
    gap = 2 * carrier_spread + 2
    used = []
    rates = []
    cand = next(primes_from(max(2 * carrier_spread + 3,
                                2 * payload_deg * (carrier_spread + 2))))
    while len(rates) < count:
        ok = True
        mults = [k * cand for k in range(1, payload_deg + 1)]
        for v in mults:
            i = bisect.bisect_left(used, v)
            for j in (i - 1, i):
                if 0 <= j < len(used) and abs(used[j] - v) <= gap:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            rates.append(cand)
            for v in mults:
                bisect.insort(used, v)
        cand = next(primes_from(cand + 2))
    return rates


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 8), degree=st.integers(1, 60),
       spread=st.integers(0, 40))
def test_disjoint_prime_rates_match_the_greedy_oracle(count, degree, spread):
    assert ap.disjoint_prime_rates(count, degree, spread) == \
        _ref_disjoint_prime_rates(count, degree, spread)


def test_disjoint_prime_rates_on_the_tiled_dip_configurations():
    # (tiles, dip degree, 2 * tile degree) as `_budget_tiled_dip` asks for
    # them in the two-sided block jobs
    configs = ([(4, d, 42) for d in range(35, 46)] + [(4, 8, 42), (4, 9, 42)]
               + [(3, d, 32) for d in (8, 9, 10)])
    for c in configs:
        assert ap.disjoint_prime_rates(*c) == _ref_disjoint_prime_rates(*c), c


def test_disjoint_prime_rates_stop_at_the_candidate_cap(monkeypatch):
    # (4, 36, 42), the widest tiled dip of the two-sided block jobs, takes
    # 135 candidates: a cap of 135 keeps its rates, one fewer raises
    monkeypatch.setattr(ap, "RATE_WALK_CANDIDATES", 135)
    assert ap.disjoint_prime_rates(4, 36, 42) == _ref_disjoint_prime_rates(4, 36, 42)
    monkeypatch.setattr(ap, "RATE_WALK_CANDIDATES", 134)
    with pytest.raises(ConstructionInfeasible, match="RATE_WALK_CANDIDATES") as info:
        ap.disjoint_prime_rates(4, 36, 42)
    assert info.value.diagnostics["candidate_cap"] == 134
    assert info.value.diagnostics["rates_found"] < 4


def test_disjoint_prime_rates_refuse_multiples_past_int64():
    # the first candidate's 2^30-th multiple passes 2^62
    with pytest.raises(ConstructionInfeasible, match="2\\^62") as info:
        ap.disjoint_prime_rates(1, 2 ** 30, 1)
    assert info.value.diagnostics["rates_found"] == 0


def test_block_approximant_at_a_huge_budget_reaches_the_walk_cap(monkeypatch):
    # at s = 10^210 the tiled dip keeps payload degree 76726, where almost
    # every prime candidate clashes; with the cap at 50 both tile counts
    # give up at once, and the stage names the cap
    monkeypatch.setattr(ap, "RATE_WALK_CANDIDATES", 50)
    with pytest.raises(ConstructionInfeasible) as info:
        block_approximant(const(CircleGrid(2 * 8191), 1.0), 0.3, 0.3,
                          s=10 ** 210, a=3, strict=False)
    inner = info.value.diagnostics["inner"]
    assert inner["candidate_cap"] == 50
    assert inner["payload_deg"] == 76726
    # the message names the walk's cap, and s by its log10
    assert str(info.value) == (
        "tiled-dip stage infeasible at payload budget s = 10^210: found 1 of "
        "3 prime rates in RATE_WALK_CANDIDATES = 50 candidates with multiples "
        "below 2^62")


def test_structural_containment_rejects_another_block():
    # the s = 8000, a = 3 product checked against the block of a = 5
    f = const(CircleGrid(2 * 509), 1.0)
    poly = block_approximant(f, 0.4, 0.4, s=8000, a=3, strict=False).poly
    p1 = tp.TrigPoly({k: c for term in poly.p.terms
                      for k, c in term.carrier.iter_coeffs()})
    payload = poly.p.terms[0].payload
    chk = _structural_containment(poly, p1, payload, poly.q,
                                  bl.BlockRates(8000, 5), analytic=False)
    assert chk["measured"] > 0
    assert chk["pass"] is False
    assert chk["reasons"] == [
        f"{int(chk['measured'])} sampled frequencies outside the block"]


def _decodable_product(payload_size):
    """Q(R t) * P2 with one-frequency carriers and rates far apart, so that
    each frequency k_q R + c + k_v r names its (k_q, c, k_v)."""
    q = tp.TrigPoly({k: 1.0 for k in (-3, -1, 2, 5, 7)})
    payload = tp.TrigPoly({v: 1.0 for v in range(1, payload_size + 1)})
    terms = [BlockTerm(tp.TrigPoly({c: 1.0}), payload, 10 ** e)
             for c, e in ((-1, 6), (0, 9), (1, 12))]
    return ScaledProduct(q, 10 ** 18, BlockSum(terms))


def test_containment_samples_spread_over_the_structure():
    # the first 96 frequencies in export order share one k_q and one
    # carrier; the samples reach every k_q, every carrier and most k_v
    product = _decodable_product(100)
    samples = ap._sampled_frequencies(product, 96)
    assert len(samples) == 96
    triples = set()
    for k in samples:
        kq = (k + 10 ** 18 // 2) // 10 ** 18
        rem = k - kq * 10 ** 18
        e = max(e for e in (6, 9, 12) if rem >= 10 ** e // 2)  # its rate
        v = (rem + 10 ** e // 2) // 10 ** e
        triples.add((kq, rem - v * 10 ** e, v))
    assert {t[0] for t in triples} == {-3, -1, 2, 5, 7}
    assert {t[1] for t in triples} == {-1, 0, 1}
    assert {t[2] for t in triples} <= set(range(1, 101))
    assert len({t[2] for t in triples}) > 60
    assert len(triples) == 96
    # a product of at most 96 frequencies is checked whole
    small = _decodable_product(6)
    assert sorted(ap._sampled_frequencies(small, 96)) == \
        sorted(k for k, _ in oracle_iter_coeffs(small))


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


def test_analytic_korner_builds_one_sum_for_every_eps():
    # with the default unit_floor and k_cap the unit quality clamps to 0.2,
    # K to 41 and the tile accuracy to 1e-4 for every eps in (0, 1/2): both
    # eps certify the one kept sum, each with its own bounds and deviations
    grid = CircleGrid(1022)
    hi, lo = (analytic_korner(eps, grid=grid, strict=False) for eps in (0.45, 0.01))
    assert hi.poly is lo.poly
    assert len(hi.poly.terms) == 41
    # every term holds the one tile, term s shifted by 2 pi s / 41
    tile = hi.poly.terms[0].carrier
    assert all(t.carrier is tile for t in hi.poly.terms)
    assert [t.shift for t in hi.poly.terms] == [(s, 41) for s in range(1, 42)]
    assert hi.deviations != lo.deviations
    tol = 0.01 / (10 * 41 * lo.extras["g_l1"])
    assert lo.deviations[2].endswith(f"(rule wants tail < {tol:.3g})")
    for name in ("qhat_linf", "exceptional_measure", "close_to_one_on_E"):
        assert hi.measured[name]["bound"] == 0.45
        assert lo.measured[name]["bound"] == 0.01
    # each report's exceptional set is its own copy of the kept mask
    assert hi.exceptional_set is not lo.exceptional_set
    assert np.array_equal(hi.exceptional_set, lo.exceptional_set)
    kept = hi.exceptional_set.copy()
    lo.exceptional_set[:] = False
    assert np.array_equal(analytic_korner(0.3, grid=grid, strict=False).exceptional_set,
                          kept)


# sha256 of report.json's text for the Korner reports on the default grid
# and the engine grid: a change that claims to keep the reports' bytes
# must keep these
KORNER_REPORT_SHA256 = {
    ("korner", 2 ** 14): "ed7a8c52f4a219b40644f6529de93ccdfbfdd8d0d371dcc28e21e50070d910de",
    ("korner", 2 * 8191): "23a6b23caa8c6ee60f197a35a42a2c567390012837d8780435cab47668d36316",
    ("analytic_korner", 2 ** 14): "ac880ea95c73c74839339c8d60b3fa8f3a8debf64a301c1197f26269a0be1301",
    ("analytic_korner", 2 * 8191): "f4f1c2a20c60bda3b79dbd1b4c287c49c3fe9bb7060c53a2c931c31afa3d9245",
}


@pytest.mark.parametrize("kind, m", sorted(KORNER_REPORT_SHA256))
def test_korner_reports_keep_their_bytes(kind, m):
    grid = CircleGrid(m)
    rep = (korner_polynomial(0.25, 0.25, grid=grid, strict=False) if kind == "korner"
           else analytic_korner(0.3, grid=grid, strict=False))
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == KORNER_REPORT_SHA256[kind, m]


def _korner_arrays(rep, grid):
    """The bytes of a report's values, S** bound and exceptional set."""
    return [a.tobytes() for a in (rep.poly.values(grid), rep.poly.sstar_upper(grid),
                                  rep.exceptional_set)]


@pytest.mark.parametrize("m", [2 ** 14, 2 * 8191])
def test_analytic_korner_keeps_its_bytes_cold_warm_and_rebuilt(cold_korner, m):
    grid = CircleGrid(m)
    cold = analytic_korner(0.3, grid=grid, strict=False)
    cold_arrays = _korner_arrays(cold, grid)
    warm = analytic_korner(0.3, grid=grid, strict=False)
    assert warm.poly is cold.poly
    ap._korner_unit.cache_clear()
    ap._korner_build.cache_clear()
    rebuilt = analytic_korner(0.3, grid=grid, strict=False)
    assert rebuilt.poly is not cold.poly
    for rep in (cold, warm, rebuilt):
        digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
        assert digest == KORNER_REPORT_SHA256["analytic_korner", m]
        assert _korner_arrays(rep, grid) == cold_arrays


def test_analytic_korner_keys_its_builds(cold_korner):
    grid = CircleGrid(2 ** 14)
    base = analytic_korner(0.3, grid=grid, strict=False)
    tile, payload = base.poly.terms[0].carrier, base.poly.terms[0].payload
    others = {"grid": analytic_korner(0.3, grid=CircleGrid(1022), strict=False),
              "unit_floor": analytic_korner(0.3, grid=grid, unit_floor=0.25,
                                            strict=False),
              "k_cap": analytic_korner(0.3, grid=grid, k_cap=21, strict=False)}
    for name, rep in others.items():
        assert rep.poly is not base.poly, name
        assert rep.poly.terms[0].carrier is not tile, name
        # the unit is kept per (quality, grid size): k_cap alone reuses it
        assert (rep.poly.terms[0].payload is payload) == (name == "k_cap"), name
    assert len(others["k_cap"].poly.terms) == 21
    assert ap._korner_build.cache_info().misses == 4
    assert ap._korner_unit.cache_info().currsize == 3
    # the kept arrays are read-only
    _, _, q, bad = ap._korner_build(0.2, 41, 1e-4, grid.size)
    assert q is base.poly
    for a in (q.values(grid), q.sstar_upper(grid), bad,
              ap._korner_unit(0.2, grid.size).values):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[1]
    # an infeasible unit raises on every call and is never kept
    units = ap._korner_unit.cache_info()
    for _ in range(2):
        with pytest.raises(ConstructionInfeasible):
            analytic_korner(0.3, grid=grid, unit_floor=0.05, strict=False)
    after = ap._korner_unit.cache_info()
    assert after.misses == units.misses + 2
    assert after.currsize == units.currsize


@st.composite
def tile_configs(draw):
    """K odd tiles of 9-41, a grid among the stage and test sizes, a small
    one the windows cover, or one where every tile end is a grid point
    (K | M), K rates (ints up to 10^30 or lazy), unit values with points
    on the threshold circle, and the threshold."""
    count = 2 * draw(st.integers(4, 20)) + 1
    m = draw(st.one_of(st.sampled_from([2 * 8191, 2 ** 14, 4078, 14014]),
                       st.integers(4, 40).map(lambda h: 2 * h),
                       st.integers(1, 40).map(lambda c: 2 * count * c)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        rates = [int(x) for x in rng.integers(1, 10 ** 15, size=count)
                 * rng.integers(1, 10 ** 15, size=count).astype(object)]
    else:
        rates = [LazyRate(int(a), int(b), int(e)) for a, b, e in zip(
            rng.integers(1, 50, count), rng.integers(2, 50, count),
            rng.integers(0, 400, count))]
    threshold = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    g_vals = 1.0 + rng.exponential(threshold, m) * np.exp(2j * np.pi * rng.random(m))
    on = rng.random(m) < 0.2
    g_vals[on] = 1.0 + threshold * np.exp(2j * np.pi * rng.random(on.sum()))
    return g_vals, rates, CircleGrid(m), threshold


@settings(max_examples=80, deadline=None)
@given(tile_configs())
def test_windowed_exceptional_set_matches_full_grid_loop(config):
    assert np.array_equal(_pullback_bad_set(*config), ref_pullback_bad_set(*config))


def test_analytic_korner_keeps_one_tile_in_memory(cold_korner):
    # the 41 translates of the 8193-coefficient tile (5.4 MB) are never
    # kept: the build peaked at 12.56 MiB with them, and 7.62 MiB without
    tracemalloc.start()
    try:
        analytic_korner(0.3, grid=CASCADE_GRID, strict=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2 ** 20


def test_analytic_korner_transforms_its_unit_payload_twice(monkeypatch, cold_korner):
    # analytic_unit measures the payload's values on the grid and hands
    # them, with its l1 norm, to analytic_korner's exceptional set; the
    # block sum's one pass is the second transform
    transformed = []
    for name in ("_folded", "_values_direct"):
        def record(self, m, *rest, orig=getattr(tp.TrigPoly, name)):
            transformed.append((self, m))
            return orig(self, m, *rest)
        monkeypatch.setattr(tp.TrigPoly, name, record)
    rep = analytic_korner(0.3, grid=CASCADE_GRID, strict=False)
    monkeypatch.undo()
    payload = rep.poly.terms[0].payload
    assert all(t.payload is payload for t in rep.poly.terms)
    assert [m for p, m in transformed if p is payload] == [CASCADE_GRID.size] * 2
    # what the report hands over is what analytic_korner computed itself
    unit = analytic_unit(0.2, grid=CASCADE_GRID, strict=False)
    assert np.array_equal(unit.values,
                          unit.poly.values(CASCADE_GRID))
    assert unit.extras["coeff_l1"] == tp.coeff_norms(unit.poly).l1
    assert rep.extras["g_l1"] == unit.extras["coeff_l1"]


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
    assert rep.measured["l0_f_minus_P"]["measured"] == l0_of_abs(np.abs(f.values))
    assert 2 / 4096 <= l0_of_abs(np.abs(f.values)) < 3 / 4096
    rep = block_approximant(f, 0.3, 0.3, s=150000, a=3)
    assert len(rep.poly) == 0
    assert rep.measured["approximates_f"]["measured"] == 2 / 4096


def test_analytic_block_approximant_infeasible_nonzero():
    f = const(CASCADE_GRID, 1.0)
    with pytest.raises(ConstructionInfeasible):
        analytic_block_approximant(f, 0.25, s=150000, a=3)


def test_analytic_block_approximant_nonzero_path(monkeypatch):
    # eps 1.3 asks the one-sided unit step for quality 0.144 (the first
    # budget it meets is near 1.19, quality 0.132), and s must exceed the
    # analytic tiled stage's degree of about 2^563; at eps > 1 the L0
    # bound holds for any P
    units = []
    real = ap._unit_payload

    def recording(*args):
        units.append(real(*args))
        return units[-1]

    monkeypatch.setattr(ap, "_unit_payload", recording)
    f = const(CircleGrid(4096), 1.0)
    rep = analytic_block_approximant(f, 1.3, s=10 ** 210, a=3)
    # the unit's l1 is read from its report, bit for bit the norm of its
    # coefficients
    assert len(units) == 1
    assert units[0].extras["coeff_l1"] == tp.coeff_norms(units[0].poly).l1
    assert rep.failures() == []
    assert list(rep.measured) == ["l0_f_minus_P", "sn_measure", "analytic",
                                  "spectrum_in_block"]
    assert len(rep.deviations) == 5
    chk = rep.measured["spectrum_in_block"]
    assert chk["pass"] and chk["checked"] == 0  # lazy rates: no oracle sample
