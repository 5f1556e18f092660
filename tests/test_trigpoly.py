import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrig import trigpoly as tp
from sparsetrig.blockpoly import BlockSum, BlockTerm, _half, contracted_index_map
from sparsetrig.circle import CircleGrid
from sparsetrig.trigpoly import AliasingError, TrigPoly


def brute_convolve(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    out = {}
    for k1, c1 in p.coeffs.items():
        for k2, c2 in q.coeffs.items():
            out[k1 + k2] = out.get(k1 + k2, 0j) + c1 * c2
    return TrigPoly(out)


def random_poly(rng, deg, analytic=False, max_terms=8):
    # half-integer coefficients keep products exactly representable
    keys = rng.choice(np.arange(1 if analytic else -deg, deg + 1),
                      size=min(max_terms, deg + 1), replace=False)
    return TrigPoly({int(k): complex(rng.integers(-4, 5), rng.integers(-4, 5)) / 2
                     for k in keys if k != 0 or not analytic})


def test_evaluate_examples():
    g = CircleGrid(64)
    i0 = 32  # index of t = 0
    assert TrigPoly({1: 1}).values(g)[i0] == pytest.approx(1.0)
    cosv = TrigPoly({-1: 0.5, 1: 0.5}).values(g)
    assert np.allclose(cosv, np.cos(g.points), atol=1e-12)
    # P = {2:1, 4:1} at t = pi/2: e^{i pi} + e^{2 i pi} = 0
    v = TrigPoly({2: 1, 4: 1}).values(g)[i0 + 16]
    assert abs(v) < 1e-12


def test_evaluate_fft_matches_direct():
    g = CircleGrid(4096)
    rng = np.random.default_rng(0)
    coeffs = {int(k): complex(rng.normal(), rng.normal())
              for k in rng.choice(np.arange(-600, 601), 600, replace=False)}
    p = TrigPoly(coeffs)
    dense = p._values_fft(g.size)
    direct = np.zeros(g.size, dtype=complex)
    for k, c in coeffs.items():
        direct += c * np.exp(1j * k * g.points)
    l1 = sum(abs(c) for c in coeffs.values())
    assert np.max(np.abs(dense - direct)) < 1e-10 * l1


def test_alias_guard():
    g = CircleGrid(64)
    with pytest.raises(AliasingError):
        TrigPoly({20: 1}).values(g)
    # escape hatch: exact sampling allowed explicitly
    v = TrigPoly({20: 1}).values(g, allow_alias=True)
    assert abs(v[32] - 1.0) < 1e-12


def test_partial_sums():
    p = TrigPoly({-3: 1, 2: 1})
    assert tp.partial_sum(p, 3) == p
    assert tp.partial_sum(p, 2) == TrigPoly({2: 1})
    assert tp.partial_sum_rect(TrigPoly({1: 1, 5: 1}), 2, 6) == TrigPoly({5: 1})
    with pytest.raises(ValueError):
        tp.partial_sum_rect(p, 3, 1)


def test_s_star_examples():
    g = CircleGrid(64)
    v = tp.s_star(TrigPoly({1: 1}), g).values
    assert np.allclose(v.real, 1.0)
    # windows of {1:1, 2:-1} at t=0 give |1|, |-1|, |0| -> sup 1
    ss = tp.s_star_star(TrigPoly({1: 1, 2: -1}), g).values
    assert ss[32].real == pytest.approx(1.0)


def test_s_star_star_l1_bound():
    g = CircleGrid(512)
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = random_poly(rng, 20)
        l1 = tp.coeff_norms(p).l1
        ss = tp.s_star_star(p, g).values.real
        assert ss.max() <= l1 + 1e-9


def test_s_star_star_brute_oracle():
    # enumerate all windows directly on a tiny polynomial
    g = CircleGrid(128)
    p = TrigPoly({-2: 1 + 1j, 1: -2, 3: 0.5j})
    spec = p.spectrum()
    vals = {k: TrigPoly({k: p[k]}).values(g) for k in spec}
    best = np.zeros(g.size)
    for lo in range(-3, 4):
        for hi in range(lo, 4):
            w = sum((vals[k] for k in spec if lo <= k <= hi),
                    np.zeros(g.size, dtype=complex))
            best = np.maximum(best, np.abs(w))
    ss = tp.s_star_star(p, g).values.real
    assert np.allclose(ss, best, atol=1e-12)


# Reference: one np.exp over the grid per coefficient and the full
# (S+1) x M prefix matrix, as evaluation and the window sweeps computed
# them before the root-of-unity table and the streamed sweep.

def ref_values_direct(p: TrigPoly, m: int) -> np.ndarray:
    out = np.zeros(m, dtype=complex)
    j = np.arange(m)
    base = 2.0 * math.pi / m
    for k, c in p.coeffs.items():
        r = k % m
        sign = 1.0 if (k % 2 == 0) else -1.0
        out += (sign * c) * np.exp(1j * base * ((r * j) % m))
    return out


def ref_s_star(p: TrigPoly, m: int) -> np.ndarray:
    running = np.zeros(m, dtype=complex)
    best = np.zeros(m)
    levels = {}
    for k, c in p.coeffs.items():
        levels.setdefault(abs(k), []).append((k, c))
    for lev in sorted(levels):
        for k, c in levels[lev]:
            running += ref_values_direct(TrigPoly({k: c}), m)
        np.maximum(best, np.abs(running), out=best)
    return best


def ref_window_gap(rows, m: int) -> np.ndarray:
    prefixes = np.zeros((len(rows) + 1, m), dtype=complex)
    for i, row in enumerate(rows):
        prefixes[i + 1] = prefixes[i] + row
    best = np.zeros(m)
    for i in range(len(rows)):
        np.maximum(best, np.abs(prefixes[i + 1:] - prefixes[i]).max(axis=0), out=best)
    return best


def random_support_poly(rng, size, deg):
    keys = rng.choice(np.arange(-deg, deg + 1), size, replace=False)
    return TrigPoly({int(k): complex(rng.normal(), rng.normal())
                     * 10.0 ** int(rng.integers(-3, 4)) for k in keys})


# 16382 and 16384 sit on either side of numpy's 256 KiB temporary elision
@pytest.mark.parametrize("m", [1022, 16382, 16384, 32768])
def test_table_evaluation_and_streamed_sweeps_bit_identical(m):
    g = CircleGrid(m)
    rng = np.random.default_rng(m)
    p = random_support_poly(rng, 96, m // 5)
    assert len(p) <= tp.DENSE_EVAL_THRESHOLD
    assert np.array_equal(p.values(g), ref_values_direct(p, m))
    huge = TrigPoly({2 ** 70 * k + k: c
                     for k, c in random_support_poly(rng, 40, 1000).coeffs.items()})
    assert np.array_equal(huge.values(g, allow_alias=True), ref_values_direct(huge, m))

    q = random_support_poly(rng, 24, m // 5)
    assert np.array_equal(tp.s_star(q, g).values, ref_s_star(q, m).astype(complex))
    rows = [ref_values_direct(TrigPoly({k: q[k]}), m) for k in q.spectrum()]
    assert np.array_equal(tp.s_star_star(q, g).values,
                          ref_window_gap(rows, m).astype(complex))

    def poly(ks):
        return TrigPoly({k: complex(rng.normal(), rng.normal()) for k in ks})
    w = BlockSum([BlockTerm(poly(range(-5, 6)), poly([-4, -3, -2, -1, 1, 2, 3, 4]), 11),
                  BlockTerm(poly(range(-3, 4)), poly([-2, -1, 1, 2]), 101)],
                 layout="segments")
    lower, upper = w.sstar_star_bracket(g)
    segs = w._segment_values(g)
    for row, seg in zip(segs, w._segments):
        t = w.terms[seg["term"]]
        cv = t.carrier.values(g, allow_alias=True)
        half = _half(t.payload, seg["sign"]).values(g, allow_alias=True)
        # one expression outside the assert (which names its temporaries),
        # so numpy evaluates it in place on the indexed temporary once rows
        # reach 256 KiB, as the segment values do
        expected = cv * half[contracted_index_map(t.rate, g)]
        assert np.array_equal(row, expected)
    dmid = ref_window_gap(segs, m)
    top1, top2 = np.zeros(m), np.zeros(m)
    for c in w._cut_bounds(g):
        swap = c > top1
        top2 = np.where(swap, top1, np.maximum(top2, np.minimum(c, top1)))
        top1 = np.where(swap, c, top1)
    assert np.array_equal(lower, dmid)
    assert np.array_equal(upper, dmid + top1 + top2)


@pytest.mark.parametrize("m", [2 ** 13, 2 ** 15])
def test_s_star_star_memory_does_not_grow_with_grid(m):
    p = random_support_poly(np.random.default_rng(5), 64, m // 5)
    g = CircleGrid(m)
    tracemalloc.start()
    try:
        tp.s_star_star(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full prefix matrix peaked at 24 and 96 MiB here
    assert peak < 8 * 2 ** 20


def test_coeffs_is_read_only_view():
    p = TrigPoly({1: 2.0})
    with pytest.raises(TypeError):
        p.coeffs[1] = 3.0
    assert dict(p.coeffs) == {1: 2 + 0j}


def test_contract_translate():
    assert tp.contract(TrigPoly({1: 1}), 3) == TrigPoly({3: 1})
    p = TrigPoly({-1: 2, 2: 5})
    assert tp.contract(p, 1) == p
    assert tp.contract(p, 4) == TrigPoly({-4: 2, 8: 5})
    assert tp.translate(p, 0.0) == p
    q = tp.translate(TrigPoly({1: 1}), math.pi)
    assert q[1] == pytest.approx(-1.0)
    twice = tp.translate(tp.translate(p, math.pi / 2), math.pi / 2)
    once = tp.translate(p, math.pi)
    for k in p.coeffs:
        assert twice[k] == pytest.approx(once[k])


def test_multiply():
    p = TrigPoly({-1: 1, 1: 1})
    assert tp.multiply(p, TrigPoly({0: 1})) == p
    assert tp.multiply(TrigPoly({1: 1}), TrigPoly({2: 1})) == TrigPoly({3: 1})
    assert tp.multiply(p, p) == TrigPoly({-2: 1, 0: 2, 2: 1})


def test_multiply_commutative_associative():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b, c = (random_poly(rng, 10) for _ in range(3))
        assert tp.multiply(a, b) == tp.multiply(b, a)
        assert tp.multiply(tp.multiply(a, b), c) == tp.multiply(a, tp.multiply(b, c))
        assert tp.multiply(a, b) == brute_convolve(a, b)


def test_contract_multiplicative():
    rng = np.random.default_rng(17)
    for r in (2, 5):
        a, b = random_poly(rng, 8), random_poly(rng, 8)
        assert tp.contract(tp.multiply(a, b), r) == \
            tp.multiply(tp.contract(a, r), tp.contract(b, r))


def test_follows():
    assert tp.follows(TrigPoly({5: 1}), TrigPoly({-3: 1}))
    assert not tp.follows(TrigPoly({3: 1}), TrigPoly({-3: 1}))
    assert tp.follows(TrigPoly({-10: 1, 12: 1}), TrigPoly({9: 1}))


def test_special_product_preconditions():
    p = TrigPoly({-1: 1, 1: 1})
    with pytest.raises(ValueError):
        tp.special_product(p, TrigPoly({1: 1}), 2)  # r <= 2 deg P
    with pytest.raises(ValueError):
        tp.special_product(p, TrigPoly({0: 1, 1: 1}), 5)  # Q^(0) != 0


def test_special_product_example():
    p = TrigPoly({-1: 1, 1: 1})
    q = TrigPoly({1: 1})
    h = tp.special_product(p, q, 3)
    assert h == TrigPoly({2: 1, 4: 1})
    # one-sided window at n = 3 = 1*3 + 0
    lhs = tp.partial_sum_rect(h, 0, 3)
    rhs = tp.special_product_window(p, q, 3, 3)
    assert lhs == rhs == TrigPoly({2: 1})


def _check_window_identity(p, q, r):
    h = tp.special_product(p, q, r)
    deg = h.degree()
    for n in range(0, deg + 1):
        lhs = tp.partial_sum_rect(h, 0, n)
        rhs = tp.special_product_window(p, q, r, n)
        diff = lhs - rhs
        assert tp.coeff_norms(diff).l1 < 1e-10, (n, r)
    for n in range(-deg, 1):
        lhs = tp.partial_sum_rect(h, n, 0)
        rhs = tp.special_product_window(p, q, r, n)
        diff = lhs - rhs
        assert tp.coeff_norms(diff).l1 < 1e-10, (n, r)


def test_special_product_window_identity_randomized():
    rng = np.random.default_rng(101)
    for _ in range(12):
        p = random_poly(rng, 6)
        q = random_poly(rng, 6)
        q = TrigPoly({k: c for k, c in q.coeffs.items() if k != 0})
        if not len(p) or not len(q):
            continue
        r = 2 * p.degree() + 1 + int(rng.integers(0, 4))
        _check_window_identity(p, q, r)


def test_special_product_spectrum_shape():
    rng = np.random.default_rng(23)
    p = random_poly(rng, 5)
    q = TrigPoly({k: c for k, c in random_poly(rng, 7).coeffs.items() if k != 0})
    r = 2 * p.degree() + 3
    h = tp.special_product(p, q, r)
    for k in h.spectrum():
        s = round(k / r)
        assert q[s] != 0 and abs(k - s * r) <= p.degree()


def test_sstarstar_of_special_product_bound():
    g = CircleGrid(1024)
    p = TrigPoly({-1: 0.5, 0: 1, 1: 0.5})
    q = TrigPoly({-2: 0.25, -1: 0.5, 1: 0.5, 2: 0.25})
    h = tp.special_product(p, q, 5)
    bound = tp.coeff_norms(p).l1 * tp.coeff_norms(q).l1
    ss = tp.s_star_star(h, g).values.real
    assert ss.max() <= bound + 1e-9


def test_coeff_norms():
    p = TrigPoly({1: 3, 2: 4})
    n = tp.coeff_norms(p, [2])
    assert n.l1 == 7 and n.linf == 4 and n.lp[2] == pytest.approx(5.0)
    single = tp.coeff_norms(TrigPoly({1: 1}), [2, 3])
    assert single.l1 == single.linf == single.lp[2] == single.lp[3] == 1.0


def test_coeff_norm_product_law():
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = random_poly(rng, 6)
        q = TrigPoly({k: c for k, c in random_poly(rng, 6).coeffs.items() if k != 0})
        if not len(p) or not len(q):
            continue
        r = 2 * p.degree() + 1
        h = tp.special_product(p, q, r)
        for pw in (2.0, 3.0, 4.0):
            lhs = tp.coeff_norms(h, [pw]).lp[pw]
            rhs = tp.coeff_norms(p, [pw]).lp[pw] * tp.coeff_norms(q, [pw]).lp[pw]
            assert lhs == pytest.approx(rhs, rel=1e-12)


# Reference: the dict-backed storage the arrays replaced, frozen as the
# bit-identity oracle for the constructor, the FFT fold, the norms and
# translate.

class DictPoly:
    def __init__(self, items):
        d = {}
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
        self.coeffs = d

    def values(self, m: int) -> np.ndarray:
        if len(self.coeffs) <= tp.DENSE_EVAL_THRESHOLD:
            return ref_values_direct(self, m)
        folded = np.zeros(m, dtype=complex)
        for k, c in self.coeffs.items():
            folded[k % m] += c if (k % 2 == 0) else -c
        return m * np.fft.ifft(folded)

    def norms(self, ps):
        a = np.array([abs(c) for c in self.coeffs.values()]) if self.coeffs \
            else np.zeros(1)
        return (float(a.max(initial=0.0)), float(a.sum()),
                {q: float(np.power(np.power(a, q).sum(), 1.0 / q)) for q in ps})

    def translate(self, shift: float) -> "DictPoly":
        return DictPoly((k, c * cmath.exp(1j * k * shift))
                        for k, c in self.coeffs.items())


def bits(items):
    """(k, re, im) with the floats spelled exactly, signed zeros included."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in items]


def assert_same_storage(p: TrigPoly, ref: DictPoly):
    assert bits(p.coeffs.items()) == bits(ref.coeffs.items())
    assert p.spectrum() == tuple(sorted(ref.coeffs))
    assert bits(p.iter_coeffs()) == bits(sorted(ref.coeffs.items()))
    assert p.degree() == max(map(abs, ref.coeffs), default=0)
    assert p.min_abs_freq() == min(map(abs, ref.coeffs), default=0)
    assert p.is_analytic() == all(k > 0 for k in ref.coeffs)
    n = tp.coeff_norms(p, [2.0, 3.0])
    assert (n.linf, n.l1, n.lp) == ref.norms([2.0, 3.0])


coefs = st.builds(complex, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
small_freqs = st.integers(-3000, 3000)
huge_freqs = st.one_of(st.integers(-2 ** 70, -2 ** 62), st.integers(2 ** 62, 2 ** 70))


@st.composite
def poly_items(draw, freqs):
    """Constructor input with duplicates and one frequency that cancels to
    zero and comes back."""
    pairs = draw(st.lists(st.tuples(freqs, coefs), max_size=40))
    k = draw(freqs.filter(lambda k: all(k != kk for kk, _ in pairs)))
    c, c2 = draw(coefs), draw(coefs)
    i, j = sorted(draw(st.integers(0, len(pairs))) for _ in range(2))
    return pairs[:i] + [(k, c)] + pairs[i:j] + [(k, -c)] + pairs[j:] + [(k, c2)]


@settings(max_examples=150, deadline=None)
@given(poly_items(st.one_of(small_freqs, small_freqs, huge_freqs)),
       st.floats(-10.0, 10.0), coefs, st.integers(-2 ** 63, 2 ** 63),
       st.sampled_from([1022, 4096, 16382]))
def test_array_storage_bit_identical_to_dict(items, shift, c, n, m):
    p, ref = TrigPoly(items), DictPoly(items)
    assert_same_storage(p, ref)
    assert np.array_equal(p.values(CircleGrid(m), allow_alias=True), ref.values(m))
    # complex coefficients times complex phases: the FMA trap
    assert_same_storage(tp.translate(p, shift), ref.translate(shift))
    assert bits(p.scale(c).coeffs.items()) == \
        bits((k, v * c) for k, v in ref.coeffs.items() if v * c != 0)
    assert p.shift_freq(n).spectrum() == tuple(sorted(k + n for k in ref.coeffs))
    q = TrigPoly(items[::-1])
    total = dict(ref.coeffs)
    for k, v in DictPoly(items[::-1]).coeffs.items():
        s = total.get(k, 0j) + v
        if s == 0:
            total.pop(k, None)
        else:
            total[k] = s
    assert bits((p + q).coeffs.items()) == bits(total.items())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(tp.DENSE_EVAL_THRESHOLD + 2, 3000),
       st.sampled_from([1022, 4096, 16382]), st.booleans())
def test_dense_fold_bit_identical_to_dict(seed, size, m, huge):
    # degrees up to 3M, so residues collide in the fold
    rng = np.random.default_rng(seed)
    ks = rng.choice(np.arange(-3 * m, 3 * m), size, replace=False).tolist()
    if huge:
        ks[::7] = [k * 2 ** 64 + 1 for k in ks[::7]]
    cs = (rng.normal(size=size) + 1j * rng.normal(size=size)).tolist()
    items = list(zip(ks, cs)) + [(ks[0], -cs[0]), (ks[1], 2.5 - 1j)]
    p, ref = TrigPoly(items), DictPoly(items)
    assert len(p) > tp.DENSE_EVAL_THRESHOLD
    assert_same_storage(p, ref)
    assert np.array_equal(p.values(CircleGrid(m), allow_alias=True), ref.values(m))
    lo, hi = sorted(rng.integers(-3 * m, 3 * m, 2).tolist())
    assert bits(tp.partial_sum_rect(p, lo, hi).coeffs.items()) == \
        bits((k, v) for k, v in ref.coeffs.items() if lo <= k <= hi)
    assert bits(tp.partial_sum(p, hi - lo).coeffs.items()) == \
        bits((k, v) for k, v in ref.coeffs.items() if abs(k) <= hi - lo)


def test_blocksum_evaluates_shared_payload_once(monkeypatch):
    carriers = [TrigPoly({-1: 0.5, 0: 1.0, 1: 0.5}),
                TrigPoly({k: 1.0 + 0.5j * k for k in range(-2, 3)})]
    payload = TrigPoly({-2: 0.5, -1: 1.0, 1: 1.0, 2: 0.5})
    w = BlockSum([BlockTerm(c, payload, r) for c, r in zip(carriers, (11, 101))])
    g = CircleGrid(256)
    expected = sum(c.values(g) * payload.values(g, allow_alias=True)[
        g.contracted_indices(r % g.size, r % 2 == 1)] for c, r in zip(carriers, (11, 101)))
    calls = []
    values = TrigPoly.values

    def counting(self, grid, allow_alias=False):
        calls.append(len(self))
        return values(self, grid, allow_alias)
    monkeypatch.setattr(TrigPoly, "values", counting)
    assert np.array_equal(w.values(g), expected)
    assert calls.count(len(payload)) == 1
    calls.clear()
    w.sstar_star_bracket(g)
    # the two payload halves (2 coefficients each) once; the carriers
    # once for the segment values and once for the cut bounds
    assert calls.count(2) == 2 and calls.count(3) == 2 and calls.count(5) == 2
