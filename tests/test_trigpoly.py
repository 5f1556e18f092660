import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsetrig import trigpoly as tp
from sparsetrig.blockpoly import (WIDTH_BRACKET_ROWS, BlockSum, BlockTerm, _half,
                                  contracted_index_map)
from sparsetrig.circle import CircleGrid
from sparsetrig.trigpoly import AliasingError, TrigPoly
from window_oracle import ref_values_direct, ref_window_gap


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


def fft_values(p: TrigPoly, m: int) -> np.ndarray:
    """p's values on m points by one inverse FFT of its folded coefficients."""
    return m * np.fft.ifft(p._folded(m))


def test_evaluate_fft_matches_direct():
    g = CircleGrid(4096)
    rng = np.random.default_rng(0)
    coeffs = {int(k): complex(rng.normal(), rng.normal())
              for k in rng.choice(np.arange(-600, 601), 600, replace=False)}
    p = TrigPoly(coeffs)
    dense = fft_values(p, g.size)
    direct = np.zeros(g.size, dtype=complex)
    for k, c in coeffs.items():
        direct += c * np.exp(1j * k * g.points)
    l1 = sum(abs(c) for c in coeffs.values())
    assert np.max(np.abs(dense - direct)) < 1e-10 * l1


def test_alias_guard():
    # 64 <= 4 * 20: the partial-sum maxima refuse the grid, while the
    # values are exact at its points
    g = CircleGrid(64)
    p = TrigPoly({20: 1})
    for sup in (tp.s_star, tp.s_star_star):
        with pytest.raises(AliasingError):
            sup(p, g)
    assert np.allclose(p.values(g), np.exp(20j * g.points), rtol=0, atol=1e-12)


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
# them before the root-of-unity table and the streamed sweep
# (`ref_values_direct` and `ref_window_gap` live in window_oracle.py).

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
    assert np.array_equal(p._values_direct(m), ref_values_direct(p, m))
    huge = TrigPoly({2 ** 70 * k + k: c
                     for k, c in random_support_poly(rng, 40, 1000).coeffs.items()})
    assert np.array_equal(huge._values_direct(m), ref_values_direct(huge, m))

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
    assert_exact_bracket(w, g)
    # one row below the width bracket's threshold: seven two-sided terms
    # and one analytic one, each rate five times the last, so the segments
    # stay disjoint
    rates = [11 * 5 ** i for i in range(8)]
    w = BlockSum([BlockTerm(poly(range(-2, 3)), poly([1, 2] if r == rates[-1] else
                                                      [-2, -1, 1, 2]), r)
                  for r in rates], layout="segments")
    assert len(w._segments) == WIDTH_BRACKET_ROWS - 1
    assert_exact_bracket(w, g)


def assert_exact_bracket(w, g):
    """A bracket below WIDTH_BRACKET_ROWS rows is bit-identical to the
    exact window maximum plus the two largest cut bounds."""
    lower, upper = w.sstar_star_bracket(g)
    # segment rows (carrier times contracted payload half, in segment order)
    # and each segment's bound |C| l1(half) + linf(H) l1(C) on a cut inside
    # it, from their definitions
    segs, cuts = [], []
    for seg in w._segments:
        t = w.terms[seg["term"]]
        cv = t.carrier.values(g)
        half = _half(t.payload, seg["sign"])
        hv = half.values(g)
        # one expression outside the assert (which names its temporaries),
        # so numpy evaluates it in place on the indexed temporary once rows
        # reach 256 KiB, as the bracket does
        row = cv * hv[contracted_index_map(t.rate, g)]
        segs.append(row)
        cuts.append(np.abs(cv) * tp.coeff_norms(half).l1
                    + tp.coeff_norms(t.payload).linf * tp.coeff_norms(t.carrier).l1)
    dmid = ref_window_gap(segs, g.size)
    two_largest = np.sort(cuts, axis=0)[-2:]
    assert np.array_equal(lower, dmid)
    assert np.array_equal(upper, dmid + two_largest[1] + two_largest[0])


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


def test_translate_shares_frequencies_and_keeps_every_coefficient():
    # no rotation rounds a nonzero coefficient to 0, down to the smallest
    # subnormal ones: each translate shares p's frequency array and equals
    # the dict form, which would drop a zero product
    tiny = 5e-324
    cs = [complex(a * tiny, b * tiny) for a in range(-4, 5) for b in range(-4, 5)
          if a or b]
    p = TrigPoly({**{k: c for k, c in enumerate(cs, start=1)}, -3: 2.0, 99: 0.5 - 1j})
    for shift in np.linspace(-7.0, 7.0, 501):
        q = tp.translate(p, shift)
        assert q._k is p._k
        assert q == TrigPoly({k: c * cmath.exp(1j * k * shift) for k, c in p.coeffs.items()})
        assert len(q) == len(p)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 300))
def test_cached_norms_equal_fresh_ones(seed, size):
    rng = np.random.default_rng(seed)
    p = TrigPoly({int(k): complex(*rng.normal(size=2)) * 10.0 ** rng.integers(-300, 300)
                  for k in rng.integers(-10 ** 6, 10 ** 6, size=size)})
    for q in (p, p.scale(0.5j), tp.partial_sum(p, 5000), tp.contract(p, 3)):
        kept = tp.coeff_norms(q)
        assert tp.coeff_norms(q) is kept
        fresh = tp.CoeffNorms(q)
        assert (kept.linf.hex(), kept.l1.hex()) == (fresh.linf.hex(), fresh.l1.hex())
        assert (q.coeff_l1(), q.coeff_linf()) == (kept.l1, kept.linf)
        assert kept.lp == {}


def test_norm_requests_with_ps_are_not_kept():
    p = TrigPoly({1: 3, 2: 4})
    first = tp.coeff_norms(p, [2])
    assert tp.coeff_norms(p, [2]) is not first
    # the plain norms are neither taken from nor left as a p-norm request
    plain = tp.coeff_norms(p)
    assert plain is not first and plain.lp == {}
    assert tp.coeff_norms(p, (3,)).lp == {3: pytest.approx(91 ** (1 / 3))}
    assert tp.coeff_norms(p) is plain


def test_kept_norms_cannot_be_changed_through_lp():
    p = TrigPoly({1: 3, 2: 4})
    for n in (tp.coeff_norms(p), tp.coeff_norms(p, [2])):
        with pytest.raises(TypeError):
            n.lp[2] = 1.0
    assert tp.coeff_norms(p).lp == {}


def test_roots_table_is_read_only_and_kept_for_two_sizes():
    table = tp._roots(64)
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0
    assert tp._roots(64) is table
    assert np.array_equal(table, np.exp(1j * (2.0 * math.pi / 64) * np.arange(64)))
    tp._roots(128)
    assert tp._roots(64) is table
    tp._roots(128)
    tp._roots(256)
    assert tp._roots(64) is not table


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


def fft_smooth(m: int) -> bool:
    """No prime factor of m above 7, by trial division."""
    return all(d <= 7 for d in range(2, m + 1)
               if m % d == 0 and all(d % e for e in range(2, math.isqrt(d) + 1)))


def takes_fft(size: int, m: int) -> bool:
    """The evaluation path rule: the FFT fold on 7-smooth grids and above
    the threshold, the direct sum otherwise."""
    return size > tp.DENSE_EVAL_THRESHOLD or fft_smooth(m)


# Reference: the dict-backed storage the arrays replaced, frozen as the
# bit-identity oracle for the constructor, the FFT fold, the norms and
# translate; `values` takes the path `takes_fft` names.

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
        if not takes_fft(len(self.coeffs), m):
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
    assert np.array_equal(p._values_direct(m), ref_values_direct(ref, m))
    assert np.array_equal(p.values(CircleGrid(m)), ref.values(m))
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
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1022, 4096, 16382]), st.booleans(),
       st.data())
def test_dense_fold_bit_identical_to_dict(seed, m, huge, data):
    # supports the FFT path takes, with degrees up to 3M, so residues
    # collide in the fold
    size = data.draw(st.integers(2 if fft_smooth(m) else tp.DENSE_EVAL_THRESHOLD + 2, 3000))
    rng = np.random.default_rng(seed)
    ks = rng.choice(np.arange(-3 * m, 3 * m), size, replace=False).tolist()
    if huge:
        ks[::7] = [k * 2 ** 64 + 1 for k in ks[::7]]
    cs = (rng.normal(size=size) + 1j * rng.normal(size=size)).tolist()
    items = list(zip(ks, cs)) + [(ks[0], -cs[0]), (ks[1], 2.5 - 1j)]
    p, ref = TrigPoly(items), DictPoly(items)
    assert takes_fft(len(p), m)
    assert_same_storage(p, ref)
    assert np.array_equal(p.values(CircleGrid(m)), ref.values(m))
    lo, hi = sorted(rng.integers(-3 * m, 3 * m, 2).tolist())
    assert bits(tp.partial_sum_rect(p, lo, hi).coeffs.items()) == \
        bits((k, v) for k, v in ref.coeffs.items() if lo <= k <= hi)
    assert bits(tp.partial_sum(p, hi - lo).coeffs.items()) == \
        bits((k, v) for k, v in ref.coeffs.items() if abs(k) <= hi - lo)


@pytest.mark.parametrize("m, size, fft", [
    (2 ** 14, 1, True), (4096, tp.DENSE_EVAL_THRESHOLD, True), (2 * 3 * 5 * 7 * 4, 1, True),
    (2 * 8191, 1, False), (2 * 8191, tp.DENSE_EVAL_THRESHOLD, False),
    (2 * 8191, tp.DENSE_EVAL_THRESHOLD + 1, True), (2 * 509, 2, False),
    (2 * 509, 600, True), (11 * 2 ** 8, 3, False)])
def test_evaluation_path_choice(monkeypatch, m, size, fft):
    assert takes_fft(size, m) == fft
    taken = []
    for name in ("_folded", "_values_direct"):
        def record(self, n, *rest, orig=getattr(TrigPoly, name), name=name):
            taken.append(name)
            return orig(self, n, *rest)
        monkeypatch.setattr(TrigPoly, name, record)
    p = TrigPoly({k: 1.0 + 0.5j * k for k in range(1, size + 1)})
    assert p.values(CircleGrid(m)).shape == (m,)
    assert taken == ["_folded" if fft else "_values_direct"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.one_of(small_freqs, small_freqs, huge_freqs), coefs),
                min_size=1, max_size=60),
       st.sampled_from([1022, 4096, 2 * 8191, 2 ** 14]))
@example(items=[(0, 5e-324j)], m=1022)
def test_fft_and_direct_paths_agree(items, m):
    p = TrigPoly(items)
    l1 = tp.coeff_norms(p).l1
    gap = np.abs(fft_values(p, m) - p._values_direct(m)).max(initial=0.0)
    # relative rounding plus the rounding model's underflow term: the FFT
    # divides by M first, so a subnormal coefficient can flush to 0 (the
    # example above reads a gap of 5e-324 against 1e-12 * l1 = 0)
    assert gap <= 1e-12 * l1 + m * 2.0 ** -1074
    assert np.array_equal(p.values(CircleGrid(m)),
                          fft_values(p, m) if takes_fft(len(p), m) else p._values_direct(m))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.tuples(st.one_of(small_freqs, small_freqs, huge_freqs), coefs),
                         max_size=60), max_size=8),
       st.sampled_from([1022, 4096, 2 * 8191, 2 ** 14]))
def test_values_rows_match_values(polys, m):
    # rows filled and transformed as a block sum's batch is: supports on
    # both sides of the threshold, so a grid with a large prime factor
    # mixes batched FFT rows with direct and empty ones
    polys = [TrigPoly(items) for items in polys]
    g = CircleGrid(m)
    out = np.empty((len(polys), m), dtype=complex)
    tp._ifft_runs(out, [tp._fill_row(p, g, row) for p, row in zip(polys, out)])
    for row, p in zip(out, polys):
        assert row.tobytes() == p.values(g).tobytes()


def test_blocksum_evaluates_shared_payload_once(monkeypatch):
    carriers = [TrigPoly({-1: 0.5, 0: 1.0, 1: 0.5}),
                TrigPoly({k: 1.0 + 0.5j * k for k in range(-2, 3)})]
    payload = TrigPoly({-2: 0.5, -1: 1.0, 1: 1.0, 2: 0.5})
    transformed = []
    for name in ("_folded", "_values_direct"):
        def record(self, n, *rest, orig=getattr(TrigPoly, name)):
            transformed.append(self)
            return orig(self, n, *rest)
        monkeypatch.setattr(TrigPoly, name, record)
    # 256 takes the FFT path for every part, 254 = 2 * 127 the direct sum
    for m in (256, 254):
        w = BlockSum([BlockTerm(c, payload, r) for c, r in zip(carriers, (11, 101))])
        g = CircleGrid(m)
        expected = sum(c.values(g) * payload.values(g)[
            g.contracted_indices(r % g.size)]
            for c, r in zip(carriers, (11, 101)))
        transformed.clear()
        assert np.array_equal(w.values(g), expected)
        w.sstar_star_bracket(g)
        assert np.array_equal(w.values(g), expected)
        # across the three calls: each carrier, the shared payload and its
        # two halves, once each
        ids = [id(p) for p in transformed]
        assert ids.count(id(payload)) == 1
        assert all(ids.count(id(c)) == 1 for c in carriers)
        assert sorted(len(p) for p in transformed) == [2, 2, 3, 4, 5]
