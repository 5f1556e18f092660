import math
import tracemalloc

import numpy as np
import pytest

from sparsetrig import trigpoly as tp
from sparsetrig.blockpoly import BlockSum, BlockTerm
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
    dmid = ref_window_gap(w._segment_values(g), m)
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


def test_csv_roundtrip(tmp_path):
    p = TrigPoly({-(10 ** 30): 1.5 + 2j, 3: -1.0})
    path = tmp_path / "p.csv"
    p.to_csv(path)
    assert tp.from_csv(path) == p
