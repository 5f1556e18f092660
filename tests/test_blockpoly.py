import json
import math
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksum_oracle import ref_bracket, ref_segment_rows, ref_values
from coeff_oracle import bits, oracle_iter_coeffs
from structure_loader import load_structure
from tile_oracle import ref_contracted_indices
from window_oracle import ref_s_star_star, ref_width_bracket, ref_window_gap
from sparsetrig import blockpoly, cli
from sparsetrig import trigpoly as tp
from sparsetrig.approximants import analytic_korner, korner_polynomial
from sparsetrig.blockpoly import (WIDTH_BLOCK_COLUMNS, WIDTH_BRACKET_ROWS,
                                  WIDTH_DIRECTIONS, WIDTH_MARGIN,
                                  WIDTH_UNDERFLOW, BlockSum,
                                  BlockTerm, Freq, LazyRate, ScaledProduct,
                                  WidthBracket, contracted_index_map,
                                  orbit_fraction)
from sparsetrig.circle import CircleGrid
from sparsetrig.engines import _Modulated, run_asymptotic_l2_engine
from sparsetrig.targets import cosk
from sparsetrig.trigpoly import TrigPoly


def materialize(x) -> TrigPoly:
    return TrigPoly(dict(x.iter_coeffs()))


def small_blocksum():
    carrier1 = TrigPoly({-1: 0.5, 0: 1.0, 1: 0.5})
    carrier2 = TrigPoly({-1: 0.25j, 1: -0.25j})
    payload = TrigPoly({-2: 0.5, -1: 1.0, 1: 1.0, 2: 0.5})
    return BlockSum([BlockTerm(carrier1, payload, 11),
                     BlockTerm(carrier2, payload, 101)], layout="segments")


def test_values_match_materialized():
    grid = CircleGrid(2048)
    w = small_blocksum()
    mat = materialize(w)
    assert np.allclose(w.values(grid), mat.values(grid), atol=1e-10)


def test_coeff_stats_match():
    w = small_blocksum()
    mat = materialize(w)
    norms = tp.coeff_norms(mat)
    assert w.coeff_l1() == pytest.approx(norms.l1)
    assert w.coeff_linf() == pytest.approx(norms.linf)
    assert w.coeff_zero() == 0
    assert w.degree() == mat.degree()
    assert w.spectrum_size() == len(mat)


def test_bracket_contains_truth():
    grid = CircleGrid(2048)
    w = small_blocksum()
    mat = materialize(w)
    truth = ref_s_star_star(mat, grid.size)
    lower, upper = w.sstar_star_bracket(grid)
    assert np.all(lower <= truth + 1e-9)
    assert np.all(truth <= upper + 1e-9)


WIDTH_COS = math.cos(math.pi / (2 * WIDTH_DIRECTIONS))


def width_bracket(rows, neg=()):
    """`WidthBracket` bounds of positive-half `rows` and negative-half
    `neg`, each side added in one batch."""
    bracket = WidthBracket(rows.shape[1])
    bracket.add(rows, neg)
    return bracket.bounds()


@settings(max_examples=80, deadline=None)
@given(st.integers(WIDTH_BRACKET_ROWS, 100), st.integers(1, 40),
       st.sampled_from(["complex", "real", "collinear", "zero", "repeated", "ties"]),
       # scales 1e-323..1e-305 reach subnormal values
       st.one_of(st.integers(-300, 300), st.integers(-323, -305)),
       st.one_of(st.just(0), st.integers(0, 100)),
       st.integers(0, 2 ** 32 - 1))
def test_width_bracket_encloses_window_maximum(count, m, kind, scale, neg, seed):
    # the first `neg` rows are negative halves, in reverse term order
    neg %= count + 1
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(count, m)) + 1j * rng.normal(size=(count, m))
    if kind == "real":
        rows = rows.real + 0j
    elif kind == "collinear":
        # along one of the directions pi d / D, where the widest width
        # meets the diameter, or half way between two of them
        rows = rows.real * np.exp(1j * math.pi * rng.integers(2 * WIDTH_DIRECTIONS)
                                  / (2 * WIDTH_DIRECTIONS))
    elif kind == "zero":
        rows[:] = 0
    elif kind == "repeated":
        rows[:] = rows[0]
    elif kind == "ties":
        # zero rows, and rows repeated out of order, so prefixes coincide
        rows = rows[rng.integers(count // 4 + 1, size=count)]
        rows[rng.random(count) < 0.3] = 0
    rows = rows * 10.0 ** scale
    exact = ref_window_gap(list(rows), m)
    lower, upper = width_bracket(rows[neg:], rows[:neg][::-1])
    assert np.all(lower <= exact)
    assert np.all(exact <= upper)
    # the points the bracket projects: the prefix sums, P_0 = 0 included,
    # less the negative-half total P_neg
    prefixes = np.vstack([np.zeros(m), np.cumsum(rows, axis=0)])
    radius = np.abs(prefixes - prefixes[neg]).max(axis=0)
    margin = WIDTH_MARGIN / WIDTH_COS * radius + WIDTH_UNDERFLOW
    assert np.all(upper <= exact / WIDTH_COS + 2 * margin)


@settings(max_examples=60, deadline=None)
@given(st.integers(16, 130),
       st.one_of(st.integers(1, 3 * WIDTH_BLOCK_COLUMNS + 7),
                 st.sampled_from([WIDTH_BLOCK_COLUMNS - 1, WIDTH_BLOCK_COLUMNS + 1,
                                  2 * 8191, 1022])),
       st.sampled_from(["normal", "zero", "subnormal", "mixed"]),
       st.one_of(st.just(0), st.integers(0, 130)),
       st.integers(0, 2 ** 32 - 1))
@example(20, WIDTH_BLOCK_COLUMNS + 1, "zero", 0, 4)  # a last block of one column
@example(16, 964, "normal", 0, 0)  # a last oracle chunk of one column
@example(64, 2 ** 14, "normal", 32, 0)  # two-sided, as in a Korner sum
def test_width_bracket_matches_chunked_oracle(count, m, kind, neg, seed):
    # the row-streamed blocks give the bits of whole prefix chunks; the
    # first `neg` rows are negative halves, in reverse term order
    neg %= count + 1
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(count, m)) + 1j * rng.normal(size=(count, m))
    if kind == "zero":
        rows[rng.random(count) < 0.5] = 0
    elif kind == "subnormal":
        rows *= 2.0 ** -1060
    elif kind == "mixed":
        # zero, subnormal and signed-zero rows between normal ones
        pick = rng.integers(4, size=count)
        rows[pick == 0] = 0
        rows[pick == 1] *= 2.0 ** -1065
        rows[pick == 2] = -0.0 - 0.0j
    lower, upper = width_bracket(rows[neg:], rows[:neg][::-1])
    ref_lower, ref_upper = ref_width_bracket(rows[neg:], rows[:neg][::-1])
    # where the chunks left the last column alone, the oracle projected it
    # through BLAS's matrix-vector kernel, which may round it differently
    alone = m > 1 and m % max(1, 2 ** 14 // (count + 1)) == 1
    same = slice(0, m - 1 if alone else m)
    assert np.array_equal(lower[same], ref_lower[same])
    assert np.array_equal(upper[same], ref_upper[same])
    if alone:
        radius = 2 * np.abs(np.cumsum(rows[:, -1])).max()
        for a, b in ((lower, ref_lower), (upper, ref_upper)):
            assert abs(a[-1] - b[-1]) <= 4 * np.finfo(float).eps * radius


@settings(max_examples=40, deadline=None)
@given(st.integers(16, 130),
       st.one_of(st.integers(1, 3 * WIDTH_BLOCK_COLUMNS + 7),
                 st.sampled_from([WIDTH_BLOCK_COLUMNS - 1, WIDTH_BLOCK_COLUMNS + 1,
                                  2 * 8191, 1022])),
       st.sampled_from(["normal", "zero", "subnormal", "mixed"]),
       st.sampled_from(["ones", "random", "whole"]),
       st.one_of(st.just(0), st.integers(0, 130)),
       st.integers(0, 2 ** 32 - 1))
@example(20, WIDTH_BLOCK_COLUMNS + 1, "mixed", "ones", 0, 4)  # a last block of one column
@example(41, 2 * 8191, "normal", "random", 0, 0)
@example(64, 2 ** 14, "normal", "random", 32, 0)
def test_streamed_width_bracket_matches_one_shot(count, m, kind, split, neg, seed):
    # rows fed a batch at a time, the two sides' batches interleaved, give
    # the bits of one batch of each side; the first `neg` rows are
    # negative halves in reverse term order, so the terms run backwards
    # through them
    neg %= count + 1
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(count, m)) + 1j * rng.normal(size=(count, m))
    if kind == "zero":
        rows[rng.random(count) < 0.5] = 0
    elif kind == "subnormal":
        rows *= 2.0 ** -1060
    elif kind == "mixed":
        # zero, subnormal and signed-zero rows between normal ones
        pick = rng.integers(4, size=count)
        rows[pick == 0] = 0
        rows[pick == 1] *= 2.0 ** -1065
        rows[pick == 2] = -0.0 - 0.0j
    if split == "ones":
        cuts = range(1, count)
    elif split == "random":
        cuts = sorted(rng.choice(np.arange(1, count), int(rng.integers(1, count)),
                                 replace=False))
    else:
        cuts = []
    streamed = WidthBracket(m)
    terms = np.split(np.arange(count), cuts)
    for batch in terms:
        streamed.add(rows[batch[batch >= neg]], rows[neg - 1 - batch[batch < neg]])
    lower, upper = streamed.bounds()
    ref_lower, ref_upper = width_bracket(rows[neg:], rows[:neg][::-1])
    assert np.array_equal(lower, ref_lower)
    assert np.array_equal(upper, ref_upper)


def test_width_bracket_temporaries_do_not_grow_with_rows():
    # the bracket holds its extremes, its two prefixes, its two results
    # and one block's temporaries, whatever the row count
    m = 2 ** 14
    peaks = []
    for count in (16, 128):
        rows = np.ones((count, m), dtype=complex)
        tracemalloc.start()
        try:
            width_bracket(rows[count // 2:], rows[:count // 2])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    extremes = 2 * m * WIDTH_DIRECTIONS * 8
    prefixes_and_results = 2 * m * 16 + 2 * m * 8
    # four arrays of one value per column and direction, and a few of one
    # value per column
    block = WIDTH_BLOCK_COLUMNS * (4 * WIDTH_DIRECTIONS * 8 + 6 * 8)
    assert peaks[1] <= peaks[0] + 4096
    assert peaks[1] <= extremes + prefixes_and_results + block


def test_bracket_contains_truth_on_width_path():
    # eight two-sided terms give sixteen segment rows, the width
    # threshold; materialized, the sum has 160 coefficients
    rng = np.random.default_rng(7)

    def poly(ks):
        return TrigPoly({k: complex(rng.normal(), rng.normal()) for k in ks})
    w = BlockSum([BlockTerm(poly(range(-2, 3)), poly([-2, -1, 1, 2]), 11 * 5 ** i)
                  for i in range(8)], layout="segments")
    assert len(w._segments) == WIDTH_BRACKET_ROWS
    grid = CircleGrid(1022)
    truth = ref_s_star_star(materialize(w), grid.size)
    lower, upper = w.sstar_star_bracket(grid)
    assert np.all(lower <= truth)
    assert np.all(truth <= upper)


def bracket_peak(q, grid):
    """The tracemalloc peak of the bracket of a fresh copy of q (q's own
    evaluation is kept), and the peak of `values` after it."""
    fresh = BlockSum(q.terms, q.layout)
    tracemalloc.start()
    try:
        fresh.sstar_star_bracket(grid)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        fresh.values(grid)
        return peak, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_bracket_memory_holds_batches_not_rows():
    # 41 tiles of one 2048-coefficient unit approximant: their rows stream
    # into the width bracket one batch at a time, and the pass peaks at
    # 7.1 MB, below the 10.7 MB the 41 segment rows alone would take
    grid = CircleGrid(2 * 8191)
    q = analytic_korner(0.3, grid=grid, strict=False).poly
    assert len(q.terms) == 41
    peak, values_peak = bracket_peak(q, grid)
    assert peak < 7.2e6
    # values after the bracket come from the same pass: no M-point array
    assert values_peak < grid.size * 8
    # two-sided tiles stream too, their negative halves through a second
    # batch: 9.3 MB at 64 segment rows on 2^14 and 11.4 MB at 256, whose
    # 131073-coefficient carriers fold for 3.3 MB (the 64 rows alone take
    # 16.8 MB, the 256 rows 67.1 MB)
    grid = CircleGrid(2 ** 14)
    for eps, delta, rows in ((0.21, 0.22, 64), (0.05, 0.06, 256)):
        q = korner_polynomial(eps, delta, grid=grid, strict=False).poly
        assert len(q._segments) == rows
        peak, values_peak = bracket_peak(q, grid)
        assert peak < 12e6
        assert values_peak < grid.size * 8


@st.composite
def block_sums(draw):
    """A BlockSum of 1-17 terms: carriers of support 1-60 within [-30, 30],
    one-sided or two-sided payloads of degree <= 6, shared by every term or
    one per term, and rates 61 B^i with B = 9, so segments and sub-blocks
    are disjoint in either layout.  Terms may be drawn out of rate order;
    the sum keeps them sorted."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(1, 17))
    kinds = draw(st.lists(st.sampled_from(["analytic", "twosided"]),
                          min_size=count, max_size=count))

    def poly(ks):
        return TrigPoly({int(k): complex(rng.normal(), rng.normal()) for k in ks})

    def payload(kind):
        ks = np.arange(1, 7) if kind == "analytic" else np.r_[-6:0, 1:7]
        return poly(rng.choice(ks, int(rng.integers(1, ks.size + 1)), replace=False))
    shared = payload(kinds[0]) if draw(st.booleans()) else None
    terms = [BlockTerm(poly(rng.choice(np.arange(-30, 31), size, replace=False)),
                       shared or payload(kind), 61 * 9 ** i)
             for i, (size, kind) in enumerate(zip(
                 draw(st.lists(st.integers(1, 60), min_size=count, max_size=count)),
                 kinds))]
    if draw(st.booleans()):
        terms = [terms[i] for i in rng.permutation(count)]
    return BlockSum(terms, layout=draw(st.sampled_from(["segments", "subblocks"])))


def rising_block_sum(count=20, two_sided=False):
    """`count` terms at rising rates 61 * 9^i with one-sided payloads of
    three frequencies in [1, 6], or two-sided ones of three a side: from
    16 segments on, their rows stream into the width bracket."""
    rng = np.random.default_rng(29)

    def poly(ks):
        return TrigPoly({int(k): complex(rng.normal(), rng.normal()) for k in ks})

    def payload():
        ks = rng.choice(np.arange(1, 7), 3, replace=False)
        return poly(np.r_[-ks, ks] if two_sided else ks)
    return BlockSum([BlockTerm(poly(rng.choice(np.arange(-30, 31), size, replace=False)),
                               payload(), 61 * 9 ** i)
                     for i, size in enumerate(rng.integers(1, 61, count))])


# 2^14 points make 256 KiB rows, where numpy's temporary elision applies;
# 2*8191 points have a large prime factor, so carriers of support <= 18
# take the direct sum
@settings(max_examples=60, deadline=None)
@given(block_sums(), st.sampled_from([2 ** 14, 2 * 8191, 1022]))
@example(rising_block_sum(), 2 ** 14)
@example(rising_block_sum(), 2 * 8191)
@example(rising_block_sum(), 1022)
@example(rising_block_sum(two_sided=True), 2 ** 14)
@example(rising_block_sum(two_sided=True), 2 * 8191)
def test_one_pass_bit_identical_to_two(w, m):
    grid = CircleGrid(m)
    values = w.values(grid)
    assert np.array_equal(values, ref_values(w, grid))
    if w.layout == "segments":
        lower, upper = w.sstar_star_bracket(grid)
        ref_lower, ref_upper = ref_bracket(w, grid)
        assert np.array_equal(lower, ref_lower)
        assert np.array_equal(upper, ref_upper)
    assert w.values(grid) is values


@st.composite
def shifted_block_sums(draw):
    """(shifted, translated): a BlockSum of 1-20 terms that all hold one
    tile, term i with a shift (s_i, K), and the same sum built from
    `trigpoly.translate`'s carriers.  The tile has support 1-60 within
    [-30, 30] (so on a grid with a large prime factor a small one takes
    the direct sum), K is 1-41 and s_i any of -K..2K; payloads of degree
    <= 6 are one-sided or two-sided, shared or one per term, at rates
    61 * 9^i, in either layout."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(1, 20))
    k = draw(st.integers(1, 41))
    shifts = draw(st.lists(st.integers(-k, 2 * k), min_size=count, max_size=count))
    two_sided = draw(st.booleans())

    def poly(ks):
        return TrigPoly({int(f): complex(rng.normal(), rng.normal()) for f in ks})

    def payload():
        ks = rng.choice(np.arange(1, 7), int(rng.integers(1, 7)), replace=False)
        return poly(np.r_[-ks, ks] if two_sided else ks)
    tile = poly(rng.choice(np.arange(-30, 31), draw(st.integers(1, 60)), replace=False))
    shared = payload() if draw(st.booleans()) else None
    parts = [(shared or payload(), 61 * 9 ** i, s) for i, s in enumerate(shifts)]
    layout = draw(st.sampled_from(["segments", "subblocks"]))
    return (BlockSum([BlockTerm(tile, h, r, shift=(s, k)) for h, r, s in parts], layout),
            BlockSum([BlockTerm(tp.translate(tile, 2.0 * math.pi * s / k), h, r)
                      for h, r, s in parts], layout))


# 2*509 points have a large prime factor, as 2*8191 do, at a size where
# 20 two-sided terms evaluate quickly
@settings(max_examples=60, deadline=None)
@given(shifted_block_sums(), st.sampled_from([2 ** 14, 2 * 8191, 2 * 509]))
def test_shifted_terms_match_translated_carriers(sums, m):
    # a tile held with shifts evaluates, brackets and lists its
    # coefficients bit for bit as the sum of its materialized translates;
    # its cut bounds take the tile's l1, which a translate's own may pass
    # in the last bits, so the upper bracket is the oracle's
    shifted, translated = sums
    grid = CircleGrid(m)
    assert shifted.values(grid).tobytes() == translated.values(grid).tobytes()
    if shifted.layout == "segments":
        lower, upper = shifted.sstar_star_bracket(grid)
        assert lower.tobytes() == translated.sstar_star_bracket(grid)[0].tobytes()
        assert upper.tobytes() == ref_bracket(shifted, grid)[1].tobytes()
    (ks, cs), (ref_ks, ref_cs) = shifted.coeff_arrays(), translated.coeff_arrays()
    assert np.array_equal(ks, ref_ks) and ks.dtype == ref_ks.dtype
    assert cs.tobytes() == ref_cs.tobytes()


def test_shifted_carrier_needs_int64_frequencies():
    with pytest.raises(ValueError, match="below 2\\^62"):
        BlockTerm(TrigPoly({2 ** 62: 1.0}), TrigPoly({1: 1.0}), 3, shift=(1, 4))


@st.composite
def two_sided_block_sums(draw):
    """A segments-layout BlockSum of 16-70 segments, at least one term
    two-sided: one- and two-sided payloads of degree <= 6 interleave at
    rates 61 * 9^i, on carriers of support 1-60 within [-30, 30]."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    two = draw(st.integers(1, 35))
    one = draw(st.integers(max(0, 16 - 2 * two), 70 - 2 * two))
    kinds = rng.permutation([True] * two + [False] * one)

    def poly(ks):
        return TrigPoly({int(k): complex(rng.normal(), rng.normal()) for k in ks})

    def payload(two_sided):
        ks = rng.choice(np.arange(1, 7), int(rng.integers(1, 7)), replace=False)
        if not two_sided:
            return poly(ks)
        neg = rng.choice(np.arange(1, 7), int(rng.integers(1, 7)), replace=False)
        return poly(np.r_[-neg, ks])
    return BlockSum([BlockTerm(poly(rng.choice(np.arange(-30, 31),
                                               int(rng.integers(1, 61)), replace=False)),
                               payload(kind), 61 * 9 ** i)
                     for i, kind in enumerate(kinds)])


@settings(max_examples=25, deadline=None)
@given(two_sided_block_sums(), st.sampled_from([2 ** 14, 2 * 8191, 1022]))
def test_two_sided_stream_encloses_the_exact_sweep(w, m):
    # the bracket of the rows folded in term order, a side at a time,
    # holds the exact sweep over the rows in segment order
    grid = CircleGrid(m)
    rows, cuts = ref_segment_rows(w, grid)
    assert WIDTH_BRACKET_ROWS <= len(rows) <= 70
    exact = ref_window_gap(list(rows), m)
    two_largest = np.sort(cuts, axis=0)[-2:]
    lower, upper = w.sstar_star_bracket(grid)
    assert np.all(lower <= exact)
    assert np.all(exact + two_largest[1] + two_largest[0] <= upper)


def test_no_layout_builds_a_row_matrix(monkeypatch):
    # one-sided and two-sided rows reach the width bracket a batch at a
    # time, and the exact sweep is never run from 16 rows on
    added, swept = [], []
    add = WidthBracket.add

    def counting_add(self, rows, neg=()):
        added.append((len(rows), len(neg)))
        add(self, rows, neg)
    monkeypatch.setattr(WidthBracket, "add", counting_add)
    monkeypatch.setattr(blockpoly, "max_window_gap",
                        lambda *a: swept.append(a) or tp.max_window_gap(*a))
    grid = CircleGrid(2 ** 14)
    batch = blockpoly.EVAL_BATCH_CELLS // grid.size
    for w in (rising_block_sum(), rising_block_sum(two_sided=True)):
        added.clear()
        lower, upper = w.sstar_star_bracket(grid)
        assert swept == []
        assert max(max(sides) for sides in added) <= batch
        assert sum(map(sum, added)) == len(w._segments) >= 2 * batch
        # the same terms given in reverse come out in rate order, with the
        # same bracket bits
        reverse = BlockSum(w.terms[::-1])
        assert all(a is b for a, b in zip(reverse.terms, w.terms))
        reverse_lower, reverse_upper = reverse.sstar_star_bracket(grid)
        assert np.array_equal(reverse_lower, lower)
        assert np.array_equal(reverse_upper, upper)


def test_segments_out_of_rate_order_rejected():
    # disjoint segments, but the positive half of the faster term lies
    # below the slower term's: the width bracket's term order would not be
    # the segment order
    carrier = TrigPoly({0: 1.0})
    with pytest.raises(ValueError, match="rate order"):
        BlockSum([BlockTerm(carrier, TrigPoly({5: 1.0}), 10),
                  BlockTerm(carrier, TrigPoly({1: 1.0}), 20)])
    # so are negative halves that do not fall with the rate
    with pytest.raises(ValueError, match="rate order"):
        BlockSum([BlockTerm(carrier, TrigPoly({-5: 1.0, 1: 1.0}), 10),
                  BlockTerm(carrier, TrigPoly({-1: 1.0, 5: 1.0}), 20)])
    # the same halves in rate order are accepted
    BlockSum([BlockTerm(carrier, TrigPoly({-1: 1.0, 1: 1.0}), 10),
              BlockTerm(carrier, TrigPoly({-5: 1.0, 5: 1.0}), 20)])


def test_scaled_product_transforms_inner_once(monkeypatch):
    transformed, _ = _count_transforms(monkeypatch)
    w = small_blocksum()
    p = TrigPoly({-1: 0.5, 1: 0.5j})
    sp = ScaledProduct(w, 4 * w.degree() + 1, p)
    for m in (2048, 1022):
        grid = CircleGrid(m)
        expected = (w.values(grid)[contracted_index_map(sp.rate, grid)]
                    * p.values(grid))
        transformed.clear()
        assert np.array_equal(sp.values(grid), expected)
        sp.sstar_upper(grid)
        assert sp.inner_values(grid) is sp.inner_values(grid)
        assert not sp.inner_values(grid).flags.writeable
        assert [g for q, g in transformed if q is p] == [m]


def test_evaluations_are_read_only():
    grid = CircleGrid(2048)
    w = small_blocksum()
    for a in (w.values(grid), *w.sstar_star_bracket(grid)):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            a += 1
    # products and sums of the kept arrays are the caller's own
    sp = ScaledProduct(w, 4 * w.degree() + 1, TrigPoly({-1: 0.5, 1: 0.5}))
    assert sp.values(grid).flags.writeable


def _count_transforms(monkeypatch):
    """Record every TrigPoly transform as (polynomial, M), and every carrier
    of every BlockSum built; both lists keep their objects alive, so no id
    is reused."""
    transformed, carriers = [], []
    for name in ("_folded", "_values_direct"):
        def record(self, m, *rest, orig=getattr(tp.TrigPoly, name)):
            transformed.append((self, m))
            return orig(self, m, *rest)
        monkeypatch.setattr(tp.TrigPoly, name, record)
    init = BlockSum.__init__

    def collect(self, terms, layout="segments"):
        init(self, terms, layout)
        carriers.extend(t.carrier for t in self.terms)
    monkeypatch.setattr(BlockSum, "__init__", collect)
    return transformed, carriers


def test_analytic_stage_transforms_fejer_polynomial_twice(monkeypatch):
    # once in fejer_until's own check, once kept by the stage's product for
    # its values, its window bound and the stage's mask
    transformed, _ = _count_transforms(monkeypatch)
    grid = CircleGrid(2 * 8191)
    run = run_asymptotic_l2_engine(cosk(grid, 1), 1)
    g_n = run.stages[0].poly.p
    assert [m for q, m in transformed if q is g_n] == [grid.size] * 2


def test_asymptotic_runs_share_one_korner_sum(monkeypatch, cold_korner):
    # analytic_korner keeps its build per grid size, so a second run on the
    # grid certifies the first run's sum instead of building its own
    built = []
    init = BlockSum.__init__

    def collect(self, terms, layout="segments"):
        init(self, terms, layout)
        built.append(self)
    monkeypatch.setattr(BlockSum, "__init__", collect)
    grid = CircleGrid(2 * 8191)
    runs = [run_asymptotic_l2_engine(cosk(grid, 1), 1) for _ in range(2)]
    assert len(built) == 1
    assert all(run.stages[0].poly.q is built[0] for run in runs)
    assert runs[0].to_json() == runs[1].to_json()


@pytest.mark.parametrize("job", [
    ("approximate", {"kind": "korner", "eps": 0.25, "delta": 0.25}),
    ("approximate", {"kind": "analytic_korner", "eps": 0.3}),
    ("represent", {"engine": "squares", "target": "const", "stages": 1}),
    ("represent", {"engine": "asymptotic_l2", "target": "cosk",
                   "target_params": {"k": 1}, "stages": 1})],
    ids=["korner", "analytic_korner", "squares_stage", "asymptotic_stage"])
def test_no_carrier_is_transformed_twice(monkeypatch, tmp_path, job, cold_korner):
    # each carrier, and each translate of a shared tile, is transformed
    # once per grid: the translates share their tile's frequency array, so
    # an array is transformed at most as often as terms hold it
    transformed, carriers = _count_transforms(monkeypatch)
    command, cfg = job
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert carriers
    counts = Counter((id(p._k), m) for p, m in transformed)
    holders = Counter(id(c._k) for c in carriers)
    assert any(k in holders for k, _ in counts)
    assert all(n <= holders[k] for (k, _), n in counts.items() if k in holders)


def test_segment_overlap_rejected():
    carrier = TrigPoly({-3: 1, 3: 1})
    payload = TrigPoly({-1: 1, 1: 1})
    with pytest.raises(ValueError):
        BlockSum([BlockTerm(carrier, payload, 7),
                  BlockTerm(carrier, payload, 9)], layout="segments")


def test_subblocks_layout():
    carrier = TrigPoly({0: 1.0})
    payload = TrigPoly({-1: 1, 1: 1})
    w = BlockSum([BlockTerm(carrier, payload, 10),
                  BlockTerm(carrier, payload, 17)], layout="subblocks")
    grid = CircleGrid(512)
    mat = materialize(w)
    assert np.allclose(w.values(grid), mat.values(grid))
    assert np.all(w.sstar_upper(grid) >= ref_s_star_star(mat, grid.size) - 1e-9)
    with pytest.raises(ValueError):
        w.sstar_star_bracket(grid)


def test_scaled_product_matches():
    grid = CircleGrid(4096)
    q = TrigPoly({-2: 0.25, -1: 0.5, 1: 0.5, 2: 0.25})
    p = TrigPoly({-1: 1.0, 0: 2.0, 1: 1.0})
    sp = ScaledProduct(q, 37, p)
    mat = tp.multiply(tp.contract(q, 37), p)
    assert np.allclose(sp.values(grid), mat.values(grid), atol=1e-10)
    assert sp.coeff_l1() == pytest.approx(tp.coeff_norms(mat).l1)
    truth = ref_s_star_star(mat, grid.size)
    assert np.all(truth <= sp.sstar_upper(grid) + 1e-9)
    assert sp.spectrum_size() == len(mat)


def test_scaled_product_preconditions():
    q = TrigPoly({1: 1.0})
    p = TrigPoly({-3: 1.0, 3: 1.0})
    with pytest.raises(ValueError):
        ScaledProduct(q, 6, p)  # rate <= 2 deg p
    with pytest.raises(ValueError):
        ScaledProduct(TrigPoly({0: 1.0, 1: 1.0}), 100, p)  # mean not zero


def _check_contraction(rate):
    for m in (8, 4078, 14014, 2 * 8191, 2 ** 14):
        grid = CircleGrid(m)
        sigma = contracted_index_map(rate, grid)
        assert np.array_equal(sigma, ref_contracted_indices(rate, m))
        j = np.arange(m)[::3]
        assert np.array_equal(contracted_index_map(rate, grid, j), sigma[::3])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10 ** 30))
def test_contraction_formula_matches_parity_form_ints(rate):
    _check_contraction(rate)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(2, 60), st.integers(0, 500))
def test_contraction_formula_matches_parity_form_lazy(mult, base, exp):
    _check_contraction(LazyRate(mult, base, exp))


def test_lazy_rate_mod_parity_log():
    r = LazyRate(3, 10, 50)  # 3 * 10^50
    exact = 3 * 10 ** 50
    for m in (7, 64, 16382):
        assert r % m == exact % m
    # parity is a residue like any other
    assert r % 2 == 0
    assert LazyRate(3, 3, 7) % 2 == 1
    assert r.log2 == pytest.approx(math.log2(exact))
    assert LazyRate(15, 10, 50) % 97 == (5 * exact) % 97


def test_contracted_index_map_lazy_vs_exact():
    grid = CircleGrid(64)
    exact = 3 * 7 ** 5
    lazy = LazyRate(3, 7, 5)
    assert np.array_equal(contracted_index_map(exact, grid),
                          contracted_index_map(lazy, grid))
    # exactness of the angle identification
    idx = contracted_index_map(exact, grid)
    assert np.allclose(np.cos(grid.points[idx]), np.cos(exact * grid.points),
                       atol=1e-9)


def test_lazy_blocksum_values():
    grid = CircleGrid(2 * 127)
    carrier = TrigPoly({0: 2.0})
    payload = TrigPoly({-1: 0.5, 1: 0.5})  # cos(rate t)
    lazy = BlockSum([BlockTerm(carrier, payload, LazyRate(1, 3, 40))],
                    layout="segments")
    exact = 3 ** 40
    # exact reference: reduce the angle with integer arithmetic (float
    # products of 3^40 * t cannot resolve mod 2 pi)
    m = grid.size
    base = ((1 - exact) * (m // 2)) % m
    idx = (base + (exact % m) * np.arange(m)) % m
    expect = 2.0 * np.cos(grid.points[idx])
    assert np.allclose(lazy.values(grid).real, expect, atol=1e-9)
    assert lazy.lazy and isinstance(lazy.degree(), Freq)
    assert lazy.min_abs_freq().log2 > 0
    # small-rate sanity against plain float evaluation
    small = BlockSum([BlockTerm(carrier, payload, 243)], layout="segments")
    assert np.allclose(small.values(grid).real,
                       2.0 * np.cos(243.0 * grid.points), atol=1e-9)


def test_orbit_fraction():
    grid = CircleGrid(64)
    assert orbit_fraction(9, grid) == 1.0
    assert orbit_fraction(32, grid) == pytest.approx(1 / 32)
    assert orbit_fraction(LazyRate(1, 2, 100), grid) == pytest.approx(1 / 64)


def test_freq_ordering():
    a = Freq.of(-(10 ** 40))
    b = Freq.of(-5)
    c = Freq.of(0)
    d = Freq.of(7)
    e = Freq(1, 1e9)  # astronomically large positive
    assert a < b < c < d < e
    assert abs(a) > abs(b)
    assert Freq.of(128) < Freq.of(256)
    assert not Freq.of(128) < Freq.of(128)


def reference(x) -> TrigPoly:
    """Independent materialization through the exact TrigPoly algebra."""
    if isinstance(x, TrigPoly):
        return x
    if isinstance(x, BlockSum):
        out = TrigPoly()
        for t in x.terms:
            out = out + tp.multiply(tp.contract(t.payload, t.rate), t.carrier)
        return out
    if isinstance(x, ScaledProduct):
        return tp.multiply(tp.contract(reference(x.q), x.rate), reference(x.p))
    inner = reference(x.inner)  # _Modulated with an exact integer nu
    if x.kind == "exp":
        return inner.shift_freq(x.nu)
    return inner.shift_freq(x.nu).scale(0.5) + inner.shift_freq(-x.nu).scale(0.5)


def analytic_product():
    return ScaledProduct(TrigPoly({1: 0.5, 2: 0.25j}), 37,
                         TrigPoly({-1: 1.0, 0: 2.0, 1: 1.0}))


PROTOCOL_CASES = {
    "trigpoly": lambda: TrigPoly({-3: 0.5, 0: 1.0, 2: 0.25j, 5: -1.0}),
    "blocksum": small_blocksum,
    "scaled_trigpoly": analytic_product,
    "scaled_blocksum": lambda: ScaledProduct(
        BlockSum([BlockTerm(TrigPoly({0: 1.0}), TrigPoly({-1: 1.0, 1: 1.0}), 3)]),
        409, small_blocksum()),
    "modulated_cos": lambda: _Modulated(301, analytic_product(), "cos"),
    "modulated_exp": lambda: _Modulated(301, analytic_product(), "exp"),
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
def test_polynomial_protocol_conformance(name):
    grid = CircleGrid(8192)
    x = PROTOCOL_CASES[name]()
    mat = reference(x)
    assert np.allclose(x.values(grid), mat.values(grid), atol=1e-10)
    assert x.coeff_l1() == pytest.approx(tp.coeff_norms(mat).l1)
    assert x.spectrum_size() == len(mat)
    assert x.is_analytic() == mat.is_analytic()
    # degree and min |k| are reported in log space, where the lazy types
    # neglect the inner degree against the rate: within one binary order
    assert x.degree_log2() == pytest.approx(math.log2(mat.degree()), abs=1.0)
    # ... and they are certified: the degree from above, min |k| from below,
    # also where a block sum's rates are lazy
    for y in (x, lazy_twin_of(x)):
        assert y.degree_log2() >= math.log2(mat.degree())
        assert Freq.of(y.min_abs_freq()) <= Freq.of(mat.min_abs_freq())
    truth = ref_s_star_star(mat, grid.size)
    assert np.all(truth <= x.sstar_upper(grid) + 1e-9)
    if isinstance(x, _Modulated):
        return  # modulated stages only promise min |k| >= nu / 2
    assert Freq.of(x.min_abs_freq()).log2 == pytest.approx(
        Freq.of(mat.min_abs_freq()).log2, abs=1.0)
    assert not x.lazy
    assert x.coeff_zero() == mat[0]
    assert x.coeff_linf() == pytest.approx(tp.coeff_norms(mat).linf)
    assert x.min_orbit_fraction(grid) == 1.0
    if isinstance(x, ScaledProduct):
        return  # its coefficients are listed by no method, only written as structure
    rows = list(x.iter_coeffs())
    got = dict(rows)
    assert len(rows) == len(got) == x.spectrum_size()
    assert sorted(got) == list(mat.spectrum())
    assert all(got[k] == pytest.approx(mat[k]) for k in got)
    if isinstance(x, TrigPoly):  # in frequency order
        assert rows == sorted(mat.coeffs.items())


# -- coefficient export against the per-row oracle ---------------------------

# signed zeros, a subnormal and scales far apart, so that rounding of the
# products shows
coeff_floats = st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 0.1, -2.5, 1.0 / 3.0,
                                1e300, -7.25])


@st.composite
def coeff_polys(draw, freqs, max_size):
    ks = draw(st.lists(freqs, min_size=1, max_size=max_size, unique=True))
    cs = [complex(draw(coeff_floats), draw(coeff_floats)) for _ in ks]
    # a coefficient that is zero leaves the map; keep the polynomial nonzero
    cs = [c if c != 0 else complex(1.0, -0.0) for c in cs]
    return TrigPoly(dict(zip(ks, cs)))


@st.composite
def block_sums(draw, max_terms=3, max_payload=4, max_carrier=3):
    """A segments-layout BlockSum: carriers in [-2, 2], payloads in
    [-D, D] without 0, shared between terms or not, and geometric rates
    that start small, astride 2^62 (the frequencies of one term fall on
    both sides of it) or far beyond it."""
    d = draw(st.integers(1, 4))
    payload_freqs = st.integers(-d, d).filter(bool)
    pool = draw(st.lists(coeff_polys(payload_freqs, max_payload), min_size=1,
                         max_size=2))
    start = draw(st.sampled_from(["small", "astride", "huge"]))
    rate = {"small": draw(st.integers(5, 40)),
            "astride": draw(st.integers(2 ** 62 // (d + 1), 2 ** 62 - 1)),
            "huge": draw(st.integers(2 ** 70, 2 ** 71))}[start]
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        carrier = draw(coeff_polys(st.integers(-2, 2), max_carrier))
        terms.append(BlockTerm(carrier, draw(st.sampled_from(pool)), rate))
        # the next term's segments clear this one's on both sides
        rate = (d + 1) * rate + 5 + draw(st.integers(0, 3))
    return BlockSum(terms)


def _exact_degree(x) -> int:
    return max(abs(k) for k, _ in oracle_iter_coeffs(x))


@st.composite
def scaled_products(draw, depth=2):
    """ScaledProduct(q, R, p), with q or p a ScaledProduct one level down."""
    def factor(analytic_zero_free):
        kinds = ["trigpoly", "blocksum"] + (["scaled"] if depth > 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "blocksum":
            return draw(block_sums(max_terms=2, max_payload=3, max_carrier=2))
        if kind == "scaled":
            return draw(scaled_products(depth - 1))
        freqs = st.integers(-4, 4).filter(bool) if analytic_zero_free \
            else st.integers(-4, 4)
        return draw(coeff_polys(freqs, 4))
    q, p = factor(True), factor(False)
    base = 4 * max(_exact_degree(p), 1) + 1
    rate = draw(st.sampled_from([base, base + 7, max(base, 2 ** 61 + 3)]))
    return ScaledProduct(q, rate, p)


@settings(max_examples=150, deadline=None)
@given(st.one_of(block_sums(), shifted_block_sums().map(lambda sums: sums[0])))
def test_coeff_arrays_match_row_oracle(x):
    rows = list(oracle_iter_coeffs(x))
    want_ks = [k for k, _ in rows]
    ks, cs = x.coeff_arrays()
    assert ks.dtype == tp._freq_array(want_ks).dtype
    got_ks = ks.tolist()
    assert got_ks == want_ks
    assert all(type(k) is int for k in got_ks)
    assert cs.dtype == np.complex128
    assert cs.tobytes() == np.array([c for _, c in rows], dtype=complex).tobytes()
    assert bits(x.iter_coeffs()) == bits(rows)


def test_coeff_arrays_freq_dtype_follows_the_rows_taken():
    # int64 while every frequency stays below 2^62, else Python ints: the
    # first polynomial of each pair stays below, the second has one term
    # (and one payload row) on both sides of it
    rate = 2 ** 61 + 1
    carrier, payload = TrigPoly({0: 1.0, 1: 0.5}), TrigPoly({1: 1.0, -1: 0.25j})
    cases = [
        (TrigPoly({1: 1.0, 2 ** 62 - 1: 2.0}), TrigPoly({1: 1.0, 2 ** 70: 2.0})),
        (BlockSum([BlockTerm(carrier, payload, rate)]),
         BlockSum([BlockTerm(carrier, payload + TrigPoly({3: 2.0}), rate)])),
        # |k| * rate + |c| reaches 2^62 in both, though no frequency of the
        # first does
        (BlockSum([BlockTerm(TrigPoly({-2: 1.0}), TrigPoly({1: 1.0}), 2 ** 62 - 1)]),
         BlockSum([BlockTerm(TrigPoly({-2: 1.0, 2: 0.5}), TrigPoly({1: 1.0}),
                             2 ** 62 - 1)])),
    ]
    for below, astride in cases:
        for x, dtype in ((below, np.int64), (astride, object)):
            ks, _ = x.coeff_arrays()
            assert ks.dtype == dtype
            assert ks.tolist() == [k for k, _ in oracle_iter_coeffs(x)]


def lazy_terms(terms) -> list:
    """The terms with every rate r as LazyRate(r, 2, 0) = r."""
    return [BlockTerm(t.carrier, t.payload, LazyRate(t.rate, 2, 0)) for t in terms]


def lazy_twin(x: BlockSum) -> BlockSum:
    return BlockSum(lazy_terms(x.terms))


def lazy_twin_of(x):
    """x with the rates of its block sums made lazy (x itself, or a copy,
    where it has none)."""
    if isinstance(x, BlockSum):
        return lazy_twin(x)
    if isinstance(x, ScaledProduct):
        return ScaledProduct(lazy_twin_of(x.q), x.rate, lazy_twin_of(x.p))
    return x


@settings(max_examples=60, deadline=None)
@given(block_sums())
def test_lazy_twin_answers_as_the_exact_sum(x):
    # the twin's segment ends are Freq bounds, compared through the same
    # expressions as the exact sum's ints
    twin = lazy_twin(x)
    assert twin.lazy and not x.lazy
    assert twin.is_analytic() == x.is_analytic()
    assert twin.spectrum_size() == x.spectrum_size()
    # certified: the degree from above, min |k| from below, on every example
    assert twin.degree_log2() >= x.degree_log2()
    assert Freq.of(twin.min_abs_freq()) <= Freq.of(x.min_abs_freq())
    with np.errstate(all="ignore"):  # coefficients reach 1e300
        for m in (1022, 16382):
            grid = CircleGrid(m)
            assert twin.values(grid).tobytes() == x.values(grid).tobytes()


def test_lazy_bounds_hold_at_block_rates():
    # the block approximants' rates a (2s)^(k+s) above s = 10^4, where
    # LazyRate.log2 is off by up to a few ulps
    mpmath = pytest.importorskip("mpmath")
    carrier = TrigPoly({-2: 1.0, 0: 1.0, 2: 1.0})
    payload = TrigPoly({-3: 1.0, -1: 1.0, 1: 1.0, 3: 1.0})
    with mpmath.workprec(200):
        for s in (150000, 170000, 200000):
            for a in (3, 5):
                for k in (-40, 0, 40):
                    rate = LazyRate(a, 2 * s, k + s)
                    # log2 of the rate; offsets up to 3 move log2|3 rate + 2|,
                    # log2|rate - 2| and log2|rate +- 3| by less than 2^-10^6
                    exact = mpmath.log(a, 2) + (k + s) * mpmath.log(2 * s, 2)
                    for seg in BlockTerm(carrier, payload, rate).segments():
                        outer, inner = ((seg["lo"], seg["hi"]) if seg["sign"] < 0
                                        else (seg["hi"], seg["lo"]))
                        assert outer.sign == inner.sign == seg["sign"]
                        assert outer.log2 > exact + mpmath.log(3, 2)
                        assert inner.log2 < exact
                    # the spectra rate +- 1..3 of a product and a stage
                    # modulated at the rate
                    x = ScaledProduct(TrigPoly({1: 1.0}), rate, payload)
                    assert x.degree_log2() > exact
                    assert x.min_abs_freq().log2 < exact
                    assert _Modulated(rate, payload, "cos").degree_log2() > exact


def _accepts(terms) -> bool:
    try:
        BlockSum(terms)
    except ValueError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 2 ** 40, 2 ** 70]).flatmap(lambda lo: st.integers(lo, 2 * lo)),
       st.integers(1, 4), st.integers(1, 4), st.data())
def test_lazy_twin_refuses_an_overlap_made_by_the_carrier_offset(rate, c1, c2, data):
    # the terms span [rate, rate + c1] and [rate2 - c2, rate2], rate2 =
    # rate + 1 + gap: the rates alone keep them apart, and the carrier
    # offsets make them overlap (or touch, at c1 + c2 = 1 + gap); the
    # lazy twin may refuse either layout, since log2 cannot resolve the
    # gap at 2^40 and beyond
    gap = data.draw(st.integers(0, c1 + c2 - 1))
    payload = TrigPoly({1: 1.0})

    def terms(lo_carrier, hi_carrier):
        return [BlockTerm(lo_carrier, payload, rate),
                BlockTerm(hi_carrier, payload, rate + 1 + gap)]
    apart = terms(TrigPoly({0: 1.0}), TrigPoly({0: 1.0}))
    assert _accepts(apart)
    overlap = terms(TrigPoly({0: 1.0, c1: 1.0}), TrigPoly({-c2: 1.0, 0: 1.0}))
    assert not _accepts(overlap)
    assert not _accepts(lazy_terms(overlap))


def test_lazy_inner_end_beyond_zero():
    # an offset above |k rate|: the negative payload half of the first term
    # lands at -3 + 9..10 = 6..7, so its inner end's bound lies above 0,
    # and the second term, at 6, overlaps it
    terms = [BlockTerm(TrigPoly({9: 1.0, 10: 1.0}), TrigPoly({-1: 1.0}), 3),
             BlockTerm(TrigPoly({0: 1.0}), TrigPoly({1: 1.0}), 6)]
    assert not _accepts(terms)
    assert not _accepts(lazy_terms(terms))
    one = BlockSum(lazy_terms(terms[:1]))
    assert one.degree_log2() >= math.log2(7)
    assert Freq.of(one.min_abs_freq()) <= 6


@settings(max_examples=150, deadline=None)
@given(block_sums().filter(lambda x: len(x.terms) > 1), st.data())
def test_lazy_twin_accepts_a_layout_only_if_the_exact_sum_does(x, data):
    # each next rate D r + c, D the previous payload's degree and r its
    # rate, so that segments clear, touch or overlap by a few frequencies:
    # in 150 examples the exact sum refused about a third, and the twin
    # another sixth
    rate = x.terms[0].rate
    terms = []
    for t in x.terms:
        terms.append(BlockTerm(t.carrier, t.payload, rate))
        rate = max(5, t.payload.degree() * rate + data.draw(st.integers(-6, 10)))
    assert _accepts(terms) or not _accepts(lazy_terms(terms))


def _record(x) -> dict:
    """x's structure tree, each TrigPoly part numbered in order of use."""
    parts = {}
    return x.structure(lambda p: parts.setdefault(id(p), len(parts)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(block_sums(), block_sums().map(lazy_twin),
                 shifted_block_sums().map(lambda sums: sums[0]), scaled_products()),
       st.sampled_from([None, "cos", "exp"]))
def test_structure_record_round_trips(x, modulated):
    # the written record rebuilds a polynomial of the same structure, whose
    # values are those of x bit for bit; optionally as an engine stage
    # modulated at a lazy rate
    if modulated:
        x = _Modulated(LazyRate(3, 7, 90), x, modulated)
    with tempfile.TemporaryDirectory() as tmp:
        entry = cli._write_structure(Path(tmp), "poly", x)
        y = load_structure(Path(tmp, "poly.json"))
    assert entry["spectrum_size"] == y.spectrum_size() == x.spectrum_size()
    assert _record(y) == _record(x)
    with np.errstate(all="ignore"):  # coefficients reach 1e300
        for m in (1022, 16382):
            grid = CircleGrid(m)
            assert y.values(grid).tobytes() == x.values(grid).tobytes()
