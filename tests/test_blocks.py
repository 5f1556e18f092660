import functools
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrig import blocks as bl


def test_block_b1_examples():
    assert bl.block_B1(2, 3).elements == (-6, -3, 3, 6)
    assert bl.block_B1_plus(1, 16).elements == (16,)


def test_block_b2_example():
    assert bl.block_B2(1, 1).elements == (0, 2, 5)


def test_block_b_example():
    assert bl.block_B(1, 1).elements == (-21, -18, -16, -14, -11, 11, 14, 16, 18, 21)


def test_block_d_examples():
    assert bl.block_D(1, 1).elements == (16, 18, 21)
    assert bl.block_D_nu(1, 1, 100).elements == (116, 118, 121)


def test_block_b_nu_symmetric():
    b = bl.block_B_nu(1, 1, 100)
    assert b.is_symmetric()
    with pytest.raises(bl.BlockRangeError):
        bl.block_B_nu(1, 1, 10)  # nu <= max B(1,1) = 21


def test_s_cap():
    with pytest.raises(bl.BlockRangeError):
        bl.block_B(7, 1)
    bl.block_B(7, 1, s_cap=7)  # explicit cap override works


def test_linearize_example():
    cert = bl.linearize(1, 10)
    pos = [(b, l) for b, l, _ in cert.entries if b > 0]
    assert [b for b, _ in pos] == [119, 140, 151, 169, 180, 201]
    assert [l for _, l in pos] == [12, 14, 15, 17, 18, 20]
    assert all(r <= 1 for _, _, r in cert.entries)


def test_lattice_properties():
    # s <= 3, a <= 50: symmetry, hole, sparsity, injective linearization
    for s in (1, 2, 3):
        hole = (2 * s) ** (2 * s + 1)
        for a in range(1, 51):
            b = bl.block_B(s, a)
            assert b.is_symmetric()
            assert b.min_abs() > hole * a
            cert = bl.linearize(s, a)  # raises on any injectivity failure
            gap_bound = a - 2 * cert.C_s
            els = b.elements
            for x, y in zip(els, els[1:]):
                assert y - x > gap_bound
            d = bl.block_D(s, a)
            assert all(x > 0 for x in d.elements)


# The membership oracle as it stood before the rate table, kept as the
# reference: it recomputes every power a*(2s)^(k+s) through `power`.  Its
# one departure is the `break`: for |x| <= s + 1 the old oracle scanned
# all 2s + 1 translates (some 16000 powers of up to 223,000 bits per probe
# at s = 8000), and since the steps grow with k while a match needs
# step <= x - k <= |x| + s, no translate after the first larger step can
# match.
def _ref_b2_candidate_ks(x, s, a):
    if s <= 12:
        return range(-s, s + 1)
    if abs(x) <= s + 1:
        return range(-s, s + 1)
    est = (abs(x).bit_length() - a.bit_length()) / math.log2(2 * s) - s
    k0 = int(est)
    return range(max(-s, k0 - 3), min(s, k0 + 3) + 1)


def _ref_b2_member(x, s, a, power):
    for k in _ref_b2_candidate_ks(x, s, a):
        step = power(s, k, a)
        if step > abs(x) + s:
            break
        j, r = divmod(x - k, step)
        if r == 0 and 1 <= j <= s:
            return True
    return False


def _ref_member_B(b, s, a, power):
    big = power(s, s + 2, a)
    l1 = bl._round_half_away(b, big)
    if not (1 <= abs(l1) <= s):
        return False
    rem = b - l1 * big
    return _ref_b2_member(rem, s, a, power) or _ref_b2_member(-rem, s, a, power)


def _ref_member_D(b, s, a, power):
    big = power(s, s + 2, a)
    l1 = bl._round_half_away(b, big)
    if not (1 <= l1 <= s):
        return False
    return _ref_b2_member(b - l1 * big, s, a, power)


def _check_large_s_against_reference(a):
    # s of the block approximant's exact-rate configs; one table serves
    # every probe and both families, so it must carry no state from one
    # test to the next
    s = 8000
    powers = {}

    def power(s_, k, a_):
        if (s_, k, a_) not in powers:
            powers[s_, k, a_] = a_ * (2 * s_) ** (k + s_)
        return powers[s_, k, a_]

    def elem(l1, sign, k, j, aa=a):
        return l1 * power(s, s + 2, aa) + sign * (k + j * power(s, k, aa))

    edges = [(l1, sign, k, j) for l1 in (1, -1, s, -s) for sign in (1, -1)
             for k in (-s, 0, s) for j in (1, s)]
    members = [elem(*e) for e in edges]
    misses = [x + e for x in members for e in (-1, 1)]
    misses += [elem(l1, sign, k, j) for l1, sign, k, _ in edges
               for j in (0, s + 1)]
    misses += [elem(l1 + (1 if l1 > 0 else -1), sign, k, j)
               for l1, sign, k, j in edges if abs(l1) == s]
    misses += [elem(*e, aa=8 - a) for e in edges]
    rates = bl.BlockRates(s, a)
    for x in members:
        assert bl.block_member_B(x, rates), x
    for x in members + misses:
        assert bl.block_member_B(x, rates) == _ref_member_B(x, s, a, power)
        assert bl.block_member_D(x, rates) == _ref_member_D(x, s, a, power)
    d_members = [elem(*e) for e in edges if e[0] > 0 and e[1] == 1]
    assert all(bl.block_member_D(x, rates) for x in d_members)
    # some misses land on another part of the block (the k = -s translate
    # has step a), most do not
    assert sum(bl.block_member_B(x, rates) for x in misses) < len(misses) / 4
    # only the translates the probes reach are ever computed
    assert len(rates) <= 32


def test_membership_oracle_matches_sets():
    # s = 13 is the smallest s whose oracle pins the translate instead of
    # scanning all 2s + 1 (at a = 1, x = s + 1 sits on translate -s + 1);
    # the +-1 neighbours probe the near misses
    for s, avals in ((1, (1, 7, 20)), (2, (1, 7, 20)), (13, (1, 3))):
        for a in avals:
            b = set(bl.block_B(s, a, s_cap=s).elements)
            d = set(bl.block_D(s, a, s_cap=s).elements)
            lo = min(b) - 3
            hi = max(b) + 3
            probe = set(range(lo, hi + 1, max((hi - lo) // 500, 1))) | b | d
            probe |= {x + e for x in b | d for e in (-1, 1)}
            rates = bl.BlockRates(s, a)
            for x in probe:
                assert bl.block_member_B(x, rates) == (x in b), (s, a, x)
                assert bl.block_member_D(x, rates) == (x in d), (s, a, x)
    for a in (3, 5):
        _check_large_s_against_reference(a)


@settings(max_examples=40, deadline=None)
@given(s=st.integers(1, 3), a=st.integers(1, 40), data=st.data())
def test_membership_oracle_matches_sets_small_s(s, a, data):
    b = bl.block_B(s, a)
    d = bl.block_D(s, a)
    near = st.builds(lambda x, e: x + e,
                     st.sampled_from(b.elements + d.elements),
                     st.integers(-2, 2))
    anywhere = st.integers(min(b.elements) - 3, max(b.elements) + 3)
    xs = data.draw(st.lists(st.one_of(near, anywhere), min_size=1,
                            max_size=30))
    rates = bl.BlockRates(s, a)
    for x in xs:
        assert bl.block_member_B(x, rates) == (x in b), x
        assert bl.block_member_D(x, rates) == (x in d), x


@functools.lru_cache(maxsize=64)
def _power(s, k, a):
    return a * (2 * s) ** (k + s)


@st.composite
def _block_probe(draw, s, a):
    """A member of B(s, a) or D(s, a) built from its decomposition, or one
    of the near misses the 2-adic translate filter and the rounding must
    get right: a remainder off a multiple of its rate by t * 2^64 (it
    passes the filter), j = 0 or s + 1, a
    tie b - l1 * big = +-big / 2, |b| near (s + 1/2) big, and a
    remainder in (-s, 0]."""
    big = _power(s, s + 2, a)
    l1 = draw(st.integers(1, s)) * draw(st.sampled_from((1, -1)))
    sign = draw(st.sampled_from((1, -1)))
    k = draw(st.one_of(st.integers(-s, s),
                       st.sampled_from((-s, -s + 1, 0, s - 1, s))))
    j = draw(st.integers(1, s))
    kind = draw(st.sampled_from(("member", "low64", "j", "tie", "edge",
                                 "small")))
    if kind == "member":
        rem = k + j * _power(s, k, a)
    elif kind == "low64":
        t = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        rem = k + j * _power(s, k, a) + t * 2 ** 64
    elif kind == "j":
        rem = k + draw(st.sampled_from((0, s + 1))) * _power(s, k, a)
    elif kind == "tie":
        rem = big // 2  # big is even: 2s divides it
    elif kind == "edge":
        return sign * ((2 * s + 1) * big // 2 + draw(st.integers(-2, 3)))
    else:
        rem = draw(st.integers(-s + 1, 0))
    return l1 * big + sign * rem + draw(st.sampled_from((0, 0, -1, 1)))


@settings(max_examples=60, deadline=None)
@given(s=st.sampled_from((1, 12, 13, 200, 8000)),
       a=st.sampled_from((1, 2, 3, 5, 8)), data=st.data())
def test_membership_oracle_matches_reference(s, a, data):
    # one table per example, shared by its probes as in a construction
    rates = bl.BlockRates(s, a)
    for b in data.draw(st.lists(_block_probe(s, a), min_size=1,
                                max_size=12)):
        assert bl.block_member_B(b, rates) == _ref_member_B(b, s, a, _power), b
        assert bl.block_member_D(b, rates) == _ref_member_D(b, s, a, _power), b


def test_membership_ties_and_the_outer_edge():
    # b / big at a tie and |b| at the outer edge (s + 1/2) big, on every
    # side: the carrier index is rounded ties away from zero
    for s, a in ((1, 1), (13, 3), (200, 8), (8000, 5)):
        rates = bl.BlockRates(s, a)
        big = rates[s + 2]
        probes = [l1 * big + e * big // 2 + d for l1 in (0, 1, -1, s, -s)
                  for e in (1, -1) for d in (-1, 0, 1)]
        probes += [sign * ((2 * s + 1) * big // 2 + d)
                   for sign in (1, -1) for d in (-1, 0, 1)]
        for b in probes:
            assert bl.block_member_B(b, rates) == _ref_member_B(b, s, a, _power)
            assert bl.block_member_D(b, rates) == _ref_member_D(b, s, a, _power)


def test_spectrum_set_invariants():
    with pytest.raises(ValueError):
        bl.SpectrumSet((3, 3))
    with pytest.raises(ValueError):
        bl.SpectrumSet((5, 2))
    s = bl.SpectrumSet((-4, 1, 9))
    assert 1 in s and 2 not in s


#: per block family: (Hadamard builder, squares builder, block, two-sided)
FAMILIES = {
    "B": (bl.build_hadamard_spectrum, bl.build_squares_spectrum, bl.block_B, True),
    "D": (bl.build_analytic_hadamard_spectrum, bl.build_analytic_squares_spectrum,
          bl.block_D, False),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hadamard_builder_ratios(family):
    build, _, block, two_sided = FAMILIES[family]
    n = 150
    eps = lambda i: 1.0 / (i + 2)
    built = build(eps, n)
    pos = built.spectrum.positive()
    assert len(pos) >= n
    for i in range(min(len(pos), n) - 1):
        assert pos[i + 1] / pos[i] > 1.0 + eps(i + 1), i
    if two_sided:
        assert built.spectrum.is_symmetric()
    else:
        assert pos == built.spectrum.elements
    assert len(built.manifest) >= 1
    # embedded blocks really are subsets
    els = set(built.spectrum.elements)
    for m in built.manifest:
        assert m.kind == family
        assert set(block(m.s, m.a).elements) <= els
    # manifest s strictly increasing
    ss = [m.s for m in built.manifest]
    assert ss == sorted(set(ss))


def test_hadamard_builder_monotonicity_guard():
    with pytest.raises(ValueError):
        bl.build_hadamard_spectrum([0.1, 0.2, 0.1, 0.1], 3)


def test_hadamard_builder_degenerate_zero_eps():
    built = bl.build_hadamard_spectrum(lambda n: 0.0, 40)
    pos = built.spectrum.positive()
    for x, y in zip(pos, pos[1:]):
        assert y > x


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_squares_builder(family):
    _, build, _, two_sided = FAMILIES[family]
    built = build(lambda k: float(k), 3)
    assert built.spectrum.is_symmetric() == two_sided
    assert [m.s for m in built.manifest] == [1, 2, 3]
    block_nu = bl.block_B_nu if two_sided else bl.block_D_nu
    els = set(built.spectrum.elements)
    worst = 0.0
    for m in built.manifest:
        assert m.kind == family + "_nu"
        a = m.a // 2
        assert m.nu == a * a
        assert set(block_nu(m.s, m.a, m.nu).elements) <= els
    for b in built.spectrum.positive():
        k = round(math.isqrt(b))
        # nearest square among k-1, k, k+1
        tau = min(abs(b - (k + d) ** 2) for d in (-1, 0, 1))
        kk = min(((abs(b - (k + d) ** 2), k + d) for d in (-1, 0, 1)))[1]
        worst = max(worst, tau / math.sqrt(max(kk, 1)))
    assert worst < 1.0


def _spectrum_sha256(built):
    text = "\n".join(map(str, built.spectrum.elements))
    return hashlib.sha256(text.encode()).hexdigest()


#: exact builder outputs: (size, sha256 of the newline-joined spectrum,
#: manifest as (kind, s, a, nu) tuples)
PINNED = [
    (bl.build_hadamard_spectrum, ("1/n", 150), 300,
     "defb95e1e9ebc3f61fa50f8565bc4c4295029389ccb8771b16f7228d5f506d54",
     [("B", 1, 36, None)]),
    (bl.build_hadamard_spectrum, (0.01, 40), 80,
     "95ce4a74cad768cc6616a81f7ea0a5cc0385d9224465b73f54da0b509846b802",
     [("B", 1, 9, None)]),
    (bl.build_analytic_hadamard_spectrum, ("1/n", 150), 150,
     "da26484294ed93160373131e65912890f9ed061e600aa10ca00d2ed20c4a3e3f",
     [("D", 1, 36, None)]),
    (bl.build_analytic_hadamard_spectrum, (0.01, 40), 40,
     "789e0ce954f8eb11ce1e41be201248cc3f82a02305314a86c1bdb33580677a06",
     [("D", 1, 9, None)]),
    (bl.build_squares_spectrum, 1, 24,
     "d186a88568f0bab9174df82ac21e6bbe002b920c4c9f2218e32aa4a8f5aacd8c",
     [("B_nu", 1, 321644, 25863715684)]),
    (bl.build_squares_spectrum, 2, 184,
     "de78c586379a61229645979a678f06b9b8b1f536c7d1397ceb1f41a206932b5a",
     [("B_nu", 1, 321644, 25863715684),
      ("B_nu", 2, 12196479403968586, 37188527462857478702001618709849)]),
    (bl.build_analytic_squares_spectrum, 1, 3,
     "d5deb3180158f1d7c2004cbfbab7b95e945cccb4c0b76e6a6b640a9568ba342d",
     [("D_nu", 1, 321644, 25863715684)]),
    (bl.build_analytic_squares_spectrum, 2, 23,
     "4b3fe3b9757cf7539ff2626af3170c4a3f5dfe235162e790f5d1018d981a8b75",
     [("D_nu", 1, 321644, 25863715684),
      ("D_nu", 2, 12196479403968586, 37188527462857478702001618709849)]),
]


@pytest.mark.parametrize("build, arg, size, digest, manifest", PINNED, ids=[
    "hadamard-n150", "hadamard-eps0.01", "analytic_hadamard-n150",
    "analytic_hadamard-eps0.01", "squares-1", "squares-2", "analytic_squares-1",
    "analytic_squares-2"])
def test_builders_pinned_output(build, arg, size, digest, manifest):
    if isinstance(arg, tuple):  # Hadamard builders: (eps rule, n)
        rule, n = arg
        eps = (lambda i: 1.0 / (i + 2)) if rule == "1/n" else (lambda i: rule)
        built = build(eps, n)
    else:  # squares builders: number of blocks, w(k) = k
        built = build(lambda k: float(k), arg)
    assert len(built.spectrum) == size
    assert _spectrum_sha256(built) == digest
    assert [(m.kind, m.s, m.a, m.nu) for m in built.manifest] == manifest


def test_spectrum_file_roundtrip(tmp_path):
    s = bl.SpectrumSet((-5, 2, 10 ** 25))
    path = tmp_path / "s.txt"
    s.to_file(path)
    assert bl.spectrum_from_file(path).elements == s.elements
