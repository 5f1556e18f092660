import hashlib
import math

import pytest

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


def test_membership_oracle_matches_sets():
    for s in (1, 2):
        for a in (1, 7, 20):
            b = set(bl.block_B(s, a).elements)
            d = set(bl.block_D(s, a).elements)
            lo = min(b) - 3
            hi = max(b) + 3
            probe = set(range(lo, hi + 1, max((hi - lo) // 500, 1))) | b | d
            for x in probe:
                assert bl.block_member_B(x, s, a) == (x in b), (s, a, x)
                assert bl.block_member_D(x, s, a) == (x in d), (s, a, x)


def test_shift_divide():
    lam = bl.SpectrumSet((1, 5))
    assert bl.shift_spectrum(lam, 1).elements == (0, 4)
    assert bl.divide_spectrum(bl.SpectrumSet((2, 3, 4, 8)), 2).elements == (1, 2, 4)
    assert bl.divide_spectrum(bl.shift_spectrum(lam, 0), 1).elements == lam.elements


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
