"""Block families of integer frequencies and sparse spectrum builders.

The two-parameter blocks are finite sumsets of scaled arithmetic
progressions: sparse, symmetric (in the two-sided case), with a large hole
around zero, and close to a single linear progression of step `a`.  All
arithmetic is exact Python-integer arithmetic; the only size guard is an
explicit cap on `s` because the scale factor (2s)^(2s+2) grows violently.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

DEFAULT_S_CAP = 6
#: single-step growth steps the Hadamard walk takes before it stalls
MAX_B_STEPS = 10 ** 6


class BlockRangeError(ValueError):
    """Parameter out of the supported range (prevents runaway integers)."""


class LinearizationError(RuntimeError):
    """Injectivity of the near-linear labelling failed (should not happen)."""


@dataclass(frozen=True)
class SpectrumSet:
    """Finite ordered set of integers (a candidate or partial spectrum)."""

    elements: Tuple[int, ...]

    def __post_init__(self):
        els = tuple(int(x) for x in self.elements)
        if any(els[i] >= els[i + 1] for i in range(len(els) - 1)):
            raise ValueError("elements must be strictly increasing")
        object.__setattr__(self, "elements", els)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        i = bisect.bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    def __iter__(self):
        return iter(self.elements)

    def positive(self) -> Tuple[int, ...]:
        return tuple(x for x in self.elements if x > 0)

    def is_symmetric(self) -> bool:
        s = set(self.elements)
        return all(-x in s for x in s)

    def min_abs(self) -> int:
        return min(abs(x) for x in self.elements)

    def to_file(self, path) -> None:
        with open(path, "w") as fh:
            for x in self.elements:
                fh.write(f"{x}\n")


def spectrum_from_file(path) -> SpectrumSet:
    with open(path) as fh:
        return SpectrumSet(tuple(sorted(int(line) for line in fh if line.strip())))


def _check_s(s: int, s_cap: int):
    if s < 1:
        raise BlockRangeError("s must be >= 1")
    if s > s_cap:
        raise BlockRangeError(
            f"s={s} exceeds cap {s_cap}; (2s)^(2s+2) grows too fast to materialize"
        )


def scale_factor(s: int, k: int, a: int) -> int:
    """The progression step a*(2s)^(k+s) used at translate k; k = s + 2
    gives a*(2s)^(2s+2), the carrier step inside B(s, a) and D(s, a)."""
    return a * (2 * s) ** (k + s)


def block_B1(s: int, a: int, s_cap: int = DEFAULT_S_CAP) -> SpectrumSet:
    """{-sa, ..., -a, a, ..., sa}."""
    _check_s(s, s_cap)
    if a < 1:
        raise BlockRangeError("a must be >= 1")
    neg = [-j * a for j in range(s, 0, -1)]
    pos = [j * a for j in range(1, s + 1)]
    return SpectrumSet(tuple(neg + pos))


def block_B1_plus(s: int, a: int, s_cap: int = DEFAULT_S_CAP) -> SpectrumSet:
    """{a, 2a, ..., sa}."""
    _check_s(s, s_cap)
    if a < 1:
        raise BlockRangeError("a must be >= 1")
    return SpectrumSet(tuple(j * a for j in range(1, s + 1)))


def block_B2(s: int, a: int, s_cap: int = DEFAULT_S_CAP) -> SpectrumSet:
    """Union over |k| <= s of k + B1+(s, (2s)^(k+s) a)."""
    _check_s(s, s_cap)
    out = set()
    for k in range(-s, s + 1):
        step = scale_factor(s, k, a)
        for j in range(1, s + 1):
            out.add(k + j * step)
    return SpectrumSet(tuple(sorted(out)))


def block_B(s: int, a: int, s_cap: int = DEFAULT_S_CAP) -> SpectrumSet:
    """B(s,a) = B1(s, (2s)^(2s+2) a) + (B2(s,a) u -B2(s,a))."""
    _check_s(s, s_cap)
    b2 = set(block_B2(s, a, s_cap).elements)
    b2 |= {-x for x in b2}
    carrier = block_B1(s, scale_factor(s, s + 2, a), s_cap).elements
    return SpectrumSet(tuple(sorted({x + y for x in carrier for y in b2})))


def block_B_nu(s: int, a: int, nu: int, s_cap: int = DEFAULT_S_CAP) -> SpectrumSet:
    """(-nu + B(s,a)) u (nu + B(s,a)); requires nu > max B(s,a)."""
    b = block_B(s, a, s_cap)
    mx = max(b.elements)
    if nu <= mx:
        raise BlockRangeError(f"need nu > max B(s,a) = {mx}, got {nu}")
    shifted = sorted({x + nu for x in b.elements} | {x - nu for x in b.elements})
    return SpectrumSet(tuple(shifted))


def block_D(s: int, a: int, s_cap: int = DEFAULT_S_CAP) -> SpectrumSet:
    """D(s,a) = B1+(s, (2s)^(2s+2) a) + B2(s,a), a subset of Z+."""
    _check_s(s, s_cap)
    b2 = block_B2(s, a, s_cap).elements
    carrier = block_B1_plus(s, scale_factor(s, s + 2, a), s_cap).elements
    out = sorted({x + y for x in carrier for y in b2})
    if out[0] <= 0:
        raise AssertionError("D(s,a) must be strictly positive")
    return SpectrumSet(tuple(out))


def block_D_nu(s: int, a: int, nu: int, s_cap: int = DEFAULT_S_CAP) -> SpectrumSet:
    """nu + D(s,a)."""
    if nu < 1:
        raise BlockRangeError("nu must be >= 1")
    return SpectrumSet(tuple(x + nu for x in block_D(s, a, s_cap).elements))


# -- near-linear structure ---------------------------------------------------

def _round_half_away(b: int, a: int) -> int:
    """Nearest integer to b/a with ties away from zero (sign-symmetric)."""
    if b >= 0:
        return (2 * b + a) // (2 * a)
    return -((2 * (-b) + a) // (2 * a))


@dataclass(frozen=True)
class LinearizationCertificate:
    """Witness that a block is a small perturbation of the progression a*Z.

    entries are (b, l(b), |b - l(b)*a|); C_s is max(residual, |l|-slack)
    + 1 computed from the block itself, and l is injective.
    """

    s: int
    a: int
    entries: Tuple[Tuple[int, int, int], ...]
    C_s: int

    def residual_bound(self) -> int:
        return max((e[2] for e in self.entries), default=0)


def linearize(s: int, a: int, s_cap: int = DEFAULT_S_CAP) -> LinearizationCertificate:
    """Label each b in B(s,a) with the multiple of `a` its sumset
    decomposition carries: b = l1*(2s)^(2s+2)a + sigma*(k + j (2s)^(k+s) a)
    gets l(b) = l1*(2s)^(2s+2) + sigma*j (2s)^(k+s) and residual |k| <= s.

    This agrees with the nearest integer to b/a whenever a > 2s and stays
    injective for small a, where rounding can collide (elements of the
    block sit as close as 2 apart).  Certifies 0 < |l(b)|,
    |b - l(b) a| < C_s and injectivity, with C_s = (max residual) + 1.
    """
    _check_s(s, s_cap)
    big = scale_factor(s, s + 2, 1)  # (2s)^(2s+2)
    labelled = {}
    for l1 in list(range(-s, 0)) + list(range(1, s + 1)):
        for sign in (1, -1):
            for k in range(-s, s + 1):
                step = (2 * s) ** (k + s)
                for j in range(1, s + 1):
                    b = l1 * big * a + sign * (k + j * step * a)
                    l = l1 * big + sign * j * step
                    # keep the smallest-residual decomposition per element
                    res = abs(b - l * a)
                    if b not in labelled or res < labelled[b][1]:
                        labelled[b] = (l, res)
    entries = []
    seen = {}
    for b in sorted(labelled):
        l, res = labelled[b]
        if l == 0:
            raise LinearizationError(f"l(b) = 0 for b = {b} (hole violated)")
        if l in seen:
            raise LinearizationError(
                f"labels collide: l({seen[l]}) = l({b}) = {l} for (s,a)=({s},{a})"
            )
        seen[l] = b
        entries.append((b, l, res))
    c_s = max(e[2] for e in entries) + 1
    return LinearizationCertificate(s, a, tuple(entries), c_s)


def residual_constant(s: int) -> int:
    """Structural bound on |b - l(b) a|: residues come from |k| <= s."""
    return s + 1


def _b2_candidate_ks(x: int, s: int, a: int):
    """Translate indices k worth testing for x in B2(s, a).

    |x - k| = j * a * (2s)^(k+s) pins k + s near log(|x|/a)/log(2s); for
    small s just scan everything.
    """
    if s <= 12:
        return range(-s, s + 1)
    if abs(x) <= s + 1:
        return range(-s, s + 1)
    est = (abs(x).bit_length() - a.bit_length()) / math.log2(2 * s) - s
    k0 = int(est)
    return range(max(-s, k0 - 3), min(s, k0 + 3) + 1)


def _b2_member(x: int, s: int, a: int) -> bool:
    for k in _b2_candidate_ks(x, s, a):
        step = scale_factor(s, k, a)
        j, r = divmod(x - k, step)
        if r == 0 and 1 <= j <= s:
            return True
    return False


def block_member_B(b: int, s: int, a: int) -> bool:
    """Membership oracle for B(s,a) without materializing the set.

    Decomposes b = l1 * big + (sign) * (k + j * a (2s)^(k+s)); the carrier
    index l1 and translate k are pinned by magnitude, so the test runs in
    O(1) integer operations even for enormous blocks.
    """
    big = scale_factor(s, s + 2, a)
    l1 = _round_half_away(b, big)
    if not (1 <= abs(l1) <= s):
        return False
    rem = b - l1 * big
    return _b2_member(rem, s, a) or _b2_member(-rem, s, a)


def block_member_D(b: int, s: int, a: int) -> bool:
    big = scale_factor(s, s + 2, a)
    l1 = _round_half_away(b, big)
    if not (1 <= l1 <= s):
        return False
    return _b2_member(b - l1 * big, s, a)


# -- spectrum transforms ------------------------------------------------------

def shift_spectrum(lam: SpectrumSet, n: int) -> SpectrumSet:
    return SpectrumSet(tuple(x - n for x in lam.elements))


def divide_spectrum(lam: SpectrumSet, m: int) -> SpectrumSet:
    if m < 1:
        raise ValueError("m must be a positive integer")
    return SpectrumSet(tuple(x // m for x in lam.elements if x % m == 0))


# -- builders ------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    """One embedded block inside a built spectrum."""

    kind: str  # "B", "B_nu" or "D", "D_nu"
    s: int
    a: int
    nu: Optional[int] = None

    def as_dict(self):
        return {"kind": self.kind, "s": self.s, "a": self.a, "nu": self.nu}


@dataclass(frozen=True)
class BuiltSpectrum:
    spectrum: SpectrumSet
    manifest: Tuple[ManifestEntry, ...]


def _eps_array(eps: Callable[[int], float] | Sequence[float], n: int) -> List[float]:
    if callable(eps):
        vals = [float(eps(i)) for i in range(1, n + 1)]
    else:
        vals = [float(x) for x in eps[:n]]
        if len(vals) < n:
            raise ValueError("eps sequence shorter than requested length")
    if any(v < 0 for v in vals):
        raise ValueError("eps values must be nonnegative")
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise ValueError(
            "eps must be nonincreasing; pre-process with running maxima first"
        )
    return vals


@functools.lru_cache(maxsize=None)
def linearization_constant(s: int, s_cap: int = DEFAULT_S_CAP) -> int:
    """C(s) used by the ratio test: covers labels and max element / a.

    Computed from a probe block with a large enough that rounding is exact;
    dominates both max |l(b)| and max B(s,a)/a.
    """
    cert = linearize(s, 10 ** 4, s_cap)
    return max(abs(e[1]) for e in cert.entries) + 1


def _hadamard_walk(family: str, eps, n_target: int,
                   s_cap: int) -> Tuple[List[int], Tuple[ManifestEntry, ...]]:
    """The increasing positive sequence of build_hadamard_spectrum and its
    manifest; family "B" inserts the positive part of B(s, a), "D" all of
    D(s, a)."""
    block = block_B if family == "B" else block_D
    evals = _eps_array(eps, n_target + 1)
    out: List[int] = [2]  # lambda(1)
    manifest: List[ManifestEntry] = []
    last_s = 0
    b_steps = 0
    while len(out) < n_target:
        m = len(out)
        e = evals[m - 1]
        # (a): the maximal s (beyond those already used) whose block the
        # current eps admits, i.e. eps(m) < 1/(2 C(s)).
        s_pick = 0
        for s in range(s_cap, last_s, -1):
            if e < 1.0 / (2.0 * linearization_constant(s, s_cap)):
                s_pick = s
                break
        if s_pick:
            c = linearization_constant(s_pick, s_cap)
            cres = residual_constant(s_pick)
            a = max(4 * cres + 1, 1)
            hole_exp = (2 * s_pick) ** (2 * s_pick + 1)
            while True:
                # ratio into the block and internal sparsity margin
                if hole_exp * a > out[-1] * (1.0 + e) and (a - 2 * cres) / (a * c) > 1.0 / (2.0 * c):
                    pos = block(s_pick, a, s_cap).positive()
                    ratios_ok = all(
                        pos[i + 1] > pos[i] * (1.0 + evals[min(m + i, n_target)])
                        for i in range(len(pos) - 1)
                    )
                    if ratios_ok:
                        break
                a *= 2
            out.extend(pos)
            manifest.append(ManifestEntry(family, s_pick, a))
            last_s = s_pick
        else:
            b_steps += 1
            if b_steps > MAX_B_STEPS:
                raise RuntimeError(
                    "construction stalls: eps never becomes small enough for a block"
                )
            # exact rational growth: float products overflow / tie for big entries
            out.append(math.ceil(out[-1] * (1 + Fraction(e))) + 1)
    return out, tuple(manifest)


def _squares_walk(family: str, w, n_blocks: int, s_cap: int) -> BuiltSpectrum:
    """build_squares_spectrum over B(s, 2a, a^2) (family "B") or
    D(s, 2a, a^2) (family "D") blocks."""
    block_nu = block_B_nu if family == "B" else block_D_nu
    elements: set = set()
    manifest: List[ManifestEntry] = []
    prev_max = 0
    for s in range(1, n_blocks + 1):
        if s > s_cap:
            raise BlockRangeError(f"s={s} exceeds cap {s_cap}")
        # labels of B(s, A) do not depend on A once A is large; probe once
        cert = linearize(s, 10 ** 4, s_cap)
        c_label = max(abs(e[1]) for e in cert.entries)
        c_res = cert.residual_bound()
        tau_bound = c_res + c_label ** 2
        # need tau_bound < sqrt(w(a - c_label)) and a^2 beyond earlier blocks
        a = max(2 * c_label + 2, tau_bound ** 2 + c_label + 1,
                math.isqrt(2 * prev_max) + 1)
        while not (tau_bound < math.sqrt(max(w(a - c_label), 0.0))) or a * a <= 2 * prev_max:
            a += max(1, a // 16)
        nu = a * a
        elements.update(block_nu(s, 2 * a, nu, s_cap).elements)
        prev_max = max(elements)
        manifest.append(ManifestEntry(family + "_nu", s, 2 * a, nu))
    return BuiltSpectrum(SpectrumSet(tuple(sorted(elements))), tuple(manifest))


def build_hadamard_spectrum(
    eps: Callable[[int], float] | Sequence[float],
    n_target: int,
    s_cap: int = DEFAULT_S_CAP,
) -> BuiltSpectrum:
    """Symmetric spectrum with lambda(n+1)/lambda(n) > 1 + eps(n).

    Alternates between inserting an entire block B(s, a) whenever the
    current eps allows the block's internal ratios (taking the maximal
    feasible s, each s used at most once so the embedded s_k increase),
    and single-step growth lambda(m+1) = ceil(lambda(m)(1+eps(m))) + 1.
    """
    pos, manifest = _hadamard_walk("B", eps, n_target, s_cap)
    full = sorted({-x for x in pos} | set(pos))
    return BuiltSpectrum(SpectrumSet(tuple(full)), manifest)


def build_squares_spectrum(
    w: Callable[[int], float],
    n_blocks: int,
    s_cap: int = DEFAULT_S_CAP,
) -> BuiltSpectrum:
    """Union of blocks B(s, 2a(s), a(s)^2): a symmetric near-squares spectrum.

    Every positive element satisfies b = k^2 + tau(b) with k = a + l(b) and
    |tau(b)| <= C_lin + C_lin^2 where C_lin certifies the linearization of
    B(s, 2a); a(s) is the smallest value making that bound < sqrt(w(a - C_lin)).
    """
    return _squares_walk("B", w, n_blocks, s_cap)


def build_analytic_hadamard_spectrum(
    eps: Callable[[int], float] | Sequence[float],
    n_target: int,
    s_cap: int = DEFAULT_S_CAP,
) -> BuiltSpectrum:
    """Positive-only variant of build_hadamard_spectrum using D(s, a) blocks."""
    pos, manifest = _hadamard_walk("D", eps, n_target, s_cap)
    return BuiltSpectrum(SpectrumSet(tuple(pos)), manifest)


def build_analytic_squares_spectrum(
    w: Callable[[int], float],
    n_blocks: int,
    s_cap: int = DEFAULT_S_CAP,
) -> BuiltSpectrum:
    """Positive near-squares spectrum from D(s, 2a, a^2) blocks."""
    return _squares_walk("D", w, n_blocks, s_cap)
