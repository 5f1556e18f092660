"""Quadratic residues, consecutive non-residue runs, and gap certificates.

The certificates here are the modular obstructions showing that bounded
perturbations of +-n^2 miss an entire residue class, hence cannot carry a
representation of every function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

PRIME_CAP = 10 ** 6


def is_prime(n: int) -> bool:
    """Deterministic trial division; intended range is n < 10**6."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_from(start: int):
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) via Euler's criterion; 0 iff p divides a."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    r = pow(a % p, (p - 1) // 2, p)
    if r == p - 1:
        return -1
    return int(r)  # 0 or 1


def find_nonresidue_run(r: int) -> Tuple[int, int]:
    """Smallest prime p with x such that x+1..x+r are all non-residues.

    Brute-force search standing in for the Davenport-Weil existence theorem;
    raises if no prime below PRIME_CAP works (does not happen for r <= 8).
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    for p in primes_from(3):
        if p > PRIME_CAP:
            raise RuntimeError(f"no run of length {r} found below {PRIME_CAP}")
        if p <= r:
            continue
        flags = [legendre(a, p) == -1 for a in range(p)]
        run = 0
        for a in range(1, p):
            run = run + 1 if flags[a] else 0
            if run >= r:
                return p, a - r
    raise RuntimeError("unreachable")


@dataclass(frozen=True)
class GapCertificate:
    """Residue class m mod p avoided by every lambda with |lambda -+- n^2| < A.

    p = 1 (mod 4) so that -n^2 covers the same classes as n^2; the interval
    (m - A, m + A) mod p contains no value of +-n^2, and the certificate is
    exhaustively re-verified for |n| <= checked_range.
    """

    p: int
    m: int
    A: int
    checked_range: int

    def to_json(self) -> str:
        return json.dumps({"p": self.p, "m": self.m, "A": self.A,
                           "checked_range": self.checked_range}, sort_keys=True)


def square_classes(p: int) -> set:
    """All values of +-n^2 mod p."""
    sq = {(n * n) % p for n in range(p)}
    return sq | {(-x) % p for x in sq}


def squares_gap_certificate(A: int, checked_range: int = 10 ** 4) -> GapCertificate:
    """Find (p, m) with p = 1 (mod 4) whose square classes miss (m-A, m+A).

    Verified two ways: once on the residue classes and once by scanning all
    |n| <= checked_range with every perturbation |tau| < A.
    """
    if A < 1:
        raise ValueError("A must be >= 1")
    for p in primes_from(5):
        if p > PRIME_CAP:
            raise RuntimeError(f"no gap certificate found below {PRIME_CAP}")
        if p % 4 != 1:
            continue
        cls = square_classes(p)
        for m in range(p):
            if all(((m + t) % p) not in cls for t in range(-(A - 1), A)):
                cert = GapCertificate(p, m, A, checked_range)
                _verify_certificate(cert)
                return cert
    raise RuntimeError("unreachable")


def _verify_certificate(cert: GapCertificate) -> None:
    p, m, A = cert.p, cert.m, cert.A
    for n in range(-cert.checked_range, cert.checked_range + 1):
        base = n * n if n >= 0 else -(n * n)
        for tau in range(-(A - 1), A):
            if (base + tau - m) % p == 0:
                raise AssertionError(
                    f"certificate broken at n={n}, tau={tau}: hits {m} mod {p}"
                )
