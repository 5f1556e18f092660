import numpy as np
import pytest

from sparsetrig import numbertheory as nt


def test_legendre_examples():
    for p in (3, 5, 7, 13, 101):
        assert nt.legendre(1, p) == 1
    assert nt.legendre(3, 7) == -1
    assert nt.legendre(2, 7) == 1
    assert nt.legendre(14, 7) == 0
    with pytest.raises(ValueError):
        nt.legendre(2, 9)
    with pytest.raises(ValueError):
        nt.legendre(2, 2)


def test_legendre_multiplicative():
    rng = np.random.default_rng(2)
    for p in (7, 13, 31):
        for _ in range(25):
            x, y = int(rng.integers(1, 200)), int(rng.integers(1, 200))
            assert nt.legendre(x * y, p) == nt.legendre(x, p) * nt.legendre(y, p)


def test_primes_from_matches_a_sieve():
    limit = 20000
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for f in range(2, int(limit ** 0.5) + 1):
        if sieve[f]:
            sieve[f * f::f] = False
    primes = np.flatnonzero(sieve).tolist()
    for start in (-5, 0, 1, 2, 3, 4, 8, 9, 97, 98, 7919, 7920, 10 ** 4 + 1):
        gen = nt.primes_from(start)
        want = [p for p in primes if p >= start][:50]
        assert [next(gen) for _ in want] == want


def test_nonresidue_run_base():
    assert nt.find_nonresidue_run(2) == (5, 1)


def test_nonresidue_run_verified():
    p, x = nt.find_nonresidue_run(4)
    assert p <= 10 ** 4
    for i in range(1, 5):
        assert nt.legendre(x + i, p) == -1


def test_nonresidue_run_monotone():
    prev = 0
    for r in range(2, 7):
        p, _ = nt.find_nonresidue_run(r)
        assert p >= prev
        prev = p


def test_gap_certificate_small():
    cert = nt.squares_gap_certificate(1, checked_range=2000)
    assert cert.p <= 13 and cert.p % 4 == 1
    # independent re-enumeration
    cls = {(n * n) % cert.p for n in range(cert.p)}
    cls |= {(-x) % cert.p for x in cls}
    for t in range(-(cert.A - 1), cert.A):
        assert (cert.m + t) % cert.p not in cls


def test_gap_certificate_wider():
    cert = nt.squares_gap_certificate(2, checked_range=500)
    cls = nt.square_classes(cert.p)
    for t in range(-1, 2):
        assert (cert.m + t) % cert.p not in cls


def test_certificate_json():
    cert = nt.squares_gap_certificate(1, checked_range=100)
    import json
    data = json.loads(cert.to_json())
    assert set(data) == {"p", "m", "A", "checked_range"}
