"""Per-row coefficient iterators: the oracle for `coeff_arrays`.

These are the `iter_coeffs` bodies of TrigPoly, BlockSum and ScaledProduct
as they stood before coefficients were exported from arrays: one Python
step per row, products taken as Python complex numbers.  Nested factors go
through the oracle too, so it never calls the code it checks.
"""

import cmath
import math

import numpy as np

from sparsetrig.blockpoly import BlockSum, ScaledProduct
from sparsetrig.trigpoly import TrigPoly


def oracle_iter_coeffs(poly):
    """(frequency, coefficient) rows of poly in export order; lazy rates and
    other polynomials raise OverflowError on the first row."""
    if isinstance(poly, TrigPoly):
        return _trigpoly_rows(poly)
    if isinstance(poly, BlockSum):
        return _blocksum_rows(poly)
    if isinstance(poly, ScaledProduct):
        return _scaled_rows(poly)
    return _unmaterializable()


def _unmaterializable():
    raise OverflowError("frequencies not materialized")
    yield


def _trigpoly_rows(p):
    order = np.argsort(p._k, kind="stable")
    return zip(p._k[order].tolist(), p._c[order].tolist())


def _blocksum_rows(b):
    if b.lazy:
        raise OverflowError("lazy rates: frequencies not materializable")
    payload_items = {i: list(h.coeffs.items()) for i, h in b._payloads.items()}
    for t in b.terms:
        carrier = list(t.carrier.coeffs.items())
        if t.shift is not None:  # the translate by 2 pi s / K, as translate rounds it
            shift = 2.0 * math.pi * t.shift[0] / t.shift[1]
            carrier = [(c, cc * cmath.exp(1j * c * shift)) for c, cc in carrier]
        for k, hk in payload_items[id(t.payload)]:
            base = k * t.rate
            for c, cc in carrier:
                yield base + c, hk * cc


def _scaled_rows(sp):
    if sp.lazy:
        raise OverflowError("lazy rates: frequencies not materializable")
    p_items = list(oracle_iter_coeffs(sp.p))
    for kq, cq in oracle_iter_coeffs(sp.q):
        base = kq * sp.rate
        for kp, cp in p_items:
            yield base + kp, cq * cp


def bits(rows):
    """(k, re, im) with the floats spelled exactly, signed zeros included."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in rows]
