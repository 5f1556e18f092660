"""Block-sum oracle: values and S** bracket as two separate passes.

`ref_values` adds carrier times contracted payload term by term, and
`ref_bracket` builds the segment rows and cut bounds in segment order,
each carrier (a shifted term's translate) evaluated by its own
`TrigPoly.values` call in each pass, as
`BlockSum.values` and `BlockSum.sstar_star_bracket` computed them before
one memoized pass with batched carrier transforms gave both.  From
WIDTH_BRACKET_ROWS rows on, it folds the rows into the width bracket with
`window_oracle.ref_width_bracket`: whole cumulative sums of the positive
and of the negative halves, each in term order.  Nothing here calls
`trigpoly._ifft_runs`, `BlockSum._evaluate` or `blockpoly.WidthBracket`,
so a fault there cannot hide in both the program and its check.
"""

import math

import numpy as np

from window_oracle import ref_width_bracket, ref_window_gap
from sparsetrig.blockpoly import WIDTH_BRACKET_ROWS, _half, contracted_index_map
from sparsetrig.trigpoly import coeff_norms, translate


def ref_carrier(t):
    """The term's carrier, translated by 2 pi s / K for a shift (s, K)."""
    if t.shift is None:
        return t.carrier
    s, k = t.shift
    return translate(t.carrier, 2.0 * math.pi * s / k)


def ref_values(w, grid) -> np.ndarray:
    out = np.zeros(grid.size, dtype=complex)
    pv = {i: h.values(grid, allow_alias=True) for i, h in w._payloads.items()}
    for t in w.terms:
        cv = ref_carrier(t).values(grid, allow_alias=True)
        # one expression: numpy computes it in place on the indexed
        # temporary once the row reaches 256 KiB, and the operand order
        # decides the last bit under FMA
        out += cv * pv[id(t.payload)][contracted_index_map(t.rate, grid)]
    return out


def ref_segment_rows(w, grid):
    """(rows, cuts): the segment rows in segment order, and each segment's
    cut bound |C| l1(half) + linf(H) l1(C), where a shifted term's l1(C)
    is its tile's: |c e^{i theta}| = |c|."""
    rows = np.empty((len(w._segments), grid.size), dtype=complex)
    cuts = []
    for pos, seg in enumerate(w._segments):
        t = w.terms[seg["term"]]
        carrier = ref_carrier(t)
        cv = carrier.values(grid, allow_alias=True)
        half = _half(t.payload, seg["sign"])
        hv = half.values(grid, allow_alias=True)
        rows[pos] = cv * hv[contracted_index_map(t.rate, grid)]
        cuts.append(np.abs(cv) * coeff_norms(half).l1
                    + coeff_norms(t.payload).linf * coeff_norms(t.carrier).l1)
    return rows, cuts


def ref_bracket(w, grid):
    """(lower, upper): the segment rows' window maximum (exact below
    WIDTH_BRACKET_ROWS rows, else the width bracket) plus the two largest
    cut bounds on top."""
    m = grid.size
    segs, cuts = ref_segment_rows(w, grid)
    two_largest = np.sort(cuts, axis=0)[-2:]
    top1 = two_largest[-1]
    top2 = two_largest[0] if len(cuts) > 1 else np.zeros(m)
    if len(segs) >= WIDTH_BRACKET_ROWS:
        # negative halves come first, in reverse term order
        negative = np.array([seg["sign"] < 0 for seg in w._segments])
        # 500-column chunks leave no last column alone on the test grids,
        # where numpy would project it through another BLAS kernel
        lower, upper = ref_width_bracket(segs[~negative],
                                         segs[negative][::-1],
                                         chunk_cells=500 * (len(segs) + 1))
        return lower, upper + top1 + top2
    dmid = ref_window_gap(list(segs), m)
    return dmid, dmid + top1 + top2
