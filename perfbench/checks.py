"""Independent checks of sparsetrig outputs.

Nothing here calls sparsetrig: values are recomputed from coefficient maps
with the benchmark's own modular phase, e^{ik t_j} = (-1)^k w^{(k mod M) j}
with t_j = -pi + 2 pi j / M and w = e^{2 pi i / M}, and compared with a
relative tolerance of 1e-9 against the largest magnitude in the compared
object.  A check raises CheckError on the first disagreement it finds.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9

# captured before any tracer wraps numpy.fft, so checks are never traced
_ifft = np.fft.ifft


class CheckError(AssertionError):
    """The program's output disagrees with an independent check."""


def _close(got, want, what: str, scale: float | None = None):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape} != {want.shape}")
    ref = scale if scale is not None else float(np.max(np.abs(want), initial=0.0))
    err = float(np.max(np.abs(got - want), initial=0.0))
    if err > REL_TOL * max(ref, 1e-300):
        raise CheckError(f"{what}: max deviation {err:.3e} vs scale {ref:.3e}")


# -- modular phase ----------------------------------------------------------

def phase_row(k: int, m: int, points: np.ndarray) -> np.ndarray:
    """e^{i k t_j} at grid indices `points`, exact for any integer k."""
    r = (k % m) * points.astype(object) % m
    ang = 2.0 * math.pi * np.asarray(r, dtype=float) / m
    sign = -1.0 if k % 2 else 1.0
    return sign * np.exp(1j * ang)


def term_matrix(coeffs: dict, keys, m: int, points: np.ndarray) -> np.ndarray:
    """Rows c_k e^{i k t_j} for k in `keys`, columns the grid `points`."""
    return np.array([coeffs[k] * phase_row(k, m, points) for k in keys])


def poly_values(coeffs: dict, m: int) -> np.ndarray:
    """All M grid values by folding into residues and one inverse DFT."""
    folded = np.zeros(m, dtype=complex)
    for k, c in coeffs.items():
        folded[k % m] += -c if k % 2 else c
    return m * _ifft(folded)


# -- exact workload: library results -----------------------------------------

def check_s_star(coeffs: dict, m: int, got: np.ndarray, points: np.ndarray):
    """sup_n |S_n| by brute force over the |k| levels at grid `points`."""
    keys = sorted(coeffs, key=lambda k: (abs(k), k))
    terms = term_matrix(coeffs, keys, m, points)
    levels = [abs(k) for k in keys]
    last_of_level = [i for i in range(len(keys))
                     if i + 1 == len(keys) or levels[i + 1] != levels[i]]
    prefix = np.cumsum(terms, axis=0)[last_of_level]
    want = np.max(np.abs(prefix), axis=0, initial=0.0)
    _close(np.asarray(got)[points].real, want, "s_star")


def check_s_star_star(coeffs: dict, m: int, got: np.ndarray, points: np.ndarray):
    """sup over windows [a, b] of |S_{b,a}| by brute force at `points`."""
    keys = sorted(coeffs)
    terms = term_matrix(coeffs, keys, m, points)
    prefix = np.vstack([np.zeros(len(points)), np.cumsum(terms, axis=0)])
    want = np.zeros(len(points))
    for j in range(len(points)):
        col = prefix[:, j]
        want[j] = np.max(np.abs(col[:, None] - col[None, :]))
    _close(np.asarray(got)[points].real, want, "s_star_star")


def check_multiply(p: dict, q: dict, got: dict):
    """Coefficient convolution against a dense numpy convolution."""
    lo_p, lo_q = min(p), min(q)
    dp = np.zeros(max(p) - lo_p + 1, dtype=complex)
    dq = np.zeros(max(q) - lo_q + 1, dtype=complex)
    for k, c in p.items():
        dp[k - lo_p] = c
    for k, c in q.items():
        dq[k - lo_q] = c
    dense = np.convolve(dp, dq)
    scale = float(np.max(np.abs(dense)))
    mine = np.zeros_like(dense)
    for k, c in got.items():
        i = k - lo_p - lo_q
        if not 0 <= i < dense.size:
            raise CheckError(f"multiply: frequency {k} outside the product range")
        mine[i] = c
    _close(mine, dense, "multiply", scale)


def special_product_coeffs(p: dict, q: dict, r: int) -> dict:
    """H = Q(r t) P: blocks s r + spec P are disjoint because r > 2 deg P."""
    return {s * r + k: qs * pk for s, qs in q.items() for k, pk in p.items()}


def check_restriction(h: dict, lo: int, hi: int, got: dict, what: str):
    """`got` must equal the coefficients of `h` with lo <= k <= hi."""
    want = {k: c for k, c in h.items() if lo <= k <= hi}
    keys = sorted(set(want) | set(got))
    scale = max((abs(c) for c in h.values()), default=0.0)
    _close([got.get(k, 0j) for k in keys], [want.get(k, 0j) for k in keys],
           what, scale)


def check_window(p: dict, q: dict, r: int, n: int, got: dict):
    """special_product_window against the direct restriction of H."""
    h = special_product_coeffs(p, q, r)
    lo, hi = (0, n) if n >= 0 else (n, 0)
    check_restriction(h, lo, hi, got, f"special_product_window n={n}")


def check_coeff_norms(coeffs: dict, ps, linf: float, l1: float, lp: dict):
    a = np.array([abs(c) for c in coeffs.values()])
    _close(linf, a.max(), "coeff_norms linf")
    _close(l1, a.sum(), "coeff_norms l1")
    for q in ps:
        _close(lp[q], np.sum(a ** q) ** (1.0 / q), f"coeff_norms l{q}")


def log_one_minus_cos_rows(freqs, m: int, floor: float = 1e-30):
    """log(1 - cos nu t_j) per frequency, singular points flagged."""
    j = np.arange(m)
    rows, sing = [], []
    for nu in freqs:
        r = (nu % m) * j % m
        # cos(nu t_j) = (-1)^nu cos(2 pi (nu j mod M) / M)
        base = 1.0 - (-1.0 if nu % 2 else 1.0) * np.cos(2.0 * math.pi * r / m)
        bad = base < floor
        rows.append(np.where(bad, 0.0, np.log(np.maximum(base, floor))))
        sing.append(bad)
    return rows, sing


def check_almost_orthogonality(freqs, m: int, got: np.ndarray):
    rows, sing = log_one_minus_cos_rows(freqs, m)
    f = np.array([np.where(s, 0.0, r + math.log(2.0)) for r, s in zip(rows, sing)])
    want = np.abs(f @ f.T) / m
    _close(got, want, "almost_orthogonality")


# -- CLI outputs ---------------------------------------------------------------

def read_manifest(out: Path) -> dict:
    path = out / "manifest.json"
    if not path.is_file():
        raise CheckError("no manifest written")
    try:
        man = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckError(f"manifest does not parse: {exc}") from exc
    if not isinstance(man, dict) or "certificates_passed" not in man:
        raise CheckError("manifest lacks certificates_passed")
    return man


def check_certificate(name: str, cert: dict):
    """A certificate's pass must agree with measured < bound.

    Certificates with a null bound are reported, not gated.  A structural
    certificate that lists failure reasons may fail with measured < bound.
    """
    bound, measured, passed = cert.get("bound"), cert.get("measured"), cert.get("pass")
    if bound is None:
        return
    below = measured < bound or (measured == bound == 0.0)
    if passed and not below:
        raise CheckError(f"certificate {name} passes with {measured} >= {bound}")
    if not passed and below and not cert.get("reasons"):
        raise CheckError(f"certificate {name} fails with {measured} < {bound}")


def check_exit_code(rc: int, man: dict):
    """Exit 0 iff every certificate passed; 2 only for infeasible runs."""
    passed = bool(man["certificates_passed"])
    if rc == 0 and not passed:
        raise CheckError("exit 0 but certificates_passed is false")
    if rc == 1 and passed:
        raise CheckError("exit 1 but certificates_passed is true")
    if rc == 2 and "infeasible" not in man:
        raise CheckError("exit 2 without an infeasible report")


def check_report(report: dict, man: dict):
    """approximate: report.json requirements against the manifest."""
    reqs = report["requirements"]
    for name, cert in reqs.items():
        check_certificate(name, cert)
    fails = sorted(k for k, v in reqs.items() if not v["pass"])
    if bool(man["certificates_passed"]) != (not fails):
        raise CheckError("certificates_passed disagrees with report.json")
    if sorted(man.get("failures", [])) != fails:
        raise CheckError("manifest failures disagree with report.json")


def check_stages(man: dict, out: Path):
    """represent: every stage certificate and the stages.csv rows."""
    stages = man["run"]["stages"]
    for st in stages:
        for name, cert in st["certificates"].items():
            check_certificate(f"stage {st['n']} {name}", cert)
        if st["ok"] and not all(c["pass"] for c in st["certificates"].values()):
            raise CheckError(f"stage {st['n']} ok with a failed certificate")
    with open(out / "stages.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if [int(r[0]) for r in rows] != [st["n"] for st in stages]:
        raise CheckError("stages.csv rows disagree with the manifest")
    if man["certificates_passed"] and not all(st["ok"] for st in stages):
        raise CheckError("certificates_passed with a failed stage")


def read_poly_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["k", "re", "im"]]:
        raise CheckError(f"{path.name}: bad header")
    return {int(r[0]): complex(float(r[1]), float(r[2])) for r in rows[1:]}


def grid_l0(absv: np.ndarray) -> float:
    """inf{eps > 0 : #{|f| > eps} / M < eps}, exactly, from sorted moduli.

    With a_0 >= a_1 >= ... the count above eps is i on [a_i, a_{i-1}), so
    that interval contributes max(a_i, i / M) when this lies below a_{i-1}.
    """
    m = absv.size
    a = np.sort(absv)[::-1]
    i = np.arange(m + 1)
    lower = np.append(a, 0.0)
    upper = np.insert(a, 0, np.inf)
    cand = np.maximum(lower, i / m)
    return float(cand[cand < upper].min())


def check_analytic_unit(out: Path, m: int, report: dict):
    """Spectrum in Z+ and the L0 certificate recomputed from poly.csv."""
    coeffs = read_poly_csv(out / "poly.csv")
    if not coeffs or min(coeffs) < 1:
        raise CheckError("analytic_unit: spectrum not inside Z+")
    absv = np.abs(poly_values(coeffs, m) - 1.0)
    l0 = grid_l0(absv)
    meas = report["requirements"]["l0_R_minus_1"]["measured"]
    # the program bisects to an absolute 1e-6; the exact infimum sits below
    if not (l0 - 1e-9 <= meas <= l0 + 2e-6):
        raise CheckError(f"analytic_unit: L0 {meas} but recomputed {l0}")


def check_spectrum_file(out: Path, man: dict, symmetric: bool):
    vals = [int(x) for x in (out / "spectrum.txt").read_text().split()]
    if len(vals) != man["size"]:
        raise CheckError("spectrum size disagrees with the manifest")
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise CheckError("spectrum not strictly increasing")
    if symmetric and vals != [-v for v in reversed(vals)]:
        raise CheckError("two-sided spectrum not symmetric")


def check_riesz(man: dict, freqs, m: int, n_max: int):
    """Mean of (1/n) sum log(1 - cos nu_k t) over unmasked grid points."""
    rows, sing = log_one_minus_cos_rows(freqs[:n_max], m)
    masked = np.logical_or.reduce(sing)
    total = np.sum(rows, axis=0)
    mean = float(total[~masked].mean()) / n_max
    got = man["cosine"]["mean_log_one_minus_cos"]
    _close(got, mean, "riesz mean_log_one_minus_cos")
    cross = man["cross_identity_max_log_error"]
    want = abs(mean - (-math.log(2.0))) < 0.05 and cross < 1e-9
    if bool(man["certificates_passed"]) != want:
        raise CheckError("riesz certificates_passed disagrees with its gates")


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def check_sharpness(man: dict, a_bound: int, r: int):
    cert = man["gap_certificate"]
    p, mres = cert["p"], cert["m"]
    if cert["A"] != a_bound or p % 4 != 1 or any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
        raise CheckError("gap certificate modulus is not a prime = 1 mod 4")
    squares = {n * n % p for n in range(p)}
    classes = squares | {-x % p for x in squares}
    if any((mres + t) % p in classes for t in range(-(a_bound - 1), a_bound)):
        raise CheckError("gap certificate interval meets a square class")
    run = man["nonresidue_run"]
    ok = all(_legendre(run["x"] + i, run["p"]) == -1 for i in range(1, r + 1))
    if ok != run["verified"] or ok != man["certificates_passed"]:
        raise CheckError("non-residue run verification disagrees")
