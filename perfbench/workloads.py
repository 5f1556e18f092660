"""Seeded job lists for the three workloads, and how a job runs and is checked.

A run is a sequence of rounds.  Every round of a workload holds the same
job kinds in the same numbers and order; the seed draws their parameters
and polynomials (stratified where the cost depends strongly on a
parameter).  Fixed counts keep the job whose time is the median of the
run the same kind from seed to seed.  A job is one CLI invocation through
`sparsetrig.cli.main` or one library construction.  Outcomes:

* ``ok``          -- every certificate passed;
* ``cert-fail``   -- an honest certificate FAIL (exit 1);
* ``infeasible``  -- ConstructionInfeasible (exit 2 with a report);
* ``failed``      -- raised, exit outside {0, 1, 2}, no parseable manifest,
  a self-contradicting manifest, or disagreement with an independent check.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from sparsetrig import approximants, cli, riesz, targets
from sparsetrig import trigpoly as tp
from sparsetrig.circle import CircleGrid

WORKLOADS = ("analytic", "twosided", "exact")
CLI_GRID = 2 ** 14
ENGINE_GRID = 2 * 8191
EXACT_GRID = 2 ** 14
#: grid points at which the exact workload's maxima are brute-forced
CHECK_POINTS = 16

OK, CERT_FAIL, INFEASIBLE, FAILED = "ok", "cert-fail", "infeasible", "failed"


@dataclass
class Job:
    kind: str
    params: dict
    grid: int
    #: CLI jobs: (command, config); library jobs: None
    cli: tuple | None = None
    #: library jobs: inputs built before timing (polynomials, schedules)
    inputs: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {"kind": self.kind, "params": self.params, "M": self.grid}


# -- job generation ------------------------------------------------------------

def _strata(rng: random.Random, lo: float, hi: float, n: int):
    """n draws, one per equal-width stratum of [lo, hi], rounded to 4 places."""
    return [round(lo + (hi - lo) * (i + rng.random()) / n, 4) for i in range(n)]


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _analytic_round(rng):
    """19 jobs; the median job is an analytic_unit run.

    analytic_unit's cost jumps with the Fejer degree its eps needs, so its
    eps is drawn once in each of 16 equal strata of [0.2, 0.45].  The units
    run in four groups, one before each of the three long jobs and one
    after the last, so they sample the whole run rather than one moment of
    the machine's load.
    """
    units = [Job("approximate.analytic_unit", {"eps": e}, CLI_GRID,
                 ("approximate", {"kind": "analytic_unit", "eps": e}))
             for e in _strata(rng, 0.2, 0.45, 16)]
    e = _u(rng, 0.2, 0.45)
    korner = Job("approximate.analytic_korner", {"eps": e}, CLI_GRID,
                 ("approximate", {"kind": "analytic_korner", "eps": e}))
    k = rng.randint(1, 4)
    asym = Job("represent.asymptotic_l2", {"k": k}, ENGINE_GRID,
               ("represent", {"engine": "asymptotic_l2", "target": "cosk",
                              "target_params": {"k": k}, "stages": 2}))
    lo = _u(rng, -2.5, 0.5)
    hi = round(lo + _u(rng, 0.5, 1.5), 4)
    inf = Job("represent.infinity", {"lo": lo, "hi": hi}, ENGINE_GRID,
              ("represent", {"engine": "infinity", "target": "plus_infinity_arc",
                             "target_params": {"lo": lo, "hi": hi},
                             "stages": 2}))
    return (units[0::4] + [asym] + units[1::4] + [inf] + units[2::4]
            + [korner] + units[3::4])


def _const(rng):
    return round(rng.choice((-1, 1)) * rng.uniform(0.5, 1.5), 4)


def _korner(rng, name, lo, hi):
    e, d = _u(rng, lo, hi), _u(rng, lo, hi)
    return Job(f"approximate.korner.{name}", {"eps": e, "delta": d}, CLI_GRID,
               ("approximate", {"kind": "korner", "eps": e, "delta": d}))


def _block(rng, s, eps_lo=0.25, eps_hi=0.4):
    p = {"c": _const(rng), "eps": _u(rng, eps_lo, eps_hi),
         "delta": _u(rng, 0.25, 0.4), "s": s, "a": rng.choice((3, 5))}
    if s <= 10000:
        # exact-rate cascade (s up to approximants.EXACT_RATE_S_CAP): its CLI
        # CSV would need integers with more than 4300 digits, so the
        # construction runs as a library job
        return Job("block.exact_rate", p, CLI_GRID)
    cfg = {"kind": "block", "target": "const", "target_params": {"c": p["c"]},
           "eps": p["eps"], "delta": p["delta"], "s": s, "a": p["a"]}
    return Job("approximate.block.lazy_rate", p, CLI_GRID, ("approximate", cfg))


def _engine(rng, engine):
    cfg = {"engine": engine, "target": "const", "target_params": {"c": _const(rng)}}
    if engine == "stoptime":
        cfg["eps"] = _u(rng, 0.2, 0.3)
    else:
        cfg["stages"] = 2
    return Job(f"represent.{engine}", dict(cfg), CLI_GRID, ("represent", cfg))


def _twosided_round(rng):
    """14 jobs: six cost less than the two squares-engine runs and six
    more, so the median of any number of whole rounds falls in the middle
    of the squares runs, not on the edge of their cost range.  The two sit
    half a round apart.

    Korner tile carriers lie above 512 coefficients for eps, delta in
    [0.2, 0.3] and below it in [0.75, 0.95].  Below min(eps, delta) = 0.25
    the tile count doubles to 32, and an exact-rate cascade doubles its
    spectrum below eps ~ 0.3, so each round draws jobs on both sides of
    those steps: every run then does the same amount of work and reaches
    the same peak memory.
    """
    n = rng.randint(100, 300)
    hadamard = Job("build-spectrum.hadamard", {"n": n}, CLI_GRID,
                   ("build-spectrum", {"kind": "hadamard", "eps": "1/n", "n": n}))
    b, w = rng.choice((2, 3)), rng.choice(("k", "sqrt"))
    squares = Job("build-spectrum.squares", {"blocks": b, "w": w}, CLI_GRID,
                  ("build-spectrum", {"kind": "squares", "blocks": b, "w": w}))
    return [_korner(rng, "large", 0.2, 0.249), _engine(rng, "squares"),
            _block(rng, 8000, 0.25, 0.29), _engine(rng, "stoptime"), hadamard,
            _korner(rng, "small", 0.75, 0.95), _engine(rng, "ae"),
            _korner(rng, "large", 0.25, 0.3), _engine(rng, "squares"),
            _block(rng, 8000, 0.31, 0.4), _engine(rng, "measure"), squares,
            _block(rng, 150000), _block(rng, 8000, 0.25, 0.29)]


def random_coeffs(rng, support: int, max_degree: int = 2000,
                  zero_mean: bool = False) -> dict:
    pool = range(-max_degree, max_degree + 1)
    keys = rng.sample(pool, support + 1)
    keys = [k for k in keys if not (zero_mean and k == 0)][:support]
    return {k: complex(round(rng.gauss(0, 1), 6), round(rng.gauss(0, 1), 6))
            for k in keys}


def _exact_round(rng):
    """18 jobs: eight cost less than the two riesz runs at n = 60 and
    eight more (the riesz runs at n = 200 among them), so the median of any
    number of whole rounds falls in the middle of the n = 60 runs.  The
    riesz runs sit between the long S** sweeps."""
    sup = lambda: rng.randint(64, 256)
    lib = lambda kind, support: Job(kind, {"support": support}, EXACT_GRID)

    def riesz_job(n):
        cfg = {"n": n, "nu1": rng.randrange(3, 16, 2)}
        return Job("riesz", dict(cfg), CLI_GRID, ("riesz", cfg))

    ao = Job("almost_orthogonality",
             {"n": rng.randint(20, 40), "nu1": rng.randrange(3, 16, 2)},
             EXACT_GRID)
    cfg = {"A": rng.randint(1, 3), "r": rng.randint(3, 6)}
    sharp = Job("sharpness", dict(cfg), CLI_GRID, ("sharpness", cfg))
    jobs = [lib("s_star_star", 64), riesz_job(60), lib("s_star", rng.randint(64, 160)),
            lib("multiply", sup()), lib("s_star_star", 128), riesz_job(200),
            lib("special_product", sup()), lib("special_product_window", sup()),
            lib("s_star_star", 192), riesz_job(60), lib("partial_sum", sup()),
            lib("coeff_norms", sup()), lib("s_star_star", 256), riesz_job(200),
            ao, lib("multiply", sup()), lib("s_star", rng.randint(160, 256)),
            sharp]
    for job in jobs:
        _exact_params(rng, job)
    return jobs


def _exact_params(rng, job: Job):
    """Seeded polynomial coefficients and sweep points for a library job."""
    p = job.params
    if "support" not in p:
        return
    s = p["support"]
    job.inputs["p"] = random_coeffs(rng, s)
    if job.kind == "multiply":
        job.inputs["q"] = random_coeffs(rng, rng.randint(64, 256))
    if job.kind in ("special_product", "special_product_window"):
        q = random_coeffs(rng, rng.randint(64, 256), zero_mean=True)
        job.inputs["q"] = q
        deg_p = max(abs(k) for k in job.inputs["p"])
        p["r"] = 2 * deg_p + 1 + rng.randint(0, 64)
        deg_h = max(abs(k) for k in q) * p["r"] + deg_p
        p["n"] = [rng.randint(-deg_h, deg_h) for _ in range(4)]
    if job.kind == "partial_sum":
        p["n"] = sorted(rng.randint(0, 2000) for _ in range(8))
    if job.kind == "coeff_norms":
        p["ps"] = [1.5, 3.0]
    if job.kind in ("s_star", "s_star_star"):
        job.inputs["points"] = np.array(
            sorted(rng.sample(range(EXACT_GRID), CHECK_POINTS)))


ROUNDS = {"analytic": _analytic_round, "twosided": _twosided_round,
          "exact": _exact_round}


def make_round(workload: str, seed: int, index: int):
    """Round `index` of a workload's job list; a pure function of its args."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    return ROUNDS[workload](random.Random(f"{workload}/{seed}/{index}"))


def prepare(job: Job):
    """Build the program-side inputs of a library job (outside timing)."""
    if "p" in job.inputs:
        job.inputs["P"] = tp.TrigPoly(job.inputs["p"])
    if "q" in job.inputs:
        job.inputs["Q"] = tp.TrigPoly(job.inputs["q"])
    if job.kind == "almost_orthogonality":
        job.inputs["sched"] = riesz.make_schedule(job.params["n"],
                                                  nu1=job.params["nu1"])
    if job.kind == "block.exact_rate":
        job.inputs["f"] = targets.const(CircleGrid(job.grid), job.params["c"])


# -- execution -------------------------------------------------------------------

@dataclass
class Result:
    job: Job
    outcome: str
    wall_s: float
    support: int | None = None
    degree_log2: float | None = None
    error: str = ""
    bytes_written: int = 0
    rows_written: int = 0

    def record(self) -> dict:
        rec = self.job.describe()
        rec.update(support=self.support, degree_log2=self.degree_log2,
                   outcome=self.outcome, wall_s=round(self.wall_s, 6))
        if self.error:
            rec["error"] = self.error
        return rec


def _heap_trimmer():
    """glibc's malloc_trim, or a no-op where the C library lacks it."""
    name = ctypes.util.find_library("c")
    trim = getattr(ctypes.CDLL(name), "malloc_trim", None) if name else None
    if trim is None:
        return lambda: None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return lambda: trim(0)


class Runner:
    """Runs jobs, times them, checks them and digests CLI output bytes.

    After each job the freed heap goes back to the operating system, as it
    would when a CLI process exits, so the peak RSS of a run is that of its
    largest job rather than of the heap history the job order left behind.
    """

    def __init__(self, work: Path):
        self.work = work
        self.digest = hashlib.sha256()
        self.cli_jobs = 0
        self.count = 0
        self._trim = _heap_trimmer()

    def run(self, job: Job) -> Result:
        self.count += 1
        try:
            if job.cli is not None:
                return self._run_cli(job)
            return self._run_lib(job)
        finally:
            self._trim()

    # -- CLI jobs --

    def _run_cli(self, job: Job) -> Result:
        command, cfg = job.cli
        jobdir = self.work / f"job{self.count}"
        jobdir.mkdir(parents=True)
        cfg_path = jobdir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = jobdir / "out"
        argv = [command, "--config", str(cfg_path), "--out", str(out),
                "--grid", str(job.grid)]
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a raised job is a failed job, not a crash
            wall = perf_counter() - t0
            shutil.rmtree(jobdir)
            return Result(job, FAILED, wall, error=_describe(exc))
        wall = perf_counter() - t0
        try:
            res = self._check_cli(job, rc, out, wall)
            self._digest(job, out, res)
        except Exception as exc:  # missing or malformed output fails the job
            res = Result(job, FAILED, wall, error=_describe(exc))
        finally:
            shutil.rmtree(jobdir)
        return res

    def _check_cli(self, job: Job, rc: int, out: Path, wall: float) -> Result:
        command, cfg = job.cli
        if rc not in (0, 1, 2):
            raise checks.CheckError(f"exit code {rc}")
        man = checks.read_manifest(out)
        checks.check_exit_code(rc, man)
        res = Result(job, OK if rc == 0 else CERT_FAIL, wall)
        if rc == 2:
            res.outcome = INFEASIBLE
            return res
        if command == "approximate":
            report = json.loads((out / "report.json").read_text())
            checks.check_report(report, man)
            extras = report.get("extras", {})
            if "degree" in extras:
                res.degree_log2 = math.log2(max(extras["degree"], 1.0))
            if cfg["kind"] == "analytic_unit":
                checks.check_analytic_unit(out, job.grid, report)
        elif command == "represent":
            checks.check_stages(man, out)
        elif command == "build-spectrum":
            checks.check_spectrum_file(out, man, symmetric=True)
            res.support = man["size"]
        elif command == "riesz":
            sched = riesz_schedule(cfg)
            checks.check_riesz(man, sched, job.grid, min(cfg["n"], 60))
        elif command == "sharpness":
            checks.check_sharpness(man, cfg["A"], cfg["r"])
        return res

    def _digest(self, job: Job, out: Path, res: Result):
        self.cli_jobs += 1
        self.digest.update(f"job {self.cli_jobs} {job.kind}\n".encode())
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            self.digest.update(path.name.encode() + b"\0" + data)
            res.bytes_written += len(data)
            if path.suffix == ".csv":
                res.rows_written += max(data.count(b"\n") - 1, 0)
        if (out / "poly.csv").is_file() and res.support is None:
            res.support = max((out / "poly.csv").read_bytes().count(b"\n") - 1, 0)

    # -- library jobs --

    def _run_lib(self, job: Job) -> Result:
        fn = LIBRARY_JOBS[job.kind]
        t0 = perf_counter()
        try:
            value = fn(job)
        except approximants.ConstructionInfeasible:
            return Result(job, INFEASIBLE, perf_counter() - t0)
        except Exception as exc:  # a raised job is a failed job, not a crash
            return Result(job, FAILED, perf_counter() - t0, error=_describe(exc))
        wall = perf_counter() - t0
        res = Result(job, OK, wall)
        try:
            LIBRARY_CHECKS[job.kind](job, value, res)
        except Exception as exc:  # a result the check cannot read fails too
            res.outcome, res.error = FAILED, _describe(exc)
        if "p" in job.inputs:
            res.support = len(job.inputs["p"])
            res.degree_log2 = math.log2(max(abs(k) for k in job.inputs["p"]))
        return res


def _describe(exc: Exception) -> str:
    if isinstance(exc, checks.CheckError):
        return str(exc)
    return f"raised {type(exc).__name__}: {exc}"


def riesz_schedule(cfg: dict):
    """The frequencies `riesz` uses, rebuilt by the benchmark's own rule."""
    n, nu1 = cfg["n"], cfg.get("nu1", 9)
    freqs = [nu1 + 1 if nu1 % 2 == 0 else nu1]
    for k in range(1, n):
        cand = freqs[-1] * math.ceil(4.0 * 2.0 ** k)
        freqs.append(cand + 1 if cand % 2 == 0 else cand)
    return freqs


# -- library job bodies: what is timed -------------------------------------------

def _grid(job):
    return CircleGrid(job.grid)


LIBRARY_JOBS = {
    "s_star": lambda j: tp.s_star(j.inputs["P"], _grid(j)),
    "s_star_star": lambda j: tp.s_star_star(j.inputs["P"], _grid(j)),
    "multiply": lambda j: tp.multiply(j.inputs["P"], j.inputs["Q"]),
    "special_product": lambda j: tp.special_product(
        j.inputs["P"], j.inputs["Q"], j.params["r"]),
    "special_product_window": lambda j: [
        tp.special_product_window(j.inputs["P"], j.inputs["Q"], j.params["r"], n)
        for n in j.params["n"]],
    "partial_sum": lambda j: [tp.partial_sum(j.inputs["P"], n)
                              for n in j.params["n"]],
    "coeff_norms": lambda j: tp.coeff_norms(j.inputs["P"], j.params["ps"]),
    "almost_orthogonality": lambda j: riesz.almost_orthogonality(
        j.inputs["sched"], _grid(j)),
    "block.exact_rate": lambda j: approximants.block_approximant(
        j.inputs["f"], j.params["eps"], j.params["delta"], j.params["s"],
        j.params["a"], strict=False),
}


def _check_block(job, report, res):
    for name, cert in report.measured.items():
        checks.check_certificate(name, cert)
    if not report.all_passed():
        res.outcome = CERT_FAIL
    res.support = int(report.poly.spectrum_size())
    res.degree_log2 = float(report.poly.degree_log2())


def _check_norms(job, v, res):
    checks.check_coeff_norms(job.inputs["p"], job.params["ps"], v.linf, v.l1, v.lp)


def _check_windows(job, vals, res):
    for n, v in zip(job.params["n"], vals):
        checks.check_window(job.inputs["p"], job.inputs["q"], job.params["r"],
                            n, dict(v.coeffs))


def _check_partial(job, vals, res):
    for n, v in zip(job.params["n"], vals):
        checks.check_restriction(job.inputs["p"], -n, n, dict(v.coeffs),
                                 f"partial_sum n={n}")


LIBRARY_CHECKS = {
    "s_star": lambda j, v, r: checks.check_s_star(
        j.inputs["p"], j.grid, v.values, j.inputs["points"]),
    "s_star_star": lambda j, v, r: checks.check_s_star_star(
        j.inputs["p"], j.grid, v.values, j.inputs["points"]),
    "multiply": lambda j, v, r: checks.check_multiply(
        j.inputs["p"], j.inputs["q"], dict(v.coeffs)),
    "special_product": lambda j, v, r: checks.check_restriction(
        checks.special_product_coeffs(j.inputs["p"], j.inputs["q"], j.params["r"]),
        -math.inf, math.inf, dict(v.coeffs), "special_product"),
    "special_product_window": _check_windows,
    "partial_sum": _check_partial,
    "coeff_norms": _check_norms,
    "almost_orthogonality": lambda j, v, r: checks.check_almost_orthogonality(
        riesz_schedule({"n": j.params["n"], "nu1": j.params["nu1"]}), j.grid, v),
    "block.exact_rate": _check_block,
}
