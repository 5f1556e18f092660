"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Runs the workload's seeded rounds as a closed loop (one client, one compute
thread) until --seconds have passed, checks every job, and prints per-job
records, a digest of the CLI output bytes, every metric by name with its
unit, and as the last line one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics;
--trace 1 wraps the package's layers and reports the per-layer metrics.
"""

from __future__ import annotations

import os

# one compute thread: pin every BLAS/OpenMP pool before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_spans"

#: setup_s is the median of this process's set-up and that of this many
#: fresh processes, each started at the first job boundary after another
#: 1/SETUP_CHILDREN of --seconds has passed, so that one slow moment of the
#: machine does not set the figure
SETUP_CHILDREN = 4
SETUP_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, set-up failed)."""


def import_program():
    """Import sparsetrig from this checkout's src/, and only from there."""
    if not (SRC / "sparsetrig" / "__init__.py").is_file():
        raise BenchError(f"no sparsetrig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import sparsetrig
    if Path(sparsetrig.__file__).resolve().parent != SRC / "sparsetrig":
        raise BenchError(f"imported sparsetrig from {sparsetrig.__file__}")
    import workloads
    return workloads


def warm_up(workloads, name: str, runner):
    """One call per job kind on its smallest input, outside timing.

    CLI kinds run their cheapest config: the largest eps, zero engine
    stages, tiny grids where the kind allows one.  analytic_korner always
    builds the same 65536-coefficient unit approximant through the CLI, so
    its warm-up is the library call at a 256-point grid with a coarser
    unit and nine tiles; korner and the exact-rate block warm up as library
    calls too.
    """
    from sparsetrig import approximants
    from sparsetrig.circle import CircleGrid
    Job = workloads.Job
    small = 256
    jobs = []
    if name == "analytic":
        jobs += [Job("warm", {}, workloads.CLI_GRID, ("approximate", {
            "kind": "analytic_unit", "eps": 0.45}))]
        approximants.analytic_korner(0.45, grid=CircleGrid(small),
                                     unit_floor=0.45, k_cap=9, strict=False)
        for engine, target in (("asymptotic_l2", "cosk"),
                               ("infinity", "plus_infinity_arc")):
            jobs.append(Job("warm", {}, workloads.ENGINE_GRID, ("represent", {
                "engine": engine, "target": target, "stages": 0})))
    elif name == "twosided":
        approximants.korner_polynomial(0.9, 0.9, grid=CircleGrid(small),
                                       strict=False)
        jobs.append(Job("warm", {}, small, ("approximate", {
            "kind": "block", "target": "const", "eps": 0.4, "delta": 0.4,
            "s": 150000, "a": 3})))
        for engine in ("squares", "measure", "ae"):
            jobs.append(Job("warm", {}, small, ("represent", {
                "engine": engine, "target": "const", "stages": 0})))
        jobs.append(Job("warm", {}, small, ("represent", {
            "engine": "stoptime", "target": "const"})))
        jobs.append(Job("warm", {}, small, ("build-spectrum", {
            "kind": "hadamard", "eps": "1/n", "n": 20})))
        jobs.append(Job("warm", {}, small, ("build-spectrum", {
            "kind": "squares", "blocks": 1})))
        # the smallest exact-rate block: s = 4000 stops at the tiled-dip stage
        f = workloads.targets.const(CircleGrid(small), 1.0)
        try:
            approximants.block_approximant(f, 0.4, 0.4, 4000, 3, strict=False)
        except approximants.ConstructionInfeasible:
            pass
    else:
        import random
        rng = random.Random("warm")
        for kind in ("s_star_star", "s_star", "multiply", "special_product",
                     "special_product_window", "partial_sum", "coeff_norms"):
            job = Job(kind, {"support": 64}, workloads.EXACT_GRID)
            workloads._exact_params(rng, job)
            jobs.append(job)
        jobs.append(Job("almost_orthogonality", {"n": 20, "nu1": 9},
                        workloads.EXACT_GRID))
        jobs.append(Job("warm", {}, workloads.CLI_GRID, ("riesz", {"n": 60})))
        jobs.append(Job("warm", {}, workloads.CLI_GRID,
                        ("sharpness", {"A": 1, "r": 3})))
    for job in jobs:
        workloads.prepare(job)
        res = runner.run(job)
        if res.outcome == workloads.FAILED:
            raise BenchError(f"warm-up {job.kind} {job.cli} failed: {res.error}")


def set_up(name: str, seed: int, work: Path):
    """Imports, grids, seeded inputs of the first round, warm-up calls."""
    workloads = import_program()
    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}")
    runner = workloads.Runner(work / "warm")
    warm_up(workloads, name, runner)
    first = workloads.make_round(name, seed, 0)
    for job in first:
        workloads.prepare(job)
    return workloads, first


def process_age() -> float:
    """Seconds since this process was started (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def measure_setup(args) -> float:
    """Set-up wall time of a fresh process, from spawn to first timed job."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    work = WORK / f"run{os.getpid()}"
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, work)
            print(f"ready {time.monotonic()!r}")
            return 0
        return bench(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_rounds(workloads, args, first, runner, tr=None, setup_samples=None):
    """Whole rounds until --seconds have passed; returns results and wall.

    Given a list setup_samples, the SETUP_CHILDREN set-up processes run
    between jobs, one each time another share of --seconds has passed, and
    their time is kept off the loop's clock.
    """
    results = []
    due = [] if setup_samples is None else [
        args.seconds * (i + 1) / SETUP_CHILDREN for i in range(SETUP_CHILDREN)]
    t_start = time.perf_counter()
    root = tr.push_root() if tr else None
    index, rnd = 0, first
    while True:
        for job in rnd:
            res = runner.run(job)
            results.append(res)
            if tr is not None:
                tr.counts["cli.bytes_written"] += res.bytes_written
                tr.counts["cli.rows_written"] += res.rows_written
            while due and time.perf_counter() - t_start >= due[0]:
                due.pop(0)
                t0 = time.perf_counter()
                setup_samples.append(measure_setup(args))
                t_start += time.perf_counter() - t0
        if time.perf_counter() - t_start >= args.seconds:
            break
        index += 1
        rnd = workloads.make_round(args.workload, args.seed, index)
        if tr is not None:
            tr.paused = True
        for job in rnd:
            workloads.prepare(job)
        if tr is not None:
            tr.paused = False
    t_end = time.perf_counter()
    if tr is not None:
        tr.pop(root, t_end)
        tr.uninstall()
    for _ in due:
        setup_samples.append(measure_setup(args))
    return results, t_end - t_start


def per_layer_metrics(tr, wall: float, jobs_per_s: float, spans_name: str):
    metrics = tr.metrics()
    metrics["harness.wall_s"] = (wall, "s")
    metrics["harness.traced_jobs_per_s"] = (jobs_per_s, "jobs/s")
    layers = tr.layer_self_times()
    total = sum(layers.values())
    print(f"trace_sum layers+harness {total:.6f} s vs wall {wall:.6f} s "
          f"(error {abs(total - wall) / wall:.3e})")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"share {layer} {s / wall:.4f}")
    SPANS.mkdir(exist_ok=True)
    spans = SPANS / spans_name
    tr.write_spans(spans)
    print(f"spans {len(tr.spans)} written to {spans.relative_to(ROOT)}")
    return metrics


def bench(args, work: Path) -> int:
    workloads, first = set_up(args.workload, args.seed, work)
    setup_samples = None if args.trace else [process_age()]
    tr = None
    if args.trace:
        import tracer
        tr = tracer.Tracer().install()
        if tr.missing:
            print("untraced (absent): " + ", ".join(tr.missing))
    runner = workloads.Runner(work / "jobs")
    results, wall = run_rounds(workloads, args, first, runner, tr,
                               setup_samples)

    for res in results:
        print("job " + json.dumps(res.record(), sort_keys=True))
    print(f"digest {args.workload} sha256:{runner.digest.hexdigest()} "
          f"over {runner.cli_jobs} CLI jobs")
    failed = sum(r.outcome == workloads.FAILED for r in results)
    attempted = len(results)
    walls = [r.wall_s for r in results]
    outcomes = {o: sum(r.outcome == o for r in results)
                for o in (workloads.OK, workloads.CERT_FAIL,
                          workloads.INFEASIBLE, workloads.FAILED)}
    print(f"jobs_attempted {attempted} outcomes {json.dumps(outcomes)}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    # a tail percentile is reported only with at least ten jobs beyond it
    if attempted >= 100:
        print(f"job_s.p90 {statistics.quantiles(walls, n=10)[8]:.6g} s")
    else:
        print(f"job_s.p90 not reported: {attempted} jobs, 100 needed")

    jobs_per_s = attempted / sum(walls)
    if tr is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup_samples))
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "jobs_per_s": (jobs_per_s, "jobs/s"),
            "job_s.p50": (statistics.median(walls), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    else:
        metrics = per_layer_metrics(tr, wall, jobs_per_s,
                                    f"{args.workload}-{args.seed}.txt")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
