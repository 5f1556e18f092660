"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from sparsetrig import approximants, cli, engines  # noqa: E402
from sparsetrig import trigpoly as tp  # noqa: E402
from sparsetrig.circle import CircleGrid  # noqa: E402


def _listing(workload, seed, rounds=2):
    out = []
    for i in range(rounds):
        for job in workloads.make_round(workload, seed, i):
            out.append((job.describe(), job.cli, sorted(job.inputs.get("p", {}).items())))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    assert _listing(workload, 7) == _listing(workload, 7)
    assert _listing(workload, 7) != _listing(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_round_has_the_same_kinds(workload):
    kinds = [sorted(j.kind for j in workloads.make_round(workload, s, i))
             for s in (1, 2) for i in (0, 3)]
    assert all(k == kinds[0] for k in kinds)


def test_self_time_of_a_synthetic_nested_call(monkeypatch):
    # clock reads: root, outer, inner, leaf, leaf end, inner end, outer end, root end
    ticks = iter([0.0, 1.0, 3.0, 3.5, 4.0, 6.0, 7.0, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(ticks))
    tr = tracing.Tracer()
    leaf = tr._wrap(lambda: "leaf", "trigpoly", "trigpoly.leaf")
    inner = tr._wrap(lambda: leaf(), "blockpoly", "blockpoly.inner")
    outer = tr._wrap(lambda: inner(), "approximants", "approximants.outer")
    root = tr.push(tracing.ROOT_KEY, tracing.ROOT_KEY)
    assert outer() == "leaf"
    tr.pop(root)
    assert tr.self_s == pytest.approx({"trigpoly.leaf": 0.5,
                                       "blockpoly.inner": 2.5,
                                       "approximants.outer": 3.0,
                                       tracing.ROOT_KEY: 4.0})
    assert sum(tr.layer_self_times().values()) == pytest.approx(10.0)
    assert [s[3] for s in tr.spans] == [3, 2, 1, 0]


def test_install_rebinds_names_across_the_package_and_restores():
    orig_korner = approximants.analytic_korner
    orig_block = engines.block_approximant
    orig_cmd = cli.COMMANDS["riesz"]
    orig_values = tp.TrigPoly.values
    tr = tracing.Tracer().install()
    try:
        assert tr.missing == []
        assert engines.block_approximant is approximants.block_approximant
        assert engines.block_approximant is not orig_block
        assert cli.COMMANDS["riesz"] is not orig_cmd
        assert cli.analytic_korner is approximants.analytic_korner
        assert tp.TrigPoly.values is not orig_values
    finally:
        tr.uninstall()
    assert approximants.analytic_korner is orig_korner
    assert engines.block_approximant is orig_block
    assert cli.COMMANDS["riesz"] is orig_cmd
    assert tp.TrigPoly.values is orig_values


def test_traced_jobs_attribute_self_time_and_counts(tmp_path):
    tr = tracing.Tracer().install()
    try:
        runner = workloads.Runner(tmp_path)
        rng = random.Random(3)
        jobs = [workloads.Job("s_star_star", {"support": 24}, workloads.EXACT_GRID),
                workloads.Job("riesz", {"n": 20}, 1024, ("riesz", {"n": 20}))]
        workloads._exact_params(rng, jobs[0])
        jobs[0].inputs["points"] = np.arange(0, workloads.EXACT_GRID, 997)
        tr.paused = True
        for job in jobs:
            workloads.prepare(job)
        tr.paused = False
        root = tr.push_root()
        outcomes = [runner.run(job).outcome for job in jobs]
        tr.pop(root)
    finally:
        tr.uninstall()
    assert workloads.FAILED not in outcomes
    m = tr.metrics()
    assert m["trigpoly.s_star_star.calls"][0] == 1
    assert m["trigpoly.s_star_star.cells"][0] == 24 * 24 * workloads.EXACT_GRID / 2
    assert m["trigpoly.construct.calls"][0] >= 24
    assert m["cli.command.calls"][0] == 1
    assert m["riesz.clt_check.calls"][0] == 1
    assert m["blockpoly.self_s"][0] == 0.0
    root_s = tr.spans[-1][2] - tr.spans[-1][1]
    assert sum(tr.layer_self_times().values()) == pytest.approx(root_s, rel=1e-9)


def test_per_layer_spec_is_unique_and_fits():
    names = [n for n, _, _ in tracing.per_layer_spec()]
    assert len(names) == len(set(names)) <= 128


# -- the checks catch injected errors ----------------------------------------------

def _poly(seed, support=20, degree=60, zero_mean=False):
    return workloads.random_coeffs(random.Random(seed), support, degree, zero_mean)


def test_window_maxima_checks_catch_a_wrong_value():
    p, m = _poly(1), 256
    pts = np.arange(0, m, 17)
    for fn, check in ((tp.s_star, checks.check_s_star),
                      (tp.s_star_star, checks.check_s_star_star)):
        vals = fn(tp.TrigPoly(p), CircleGrid(m)).values.copy()
        check(p, m, vals, pts)
        vals[pts[3]] *= 1 + 1e-7
        with pytest.raises(checks.CheckError):
            check(p, m, vals, pts)


def test_multiply_and_window_checks_catch_a_wrong_coefficient():
    p, q = _poly(2), _poly(3)
    prod = dict(tp.multiply(tp.TrigPoly(p), tp.TrigPoly(q)).coeffs)
    checks.check_multiply(p, q, prod)
    k = next(iter(prod))
    prod[k] += 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_multiply(p, q, prod)

    q0 = _poly(4, zero_mean=True)
    r = 2 * max(abs(k) for k in p) + 3
    win = dict(tp.special_product_window(tp.TrigPoly(p), tp.TrigPoly(q0), r, 500).coeffs)
    checks.check_window(p, q0, r, 500, win)
    win.pop(next(iter(win)))
    with pytest.raises(checks.CheckError):
        checks.check_window(p, q0, r, 500, win)


def test_certificate_and_exit_code_contradictions_are_caught():
    checks.check_certificate("a", {"measured": 0.1, "bound": 0.2, "pass": True})
    with pytest.raises(checks.CheckError):
        checks.check_certificate("a", {"measured": 0.3, "bound": 0.2, "pass": True})
    with pytest.raises(checks.CheckError):
        checks.check_certificate("a", {"measured": 0.1, "bound": 0.2, "pass": False})
    with pytest.raises(checks.CheckError):
        checks.check_exit_code(0, {"certificates_passed": False})
    with pytest.raises(checks.CheckError):
        checks.check_exit_code(2, {"certificates_passed": False})


def test_grid_l0_matches_the_definition():
    rng = np.random.default_rng(5)
    a = np.abs(rng.normal(size=400))
    l0 = checks.grid_l0(a)
    assert np.count_nonzero(a > l0 + 1e-12) / a.size < l0 + 1e-12
    assert not np.count_nonzero(a > l0 - 1e-6) / a.size < l0 - 1e-6


# -- outcomes ----------------------------------------------------------------------

def test_raise_is_failed_and_infeasible_is_not(tmp_path, monkeypatch):
    def boom(job):
        raise ValueError("boom")

    def infeasible(job):
        raise approximants.ConstructionInfeasible("too small", {"why": 1})

    monkeypatch.setitem(workloads.LIBRARY_JOBS, "boom", boom)
    monkeypatch.setitem(workloads.LIBRARY_JOBS, "infeasible", infeasible)
    runner = workloads.Runner(tmp_path)
    assert runner.run(workloads.Job("boom", {}, 64)).outcome == workloads.FAILED
    res = runner.run(workloads.Job("infeasible", {}, 64))
    assert res.outcome == workloads.INFEASIBLE


def test_cli_without_manifest_is_failed_and_infeasible_exit_is_not(tmp_path):
    runner = workloads.Runner(tmp_path)
    bad = workloads.Job("x", {}, 256, ("riesz", {"n": 5, "bogus": 1}))
    assert runner.run(bad).outcome == workloads.FAILED
    infeasible = workloads.Job("x", {}, 256, ("approximate", {
        "kind": "block", "target": "const", "eps": 0.3, "delta": 0.3,
        "s": 100, "a": 3}))
    assert runner.run(infeasible).outcome == workloads.INFEASIBLE


def test_riesz_schedule_matches_the_program():
    from sparsetrig import riesz
    for n, nu1 in ((60, 9), (7, 4)):
        assert workloads.riesz_schedule({"n": n, "nu1": nu1}) == \
            list(riesz.make_schedule(n, nu1=nu1).frequencies)
