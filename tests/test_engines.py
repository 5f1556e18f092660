import math

import numpy as np

from sparsetrig.blocks import (BuiltSpectrum, ManifestEntry, SpectrumSet,
                               build_hadamard_spectrum)
from sparsetrig.circle import CircleGrid, SampledFunction
from sparsetrig.engines import (ENGINE_GRID_SIZE, RepresentationRun, RunStage,
                                _Modulated, run_ae_engine,
                                run_asymptotic_l2_engine, run_infinity_mode,
                                run_measure_engine, run_squares_engine,
                                run_stoptime_engine)
from sparsetrig.targets import (const, cosk, plus_infinity_arc, sign_t, step,
                               zero)
from sparsetrig.trigpoly import TrigPoly

GRID = CircleGrid(ENGINE_GRID_SIZE)


def test_ae_engine_zero_target():
    built = build_hadamard_spectrum(lambda n: 1.0 / (n + 2), 60)
    run = run_ae_engine(zero(GRID), built, 3)
    assert len(run.stages) == 3
    assert run.all_certificates_passed()
    assert run.residual_l0() == 0.0
    assert run.follows_chain_ok()


def test_ae_engine_step_flags_honestly():
    built = build_hadamard_spectrum(lambda n: 1.0 / (n + 2), 60)
    run = run_ae_engine(step(GRID), built, 3)
    # the jump target cannot be served by the one-sided unit approximants
    # at stage tolerances; the run must say so rather than pretend
    assert run.flags.get("exhausted") or run.flags.get("infeasible")
    assert not run.all_certificates_passed()


def test_ae_engine_builds_a_stage_then_skips():
    # two blocks large enough for a payload: const needs only the two-sided
    # dip, so stage 1 fits the first block, while cosk's carrier degree 1
    # needs a one-sided unit approximant no quality budget allows
    built = BuiltSpectrum(SpectrumSet((1, 2)),
                          (ManifestEntry("B", 150000, 3),
                           ManifestEntry("B", 200000, 3)))
    run = run_ae_engine(const(GRID, 1.0), built, 3)
    [stage] = run.stages
    assert stage.block == {"kind": "B", "s": 150000, "a": 3, "nu": None}
    assert list(stage.certificates) == ["residual_measure", "sstar_measure"]
    assert stage.ok and all(c["pass"] for c in stage.certificates.values())
    assert run.flags == {
        "skipped_blocks": [{"n": 2, "s": 200000, "a": 3, "reason":
                            "no carrier-degree approximant reaches the "
                            "(delta/3, eps/3) bound; required order exceeds "
                            "4096"}],
        "exhausted": True, "notes": ["manifest exhausted before stage 2"]}
    run = run_ae_engine(cosk(GRID, 1), built, 3)
    assert run.stages == []
    reason = ("one-sided unit approximant infeasible at quality 0.0556 "
              "(needed for carrier degree 1)")
    assert run.flags["skipped_blocks"] == [
        {"n": 1, "s": s, "a": 3, "reason": reason} for s in (150000, 200000)]
    assert run.flags["notes"] == ["manifest exhausted before stage 1"]


def test_squares_engine_stage1_honest():
    run = run_squares_engine(const(GRID, 1.0), 4)
    assert len(run.stages) >= 1
    st1 = run.stages[0]
    assert st1.certificates["stage_error_measure"]["pass"]
    # stage 2 needs blocks beyond the stage-1 carrier frequency: the run
    # records the tower-growth infeasibility instead of faking it
    assert run.flags.get("infeasible", {}).get("stage") == 2
    assert "median_final_residual" in run.flags


def test_stoptime_zero_target():
    mask = (GRID.points >= 0) & (GRID.points < math.pi / 2)
    run = run_stoptime_engine(zero(GRID), mask, 0.25)
    assert len(run.stages) == 1
    assert run.flags["cert_l0"] == 0.0
    assert run.flags["cert_outside_fraction"] == 0.0


def test_stoptime_builds_a_modulated_stage():
    # at a budget past every tiled-dip degree the stage-0 construction is
    # feasible; with eps = 16 the first residual already stops the run
    grid = CircleGrid(4096)
    mask = (grid.points >= 0) & (grid.points < math.pi / 2)
    run = run_stoptime_engine(const(grid, 10.0), mask, 16.0, s_budget=10 ** 210)
    [stage] = run.stages
    assert type(stage.poly) is _Modulated and stage.poly.kind == "exp"
    assert "cert_outside_fraction" in run.flags
    assert "stop_unreached" not in run.flags


def test_stoptime_indicator_flags():
    mask = (GRID.points >= 0) & (GRID.points < math.pi / 2)
    f = SampledFunction(GRID, mask.astype(complex))
    run = run_stoptime_engine(f, mask, 0.25, max_stages=3)
    assert run.flags.get("infeasible") is not None


def test_measure_engine_zero():
    run = run_measure_engine(zero(GRID), 3)
    assert all(st.ok for st in run.stages)
    assert run.residual_l0() == 0.0


def test_asymptotic_engine_reports():
    run = run_asymptotic_l2_engine(sign_t(GRID), 1)
    assert len(run.stages) == 1
    st = run.stages[0]
    assert "exceptional_measure" in st.certificates
    assert "l2_window_norm" in st.certificates
    assert "l2_window_norms" in run.flags
    # on a finite target the infinity mode runs the same stages: only the
    # finite/infinite split of the L2 window norm is added
    inf_run = run_infinity_mode(sign_t(GRID), 1)
    inf_certs = inf_run.stages[0].certificates
    assert inf_certs["l2_window_norm_finite"] == st.certificates["l2_window_norm"]
    assert inf_certs["l2_window_norm_infinite"]["measured"] == 0.0
    split = ("l2_window_norm_finite", "l2_window_norm_infinite")
    inf_stages = [{**stage, "certificates": {
        k: v for k, v in stage["certificates"].items() if k not in split}}
        for stage in inf_run.manifest()["stages"]]
    assert inf_stages == run.manifest()["stages"]
    assert np.array_equal(inf_run.final_residual, run.final_residual)


def test_infinity_mode_finite_matches_asymptotic_shape():
    f = plus_infinity_arc(GRID, 0.0, 1.0)
    run = run_infinity_mode(f, 1)
    st = run.stages[0]
    assert "l2_window_norm_finite" in st.certificates
    assert "l2_window_norm_infinite" in st.certificates


def _synthetic_run(grid) -> RepresentationRun:
    # small materializable run: two stages with following spectra
    p1 = TrigPoly({-2: 0.5, 2: 0.5})
    p2 = TrigPoly({-6: 0.25j, 6: -0.25j})
    target = SampledFunction(grid, p1.values(grid) + p2.values(grid))
    run = RepresentationRun("synthetic", target, grid)
    run.stages.append(RunStage(1, None, p1))
    run.stages.append(RunStage(2, None, p2))
    run.final_residual = np.zeros(grid.size, dtype=complex)
    return run


def test_run_manifest_serializes():
    import json
    run = _synthetic_run(CircleGrid(64))
    data = json.loads(run.to_json())
    assert data["engine"] == "synthetic"
    assert len(data["stages"]) == 2


def test_follows_chain_ok_compares_stage_spectra():
    run = _synthetic_run(CircleGrid(64))
    assert run.follows_chain_ok()
    run.stages.reverse()
    assert not run.follows_chain_ok()
