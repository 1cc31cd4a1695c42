"""Outer loop: box initialization, cut generation, refinement runs."""

import numpy as np
import pytest

from drrcalc.analysis import vertices_2d
from drrcalc.caseio import StudyConfig
from drrcalc.dispatch_model import build_compact, feasibility_model, initial_dispatch
from drrcalc.engine import CONVERGED, init_w0, run
from drrcalc.errors import DegenerateCut, EmptyRegionError, NoRenewables
from drrcalc.maxmin_milp import MaxMinSolution, cut_vector, solve_maxmin_milp
from tests.conftest import box_bounds, load_case, recorded_run


def test_init_w0_twobus(twobus, cfg):
    W0 = init_w0(build_compact(twobus, initial_dispatch(twobus, cfg)))
    lo, hi = box_bounds(W0)
    assert lo == pytest.approx([0.0])
    assert hi == pytest.approx([1.0])  # 100 MW installed on a 100 MVA base
    assert all(p.kind == "InitialBox" for p in W0.provenance)


def test_init_w0_pjm5_facets(pjm5, cfg):
    W0 = init_w0(build_compact(pjm5, initial_dispatch(pjm5, cfg)))
    assert W0.n_facets == 4
    labels = [p.label() for p in W0.provenance]
    assert "initial upper bound of farm 0" in labels
    assert "initial lower bound of farm 1" in labels


def test_init_w0_requires_renewables(pjm5, cfg):
    from dataclasses import replace
    bare = replace(pjm5, renewable=(), forecast_mw=())
    m = build_compact(bare, initial_dispatch(bare, cfg))
    assert m.n_w == 0
    with pytest.raises(NoRenewables):
        init_w0(m)


def test_cut_vector_separates_worst_point(twobus, cfg):
    m = build_compact(twobus, initial_dispatch(twobus, cfg))
    W0 = init_w0(m)
    sol = solve_maxmin_milp(m, W0, cfg)
    normal, offset = cut_vector(sol, m)
    assert np.linalg.norm(normal) == pytest.approx(1.0)
    assert normal @ sol.w_star - offset > 1e-9
    # Pre-normalization, the violation at w* equals the oracle objective.
    raw_violation = -(sol.alpha @ m.A) @ sol.w_star \
        + (sol.alpha @ m.b - sol.delta @ m.d)
    assert raw_violation == pytest.approx(sol.F, abs=1e-8)


def test_cut_vector_rejects_zero_duals(twobus, cfg):
    m = build_compact(twobus, initial_dispatch(twobus, cfg))
    sol = MaxMinSolution(F=1.0, w_star=np.array([0.5]),
                         alpha=np.zeros(m.b.size), delta=np.zeros(m.d.size))
    with pytest.raises(DegenerateCut):
        cut_vector(sol, m)


@pytest.mark.parametrize("method", ["milp", "iblp"])
def test_twobus_run_converges_to_band(twobus, method):
    cfg = StudyConfig(s1_count=40)
    res = run(twobus, cfg, method=method)
    assert res.termination == CONVERGED
    base = twobus.base_mva
    lo, hi = box_bounds(res.region)
    assert lo[0] * base == pytest.approx(45.0, abs=1e-6)
    assert hi[0] * base == pytest.approx(65.0, abs=1e-6)
    assert res.trace[-1].F <= cfg.eps_term


def test_milp_trace_monotone_and_nested():
    rec = recorded_run("case5_wind", "milp")
    res = rec.result
    assert res.termination == CONVERGED
    Fs = [t.F for t in res.trace]
    assert all(b <= a + 1e-9 for a, b in zip(Fs, Fs[1:]))
    assert all(F >= -1e-9 for F in Fs)
    # Nesting on sampled points: anything outside W_k stays outside W_{k+1},
    # from the box W_0 that the first oracle call searched to the result.
    rng = np.random.default_rng(0)
    lo, hi = box_bounds(init_w0(res.model))
    pts = rng.uniform(lo, hi, size=(100, 2))
    regions = [call.region for call in rec.calls] + [res.region]
    assert len(regions) == res.iterations + 1
    for prev, nxt in zip(regions, regions[1:]):
        in_prev = np.all(pts @ prev.H.T <= prev.f + 1e-9, axis=1)
        in_next = np.all(pts @ nxt.H.T <= nxt.f + 1e-9, axis=1)
        assert not np.any(in_next & ~in_prev)


def test_cut_soundness_on_certified_points():
    rec = recorded_run("case5_wind", "milp")
    res, m = rec.result, rec.result.model
    cuts = rec.cuts()
    assert len(cuts) == sum(t.cuts_added for t in res.trace)
    rng = np.random.default_rng(8)
    lo, hi = box_bounds(res.region)
    kept = 0
    for _ in range(200):
        w = rng.uniform(lo, hi)
        if not res.region.contains(w, tol=-1e-6):
            continue
        if feasibility_model(m, w).objective > 1e-9:
            continue
        kept += 1
        for normal, offset, _ in cuts:
            assert normal @ w - offset <= 1e-6
    assert kept >= 50


def test_empty_region_via_contradicting_cut(twobus, cfg, monkeypatch):
    # The forecast is dispatchable, so every valid cut keeps it and the
    # region is never empty; fabricate an oracle whose cut demands
    # w >= 150 MW against the 100 MW box: pruning raises, no region is
    # returned.
    import drrcalc.engine as eng
    m = build_compact(twobus, initial_dispatch(twobus, cfg))
    alpha = np.zeros(m.b.size)
    alpha[1] = 1.0  # balance row of the farm bus: b = 1.5 pu load there
    fake = MaxMinSolution(F=0.5, w_star=np.array([1.0]), alpha=alpha,
                          delta=np.zeros(m.d.size))
    monkeypatch.setattr(eng, "solve_maxmin_milp", lambda *a, **k: fake)
    with pytest.raises(EmptyRegionError, match="no feasible point"):
        eng.run(twobus, cfg, method="milp")


def test_empty_region_via_zero_direction_certificate(twobus, cfg, monkeypatch):
    # A zero dual direction with a positive violation would make every w,
    # the forecast too, undispatchable: a fault, raised as such.
    import drrcalc.engine as eng
    m = build_compact(twobus, initial_dispatch(twobus, cfg))
    fake = MaxMinSolution(F=0.5, w_star=np.array([1.0]),
                          alpha=np.zeros(m.b.size), delta=np.zeros(m.d.size))
    monkeypatch.setattr(eng, "solve_maxmin_milp", lambda *a, **k: fake)
    with pytest.raises(DegenerateCut, match="cut normal vanished"):
        eng.run(twobus, cfg, method="milp")


def test_run_result_metadata(twobus):
    cfg = StudyConfig(s1_count=25, seed=3, thread_count=2)
    res = run(twobus, cfg, method="iblp")
    assert res.method == "iblp"
    assert res.config_echo["seed"] == 3
    assert "thread_count" not in res.config_echo
    assert res.config_echo["s1_count"] == 25
    assert res.iterations == len(res.trace)


def test_iblp_one_pool_per_run_and_scenario_accounting(pjm5, monkeypatch):
    import concurrent.futures
    import os

    import drrcalc.maxmin_iblp as iblp
    events = []
    base = concurrent.futures.ThreadPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            events.append("start")

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            events.append("shutdown")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any box
    module_state = dict(vars(iblp))
    res = run(pjm5, StudyConfig(s1_count=30, thread_count=2), method="iblp")
    assert res.iterations > 1
    assert events == ["start", "shutdown"]
    # The run leaves no state behind in the module.
    assert vars(iblp).keys() == module_state.keys()
    assert all(vars(iblp)[k] is v for k, v in module_state.items())
    facets_before = 4  # initial box of the two farms
    for rec in res.trace:
        d = rec.oracle_diag
        assert d["scenarios_started"] == 30 + facets_before
        assert d["scenarios_failed"] == 0
        assert d["scenarios_kept"] <= d["scenarios_positive"]
        assert d["lp_solves"] + d["memo_hits"] > 0
        facets_before = rec.facets_after


def test_iblp_run_and_binding_start_no_process(pjm5, monkeypatch):
    # README's contract: every run is one process.  The worker pool is
    # threads, in the run's own process, at any worker count.
    import os

    from drrcalc.binding import identify

    def no_fork():
        raise AssertionError("the run forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any box
    cfg = StudyConfig(thread_count=2)
    res = run(pjm5, cfg, method="iblp")
    identify(res.model, res.region, np.array(pjm5.forecast_mw) / pjm5.base_mva, cfg)


def test_iblp_same_bytes_and_lps_for_any_worker_count(pjm5, tmp_path):
    from drrcalc.analysis import export_artifacts, high_risk_event
    from drrcalc.binding import identify
    w_bar_mw = np.array(pjm5.forecast_mw)
    seen = {}
    for threads in (1, 2, 3):
        cfg = StudyConfig(s1_count=30, thread_count=threads)
        res = run(pjm5, cfg, method="iblp")
        w_bar = w_bar_mw / pjm5.base_mva
        report = identify(res.model, res.region, w_bar, cfg)
        event = high_risk_event(res.region, w_bar, base_mva=pjm5.base_mva)
        out = tmp_path / str(threads)
        export_artifacts(res, report, event, out, w_bar_mw=w_bar_mw)
        seen[threads] = ((out / "region.json").read_bytes(),
                         (out / "binding.json").read_bytes(),
                         [(rec.oracle_diag["lp_solves"], rec.oracle_diag["memo_hits"],
                           rec.oracle_diag["multiplier_steps"]) for rec in res.trace])
    assert seen[1] == seen[2] == seen[3]


def test_iblp_projected_and_deduplicated_scenarios(pjm5):
    from drrcalc.maxmin_iblp import make_scenarios
    cfg = StudyConfig(seed=0)
    recorded = recorded_run("case5_wind", "iblp", seed=0)
    res = recorded.result
    w_bar = np.array(pjm5.forecast_mw) / pjm5.base_mva
    assert len(recorded.calls) == res.iterations
    for rec, call in zip(res.trace, recorded.calls):
        d = rec.oracle_diag
        W = call.region
        starts = make_scenarios(res.model.farm_capacity_pu, W, w_bar, cfg).combined()
        assert d["scenarios_projected"] == sum(not W.contains(w, tol=1e-9)
                                               for w in starts)
        # Every positive scenario is kept or dropped as a duplicate cut.
        assert d["scenarios_kept"] + d["scenarios_deduplicated"] == d["scenarios_positive"]
    assert sum(rec.oracle_diag["scenarios_projected"] for rec in res.trace) > 0
    assert sum(rec.oracle_diag["scenarios_deduplicated"] for rec in res.trace) > 0


def test_zero_capacity_farm_degenerate_box(twobus):
    # Farm pinned at 0 MW with a load the fleet can carry alone: the engine
    # verifies the degenerate box and stops at once.
    from dataclasses import replace
    raw = twobus.raw
    shrunk = replace(
        raw,
        buses=tuple(replace(b, load_mw=100.0) if b.load_mw else b
                    for b in raw.buses),
        generators=tuple(replace(g, p_max_mw=0.0) if i == 2 else g
                         for i, g in enumerate(raw.generators)),
    )
    case = replace(twobus, raw=shrunk, forecast_mw=(0.0,))
    res = run(case, StudyConfig(s1_count=5), method="milp")
    assert res.termination == CONVERGED
    assert res.iterations == 1
    lo, hi = box_bounds(res.region)
    assert lo[0] == hi[0] == 0.0


def test_cut_batch_cap_limits_cuts_per_iteration(pjm5):
    capped = run(pjm5, StudyConfig(cut_batch_cap=1, s1_count=30), method="iblp")
    assert capped.termination == CONVERGED
    assert all(t.cuts_added <= 1 for t in capped.trace)
    free = run(pjm5, StudyConfig(s1_count=30), method="iblp")
    # Same converged region either way, possibly after more iterations:
    # PJM-5 is 2-D, so the two regions are equal when their vertices are.
    a, b = vertices_2d(capped.region), vertices_2d(free.region)
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= 1e-9


@pytest.mark.parametrize("stem", ["case2_ramp", "case5_wind", "case39_wind"])
@pytest.mark.parametrize("method, seed", [("milp", 0), *[("iblp", s) for s in range(4)]],
                         ids=["milp-0", "iblp-0", "iblp-1", "iblp-2", "iblp-3"])
def test_the_forecast_is_in_every_region(stem, method, seed):
    # The premise that lets no run end empty: the forecast is dispatchable,
    # so every valid cut keeps it, at every step of the loop.
    recorded = recorded_run(stem, method, seed)
    w_bar = np.array(load_case(stem).forecast_mw) / recorded.result.model.base_mva
    assert feasibility_model(recorded.result.model, w_bar).objective <= 1e-9
    regions = [recorded.result.region]
    for call in recorded.calls:
        regions += [R for R in (call.region, call.cut, call.pruned) if R is not None]
    assert all(R.contains(w_bar, tol=1e-9) for R in regions)


def test_the_forecast_is_dispatchable_on_random_systems():
    from drrcalc.errors import InfeasibleDispatch
    from tests.test_acceptance import _random_threebus
    dispatched = 0
    for seed in range(1, 41):
        case = _random_threebus(seed)
        cfg = StudyConfig()
        try:
            dp = initial_dispatch(case, cfg)
        except InfeasibleDispatch:
            continue
        dispatched += 1
        w_bar = np.array(case.forecast_mw) / case.base_mva
        assert feasibility_model(build_compact(case, dp), w_bar).objective <= 1e-9
    assert dispatched == 38  # seeds 27 and 31 have no dispatch to start from
