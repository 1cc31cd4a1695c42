"""Outer loop: box initialization, cut generation, refinement runs."""

import numpy as np
import pytest

from drrcalc.caseio import StudyConfig
from drrcalc.dispatch_model import build_compact, feasibility_model, initial_dispatch
from drrcalc.engine import (CONVERGED, EMPTY_REGION, init_w0, make_cut,
                            run)
from drrcalc.errors import DegenerateCut, NoRenewables
from drrcalc.maxmin_milp import MaxMinSolution, solve_maxmin_milp


def test_init_w0_twobus(twobus):
    W0 = init_w0(twobus)
    lo, hi = W0.box_bounds()
    assert lo == pytest.approx([0.0])
    assert hi == pytest.approx([1.0])  # 100 MW installed on a 100 MVA base
    assert all(p.kind == "InitialBox" for p in W0.provenance)


def test_init_w0_pjm5_facets(pjm5):
    W0 = init_w0(pjm5)
    assert W0.n_facets == 4
    labels = [p.label() for p in W0.provenance]
    assert "initial upper bound of farm 0" in labels
    assert "initial lower bound of farm 1" in labels


def test_init_w0_requires_renewables(twobus):
    from dataclasses import replace
    bare = replace(twobus, renewable=(), forecast_mw=())
    with pytest.raises(NoRenewables):
        init_w0(bare)


def test_make_cut_separates_worst_point(twobus, cfg):
    m = build_compact(twobus, initial_dispatch(twobus, cfg))
    W0 = init_w0(twobus)
    sol = solve_maxmin_milp(m, W0, cfg)
    cut = make_cut(sol, m)
    assert np.linalg.norm(cut.normal) == pytest.approx(1.0)
    assert cut.violation_at(sol.w_star) > 1e-9
    # Pre-normalization, the violation at w* equals the oracle objective.
    raw_violation = -(sol.alpha @ m.A) @ sol.w_star \
        + (sol.alpha @ m.b - sol.delta @ m.d)
    assert raw_violation == pytest.approx(sol.F, abs=1e-8)


def test_make_cut_rejects_zero_duals(twobus, cfg):
    m = build_compact(twobus, initial_dispatch(twobus, cfg))
    sol = MaxMinSolution(F=1.0, w_star=np.array([0.5]),
                         alpha=np.zeros(m.b.size), delta=np.zeros(m.d.size),
                         theta=None, method="milp")
    with pytest.raises(DegenerateCut):
        make_cut(sol, m)


@pytest.mark.parametrize("method", ["milp", "iblp"])
def test_twobus_run_converges_to_band(twobus, method):
    cfg = StudyConfig(s1_count=40)
    res = run(twobus, cfg, method=method)
    assert res.termination == CONVERGED
    base = twobus.base_mva
    lo, hi = res.region.box_bounds()
    assert lo[0] * base == pytest.approx(45.0, abs=1e-6)
    assert hi[0] * base == pytest.approx(65.0, abs=1e-6)
    assert res.trace[-1].F <= cfg.eps_term


def test_milp_trace_monotone_and_nested(pjm5, cfg):
    res = run(pjm5, cfg, method="milp")
    assert res.termination == CONVERGED
    Fs = [t.F for t in res.trace]
    assert all(b <= a + 1e-9 for a, b in zip(Fs, Fs[1:]))
    assert all(F >= -1e-9 for F in Fs)
    # Nesting on sampled points: anything outside W_k stays outside W_{k+1}.
    rng = np.random.default_rng(0)
    lo, hi = init_w0(pjm5).box_bounds()
    pts = rng.uniform(lo, hi, size=(100, 2))
    for prev, nxt in zip(res.trace, res.trace[1:]):
        Hp, fp = prev.region_after
        Hn, fn = nxt.region_after
        in_prev = np.all(pts @ Hp.T <= fp + 1e-9, axis=1)
        in_next = np.all(pts @ Hn.T <= fn + 1e-9, axis=1)
        assert not np.any(in_next & ~in_prev)


def test_cut_soundness_on_certified_points(pjm5, cfg):
    res = run(pjm5, cfg, method="milp")
    m = res.model
    rng = np.random.default_rng(8)
    lo, hi = res.region.box_bounds()
    kept = 0
    for _ in range(200):
        w = rng.uniform(lo, hi)
        if not res.region.contains(w, tol=-1e-6):
            continue
        if feasibility_model(m, w).objective > 1e-9:
            continue
        kept += 1
        for cut in res.all_cuts:
            assert cut.violation_at(w) <= 1e-6
    assert kept >= 50


def test_empty_region_via_contradicting_cut(twobus, cfg, monkeypatch):
    # A converged dispatch always contains the forecast, so emptiness is a
    # defensive outcome; fabricate an oracle whose valid-looking cut demands
    # w >= 150 MW against the 100 MW box.
    import drrcalc.engine as eng
    m = build_compact(twobus, initial_dispatch(twobus, cfg))
    alpha = np.zeros(m.b.size)
    alpha[1] = 1.0  # balance row of the farm bus: b = 1.5 pu load there
    fake = MaxMinSolution(F=0.5, w_star=np.array([1.0]), alpha=alpha,
                          delta=np.zeros(m.d.size), theta=None, method="milp")
    monkeypatch.setattr(eng, "solve_maxmin_milp", lambda *a, **k: fake)
    res = eng.run(twobus, cfg, method="milp")
    assert res.termination == EMPTY_REGION


def test_empty_region_via_zero_direction_certificate(twobus, cfg, monkeypatch):
    # Zero dual direction with positive violation proves every w infeasible.
    import drrcalc.engine as eng
    m = build_compact(twobus, initial_dispatch(twobus, cfg))
    fake = MaxMinSolution(F=0.5, w_star=np.array([1.0]),
                          alpha=np.zeros(m.b.size), delta=np.zeros(m.d.size),
                          theta=None, method="milp")
    monkeypatch.setattr(eng, "solve_maxmin_milp", lambda *a, **k: fake)
    res = eng.run(twobus, cfg, method="milp")
    assert res.termination == EMPTY_REGION


def test_run_result_metadata(twobus):
    cfg = StudyConfig(s1_count=25, seed=3, thread_count=2)
    res = run(twobus, cfg, method="iblp")
    assert res.method == "iblp"
    assert res.seed == 3
    assert "thread_count" not in res.config_echo
    assert res.config_echo["s1_count"] == 25
    assert res.iterations == len(res.trace)


def test_iblp_one_pool_per_run_and_scenario_accounting(pjm5, monkeypatch):
    import concurrent.futures

    import drrcalc.maxmin_iblp as iblp
    events = []
    base = concurrent.futures.ProcessPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            events.append("start")

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            events.append("shutdown")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
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


def test_iblp_same_bytes_and_lps_for_any_worker_count(pjm5, tmp_path):
    from drrcalc.analysis import export_artifacts
    from drrcalc.binding import identify
    w_bar_mw = np.array(pjm5.forecast_mw)
    seen = {}
    for threads in (1, 2, 3):
        cfg = StudyConfig(s1_count=30, thread_count=threads)
        res = run(pjm5, cfg, method="iblp")
        report = identify(res.model, res.region, w_bar_mw / pjm5.base_mva, cfg)
        out = tmp_path / str(threads)
        export_artifacts(res, report, None, out, w_bar_mw=w_bar_mw)
        seen[threads] = ((out / "region.json").read_bytes(),
                         (out / "binding.json").read_bytes(),
                         [(rec.oracle_diag["lp_solves"], rec.oracle_diag["memo_hits"],
                           rec.oracle_diag["multiplier_steps"]) for rec in res.trace])
    assert seen[1] == seen[2] == seen[3]


def test_iblp_projected_and_deduplicated_scenarios(pjm5):
    from drrcalc.maxmin_iblp import make_scenarios
    from drrcalc.polytope import FacetProvenance, Polytope
    cfg = StudyConfig(seed=0)
    res = run(pjm5, cfg, method="iblp")
    W0 = W = init_w0(pjm5)
    w_bar = np.array(pjm5.forecast_mw) / pjm5.base_mva
    for rec in res.trace:
        d = rec.oracle_diag
        starts = make_scenarios(W0, W, w_bar, cfg).combined()
        assert d["scenarios_projected"] == sum(not W.contains(w, tol=1e-9)
                                               for w in starts)
        # Every positive scenario is kept (degenerate cuts included) or
        # dropped as a duplicate cut.
        assert d["scenarios_kept"] + d["scenarios_deduplicated"] == d["scenarios_positive"]
        H, f = rec.region_after
        W = Polytope(H=H, f=f,
                     provenance=(FacetProvenance("Cut", iteration=rec.k),) * f.size)
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
    lo, hi = res.region.box_bounds()
    assert lo[0] == hi[0] == 0.0


def test_cut_batch_cap_limits_cuts_per_iteration(pjm5):
    capped = run(pjm5, StudyConfig(cut_batch_cap=1, s1_count=30), method="iblp")
    assert capped.termination == CONVERGED
    assert all(t.cuts_added <= 1 for t in capped.trace)
    free = run(pjm5, StudyConfig(s1_count=30), method="iblp")
    # Same converged region either way, possibly after more iterations.
    lo_a, hi_a = capped.region.box_bounds()
    lo_b, hi_b = free.region.box_bounds()
    assert np.allclose(lo_a, lo_b, atol=1e-6)
    assert np.allclose(hi_a, hi_b, atol=1e-6)
