"""Worst-case oracles: dualization identities, exact MIP, alternation."""

import numpy as np
import pytest

from drrcalc.caseio import StudyConfig
from drrcalc.dispatch_model import build_compact, feasibility_model, initial_dispatch
from drrcalc.engine import init_w0
from drrcalc.errors import DimensionMismatch, NumericalFailure
from drrcalc.lp import solve_lp
from drrcalc.maxmin_iblp import (MULTIPLIER, WSTEP, IblpOracle, alternate_solve,
                                 gen_s1, gen_s2, make_scenarios, run_iblp)
from drrcalc.maxmin_milp import (DualizedMaxMin, build_kkt_mip, cut_vector,
                                 default_big_m, solve_maxmin_milp)
from drrcalc.polytope import FacetProvenance, Polytope


@pytest.fixture(scope="module")
def two():
    from tests.conftest import load_case
    case = load_case("case2_ramp")
    cfg = StudyConfig()
    m = build_compact(case, initial_dispatch(case, cfg))
    return case, m, init_w0(case), cfg


def test_zero_multipliers_feasible(two):
    _, m, W0, _ = two
    dmm = DualizedMaxMin(m, W0)
    M_eq, r_eq = dmm.coupling()
    zero = np.zeros(dmm.n_alpha + dmm.n_delta)
    assert np.abs(M_eq @ zero - r_eq).max(initial=0.0) == 0.0
    lp = dmm.multiplier_lp_at(np.array([0.5]))
    assert lp.c @ zero == 0.0  # alpha'b - delta'd vanishes at the zero point


def test_dimension_guard(two):
    _, m, _, _ = two
    bad = Polytope(H=[[1.0, 0.0]], f=[1.0],
                   provenance=(FacetProvenance("Cut", iteration=0),))
    with pytest.raises(DimensionMismatch):
        DualizedMaxMin(m, bad)


@pytest.mark.parametrize("fixture", ["twobus", "pjm5", "ieee39"])
def test_strong_duality_random_points(fixture, cfg, request):
    case = request.getfixturevalue(fixture)
    m = build_compact(case, initial_dispatch(case, cfg))
    W0 = init_w0(case)
    dmm = DualizedMaxMin(m, W0)
    lo, hi = W0.box_bounds()
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.uniform(lo, hi)
        dual = solve_lp(dmm.multiplier_lp_at(w)).objective
        feas = feasibility_model(m, w).objective
        assert dual == pytest.approx(feas, abs=1e-6)


def test_kkt_mip_structure(two):
    _, m, W0, _ = two
    dmm = DualizedMaxMin(m, W0)
    mp = build_kkt_mip(dmm, M=20.0)
    assert len(mp.binary_index) == W0.n_facets
    na, nd, nw, k = dmm.n_alpha, dmm.n_delta, m.n_w, W0.n_facets
    assert mp.lp.nvar == na + nd + nw + 2 * k


def test_kkt_rearrangement_identity(two):
    # At any MIP-feasible point, stationarity turns the bilinear objective
    # term into theta'Hw.
    _, m, W0, cfg = two
    dmm = DualizedMaxMin(m, W0)
    sol = solve_maxmin_milp(m, W0, cfg)
    lhs = -(sol.alpha @ m.A) @ sol.w_star
    rhs = sol.theta @ (W0.H @ sol.w_star)
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_milp_oracle_matches_grid_scan(two):
    _, m, W0, cfg = two
    sol = solve_maxmin_milp(m, W0, cfg)
    grid = np.arange(0.0, 1.0 + 1e-12, 0.001)  # 0.1 MW steps
    best = max(feasibility_model(m, [w]).objective for w in grid)
    assert sol.F == pytest.approx(best, abs=1e-3)
    assert sol.w_star[0] in (pytest.approx(0.0, abs=1e-7),
                             pytest.approx(1.0, abs=1e-7))
    assert sol.diagnostics["kkt_residual"] <= 1e-7
    assert sol.diagnostics["complementarity_residual"] <= 1e-6
    assert sol.diagnostics["big_m_margin"] >= 0.01
    # Strong duality at the reported worst point.
    assert feasibility_model(m, sol.w_star).objective == pytest.approx(sol.F, abs=1e-6)


def test_milp_on_true_region_returns_zero(two):
    _, m, _, cfg = two
    done = Polytope(H=[[1.0], [-1.0]], f=[0.65, -0.45],
                    provenance=(FacetProvenance("Cut", iteration=1),
                                FacetProvenance("Cut", iteration=2)))
    sol = solve_maxmin_milp(m, done, cfg)
    assert sol.F == pytest.approx(0.0, abs=1e-7)


def test_milp_F_dominates_samples(pjm5, cfg):
    m = build_compact(pjm5, initial_dispatch(pjm5, cfg))
    W0 = init_w0(pjm5)
    sol = solve_maxmin_milp(m, W0, cfg)
    lo, hi = W0.box_bounds()
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = rng.uniform(lo, hi)
        assert feasibility_model(m, w).objective <= sol.F + 1e-6
    assert feasibility_model(m, sol.w_star).objective == pytest.approx(sol.F, abs=1e-6)


def test_pruning_is_optimality_neutral(pjm5, cfg):
    from drrcalc.polytope import remove_redundant
    m = build_compact(pjm5, initial_dispatch(pjm5, cfg))
    W0 = init_w0(pjm5)
    padded = W0.with_rows(np.array([[1.0, 0.0], [0.5, 0.5]]),
                          np.array([3.0, 4.0]),
                          [FacetProvenance("Cut", iteration=1),
                           FacetProvenance("Cut", iteration=2)])
    a = solve_maxmin_milp(m, padded, cfg)
    b = solve_maxmin_milp(m, remove_redundant(padded), cfg)
    assert a.F == pytest.approx(b.F, abs=1e-6)


def test_default_big_m_scales_with_data(two):
    from drrcalc.maxmin_milp import facet_slack_ranges
    _, m, W0, _ = two
    assert default_big_m(m, W0) == pytest.approx(
        10.0 * max(np.abs(m.b).max(), np.abs(m.d).max(), np.abs(W0.f).max(),
                   facet_slack_ranges(m, W0).max(), 1.0))


def test_big_m_watchdog_escalates_and_raises(two):
    from drrcalc.errors import BigMTooSmall
    _, m, W0, _ = two
    # One escalation (0.5 -> 5.0) recovers the exact optimum.
    sol = solve_maxmin_milp(m, W0, StudyConfig(big_m=0.5))
    assert sol.F == pytest.approx(0.45, abs=1e-7)
    assert sol.diagnostics["big_m"] == pytest.approx(5.0)
    # Hopelessly small M is reported, not silently absorbed.
    with pytest.raises(BigMTooSmall):
        solve_maxmin_milp(m, W0, StudyConfig(big_m=0.01))


# --- scenario generation ------------------------------------------------------


def test_gen_s1_count_seeded(two):
    _, _, W0, _ = two
    pts = gen_s1(W0, 100, seed=4)
    assert len(pts) == 100
    lo, hi = W0.box_bounds()
    for p in pts:
        assert np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12)
    assert all(np.array_equal(a, b) for a, b in zip(pts, gen_s1(W0, 100, seed=4)))
    assert not np.array_equal(pts[0], gen_s1(W0, 100, seed=5)[0])


def test_gen_s1_degenerate_box():
    W = Polytope(H=[[1.0], [-1.0]], f=[0.3, -0.3],
                 provenance=(FacetProvenance("InitialBox", farm=0, bound="upper"),
                             FacetProvenance("InitialBox", farm=0, bound="lower")))
    pts = gen_s1(W, 1, seed=0)
    assert pts[0] == pytest.approx([0.3], abs=1e-12)


def test_gen_s2_projection_formula():
    W = Polytope(H=[[1.0, 0.0]], f=[1.0],
                 provenance=(FacetProvenance("Cut", iteration=0),))
    pts = gen_s2(W, np.array([3.0, 5.0]))
    assert pts[0] == pytest.approx([1.0, 5.0], abs=1e-12)
    on_facet = gen_s2(W, np.array([1.0, 2.0]))
    assert on_facet[0] == pytest.approx([1.0, 2.0], abs=1e-12)


def test_gen_s2_hyperplane_membership(pjm5, cfg):
    W0 = init_w0(pjm5)
    w_bar = np.array(pjm5.forecast_mw) / pjm5.base_mva
    pts = gen_s2(W0, w_bar)
    assert len(pts) == W0.n_facets
    for i, p in enumerate(pts):
        assert abs(W0.H[i] @ p - W0.f[i]) < 1e-9


# --- alternation ---------------------------------------------------------------


def test_alternate_interior_start_converges_to_zero(two):
    _, m, W0, cfg = two
    done = Polytope(H=[[1.0], [-1.0]], f=[0.60, -0.50],
                    provenance=(FacetProvenance("Cut", iteration=1),
                                FacetProvenance("Cut", iteration=2)))
    sol = alternate_solve(m, done, np.array([0.55]), cfg)
    assert sol.F == pytest.approx(0.0, abs=1e-9)
    assert sol.diagnostics["rounds"] <= 2


def test_alternate_matches_duality_at_fixed_w(two):
    _, m, W0, cfg = two
    sol = alternate_solve(m, W0, np.array([1.0]), cfg)
    assert sol.F >= feasibility_model(m, [1.0]).objective - 1e-9
    assert sol.F == pytest.approx(
        feasibility_model(m, sol.w_star).objective, abs=1e-6)


def test_alternate_sequence_nondecreasing(pjm5, cfg):
    m = build_compact(pjm5, initial_dispatch(pjm5, cfg))
    W0 = init_w0(pjm5)
    lo, hi = W0.box_bounds()
    rng = np.random.default_rng(5)
    for _ in range(5):
        sol = alternate_solve(m, W0, rng.uniform(lo, hi), cfg)
        seq = sol.diagnostics["sequence"]
        assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))


def test_run_iblp_filters_and_dedupes(two):
    case, m, W0, cfg = two
    w_bar = np.array(case.forecast_mw) / case.base_mva
    sols = run_iblp(m, W0, make_scenarios(W0, W0, w_bar, cfg), cfg)
    assert all(s.F > cfg.eps_term for s in sols)
    # 1-D problem: at most the two distinct worst-case directions remain.
    assert 1 <= len(sols) <= 2
    vecs = []
    for s in sols:
        n, o = cut_vector(s, m)
        vecs.append(np.concatenate([n, [o]]) / np.linalg.norm(n))
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert np.abs(vecs[i] - vecs[j]).max() > 1e-6


def test_run_iblp_thread_count_invariance(two):
    case, m, W0, cfg = two
    w_bar = np.array(case.forecast_mw) / case.base_mva
    scen = make_scenarios(W0, W0, w_bar, cfg)
    serial = run_iblp(m, W0, scen, StudyConfig(thread_count=1))
    parallel = run_iblp(m, W0, scen, StudyConfig(thread_count=4))
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.F == b.F
        assert np.array_equal(a.w_star, b.w_star)
        assert np.array_equal(a.alpha, b.alpha)


def test_run_iblp_aggregates_failures(two, monkeypatch):
    case, m, W0, cfg = two
    import drrcalc.maxmin_iblp as mod

    def boom(lp, *, duals=True):
        raise NumericalFailure("injected")

    monkeypatch.setattr(mod, "solve_lp", boom)
    scen = make_scenarios(W0, W0, np.array([0.5]), cfg)
    with pytest.raises(Exception, match="all scenarios failed: "
                                        "scenario 0: injected; scenario 1: injected"):
        mod.run_iblp(m, W0, scen, StudyConfig(thread_count=1))


def test_run_iblp_projection_failure_stops_only_its_scenarios(two, monkeypatch):
    case, m, W0, cfg = two
    import drrcalc.maxmin_iblp as mod
    W = Polytope(H=[[1.0], [-1.0]], f=[0.9, -0.2],
                 provenance=(FacetProvenance("Cut", iteration=1),
                             FacetProvenance("Cut", iteration=2)))
    w_bar = np.array(case.forecast_mw) / case.base_mva
    scen = make_scenarios(W0, W, w_bar, cfg)
    outside = sum(not W.contains(w, tol=1e-9) for w in scen.combined())
    assert 0 < outside < len(scen.combined())
    solve = mod.solve_lp

    def fail_projection(lp, *, duals=True):
        if lp.sense == "min":  # the projection is the only minimization
            raise NumericalFailure("injected")
        return solve(lp, duals=duals)

    monkeypatch.setattr(mod, "solve_lp", fail_projection)
    with IblpOracle(m, cfg) as oracle:
        kept = run_iblp(m, W, scen, cfg, oracle)
    assert oracle.counts["scenarios_failed"] == outside
    assert kept and all(s.F > cfg.eps_term for s in kept)
    assert all(W.contains(s.w_star, tol=1e-9) for s in kept)


# --- LP memo ---------------------------------------------------------------------


def _cut_region():
    return Polytope(H=[[1.0], [-1.0]], f=[0.6, -0.5],
                    provenance=(FacetProvenance("Cut", iteration=1),
                                FacetProvenance("Cut", iteration=2)))


def _lookup(oracle, kind, W, inputs):
    return oracle.memo.lookup(kind, W, inputs, oracle.solve)


def test_memo_entries_are_shared_and_read_only(two):
    _, m, W0, cfg = two
    with IblpOracle(m, cfg) as oracle:
        w = np.array([0.5])
        mult, again = _lookup(oracle, MULTIPLIER, W0, [w, w.copy()])
        assert again is mult
        (wstep,) = _lookup(oracle, WSTEP, W0, [mult.x])
        assert _lookup(oracle, WSTEP, W0, [mult.x.copy()])[0] is wstep
        # solves, hits, multiplier steps, projections
        assert oracle.memo.counts() == (2, 2, 2, 0)
        # An entry holds status, x and objective; x cannot be written.
        for sol in (mult, wstep):
            assert sol.mu_eq is None and sol.mu_in is None
            with pytest.raises(ValueError):
                sol.x[...] = 0.0
        # A new region drops the w-step entries but keeps the multiplier ones.
        assert _lookup(oracle, MULTIPLIER, _cut_region(), [w.copy()])[0] is mult
        assert not oracle.memo.entries[WSTEP] and oracle.memo.entries[MULTIPLIER]


def test_wstep_memo_is_keyed_by_the_multipliers(two):
    _, m, W0, cfg = two
    dmm = DualizedMaxMin(m, W0)
    na = dmm.n_alpha
    with IblpOracle(m, cfg) as oracle:
        # Two farm outputs on the same side of the band share one multiplier vertex.
        m1, m2 = _lookup(oracle, MULTIPLIER, W0, [np.array([0.1]), np.array([0.3])])
        assert m1 is not m2 and m1.x.tobytes() == m2.x.tobytes()
        wstep, shared = _lookup(oracle, WSTEP, W0, [m1.x, m2.x])
        assert shared is wstep
        # solves, hits, multiplier steps, projections
        assert oracle.memo.counts() == (3, 1, 2, 0)
        # The key covers delta too: same alpha, other delta is another LP.
        other = np.concatenate([m1.x[:na], np.zeros(dmm.n_delta)])
        assert _lookup(oracle, WSTEP, W0, [other])[0] is not wstep
        assert oracle.memo.counts() == (4, 1, 2, 0)
        # A new region drops the entries; the next w-step is solved on it.
        W1 = _cut_region()
        (again,) = _lookup(oracle, WSTEP, W1, [m2.x])
        assert len(oracle.memo.entries[WSTEP]) == 1
        assert oracle.memo.counts() == (5, 1, 2, 0)
    fresh = solve_lp(DualizedMaxMin(m, W1).w_lp_at(m2.x[:na], m2.x[na:]))
    assert again.x.tobytes() == fresh.x.tobytes() != wstep.x.tobytes()


def test_oracle_is_freed_without_the_cycle_collector(two):
    # A reference cycle through the oracle would hold the memo's arrays until
    # a full collection, so a long-lived process would grow with every run.
    import gc
    import weakref
    case, m, W0, cfg = two
    scen = make_scenarios(W0, W0, np.array(case.forecast_mw) / case.base_mva, cfg)
    gc.disable()
    try:
        with IblpOracle(m, cfg) as oracle:
            run_iblp(m, W0, scen, cfg, oracle)
        memo = weakref.ref(oracle.memo)
        del oracle
        assert memo() is None
    finally:
        gc.enable()


def test_iblp_memo_solves_fewer_lps_than_steps(two):
    case, m, W0, cfg = two
    w_bar = np.array(case.forecast_mw) / case.base_mva
    scen = make_scenarios(W0, W0, w_bar, cfg)
    with IblpOracle(m, cfg) as oracle:
        kept = run_iblp(m, W0, scen, cfg, oracle)
        counts = oracle.counts
    assert counts["lp_solves"] < counts["multiplier_steps"]
    assert counts["memo_hits"] > 0
    assert counts["scenarios_started"] == len(scen.combined())
    assert counts["scenarios_failed"] == 0
    assert counts["scenarios_kept"] == len(kept) <= counts["scenarios_positive"]
    # Same cuts as a call without the run's oracle.
    alone = run_iblp(m, W0, scen, cfg)
    assert [s.F for s in alone] == [s.F for s in kept]
