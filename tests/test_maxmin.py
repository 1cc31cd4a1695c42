"""Worst-case oracles: dualization identities, exact MIP, alternation."""

import os

import numpy as np
import pytest

from drrcalc.caseio import StudyConfig
from drrcalc.dispatch_model import build_compact, feasibility_model, initial_dispatch
from drrcalc.engine import init_w0
from drrcalc.errors import DegenerateCut, DimensionMismatch, NumericalFailure
from drrcalc.lp import OPTIMAL, LinearProgram, solve_lp
from drrcalc.maxmin_iblp import (MULTIPLIER, WSTEP, IblpOracle, ScenarioSet,
                                 gen_s1, gen_s2, make_scenarios, run_iblp)
from drrcalc.maxmin_milp import (MaxMinSolution, build_kkt_mip, coupling,
                                 cut_vector, default_big_m, multiplier_lp,
                                 solve_maxmin_milp, w_cost)
from drrcalc.mip import solve_mip
from drrcalc.polytope import FacetProvenance, Polytope
from tests.conftest import box_bounds


@pytest.fixture(scope="module")
def two():
    from tests.conftest import load_case
    case = load_case("case2_ramp")
    cfg = StudyConfig()
    m = build_compact(case, initial_dispatch(case, cfg))
    return case, m, init_w0(m), cfg


def test_zero_multipliers_feasible(two):
    _, m, _, _ = two
    zero = np.zeros(m.b.size + m.d.size)
    assert np.abs(coupling(m) @ zero).max(initial=0.0) == 0.0
    lp = multiplier_lp(m, np.array([0.5]))
    assert lp.c @ zero == 0.0  # alpha'b - delta'd vanishes at the zero point


def test_dimension_guard(two):
    _, m, _, _ = two
    bad = Polytope(H=[[1.0, 0.0]], f=[1.0],
                   provenance=(FacetProvenance("Cut", iteration=0),))
    with pytest.raises(DimensionMismatch):
        build_kkt_mip(m, bad, M=20.0)


def test_milp_oracle_rejects_a_region_of_another_dimension(pjm5, cfg):
    # A 3-D region on a 2-farm model: the oracle raises the typed error
    # before its big-M arithmetic, with or without a configured big-M.
    m = build_compact(pjm5, initial_dispatch(pjm5, cfg))
    bad = Polytope(H=np.eye(3), f=np.ones(3),
                   provenance=(FacetProvenance("Cut", iteration=0),) * 3)
    for big_m in (None, 20.0):
        with pytest.raises(DimensionMismatch):
            solve_maxmin_milp(m, bad, StudyConfig(big_m=big_m))


@pytest.mark.parametrize("fixture", ["twobus", "pjm5", "ieee39"])
def test_strong_duality_random_points(fixture, cfg, request):
    case = request.getfixturevalue(fixture)
    m = build_compact(case, initial_dispatch(case, cfg))
    lo, hi = box_bounds(init_w0(m))
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.uniform(lo, hi)
        dual = solve_lp(multiplier_lp(m, w)).objective
        feas = feasibility_model(m, w).objective
        assert dual == pytest.approx(feas, abs=1e-6)


def test_kkt_mip_structure(two):
    _, m, W0, _ = two
    mp = build_kkt_mip(m, W0, M=20.0)
    assert len(mp.binary_index) == W0.n_facets
    na, nd, nw, k = m.b.size, m.d.size, m.n_w, W0.n_facets
    assert mp.lp.nvar == na + nd + nw + 2 * k


def test_kkt_rearrangement_identity(two):
    # At any MIP-feasible point, stationarity turns the bilinear objective
    # term into theta'Hw.  The oracle solves this MIP and keeps no theta,
    # so read it from the MIP's own x.
    _, m, W0, cfg = two
    res = solve_mip(build_kkt_mip(m, W0, default_big_m(m, W0)),
                    node_limit=cfg.node_limit)
    assert res.status == OPTIMAL
    assert res.objective == solve_maxmin_milp(m, W0, cfg).F
    na, nd, nw = m.b.size, m.d.size, m.n_w
    alpha, w = res.x[:na], res.x[na + nd:na + nd + nw]
    theta = res.x[na + nd + nw:na + nd + nw + W0.n_facets]
    lhs = -(alpha @ m.A) @ w
    rhs = theta @ (W0.H @ w)
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
    W0 = init_w0(m)
    sol = solve_maxmin_milp(m, W0, cfg)
    lo, hi = box_bounds(W0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = rng.uniform(lo, hi)
        assert feasibility_model(m, w).objective <= sol.F + 1e-6
    assert feasibility_model(m, sol.w_star).objective == pytest.approx(sol.F, abs=1e-6)


def test_pruning_is_optimality_neutral(pjm5, cfg):
    from drrcalc.polytope import remove_redundant
    m = build_compact(pjm5, initial_dispatch(pjm5, cfg))
    W0 = init_w0(m)
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
    _, m, W0, _ = two
    caps = m.farm_capacity_pu
    pts = gen_s1(caps, 100, seed=4)
    assert len(pts) == 100
    lo, hi = box_bounds(W0)
    for p in pts:
        assert np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12)
    assert all(np.array_equal(a, b) for a, b in zip(pts, gen_s1(caps, 100, seed=4)))
    assert not np.array_equal(pts[0], gen_s1(caps, 100, seed=5)[0])


def test_gen_s1_degenerate_box():
    # A farm of zero capacity: its side of the box is the point 0.
    pts = gen_s1(np.array([0.0, 0.3]), 5, seed=0)
    assert all(p[0] == 0.0 and 0.0 <= p[1] <= 0.3 for p in pts)


def test_gen_s2_projection_formula():
    W = Polytope(H=[[1.0, 0.0]], f=[1.0],
                 provenance=(FacetProvenance("Cut", iteration=0),))
    pts = gen_s2(W, np.array([3.0, 5.0]))
    assert pts[0] == pytest.approx([1.0, 5.0], abs=1e-12)
    on_facet = gen_s2(W, np.array([1.0, 2.0]))
    assert on_facet[0] == pytest.approx([1.0, 2.0], abs=1e-12)


def test_gen_s2_hyperplane_membership(pjm5, cfg):
    W0 = init_w0(build_compact(pjm5, initial_dispatch(pjm5, cfg)))
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
    with IblpOracle(m, cfg) as oracle:
        (sol,) = oracle.alternate(done, [np.array([0.55])])
    assert sol.F == pytest.approx(0.0, abs=1e-9)
    assert sol.diagnostics["rounds"] <= 2


def test_alternate_matches_duality_at_fixed_w(two):
    _, m, W0, cfg = two
    with IblpOracle(m, cfg) as oracle:
        (sol,) = oracle.alternate(W0, [np.array([1.0])])
    assert sol.F >= feasibility_model(m, [1.0]).objective - 1e-9
    assert sol.F == pytest.approx(
        feasibility_model(m, sol.w_star).objective, abs=1e-6)


def test_alternate_sequence_nondecreasing(pjm5, cfg):
    m = build_compact(pjm5, initial_dispatch(pjm5, cfg))
    W0 = init_w0(m)
    lo, hi = box_bounds(W0)
    rng = np.random.default_rng(5)
    with IblpOracle(m, cfg) as oracle:
        sols = oracle.alternate(W0, [rng.uniform(lo, hi) for _ in range(5)])
    for sol in sols:
        seq = sol.diagnostics["sequence"]
        assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))


def _run_iblp(m, W, scenarios, cfg):
    """One batch on an oracle of its own, built as ``engine.run`` builds it."""
    with IblpOracle(m, cfg) as oracle:
        return run_iblp(oracle, W, scenarios)


def test_run_iblp_filters_and_dedupes(two):
    case, m, W0, cfg = two
    w_bar = np.array(case.forecast_mw) / case.base_mva
    sols = _run_iblp(m, W0, make_scenarios(m.farm_capacity_pu, W0, w_bar, cfg), cfg)
    assert all(s.F > cfg.eps_term for s in sols)
    # 1-D problem: at most the two distinct worst-case directions remain.
    assert 1 <= len(sols) <= 2
    vecs = []
    for s in sols:
        vecs.append(np.append(*cut_vector(s, m)))
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert np.abs(vecs[i] - vecs[j]).max() > 1e-6


def test_run_iblp_thread_count_invariance(two):
    case, m, W0, cfg = two
    w_bar = np.array(case.forecast_mw) / case.base_mva
    scen = make_scenarios(m.farm_capacity_pu, W0, w_bar, cfg)
    serial = _run_iblp(m, W0, scen, StudyConfig(thread_count=1))
    parallel = _run_iblp(m, W0, scen, StudyConfig(thread_count=4))
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.F == b.F
        assert np.array_equal(a.w_star, b.w_star)
        assert np.array_equal(a.alpha, b.alpha)


def test_run_iblp_aggregates_failures(two, monkeypatch):
    case, m, W0, cfg = two
    import drrcalc.maxmin_iblp as mod

    def boom(lp):
        raise NumericalFailure("injected")

    monkeypatch.setattr(mod, "solve_lp", boom)
    scen = make_scenarios(m.farm_capacity_pu, W0, np.array([0.5]), cfg)
    with pytest.raises(Exception, match="all scenarios failed: "
                                        "scenario 0: injected; scenario 1: injected"):
        _run_iblp(m, W0, scen, StudyConfig(thread_count=1))


def test_run_iblp_projection_failure_stops_only_its_scenarios(two, monkeypatch):
    case, m, W0, cfg = two
    import drrcalc.maxmin_iblp as mod
    W = Polytope(H=[[1.0], [-1.0]], f=[0.9, -0.2],
                 provenance=(FacetProvenance("Cut", iteration=1),
                             FacetProvenance("Cut", iteration=2)))
    w_bar = np.array(case.forecast_mw) / case.base_mva
    scen = make_scenarios(m.farm_capacity_pu, W, w_bar, cfg)
    outside = sum(not W.contains(w, tol=1e-9) for w in scen.combined())
    assert 0 < outside < len(scen.combined())
    solve = mod.solve_lp

    def fail_projection(lp):
        if lp.sense == "min":  # the projection is the only minimization
            raise NumericalFailure("injected")
        return solve(lp)

    monkeypatch.setattr(mod, "solve_lp", fail_projection)
    with IblpOracle(m, cfg) as oracle:
        kept = run_iblp(oracle, W, scen)
    assert oracle.counts["scenarios_failed"] == outside
    assert kept and all(s.F > cfg.eps_term for s in kept)
    assert all(W.contains(s.w_star, tol=1e-9) for s in kept)


def test_run_iblp_keeps_cuts_too_short_for_the_engine_as_degenerate(two, monkeypatch):
    # Two solutions whose cut normal has a norm of 5e-11, which cut_vector
    # rejects as degenerate: a positive violation with no cut direction is
    # a fault, so run_iblp raises it rather than keep either.
    _, m, W0, cfg = two
    j = int(np.flatnonzero(np.abs(m.A).sum(axis=1))[0])
    alpha = np.zeros(m.b.size)
    alpha[j] = 5e-11 / np.linalg.norm(m.A[j])
    sols = [MaxMinSolution(F=1.0, w_star=np.zeros(m.n_w), alpha=alpha.copy(),
                           delta=np.zeros(m.d.size))
            for _ in range(2)]
    assert 1e-11 < np.linalg.norm(alpha @ m.A) < 1e-10
    monkeypatch.setattr(IblpOracle, "alternate", lambda self, W, starts: sols)
    scen = ScenarioSet(s1=(np.array([0.1]), np.array([0.2])), s2=())
    with IblpOracle(m, cfg) as oracle:
        with pytest.raises(DegenerateCut, match="cut normal vanished"):
            run_iblp(oracle, W0, scen)
    for sol in sols:
        with pytest.raises(DegenerateCut):
            cut_vector(sol, m)


# --- LP memo ---------------------------------------------------------------------


def _cut_region():
    return Polytope(H=[[1.0], [-1.0]], f=[0.6, -0.5],
                    provenance=(FacetProvenance("Cut", iteration=1),
                                FacetProvenance("Cut", iteration=2)))


def _totals(oracle):
    c = oracle.counts
    return (c["lp_solves"], c["memo_hits"], c["multiplier_steps"],
            c["scenarios_projected"])


def test_memo_entries_are_shared_and_read_only(two):
    _, m, W0, cfg = two
    with IblpOracle(m, cfg) as oracle:
        w = np.array([0.5])
        mult, again = oracle.lookup(MULTIPLIER, W0, [w, w.copy()])
        assert again is mult
        cost = w_cost(m, mult.x[:m.b.size])
        (wstep,) = oracle.lookup(WSTEP, W0, [cost])
        assert oracle.lookup(WSTEP, W0, [cost.copy()])[0] is wstep
        # solves, hits, multiplier steps, projections
        assert _totals(oracle) == (2, 2, 2, 0)
        # An entry's x cannot be written.
        for sol in (mult, wstep):
            with pytest.raises(ValueError):
                sol.x[...] = 0.0
        # A new region drops the w-step entries but keeps the multiplier ones.
        assert oracle.lookup(MULTIPLIER, _cut_region(), [w.copy()])[0] is mult
        assert not oracle.entries[WSTEP] and oracle.entries[MULTIPLIER]


def test_lookup_of_held_inputs_solves_nothing(two, monkeypatch):
    # Every input held: no LP to solve, so nothing is mapped onto the pool.
    _, m, W0, _ = two
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with IblpOracle(m, StudyConfig(thread_count=2)) as oracle:
        assert oracle._map is not map
        w = np.array([0.5])
        (mult,) = oracle.lookup(MULTIPLIER, W0, [w])

        def no_map(*args, **kwargs):
            raise AssertionError("a lookup of held inputs used the pool")

        monkeypatch.setattr(oracle, "_map", no_map)
        held = oracle.lookup(MULTIPLIER, W0, [w.copy(), w.copy()])
        assert all(sol is mult for sol in held)
        # solves, hits, multiplier steps, projections
        assert _totals(oracle) == (1, 2, 3, 0)


def test_worker_count_is_capped_at_the_core_count(two, monkeypatch):
    # thread_count 10000 on three cores: a pool of three threads, onto
    # which each distinct missing input is mapped once.  The fake pool
    # starts no thread: it solves the inputs as they are mapped.
    import concurrent.futures
    _, m, W0, _ = two
    pools, mapped = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def map(self, fn, inputs):
            inputs = list(inputs)
            mapped.extend(v.tobytes() for v in inputs)
            return [fn(v) for v in inputs]

        def shutdown(self):
            pools.append("shutdown")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    ws = [np.array([x]) for x in np.linspace(0.05, 0.95, 10)]
    with IblpOracle(m, StudyConfig(thread_count=10_000)) as oracle:
        got = oracle.lookup(MULTIPLIER, W0, ws + [w.copy() for w in ws[:3]])
    assert pools == [3, "shutdown"]
    assert mapped == [w.tobytes() for w in ws]
    with IblpOracle(m, StudyConfig(thread_count=1)) as serial:
        want = serial.lookup(MULTIPLIER, W0, ws + ws[:3])
    assert [(s.x.tobytes(), s.objective) for s in got] == \
        [(s.x.tobytes(), s.objective) for s in want]


def _entry_bytes(entry):
    if isinstance(entry, Exception):
        return repr(entry)
    return entry.status, entry.x.tobytes(), np.float64(entry.objective).tobytes()


def test_ieee39_oracle_entries_are_byte_equal_for_1_2_and_4_workers(ieee39, monkeypatch):
    # Every entry each lookup of a whole run returns, in order, on four
    # cores whatever the box has: 1, 2 and 4 workers all really run.  The
    # workers share the oracle's LPs: every worker count builds one w-step
    # LP per iteration, and every LP matrix is assembled on the calling
    # thread.
    import threading
    import drrcalc.lp as lp_mod
    import drrcalc.maxmin_iblp as mod
    from drrcalc.engine import run
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    lookup, wstep_lp, csc = IblpOracle.lookup, mod._wstep_lp, lp_mod._csc
    seen, wsteps, assembled = {}, {}, {}

    def recording(self, kind, W, inputs):
        got = lookup(self, kind, W, inputs)
        seen[threads].extend(
            (kind, v.tobytes(), _entry_bytes(e)) for v, e in zip(inputs, got))
        return got

    def counting_wstep_lp(m, W):
        wsteps[threads] += 1
        return wstep_lp(m, W)

    def recording_csc(A):
        assembled[threads].append(threading.current_thread() is caller)
        return csc(A)

    caller = threading.current_thread()
    monkeypatch.setattr(IblpOracle, "lookup", recording)
    monkeypatch.setattr(mod, "_wstep_lp", counting_wstep_lp)
    monkeypatch.setattr(lp_mod, "_csc", recording_csc)
    iterations = set()
    for threads in (1, 2, 4):
        seen[threads], wsteps[threads], assembled[threads] = [], 0, []
        res = run(ieee39, StudyConfig(thread_count=threads), method="iblp")
        seen[threads].append((res.region.H.tobytes(), res.region.f.tobytes()))
        iterations.add(res.iterations)
    assert len(seen[1]) > 1000
    assert seen[1] == seen[2] == seen[4]
    assert len(iterations) == 1
    assert wsteps[1] == wsteps[2] == wsteps[4] == iterations.pop()
    assert len(assembled[1]) == len(assembled[2]) == len(assembled[4])
    assert all(all(on_caller) for on_caller in assembled.values())


def test_alternation_ends_once_no_scenario_is_left(pjm5, monkeypatch):
    # A round with no scenario left is not run: no multiplier lookup is empty.
    from drrcalc.engine import run
    lookup = IblpOracle.lookup
    sizes = []

    def recording(self, kind, W, inputs):
        sizes.append((kind, len(inputs)))
        return lookup(self, kind, W, inputs)

    monkeypatch.setattr(IblpOracle, "lookup", recording)
    run(pjm5, StudyConfig(seed=0, thread_count=1), method="iblp")
    multiplier = [n for kind, n in sizes if kind == MULTIPLIER]
    assert multiplier and min(multiplier) > 0


def test_wstep_memo_is_keyed_by_its_cost(two):
    _, m, W0, cfg = two
    na = m.b.size
    with IblpOracle(m, cfg) as oracle:
        # Two farm outputs on the same side of the band share one multiplier vertex.
        m1, m2 = oracle.lookup(MULTIPLIER, W0, [np.array([0.1]), np.array([0.3])])
        assert m1 is not m2 and m1.x.tobytes() == m2.x.tobytes()
        cost = w_cost(m, m2.x[:na])
        assert cost.shape == (m.n_w,)
        wstep, shared = oracle.lookup(WSTEP, W0, [w_cost(m, m1.x[:na]), cost])
        assert shared is wstep
        # solves, hits, multiplier steps, projections
        assert _totals(oracle) == (3, 1, 2, 0)
        # delta has no part in the cost: same alpha, other delta is the same LP.
        other = np.concatenate([m1.x[:na], np.zeros(m.d.size)])
        assert other.tobytes() != m1.x.tobytes()
        assert oracle.lookup(WSTEP, W0, [w_cost(m, other[:na])])[0] is wstep
        assert _totals(oracle) == (3, 2, 2, 0)
        # A new region drops the entries; the next w-step is solved on it.
        W1 = _cut_region()
        (again,) = oracle.lookup(WSTEP, W1, [cost])
        assert len(oracle.entries[WSTEP]) == 1
        assert _totals(oracle) == (4, 2, 2, 0)
    fresh = solve_lp(LinearProgram(c=cost, sense="max", M_in=W1.H, r_in=W1.f,
                                   lb=np.zeros(m.n_w), ub=m.farm_capacity_pu))
    assert again.x.tobytes() == fresh.x.tobytes() != wstep.x.tobytes()


def test_iblp_run_solves_each_wstep_lp_once(pjm5, monkeypatch):
    # A w-step LP is its region and its cost; one run solves each such LP
    # once.  It is the only LP of the run that maximizes over farm space.
    import drrcalc.maxmin_iblp as mod
    from drrcalc.engine import run
    cfg = StudyConfig(seed=0, thread_count=1)
    n_w = len(pjm5.renewable)
    wsteps = []

    def recording(lp, **kwargs):
        if lp.sense == "max" and lp.c.size == n_w:
            wsteps.append((lp.M_in.tobytes(), lp.r_in.tobytes(), lp.c.tobytes()))
        return solve_lp(lp, **kwargs)

    monkeypatch.setattr(mod, "solve_lp", recording)
    res = run(pjm5, cfg, method="iblp")
    assert len(wsteps) == len(set(wsteps)) == 13
    assert sum(rec.oracle_diag["lp_solves"] for rec in res.trace) == 203


@pytest.mark.parametrize("workers", [1, 2])
def test_oracle_is_freed_without_the_cycle_collector(two, workers, monkeypatch):
    # A reference cycle through the oracle would hold the memo's arrays until
    # a full collection, so a long-lived process would grow with every run.
    # With two workers the run's pool solves the LPs.
    import gc
    import weakref
    case, m, W0, _ = two
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = StudyConfig(thread_count=workers)
    w_bar = np.array(case.forecast_mw) / case.base_mva
    scen = make_scenarios(m.farm_capacity_pu, W0, w_bar, cfg)
    gc.disable()
    try:
        with IblpOracle(m, cfg) as oracle:
            assert (oracle._map is map) == (workers == 1)
            run_iblp(oracle, W0, scen)
        ref = weakref.ref(oracle)
        del oracle
        assert ref() is None
    finally:
        gc.enable()


def test_iblp_memo_solves_fewer_lps_than_steps(two):
    case, m, W0, cfg = two
    w_bar = np.array(case.forecast_mw) / case.base_mva
    scen = make_scenarios(m.farm_capacity_pu, W0, w_bar, cfg)
    with IblpOracle(m, cfg) as oracle:
        kept = run_iblp(oracle, W0, scen)
        counts = oracle.counts
        # The same batch again is all memo hits, with the same cuts.
        again = run_iblp(oracle, W0, scen)
        assert oracle.counts["lp_solves"] == 0
    assert counts["lp_solves"] < counts["multiplier_steps"]
    assert counts["memo_hits"] > 0
    assert counts["scenarios_started"] == len(scen.combined())
    assert counts["scenarios_failed"] == 0
    assert counts["scenarios_kept"] == len(kept) <= counts["scenarios_positive"]
    assert [s.F for s in again] == [s.F for s in kept]
