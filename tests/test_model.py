"""Compact model construction, initial dispatch, PTDF, feasibility solve."""

import math
from dataclasses import replace

import numpy as np
import pytest

from drrcalc.binding import _HARD_EQUALITIES
from drrcalc.caseio import StudyConfig, apply_renewables, parse_matpower
from drrcalc.dispatch_model import (DispatchPoint, build_compact,
                                    build_ptdf, feasibility_model,
                                    initial_dispatch)
from drrcalc.errors import InfeasibleDispatch, SingularNetwork

# Frozen from an independent PTDF-formulation DC-OPF (re-derived below by
# test_pjm5_initial_dispatch_matches_oracle).
PJM5_PSTAR = np.array([36.0, 153.0, 181.1073914192582, 0.0, 439.89260858074175])


def _case_text(buses, gens, branches, costs):
    bus_rows = "\n".join(buses)
    gen_rows = "\n".join(gens)
    br_rows = "\n".join(branches)
    cost_rows = "\n".join(costs)
    return (f"function mpc = t\nmpc.baseMVA = 100;\n"
            f"mpc.bus = [\n{bus_rows}\n];\nmpc.gen = [\n{gen_rows}\n];\n"
            f"mpc.branch = [\n{br_rows}\n];\nmpc.gencost = [\n{cost_rows}\n];\n")


def test_twobus_initial_dispatch(twobus, cfg):
    dp = initial_dispatch(twobus, cfg)
    assert dp.p_star == pytest.approx([70.0, 30.0], abs=1e-8)
    assert dp.lo == pytest.approx([60.0, 25.0], abs=1e-8)
    assert dp.hi == pytest.approx([80.0, 35.0], abs=1e-8)


def test_forced_dispatch_single_gen():
    # reserve_factor 1, load equals p_max: the unit is pinned at its ceiling.
    text = _case_text(
        ["1 3 0 0 0 0 1 1 0 110 1 1.1 0.9;",
         "2 1 80 0 0 0 1 1 0 110 1 1.1 0.9;"],
        ["1 0 0 0 0 1 100 1 80 0;"],
        ["1 2 0 0.1 0 999 0 0 0 0 1 -360 360;"],
        ["2 0 0 2 10 0;"])
    case = apply_renewables(parse_matpower(text), [])
    dp = initial_dispatch(case, StudyConfig(reserve_factor=1.0))
    assert dp.p_star == pytest.approx([80.0], abs=1e-9)


def test_infeasible_dispatch_reports_shortfall():
    text = _case_text(
        ["1 3 0 0 0 0 1 1 0 110 1 1.1 0.9;",
         "2 1 500 0 0 0 1 1 0 110 1 1.1 0.9;"],
        ["1 0 0 0 0 1 100 1 80 0;"],
        ["1 2 0 0.1 0 999 0 0 0 0 1 -360 360;"],
        ["2 0 0 2 10 0;"])
    case = apply_renewables(parse_matpower(text), [])
    with pytest.raises(InfeasibleDispatch) as err:
        initial_dispatch(case, StudyConfig(reserve_factor=1.0))
    assert err.value.shortfall_mw == pytest.approx(420.0, abs=1e-5)


def test_pjm5_initial_dispatch_matches_oracle(pjm5, cfg):
    dp = initial_dispatch(pjm5, cfg)
    assert dp.p_star == pytest.approx(PJM5_PSTAR, abs=1e-6)

    # Independent oracle: PTDF formulation over p only, raw scipy solve.
    from scipy.optimize import linprog
    base = pjm5.base_mva
    branches = pjm5.in_service_branches()
    nb, nl, ng = 5, len(branches), 5
    Bbus = np.zeros((nb, nb))
    Bf = np.zeros((nl, nb))
    for li, br in enumerate(branches):
        f, t, y = br.from_bus - 1, br.to_bus - 1, 1.0 / br.reactance_pu
        Bbus[f, f] += y
        Bbus[t, t] += y
        Bbus[f, t] -= y
        Bbus[t, f] -= y
        Bf[li, f] = y
        Bf[li, t] = -y
    pi = Bf @ np.linalg.pinv(Bbus)
    gens = [pjm5.gen(i) for i in pjm5.flexible]
    inc = np.zeros((nb, ng))
    for k, g in enumerate(gens):
        inc[g.bus - 1, k] = 1.0
    load = np.array([b.load_mw for b in pjm5.in_service_buses()]) / base
    winj = np.zeros(nb)
    for k, gi in enumerate(pjm5.renewable):
        winj[pjm5.gen(gi).bus - 1] += pjm5.forecast_mw[k] / base
    net_fixed = winj - load
    rate = np.array([br.rate_a_mw for br in branches]) / base
    res = linprog(
        [pjm5.cost(i).linear_rate() for i in pjm5.flexible],
        A_ub=np.vstack([pi @ inc, -(pi @ inc)]),
        b_ub=np.concatenate([rate - pi @ net_fixed, rate + pi @ net_fixed]),
        A_eq=np.ones((1, ng)), b_eq=[load.sum() - winj.sum()],
        bounds=[(g.p_min_mw / base, cfg.reserve_factor * g.p_max_mw / base)
                for g in gens],
        method="highs")
    assert res.status == 0
    assert res.x * base == pytest.approx(dp.p_star, abs=1e-6)
    # The oracle omits angle-spread rows; show they are slack at the optimum.
    theta = np.linalg.pinv(Bbus) @ (inc @ res.x + net_fixed)
    spreads = [abs(theta[br.from_bus - 1] - theta[br.to_bus - 1])
               for br in branches]
    assert math.degrees(max(spreads)) < 29.0


def test_twobus_compact_dimensions(twobus, cfg):
    m = build_compact(twobus, initial_dispatch(twobus, cfg))
    assert (m.n_w, m.n_p, m.n_l, m.n_v) == (1, 2, 1, 2)
    assert m.b.size == 4          # 2 balance + flow definition + angle pin
    assert m.d.size == 6          # 2 flow + 4 gen bounds
    kinds = [r.kind for r in m.in_rows]
    assert kinds.count("FlowUpper") == 1 and kinds.count("GenLower") == 2
    assert len(m.in_rows) == len(set(r.label for r in m.in_rows))


def test_degenerate_single_bus_network():
    # An empty branch table is rejected by the parser, so build the case
    # objects directly to exercise the degenerate model shape.
    from drrcalc.caseio import Bus, CaseData, CostRecord, Generator, RawCase
    raw = RawCase(name="one", base_mva=100.0,
                  buses=(Bus(id=1, type=3, load_mw=50.0, load_mvar=0.0),),
                  branches=(),
                  generators=(Generator(bus=1, p_max_mw=80.0, p_min_mw=0.0,
                                        status=1),),
                  gencost=(CostRecord(model=2, coeffs=(10.0, 0.0)),))
    case = CaseData(raw=raw, flexible=(1,), renewable=(), forecast_mw=())
    dp = initial_dispatch(case, StudyConfig())
    m = build_compact(case, dp)
    assert m.n_l == 0 and m.C.shape[1] == 0 and m.G.shape[1] == 0
    assert m.b.size == 2          # balance + angle pin
    assert np.all(m.J == 0.0)
    assert [r.kind for r in m.eq_rows] == ["NodalBalance", "AngleRef"]


def test_twobus_feasibility_values(twobus, cfg):
    m = build_compact(twobus, initial_dispatch(twobus, cfg))
    assert feasibility_model(m, [0.50]).objective == pytest.approx(0.0, abs=1e-9)
    r70 = feasibility_model(m, [0.70])
    assert r70.objective_mw == pytest.approx(5.0, abs=1e-6)
    r44 = feasibility_model(m, [0.44])
    assert r44.objective > 1e-6
    kinds = {k for k in r44.slacks}
    assert kinds & {"thermal limit of line 1-2 (forward)",
                    "ramp-up limit of generator 2 at bus 2"}


def test_feasibility_weights_steer_degenerate_optimum(twobus, cfg):
    m = build_compact(twobus, initial_dispatch(twobus, cfg))
    base = feasibility_model(m, [0.44])
    steered = feasibility_model(m, [0.44], weights={"FlowUpper": 3.0,
                                                    "FlowLower": 3.0})
    assert "thermal limit of line 1-2 (forward)" in base.slacks
    assert "thermal limit of line 1-2 (forward)" not in steered.slacks
    assert "ramp-up limit of generator 2 at bus 2" in steered.slacks
    # Hard equalities leave the measured violation unchanged here.
    hard = feasibility_model(m, [0.44], weights={"NodalBalance": math.inf,
                                                 "FlowDefinition": math.inf,
                                                 "AngleRef": math.inf})
    assert hard.objective == pytest.approx(base.objective, abs=1e-9)


@pytest.mark.parametrize("fixture", ["twobus", "pjm5", "ieee39"])
def test_forecast_point_is_dispatchable(fixture, cfg, request):
    case = request.getfixturevalue(fixture)
    m = build_compact(case, initial_dispatch(case, cfg))
    w_bar = np.array(case.forecast_mw) / case.base_mva
    assert feasibility_model(m, w_bar).objective <= 1e-9


def test_feasibility_duals_bounded(pjm5, cfg):
    m = build_compact(pjm5, initial_dispatch(pjm5, cfg))
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = rng.uniform(0, 1.5, size=2)
        r = feasibility_model(m, w)
        assert np.all(r.alpha <= 1 + 1e-8) and np.all(r.alpha >= -1 - 1e-8)
        assert np.all(r.delta >= -1e-10) and np.all(r.delta <= 1 + 1e-8)


def _linprog_feasibility(m, w, weights):
    """Weighted slacked model assembled from the blocks and solved by
    linprog: (objective or inf, inequality slacks or None)."""
    from scipy.optimize import linprog
    eq_w = np.array([weights.get(r.label, weights.get(r.kind, 1.0)) for r in m.eq_rows])
    in_w = np.array([weights.get(r.label, weights.get(r.kind, 1.0)) for r in m.in_rows])
    m_eq, m_in = m.b.size, m.d.size
    X_eq = np.hstack([m.B, m.C, m.D])
    nx = X_eq.shape[1]
    # x, then per equality row a surplus and a deficit, per inequality a deficit
    A_eq = np.hstack([X_eq, np.eye(m_eq), -np.eye(m_eq), np.zeros((m_eq, m_in))])
    A_ub = np.hstack([m.F, m.G, m.J, np.zeros((m_in, 2 * m_eq)), -np.eye(m_in)])
    slack_w = np.concatenate([eq_w, eq_w, in_w])
    hard = np.isinf(slack_w)
    c = np.concatenate([np.zeros(nx), np.where(hard, 0.0, slack_w)])
    bounds = [(None, None)] * nx + [(0.0, 0.0 if h else None) for h in hard]
    res = linprog(c, A_ub=A_ub, b_ub=m.d, A_eq=A_eq, b_eq=m.b - m.A @ w,
                  bounds=bounds, method="highs")
    if res.status == 2:
        return math.inf, None
    assert res.status == 0
    return res.fun, res.x[nx + 2 * m_eq:]


@pytest.mark.parametrize("fixture", ["pjm5", "ieee39"])
def test_feasibility_model_matches_linprog_reference(fixture, cfg, request):
    case = request.getfixturevalue(fixture)
    m = build_compact(case, initial_dispatch(case, cfg))
    rng = np.random.default_rng(7)
    ws = [rng.uniform(0.0, 1.5 * m.farm_capacity_pu) for _ in range(10)]
    # Harden the inequality row that the hard-equality probes lean on most.
    lean = sum(_linprog_feasibility(m, w, _HARD_EQUALITIES)[1] for w in ws)
    assert lean.max() > 1e-6
    hard_row = m.in_rows[int(np.argmax(lean))].label
    weightings = [{}, dict(_HARD_EQUALITIES),
                  {**_HARD_EQUALITIES, hard_row: math.inf}]
    kind_of = {r.label: r.kind for r in m.eq_rows + m.in_rows}
    infeasible = 0
    for weights in weightings:
        for w in ws:
            ref, _ = _linprog_feasibility(m, w, weights)
            got = feasibility_model(m, w, weights=weights or None)
            if math.isinf(ref):
                infeasible += 1
                assert not got.feasible and math.isinf(got.objective)
            else:
                assert got.feasible
                assert got.objective == pytest.approx(ref, rel=1e-7, abs=1e-8)
                assert not [label for label in got.slacks if math.isinf(
                    weights.get(label, weights.get(kind_of[label], 1.0)))]
    assert infeasible < len(ws)   # the hardened row leaves probes to compare


def test_feasibility_homogeneity(twobus, cfg):
    dp = initial_dispatch(twobus, cfg)
    m = build_compact(twobus, dp)
    gamma = 3.0
    raw = twobus.raw
    scaled_raw = replace(
        raw,
        buses=tuple(replace(b, load_mw=b.load_mw * gamma) for b in raw.buses),
        branches=tuple(replace(br, rate_a_mw=br.rate_a_mw * gamma)
                       for br in raw.branches),
        generators=tuple(replace(g, p_max_mw=g.p_max_mw * gamma,
                                 p_min_mw=g.p_min_mw * gamma)
                         for g in raw.generators),
    )
    scaled_case = replace(twobus, raw=scaled_raw,
                          forecast_mw=tuple(f * gamma for f in twobus.forecast_mw))
    scaled_dp = DispatchPoint(p_star=dp.p_star * gamma, lo=dp.lo * gamma,
                              hi=dp.hi * gamma, ramp_up=dp.ramp_up * gamma,
                              ramp_dn=dp.ramp_dn * gamma)
    sm = build_compact(scaled_case, scaled_dp)
    for w in (0.70, 0.44, 1.0, 0.0):
        ref = feasibility_model(m, [w]).objective
        got = feasibility_model(sm, [w * gamma]).objective
        assert got == pytest.approx(gamma * ref, abs=1e-8)


def test_ptdf_two_bus_reference_choice():
    # Reference at bus 2: injecting at bus 1 flows fully down the line.
    text = _case_text(
        ["1 1 0 0 0 0 1 1 0 110 1 1.1 0.9;",
         "2 3 10 0 0 0 1 1 0 110 1 1.1 0.9;"],
        ["2 0 0 0 0 1 100 1 50 0;"],
        ["1 2 0 1.0 0 100 0 0 0 0 1 -360 360;"],
        ["2 0 0 2 10 0;"])
    case = apply_renewables(parse_matpower(text), [])
    ptdf = build_ptdf(case)
    assert ptdf.ref_bus == 2
    assert ptdf.matrix == pytest.approx(np.array([[1.0, 0.0]]), abs=1e-12)


def test_ptdf_three_bus_ring_closed_form():
    text = _case_text(
        ["1 3 0 0 0 0 1 1 0 110 1 1.1 0.9;",
         "2 1 10 0 0 0 1 1 0 110 1 1.1 0.9;",
         "3 1 10 0 0 0 1 1 0 110 1 1.1 0.9;"],
        ["1 0 0 0 0 1 100 1 50 0;"],
        ["1 2 0 0.2 0 100 0 0 0 0 1 -360 360;",
         "2 3 0 0.2 0 100 0 0 0 0 1 -360 360;",
         "1 3 0 0.2 0 100 0 0 0 0 1 -360 360;"],
        ["2 0 0 2 10 0;"])
    case = apply_renewables(parse_matpower(text), [])
    pi = build_ptdf(case).matrix
    mags = np.abs(pi[np.abs(pi) > 1e-9])
    assert np.all((np.abs(mags - 1 / 3) < 1e-9) | (np.abs(mags - 2 / 3) < 1e-9))


@pytest.mark.parametrize("fixture", ["pjm5", "ieee39"])
def test_angle_ptdf_equivalence(fixture, cfg, request):
    case = request.getfixturevalue(fixture)
    m = build_compact(case, initial_dispatch(case, cfg))
    ptdf = build_ptdf(case)
    assert np.abs(ptdf.pre_shift.sum(axis=1)).max() < 1e-9

    # For balanced injections, flows from the angle blocks match pi @ inj.
    n_b, n_l = m.n_v, m.n_l
    rng = np.random.default_rng(42)
    Cbal = m.C[:n_b, :]               # balance rows: inj + C l = 0 shape
    Dflow = m.D[n_b:n_b + n_l, :]     # flow-definition rows: l + D v = 0
    Bb = Cbal @ Dflow                 # inj = Bb @ v
    worst = 0.0
    for _ in range(10):
        inj = rng.normal(size=n_b)
        inj -= inj.mean()
        theta = np.linalg.pinv(Bb) @ inj
        flows = -(Dflow @ theta)
        worst = max(worst, np.abs(flows - ptdf.matrix @ inj).max())
    assert worst < 1e-9


def test_zero_reactance_is_singular(twobus, cfg):
    raw = twobus.raw
    bad = replace(raw, branches=tuple(replace(br, reactance_pu=0.0)
                                      for br in raw.branches))
    case = replace(twobus, raw=bad)
    with pytest.raises(SingularNetwork):
        build_compact(case, initial_dispatch(twobus, cfg))
