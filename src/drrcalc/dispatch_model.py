"""Compact DC dispatch model, initial dispatch, PTDF, feasibility solve.

The dispatch feasible set is held as four variable blocks (renewable
injections w, flexible outputs p, line flows l, bus angles v) with an
equality block  A w + B p + C l + D v = b  (nodal balance, flow definition,
reference-angle pin) and an inequality block  E w + F p + G l + J v <= d
(line ratings, generator bounds from the ramp-limited dispatch point, angle
spreads where the case bounds them).  Renewables are injections only, so E
is structurally zero; their admissible box lives with the region engine.

All arithmetic is per-unit on the case base; MW appears at the interfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .caseio import CaseData, StudyConfig
from .errors import (DimensionMismatch, InfeasibleDispatch, SingularNetwork,
                     UnboundedCost)
from .lp import OPTIMAL, UNBOUNDED, LinearProgram, elastic_lp, solve_lp

_ANGLE_UNLIMITED = 360.0


@dataclass(frozen=True)
class ConstraintDescriptor:
    kind: str   # NodalBalance | FlowDefinition | AngleRef | FlowUpper |
                # FlowLower | GenUpper | GenLower | AngleDiffUpper | AngleDiffLower
    ref: int    # bus id, branch position (0-based), or 1-based gen row
    label: str

    def __str__(self):
        return self.label


@dataclass(frozen=True)
class DispatchPoint:
    """Pre-dispatch p* and the ramp-limited envelope around it (MW)."""
    p_star: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    ramp_up: np.ndarray
    ramp_dn: np.ndarray

    def __post_init__(self):
        if not (np.all(self.lo <= self.p_star + 1e-7)
                and np.all(self.p_star <= self.hi + 1e-7)):
            raise DimensionMismatch("dispatch point outside its own envelope")


@dataclass(frozen=True)
class PtdfMatrix:
    """Line-flow sensitivities to bus injections; reference column zeroed."""
    matrix: np.ndarray          # lines x buses
    pre_shift: np.ndarray       # same, before zeroing the reference column
    bus_ids: tuple[int, ...]
    ref_bus: int


@dataclass
class CompactPsd:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    b: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    J: np.ndarray
    d: np.ndarray
    eq_rows: list[ConstraintDescriptor]
    in_rows: list[ConstraintDescriptor]
    var_index: list[tuple[str, int]]
    base_mva: float
    farm_capacity_pu: np.ndarray   # per-farm installed capacity, renewable order
    _feas_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_w(self):
        return self.A.shape[1]

    @property
    def n_p(self):
        return self.B.shape[1]

    @property
    def n_l(self):
        return self.C.shape[1]

    @property
    def n_v(self):
        return self.D.shape[1]

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_feas_cache"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


@dataclass
class FeasibilityResult:
    objective: float                       # per-unit violation measure
    slacks: dict[str, float]               # label -> slack (pu), nonzero rows
    dispatch: np.ndarray                   # p block (pu)
    alpha: np.ndarray                      # equality-row duals
    delta: np.ndarray                      # inequality-row duals (>= 0)
    feasible: bool = True                  # False only when rows were hardened

    @property
    def objective_mw(self) -> float:
        return self.objective * self._base

    _base: float = 100.0


# --- shared network view ---------------------------------------------------------


class _Net:
    def __init__(self, case: CaseData):
        self.case = case
        self.base = case.base_mva
        self.buses = case.in_service_buses()
        self.bus_pos = {b.id: i for i, b in enumerate(self.buses)}
        self.branches = case.in_service_branches()
        self.ref_pos = next(i for i, b in enumerate(self.buses) if b.type == 3)
        for br in self.branches:
            if br.reactance_pu == 0.0:
                raise SingularNetwork(
                    f"in-service branch {br.from_bus}-{br.to_bus} has zero reactance")
        self.n_b = len(self.buses)
        self.n_l = len(self.branches)
        self.load_pu = np.array([b.load_mw for b in self.buses]) / self.base

    def angle_limited(self, br):
        if abs(br.angle_min_deg) >= _ANGLE_UNLIMITED and \
           abs(br.angle_max_deg) >= _ANGLE_UNLIMITED:
            return False
        if br.angle_min_deg == 0.0 and br.angle_max_deg == 0.0:
            return False  # MATPOWER convention: 0/0 means unconstrained
        return True


# --- operations -------------------------------------------------------------------


def initial_dispatch(case: CaseData, cfg: StudyConfig) -> DispatchPoint:
    """DC optimal dispatch with forecast renewables and derated capacity."""
    net = _Net(case)
    n_p = len(case.flexible)
    rates = np.array([case.cost(i).linear_rate() for i in case.flexible])
    p_max = np.array([case.gen(i).p_max_mw for i in case.flexible])
    p_min = np.array([case.gen(i).p_min_mw for i in case.flexible])

    c = np.concatenate([rates, np.zeros(net.n_l + net.n_b)])
    M_eq, r_eq, M_in, r_in = _network_blocks(net, case)
    # Renewable forecast enters the balance rows as fixed injection.
    for k, gi in enumerate(case.renewable):
        row = net.bus_pos[case.gen(gi).bus]
        r_eq[row] -= case.forecast_mw[k] / net.base

    lb = np.concatenate([p_min / net.base,
                         np.full(net.n_l + net.n_b, -np.inf)])
    ub = np.concatenate([cfg.reserve_factor * p_max / net.base,
                         np.full(net.n_l + net.n_b, np.inf)])
    lp = LinearProgram(c=c, sense="min", M_eq=M_eq, r_eq=r_eq,
                       M_in=M_in, r_in=r_in, lb=lb, ub=ub)
    sol = solve_lp(lp, duals=False)
    if sol.status == UNBOUNDED:
        raise UnboundedCost("dispatch LP unbounded; check gencost records")
    if sol.status != OPTIMAL:
        shortfall = _aggregate_shortfall(lp) * net.base
        raise InfeasibleDispatch(shortfall)

    p_star = sol.x[:n_p] * net.base
    ramp = cfg.ramp_fraction * p_max
    lo = np.maximum(p_star - ramp, p_min)
    hi = np.minimum(p_star + ramp, p_max)
    return DispatchPoint(p_star=p_star, lo=lo, hi=hi, ramp_up=ramp.copy(),
                         ramp_dn=ramp.copy())


def _aggregate_shortfall(lp: LinearProgram) -> float:
    """Minimum total violation of an infeasible dispatch LP (pu)."""
    sol = solve_lp(elastic_lp(lp))
    return sol.objective if sol.optimal else math.nan


def _network_blocks(net: _Net, case: CaseData):
    """Equality/inequality blocks over columns (p, l, v).

    Generator bounds are not emitted here: the dispatch LP carries them as
    variable bounds and the compact build inserts its own labeled rows.
    """
    n_p = len(case.flexible)
    n_l, n_b = net.n_l, net.n_b
    ncol = n_p + n_l + n_b
    m_eq = n_b + n_l + 1
    M_eq = np.zeros((m_eq, ncol))
    r_eq = np.zeros(m_eq)

    for k, gi in enumerate(case.flexible):
        M_eq[net.bus_pos[case.gen(gi).bus], k] = 1.0
    for li, br in enumerate(net.branches):
        f, t = net.bus_pos[br.from_bus], net.bus_pos[br.to_bus]
        M_eq[f, n_p + li] = -1.0
        M_eq[t, n_p + li] = 1.0
        # flow definition: l - (v_f - v_t)/x = 0
        rdef = n_b + li
        M_eq[rdef, n_p + li] = 1.0
        M_eq[rdef, n_p + n_l + f] = -1.0 / br.reactance_pu
        M_eq[rdef, n_p + n_l + t] = 1.0 / br.reactance_pu
    M_eq[n_b + n_l, n_p + n_l + net.ref_pos] = 1.0
    r_eq[:n_b] = net.load_pu

    rows_in = []
    rhs_in = []
    for li, br in enumerate(net.branches):
        if br.rate_a_mw <= 0:
            continue
        row = np.zeros(ncol)
        row[n_p + li] = 1.0
        rows_in.append(row)
        rhs_in.append(br.rate_a_mw / net.base)
        rows_in.append(-row)
        rhs_in.append(br.rate_a_mw / net.base)
    for li, br in enumerate(net.branches):
        if not net.angle_limited(br):
            continue
        f, t = net.bus_pos[br.from_bus], net.bus_pos[br.to_bus]
        row = np.zeros(ncol)
        row[n_p + n_l + f] = 1.0
        row[n_p + n_l + t] = -1.0
        rows_in.append(row)
        rhs_in.append(math.radians(br.angle_max_deg))
        rows_in.append(-row)
        rhs_in.append(-math.radians(br.angle_min_deg))
    M_in = np.array(rows_in) if rows_in else np.zeros((0, ncol))
    r_in = np.array(rhs_in)
    return M_eq, r_eq, M_in, r_in


def build_compact(case: CaseData, dp: DispatchPoint) -> CompactPsd:
    """Assemble the four-block compact model around a dispatch point."""
    net = _Net(case)
    n_p = len(case.flexible)
    n_w = len(case.renewable)
    if dp.p_star.size != n_p:
        raise DimensionMismatch(
            f"dispatch point covers {dp.p_star.size} units, case has {n_p}")
    n_l, n_b = net.n_l, net.n_b

    m_eq = n_b + n_l + 1
    A = np.zeros((m_eq, n_w))
    for k, gi in enumerate(case.renewable):
        A[net.bus_pos[case.gen(gi).bus], k] = 1.0

    M_eq, r_eq, _, _ = _network_blocks(net, case)
    B = M_eq[:, :n_p]
    C = M_eq[:, n_p:n_p + n_l]
    D = M_eq[:, n_p + n_l:]
    b = r_eq

    eq_rows: list[ConstraintDescriptor] = []
    for bus in net.buses:
        eq_rows.append(ConstraintDescriptor(
            "NodalBalance", bus.id, f"power balance at bus {bus.id}"))
    for li, br in enumerate(net.branches):
        eq_rows.append(ConstraintDescriptor(
            "FlowDefinition", li,
            f"flow definition of line {br.from_bus}-{br.to_bus}"))
    ref_id = net.buses[net.ref_pos].id
    eq_rows.append(ConstraintDescriptor(
        "AngleRef", ref_id, f"reference angle at bus {ref_id}"))

    in_rows: list[ConstraintDescriptor] = []
    F_rows, G_rows, J_rows, d_vals = [], [], [], []

    def add(desc, frow, grow, jrow, rhs):
        in_rows.append(desc)
        F_rows.append(frow)
        G_rows.append(grow)
        J_rows.append(jrow)
        d_vals.append(rhs)

    for li, br in enumerate(net.branches):
        if br.rate_a_mw <= 0:
            continue
        g = np.zeros(n_l)
        g[li] = 1.0
        name = f"line {br.from_bus}-{br.to_bus}"
        add(ConstraintDescriptor("FlowUpper", li, f"thermal limit of {name} (forward)"),
            np.zeros(n_p), g, np.zeros(n_b), br.rate_a_mw / net.base)
        add(ConstraintDescriptor("FlowLower", li, f"thermal limit of {name} (reverse)"),
            np.zeros(n_p), -g, np.zeros(n_b), br.rate_a_mw / net.base)
    for k, gi in enumerate(case.flexible):
        gen = case.gen(gi)
        f = np.zeros(n_p)
        f[k] = 1.0
        up_kind = "ramp-up limit" if dp.hi[k] < gen.p_max_mw - 1e-9 else "output ceiling"
        dn_kind = "ramp-down limit" if dp.lo[k] > gen.p_min_mw + 1e-9 else "output floor"
        add(ConstraintDescriptor("GenUpper", gi,
                                 f"{up_kind} of generator {gi} at bus {gen.bus}"),
            f, np.zeros(n_l), np.zeros(n_b), dp.hi[k] / net.base)
        add(ConstraintDescriptor("GenLower", gi,
                                 f"{dn_kind} of generator {gi} at bus {gen.bus}"),
            -f, np.zeros(n_l), np.zeros(n_b), -dp.lo[k] / net.base)
    for li, br in enumerate(net.branches):
        if not net.angle_limited(br):
            continue
        j = np.zeros(n_b)
        j[net.bus_pos[br.from_bus]] = 1.0
        j[net.bus_pos[br.to_bus]] = -1.0
        name = f"line {br.from_bus}-{br.to_bus}"
        add(ConstraintDescriptor("AngleDiffUpper", li, f"angle spread of {name} (max)"),
            np.zeros(n_p), np.zeros(n_l), j, math.radians(br.angle_max_deg))
        add(ConstraintDescriptor("AngleDiffLower", li, f"angle spread of {name} (min)"),
            np.zeros(n_p), np.zeros(n_l), -j, -math.radians(br.angle_min_deg))

    m_in = len(in_rows)
    F = np.array(F_rows) if m_in else np.zeros((0, n_p))
    G = np.array(G_rows) if m_in else np.zeros((0, n_l))
    J = np.array(J_rows) if m_in else np.zeros((0, n_b))
    E = np.zeros((m_in, n_w))
    d = np.array(d_vals)

    var_index = ([("w", gi) for gi in case.renewable]
                 + [("p", gi) for gi in case.flexible]
                 + [("l", li) for li in range(n_l)]
                 + [("v", bus.id) for bus in net.buses])
    caps = np.array([case.gen(gi).p_max_mw for gi in case.renewable]) / net.base
    return CompactPsd(A=A, B=B, C=C, D=D, b=b, E=E, F=F, G=G, J=J, d=d,
                      eq_rows=eq_rows, in_rows=in_rows, var_index=var_index,
                      base_mva=net.base, farm_capacity_pu=caps)


def build_ptdf(case: CaseData) -> PtdfMatrix:
    """Injection-to-flow sensitivities; validation oracle for the angle model."""
    net = _Net(case)
    n_b, n_l = net.n_b, net.n_l
    Bbus = np.zeros((n_b, n_b))
    Bf = np.zeros((n_l, n_b))
    for li, br in enumerate(net.branches):
        f, t = net.bus_pos[br.from_bus], net.bus_pos[br.to_bus]
        y = 1.0 / br.reactance_pu
        Bbus[f, f] += y
        Bbus[t, t] += y
        Bbus[f, t] -= y
        Bbus[t, f] -= y
        Bf[li, f] = y
        Bf[li, t] = -y
    # Pseudo-inverse keeps the all-ones null space, so rows sum to zero before
    # the reference column is shifted out.
    try:
        pre = Bf @ np.linalg.pinv(Bbus)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SingularNetwork("susceptance matrix is not invertible") from exc
    rank = np.linalg.matrix_rank(Bbus, tol=1e-9)
    if rank < n_b - 1:
        raise SingularNetwork("network susceptance matrix is rank deficient")
    pi = pre - pre[:, [net.ref_pos]]
    return PtdfMatrix(matrix=pi, pre_shift=pre,
                      bus_ids=tuple(b.id for b in net.buses),
                      ref_bus=net.buses[net.ref_pos].id)


# --- feasibility model --------------------------------------------------------------


class _FeasibilityTemplate:
    """Frozen matrices of the slacked model; only the rhs moves with w."""

    def __init__(self, m: CompactPsd, weights):
        m_eq, m_in = m.b.size, m.d.size
        nx = m.n_p + m.n_l + m.n_v
        eq_w = np.ones(m_eq)
        in_w = np.ones(m_in)
        hard_eq = np.zeros(m_eq, dtype=bool)
        hard_in = np.zeros(m_in, dtype=bool)
        if weights:
            for i, desc in enumerate(m.eq_rows):
                v = weights.get(desc.label, weights.get(desc.kind))
                if v is not None:
                    if math.isinf(v):
                        hard_eq[i] = True
                    else:
                        eq_w[i] = v
            for i, desc in enumerate(m.in_rows):
                v = weights.get(desc.label, weights.get(desc.kind))
                if v is not None:
                    if math.isinf(v):
                        hard_in[i] = True
                    else:
                        in_w[i] = v
            bad = [v for v in weights.values() if not v > 0]
            if bad:
                raise ValueError("feasibility weights must be positive")

        X = np.hstack([m.B, m.C, m.D])
        self.M_eq = np.hstack([X, np.eye(m_eq), -np.eye(m_eq),
                               np.zeros((m_eq, m_in))])
        self.M_in = np.hstack([np.hstack([m.F, m.G, m.J]),
                               np.zeros((m_in, 2 * m_eq)), -np.eye(m_in)])
        self.c = np.concatenate([np.zeros(nx), eq_w, eq_w, in_w])
        lb = np.concatenate([np.full(nx, -np.inf), np.zeros(2 * m_eq + m_in)])
        ub = np.full(nx + 2 * m_eq + m_in, np.inf)
        ub[nx:nx + m_eq][hard_eq] = 0.0
        ub[nx + m_eq:nx + 2 * m_eq][hard_eq] = 0.0
        ub[nx + 2 * m_eq:][hard_in] = 0.0
        self.lb, self.ub = lb, ub
        self.nx = nx
        self.m_eq, self.m_in = m_eq, m_in


def feasibility_model(m: CompactPsd, w,
                      weights: dict[str, float] | None = None) -> FeasibilityResult:
    """Minimum weighted slack needed to absorb renewable output `w` (pu).

    `weights` maps a constraint label or kind to a positive penalty; ``inf``
    removes the slack for that row entirely (the row becomes hard).  The
    objective is zero exactly when `w` is dispatchable.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.size != m.n_w:
        raise DimensionMismatch(f"w has {w.size} entries, model has {m.n_w} farms")
    key = (None if not weights
           else tuple(sorted((k, float(v)) for k, v in weights.items())))
    tmpl = m._feas_cache.get(key)
    if tmpl is None:
        tmpl = _FeasibilityTemplate(m, weights)
        m._feas_cache[key] = tmpl

    lp = LinearProgram(c=tmpl.c, sense="min", M_eq=tmpl.M_eq,
                       r_eq=m.b - m.A @ w, M_in=tmpl.M_in, r_in=m.d,
                       lb=tmpl.lb, ub=tmpl.ub)
    sol = solve_lp(lp)
    if not sol.optimal:
        # Only reachable when `weights` hardened rows; the fully slacked
        # model is feasible by construction.
        res = FeasibilityResult(objective=math.inf, slacks={},
                                dispatch=np.zeros(m.n_p),
                                alpha=np.zeros(m.b.size),
                                delta=np.zeros(m.d.size), feasible=False)
        res._base = m.base_mva
        return res

    nx, m_eq, m_in = tmpl.nx, tmpl.m_eq, tmpl.m_in
    t_plus = sol.x[nx:nx + m_eq]
    t_minus = sol.x[nx + m_eq:nx + 2 * m_eq]
    s = sol.x[nx + 2 * m_eq:]
    slacks = {}
    for i, desc in enumerate(m.eq_rows):
        v = t_plus[i] + t_minus[i]
        if v > 1e-12:
            slacks[desc.label] = float(v)
    for i, desc in enumerate(m.in_rows):
        if s[i] > 1e-12:
            slacks[desc.label] = float(s[i])
    res = FeasibilityResult(objective=float(sol.objective), slacks=slacks,
                            dispatch=sol.x[:m.n_p],
                            alpha=sol.mu_eq, delta=sol.mu_in)
    res._base = m.base_mva
    return res
