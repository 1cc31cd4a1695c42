"""Compact DC dispatch model, initial dispatch, PTDF, feasibility solve.

The dispatch feasible set is held as four variable blocks (renewable
injections w, flexible outputs p, line flows l, bus angles v) with an
equality block  A w + B p + C l + D v = b  (nodal balance, flow definition,
reference-angle pin) and an inequality block  F p + G l + J v <= d  (line
ratings, generator bounds from the ramp-limited dispatch point, angle
spreads where the case bounds them).  Renewables are injections only, so w
enters only the balance rows, through A; their admissible box lives with
the region engine.

Every row over (p, l, v) is built once, with its label, by
``_network_rows``.  The initial dispatch, the compact blocks and the
slacked feasibility LP are all taken from those rows.

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
    label: str


@dataclass(frozen=True)
class DispatchPoint:
    """Pre-dispatch p* and the ramp-limited envelope around it (MW)."""
    p_star: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if not (np.all(self.lo <= self.p_star + 1e-7)
                and np.all(self.p_star <= self.hi + 1e-7)):
            raise DimensionMismatch("dispatch point outside its own envelope")


@dataclass
class CompactPsd:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    b: np.ndarray
    F: np.ndarray
    G: np.ndarray
    J: np.ndarray
    d: np.ndarray
    eq_rows: list[ConstraintDescriptor]
    in_rows: list[ConstraintDescriptor]
    base_mva: float
    farm_capacity_pu: np.ndarray   # per-farm installed capacity, renewable order
    # elastic_lp of the (p, l, v) rows, its matrix assembled when built.
    # feasibility_model swaps in ub and r_eq with with_vectors.
    slacked: LinearProgram = field(repr=False)

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


@dataclass
class FeasibilityResult:
    objective: float                       # per-unit violation measure
    slacks: dict[str, float]               # label -> slack (pu), nonzero rows
    feasible: bool = True                  # False only when rows were held hard


# --- shared network view ---------------------------------------------------------


class _Net:
    def __init__(self, case: CaseData):
        self.base = case.base_mva
        self.buses = case.raw.buses
        self.bus_pos = {b.id: i for i, b in enumerate(self.buses)}
        self.branches = case.raw.branches
        self.ref_pos = self.bus_pos[case.raw.ref_bus]
        for br in self.branches:
            if br.reactance_pu == 0.0:
                raise SingularNetwork(
                    f"in-service branch {br.from_bus}-{br.to_bus} has zero reactance")
        self.n_b = len(self.buses)
        self.n_l = len(self.branches)
        # Each branch's name in row labels.  Parallel circuits, between the
        # same two buses, are numbered in case order so each label names one row.
        ends = [{br.from_bus, br.to_bus} for br in self.branches]
        self.line_names = [f"line {br.from_bus}-{br.to_bus}" + (
            f" circuit {ends[:li].count(e) + 1}" if ends.count(e) > 1 else "")
            for li, (br, e) in enumerate(zip(self.branches, ends))]
        self.load_pu = np.array([b.load_mw for b in self.buses]) / self.base

    def angle_limited(self, br):
        if abs(br.angle_min_deg) >= _ANGLE_UNLIMITED and \
           abs(br.angle_max_deg) >= _ANGLE_UNLIMITED:
            return False
        if br.angle_min_deg == 0.0 and br.angle_max_deg == 0.0:
            return False  # MATPOWER convention: 0/0 means unconstrained
        return True


def _network_rows(net: _Net, case: CaseData, dp: DispatchPoint | None = None):
    """Labelled rows over the columns (p, l, v): M_eq x = r_eq, M_in x <= r_in.

    Returns ``M_eq, r_eq, M_in, r_in, eq_rows, in_rows``.  The inequality
    rows are the line ratings, then the generator envelope of `dp` (only
    when it is given; the dispatch LP holds generator limits as variable
    bounds), then the angle spreads.
    """
    n_p = len(case.flexible)
    n_l, n_b = net.n_l, net.n_b
    ncol = n_p + n_l + n_b
    M_eq = np.zeros((n_b + n_l + 1, ncol))
    r_eq = np.zeros(n_b + n_l + 1)
    eq_rows = [ConstraintDescriptor("NodalBalance", f"power balance at bus {bus.id}")
               for bus in net.buses]

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
        eq_rows.append(ConstraintDescriptor(
            "FlowDefinition", f"flow definition of {net.line_names[li]}"))
    M_eq[n_b + n_l, n_p + n_l + net.ref_pos] = 1.0
    ref_id = net.buses[net.ref_pos].id
    eq_rows.append(ConstraintDescriptor("AngleRef", f"reference angle at bus {ref_id}"))
    r_eq[:n_b] = net.load_pu

    in_rows: list[ConstraintDescriptor] = []
    rows, rhs = [], []

    def pair(kind, cols, coefs, upper, lower):
        """coefs @ x[cols] <= the rhs of `upper`, -coefs @ x[cols] <= the rhs
        of `lower`; each is (label, rhs)."""
        for suffix, sign, (label, r) in (("Upper", 1.0, upper), ("Lower", -1.0, lower)):
            row = np.zeros(ncol)
            row[cols] = sign * np.array(coefs)
            in_rows.append(ConstraintDescriptor(kind + suffix, label))
            rows.append(row)
            rhs.append(r)

    for li, br in enumerate(net.branches):
        if br.rate_a_mw <= 0:
            continue
        name, rate = net.line_names[li], br.rate_a_mw / net.base
        pair("Flow", [n_p + li], [1.0],
             (f"thermal limit of {name} (forward)", rate),
             (f"thermal limit of {name} (reverse)", rate))
    for k, gi in enumerate(case.flexible if dp is not None else ()):
        gen = case.gen(gi)
        up_kind = "ramp-up limit" if dp.hi[k] < gen.p_max_mw - 1e-9 else "output ceiling"
        dn_kind = "ramp-down limit" if dp.lo[k] > gen.p_min_mw + 1e-9 else "output floor"
        pair("Gen", [k], [1.0],
             (f"{up_kind} of generator {gi} at bus {gen.bus}", dp.hi[k] / net.base),
             (f"{dn_kind} of generator {gi} at bus {gen.bus}", -dp.lo[k] / net.base))
    for li, br in enumerate(net.branches):
        if not net.angle_limited(br):
            continue
        f, t = net.bus_pos[br.from_bus], net.bus_pos[br.to_bus]
        name = net.line_names[li]
        pair("AngleDiff", [n_p + n_l + f, n_p + n_l + t], [1.0, -1.0],
             (f"angle spread of {name} (max)", math.radians(br.angle_max_deg)),
             (f"angle spread of {name} (min)", -math.radians(br.angle_min_deg)))
    M_in = np.array(rows) if rows else np.zeros((0, ncol))
    return M_eq, r_eq, M_in, np.array(rhs), eq_rows, in_rows


# --- operations -------------------------------------------------------------------


def initial_dispatch(case: CaseData, cfg: StudyConfig) -> DispatchPoint:
    """DC optimal dispatch with forecast renewables and derated capacity."""
    net = _Net(case)
    n_p = len(case.flexible)
    rates = np.array([case.cost(i).linear_rate() for i in case.flexible])
    p_max = np.array([case.gen(i).p_max_mw for i in case.flexible])
    p_min = np.array([case.gen(i).p_min_mw for i in case.flexible])

    c = np.concatenate([rates, np.zeros(net.n_l + net.n_b)])
    M_eq, r_eq, M_in, r_in, _, _ = _network_rows(net, case)
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
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        # HiGHS's presolve may call an unbounded LP infeasible: only a
        # positive least total violation proves the rows contradictory.
        shortfall = solve_lp(elastic_lp(lp)).objective
        if sol.status == UNBOUNDED or shortfall <= 1e-9:
            raise UnboundedCost("dispatch LP unbounded; check gencost records")
        raise InfeasibleDispatch(shortfall * net.base)

    p_star = sol.x[:n_p] * net.base
    ramp = cfg.ramp_fraction * p_max
    lo = np.maximum(p_star - ramp, p_min)
    hi = np.minimum(p_star + ramp, p_max)
    return DispatchPoint(p_star=p_star, lo=lo, hi=hi)


def build_compact(case: CaseData, dp: DispatchPoint) -> CompactPsd:
    """Assemble the four-block compact model around a dispatch point."""
    net = _Net(case)
    n_p = len(case.flexible)
    if dp.p_star.size != n_p:
        raise DimensionMismatch(
            f"dispatch point covers {dp.p_star.size} units, case has {n_p}")
    n_pl = n_p + net.n_l
    M_eq, r_eq, M_in, r_in, eq_rows, in_rows = _network_rows(net, case, dp)

    A = np.zeros((r_eq.size, len(case.renewable)))
    for k, gi in enumerate(case.renewable):
        A[net.bus_pos[case.gen(gi).bus], k] = 1.0
    caps = np.array([case.gen(gi).p_max_mw for gi in case.renewable]) / net.base
    slacked = elastic_lp(LinearProgram(c=np.zeros(M_eq.shape[1]), M_eq=M_eq,
                                       r_eq=r_eq, M_in=M_in, r_in=r_in))
    return CompactPsd(A=A, B=M_eq[:, :n_p], C=M_eq[:, n_p:n_pl], D=M_eq[:, n_pl:],
                      b=r_eq, F=M_in[:, :n_p], G=M_in[:, n_p:n_pl],
                      J=M_in[:, n_pl:], d=r_in, eq_rows=eq_rows, in_rows=in_rows,
                      base_mva=net.base, farm_capacity_pu=caps, slacked=slacked)


def build_ptdf(case: CaseData) -> np.ndarray:
    """Line-flow sensitivities to bus injections (lines x buses), the
    reference column zeroed; validation oracle for the angle model."""
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
    return pre - pre[:, [net.ref_pos]]


# --- feasibility model --------------------------------------------------------------


def feasibility_model(m: CompactPsd, w, hard=()) -> FeasibilityResult:
    """Least total slack needed to absorb renewable output `w` (pu).

    Every row's slack costs 1, except that a row whose label or kind is in
    `hard` gets no slack: it is held hard.  The objective is zero exactly
    when `w` is dispatchable.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.size != m.n_w:
        raise DimensionMismatch(f"w has {w.size} entries, model has {m.n_w} farms")

    # Columns of m.slacked: x = (p, l, v), then per equality row a surplus
    # and a deficit, then per inequality row a deficit, fixed at 0 if hard.
    m_eq = m.b.size
    nx = m.n_p + m.n_l + m.n_v
    soft = [r.label not in hard and r.kind not in hard for r in m.eq_rows + m.in_rows]
    free = np.concatenate([np.ones(nx, dtype=bool), soft[:m_eq], soft])
    sol = solve_lp(m.slacked.with_vectors(ub=np.where(free, m.slacked.ub, 0.0),
                                          r_eq=m.b - m.A @ w))
    if sol.status != OPTIMAL:
        # Only reachable when `hard` holds rows; the fully slacked model is
        # feasible by construction.
        return FeasibilityResult(objective=math.inf, slacks={}, feasible=False)

    t = sol.x[nx:]
    row_slack = np.concatenate([t[:m_eq] + t[m_eq:2 * m_eq], t[2 * m_eq:]])
    slacks = {desc.label: float(v) for desc, v in zip(m.eq_rows + m.in_rows, row_slack)
              if v > 1e-12}
    return FeasibilityResult(objective=float(sol.objective), slacks=slacks)
