"""Mixed-binary programs on top of the LP contract.

A :class:`MixedProgram` is a :class:`LinearProgram` with some columns
restricted to {0, 1}.  :func:`solve_mip` hands the whole program to the
HiGHS branch-and-cut solver through ``scipy.optimize.milp``; a program
without binaries is an LP and goes to :func:`solve_lp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import DimensionMismatch, NodeLimitExceeded, NumericalFailure
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, solve_lp

DEFAULT_NODE_LIMIT = 100_000


@dataclass
class MixedProgram:
    lp: LinearProgram
    binary_index: list[int] = field(default_factory=list)

    def __post_init__(self):
        n = self.lp.nvar
        self.binary_index = sorted(int(j) for j in self.binary_index)
        for j in self.binary_index:
            if not 0 <= j < n:
                raise DimensionMismatch(f"binary index {j} out of range")
            if self.lp.lb[j] < -1e-12 or self.lp.ub[j] > 1 + 1e-12:
                raise DimensionMismatch(
                    f"binary variable {j} must have bounds within [0, 1]"
                )


@dataclass
class MipSolution:
    status: str
    x: np.ndarray | None = None
    objective: float = np.nan
    binary_values: np.ndarray | None = None
    nodes: int = 0
    bound: float = np.nan   # best dual bound at termination

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def solve_mip(mp: MixedProgram, node_limit: int = DEFAULT_NODE_LIMIT) -> MipSolution:
    """Globally solve `mp` with a relative gap of zero; raise
    :class:`NodeLimitExceeded` when the search needs more than
    `node_limit` branch-and-bound nodes."""
    if not mp.binary_index:
        sol = solve_lp(mp.lp)
        return MipSolution(status=sol.status, x=sol.x, objective=sol.objective,
                           binary_values=np.zeros(0), nodes=0,
                           bound=sol.objective)
    return _solve_scipy_milp(mp, node_limit)


def _solve_scipy_milp(mp, node_limit):
    lp = mp.lp
    sign = 1.0 if lp.sense == "min" else -1.0
    constraints = []
    if lp.r_eq.size:
        constraints.append(LinearConstraint(lp.M_eq, lp.r_eq, lp.r_eq))
    if lp.r_in.size:
        constraints.append(LinearConstraint(lp.M_in, -np.inf, lp.r_in))
    integrality = np.zeros(lp.nvar)
    integrality[mp.binary_index] = 1
    res = milp(c=sign * lp.c, constraints=constraints, integrality=integrality,
               bounds=Bounds(lp.lb, lp.ub),
               options={"mip_rel_gap": 0.0, "node_limit": node_limit})
    if res.status == 2:
        return MipSolution(status=INFEASIBLE)
    if res.status == 3:
        return MipSolution(status=UNBOUNDED)
    # HiGHS reports its node limit as a solution limit, which milp does not
    # map to a status of its own.
    if res.status == 4 and "Solution limit reached" in res.message:
        raise NodeLimitExceeded(node_limit)
    if res.status != 0 or res.x is None:
        raise NumericalFailure(f"HiGHS MILP failed: {res.message}")
    x = np.asarray(res.x, dtype=float)
    xb = np.array([round(x[j]) for j in mp.binary_index], dtype=float)
    obj = float(lp.c @ x)
    bound = sign * res.mip_dual_bound if res.mip_dual_bound is not None else obj
    return MipSolution(status=OPTIMAL, x=x, objective=obj, binary_values=xb,
                       nodes=int(res.mip_node_count or 0), bound=float(bound))
