"""Mixed-binary programs on top of the LP contract.

A :class:`MixedProgram` is a :class:`LinearProgram` with some columns
restricted to {0, 1}.  :func:`solve_mip` hands the whole program to the
HiGHS branch-and-cut solver; a program without binaries is an LP and goes
to :func:`solve_lp`.

The MIP is solved through the same scipy-shipped HiGHS bindings as the
LPs (``lp._highs``, loaded by path so that ``scipy.optimize`` is never
imported), and HiGHS is given exactly what ``scipy.optimize.milp`` gives
it for the same program: a new HiGHS instance per MIP; the options
``log_to_console=False``, ``mip_max_nodes`` and ``mip_rel_gap=0`` and no
other; the equality rows before the inequality rows, in the CSC that
:func:`lp._csc` builds, with the costs and bounds set as an LP solve sets
them; and the integrality of every column.  So x, the node
count and the dual bound are milp's bit for bit, and region.json keeps
its bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NodeLimitExceeded, NumericalFailure
from .lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, _csc, _highs,
                 solve_lp)

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
    return _solve_highs_mip(mp, node_limit)


def _solve_highs_mip(mp: MixedProgram, node_limit: int) -> MipSolution:
    lp = mp.lp
    sign = 1.0 if lp.sense == "min" else -1.0
    # milp's row order: r_eq <= M_eq x <= r_eq first, then M_in x <= r_in.
    start, index, value = _csc(np.vstack([lp.M_eq, lp.M_in]))
    row_lower = np.concatenate([lp.r_eq, np.full(lp.r_in.size, -np.inf)])
    row_upper = np.concatenate([lp.r_eq, lp.r_in])
    integrality = np.zeros(lp.nvar, np.int32)
    integrality[mp.binary_index] = int(_highs.HighsVarType.kInteger)
    # Exactly the options milp sets; every other option is HiGHS's default.
    opts = _highs.HighsOptions()
    opts.log_to_console = False
    opts.mip_max_nodes = node_limit
    opts.mip_rel_gap = 0.0

    h = _highs._Highs()
    if (h.passOptions(opts) == _highs.HighsStatus.kError
            or h.passModel(lp.nvar, row_upper.size, index.size,
                           _highs.MatrixFormat.kColwise,
                           _highs.ObjSense.kMinimize, 0.0, sign * lp.c, lp.lb,
                           lp.ub, row_lower, row_upper, start, index, value,
                           integrality) == _highs.HighsStatus.kError
            or h.run() == _highs.HighsStatus.kError):
        raise NumericalFailure(
            f"HiGHS MILP failed: {h.modelStatusToString(h.getModelStatus())}")
    status = h.getModelStatus()
    if status == _highs.HighsModelStatus.kInfeasible:
        return MipSolution(status=INFEASIBLE)
    if status == _highs.HighsModelStatus.kUnbounded:
        return MipSolution(status=UNBOUNDED)
    # HiGHS reports its node limit as a solution limit.
    if status == _highs.HighsModelStatus.kSolutionLimit:
        raise NodeLimitExceeded(node_limit)
    if status != _highs.HighsModelStatus.kOptimal:
        raise NumericalFailure(
            f"HiGHS MILP failed: {h.modelStatusToString(status)}")
    x = np.array(h.getSolution().col_value)
    info = h.getInfo()
    xb = np.array([round(x[j]) for j in mp.binary_index], dtype=float)
    return MipSolution(status=OPTIMAL, x=x, objective=float(lp.c @ x),
                       binary_values=xb, nodes=int(info.mip_node_count),
                       bound=float(sign * info.mip_dual_bound))
