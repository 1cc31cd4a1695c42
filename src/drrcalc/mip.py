"""Mixed-binary programs on top of the LP contract.

A :class:`MixedProgram` is a :class:`LinearProgram` with at least one
column restricted to {0, 1}.  :func:`solve_mip` hands it to the HiGHS
branch-and-cut solver through ``lp._pass_and_run``, as LP solves do.

HiGHS is given exactly what ``scipy.optimize.milp`` gives it for the same
program: a new HiGHS instance per MIP; the options
``log_to_console=False``, ``mip_max_nodes`` and ``mip_rel_gap=0`` and no
other; the integrality of every column; and the matrix ``[M_eq; M_in]``,
equality rows first, which ``lp._csc`` assembles for each MIP.  So x and
the node count are milp's bit for bit.  A model HiGHS rejects, or a failed
run, raises :class:`NumericalFailure`, never INFEASIBLE, which the big-M
watchdog would read as a clipped big-M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NodeLimitExceeded, NumericalFailure
from .lp import INFEASIBLE, OPTIMAL, LinearProgram, _csc, _highs, _pass_and_run


@dataclass
class MixedProgram:
    lp: LinearProgram
    binary_index: list[int]

    def __post_init__(self):
        n = self.lp.nvar
        self.binary_index = sorted(int(j) for j in self.binary_index)
        if not self.binary_index:
            raise DimensionMismatch("a mixed program needs at least one binary")
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
    nodes: int = 0


def solve_mip(mp: MixedProgram, node_limit: int) -> MipSolution:
    """Globally solve `mp` with a relative gap of zero; raise
    :class:`NodeLimitExceeded` when the search needs more than
    `node_limit` branch-and-bound nodes."""
    lp = mp.lp
    # milp's row order: r_eq <= M_eq x <= r_eq first, then M_in x <= r_in.
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
    if h.passOptions(opts) == _highs.HighsStatus.kError:
        raise NumericalFailure(
            f"HiGHS rejected the MIP options (node limit {node_limit})")
    run_ok, status = _pass_and_run(h, lp, *_csc(np.vstack([lp.M_eq, lp.M_in])),
                                   integrality, row_lower, row_upper)
    if run_ok and status == _highs.HighsModelStatus.kInfeasible:
        return MipSolution(status=INFEASIBLE)
    # HiGHS reports its node limit as a solution limit.
    if run_ok and status == _highs.HighsModelStatus.kSolutionLimit:
        raise NodeLimitExceeded(node_limit)
    if not run_ok or status != _highs.HighsModelStatus.kOptimal:
        raise NumericalFailure(
            f"HiGHS MILP failed: {h.modelStatusToString(status)}")
    x = np.array(h.getSolution().col_value)
    return MipSolution(status=OPTIMAL, x=x, objective=float(lp.c @ x),
                       nodes=int(h.getInfo().mip_node_count))
