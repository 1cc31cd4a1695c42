"""Exact worst-case oracle: dualized inner problem, KKT-binarized, solved MIP.

The inner violation-minimization at fixed w dualizes to a bilinear program
over bounded multipliers (alpha on equalities in [-1, 1], delta on
inequalities in [0, 1]).  Fixing the multipliers makes the w subproblem an
LP whose KKT system, with complementarity replaced by big-M binaries, turns
the whole worst-case search into one mixed-binary program per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .caseio import StudyConfig
from .dispatch_model import CompactPsd
from .errors import BigMTooSmall, DimensionMismatch, NumericalFailure
from .lp import INFEASIBLE, OPTIMAL, LinearProgram
from .mip import MixedProgram, solve_mip
from .polytope import Polytope


@dataclass(frozen=True)
class DualizedMaxMin:
    """Shapes of the dualized problem tied to one model and one region."""
    m: CompactPsd
    W: Polytope

    def __post_init__(self):
        if self.W.dim != self.m.n_w:
            raise DimensionMismatch(
                f"region dimension {self.W.dim} != model farms {self.m.n_w}")
        if self.W.n_facets == 0:
            raise DimensionMismatch("region must have at least one facet")

    @property
    def n_alpha(self):
        return self.m.b.size

    @property
    def n_delta(self):
        return self.m.d.size

    def coupling(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows over (alpha, delta): B'a - F'd = 0, C'a - G'd = 0, D'a - J'd = 0."""
        m = self.m
        M = np.vstack([
            np.hstack([m.B.T, -m.F.T]),
            np.hstack([m.C.T, -m.G.T]),
            np.hstack([m.D.T, -m.J.T]),
        ])
        return M, np.zeros(M.shape[0])

    def multiplier_cost(self, w: np.ndarray) -> np.ndarray:
        """Objective of ``multiplier_lp_at(w)``, the only part that moves with w."""
        m = self.m
        w = np.asarray(w, dtype=float)
        # 0.0 - d rather than -d: a zero entry stays +0.0, not -0.0.
        return np.concatenate([m.b - m.A @ w, 0.0 - m.d])

    def multiplier_lp_at(self, w: np.ndarray) -> LinearProgram:
        """LP over (alpha, delta) at fixed w; optimum equals the violation."""
        M_eq, r_eq = self.coupling()
        lb = np.concatenate([-np.ones(self.n_alpha), np.zeros(self.n_delta)])
        ub = np.ones(self.n_alpha + self.n_delta)
        return LinearProgram(c=self.multiplier_cost(w), sense="max",
                             M_eq=M_eq, r_eq=r_eq, lb=lb, ub=ub)

    def w_cost(self, alpha: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Objective of ``w_lp_at(alpha, delta)``, the only part that moves.
        delta has no term: w enters only the balance rows."""
        # 0.0 - x rather than -x: a zero entry stays +0.0, not -0.0.
        return 0.0 - alpha @ self.m.A

    def w_lp_at(self, alpha: np.ndarray, delta: np.ndarray) -> LinearProgram:
        """LP over w at fixed multipliers, constrained to the current region."""
        m = self.m
        return LinearProgram(c=self.w_cost(alpha, delta), sense="max",
                             M_in=self.W.H, r_in=self.W.f,
                             lb=np.zeros(m.n_w), ub=m.farm_capacity_pu)


@dataclass
class MaxMinSolution:
    F: float
    w_star: np.ndarray
    alpha: np.ndarray
    delta: np.ndarray
    theta: np.ndarray | None
    method: str
    diagnostics: dict = field(default_factory=dict)


def cut_vector(sol: MaxMinSolution, m: CompactPsd) -> tuple[np.ndarray, float]:
    """Unnormalized cut (normal, offset): normal @ w <= offset is valid."""
    # 0.0 - x rather than -x: a zero entry stays +0.0, not -0.0.
    normal = 0.0 - sol.alpha @ m.A
    offset = -(sol.alpha @ m.b - sol.delta @ m.d)
    return normal, float(offset)


def facet_slack_ranges(m: CompactPsd, W: Polytope) -> np.ndarray:
    """Largest possible f_i - H_i w over the capacity box, per facet."""
    lo = np.zeros(m.n_w)
    hi = m.farm_capacity_pu
    min_hw = np.where(W.H > 0, W.H * lo, W.H * hi).sum(axis=1)
    return W.f - min_hw


def default_big_m(m: CompactPsd, W: Polytope) -> float:
    # Must dominate both the multipliers of the w subproblem and the facet
    # slack ranges that the binarized complementarity caps.
    return 10.0 * max(
        np.abs(W.f).max(initial=0.0),
        np.abs(m.b).max(initial=0.0),
        np.abs(m.d).max(initial=0.0),
        facet_slack_ranges(m, W).max(initial=0.0),
        1.0,
    )


def build_kkt_mip(dmm: DualizedMaxMin, M: float) -> MixedProgram:
    """Binarized stationarity/complementarity form over (alpha, delta, w, theta)."""
    if M <= 0:
        raise ValueError("big-M must be positive")
    m, W = dmm.m, dmm.W
    na, nd, nw, k = dmm.n_alpha, dmm.n_delta, m.n_w, W.n_facets
    nvar = na + nd + nw + 2 * k   # alpha, delta, w, theta, lambda

    sl = {
        "a": slice(0, na),
        "d": slice(na, na + nd),
        "w": slice(na + nd, na + nd + nw),
        "t": slice(na + nd + nw, na + nd + nw + k),
        "z": slice(na + nd + nw + k, nvar),
    }
    c = np.zeros(nvar)
    c[sl["a"]] = m.b
    c[sl["d"]] = -m.d
    c[sl["t"]] = W.f

    coup, _ = dmm.coupling()
    M_eq = np.zeros((coup.shape[0] + nw, nvar))
    M_eq[:coup.shape[0], :na + nd] = coup
    # Stationarity of the w subproblem: A'a + H't = 0.
    M_eq[coup.shape[0]:, sl["a"]] = m.A.T
    M_eq[coup.shape[0]:, sl["t"]] = W.H.T
    r_eq = np.zeros(M_eq.shape[0])

    # theta_i <= (1 - lambda_i) M;  0 <= f_i - H_i w <= lambda_i M.
    M_in = np.zeros((3 * k, nvar))
    r_in = np.zeros(3 * k)
    M_in[:k, sl["t"]] = np.eye(k)
    M_in[:k, sl["z"]] = M * np.eye(k)
    r_in[:k] = M
    M_in[k:2 * k, sl["w"]] = W.H
    r_in[k:2 * k] = W.f
    M_in[2 * k:, sl["w"]] = -W.H
    M_in[2 * k:, sl["z"]] = -M * np.eye(k)
    r_in[2 * k:] = -W.f

    lb = np.concatenate([-np.ones(na), np.zeros(nd), np.zeros(nw),
                         np.zeros(k), np.zeros(k)])
    ub = np.concatenate([np.ones(na), np.ones(nd), m.farm_capacity_pu,
                         np.full(k, M), np.ones(k)])
    lp = LinearProgram(c=c, sense="max", M_eq=M_eq, r_eq=r_eq,
                       M_in=M_in, r_in=r_in, lb=lb, ub=ub)
    return MixedProgram(lp=lp, binary_index=list(range(nvar - k, nvar)))


def solve_maxmin_milp(m: CompactPsd, W: Polytope, cfg: StudyConfig) -> MaxMinSolution:
    """Globally solve the worst-case problem over the current region."""
    dmm = DualizedMaxMin(m, W)
    M = cfg.big_m if cfg.big_m is not None else default_big_m(m, W)
    theta_max = np.inf
    for attempt in range(2):
        sol, theta_max = _solve_once(dmm, M, cfg)
        if sol is not None:
            return sol
        if attempt == 0:
            M *= 10.0  # watchdog tripped: one escalation before giving up
    raise BigMTooSmall(theta_max=theta_max, big_m=M)


def _solve_once(dmm: DualizedMaxMin, M: float, cfg: StudyConfig):
    m, W = dmm.m, dmm.W
    if facet_slack_ranges(m, W).max(initial=0.0) >= 0.99 * M:
        return None, np.inf   # the w-side caps would clip legitimate points
    mp = build_kkt_mip(dmm, M)
    res = solve_mip(mp, node_limit=cfg.node_limit)
    if res.status == INFEASIBLE:
        return None, np.inf   # only a clipped big-M can make this infeasible
    if res.status != OPTIMAL:
        raise NumericalFailure(f"worst-case MIP returned {res.status}")
    na, nd, nw = dmm.n_alpha, dmm.n_delta, m.n_w
    k = W.n_facets
    alpha = res.x[:na]
    delta = res.x[na:na + nd]
    w = res.x[na + nd:na + nd + nw]
    theta = res.x[na + nd + nw:na + nd + nw + k]
    lam = res.x[na + nd + nw + k:]

    slack = W.f - W.H @ w
    theta_max = float(theta.max(initial=0.0))
    # Watchdog on both binarized sides: multipliers against (1-lambda)M and
    # facet slacks against lambda*M.
    slack_max = float((slack * (lam > 0.5)).max(initial=0.0))
    stress = max(theta_max, slack_max)
    if stress >= 0.99 * M:
        return None, stress
    diag = {
        "big_m": M,
        "big_m_margin": 1.0 - stress / M,
        "kkt_residual": float(np.abs(m.A.T @ alpha + W.H.T @ theta).max(initial=0.0)),
        "complementarity_residual": float(np.abs(theta * slack).max(initial=0.0)),
        "mip_nodes": res.nodes,
    }
    return MaxMinSolution(F=float(res.objective), w_star=w, alpha=alpha,
                          delta=delta, theta=theta, method="milp",
                          diagnostics=diag), stress
