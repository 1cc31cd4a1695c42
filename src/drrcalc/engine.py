"""Outer refinement loop: start from the capacity box, cut until no violation.

Each iteration asks an oracle for the worst admissible-region point and the
violation there.  A positive violation yields a separating halfspace from
the oracle's multipliers; the exact oracle contributes one cut, the
multi-start heuristic contributes its whole deduplicated batch.  Redundant
facets are pruned every iteration, and a zero-direction cut with positive
violation is a certificate that no dispatchable point exists at all.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from .caseio import CaseData, StudyConfig
from .dispatch_model import (CompactPsd, DispatchPoint, build_compact,
                             initial_dispatch)
from .errors import DegenerateCut, EmptyRegionError, NoRenewables
from .maxmin_iblp import IblpOracle, make_scenarios, run_iblp
from .maxmin_milp import MaxMinSolution, cut_vector, solve_maxmin_milp
from .polytope import FacetProvenance, Polytope, box, remove_redundant

_ZERO_NORMAL_TOL = 1e-10

CONVERGED = "Converged"
MAX_ITERATIONS = "MaxIterations"
EMPTY_REGION = "EmptyRegion"


@dataclass(frozen=True)
class Cut:
    normal: np.ndarray        # unit norm
    offset: float
    alpha: np.ndarray
    delta: np.ndarray

    def violation_at(self, w) -> float:
        return float(self.normal @ np.asarray(w) - self.offset)


@dataclass
class IterationRecord:
    k: int
    F: float
    cuts_added: int
    oracle_ms: float
    facets_after: int
    region_after: tuple[np.ndarray, np.ndarray]  # (H, f) snapshot
    oracle_diag: dict = field(default_factory=dict)
    w_star: np.ndarray | None = None


@dataclass
class DrrResult:
    region: Polytope
    trace: list[IterationRecord]
    termination: str
    method: str
    seed: int
    config_echo: dict
    all_cuts: list[Cut] = field(default_factory=list)
    dispatch: DispatchPoint | None = None
    model: CompactPsd | None = None

    @property
    def iterations(self) -> int:
        return len(self.trace)


def init_w0(case: CaseData) -> Polytope:
    """Installed-capacity box per farm: 0 <= w_i <= p_max_i."""
    if not case.renewable:
        raise NoRenewables("case has no designated renewable farms")
    caps = np.array([case.gen(gi).p_max_mw for gi in case.renewable])
    caps_pu = caps / case.base_mva
    n = caps_pu.size
    upper = [FacetProvenance("InitialBox", farm=i, bound="upper") for i in range(n)]
    lower = [FacetProvenance("InitialBox", farm=i, bound="lower") for i in range(n)]
    return box(np.zeros(n), caps_pu, upper, lower)


def make_cut(sol: MaxMinSolution, m: CompactPsd) -> Cut:
    """Normalized separating halfspace from the oracle multipliers."""
    normal, offset = cut_vector(sol, m)
    norm = float(np.linalg.norm(normal))
    if norm < _ZERO_NORMAL_TOL:
        raise DegenerateCut(
            f"cut normal vanished at violation {sol.F:.3e}")
    return Cut(normal=normal / norm, offset=offset / norm,
               alpha=sol.alpha.copy(), delta=sol.delta.copy())


def run(case: CaseData, cfg: StudyConfig, method: str = "milp") -> DrrResult:
    """Full region computation; see the module docstring for the loop."""
    method = method.lower()
    if method not in ("milp", "iblp"):
        raise ValueError(f"method must be 'milp' or 'iblp', got {method!r}")
    dp = initial_dispatch(case, cfg)
    m = build_compact(case, dp)
    W0 = init_w0(case)
    W = W0
    w_bar = np.array(case.forecast_mw) / case.base_mva

    trace: list[IterationRecord] = []
    all_cuts: list[Cut] = []
    termination = MAX_ITERATIONS

    # One iblp oracle per run: its LP memo and worker pool outlive the
    # iterations, not the run.
    oracle = IblpOracle(m, cfg) if method == "iblp" else None
    with contextlib.nullcontext() if oracle is None else oracle:
        for k in range(1, cfg.max_outer_iters + 1):
            t0 = time.perf_counter()
            if method == "milp":
                sols = [solve_maxmin_milp(m, W, cfg)]
            else:
                scenarios = make_scenarios(W0, W, w_bar, cfg)
                sols = run_iblp(m, W, scenarios, cfg, oracle)
            oracle_ms = (time.perf_counter() - t0) * 1e3

            F_k = max((s.F for s in sols), default=0.0)
            worst = max(sols, key=lambda s: s.F) if sols else None
            diag = dict(worst.diagnostics) if worst is not None else {}
            if oracle is not None:
                diag.update(oracle.counts)
            w_star = worst.w_star.copy() if worst is not None else None
            cuts_added, stop = 0, None
            if F_k <= cfg.eps_term:
                stop = CONVERGED
            else:
                batch = sorted([s for s in sols if s.F > cfg.eps_term],
                               key=lambda s: -s.F)[:cfg.cut_batch_cap]
                rows, offsets, tags = [], [], []
                for s in batch:
                    try:
                        cut = make_cut(s, m)
                    except DegenerateCut:
                        # Zero direction with positive violation: the dual
                        # value is F for every w, so no point is dispatchable.
                        stop = EMPTY_REGION
                        break
                    rows.append(cut.normal)
                    offsets.append(cut.offset)
                    tags.append(FacetProvenance("Cut", iteration=k,
                                                scenario=s.diagnostics.get("scenario")))
                    all_cuts.append(cut)
                if stop is None:
                    W = W.with_rows(np.array(rows), np.array(offsets), tags)
                    cuts_added = len(rows)
                    try:
                        W = remove_redundant(W)
                    except EmptyRegionError:
                        stop = EMPTY_REGION

            trace.append(IterationRecord(k=k, F=F_k, cuts_added=cuts_added,
                                         oracle_ms=oracle_ms,
                                         facets_after=W.n_facets,
                                         region_after=(W.H.copy(), W.f.copy()),
                                         oracle_diag=diag, w_star=w_star))
            if stop is not None:
                termination = stop
                break

    return DrrResult(region=W, trace=trace, termination=termination,
                     method=method, seed=cfg.seed,
                     config_echo=cfg.algorithmic_echo(), all_cuts=all_cuts,
                     dispatch=dp, model=m)
