"""Outer refinement loop: start from the capacity box, cut until no violation.

Each iteration asks an oracle for the worst admissible-region point and the
violation there.  A positive violation yields a separating halfspace from
the oracle's multipliers; the exact oracle contributes one cut, the
multi-start heuristic contributes its whole deduplicated batch.  Redundant
facets are pruned every iteration.

The region is never empty.  The initial dispatch p* at the forecast w_bar
lies in the ramp envelope built around it and meets the network rows of
the compact model, so F(w_bar) = 0: every valid cut keeps w_bar, and a cut
with no direction, whose violation F > 0 holds at every w, cannot occur.
Either would be a fault, and raises: :class:`DegenerateCut` for the zero
normal, :class:`EmptyRegionError` when pruning finds no feasible point.  A
run ends ``Converged`` or ``MaxIterations``.

A :class:`DrrResult` holds what the outputs read: the region, one record
per iteration (violation, cuts added, facets after pruning, worst point,
oracle diagnostics and wall time), the termination, the method, the config
echo (the seed included) and the model.  Cuts and multipliers are not kept;
each cut is a ``Cut`` row of the region until pruning drops it.  The search
starts from the box of the model's farm capacities.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from .caseio import CaseData, StudyConfig
from .dispatch_model import CompactPsd, build_compact, initial_dispatch
from .errors import NoRenewables
from .maxmin_iblp import IblpOracle, make_scenarios, run_iblp
from .maxmin_milp import cut_vector, solve_maxmin_milp
from .polytope import FacetProvenance, Polytope, box, remove_redundant

CONVERGED = "Converged"
MAX_ITERATIONS = "MaxIterations"


@dataclass
class IterationRecord:
    k: int
    F: float
    cuts_added: int
    oracle_ms: float
    facets_after: int
    oracle_diag: dict = field(default_factory=dict)
    w_star: np.ndarray | None = None


@dataclass
class DrrResult:
    region: Polytope
    trace: list[IterationRecord]
    termination: str
    method: str
    config_echo: dict
    model: CompactPsd

    @property
    def iterations(self) -> int:
        return len(self.trace)


def init_w0(m: CompactPsd) -> Polytope:
    """Installed-capacity box per farm: 0 <= w_i <= the model's capacity."""
    n = m.n_w
    if n == 0:
        raise NoRenewables("case has no designated renewable farms")
    upper = [FacetProvenance("InitialBox", farm=i, bound="upper") for i in range(n)]
    lower = [FacetProvenance("InitialBox", farm=i, bound="lower") for i in range(n)]
    return box(np.zeros(n), m.farm_capacity_pu, upper, lower)


def run(case: CaseData, cfg: StudyConfig, method: str) -> DrrResult:
    """Full region computation; see the module docstring for the loop."""
    method = method.lower()
    if method not in ("milp", "iblp"):
        raise ValueError(f"method must be 'milp' or 'iblp', got {method!r}")
    m = build_compact(case, initial_dispatch(case, cfg))
    W = init_w0(m)
    w_bar = np.array(case.forecast_mw) / case.base_mva

    trace: list[IterationRecord] = []
    converged = False

    # One iblp oracle per run: its LP memo and worker threads outlive the
    # iterations, not the run.
    oracle = IblpOracle(m, cfg) if method == "iblp" else None
    with contextlib.nullcontext() if oracle is None else oracle:
        for k in range(1, cfg.max_outer_iters + 1):
            t0 = time.perf_counter()
            if method == "milp":
                sols = [solve_maxmin_milp(m, W, cfg)]
            else:
                scenarios = make_scenarios(m.farm_capacity_pu, W, w_bar, cfg)
                sols = run_iblp(oracle, W, scenarios)
            oracle_ms = (time.perf_counter() - t0) * 1e3

            F_k = max((s.F for s in sols), default=0.0)
            worst = max(sols, key=lambda s: s.F) if sols else None
            diag = dict(worst.diagnostics) if worst is not None else {}
            if oracle is not None:
                diag.update(oracle.counts)
            w_star = worst.w_star.copy() if worst is not None else None
            converged = F_k <= cfg.eps_term
            cuts_added = 0
            if not converged:
                batch = sorted([s for s in sols if s.F > cfg.eps_term],
                               key=lambda s: -s.F)[:cfg.cut_batch_cap]
                normals, offsets = zip(*(cut_vector(s, m) for s in batch))
                tags = [FacetProvenance("Cut", iteration=k,
                                        scenario=s.diagnostics.get("scenario"))
                        for s in batch]
                W = remove_redundant(W.with_rows(np.array(normals),
                                                 np.array(offsets), tags))
                cuts_added = len(batch)

            trace.append(IterationRecord(k=k, F=F_k, cuts_added=cuts_added,
                                         oracle_ms=oracle_ms,
                                         facets_after=W.n_facets,
                                         oracle_diag=diag, w_star=w_star))
            if converged:
                break

    return DrrResult(region=W, trace=trace,
                     termination=CONVERGED if converged else MAX_ITERATIONS,
                     method=method, config_echo=cfg.algorithmic_echo(),
                     model=m)
