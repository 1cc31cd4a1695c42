"""Map converged region facets back to the physical constraints behind them.

For each facet: find the facet's terminal points, push their midpoint a
small step away from the forecast so it leaves the region, and re-solve the
slacked dispatch model there with every equality row held hard.  Rows
whose slack activates are the binding constraints; a facet whose probe
stays feasible is an initial-box bound, identified by provenance.

The slack pattern of a degenerate optimum is solver-chosen, so every
reported row is additionally classified: holding it hard as well makes
the probe infeasible ("necessary") or reroutes the violation ("alternate").

Each :func:`identify` call owns its worker threads: it enters
:func:`~drrcalc.lp.worker_map` of ``cfg.thread_count`` and maps the
facets onto it, so each thread explains whole facets (terminal points,
probe, feasibility LP and necessity re-solves) on its own HiGHS
instance.  Entries come back in facet order, so the report is the same
for any thread count, and one thread solves every LP on the calling
thread in facet order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .caseio import StudyConfig
from .dispatch_model import CompactPsd, feasibility_model
from .errors import AmbiguousFacet, DimensionMismatch, FacetInfeasible
from .lp import OPTIMAL, LinearProgram, solve_lp, worker_map
from .polytope import Polytope

_HARD_EQUALITIES = frozenset({"NodalBalance", "FlowDefinition", "AngleRef"})

ORIGIN_PHYSICAL = "PhysicalConstraint"
ORIGIN_BOX = "InitialBoxFacet"
ORIGIN_UNRESOLVED = "Unresolved"


@dataclass
class BindingEntry:
    label: str
    kind: str
    slack_mw: float
    necessity: str        # "necessarily binding" | "alternately binding"


@dataclass
class FacetBinding:
    facet: int
    provenance: str
    w_upper_mw: np.ndarray
    w_lower_mw: np.ndarray
    probe_mw: np.ndarray
    origin: str
    bindings: list[BindingEntry] = field(default_factory=list)
    degenerate_probe: bool = False


@dataclass
class BindingReport:
    entries: list[FacetBinding]
    lam: float
    base_mva: float

    def table(self) -> str:
        lines = [f"{'facet':>5}  {'origin':<18}  {'provenance':<38}  binding constraints"]
        for e in self.entries:
            names = "; ".join(
                f"{b.label} ({b.slack_mw:.3f} MW, {b.necessity})"
                for b in e.bindings) or "-"
            lines.append(f"{e.facet:>5}  {e.origin:<18}  {e.provenance:<38}  {names}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "base_mva": self.base_mva,
            "facets": [{
                "facet": e.facet,
                "provenance": e.provenance,
                "origin": e.origin,
                "w_upper_mw": list(e.w_upper_mw),
                "w_lower_mw": list(e.w_lower_mw),
                "probe_mw": list(e.probe_mw),
                "degenerate_probe": e.degenerate_probe,
                "bindings": [vars(b) for b in e.bindings],
            } for e in self.entries],
        }


def terminal_points(W: Polytope, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Extrema of facet i along the all-ones direction: the points of the
    facet with the largest and the smallest total output."""
    out = []
    for sense in ("max", "min"):
        lp = LinearProgram(c=np.ones(W.dim), sense=sense, M_in=W.H, r_in=W.f,
                           M_eq=W.H[[i]], r_eq=W.f[[i]])
        sol = solve_lp(lp)
        if sol.status != OPTIMAL:
            raise FacetInfeasible(
                f"facet {i} admits no point; it should have been pruned")
        out.append(sol.x)
    return out[0], out[1]


def probe_point(w_u, w_l, w_bar, lam: float) -> np.ndarray:
    """Facet midpoint pushed away from the forecast by the factor `lam`."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    mid = (np.asarray(w_u, dtype=float) + np.asarray(w_l, dtype=float)) / 2.0
    return mid + lam * (mid - np.asarray(w_bar, dtype=float))


def identify(m: CompactPsd, W: Polytope, w_bar, cfg: StudyConfig,
             allow_unresolved: bool = False) -> BindingReport:
    """Per-facet binding constraints of a converged region (units: MW); each
    probe's slacks cost 1, and the ``_HARD_EQUALITIES`` rows have none."""
    w_bar = np.asarray(w_bar, dtype=float)
    if W.dim != m.n_w or w_bar.size != m.n_w:
        raise DimensionMismatch(
            f"region of dimension {W.dim} and forecast of {w_bar.size} "
            f"entries for a model with {m.n_w} farms")

    kind_of = {d.label: d.kind for d in m.in_rows}

    def explain(i: int) -> FacetBinding:
        w_u, w_l = terminal_points(W, i)
        mid = (w_u + w_l) / 2.0
        probe = probe_point(w_u, w_l, w_bar, cfg.perturb_lambda)
        degenerate = bool(np.linalg.norm(mid - w_bar) < 1e-12)
        entry = FacetBinding(
            facet=i, provenance=W.provenance[i].label(),
            w_upper_mw=w_u * m.base_mva, w_lower_mw=w_l * m.base_mva,
            probe_mw=probe * m.base_mva, origin=ORIGIN_BOX,
            degenerate_probe=degenerate)

        res = feasibility_model(m, probe, hard=_HARD_EQUALITIES)
        if res.objective > cfg.eps_slack:
            entry.origin = ORIGIN_PHYSICAL
            for label, slack in sorted(res.slacks.items()):
                if slack <= cfg.eps_slack:
                    continue
                again = feasibility_model(m, probe, hard=_HARD_EQUALITIES | {label})
                necessity = ("necessarily binding" if not again.feasible
                             else "alternately binding")
                entry.bindings.append(BindingEntry(
                    label=label, kind=kind_of[label],
                    slack_mw=slack * m.base_mva, necessity=necessity))
        else:
            tag = W.provenance[i]
            if tag.kind != "InitialBox" and not _matches_box(W, i, m):
                entry.origin = ORIGIN_UNRESOLVED
        return entry

    with worker_map(cfg.thread_count) as explain_all:
        entries = list(explain_all(explain, range(W.n_facets)))
    unresolved = [e.facet for e in entries if e.origin == ORIGIN_UNRESOLVED]
    if unresolved and not allow_unresolved:
        raise AmbiguousFacet(unresolved)
    return BindingReport(entries=entries, lam=cfg.perturb_lambda,
                         base_mva=m.base_mva)


def _matches_box(W: Polytope, i: int, m: CompactPsd) -> bool:
    """Is facet i a box bound (a farm at zero or at capacity)?  Asked of a
    Cut facet whose probe stays feasible: if so its origin is the box,
    otherwise it is unresolved."""
    row = W.H[i]
    j = int(np.argmax(np.abs(row)))
    if abs(abs(row[j]) - 1.0) > 1e-9:
        return False
    if np.abs(np.delete(row, j)).max(initial=0.0) > 1e-9:
        return False
    bound = W.f[i] if row[j] > 0 else -W.f[i]
    return (abs(bound) < 1e-9
            or abs(bound - m.farm_capacity_pu[j]) < 1e-9)
