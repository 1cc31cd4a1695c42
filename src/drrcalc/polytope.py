"""Halfspace regions {w | Hw <= f} with provenance-tagged facets.

Rows are kept normalized (unit Euclidean normal) so cut deduplication and
distance arithmetic read directly off the coefficients.  Every facet carries
a provenance tag: either a bound of the initial box or the cut that produced
it, which the binding-identification stage uses to label region boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegionError, ZeroNormal
from .lp import OPTIMAL, LinearProgram, solve_lp

_DEDUPE_TOL = 1e-9
_REDUNDANT_TOL = 1e-9


@dataclass(frozen=True)
class FacetProvenance:
    kind: str                    # "InitialBox" | "Cut"
    farm: int | None = None      # renewable position (InitialBox)
    bound: str | None = None     # "upper" | "lower"  (InitialBox)
    iteration: int | None = None  # outer iteration (Cut)
    scenario: int | None = None   # scenario index (Cut, IBLP only)

    def label(self) -> str:
        if self.kind == "InitialBox":
            return f"initial {self.bound} bound of farm {self.farm}"
        if self.scenario is None:
            return f"cut from iteration {self.iteration}"
        return f"cut from iteration {self.iteration}, scenario {self.scenario}"

    def to_json(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}


@dataclass(frozen=True)
class Polytope:
    H: np.ndarray
    f: np.ndarray
    provenance: tuple[FacetProvenance, ...]

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        f = np.atleast_1d(np.asarray(self.f, dtype=float))
        if H.shape[0] != f.size or H.shape[0] != len(self.provenance):
            raise ValueError("facet count mismatch between H, f and provenance")
        if not (np.isfinite(H).all() and np.isfinite(f).all()):
            raise ValueError("polytope coefficients must be finite")
        norms = np.linalg.norm(H, axis=1)
        if np.any(norms < 1e-14):
            raise ZeroNormal("facet with zero normal")
        object.__setattr__(self, "H", H / norms[:, None])
        object.__setattr__(self, "f", f / norms)

    @property
    def dim(self) -> int:
        return self.H.shape[1]

    @property
    def n_facets(self) -> int:
        return self.H.shape[0]

    def contains(self, w, tol: float = 1e-9) -> bool:
        return bool(np.all(self.H @ np.asarray(w, dtype=float) <= self.f + tol))

    def violations(self, w) -> np.ndarray:
        return self.H @ np.asarray(w, dtype=float) - self.f

    def with_rows(self, rows, offsets, tags) -> "Polytope":
        H = np.vstack([self.H, np.atleast_2d(rows)])
        f = np.concatenate([self.f, np.atleast_1d(offsets)])
        return Polytope(H=H, f=f, provenance=self.provenance + tuple(tags))

    def select(self, keep) -> "Polytope":
        keep = list(keep)
        return Polytope(H=self.H[keep], f=self.f[keep],
                        provenance=tuple(self.provenance[i] for i in keep))


def box(lo, hi, tags_upper, tags_lower) -> Polytope:
    """Axis-aligned box as upper rows then lower rows, per coordinate."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size
    H = np.vstack([np.eye(n), -np.eye(n)])
    f = np.concatenate([hi, -lo])
    return Polytope(H=H, f=f, provenance=tuple(tags_upper) + tuple(tags_lower))


def remove_redundant(W: Polytope) -> Polytope:
    """Drop facets that never support the region; the region is unchanged.

    Duplicates are collapsed first (keeping the earliest row), then each
    facet is tested with one LP against the surviving rows.  Raises
    :class:`EmptyRegionError` when the LP proves the region empty.
    """
    probe = solve_lp(LinearProgram(c=np.zeros(W.dim), M_in=W.H, r_in=W.f))
    if probe.status != OPTIMAL:
        raise EmptyRegionError("outer approximation has no feasible point")

    # Collapse near-identical rows.
    keep: list[int] = []
    stacked = np.hstack([W.H, W.f[:, None]])
    for i in range(W.n_facets):
        if all(np.abs(stacked[i] - stacked[j]).max() > _DEDUPE_TOL for j in keep):
            keep.append(i)
    work = W.select(keep) if len(keep) < W.n_facets else W

    alive = list(range(work.n_facets))
    for i in range(work.n_facets):
        others = [j for j in alive if j != i]
        if not others:
            break
        # Maximize the candidate row over the others; cap it one unit above
        # its own offset so the LP stays bounded even without box facets.
        lp = LinearProgram(
            c=work.H[i], sense="max",
            M_in=np.vstack([work.H[others], work.H[[i]]]),
            r_in=np.concatenate([work.f[others], [work.f[i] + 1.0]]),
        )
        sol = solve_lp(lp)
        if sol.status != OPTIMAL:
            raise EmptyRegionError("outer approximation has no feasible point")
        if sol.objective < work.f[i] - _REDUNDANT_TOL:
            alive.remove(i)
    return work.select(alive) if len(alive) < work.n_facets else work

