import functools
import itertools
import math
import pathlib
import time
from dataclasses import dataclass

import numpy as np
import pytest

from drrcalc import engine
from drrcalc.caseio import (StudyConfig, apply_renewables, load_renewables_file,
                            parse_matpower_file)
from drrcalc.dispatch_model import CompactPsd
from drrcalc.errors import EmptyRegionError
from drrcalc.lp import OPTIMAL, LinearProgram, solve_lp
from drrcalc.polytope import _DEDUPE_TOL, _REDUNDANT_TOL, FacetProvenance, Polytope

CASE_DIR = pathlib.Path(__file__).resolve().parent.parent / "cases"


def load_case(stem: str):
    raw = parse_matpower_file(CASE_DIR / f"{stem}.m")
    specs = load_renewables_file(CASE_DIR / f"{stem}_renewables.json")
    return apply_renewables(raw, specs)


def chebyshev_center(W: Polytope) -> tuple[np.ndarray, float]:
    """Center and radius of the largest inscribed ball (rows are unit-norm)."""
    n = W.dim
    c = np.zeros(n + 1)
    c[-1] = 1.0
    M = np.hstack([W.H, np.ones((W.n_facets, 1))])
    lp = LinearProgram(c=c, sense="max", M_in=M, r_in=W.f)
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise EmptyRegionError("no Chebyshev center: region empty or unbounded")
    return sol.x[:n], float(sol.x[-1])


def box_bounds(W: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate bounds implied by the axis-aligned facets of W."""
    lo = np.full(W.dim, -np.inf)
    hi = np.full(W.dim, np.inf)
    for i in range(W.n_facets):
        row = W.H[i]
        j = int(np.argmax(np.abs(row)))
        if abs(abs(row[j]) - 1.0) > 1e-12 or np.abs(np.delete(row, j)).max(initial=0.0) > 1e-12:
            continue
        if row[j] > 0:
            hi[j] = min(hi[j], W.f[i])
        else:
            lo[j] = max(lo[j], -W.f[i])
    return lo, hi


def vertices(H: np.ndarray, f: np.ndarray,
             max_subsets: int = 20_000) -> np.ndarray | None:
    """The vertices of the bounded, non-empty {w | H w <= f}, by brute force:
    the feasible solutions of every nonsingular d-subset of rows, a vertex
    on more than d rows more than once.  None when there are more than
    ``max_subsets`` d-subsets."""
    d = H.shape[1]
    if math.comb(len(f), d) > max_subsets:
        return None
    subsets = np.array(list(itertools.combinations(range(len(f)), d)))
    A, b = H[subsets], f[subsets]
    solvable = np.abs(np.linalg.det(A)) > 1e-12
    v = np.linalg.solve(A[solvable], b[solvable][..., None])[..., 0]
    v = v[np.all(v @ H.T <= f + 1e-9, axis=1)]
    assert len(v), "the polytope has no vertex"
    return v


def pruning_reference(W: Polytope, max_subsets: int = 20_000) -> list[int] | None:
    """The rows of W that ``remove_redundant`` keeps, by brute force, or
    None when W has more than ``max_subsets`` d-subsets of rows.

    After the earliest-row dedupe, row i goes iff no vertex v of W has
    ``H_i v >= f_i - _REDUNDANT_TOL``.  W must be bounded and not empty.
    """
    stacked = np.hstack([W.H, W.f[:, None]])
    rows: list[int] = []
    for i in range(W.n_facets):
        if all(np.abs(stacked[i] - stacked[j]).max() > _DEDUPE_TOL for j in rows):
            rows.append(i)
    H, f = W.H[rows], W.f[rows]
    v = vertices(H, f, max_subsets)
    if v is None:
        return None
    touched = np.any(v @ H.T >= f - _REDUNDANT_TOL, axis=0)
    return [i for i, t in zip(rows, touched) if t]


def projection_support(m: CompactPsd, directions: np.ndarray) -> np.ndarray:
    """The dispatchable region's support function at each direction c, one
    LP each: max c'w over the lifted set {A w + B p + C l + D v = b,
    F p + G l + J v <= d, 0 <= w <= cap}, with (p, l, v) free."""
    nx = m.n_p + m.n_l + m.n_v
    lp = LinearProgram(
        c=np.zeros(m.n_w + nx), sense="max",
        M_eq=np.hstack([m.A, m.B, m.C, m.D]), r_eq=m.b,
        M_in=np.hstack([np.zeros((m.d.size, m.n_w)), m.F, m.G, m.J]), r_in=m.d,
        lb=np.concatenate([np.zeros(m.n_w), np.full(nx, -np.inf)]),
        ub=np.concatenate([m.farm_capacity_pu, np.full(nx, np.inf)]))
    out = []
    for c in directions:
        sol = solve_lp(lp.with_vectors(c=np.concatenate([c, np.zeros(nx)])))
        assert sol.status == OPTIMAL
        out.append(sol.objective)
    return np.array(out)


# --- recording what engine.run's oracle and pruning calls hand back ---------------


@dataclass
class OracleCall:
    """One iteration of ``engine.run`` as its calls saw it."""
    region: Polytope                 # the region the oracle searched
    solutions: list                  # the MaxMinSolutions it returned
    cut: Polytope | None = None      # region plus this iteration's cuts
    pruned: Polytope | None = None   # what remove_redundant made of ``cut``


@dataclass(frozen=True)
class RecordedRun:
    result: engine.DrrResult
    calls: list[OracleCall]
    seconds: float

    def cuts(self) -> list[tuple[np.ndarray, float, FacetProvenance]]:
        """(normal, offset, provenance) of every cut the run added."""
        return [(call.cut.H[i], call.cut.f[i], call.cut.provenance[i])
                for call in self.calls if call.cut is not None
                for i in range(call.region.n_facets, call.cut.n_facets)]


def recorded_run(stem: str, method: str, seed: int = 0) -> RecordedRun:
    """``engine.run`` of a shipped case at the default settings and a seed,
    with one :class:`OracleCall` per iteration, recorded by wrapping
    ``engine.solve_maxmin_milp``, ``engine.run_iblp`` and
    ``engine.remove_redundant``.  Each run is made once per session."""
    return _recorded_run(stem, method, seed)


@functools.cache
def _recorded_run(stem: str, method: str, seed: int) -> RecordedRun:
    calls: list[OracleCall] = []

    def oracle(original, as_list):
        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(OracleCall(region=args[1], solutions=as_list(out)))
            return out
        return recorded

    def prune(W):
        calls[-1].cut = W
        calls[-1].pruned = remove_redundant(W)
        return calls[-1].pruned

    remove_redundant = engine.remove_redundant
    case = load_case(stem)
    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "solve_maxmin_milp",
                   oracle(engine.solve_maxmin_milp, lambda sol: [sol]))
        mp.setattr(engine, "run_iblp", oracle(engine.run_iblp, list))
        mp.setattr(engine, "remove_redundant", prune)
        result = engine.run(case, StudyConfig(seed=seed), method=method)
    return RecordedRun(result, calls, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def twobus():
    return load_case("case2_ramp")


@pytest.fixture(scope="session")
def pjm5():
    return load_case("case5_wind")


@pytest.fixture(scope="session")
def ieee39():
    return load_case("case39_wind")


@pytest.fixture()
def cfg():
    return StudyConfig()
