import itertools
import math
import pathlib

import numpy as np
import pytest

from drrcalc.caseio import (StudyConfig, apply_renewables, load_renewables_file,
                            parse_matpower_file)
from drrcalc.errors import EmptyRegionError
from drrcalc.lp import OPTIMAL, LinearProgram, solve_lp
from drrcalc.polytope import _DEDUPE_TOL, _REDUNDANT_TOL, Polytope

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


def pruning_reference(W: Polytope, max_subsets: int = 20_000) -> list[int] | None:
    """The rows of W that ``remove_redundant`` keeps, by brute force, or
    None when W has more than ``max_subsets`` d-subsets of rows.

    After the earliest-row dedupe, W's vertices are the feasible solutions
    of every nonsingular d-subset of rows, and row i goes iff no vertex v
    has ``H_i v >= f_i - _REDUNDANT_TOL``.  W must be bounded and not empty.
    """
    stacked = np.hstack([W.H, W.f[:, None]])
    rows: list[int] = []
    for i in range(W.n_facets):
        if all(np.abs(stacked[i] - stacked[j]).max() > _DEDUPE_TOL for j in rows):
            rows.append(i)
    if math.comb(len(rows), W.dim) > max_subsets:
        return None
    H, f = W.H[rows], W.f[rows]
    subsets = np.array(list(itertools.combinations(range(len(rows)), W.dim)))
    A, b = H[subsets], f[subsets]
    solvable = np.abs(np.linalg.det(A)) > 1e-12
    v = np.linalg.solve(A[solvable], b[solvable][..., None])[..., 0]
    vertices = v[np.all(v @ H.T <= f + 1e-9, axis=1)]
    assert len(vertices), "W has no vertex"
    touched = np.any(vertices @ H.T >= f - _REDUNDANT_TOL, axis=0)
    return [i for i, t in zip(rows, touched) if t]


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
