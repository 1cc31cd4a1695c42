"""Mixed-binary programs on HiGHS."""

import itertools

import numpy as np
import pytest

from drrcalc.caseio import StudyConfig
from drrcalc.errors import DimensionMismatch, NodeLimitExceeded
from drrcalc.lp import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp
from drrcalc.mip import MixedProgram, solve_mip


@pytest.fixture(params=["scipy"])
def solve(request):
    """solve_mip, under the solver name region.json records as mip_backend."""
    assert StudyConfig().algorithmic_echo()["mip_backend"] == request.param
    return solve_mip


def test_zero_binaries_reduces_to_lp_bit_for_bit():
    lp = LinearProgram(c=[1.0, 2.0], M_in=[[-1.0, -1.0]], r_in=[-1.0],
                       lb=[0.0, 0.0], ub=[2.0, 2.0])
    mp = MixedProgram(lp=lp, binary_index=[])
    ref = solve_lp(lp)
    got = solve_mip(mp)
    assert got.status == ref.status
    assert got.objective == ref.objective
    assert np.array_equal(got.x, ref.x)


def test_knapsack_toy(solve):
    # max 3a + 2b s.t. a + b <= 1, binary
    lp = LinearProgram(c=[3.0, 2.0], sense="max", M_in=[[1.0, 1.0]],
                       r_in=[1.0], lb=[0.0, 0.0], ub=[1.0, 1.0])
    mp = MixedProgram(lp=lp, binary_index=[0, 1])
    sol = solve(mp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.x[1] == pytest.approx(0.0, abs=1e-7)


def test_all_binaries_fixed_by_bounds(solve):
    lp = LinearProgram(c=[1.0, -1.0], lb=[1.0, 0.0], ub=[1.0, 0.0])
    mp = MixedProgram(lp=lp, binary_index=[0, 1])
    sol = solve(mp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert list(sol.binary_values) == [1.0, 0.0]


def test_infeasible_binary_program(solve):
    # a + b = 0.5 has no binary solution.
    lp = LinearProgram(c=[1.0, 1.0], M_eq=[[1.0, 1.0]], r_eq=[0.5],
                       lb=[0.0, 0.0], ub=[1.0, 1.0])
    sol = solve(MixedProgram(lp=lp, binary_index=[0, 1]))
    assert sol.status == INFEASIBLE


def test_binary_bounds_validated():
    lp = LinearProgram(c=[1.0], lb=[0.0], ub=[2.0])
    with pytest.raises(DimensionMismatch):
        MixedProgram(lp=lp, binary_index=[0])


def test_node_limit():
    # Market split (Cornuejols & Dawande): HiGHS needs about 37k nodes to
    # find a feasible point; the root node closes nothing.
    rng = np.random.default_rng(1)
    A = rng.integers(0, 100, size=(3, 25)).astype(float)
    rhs = np.floor(A.sum(axis=1) / 2)
    lp = LinearProgram(c=np.zeros(25), M_eq=A, r_eq=rhs,
                       lb=np.zeros(25), ub=np.ones(25))
    with pytest.raises(NodeLimitExceeded):
        solve_mip(MixedProgram(lp=lp, binary_index=list(range(25))),
                  node_limit=5)


def test_random_knapsacks_match_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = rng.integers(4, 10)
        w = rng.uniform(0.5, 3.0, size=n)
        v = rng.uniform(0.5, 3.0, size=n)
        cap = float(w.sum() * rng.uniform(0.3, 0.8))
        lp = LinearProgram(c=v, sense="max", M_in=[w], r_in=[cap],
                           lb=np.zeros(n), ub=np.ones(n))
        sol = solve_mip(MixedProgram(lp=lp, binary_index=list(range(n))))
        picks = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
        best = (picks @ v)[picks @ w <= cap].max()
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(best, abs=1e-7)
        assert sol.binary_values @ w <= cap + 1e-9
