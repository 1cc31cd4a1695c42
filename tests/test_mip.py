"""Mixed-binary programs on HiGHS."""

import itertools

import numpy as np
import pytest

from drrcalc.caseio import StudyConfig
from drrcalc.errors import DimensionMismatch, NodeLimitExceeded, NumericalFailure
from drrcalc.lp import INFEASIBLE, OPTIMAL, LinearProgram
from drrcalc.mip import MixedProgram, solve_mip

# StudyConfig's node limit, the one every milp run passes.
NODE_LIMIT = StudyConfig().node_limit


@pytest.fixture(params=["scipy"])
def solve(request):
    """solve_mip at the default node limit, under the solver name region.json
    records as mip_backend."""
    assert StudyConfig().algorithmic_echo()["mip_backend"] == request.param
    return lambda mp: solve_mip(mp, node_limit=NODE_LIMIT)


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
    assert list(np.round(sol.x)) == [1.0, 0.0]


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


def test_a_program_without_binaries_is_rejected():
    lp = LinearProgram(c=[1.0], lb=[0.0], ub=[1.0])
    with pytest.raises(DimensionMismatch):
        MixedProgram(lp=lp, binary_index=[])


def test_a_model_highs_rejects_is_a_numerical_failure_not_infeasible():
    # HiGHS rejects a coefficient above 1e15.  solve_maxmin_milp reads an
    # INFEASIBLE MIP as a clipped big-M, so the rejection must not be one.
    lp = LinearProgram(c=[1.0, 1.0], sense="max", M_in=[[1e16, 1.0]],
                       r_in=[1.0], lb=[0.0, 0.0], ub=[1.0, 1.0])
    with pytest.raises(NumericalFailure):
        solve_mip(MixedProgram(lp=lp, binary_index=[0, 1]),
                  node_limit=NODE_LIMIT)


def test_a_milp_run_assembles_each_lp_once_and_each_mip_once(pjm5, monkeypatch):
    # A milp run calls _csc once per LinearProgram built (with_vectors copies
    # build none), and once more per MIP for its equality-first rows.  _csc
    # is counted under every drrcalc module name it is bound to.
    import sys
    import drrcalc.lp as lp_mod
    from drrcalc import engine, maxmin_milp

    built, assembled, mips = [], [], []
    post_init, csc, direct = (LinearProgram.__post_init__, lp_mod._csc,
                              maxmin_milp.solve_mip)

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def counting_csc(A):
        assembled.append(1)
        return csc(A)

    def counting_solve_mip(mp, node_limit):
        mips.append(1)
        return direct(mp, node_limit=node_limit)

    monkeypatch.setattr(LinearProgram, "__post_init__", counting_post_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("drrcalc") and getattr(module, "_csc", None) is csc:
            monkeypatch.setattr(module, "_csc", counting_csc)
    monkeypatch.setattr(maxmin_milp, "solve_mip", counting_solve_mip)
    engine.run(pjm5, StudyConfig(), method="milp")
    assert mips
    assert len(assembled) == len(built) + len(mips)


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
        sol = solve_mip(MixedProgram(lp=lp, binary_index=list(range(n))),
                        node_limit=NODE_LIMIT)
        picks = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
        best = (picks @ v)[picks @ w <= cap].max()
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(best, abs=1e-7)
        assert np.round(sol.x) @ w <= cap + 1e-9


def _milp_reference(mp: MixedProgram, node_limit: int):
    """(x, nodes) from ``scipy.optimize.milp`` for ``mp``, with
    a relative gap of 0 and the node limit, equality rows first."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp = mp.lp
    sign = 1.0 if lp.sense == "min" else -1.0
    constraints = []
    if lp.r_eq.size:
        constraints.append(LinearConstraint(lp.M_eq, lp.r_eq, lp.r_eq))
    if lp.r_in.size:
        constraints.append(LinearConstraint(lp.M_in, -np.inf, lp.r_in))
    integrality = np.zeros(lp.nvar)
    integrality[mp.binary_index] = 1
    res = milp(c=sign * lp.c, constraints=constraints, integrality=integrality,
               bounds=Bounds(lp.lb, lp.ub),
               options={"mip_rel_gap": 0.0, "node_limit": node_limit})
    assert res.status == 0, res.message
    return np.asarray(res.x, dtype=float), res.mip_node_count


def _kkt_mips(case, cfg, monkeypatch):
    """Every (MixedProgram, node_limit) a milp run of ``case`` solves."""
    from drrcalc import engine, maxmin_milp

    seen = []
    direct = maxmin_milp.solve_mip

    def record(mp, node_limit):
        seen.append((mp, node_limit))
        return direct(mp, node_limit=node_limit)

    with monkeypatch.context() as mp:
        mp.setattr(maxmin_milp, "solve_mip", record)
        engine.run(case, cfg, method="milp")
    return seen


def _assert_matches_milp(mp: MixedProgram, node_limit: int) -> None:
    got = solve_mip(mp, node_limit=node_limit)
    x, nodes = _milp_reference(mp, node_limit)
    assert got.status == OPTIMAL
    assert got.x.tobytes() == x.tobytes()
    assert got.objective == float(mp.lp.c @ x)
    assert got.nodes == nodes


@pytest.mark.parametrize("case, iters", [("pjm5", 200), ("ieee39", 2)],
                         ids=["pjm5-run", "ieee39-first-two"])
def test_kkt_mips_match_scipy_milp_bit_for_bit(case, iters, request, monkeypatch):
    """The direct HiGHS MIP solve hands HiGHS what milp hands it: every KKT
    MIP of a PJM-5 run and of the first two IEEE-39 iterations gives the
    same x, objective and node count, bit for bit."""
    mips = _kkt_mips(request.getfixturevalue(case),
                     StudyConfig(max_outer_iters=iters), monkeypatch)
    assert mips
    for mp, node_limit in mips:
        _assert_matches_milp(mp, node_limit)


def test_gap_sensitive_knapsack_matches_scipy_milp_bit_for_bit():
    # HiGHS's default relative gap (1e-4) stops this one at the root, with
    # a dual bound of 23,055 over the optimum of 23,054; a gap of 0 takes 26
    # nodes to close it.  The KKT MIPs above close the same way under either
    # gap, so this is the case that holds the direct solve to milp's
    # mip_rel_gap.
    rng = np.random.default_rng(15)
    w = rng.integers(1000, 2000, size=30).astype(float)
    v = w + rng.integers(0, 5, size=30)
    lp = LinearProgram(c=v, sense="max", M_in=[w], r_in=[np.floor(w.sum() / 2)],
                       lb=np.zeros(30), ub=np.ones(30))
    _assert_matches_milp(MixedProgram(lp=lp, binary_index=list(range(30))),
                         NODE_LIMIT)
