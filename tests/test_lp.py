"""LP core: HiGHS against the linprog reference and the certificates that
linprog's marginals give."""

import dataclasses
import multiprocessing
import pickle
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog

import drrcalc.lp as lp_mod
from drrcalc.caseio import StudyConfig
from drrcalc.engine import run
from drrcalc.errors import DimensionMismatch, NumericalFailure
from drrcalc.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LpSolution,
                        elastic_lp, solve_lp)


@pytest.fixture(params=["scipy"])
def solve(request):
    """solve_lp, under the solver name region.json records as lp_backend."""
    assert StudyConfig().algorithmic_echo()["lp_backend"] == request.param
    return solve_lp


def test_single_variable_lower_bound(solve):
    # min x s.t. x >= 3: the bound dual carries the whole certificate.
    lp = LinearProgram(c=[1.0], lb=[3.0])
    sol = solve(lp)
    duals, errs = _certify(lp, sol)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
    assert duals.nu_lb[0] == pytest.approx(1.0, abs=1e-8)
    assert errs["stationarity"] < 1e-7
    assert errs["gap"] < 1e-7


def test_box_maximum(solve):
    # max w over 45 <= w <= 65, the final 1-D region query.
    lp = LinearProgram(c=[1.0], sense="max", lb=[45.0], ub=[65.0])
    sol = solve(lp)
    duals, _ = _certify(lp, sol)
    assert sol.objective == pytest.approx(65.0, abs=1e-9)
    assert duals.nu_ub[0] == pytest.approx(1.0, abs=1e-8)


def test_inequality_dual_sign(solve):
    # max x s.t. x <= 3 as a row: mu_in must come back nonnegative.
    lp = LinearProgram(c=[1.0], sense="max", M_in=[[1.0]], r_in=[3.0])
    sol = solve(lp)
    duals, errs = _certify(lp, sol)
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert duals.mu_in[0] == pytest.approx(1.0, abs=1e-8)
    assert max(errs["stationarity"], errs["gap"], errs["complementarity"]) < 1e-7


def test_equality_and_inequality_mix(solve):
    # min x + y s.t. x + y = 1, x - y <= 0.2, 0 <= x,y <= 1
    lp = LinearProgram(c=[1.0, 1.0],
                       M_eq=[[1.0, 1.0]], r_eq=[1.0],
                       M_in=[[1.0, -1.0]], r_in=[0.2],
                       lb=[0.0, 0.0], ub=[1.0, 1.0])
    sol = solve(lp)
    _, errs = _certify(lp, sol)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert errs["primal"] < 1e-8
    assert errs["gap"] < 1e-7


def test_infeasible_with_farkas(solve):
    lp = LinearProgram(c=[1.0], M_eq=[[1.0]], r_eq=[5.0],
                       M_in=[[1.0]], r_in=[1.0], lb=[0.0])
    sol = solve(lp)
    assert sol.status == INFEASIBLE
    ray = _farkas_ray(lp)
    assert ray is not None
    assert _verify_farkas(lp, ray) > 1e-8


def test_unbounded(solve):
    lp = LinearProgram(c=[-1.0], lb=[0.0])
    sol = solve(lp)
    assert sol.status == UNBOUNDED


def _random_lp(rng, m=20, n=40):
    # Feasible by construction: pick x0 in the box, set r_eq to match and
    # give the inequality block slack around x0.
    A = rng.normal(size=(m // 2, n))
    x0 = rng.uniform(-1.0, 1.0, size=n)
    C = rng.normal(size=(m, n))
    lb = np.where(rng.random(n) < 0.8, -2.0, -np.inf)
    ub = np.where(rng.random(n) < 0.8, 2.0, np.inf)
    return LinearProgram(
        c=rng.normal(size=n),
        M_eq=A, r_eq=A @ x0,
        M_in=C, r_in=C @ x0 + rng.uniform(0.05, 2.0, size=m),
        lb=lb, ub=ub,
    )


def _assert_certified(lp, sol):
    _, errs = _certify(lp, sol)
    assert errs["primal"] < 1e-8
    assert errs["stationarity"] < 1e-7
    assert errs["complementarity"] < 1e-7
    assert errs["gap"] < 1e-7
    assert errs["min_mu_in"] > -1e-10


def _assert_objective_matches_linprog(lp, sol):
    ref = _linprog_solve(lp)
    assert sol.status == ref.status
    if ref.status == OPTIMAL:
        assert abs(sol.objective - ref.objective) / (1.0 + abs(ref.objective)) < 1e-7


def test_random_instances_pass_certificates():
    rng = np.random.default_rng(20240611)
    solved = 0
    for _ in range(100):
        lp = _random_lp(rng)
        sol = solve_lp(lp)
        _assert_objective_matches_linprog(lp, sol)
        if sol.status == OPTIMAL:
            solved += 1
            _assert_certified(lp, sol)
    assert solved >= 80  # most instances are bounded


def test_deterministic_repeat():
    rng = np.random.default_rng(7)
    lp = _random_lp(rng)
    _assert_bitwise_equal(solve_lp(lp), solve_lp(lp))


def test_beale_cycling_instance_terminates():
    # Classic degenerate instance that cycles under naive Dantzig pivoting.
    lp = LinearProgram(
        c=[-0.75, 150.0, -0.02, 6.0],
        M_in=[[0.25, -60.0, -1.0 / 25.0, 9.0],
              [0.5, -90.0, -1.0 / 50.0, 3.0],
              [0.0, 0.0, 1.0, 0.0]],
        r_in=[0.0, 0.0, 1.0],
        lb=[0.0, 0.0, 0.0, 0.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)
    _assert_objective_matches_linprog(lp, sol)
    _assert_certified(lp, sol)


def test_equality_heavy_instances_match_scipy():
    # Shapes like the slacked dispatch solves: wide equality block plus
    # nonnegative slack columns, free structural variables.
    rng = np.random.default_rng(314)
    for _ in range(40):
        m = int(rng.integers(5, 15))
        n_free = int(rng.integers(3, 10))
        n = n_free + m
        A = np.hstack([rng.normal(size=(m, n_free)), np.eye(m)])
        x0 = np.concatenate([rng.normal(size=n_free), rng.uniform(0, 2, m)])
        lb = np.concatenate([np.full(n_free, -np.inf), np.zeros(m)])
        lp = LinearProgram(c=rng.uniform(0, 1, n), M_eq=A, r_eq=A @ x0, lb=lb)
        sol = solve_lp(lp)
        _assert_objective_matches_linprog(lp, sol)
        if sol.status == OPTIMAL:
            _assert_certified(lp, sol)


def test_random_infeasible_instances_agree():
    rng = np.random.default_rng(2718)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        a = rng.normal(size=n)
        # Two parallel equalities with different offsets: never satisfiable.
        M_eq = np.vstack([a, a])
        r_eq = np.array([1.0, 2.0])
        lp = LinearProgram(c=rng.normal(size=n), M_eq=M_eq, r_eq=r_eq,
                           lb=np.full(n, -5.0), ub=np.full(n, 5.0))
        sol = solve_lp(lp)
        assert sol.status == _linprog_solve(lp).status == INFEASIBLE
        assert _verify_farkas(lp, _farkas_ray(lp)) > 1e-8


def test_medium_size_cross_check():
    rng = np.random.default_rng(99991)
    m, n = 60, 120
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(-1, 1, n)
    lp = LinearProgram(c=rng.normal(size=n),
                       M_in=A, r_in=A @ x0 + rng.uniform(0.1, 1.0, m),
                       lb=np.full(n, -3.0), ub=np.full(n, 3.0))
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    _assert_objective_matches_linprog(lp, sol)
    _assert_certified(lp, sol)


# --- input checks ---------------------------------------------------------------

_VALID = dict(c=[1.0, 1.0], M_eq=[[1.0, 1.0]], r_eq=[1.0],
              M_in=[[1.0, -1.0]], r_in=[0.2], lb=[0.0, 0.0], ub=[1.0, 1.0])


@pytest.mark.parametrize("field, value", [
    ("c", [np.inf, 1.0]),
    ("c", [np.nan, 1.0]),
    ("M_eq", [[1.0, -np.inf]]),
    ("M_in", [[np.inf, 1.0]]),
    ("r_eq", [np.nan]),
    ("r_in", [np.nan]),
    ("lb", [0.0, 2.0]),
    ("lb", [np.nan, 0.0]),
    ("ub", [1.0, np.nan]),
])
def test_rejected_inputs(field, value):
    LinearProgram(**_VALID)
    with pytest.raises(DimensionMismatch):
        LinearProgram(**{**_VALID, field: value})


def test_rejects_lower_bound_of_plus_inf():
    # HiGHS would read lb = ub = +inf as a free column: Unbounded.
    with pytest.raises(DimensionMismatch):
        LinearProgram(c=[1.0], lb=[np.inf], ub=[np.inf])


def test_rejects_upper_bound_of_minus_inf():
    with pytest.raises(DimensionMismatch):
        LinearProgram(c=[1.0], sense="max", lb=[-np.inf], ub=[-np.inf])


@pytest.mark.parametrize("field, value", [
    ("c", [np.inf, 1.0]),
    ("c", [np.nan, 1.0]),
    ("c", [1.0]),
    ("r_in", [np.nan]),
    ("r_in", [0.2, 0.2]),
    ("r_eq", [np.nan]),
    ("r_eq", [1.0, 1.0]),
    ("ub", [1.0, np.nan]),
    ("ub", [1.0]),
    ("ub", [1.0, -1.0]),
])
def test_template_rejects_bad_binding(field, value):
    # with_vectors checks the vectors it swaps in as the constructor does.
    lp = LinearProgram(**_VALID)
    lp.with_vectors(c=[2.0, 1.0], r_eq=[0.5], r_in=[np.inf], ub=[np.inf, 1.0])
    with pytest.raises(DimensionMismatch):
        lp.with_vectors(**{field: value})


def test_with_vectors_rejects_upper_bound_of_minus_inf():
    lp = LinearProgram(c=[1.0], sense="max")
    with pytest.raises(DimensionMismatch):
        lp.with_vectors(ub=[-np.inf])


# --- the linprog reference and its certificates -------------------------------------
#
# Dual sign convention: mu_eq is free and equals d(objective)/d(r_eq);
# mu_in is nonnegative for both senses, with d(objective)/d(r_in) = -mu_in
# for "min" and +mu_in for "max".  Bound duals nu_lb/nu_ub are nonnegative.
# Stationarity:
#
#     min:  c - M_eq.T @ mu_eq + M_in.T @ mu_in = nu_lb - nu_ub
#     max:  c - M_eq.T @ mu_eq - M_in.T @ mu_in = nu_ub - nu_lb


@dataclasses.dataclass
class _Duals:
    mu_eq: np.ndarray
    mu_in: np.ndarray
    nu_lb: np.ndarray
    nu_ub: np.ndarray


def _reference(lp: LinearProgram) -> tuple[LpSolution, _Duals | None]:
    """The HiGHS solve as ``linprog(method="highs")``, the reference that
    solve_lp must match bit for bit, and at an optimum linprog's marginals
    in the sign convention above.  linprog makes a new HiGHS instance per
    call."""
    sign = 1.0 if lp.sense == "min" else -1.0
    bounds = list(zip(
        np.where(np.isfinite(lp.lb), lp.lb, -np.inf),
        np.where(np.isfinite(lp.ub), lp.ub, np.inf),
    ))
    res = linprog(
        sign * lp.c,
        A_ub=lp.M_in if lp.r_in.size else None,
        b_ub=lp.r_in if lp.r_in.size else None,
        A_eq=lp.M_eq if lp.r_eq.size else None,
        b_eq=lp.r_eq if lp.r_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return LpSolution(status=INFEASIBLE), None
    if res.status == 3:
        return LpSolution(status=UNBOUNDED), None
    assert res.status == 0, res.message
    y_eq = res.eqlin.marginals if lp.r_eq.size else np.zeros(0)
    y_in = res.ineqlin.marginals if lp.r_in.size else np.zeros(0)
    duals = _Duals(mu_eq=np.asarray(y_eq, dtype=float) * sign,
                   mu_in=np.maximum(-np.asarray(y_in, dtype=float), 0.0),
                   nu_lb=np.maximum(res.lower.marginals, 0.0),
                   nu_ub=np.maximum(-res.upper.marginals, 0.0))
    return (LpSolution(status=OPTIMAL, x=np.asarray(res.x, dtype=float),
                       objective=float(sign * res.fun)), duals)


def _linprog_solve(lp: LinearProgram) -> LpSolution:
    return _reference(lp)[0]


def _assert_bitwise_equal(got: LpSolution, ref: LpSolution):
    assert got.status == ref.status
    assert np.array_equal(got.objective, ref.objective, equal_nan=True)
    assert (got.x is None) == (ref.x is None)
    if got.x is not None:
        assert got.x.dtype == ref.x.dtype and np.array_equal(got.x, ref.x)


def _certify(lp: LinearProgram, sol: LpSolution) -> tuple[_Duals, dict]:
    """linprog's duals of ``lp``, and the residuals of the optimality
    certificate that they and ``sol``'s x and objective make; ``sol`` must
    equal linprog's optimum bit for bit."""
    ref, duals = _reference(lp)
    assert ref.status == OPTIMAL
    _assert_bitwise_equal(sol, ref)
    return duals, _certificate_errors(lp, sol, duals)


def _certificate_errors(lp: LinearProgram, sol: LpSolution, duals: _Duals) -> dict:
    """Residuals of the optimality certificate; see the sign convention above."""
    x = sol.x
    mu_eq, mu_in, nu_lb, nu_ub = duals.mu_eq, duals.mu_in, duals.nu_lb, duals.nu_ub
    scale = 1.0 + max(
        np.abs(lp.c).max(initial=0.0),
        np.abs(lp.r_eq).max(initial=0.0),
        np.abs(lp.r_in).max(initial=0.0),
    )
    primal_eq = (np.abs(lp.M_eq @ x - lp.r_eq).max(initial=0.0))
    primal_in = max(0.0, (lp.M_in @ x - lp.r_in).max(initial=-np.inf))
    with np.errstate(invalid="ignore"):
        lo = np.where(np.isfinite(lp.lb), lp.lb - x, 0.0)
        hi = np.where(np.isfinite(lp.ub), x - lp.ub, 0.0)
    primal_bounds = max(lo.max(initial=0.0), hi.max(initial=0.0))

    if lp.sense == "min":
        stat = lp.c - lp.M_eq.T @ mu_eq + lp.M_in.T @ mu_in - nu_lb + nu_ub
        dual_obj = mu_eq @ lp.r_eq - mu_in @ lp.r_in
    else:
        stat = lp.c - lp.M_eq.T @ mu_eq - lp.M_in.T @ mu_in + nu_lb - nu_ub
        dual_obj = mu_eq @ lp.r_eq + mu_in @ lp.r_in
    lbf = np.where(np.isfinite(lp.lb), lp.lb, 0.0)
    ubf = np.where(np.isfinite(lp.ub), lp.ub, 0.0)
    lb_term = float((np.where(np.isfinite(lp.lb), nu_lb, 0.0) * lbf).sum())
    ub_term = float((np.where(np.isfinite(lp.ub), nu_ub, 0.0) * ubf).sum())
    if lp.sense == "min":
        dual_obj += lb_term - ub_term
    else:
        dual_obj += ub_term - lb_term

    comp = np.abs(mu_in * (lp.r_in - lp.M_in @ x)).max(initial=0.0)
    return {
        "primal": max(primal_eq, primal_in, primal_bounds) / scale,
        "stationarity": np.abs(stat).max(initial=0.0) / scale,
        "complementarity": comp / scale,
        "gap": abs(sol.objective - dual_obj) / scale,
        "min_mu_in": float(mu_in.min(initial=0.0)),
    }


def _farkas_ray(lp: LinearProgram) -> np.ndarray | None:
    """An infeasibility ray (y_eq, y_in) of ``lp`` from linprog's duals of
    its elastic relaxation; None when the relaxation proves ``lp``'s rows
    satisfiable."""
    elastic = elastic_lp(lp)
    sol = solve_lp(elastic)
    duals, _ = _certify(elastic, sol)
    if sol.objective <= 1e-9:
        return None
    # min-sense elastic duals: d(obj)/d(r_eq) = mu_eq, d(obj)/d(r_in) = -mu_in.
    return np.concatenate([duals.mu_eq, -duals.mu_in])


def _verify_farkas(lp: LinearProgram, ray: np.ndarray, tol: float = 1e-7) -> float:
    """Return the proven infeasibility margin y@r - sup_box y@M@x (> 0 = proof)."""
    m_eq = lp.r_eq.size
    y_eq = ray[:m_eq]
    y_in = ray[m_eq:]
    if np.any(y_in > tol):
        return -np.inf  # wrong sign for <= rows
    g = y_eq @ lp.M_eq + y_in @ lp.M_in
    sup = 0.0
    for j in range(lp.nvar):
        if g[j] > tol:
            if not np.isfinite(lp.ub[j]):
                return -np.inf
            sup += g[j] * lp.ub[j]
        elif g[j] < -tol:
            if not np.isfinite(lp.lb[j]):
                return -np.inf
            sup += g[j] * lp.lb[j]
    return float(y_eq @ lp.r_eq + y_in @ lp.r_in - sup)


# --- direct HiGHS call against linprog ---------------------------------------------


def _full(lp: LinearProgram) -> LinearProgram:
    """``lp`` as a new LinearProgram, with passModel arrays of its own."""
    return dataclasses.replace(lp)


def _check_against_linprog(lps):
    """solve_lp against linprog, and on an infeasible LP the elastic solve
    that gives its Farkas ray too."""
    for lp in lps:
        sol = solve_lp(lp)
        _assert_bitwise_equal(sol, _linprog_solve(lp))
        if sol.status == INFEASIBLE:
            elastic = elastic_lp(lp)
            _assert_bitwise_equal(solve_lp(elastic), _linprog_solve(elastic))


def test_direct_highs_matches_linprog_random():
    rng = np.random.default_rng(20240611)
    lps = [_random_lp(rng) for _ in range(100)]
    lps += [LinearProgram(c=[1.0], lb=[3.0]),
            LinearProgram(c=[1.0], sense="max", lb=[45.0], ub=[65.0]),
            LinearProgram(c=[1.0], sense="max", M_in=[[1.0]], r_in=[3.0])]
    _check_against_linprog(lps)


def test_direct_highs_matches_linprog_infeasible():
    rng = np.random.default_rng(2718)
    lps = [LinearProgram(c=[1.0], M_eq=[[1.0]], r_eq=[5.0],
                         M_in=[[1.0]], r_in=[1.0], lb=[0.0])]
    for _ in range(20):
        n = int(rng.integers(3, 8))
        a = rng.normal(size=n)
        lps.append(LinearProgram(c=rng.normal(size=n), M_eq=np.vstack([a, a]),
                                 r_eq=np.array([1.0, 2.0]),
                                 lb=np.full(n, -5.0), ub=np.full(n, 5.0)))
    assert all(solve_lp(lp).status == INFEASIBLE for lp in lps)
    assert all(_verify_farkas(lp, _farkas_ray(lp)) > 1e-8 for lp in lps)
    _check_against_linprog(lps)


def test_direct_highs_matches_linprog_unbounded():
    # Feasible LPs (x = 0 satisfies every row) with a recession direction
    # d along which the cost falls.  HiGHS's presolve calls some of them
    # Infeasible, as linprog does; their elastic relaxation is 0.
    rng = np.random.default_rng(1618)
    lps = [LinearProgram(c=[-1.0], lb=[0.0])]
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d = rng.normal(size=n)
        M_in = rng.normal(size=(3, n))
        M_in -= np.outer(M_in @ d, d) / (d @ d)
        lps.append(LinearProgram(c=-d, M_in=M_in, r_in=np.ones(3)))
    statuses = Counter(solve_lp(lp).status for lp in lps)
    assert set(statuses) <= {UNBOUNDED, INFEASIBLE}
    assert statuses[UNBOUNDED] >= 15
    for lp in lps:
        assert solve_lp(lp).status == _linprog_solve(lp).status
        assert _farkas_ray(lp) is None
    _check_against_linprog(lps)


# HiGHS rejects this model (a coefficient above 1e15) although it is feasible.
_REJECTED = LinearProgram(c=[1.0, 1.0], M_in=[[1e16, 1.0]], r_in=[1.0],
                          lb=[0.0, 0.0], ub=[1.0, 1.0])


def test_rejected_model_raises_not_recurses(monkeypatch):
    # linprog reads HiGHS's kModelError as infeasible (status 2); solve_lp
    # raises after its one run and starts no other solve.
    assert _linprog_solve(_REJECTED).status == INFEASIBLE
    runs = []
    run_once = lp_mod._pass_and_run

    def counted(*args):
        runs.append(args[1])
        return run_once(*args)

    monkeypatch.setattr(lp_mod, "_pass_and_run", counted)
    with pytest.raises(NumericalFailure, match="Model error"):
        solve_lp(_REJECTED)
    assert runs == [_REJECTED]


def test_direct_highs_matches_linprog_on_iblp_run(twobus, monkeypatch):
    seen = []
    run_once = lp_mod._pass_and_run

    def record(h, lp, *args):
        seen.append(lp)
        return run_once(h, lp, *args)

    with monkeypatch.context() as mp:
        mp.setattr(lp_mod, "_pass_and_run", record)
        run(twobus, StudyConfig(), method="iblp")
    assert len(seen) > 50
    # Most share their passModel arrays: the memo's multiplier, w-step and
    # projection LPs are with_vectors copies of one LP per kind.
    shared = Counter(tuple(map(id, lp._model)) for lp in seen)
    assert sum(n for n in shared.values() if n > 1) > 20
    # Solved again after the run on the process's one HiGHS instance, in
    # shuffled order, with infeasible, unbounded and rejected LPs mixed in:
    # each must equal linprog's solve on a new instance.
    extra = [LinearProgram(c=[1.0], M_eq=[[1.0]], r_eq=[5.0],
                           M_in=[[1.0]], r_in=[1.0], lb=[0.0]),
             LinearProgram(c=[-1.0], lb=[0.0]),
             _REJECTED]
    pool = seen + 10 * extra
    lps = [pool[i] for i in np.random.default_rng(6).permutation(len(pool))]
    statuses = set()
    for lp in lps:
        if lp is _REJECTED:
            with pytest.raises(NumericalFailure, match="Model error"):
                solve_lp(lp)
            continue
        sol = solve_lp(lp)
        statuses.add(sol.status)
        _assert_bitwise_equal(sol, _linprog_solve(lp))
        _assert_bitwise_equal(sol, solve_lp(_full(lp)))
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


# --- one HiGHS instance per thread ---------------------------------------------------

def test_back_to_back_solves_of_one_template_match_linprog():
    # The shared instance sees the same model again and again; each solve
    # must still be what linprog's new instance gives.
    rng = np.random.default_rng(5151)
    for _ in range(10):
        lp = _random_lp(rng)
        copies = [lp.with_vectors(c=rng.normal(size=lp.nvar)) for _ in range(5)]
        got = [solve_lp(copy) for copy in copies]
        for copy, sol in zip(copies, got):
            _assert_bitwise_equal(sol, _linprog_solve(copy))


class _ShiftedOptimum:
    """A HiGHS instance that reports every optimum with x moved by +1."""

    def __init__(self, h):
        self.h = h

    def __getattr__(self, name):
        return getattr(self.h, name)

    def getSolution(self):
        solution = self.h.getSolution()
        solution.col_value = [v + 1.0 for v in solution.col_value]
        return solution


@pytest.mark.parametrize("warm", [True, False])
def test_tampered_optimum_raises(warm, monkeypatch):
    # HiGHS reports x = 2 for an LP that caps x at 1, so the optimum it
    # reports violates the LP it stands for.  Warm: the instance has solved
    # this very LP before, and its earlier answer must not be reused.
    lp = LinearProgram(c=[1.0], sense="max", lb=[0.0], ub=[1.0])
    if warm:
        assert solve_lp(lp).x[0] == 1.0
    tampered = _ShiftedOptimum(lp_mod._highs_solver())
    # This thread's entry in the per-thread registry.
    monkeypatch.setattr(lp_mod._SOLVERS, "highs", tampered)
    with pytest.raises(NumericalFailure, match="violates the constraints"):
        solve_lp(lp)
    replaced = lp_mod._highs_solver()
    assert replaced is not tampered and replaced is not tampered.h
    assert solve_lp(lp).x[0] == 1.0


def test_highs_instance_is_kept_and_replaced_after_an_error():
    lp = LinearProgram(c=[1.0], sense="max", lb=[45.0], ub=[65.0])
    solve_lp(lp)
    h = lp_mod._highs_solver()
    solve_lp(lp)
    solve_lp(LinearProgram(c=[-1.0], lb=[0.0]))  # unbounded is no error
    assert lp_mod._highs_solver() is h
    with pytest.raises(NumericalFailure):
        solve_lp(_REJECTED)
    assert lp_mod._highs_solver() is not h


def test_threads_solve_copies_of_one_lp_as_serial_solves():
    # Copies of one LP share its read-only passModel arrays.  Four
    # threads (more than most boxes have cores) solve all of them at once,
    # each in its own order, on its own HiGHS instance and with a short
    # switch interval; every solve must equal the serial solve of the same
    # program with arrays of its own, bit for bit.
    rng = np.random.default_rng(8181)
    lp = _random_lp(rng)
    copies = [lp.with_vectors(c=rng.normal(size=lp.nvar)) for _ in range(40)]
    serial = [solve_lp(_full(copy)) for copy in copies]
    orders = [rng.permutation(len(copies)) for _ in range(4)]
    barrier = threading.Barrier(len(orders))
    got, instances = {}, {}

    def solve_all(k):
        barrier.wait(timeout=60)
        instances[k] = lp_mod._highs_solver()
        got[k] = {i: solve_lp(copies[i]) for i in orders[k]}

    threads = [threading.Thread(target=solve_all, args=(k,))
               for k in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == list(range(len(orders)))
    assert len({id(h) for h in instances.values()}) == len(orders)
    assert lp_mod._highs_solver() not in instances.values()
    for sols in got.values():
        for i, sol in sols.items():
            _assert_bitwise_equal(sol, serial[i])


def test_forked_child_makes_its_own_highs_instance():
    lp = _random_lp(np.random.default_rng(31))
    ref = solve_lp(lp)
    parent = lp_mod._highs_solver()

    def child():
        h = lp_mod._highs_solver()
        sol = solve_lp(lp)
        same = all(np.array_equal(getattr(sol, k), getattr(ref, k))
                   for k in ("x", "objective"))
        ok = h is not parent and lp_mod._highs_solver() is h and same
        raise SystemExit(0 if ok else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    assert proc.exitcode == 0
    assert lp_mod._highs_solver() is parent


# --- with_vectors copies against the full LinearProgram -----------------------------
#
# A copy shares its LP's passModel arrays; _full(copy) is the same
# program with arrays of its own, the reference a copy must match bit for bit.

def test_template_matches_full_lp_swapped_costs(solve):
    rng = np.random.default_rng(4242)
    for _ in range(10):
        lp = _random_lp(rng)
        for _ in range(5):
            copy = lp.with_vectors(c=rng.normal(size=lp.nvar))
            _assert_bitwise_equal(solve(copy), solve(_full(copy)))


def test_template_matches_full_lp_swapped_rhs(solve):
    rng = np.random.default_rng(4343)
    for _ in range(10):
        lp = _random_lp(rng)
        for _ in range(5):
            r_in = lp.r_in + rng.uniform(-0.5, 1.0, size=lp.r_in.size)
            copy = lp.with_vectors(r_in=r_in)
            _assert_bitwise_equal(solve(copy), solve(_full(copy)))


def test_template_infeasible_binding_gets_a_farkas_ray(solve):
    # x == 5 and x <= r: feasible at r = 6, infeasible at r = 1.
    lp = LinearProgram(c=[1.0], M_eq=[[1.0]], r_eq=[5.0],
                       M_in=[[1.0]], r_in=[6.0], lb=[0.0])
    assert solve(lp).status == OPTIMAL
    copy = lp.with_vectors(r_in=[1.0])
    sol = solve(copy)
    assert sol.status == INFEASIBLE
    assert _verify_farkas(copy, _farkas_ray(copy)) > 0
    _assert_bitwise_equal(sol, solve(_full(copy)))
    # The LP itself is untouched by its copy's infeasible solve.
    assert lp.r_in.tolist() == [6.0]
    _assert_bitwise_equal(solve(lp), solve(_full(lp)))


def test_each_solve_sets_every_vector_of_the_shared_model():
    # Copies that swap each vector in turn, solved in shuffled order on
    # one shared model: every solve must equal that of its own full LP,
    # so nothing an earlier copy set can leak into a later solve.
    rng = np.random.default_rng(6262)
    for _ in range(5):
        lp = _random_lp(rng)
        copies = [lp]
        for _ in range(3):
            copies += [
                lp.with_vectors(c=rng.normal(size=lp.nvar)),
                lp.with_vectors(r_eq=lp.r_eq + rng.uniform(-0.1, 0.1, lp.r_eq.size)),
                lp.with_vectors(r_in=lp.r_in + rng.uniform(-0.5, 1.0, lp.r_in.size)),
                lp.with_vectors(ub=lp.ub + rng.uniform(0.0, 1.0, lp.nvar)),
                lp.with_vectors(c=rng.normal(size=lp.nvar),
                                ub=np.where((rng.random(lp.nvar) < 0.3)
                                            & np.isfinite(lp.lb), lp.lb, lp.ub),
                                r_eq=lp.r_eq * 1.01),
            ]
        assert not any(arr.flags.writeable for arr in lp._model)
        assert all(all(a is b for a, b in zip(copy._model, lp._model))
                   for copy in copies)
        for i in rng.permutation(len(copies)):
            copy = copies[i]
            _assert_bitwise_equal(solve_lp(copy), solve_lp(_full(copy)))


def test_solved_lp_and_its_copy_pickle():
    # A solved LP and a with_vectors copy pickle with their passModel
    # arrays, and unpickled they solve bit for bit as before.
    rng = np.random.default_rng(7373)
    lp = _random_lp(rng)
    copy = lp.with_vectors(c=rng.normal(size=lp.nvar))
    for original in (lp, copy):
        ref = solve_lp(original)
        clone = pickle.loads(pickle.dumps(original))
        assert not any(a is b for a, b in zip(clone._model, original._model))
        _assert_bitwise_equal(solve_lp(clone), ref)
