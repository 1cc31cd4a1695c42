"""Heuristic worst-case oracle: many starts, alternating block maximization.

Each scenario point seeds an alternation between two LPs: multipliers at
fixed w, then w at fixed multipliers.  Both half-steps maximize the same
bilinear objective over their own block, so the value sequence is
nondecreasing and the final multiplier step leaves the reported violation
equal to the exact fixed-w dual value.

Scenario starts come from a fixed uniform sample of the initial box (drawn
once per run from the seed) plus per-iteration projections of the forecast
onto every current facet.  Scenarios are independent, so the batch can run
across a process pool; results merge in scenario order, which keeps output
identical for any worker count.

Starts converge onto the same few region vertices, so most alternation
steps repeat an LP already solved.  An :class:`IblpOracle` lives for one
region computation and memoizes both half-steps (see :class:`LpMemo`),
solving each distinct LP once on a HiGHS model assembled once; with more
than one worker it also owns the one process pool of the run, whose
workers keep their own memo warm across outer iterations.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
from dataclasses import dataclass

import numpy as np

from .caseio import StudyConfig
from .dispatch_model import CompactPsd
from .errors import DrrError, NumericalFailure, ZeroNormal
from .lp import OPTIMAL, LinearProgram, LpSolution, LpTemplate, solve_lp
from .maxmin_milp import MaxMinSolution, cut_vector, dualize
from .polytope import Polytope

_CUT_DEDUPE_TOL = 1e-6


@dataclass(frozen=True)
class ScenarioSet:
    s1: tuple[np.ndarray, ...]
    s2: tuple[np.ndarray, ...]

    def combined(self) -> list[np.ndarray]:
        return list(self.s1) + list(self.s2)


def gen_s1(W0: Polytope, n: int, seed: int) -> list[np.ndarray]:
    """Uniform per-coordinate sample of the initial box; fixed across a run."""
    lo, hi = W0.box_bounds()
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("initial region must be a bounded box")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, W0.dim))
    return [lo + p * (hi - lo) for p in pts]


def gen_s2(W: Polytope, w_bar) -> list[np.ndarray]:
    """Projection of the forecast onto each facet hyperplane of W."""
    w_bar = np.asarray(w_bar, dtype=float)
    pts = []
    for i in range(W.n_facets):
        h = W.H[i]
        hh = float(h @ h)
        if hh < 1e-24:
            raise ZeroNormal(f"facet {i} has a zero normal")
        pts.append(w_bar - ((h @ w_bar - W.f[i]) / hh) * h)
    return pts


def make_scenarios(W0: Polytope, W: Polytope, w_bar, cfg: StudyConfig) -> ScenarioSet:
    return ScenarioSet(s1=tuple(gen_s1(W0, cfg.s1_count, cfg.seed)),
                       s2=tuple(gen_s2(W, w_bar)))


def _projection_lp(W: Polytope) -> LinearProgram:
    """1-norm projection onto W as an LP over (w, t); bind
    ``r_in = (f, w0, -w0)`` to project the point w0."""
    n = W.dim
    c = np.concatenate([np.zeros(n), np.ones(n)])
    M_in = np.vstack([
        np.hstack([W.H, np.zeros((W.n_facets, n))]),
        np.hstack([np.eye(n), -np.eye(n)]),
        np.hstack([-np.eye(n), -np.eye(n)]),
    ])
    r_in = np.concatenate([W.f, np.zeros(2 * n)])
    return LinearProgram(c=c, sense="min", M_in=M_in, r_in=r_in)


def _project_into(W: Polytope, w0: np.ndarray, template: LpTemplate) -> np.ndarray:
    """1-norm projection of w0 onto W (an LP, deterministic); ``template``
    wraps ``_projection_lp(W)``."""
    lp = template.bind(r_in=np.concatenate([W.f, w0, -w0]))
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise NumericalFailure("projection into the current region failed")
    return sol.x[:W.dim]


class LpMemo:
    """Solutions and templates of the alternation's LPs.

    The multiplier LP depends only on the model and w, so its entries,
    keyed by the bytes of w, hold for the whole run.  The w-step LP depends
    only on (alpha, delta) and the region; its entries are keyed by the
    bytes of the multipliers and dropped whenever the region changes.  A
    solve happens only on a miss, and it binds new costs (or, for the
    projection, a new right-hand side) to an :class:`LpTemplate` built once:
    once per run for the multiplier LP, once per region for the w-step LP
    and the projection.  An entry is the solution a fresh solve returns,
    with its arrays made read-only, so a hit cannot change any result.
    """

    def __init__(self):
        self.multiplier: dict[bytes, LpSolution] = {}
        self.wstep: dict[bytes, LpSolution] = {}
        self._region: tuple[bytes, bytes] | None = None
        self._multiplier_tpl: LpTemplate | None = None
        self._wstep_tpl: LpTemplate | None = None
        self._projection_tpl: LpTemplate | None = None
        self.solves = 0           # LPs handed to the solver, projections included
        self.hits = 0
        self.multiplier_steps = 0

    def set_region(self, W: Polytope) -> None:
        key = (W.H.tobytes(), W.f.tobytes())
        if key != self._region:
            self.wstep.clear()
            self._wstep_tpl = self._projection_tpl = None
            self._region = key

    def _lookup(self, cache: dict, key: bytes, bound) -> LpSolution:
        sol = cache.get(key)
        if sol is not None:
            self.hits += 1
            return sol
        self.solves += 1
        sol = solve_lp(bound())
        for arr in (sol.x, sol.mu_eq, sol.mu_in, sol.nu_lb, sol.nu_ub, sol.farkas):
            if arr is not None:
                arr.flags.writeable = False
        cache[key] = sol
        return sol

    def multiplier_step(self, dmm, w: np.ndarray) -> LpSolution:
        self.multiplier_steps += 1
        if self._multiplier_tpl is None:
            self._multiplier_tpl = LpTemplate(dmm.multiplier_lp_at(w))
        return self._lookup(self.multiplier, w.tobytes(),
                            lambda: self._multiplier_tpl.bind(c=dmm.multiplier_cost(w)))

    def w_step(self, dmm, alpha: np.ndarray, delta: np.ndarray) -> LpSolution:
        if self._wstep_tpl is None:
            self._wstep_tpl = LpTemplate(dmm.w_lp_at(alpha, delta))
        return self._lookup(self.wstep, alpha.tobytes() + delta.tobytes(),
                            lambda: self._wstep_tpl.bind(c=dmm.w_cost(alpha, delta)))

    def project(self, W: Polytope, w0: np.ndarray) -> np.ndarray:
        self.solves += 1
        if self._projection_tpl is None:
            self._projection_tpl = LpTemplate(_projection_lp(W))
        return _project_into(W, w0, self._projection_tpl)

    def counts(self) -> tuple[int, int, int]:
        return self.solves, self.hits, self.multiplier_steps


# The oracle whose memo alternate_solve uses.  A pool worker installs its own
# in the initializer, for the life of the pool; the calling process installs
# the run's oracle for one serial batch and then restores the previous value.
_ACTIVE: IblpOracle | None = None


def alternate_solve(m: CompactPsd, W: Polytope, w0, cfg: StudyConfig) -> MaxMinSolution:
    """Alternating maximization from one starting point."""
    if _ACTIVE is not None and _ACTIVE.m is m:
        memo = _ACTIVE.memo
    else:
        memo = LpMemo()
    memo.set_region(W)
    dmm = dualize(m, W)
    w = np.asarray(w0, dtype=float)
    if not W.contains(w, tol=1e-9):
        w = memo.project(W, w)

    sequence: list[float] = []
    F_prev = -np.inf
    alpha = delta = None
    rounds = 0
    for rounds in range(1, cfg.alt_max_rounds + 1):
        mult = memo.multiplier_step(dmm, w)
        if mult.status != OPTIMAL:
            raise NumericalFailure(f"multiplier step returned {mult.status}")
        F = mult.objective
        na = dmm.n_alpha
        alpha, delta = mult.x[:na], mult.x[na:]
        sequence.append(F)
        if F - F_prev <= cfg.eps_alt or rounds == cfg.alt_max_rounds:
            break  # always stop on a multiplier step
        F_prev = F
        wstep = memo.w_step(dmm, alpha, delta)
        if wstep.status != OPTIMAL:
            raise NumericalFailure(f"w step returned {wstep.status}")
        w = wstep.x
        sequence.append(wstep.objective + float(alpha @ m.b - delta @ m.d))
    return MaxMinSolution(F=float(sequence[-1] if rounds and sequence else 0.0),
                          w_star=w, alpha=alpha, delta=delta, theta=None,
                          method="iblp",
                          diagnostics={"rounds": rounds,
                                       "sequence": sequence})


class IblpOracle:
    """The iblp oracle of one region computation.

    It holds the run's :class:`LpMemo` and, when ``cfg.thread_count > 1``,
    the run's one process pool: started by the first batch, shut down by
    :meth:`close`.  Each worker keeps its own memo for the life of the pool
    and receives the current region with every task.  ``counts`` is the
    scenario accounting of the last batch; the memo counts in it depend on
    the worker count, so it must never reach the exported region.
    """

    def __init__(self, m: CompactPsd, cfg: StudyConfig):
        self.m = m
        self.cfg = cfg
        self.memo = LpMemo()
        self.counts: dict[str, int] = {}
        self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def map(self, tasks: list) -> list:
        """Outcomes of ``_solve_scenario`` over ``tasks``, in task order."""
        workers = self.cfg.thread_count
        if workers <= 1:
            global _ACTIVE
            previous, _ACTIVE = _ACTIVE, self
            try:
                return [_solve_scenario(t) for t in tasks]
            finally:
                _ACTIVE = previous
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(self.m, self.cfg))
        return list(self._pool.map(_solve_scenario, tasks,
                                   chunksize=max(1, len(tasks) // (4 * workers))))


def _init_worker(m, cfg):
    global _ACTIVE
    _ACTIVE = IblpOracle(m, cfg)


def _solve_scenario(task):
    """One start: index, solution, error and the memo counts it added."""
    W, idx, w0 = task
    oracle = _ACTIVE
    before = oracle.memo.counts()
    try:
        sol, err = alternate_solve(oracle.m, W, w0, oracle.cfg), None
        sol.diagnostics["scenario"] = idx
    except DrrError as exc:
        sol, err = None, f"scenario {idx}: {exc}"
    added = tuple(a - b for a, b in zip(oracle.memo.counts(), before))
    return idx, sol, err, added


def run_iblp(m: CompactPsd, W: Polytope, scenarios: ScenarioSet,
             cfg: StudyConfig, oracle: IblpOracle | None = None
             ) -> list[MaxMinSolution]:
    """Alternate-solve every scenario; keep deduplicated positive violations.

    Failures are collected per scenario and only raised when no scenario
    succeeds.  The result order follows scenario order for any thread count.
    ``oracle`` carries memo and pool across the calls of one run; without
    it the call uses its own, closed on return.
    """
    tasks = [(W, idx, w0) for idx, w0 in enumerate(scenarios.combined())]
    if not tasks:
        raise ValueError("scenario set is empty")
    if oracle is not None and (oracle.m is not m or oracle.cfg is not cfg):
        raise ValueError("oracle belongs to another model or configuration")

    with IblpOracle(m, cfg) if oracle is None else contextlib.nullcontext(oracle) as run:
        outcomes = run.map(tasks)

    failures = [err for _, _, err, _ in outcomes if err]
    solutions = [sol for _, sol, _, _ in outcomes if sol is not None]
    solves, hits, steps = map(sum, zip(*(added for *_, added in outcomes)))
    if not solutions:
        raise NumericalFailure(
            "all scenarios failed: " + "; ".join(failures[:5]))

    positive = [s for s in solutions if s.F > cfg.eps_term]
    kept: list[MaxMinSolution] = []
    kept_vectors: list[np.ndarray] = []
    for s in positive:
        normal, offset = cut_vector(s, m)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            kept.append(s)  # degenerate direction; engine decides what it means
            continue
        vec = np.concatenate([normal, [offset]]) / norm
        if any(np.abs(vec - v).max() < _CUT_DEDUPE_TOL for v in kept_vectors):
            continue
        kept_vectors.append(vec)
        kept.append(s)
    run.counts = {"scenarios_started": len(tasks),
                  "scenarios_failed": len(failures),
                  "scenarios_positive": len(positive),
                  "scenarios_kept": len(kept),
                  "lp_solves": solves, "memo_hits": hits,
                  "multiplier_steps": steps}
    return kept
