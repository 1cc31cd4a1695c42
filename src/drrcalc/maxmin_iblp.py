"""Heuristic worst-case oracle: many starts, alternating block maximization.

Each scenario point seeds an alternation between two LPs: multipliers at
fixed w, then w at fixed multipliers.  Both half-steps maximize the same
bilinear objective over their own block, so the value sequence is
nondecreasing and the final multiplier step leaves the reported violation
equal to the exact fixed-w dual value.

Scenario starts come from a uniform sample of the capacity box (the same
sample every iteration, drawn from the seed) plus per-iteration projections
of the forecast onto every current facet.

The scenarios of a batch move in lockstep: starts outside W are projected
first, then each round is one multiplier half-step and one w-step
half-step.  Each LP depends on one vector of farm space: w, the w-step
cost ``-alpha' A`` (delta has no part in it) or the start w0.  The oracle
holds one :class:`~drrcalc.lp.LinearProgram` per kind: the multiplier LP,
a function of the model alone, is built with the oracle, and the w-step
and projection LPs each time the region changes.  A solve swaps in the
costs or right-hand side that its vector gives with ``with_vectors``.
Starts converge onto the same few region vertices, so most steps repeat
an LP already solved.  Each half-step is one :meth:`IblpOracle.lookup`,
which solves only the distinct LPs missing from the oracle's memo.  The
oracle owns its run's worker threads: it enters
:func:`~drrcalc.lp.worker_map` of ``thread_count`` for its ``with``
block, and each thread solves whole LPs, one distinct input at a time,
on its own HiGHS instance and cold (see :mod:`drrcalc.lp`).  With N >= 2
workers (at most one per core) a pool of N threads solves in parallel
while the calling thread waits, as HiGHS releases the GIL; with N = 1 the
calling thread solves alone.
Results come back in input order, so the LPs built and solved, the cuts
and the output are the same for any N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .caseio import StudyConfig
from .dispatch_model import CompactPsd
from .errors import DrrError, NumericalFailure
from .lp import OPTIMAL, LinearProgram, LpSolution, solve_lp, worker_map
from .maxmin_milp import (MaxMinSolution, cut_vector, multiplier_cost,
                          multiplier_lp, w_cost)
from .polytope import Polytope

_CUT_DEDUPE_TOL = 1e-6

# The alternation's LP kinds, solved for w, the w-step cost and the start
# w0; a kind's name begins the error text of its failures.  The LPs and memo
# entries of _REGION_KINDS last one region; the multiplier ones last the run.
MULTIPLIER = "multiplier step"
WSTEP = "w step"
PROJECTION = "projection"
_REGION_KINDS = (WSTEP, PROJECTION)

# A batch's lookup counters; multiplier and projection inputs count apart.
_INPUT_COUNTERS = {MULTIPLIER: "multiplier_steps", PROJECTION: "scenarios_projected"}
_LOOKUP_COUNTERS = ("lp_solves", "memo_hits", *_INPUT_COUNTERS.values())


@dataclass(frozen=True)
class ScenarioSet:
    s1: tuple[np.ndarray, ...]
    s2: tuple[np.ndarray, ...]

    def combined(self) -> list[np.ndarray]:
        return list(self.s1) + list(self.s2)


def gen_s1(caps: np.ndarray, n: int, seed: int) -> list[np.ndarray]:
    """Uniform per-coordinate sample of the capacity box [0, caps]; the
    same for a given seed."""
    lo, hi = np.zeros(caps.size), caps
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, caps.size))
    return [lo + p * (hi - lo) for p in pts]


def gen_s2(W: Polytope, w_bar) -> list[np.ndarray]:
    """Projection of the forecast onto each facet hyperplane of W."""
    w_bar = np.asarray(w_bar, dtype=float)
    pts = []
    for i in range(W.n_facets):
        h = W.H[i]
        hh = float(h @ h)  # 1 to rounding: Polytope rows are unit-norm
        pts.append(w_bar - ((h @ w_bar - W.f[i]) / hh) * h)
    return pts


def make_scenarios(caps: np.ndarray, W: Polytope, w_bar, cfg: StudyConfig) -> ScenarioSet:
    return ScenarioSet(s1=tuple(gen_s1(caps, cfg.s1_count, cfg.seed)),
                       s2=tuple(gen_s2(W, w_bar)))


def _wstep_lp(m: CompactPsd, W: Polytope) -> LinearProgram:
    """LP over w in W and the capacity box; swap in ``c = w_cost(m, alpha)``
    to step w at the multipliers alpha."""
    return LinearProgram(c=np.zeros(m.n_w), sense="max", M_in=W.H, r_in=W.f,
                         lb=np.zeros(m.n_w), ub=m.farm_capacity_pu)


def _projection_lp(W: Polytope) -> LinearProgram:
    """1-norm projection onto W as an LP over (w, t); swap in
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


def _project_into(W: Polytope, w0: np.ndarray, lp: LinearProgram) -> np.ndarray:
    """1-norm projection of w0 onto W (an LP, deterministic); ``lp`` is
    ``_projection_lp(W)``, whose matrix every projection shares."""
    sol = solve_lp(lp.with_vectors(r_in=np.concatenate([W.f, w0, -w0])))
    if sol.status != OPTIMAL:
        raise NumericalFailure("projection into the current region failed")
    return sol.x[:W.dim]


class IblpOracle:
    """The iblp oracle of one region computation; :meth:`lookup` is its
    one way to an LP outcome.

    ``entries`` is the memo: per kind, keyed by the bytes of its input,
    each LP's :class:`LpSolution` (status, read-only x, objective) or the
    DrrError that stopped it, so a hit cannot change any result.  The
    oracle holds the current region and one LP per kind, of which every
    solve takes a ``with_vectors`` copy.  The multiplier LP is built with
    the oracle; the LPs of ``_REGION_KINDS`` and their entries are replaced
    when the region changes.  Only the calling thread writes any of them,
    and only between lookups.  The oracle's ``with`` block holds the run's
    :func:`~drrcalc.lp.worker_map` of ``cfg.thread_count``, onto which
    every lookup maps its missing inputs.  ``counts`` is the last batch's
    accounting.
    """

    def __init__(self, m: CompactPsd, cfg: StudyConfig):
        self.m = m
        self.cfg = cfg
        self.entries: dict[str, dict] = {MULTIPLIER: {}, WSTEP: {}, PROJECTION: {}}
        self.counts: dict[str, int] = dict.fromkeys(_LOOKUP_COUNTERS, 0)
        self._region: tuple[bytes, bytes] | None = None
        self._W: Polytope | None = None
        self._lps = {MULTIPLIER: multiplier_lp(m, np.zeros(m.n_w))}

    def __enter__(self):
        self._workers = worker_map(self.cfg.thread_count)
        self._map = self._workers.__enter__()
        return self

    def __exit__(self, *exc):
        return self._workers.__exit__(*exc)

    def _enter_region(self, W: Polytope) -> None:
        """Make W the current region, unless it is already: drop the entries
        of ``_REGION_KINDS`` and build W's LPs."""
        region = (W.H.tobytes(), W.f.tobytes())
        if region == self._region:
            return
        for k in _REGION_KINDS:
            self.entries[k].clear()
        self._region, self._W = region, W
        self._lps[WSTEP] = _wstep_lp(self.m, W)
        self._lps[PROJECTION] = _projection_lp(W)

    def lookup(self, kind: str, W: Polytope, inputs: list) -> list:
        """The entry of every input, in input order.  The distinct inputs
        not held yet are mapped onto the oracle's workers."""
        self._enter_region(W)
        cache = self.entries[kind]
        keys = [v.tobytes() for v in inputs]
        missing = {key: v for key, v in zip(keys, inputs) if key not in cache}
        if missing:
            cache.update(zip(missing, self._map(partial(self._solve, kind),
                                                missing.values())))
        self.counts["lp_solves"] += len(missing)
        self.counts["memo_hits"] += len(inputs) - len(missing)
        if kind in _INPUT_COUNTERS:
            self.counts[_INPUT_COUNTERS[kind]] += len(inputs)
        return [cache[key] for key in keys]

    def _solve(self, kind: str, v: np.ndarray):
        """The entry of one input; it only reads the oracle, so threads share it."""
        lp = self._lps[kind]
        try:
            if kind == PROJECTION:
                sol = LpSolution(OPTIMAL, _project_into(self._W, v, lp))
            else:
                c = multiplier_cost(self.m, v) if kind == MULTIPLIER else v
                sol = solve_lp(lp.with_vectors(c=c))
                if sol.status != OPTIMAL:
                    raise NumericalFailure(f"{kind} returned {sol.status}")
        except DrrError as exc:
            return exc
        sol.x.flags.writeable = False
        return sol

    def alternate(self, W: Polytope, starts: list) -> list:
        """Alternating maximization from every start, all in lockstep: per
        start, in start order, its solution or the DrrError that stopped it.
        Starts the batch's ``counts`` afresh."""
        cfg, m = self.cfg, self.m
        na = m.b.size
        self.counts = dict.fromkeys(_LOOKUP_COUNTERS, 0)

        w = [np.asarray(w0, dtype=float) for w0 in starts]
        out: list = [None] * len(w)
        outside = [i for i, wi in enumerate(w) if not W.contains(wi, tol=1e-9)]
        for i, proj in zip(outside, self.lookup(PROJECTION, W, [w[i] for i in outside])):
            if isinstance(proj, DrrError):
                out[i] = proj
            else:
                w[i] = proj.x

        active = [i for i in range(len(w)) if out[i] is None]
        mult: list = [None] * len(w)
        sequence: list[list[float]] = [[] for _ in w]
        F_prev = [-np.inf] * len(w)
        for rounds in range(1, cfg.alt_max_rounds + 1):
            if not active:
                break
            going = []
            for i, sol in zip(active, self.lookup(MULTIPLIER, W, [w[i] for i in active])):
                if isinstance(sol, DrrError):
                    out[i] = sol
                    continue
                mult[i], F = sol, sol.objective
                sequence[i].append(F)
                if F - F_prev[i] <= cfg.eps_alt or rounds == cfg.alt_max_rounds:
                    # Always stop on a multiplier step.
                    out[i] = MaxMinSolution(
                        F=float(F), w_star=w[i], alpha=sol.x[:na], delta=sol.x[na:],
                        diagnostics={"rounds": rounds, "sequence": sequence[i],
                                     "scenario": i})
                else:
                    F_prev[i] = F
                    going.append(i)
            active = []
            costs = [w_cost(m, mult[i].x[:na]) for i in going]
            for i, sol in zip(going, self.lookup(WSTEP, W, costs)):
                if isinstance(sol, DrrError):
                    out[i] = sol
                    continue
                w[i] = sol.x
                alpha, delta = mult[i].x[:na], mult[i].x[na:]
                sequence[i].append(sol.objective + float(alpha @ m.b - delta @ m.d))
                active.append(i)
        return out


def run_iblp(oracle: IblpOracle, W: Polytope,
             scenarios: ScenarioSet) -> list[MaxMinSolution]:
    """Alternate-solve every scenario; keep deduplicated positive violations.

    Failures are collected per scenario and only raised when no scenario
    succeeds; a positive violation whose cut has no direction raises
    :class:`DegenerateCut`.  The result order follows scenario order for
    any thread count.
    ``oracle`` is the run's: its model, settings, memo and workers.
    """
    m, cfg = oracle.m, oracle.cfg
    starts = scenarios.combined()
    if not starts:
        raise ValueError("scenario set is empty")

    outcomes = oracle.alternate(W, starts)
    failures = [f"scenario {idx}: {out}" for idx, out in enumerate(outcomes)
                if isinstance(out, DrrError)]
    solutions = [out for out in outcomes if not isinstance(out, DrrError)]
    if not solutions:
        raise NumericalFailure(
            "all scenarios failed: " + "; ".join(failures[:5]))

    positive = [s for s in solutions if s.F > cfg.eps_term]
    kept: list[MaxMinSolution] = []
    kept_vectors: list[np.ndarray] = []
    deduplicated = 0
    for s in positive:
        normal, offset = cut_vector(s, m)
        vec = np.append(normal, offset)
        if any(np.abs(vec - v).max() < _CUT_DEDUPE_TOL for v in kept_vectors):
            deduplicated += 1
            continue
        kept_vectors.append(vec)
        kept.append(s)
    lookups = oracle.counts
    oracle.counts = {"scenarios_started": len(starts),
                     "scenarios_projected": lookups.pop("scenarios_projected"),
                     "scenarios_failed": len(failures),
                     "scenarios_positive": len(positive),
                     "scenarios_deduplicated": deduplicated,
                     "scenarios_kept": len(kept),
                     **lookups}
    return kept
