"""Heuristic worst-case oracle: many starts, alternating block maximization.

Each scenario point seeds an alternation between two LPs: multipliers at
fixed w, then w at fixed multipliers.  Both half-steps maximize the same
bilinear objective over their own block, so the value sequence is
nondecreasing and the final multiplier step leaves the reported violation
equal to the exact fixed-w dual value.

Scenario starts come from a fixed uniform sample of the initial box (drawn
once per run from the seed) plus per-iteration projections of the forecast
onto every current facet.

The scenarios of a batch move in lockstep: starts outside W are projected
first, then each round is one multiplier half-step and one w-step
half-step.  Each LP depends on one vector of farm space: w, the w-step
cost ``-alpha' A`` (delta has no part in it) or the start w0.  The oracle
holds one :class:`~drrcalc.lp.LinearProgram` per kind, built when the
region changes (the multiplier LP once per run, as its feasible set does
not depend on the region), and a solve swaps in the costs or right-hand
side that its vector gives with ``with_vectors``.  Starts converge onto
the same few region vertices, so most steps repeat an LP already solved.
Each half-step is one :meth:`IblpOracle.lookup`, which solves only the
distinct LPs missing from the oracle's memo, then every scenario moves
forward from the memo.  With N workers (``thread_count``, at most one per
core) the calling thread solves the first of N contiguous chunks of those
LPs itself, and a pool of N - 1 threads, started once per run, solves the
others, all on copies of the oracle's one LP per kind.  HiGHS releases
the GIL while it solves, so the chunks solve in parallel, each thread on
its own HiGHS instance and each solve cold (see :mod:`drrcalc.lp`);
results merge in scenario order, so the LPs built and solved, the cuts
and the output are the same for any worker count.  The memo keeps only
status, x and objective, so these LPs are read without their duals.
"""

from __future__ import annotations

import concurrent.futures
import operator
import os
from dataclasses import dataclass

import numpy as np

from .caseio import StudyConfig
from .dispatch_model import CompactPsd
from .errors import DrrError, NumericalFailure, ZeroNormal
from .lp import OPTIMAL, LinearProgram, LpSolution, solve_lp
from .maxmin_milp import DualizedMaxMin, MaxMinSolution, cut_vector
from .polytope import Polytope

_CUT_DEDUPE_TOL = 1e-6
_totals = operator.attrgetter("solves", "hits", "multiplier_steps", "projections")

# The alternation's LP kinds, solved for w, the w-step cost and the start
# w0; a kind's name begins the error text of its failures.  The LPs and memo
# entries of _REGION_KINDS last one region; the multiplier ones last the run.
MULTIPLIER = "multiplier step"
WSTEP = "w step"
PROJECTION = "projection"
_REGION_KINDS = (WSTEP, PROJECTION)


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
    sol = solve_lp(lp.with_vectors(r_in=np.concatenate([W.f, w0, -w0])),
                   duals=False)
    if sol.status != OPTIMAL:
        raise NumericalFailure("projection into the current region failed")
    return sol.x[:W.dim]


class IblpOracle:
    """The iblp oracle of one region computation; :meth:`lookup` is its
    one way to an LP outcome.

    ``entries`` is the memo: per kind, keyed by the bytes of its input,
    each LP's :class:`LpSolution` (status, read-only x, objective) or the
    DrrError that stopped it, so a hit cannot change any result.  The
    oracle holds the current region's :class:`DualizedMaxMin` and one LP
    per kind, of which every solve takes a ``with_vectors`` copy.  Only
    the calling thread writes any of them, and only between lookups: when
    the region changes, the entries and LPs of ``_REGION_KINDS`` are
    replaced.  ``workers`` is ``cfg.thread_count``, capped at the core
    count; with more than one the oracle holds the run's one pool of
    ``workers - 1`` threads: started by the first lookup with LPs to
    share, shut down by :meth:`close`.  ``solves``, ``hits``,
    ``multiplier_steps`` and ``projections`` count over the run;
    ``counts`` is the scenario accounting of the last batch.
    """

    def __init__(self, m: CompactPsd, cfg: StudyConfig):
        self.m = m
        self.cfg = cfg
        self.entries: dict[str, dict] = {MULTIPLIER: {}, WSTEP: {}, PROJECTION: {}}
        self.solves = 0           # LPs handed to the solver, projections included
        self.hits = 0
        self.multiplier_steps = 0
        self.projections = 0
        self.counts: dict[str, int] = {}
        self.workers = min(cfg.thread_count, os.cpu_count() or 1)
        self._region: tuple[bytes, bytes] | None = None
        self._dmm: DualizedMaxMin | None = None
        self._lps: dict[str, LinearProgram] = {}
        self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _enter_region(self, W: Polytope) -> None:
        """Make W the current region, unless it is already: drop the entries
        of ``_REGION_KINDS`` and build W's LPs (the multiplier LP only once)."""
        region = (W.H.tobytes(), W.f.tobytes())
        if region == self._region:
            return
        for k in _REGION_KINDS:
            self.entries[k].clear()
        self._region, self._dmm = region, DualizedMaxMin(self.m, W)
        self._lps[WSTEP] = self._dmm.w_lp_at(np.zeros(self._dmm.n_alpha))
        self._lps[PROJECTION] = _projection_lp(W)
        if MULTIPLIER not in self._lps:
            self._lps[MULTIPLIER] = self._dmm.multiplier_lp_at(np.zeros(self.m.n_w))

    def lookup(self, kind: str, W: Polytope, inputs: list) -> list:
        """The entry of every input, in input order.  The distinct inputs
        not held yet are solved in ``workers`` contiguous chunks: the
        calling thread solves the first, the pool the others."""
        self._enter_region(W)
        cache = self.entries[kind]
        keys = [v.tobytes() for v in inputs]
        missing = {key: v for key, v in zip(keys, inputs) if key not in cache}
        if missing:
            todo = list(missing.values())
            size = -(-len(todo) // self.workers)
            chunks = [todo[i:i + size] for i in range(0, len(todo), size)]
            if len(chunks) > 1 and self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.workers - 1)
            futures = [self._pool.submit(self._solve, kind, chunk)
                       for chunk in chunks[1:]]
            outs = self._solve(kind, chunks[0])
            for fut in futures:
                outs.extend(fut.result())
            cache.update(zip(missing, outs))
        self.solves += len(missing)
        self.hits += len(inputs) - len(missing)
        if kind == MULTIPLIER:
            self.multiplier_steps += len(inputs)
        elif kind == PROJECTION:
            self.projections += len(inputs)
        return [cache[key] for key in keys]

    def _solve(self, kind: str, inputs: list) -> list:
        """The entry of each input, in input order; reads the oracle and
        writes nothing of it, so pool threads may run it at once."""
        lp, dmm = self._lps[kind], self._dmm
        out = []
        for v in inputs:
            try:
                if kind == PROJECTION:
                    sol = LpSolution(OPTIMAL, _project_into(dmm.W, v, lp))
                else:
                    c = dmm.multiplier_cost(v) if kind == MULTIPLIER else v
                    sol = solve_lp(lp.with_vectors(c=c), duals=False)
                    if sol.status != OPTIMAL:
                        raise NumericalFailure(f"{kind} returned {sol.status}")
                sol.x.flags.writeable = False
                out.append(sol)
            except DrrError as exc:
                out.append(exc)
        return out

    def alternate(self, W: Polytope, starts: list) -> list:
        """Alternating maximization from every start, all in lockstep: per
        start, in start order, its solution or the DrrError that stopped it."""
        cfg, m = self.cfg, self.m
        na = m.b.size
        self._enter_region(W)
        w_cost = self._dmm.w_cost

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
                        theta=None, method="iblp",
                        diagnostics={"rounds": rounds, "sequence": sequence[i],
                                     "scenario": i})
                else:
                    F_prev[i] = F
                    going.append(i)
            active = []
            costs = [w_cost(mult[i].x[:na]) for i in going]
            for i, sol in zip(going, self.lookup(WSTEP, W, costs)):
                if isinstance(sol, DrrError):
                    out[i] = sol
                    continue
                w[i] = sol.x
                alpha, delta = mult[i].x[:na], mult[i].x[na:]
                sequence[i].append(sol.objective + float(alpha @ m.b - delta @ m.d))
                active.append(i)
        return out


def run_iblp(m: CompactPsd, W: Polytope, scenarios: ScenarioSet,
             cfg: StudyConfig, oracle: IblpOracle) -> list[MaxMinSolution]:
    """Alternate-solve every scenario; keep deduplicated positive violations.

    Failures are collected per scenario and only raised when no scenario
    succeeds.  The result order follows scenario order for any thread count.
    ``oracle`` is the run's, which carries memo and pool across its calls.
    """
    starts = scenarios.combined()
    if not starts:
        raise ValueError("scenario set is empty")
    if oracle.m is not m or oracle.cfg is not cfg:
        raise ValueError("oracle belongs to another model or configuration")

    before = _totals(oracle)
    outcomes = oracle.alternate(W, starts)
    solves, hits, steps, projected = (
        a - b for a, b in zip(_totals(oracle), before))

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
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            kept.append(s)  # degenerate direction; engine decides what it means
            continue
        vec = np.concatenate([normal, [offset]]) / norm
        if any(np.abs(vec - v).max() < _CUT_DEDUPE_TOL for v in kept_vectors):
            deduplicated += 1
            continue
        kept_vectors.append(vec)
        kept.append(s)
    oracle.counts = {"scenarios_started": len(starts),
                  "scenarios_projected": projected,
                  "scenarios_failed": len(failures),
                  "scenarios_positive": len(positive),
                  "scenarios_deduplicated": deduplicated,
                  "scenarios_kept": len(kept),
                  "lp_solves": solves, "memo_hits": hits,
                  "multiplier_steps": steps}
    return kept
