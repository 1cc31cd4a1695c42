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
half-step.  Starts converge onto the same few region vertices, so most
steps repeat an LP already solved.  For each half-step the calling process
solves only the distinct LPs missing from its one :class:`LpMemo`, then
moves every scenario forward from the memo.  With ``thread_count`` N > 1
it solves the first of N contiguous chunks of those LPs itself, and a pool
of N - 1 workers, started once per run, solves the others.  Each LP is a
fresh, cold HiGHS solve and results merge in scenario order, so the LPs
solved, the cuts and the output are the same for any worker count.
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

# The alternation's LP kinds, solved for w, the multipliers (alpha, delta)
# and the start w0; a kind's name begins the error text of its failures.
MULTIPLIER = "multiplier step"
WSTEP = "w step"
PROJECTION = "projection"


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


class _Lps:
    """The alternation's LPs on one model, in one process: the multiplier
    template (that LP does not depend on the region) and the w-step and
    projection templates of the current region."""

    def __init__(self, m: CompactPsd):
        self.m = m
        self._region: tuple[bytes, bytes] | None = None
        self._dmm = None
        self._templates: dict[str, LpTemplate] = {}

    def solve(self, kind: str, W: Polytope, inputs: list) -> list:
        """``(status, x, objective)`` of each input's LP, or the DrrError
        that stopped it, in input order."""
        region = (W.H.tobytes(), W.f.tobytes())
        if region != self._region:
            self._region, self._dmm = region, dualize(self.m, W)
            self._templates = {k: t for k, t in self._templates.items() if k == MULTIPLIER}
        out = []
        for v in inputs:
            try:
                out.append(self._solve_one(kind, W, v))
            except DrrError as exc:
                out.append(exc)
        return out

    def _solve_one(self, kind: str, W: Polytope, v: np.ndarray) -> tuple:
        dmm = self._dmm
        if kind == PROJECTION:
            if kind not in self._templates:
                self._templates[kind] = LpTemplate(_projection_lp(W))
            return OPTIMAL, _project_into(W, v, self._templates[kind]), np.nan
        if kind == MULTIPLIER:
            lp_at, cost, args = dmm.multiplier_lp_at, dmm.multiplier_cost, (v,)
        else:
            lp_at, cost, args = dmm.w_lp_at, dmm.w_cost, (v[:dmm.n_alpha], v[dmm.n_alpha:])
        if kind not in self._templates:
            self._templates[kind] = LpTemplate(lp_at(*args))
        sol = solve_lp(self._templates[kind].bind(c=cost(*args)))
        if sol.status != OPTIMAL:
            raise NumericalFailure(f"{kind} returned {sol.status}")
        return sol.status, sol.x, sol.objective


class LpMemo:
    """Outcomes of the alternation's LPs, keyed by the bytes of their input.

    The multiplier LP depends only on the model and w, so its entries hold
    for the whole run.  The w-step LP depends only on the multipliers
    (alpha, delta) and the region, the projection only on w0 and the
    region; their entries are dropped whenever the region changes.  An
    entry is an :class:`LpSolution` holding status, x (read-only) and
    objective, or the DrrError that stopped its solve, so a hit cannot
    change any result.
    """

    def __init__(self):
        self.entries: dict[str, dict] = {MULTIPLIER: {}, WSTEP: {}, PROJECTION: {}}
        self._region: tuple[bytes, bytes] | None = None
        self.solves = 0           # LPs handed to the solver, projections included
        self.hits = 0
        self.multiplier_steps = 0

    def lookup(self, kind: str, W: Polytope, inputs: list, solve) -> list:
        """The entry of every input, in input order; ``solve(kind, W, missing)``
        gives the outcomes of the distinct inputs not held yet."""
        region = (W.H.tobytes(), W.f.tobytes())
        if region != self._region:
            self.entries[WSTEP].clear()
            self.entries[PROJECTION].clear()
            self._region = region
        cache = self.entries[kind]
        missing = {v.tobytes(): v for v in inputs if v.tobytes() not in cache}
        for key, out in zip(missing, solve(kind, W, list(missing.values())) if missing else ()):
            if not isinstance(out, DrrError):
                out = LpSolution(*out)
                out.x.flags.writeable = False
            cache[key] = out
        self.solves += len(missing)
        self.hits += len(inputs) - len(missing)
        if kind == MULTIPLIER:
            self.multiplier_steps += len(inputs)
        return [cache[v.tobytes()] for v in inputs]

    def counts(self) -> tuple[int, int, int]:
        return self.solves, self.hits, self.multiplier_steps


class IblpOracle:
    """The iblp oracle of one region computation.

    It holds the run's :class:`LpMemo`, the calling process's own LPs and,
    when ``cfg.thread_count > 1``, the run's one pool of
    ``thread_count - 1`` worker processes: started by the first half-step
    with LPs to share, shut down by :meth:`close`.  ``counts`` is the
    scenario accounting of the last batch.
    """

    def __init__(self, m: CompactPsd, cfg: StudyConfig):
        self.m = m
        self.cfg = cfg
        self.memo = LpMemo()
        self.counts: dict[str, int] = {}
        self._lps = _Lps(m)
        self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def solve(self, kind: str, W: Polytope, inputs: list) -> list:
        """Outcomes of ``_Lps.solve`` over ``inputs``: this process solves the
        first of ``thread_count`` contiguous chunks, the pool the others."""
        size = -(-len(inputs) // max(1, self.cfg.thread_count))
        chunks = [inputs[i:i + size] for i in range(0, len(inputs), size)]
        if len(chunks) > 1 and self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.cfg.thread_count - 1,
                initializer=_init_worker, initargs=(self.m,))
        futures = [self._pool.submit(_solve_chunk, kind, W, chunk)
                   for chunk in chunks[1:]]
        out = self._lps.solve(kind, W, chunks[0])
        for fut in futures:
            out.extend(fut.result())
        return out

    def alternate(self, W: Polytope, starts: list) -> list:
        """Alternating maximization from every start, all in lockstep: per
        start, in start order, its solution or the DrrError that stopped it."""
        cfg, m = self.cfg, self.m
        na = m.b.size

        def lookup(kind, inputs):
            return self.memo.lookup(kind, W, inputs, self.solve)

        w = [np.asarray(w0, dtype=float) for w0 in starts]
        out: list = [None] * len(w)
        outside = [i for i, wi in enumerate(w) if not W.contains(wi, tol=1e-9)]
        for i, proj in zip(outside, lookup(PROJECTION, [w[i] for i in outside])):
            if isinstance(proj, DrrError):
                out[i] = proj
            else:
                w[i] = proj.x

        active = [i for i in range(len(w)) if out[i] is None]
        mult: list = [None] * len(w)
        sequence: list[list[float]] = [[] for _ in w]
        F_prev = [-np.inf] * len(w)
        for rounds in range(1, cfg.alt_max_rounds + 1):
            going = []
            for i, sol in zip(active, lookup(MULTIPLIER, [w[i] for i in active])):
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
            for i, sol in zip(going, lookup(WSTEP, [mult[i].x for i in going])):
                if isinstance(sol, DrrError):
                    out[i] = sol
                    continue
                w[i] = sol.x
                alpha, delta = mult[i].x[:na], mult[i].x[na:]
                sequence[i].append(sol.objective + float(alpha @ m.b - delta @ m.d))
                active.append(i)
        return out


# Set only inside a pool worker, by the pool's initializer.
_WORKER_LPS: _Lps | None = None


def _init_worker(m):
    global _WORKER_LPS
    _WORKER_LPS = _Lps(m)


def _solve_chunk(kind: str, W: Polytope, inputs: list) -> list:
    return _WORKER_LPS.solve(kind, W, inputs)


def alternate_solve(m: CompactPsd, W: Polytope, w0, cfg: StudyConfig) -> MaxMinSolution:
    """Alternating maximization from one start: a one-start batch."""
    with IblpOracle(m, cfg) as oracle:
        (sol,) = oracle.alternate(W, [w0])
    if isinstance(sol, DrrError):
        raise sol
    return sol


def run_iblp(m: CompactPsd, W: Polytope, scenarios: ScenarioSet,
             cfg: StudyConfig, oracle: IblpOracle | None = None
             ) -> list[MaxMinSolution]:
    """Alternate-solve every scenario; keep deduplicated positive violations.

    Failures are collected per scenario and only raised when no scenario
    succeeds.  The result order follows scenario order for any thread count.
    ``oracle`` carries memo and pool across the calls of one run; without
    it the call uses its own, closed on return.
    """
    starts = scenarios.combined()
    if not starts:
        raise ValueError("scenario set is empty")
    if oracle is not None and (oracle.m is not m or oracle.cfg is not cfg):
        raise ValueError("oracle belongs to another model or configuration")

    with IblpOracle(m, cfg) if oracle is None else contextlib.nullcontext(oracle) as run:
        before = run.memo.counts()
        outcomes = run.alternate(W, starts)
        solves, hits, steps = (a - b for a, b in zip(run.memo.counts(), before))

    failures = [f"scenario {idx}: {out}" for idx, out in enumerate(outcomes)
                if isinstance(out, DrrError)]
    solutions = [out for out in outcomes if not isinstance(out, DrrError)]
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
    run.counts = {"scenarios_started": len(starts),
                  "scenarios_failed": len(failures),
                  "scenarios_positive": len(positive),
                  "scenarios_kept": len(kept),
                  "lp_solves": solves, "memo_hits": hits,
                  "multiplier_steps": steps}
    return kept
