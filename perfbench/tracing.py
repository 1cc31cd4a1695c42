"""Spans and counts recorded around the calls into each drrcalc layer.

Tracing lives in the benchmark, not in the program: :class:`Tracer` swaps
each traced name for a wrapper while it is installed and puts the original
back on exit.  Modules bind ``solve_lp`` at import time, so the name is
wrapped in every importing module and the span carries that module as the
call site.  ``lp.solve_lp`` itself is not wrapped, so the LP it runs
inside another solve (the elastic Farkas solve) counts once, under its
parent.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
by the caller when the run ends.  Pool workers run outside this process,
so their spans are not seen here.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import importlib
import time
from collections import Counter

# Modules that call solve_lp and are reported per site.  mip's own
# solve_lp (LP relaxations of the internal backend) counts in the totals.
LP_SITES = ("maxmin_iblp", "polytope", "binding", "dispatch_model", "analysis")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct_w: set[bytes] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    # --- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around ``owner.attr``; skip names a layer dropped."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def __enter__(self):
        from drrcalc import (analysis, binding, engine, lp, maxmin_iblp,
                             maxmin_milp, mip)
        for site in (*LP_SITES, "mip"):
            self.wrap(importlib.import_module(f"drrcalc.{site}"), "solve_lp",
                      f"lp@{site}")
        self.wrap(lp, "linprog", "lp.highs")
        self.wrap(mip, "milp", "mip.highs")

        self.wrap(engine, "run", "engine.run")
        self.wrap(engine, "initial_dispatch", "dispatch_model.initial_dispatch")
        self.wrap(engine, "build_compact", "dispatch_model.build_compact")
        self.wrap(engine, "solve_maxmin_milp", "maxmin_milp.oracle")
        self.wrap(engine, "make_scenarios", "maxmin_iblp.make_scenarios")
        self.wrap(engine, "run_iblp", "maxmin_iblp.oracle",
                  after=self._count_scenarios)
        self.wrap(engine, "remove_redundant", "polytope.remove_redundant")

        self.wrap(maxmin_milp, "solve_mip", "mip.solve_mip",
                  after=self._count_nodes)
        self.wrap(maxmin_milp, "build_kkt_mip", "maxmin_milp.build_kkt_mip")
        dmm = getattr(maxmin_milp, "DualizedMaxMin", None)
        if dmm is not None:
            self.wrap(dmm, "multiplier_lp_at", "maxmin_iblp.multiplier_lp_at",
                      after=self._record_w)
            self.wrap(dmm, "w_lp_at", "maxmin_iblp.w_lp_at")
        self.wrap(maxmin_iblp, "_project_into", "maxmin_iblp.project_into")

        self.wrap(binding, "identify", "binding.identify")
        self.wrap(binding, "feasibility_model", "dispatch_model.feasibility_model")
        self.wrap(analysis, "high_risk_event", "analysis.high_risk_event")
        self.wrap(analysis, "export_artifacts", "analysis.export_artifacts")
        self._wrap_pool()
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_pool(self) -> None:
        """Count pools and time their fixed cost: construction, the first
        submit (which starts the workers) and shutdown."""
        base = concurrent.futures.ProcessPoolExecutor
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                t0 = time.perf_counter()
                super().__init__(*args, **kwargs)
                self._bench_started = False
                tracer.counts["pool_starts"] += 1
                tracer.counts["pool_start_s"] += time.perf_counter() - t0

            def submit(self, *args, **kwargs):
                if self._bench_started:
                    return super().submit(*args, **kwargs)
                self._bench_started = True
                t0 = time.perf_counter()
                fut = super().submit(*args, **kwargs)
                tracer.counts["pool_start_s"] += time.perf_counter() - t0
                return fut

            def shutdown(self, *args, **kwargs):
                t0 = time.perf_counter()
                super().shutdown(*args, **kwargs)
                tracer.counts["pool_start_s"] += time.perf_counter() - t0

        concurrent.futures.ProcessPoolExecutor = TracedPool
        self._patches.append((concurrent.futures, "ProcessPoolExecutor", base))

    # --- counts at the same boundaries -------------------------------------

    def _count_scenarios(self, args, kept) -> None:
        self.counts["scenarios_started"] += len(args[2].combined())
        self.counts["scenarios_kept"] += len(kept)

    def _count_nodes(self, args, res) -> None:
        self.counts["mip_nodes"] += int(res.nodes)

    def _record_w(self, args, lp) -> None:
        import numpy as np
        self.distinct_w.add(np.asarray(args[1], dtype=float).tobytes())

    # --- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def dump(self) -> list[dict]:
        return [{"name": n, "start": t0, "end": t1, "parent": p}
                for n, t0, t1, p in self.spans]
