"""The measuring process: repeats one workload's workflow and prints a JSON
summary as its last line.  ``run.py`` starts it; it is not meant to be run
by hand.

    python3 perfbench/work.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times reps until ``--seconds`` is used up.  With
``--trace 1`` it makes one untraced and one traced rep and reports the
per-layer numbers.  Every rep's region.json and binding.json are checked
against ``refs.json``; a rep that raises, times out, does not converge or
writes other bytes counts as failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import signal
import statistics
import tempfile
import time
import traceback
from pathlib import Path

from tracing import LP_SITES, Tracer
from workloads import (REF_SEEDS, REFS_FILE, ROOT, WORKLOADS, import_drrcalc,
                       load_case, run_workflow)

REP_TIMEOUT_S = 60
OUT = ROOT / ".bench_out"


class RepTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RepTimeout(f"rep exceeded {REP_TIMEOUT_S} s")


class Runner:
    """Runs reps of one workload and keeps the failure accounting."""

    def __init__(self, drrcalc, workload, refs: dict):
        self.drrcalc = drrcalc
        self.w = workload
        self.refs = refs
        self.case = load_case(drrcalc, workload.case)
        self.attempted = 0
        self.errors: list[str] = []

    def rep(self, seed: int, workers: int | None = None):
        """One checked workflow; returns its result, or None if it failed."""
        self.attempted += 1
        signal.alarm(REP_TIMEOUT_S)
        try:
            with tempfile.TemporaryDirectory(dir=OUT) as out:
                r = run_workflow(self.drrcalc, self.case, self.w.method, seed,
                                 workers or self.w.workers, Path(out))
        except Exception:  # any failure of the program is a failed rep
            self.errors.append(f"seed {seed}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            signal.alarm(0)
        want = self.refs[str(seed)]
        got = {"region.json": r.region_sha, "binding.json": r.binding_sha}
        if r.termination != "Converged" or got != want:
            self.errors.append(f"seed {seed}: {r.termination}, "
                               f"hashes {got} != reference {want}")
            return None
        return r


def percentile_tail(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None,
           "samples": values}
    if n > 10:
        out[f"p{100 * (n - 10) / n:.0f}"] = xs[n - 11]
    return out


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest (reaped) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def timed(runner: Runner, seed: int, seconds: float) -> dict:
    region, workflow, seeds = [], [], []
    t_start = time.perf_counter()
    for j in itertools.count():
        s = (seed + j) % REF_SEEDS
        t0 = time.perf_counter()
        r = runner.rep(s)
        seeds.append(s)
        if r is not None:
            region.append(r.region_s)
            workflow.append(r.workflow_s)
        # Start another rep only if a typical one still ends in the window.
        typical = statistics.median(workflow) if workflow else time.perf_counter() - t0
        if time.perf_counter() - t_start + typical > seconds:
            break
    metrics = {}
    if workflow:
        metrics = {"workflow_s": statistics.median(workflow),
                   "region_s": statistics.median(region)}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {"metrics": metrics, "seeds": seeds,
            "timings": {"workflow_s": percentile_tail(workflow),
                        "region_s": percentile_tail(region)}}


def traced_rep(runner: Runner, seed: int, workers: int | None = None):
    tracer = Tracer()
    with tracer:
        with tracer.span("caseio.load"):
            load_case(runner.drrcalc, runner.w.case)
        with tracer.span("workflow"):
            r = runner.rep(seed, workers)
    return r, tracer


def layer_metrics(tracer: Tracer, r, lp_tracer: Tracer | None = None) -> dict:
    """Per-layer numbers of one traced rep.

    ``lp_tracer`` is a 1-worker traced rep of the same inputs; it supplies
    the LP and multiplier numbers when ``tracer``'s scenarios ran in pool
    workers, whose calls this process cannot see.
    """
    lp_tracer = lp_tracer or tracer
    tot, lp_tot = tracer.totals(), lp_tracer.totals()

    def calls(name, t=tot):
        return t.get(name, (0, 0.0, 0.0))[0]

    def secs(name, t=tot):
        return t.get(name, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for site in LP_SITES:
        n, s = calls(f"lp@{site}", lp_tot), secs(f"lp@{site}", lp_tot)
        m[f"lp.calls.{site}"] = n
        m[f"lp.s.{site}"] = s
        m[f"lp.ms_per_call.{site}"] = ratio(1e3 * s, n)
    lp_calls = sum(v[0] for k, v in lp_tot.items() if k.startswith("lp@"))
    lp_s = sum(v[1] for k, v in lp_tot.items() if k.startswith("lp@"))
    m["lp.calls"] = lp_calls
    m["lp.s"] = lp_s
    m["lp.ms_per_call"] = ratio(1e3 * lp_s, lp_calls)
    m["lp.highs_s"] = secs("lp.highs", lp_tot)
    m["lp.wrapper_s"] = lp_s - m["lp.highs_s"]

    mult = calls("maxmin_iblp.multiplier_lp_at", lp_tot)
    started = tracer.counts["scenarios_started"]
    kept = tracer.counts["scenarios_kept"]
    m.update({
        "maxmin_iblp.oracle_s": secs("maxmin_iblp.oracle"),
        "maxmin_iblp.multiplier_calls": mult,
        "maxmin_iblp.multiplier_repeat_share":
            ratio(mult - len(lp_tracer.distinct_w), mult),
        "maxmin_iblp.wstep_calls": calls("maxmin_iblp.w_lp_at", lp_tot),
        "maxmin_iblp.projection_calls":
            calls("maxmin_iblp.project_into", lp_tot),
        "maxmin_iblp.scenarios_started": started,
        "maxmin_iblp.scenarios_kept": kept,
        "maxmin_iblp.scenario_yield": ratio(kept, started),
        "maxmin_iblp.pool_starts": tracer.counts["pool_starts"],
        "maxmin_iblp.pool_start_s": float(tracer.counts["pool_start_s"]),
        "maxmin_iblp.parallel_efficiency": 0.0,
        "mip.calls": calls("mip.solve_mip"),
        "mip.s": secs("mip.solve_mip"),
        "mip.highs_s": secs("mip.highs"),
        "mip.nodes": tracer.counts["mip_nodes"],
        "maxmin_milp.oracle_s": secs("maxmin_milp.oracle"),
        "maxmin_milp.bigm_escalations":
            calls("maxmin_milp.build_kkt_mip") - calls("maxmin_milp.oracle"),
        "maxmin_milp.bigm_margin_min": min(r.big_m_margins, default=0.0),
        "polytope.prune_calls": calls("polytope.remove_redundant"),
        "polytope.prune_s": secs("polytope.remove_redundant"),
        "polytope.prune_lp_calls": calls("lp@polytope", lp_tot),
        "engine.iterations": r.iterations,
        "engine.cuts": r.cuts,
        "engine.facets": r.facets,
        "engine.self_s": tot.get("engine.run", (0, 0.0, 0.0))[2],
        "dispatch_model.initial_dispatch_s":
            secs("dispatch_model.initial_dispatch"),
        "dispatch_model.build_compact_s": secs("dispatch_model.build_compact"),
        "dispatch_model.feasibility_calls":
            calls("dispatch_model.feasibility_model"),
        "dispatch_model.feasibility_s":
            secs("dispatch_model.feasibility_model"),
        "binding.identify_s": secs("binding.identify"),
        "binding.terminal_lp_calls": calls("lp@binding", lp_tot),
        "analysis.event_s": secs("analysis.high_risk_event"),
        "analysis.event_lp_calls": calls("lp@analysis", lp_tot),
        "analysis.export_s": secs("analysis.export_artifacts"),
        "analysis.export_bytes": r.export_bytes,
        "caseio.load_s": secs("caseio.load"),
    })
    return m


def traced(runner: Runner, seed: int) -> dict:
    """Per-layer metrics from traced reps, plus the tracing overhead."""
    untraced = runner.rep(seed)
    r, tracer = traced_rep(runner, seed)
    lp_r, lp_tracer, notes = r, None, []
    if runner.w.workers > 1:
        lp_r, lp_tracer = traced_rep(runner, seed, workers=1)
        notes.append("lp.*, multiplier, w-step and projection counts come from "
                     "the same inputs traced at 1 worker: pool workers' calls "
                     "are not visible to the parent")
    if r is None or lp_r is None or untraced is None:
        return {"metrics": {}, "notes": notes, "spans": []}
    m = layer_metrics(tracer, r, lp_tracer)
    if lp_tracer is not None:
        serial = lp_tracer.totals().get("maxmin_iblp.oracle", (0, 0.0))[1]
        parallel = runner.w.workers * m["maxmin_iblp.oracle_s"]
        m["maxmin_iblp.parallel_efficiency"] = serial / parallel if parallel else 0.0
    m["trace.overhead_s"] = r.workflow_s - untraced.workflow_s
    self_s = sorted(((k, v[2]) for k, v in tracer.totals().items()),
                    key=lambda kv: -kv[1])
    return {"metrics": m, "notes": notes, "self_s": self_s,
            "spans": tracer.dump()}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    drrcalc = import_drrcalc()
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    # Lazy imports and first-call set-up happen here, outside the timing.
    with tempfile.TemporaryDirectory(dir=OUT) as out:
        run_workflow(drrcalc, load_case(drrcalc, "case5_wind"), "milp", 0, 1,
                     Path(out))

    refs = json.loads(REFS_FILE.read_text())[w.ref_key]
    runner = Runner(drrcalc, w, refs)
    seed = args.seed % REF_SEEDS
    body = traced(runner, seed) if args.trace else timed(runner, seed, args.seconds)
    import numpy
    import scipy
    body.update(attempted=runner.attempted, failed=len(runner.errors),
                errors=runner.errors,
                meta={"numpy": numpy.__version__, "scipy": scipy.__version__})
    if args.trace:
        spans = OUT / f"spans-{w.name}-{args.seed}.json"
        spans.write_text(json.dumps(body.pop("spans")))
        body["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(body))


if __name__ == "__main__":
    main()
