"""Command-line workflow: compute, binding, validate, bench.

Exit codes are frozen for CI use: 0 converged, 1 any error, 2 empty region,
3 iteration cap.  Every run writes ``manifest.json`` into the output
directory (input hashes, resolved settings, artifact list, phase timings,
per-iteration oracle counters), success or failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, binding, engine
from .caseio import (StudyConfig, apply_renewables, load_config_file,
                     load_renewables_file, parse_matpower_file)
from .dispatch_model import build_compact, build_ptdf, feasibility_model, initial_dispatch
from .errors import AmbiguousFacet, DrrError
from .lp import solve_lp
from .maxmin_milp import DualizedMaxMin
from .polytope import FacetProvenance, Polytope

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY = 2
EXIT_MAXITER = 3

_TERMINATION_EXIT = {
    engine.CONVERGED: EXIT_OK,
    engine.EMPTY_REGION: EXIT_EMPTY,
    engine.MAX_ITERATIONS: EXIT_MAXITER,
}

# Per-iteration oracle counters written to the manifest's "oracle" list:
# iblp's scenario and LP accounting, milp's node count and big-M margin.
# The iblp ones vary with the worker count, so they stay out of region.json,
# binding.json and trace.csv.
_ORACLE_COUNTERS = ("scenarios_started", "scenarios_projected",
                    "scenarios_failed", "scenarios_positive",
                    "scenarios_deduplicated", "scenarios_kept", "lp_solves",
                    "memo_hits", "multiplier_steps", "mip_nodes", "big_m_margin")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _resolve_config(args) -> StudyConfig:
    cfg = load_config_file(args.config) if args.config else StudyConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    threads = args.threads
    if threads is None:
        env = os.environ.get("DRR_THREADS")
        if env is not None:
            threads = int(env)
    if threads is None:
        method = getattr(args, "method", "milp")
        threads = os.cpu_count() or 1 if method == "iblp" else 1
    cfg.thread_count = max(1, threads)
    return cfg


def _load_case(args):
    raw = parse_matpower_file(args.case)
    specs = load_renewables_file(args.renewables) if args.renewables else []
    return apply_renewables(raw, specs)


def cmd_compute(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": "compute",
        "exit_status": EXIT_ERROR,
        "inputs": {},
        "artifacts": [],
        "phase_seconds": {},
    }
    t_all = time.perf_counter()
    try:
        for p in (args.case, args.renewables, args.config):
            if p:
                manifest["inputs"][str(p)] = _sha256(Path(p))
        cfg = _resolve_config(args)
        if args.method == "milp" and cfg.thread_count > 1:
            print("note: the exact oracle is serial; --threads ignored for milp")
        manifest["config"] = analysis._jsonable(dataclasses.asdict(cfg))
        case = _load_case(args)

        t0 = time.perf_counter()
        result = engine.run(case, cfg, method=args.method)
        manifest["phase_seconds"]["compute"] = time.perf_counter() - t0

        w_bar_pu = np.array(case.forecast_mw) / case.base_mva
        t0 = time.perf_counter()
        report = binding.identify(result.model, result.region, w_bar_pu, cfg,
                                  allow_unresolved=True)
        event = analysis.high_risk_event(result.region, w_bar_pu,
                                         base_mva=case.base_mva)
        manifest["phase_seconds"]["analysis"] = time.perf_counter() - t0

        frag = analysis.export_artifacts(result, report, event, out,
                                         w_bar_mw=np.array(case.forecast_mw))
        manifest["artifacts"] = sorted(frag["files"].values())
        manifest["notes"] = frag["notes"]
        manifest["iterations"] = result.iterations
        manifest["termination"] = result.termination
        manifest["oracle"] = analysis._jsonable([
            {"k": rec.k, **{key: rec.oracle_diag[key] for key in _ORACLE_COUNTERS
                            if key in rec.oracle_diag}}
            for rec in result.trace])
        m = result.model
        manifest["model"] = {
            "equality_rows": int(m.b.size),
            "inequality_rows": int(m.d.size),
            "angle_spread_rows": sum(
                1 for r in m.in_rows if r.kind.startswith("AngleDiff")),
            "farms": int(m.n_w),
            "flexible_units": int(m.n_p),
        }
        if args.verbose:
            for rec in result.trace:
                print(json.dumps(analysis._jsonable({
                    "k": rec.k, "F_pu": rec.F, "cuts": rec.cuts_added,
                    "oracle_ms": round(rec.oracle_ms, 3),
                    "w_star": None if rec.w_star is None else list(rec.w_star),
                    **rec.oracle_diag})))
        print(f"{result.termination} after {result.iterations} iterations; "
              f"artifacts in {out}")
        manifest["exit_status"] = _TERMINATION_EXIT[result.termination]
        return manifest["exit_status"]
    except DrrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        manifest["phase_seconds"]["total"] = time.perf_counter() - t_all
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def _region_from_json(path: Path, base_mva: float) -> Polytope:
    data = json.loads(path.read_text())
    H = np.array(data["H"], dtype=float)
    f = np.array(data["f_mw"], dtype=float) / base_mva
    tags = tuple(FacetProvenance(**p) for p in data["provenance"])
    return Polytope(H=H, f=f, provenance=tags)


def cmd_binding(args) -> int:
    try:
        cfg = _resolve_config(args)
        case = _load_case(args)
        dp = initial_dispatch(case, cfg)
        m = build_compact(case, dp)
        if args.region:
            W = _region_from_json(Path(args.region), case.base_mva)
        else:
            result = engine.run(case, cfg, method=args.method)
            W = result.region
            m = result.model
        w_bar_pu = np.array(case.forecast_mw) / case.base_mva
        report = binding.identify(m, W, w_bar_pu, cfg,
                                  allow_unresolved=args.allow_ambiguous)
        print(report.table())
        outdir = Path(args.out) if args.out else Path.cwd()
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "binding.json").write_text(
            json.dumps(analysis._jsonable(report.to_json()),
                       indent=1, sort_keys=True) + "\n")
        return EXIT_OK
    except AmbiguousFacet as exc:
        print(f"error: {exc} (pass --allow-ambiguous to report anyway)",
              file=sys.stderr)
        return EXIT_ERROR
    except DrrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def cmd_validate(args) -> int:
    try:
        cfg = _resolve_config(args)
        case = _load_case(args)
        checks: list[tuple[str, bool, str]] = []

        dp = initial_dispatch(case, cfg)
        m = build_compact(case, dp)
        ptdf = build_ptdf(case)
        n_b, n_l = m.n_v, m.n_l
        Cbal, Dflow = m.C[:n_b, :], m.D[n_b:n_b + n_l, :]
        Bb = Cbal @ Dflow
        rng = np.random.default_rng(cfg.seed)
        worst = 0.0
        for _ in range(10):
            inj = rng.normal(size=n_b)
            inj -= inj.mean()
            theta = np.linalg.pinv(Bb) @ inj
            worst = max(worst, float(np.abs(-(Dflow @ theta)
                                            - ptdf.matrix @ inj).max(initial=0.0)))
        checks.append(("ptdf_angle_equivalence", worst <= 1e-9,
                       f"max flow deviation {worst:.2e} pu"))

        w_bar = np.array(case.forecast_mw) / case.base_mva
        feas0 = feasibility_model(m, w_bar).objective
        checks.append(("forecast_dispatchable", feas0 <= cfg.eps_slack,
                       f"violation {feas0:.2e} pu"))

        W0 = engine.init_w0(case)
        dmm = DualizedMaxMin(m, W0)
        lo, hi = W0.box_bounds()
        gap = 0.0
        for _ in range(10):
            w = rng.uniform(lo, hi)
            dual = solve_lp(dmm.multiplier_lp_at(w)).objective
            feas = feasibility_model(m, w).objective
            gap = max(gap, abs(dual - feas))
        checks.append(("strong_duality", gap <= cfg.eps_dual,
                       f"max gap {gap:.2e} pu"))

        if args.w is not None:
            w = np.array([float(v) for v in args.w.split(",")]) / case.base_mva
            res = feasibility_model(m, w)
            print(f"w = {args.w} MW: violation {res.objective_mw:.6f} MW")
            for label, slack in sorted(res.slacks.items()):
                print(f"  {label}: {slack * case.base_mva:.6f} MW")

        ok = True
        for name, passed, detail in checks:
            print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
            ok &= passed
        return EXIT_OK if ok else EXIT_ERROR
    except DrrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _bench_child(case_path, rens_path, method, threads, seed, queue):
    os.setpgrp()  # so that a timeout can kill the iblp pool workers too
    args = argparse.Namespace(case=case_path, renewables=rens_path,
                              config=None, seed=seed, threads=threads,
                              method=method)
    cfg = _resolve_config(args)
    case = _load_case(args)
    t0 = time.perf_counter()
    result = engine.run(case, cfg, method=method)
    queue.put((time.perf_counter() - t0, result.iterations))


def _bench_cell(case_path, rens_path, method, threads, seed, reps, timeout):
    times, iters = [], []
    for _ in range(reps):
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_bench_child,
                           args=(case_path, rens_path, method, threads, seed, queue))
        proc.start()
        try:
            proc.join(timeout)
        finally:
            # A timeout or an interrupt kills the child's whole process
            # group: its pool workers would otherwise outlive it, blocked
            # on a pipe they hold open themselves.
            timed_out = proc.is_alive()
            if timed_out:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:  # the child had no group yet
                    proc.kill()
                proc.join()
        if timed_out:
            return None, None
        if proc.exitcode != 0 or queue.empty():
            return None, None
        dt, it = queue.get()
        times.append(dt)
        iters.append(it)
    return statistics.median(times), int(statistics.median(iters))


def cmd_bench(args) -> int:
    rows = ["case,method,threads,median_seconds,iterations"]
    mt_threads = args.threads or os.cpu_count() or 1
    for spec in args.cases:
        case_path, _, rens_path = spec.partition(":")
        name = Path(case_path).stem
        for method, threads in (("milp", 1), ("iblp", 1), ("iblp", mt_threads)):
            label = {("milp", 1): "milp",
                     ("iblp", 1): "iblp-st"}.get((method, threads), "iblp-mt")
            med, iters = _bench_cell(case_path, rens_path or None, method,
                                     threads, args.seed or 0, args.reps,
                                     args.timeout)
            cell = "-" if med is None else f"{med:.3f}"
            icell = "-" if iters is None else str(iters)
            rows.append(f"{name},{label},{threads},{cell},{icell}")
            print(rows[-1])
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "bench.csv").write_text("\n".join(rows) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="drrcalc",
        description="Admissible-region computation for renewable farms in "
                    "DC dispatch models")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p, need_case=True):
        p.add_argument("--case", required=need_case, help="MATPOWER .m file")
        p.add_argument("--renewables", help="sidecar JSON designating farms")
        p.add_argument("--config", help="JSON file of study settings")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="processes solving iblp LPs, this one included (default: "
                            "cores for iblp, 1 for milp; env DRR_THREADS overrides)")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("compute", help="run the full region workflow")
    common(p)
    p.add_argument("--method", choices=["milp", "iblp"], default="milp")
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("binding", help="identify binding constraints per facet")
    common(p)
    p.add_argument("--method", choices=["milp", "iblp"], default="milp")
    p.add_argument("--region", help="region.json from a previous run")
    p.add_argument("--out", help="directory for binding.json")
    p.add_argument("--allow-ambiguous", action="store_true")
    p.set_defaults(fn=cmd_binding)

    p = sub.add_parser("validate", help="model self-checks against oracles")
    common(p)
    p.add_argument("--w", help="comma-separated MW values to probe")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("bench", help="timing table over a case list")
    p.add_argument("--cases", nargs="+", required=True,
                   metavar="CASE.m:RENEWABLES.json")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run cap in seconds; timed-out cells print '-'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", help="directory for bench.csv")
    p.set_defaults(fn=cmd_bench)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except DrrError as exc:  # pragma: no cover - subcommands catch their own
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
