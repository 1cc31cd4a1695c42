"""Command-line workflow: compute, binding, validate.

Exit codes are frozen for CI use: 0 converged, 1 any error (a usage error
included), 3 iteration cap.  Each subcommand takes only the flags it reads.
Every ``compute`` run writes ``manifest.json`` into the output directory
(input hashes, resolved settings, artifact list, phase timings, each
iteration's record), success or failure; a failed run's manifest names
its error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, binding, engine
from .caseio import (StudyConfig, apply_renewables, load_config_file,
                     load_renewables_file, parse_matpower_file)
from .dispatch_model import build_compact, build_ptdf, feasibility_model, initial_dispatch
from .errors import AmbiguousFacet, DrrError, InvalidSetting, NoRenewables
from .lp import solve_lp
from .maxmin_milp import multiplier_lp

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAXITER = 3

_TERMINATION_EXIT = {engine.CONVERGED: EXIT_OK, engine.MAX_ITERATIONS: EXIT_MAXITER}

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _resolve_config(args, base: StudyConfig) -> StudyConfig:
    """Settings by precedence: the flags, the config file, ``base`` (the
    defaults, or binding's region.json), with the cores as the thread
    count.  Each command has only the flags it reads."""
    cfg = dataclasses.replace(base, thread_count=os.cpu_count() or 1)
    if vars(args).get("config"):
        cfg = load_config_file(args.config, cfg)
    flags = {"seed": vars(args).get("seed"), "thread_count": vars(args).get("threads")}
    # replace, not assignment, so that StudyConfig checks the new values.
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _load_case(case_path, rens_path):
    raw = parse_matpower_file(case_path)
    specs = load_renewables_file(rens_path) if rens_path else []
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
        cfg = _resolve_config(args, StudyConfig())
        manifest["config"] = analysis._jsonable(dataclasses.asdict(cfg))
        case = _load_case(args.case, args.renewables)

        t0 = time.perf_counter()
        result = engine.run(case, cfg, method=args.method)
        manifest["phase_seconds"]["compute"] = time.perf_counter() - t0

        w_bar_pu = np.array(case.forecast_mw) / case.base_mva
        t0 = time.perf_counter()
        report = binding.identify(result.model, result.region, w_bar_pu,
                                  cfg, allow_unresolved=True)
        event = analysis.high_risk_event(result.region, w_bar_pu,
                                         base_mva=case.base_mva)
        manifest["phase_seconds"]["analysis"] = time.perf_counter() - t0

        frag = analysis.export_artifacts(result, report, event, out,
                                         w_bar_mw=np.array(case.forecast_mw))
        manifest["artifacts"] = sorted(frag["files"].values())
        manifest["notes"] = frag["notes"]
        manifest["iterations"] = result.iterations
        manifest["termination"] = result.termination
        # Each iteration's whole record but its wall time, which trace.csv
        # and phase_seconds hold: it reads the same for any worker count.
        manifest["oracle"] = analysis._jsonable([
            {"k": rec.k, "F_pu": rec.F, "cuts": rec.cuts_added,
             "facets": rec.facets_after,
             "w_star": None if rec.w_star is None else list(rec.w_star),
             **rec.oracle_diag}
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
        print(f"{result.termination} after {result.iterations} iterations; "
              f"artifacts in {out}")
        manifest["exit_status"] = _TERMINATION_EXIT[result.termination]
        return manifest["exit_status"]
    except (FileNotFoundError, DrrError) as exc:  # what main reports
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest["phase_seconds"]["total"] = time.perf_counter() - t_all
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def cmd_binding(args) -> int:
    case = _load_case(args.case, args.renewables)
    W, method, cfg = analysis.region_from_json(Path(args.region), case.base_mva)
    cfg = _resolve_config(args, cfg)
    m = build_compact(case, initial_dispatch(case, cfg))
    w_bar_pu = np.array(case.forecast_mw) / case.base_mva
    try:
        report = binding.identify(m, W, w_bar_pu, cfg,
                                  allow_unresolved=args.allow_ambiguous)
    except AmbiguousFacet as exc:
        print(f"error: {exc} (pass --allow-ambiguous to report anyway)",
              file=sys.stderr)
        return EXIT_ERROR
    print(report.table())
    analysis.write_binding_json(report, Path(args.out or "."), method,
                                cfg.algorithmic_echo())
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _resolve_config(args, StudyConfig())
    if args.w is not None:  # before any model work, so a bad value fails at once
        try:
            w_mw = np.array([float(v) for v in args.w.split(",")])
        except ValueError:
            w_mw = None
        if w_mw is None or not np.isfinite(w_mw).all():
            raise InvalidSetting(
                f"--w must be comma-separated finite numbers, got {args.w!r}")
    case = _load_case(args.case, args.renewables)
    if not case.renewable:
        raise NoRenewables("case has no designated renewable farms")
    if args.w is not None and w_mw.size != len(case.renewable):
        raise InvalidSetting(f"--w has {w_mw.size} entries, the case has "
                             f"{len(case.renewable)} farms")
    checks: list[tuple[str, bool, str]] = []

    dp = initial_dispatch(case, cfg)
    m = build_compact(case, dp)
    # The angle model's flow map against the PTDF, on the zero-sum
    # injections: both maps times the projection onto that subspace.
    n_b, n_l = m.n_v, m.n_l
    Cbal, Dflow = m.C[:n_b, :], m.D[n_b:n_b + n_l, :]
    zero_sum = np.eye(n_b) - 1.0 / n_b
    angle_map = -Dflow @ np.linalg.pinv(Cbal @ Dflow)
    worst = float(np.abs((angle_map - build_ptdf(case)) @ zero_sum).max(initial=0.0))
    checks.append(("ptdf_angle_equivalence", worst <= 1e-9,
                   f"max sensitivity deviation {worst:.2e}"))

    w_bar = np.array(case.forecast_mw) / case.base_mva
    feas0 = feasibility_model(m, w_bar).objective
    checks.append(("forecast_dispatchable", feas0 <= cfg.eps_slack,
                   f"violation {feas0:.2e} pu"))

    rng = np.random.default_rng(cfg.seed)
    gap = 0.0
    for _ in range(10):
        w = rng.uniform(0.0, m.farm_capacity_pu)
        dual = solve_lp(multiplier_lp(m, w)).objective
        feas = feasibility_model(m, w).objective
        gap = max(gap, abs(dual - feas))
    checks.append(("strong_duality", gap <= cfg.eps_dual,
                   f"max gap {gap:.2e} pu"))

    if args.w is not None:
        res = feasibility_model(m, w_mw / case.base_mva)
        print(f"w = {args.w} MW: violation {res.objective * case.base_mva:.6f} MW")
        for label, slack in sorted(res.slacks.items()):
            print(f"  {label}: {slack * case.base_mva:.6f} MW")

    ok = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
        ok &= passed
    return EXIT_OK if ok else EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2: 1 is every error.  Subparsers
    are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="drrcalc",
        description="Admissible-region computation for renewable farms in "
                    "DC dispatch models")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p, settings=True, oracle=True):
        p.add_argument("--case", required=True, help="MATPOWER .m file")
        p.add_argument("--renewables", help="sidecar JSON designating farms")
        if settings:  # binding reads them from the region.json
            p.add_argument("--config", help="JSON file of study settings")
            p.add_argument("--seed", type=int, default=None)
        if oracle:  # validate runs none
            p.add_argument("--threads", type=int, help=(
                "threads solving iblp LPs and explaining binding facets, at most "
                "one per core; from 2 on, a pool of that many while this one "
                "waits (default: compute's config file, else the cores)"))

    p = sub.add_parser("compute", help="run the full region workflow")
    common(p)
    p.add_argument("--method", choices=["milp", "iblp"], default="milp")
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("binding", help="explain each facet of a computed region")
    common(p, settings=False)
    p.add_argument("--region", required=True,
                   help="region.json of a compute run on this case, whose "
                        "method and config echo are used")
    p.add_argument("--out", help="directory for binding.json")
    p.add_argument("--allow-ambiguous", action="store_true")
    p.set_defaults(fn=cmd_binding)

    p = sub.add_parser("validate", help="model self-checks against oracles")
    common(p, oracle=False)
    p.add_argument("--w", help="comma-separated MW values to probe")
    p.set_defaults(fn=cmd_validate)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, DrrError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
