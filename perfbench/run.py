"""drrcalc benchmark: full-workflow time on the shipped cases.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, seed 0, untraced

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` prints its per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and full results go to
``.bench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from work import percentile_tail
from workloads import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
RUN_LIMIT_S = 170   # every run must end within 180 s


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _python(script: str, *args, timeout: float) -> tuple[int, str, str]:
    """Run a benchmark script in its own process group; on timeout kill the
    whole group (pool workers included) and raise ``TimeoutExpired``."""
    env = dict(os.environ, TMPDIR=str(OUT))
    proc = subprocess.Popen([sys.executable, str(HERE / script), *map(str, args)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def setup_seconds(case: str) -> list[float]:
    """Wall time of fresh processes that import drrcalc and load the case."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        code, _, err = _python("setup_probe.py", case, timeout=60)
        times.append(time.perf_counter() - t0)
        if code != 0:
            _fail(f"set-up probe failed:\n{err}")
    return times


def run_meta() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src_lines = sum(1 for p in sorted(SRC.rglob("*.py"))
                    for line in p.read_text().splitlines() if line.strip())
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), "src_lines": src_lines}


def run_one(name: str, seed: int, seconds: float, trace: int,
            spec: dict) -> dict:
    t_start = time.perf_counter()
    w = WORKLOADS[name]
    setup = [] if trace else setup_seconds(w.case)
    limit = RUN_LIMIT_S - (time.perf_counter() - t_start)
    try:
        code, out, err = _python("work.py", "--workload", name, "--seed", seed,
                                 "--seconds", seconds, "--trace", trace,
                                 timeout=limit)
    except subprocess.TimeoutExpired:
        body = {"metrics": {}, "attempted": 1, "failed": 1,
                "errors": [f"measuring process exceeded {limit:.0f} s"]}
    else:
        if code != 0:
            _fail(f"measuring process exited {code}:\n{err}")
        body = json.loads(out.strip().splitlines()[-1])
    if setup:
        body["metrics"]["setup_s"] = statistics.median(setup)
        body.setdefault("timings", {})["setup_s"] = percentile_tail(setup)

    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(units) - set(body["metrics"]))
    if missing:
        body["errors"].append(f"metrics not measured: {missing}")
    body["meta"] = {**run_meta(), **body.get("meta", {}),
                    "workload": name, "seed": seed, "trace": trace}
    body["result"] = {
        "correct": body["failed"] == 0 and not missing,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {k: {"value": body["metrics"][k], "unit": u}
                    for k, u in units.items() if k in body["metrics"]},
    }
    (OUT / f"result-{name}-{seed}-trace{trace}.json").write_text(
        json.dumps(body, indent=1) + "\n")
    return body


def report(body: dict) -> None:
    meta, res = body["meta"], body["result"]
    print(f"== {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}"
          f"  ({res['attempted']} reps attempted)")
    timings = body.get("timings", {})
    for k, v in res["metrics"].items():
        tail = timings.get(k)
        extra = ""
        if tail:
            pct = [f"{p}={x:.4f}" for p, x in tail.items() if p[1:].isdigit()]
            extra = (f"  median of n={tail['n']}; "
                     + (", ".join(pct) if pct else
                        "no percentile has 10 samples beyond it"))
        print(f"  {k:<42} {v['value']:>14.6g} {v['unit']}{extra}")
    if not meta["trace"]:
        share = res["failed"] / res["attempted"]
        print(f"  {'failed_share':<42} {share:>14.6g} fraction of reps")
    for name, secs in body.get("self_s", []):
        print(f"  self {name:<37} {secs:>14.6g} s")
    for note in body.get("notes", []):
        print(f"  note: {note}")
    for err in body.get("errors", []):
        print(f"  error: {err}")
    print("  meta " + json.dumps(meta, sort_keys=True))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "drrcalc" / "__init__.py").is_file():
        _fail(f"no drrcalc sources under {SRC}; run from a drrcalc checkout")
    spec = json.loads(spec_file.read_text())
    OUT.mkdir(exist_ok=True)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    bodies = [run_one(n, args.seed, seconds, args.trace, spec) for n in names]
    for body in bodies:
        report(body)
    if len(bodies) == 1:
        result = bodies[0]["result"]
    else:
        result = {
            "correct": all(b["result"]["correct"] for b in bodies),
            "attempted": sum(b["result"]["attempted"] for b in bodies),
            "failed": sum(b["result"]["failed"] for b in bodies),
            "metrics": {f"{b['meta']['workload']}.{k}": v for b in bodies
                        for k, v in b["result"]["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
