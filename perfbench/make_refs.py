"""Regenerate ``refs.json``: sha256 of region.json and binding.json per
case-method pair and seed, always computed at 1 worker.

    python3 perfbench/make_refs.py [case-method ...]

Run it only when a change to drrcalc is meant to change those bytes, and
say why in CHANGES.md.  Without arguments every pair is regenerated.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from workloads import (REF_SEEDS, REFS_FILE, ROOT, WORKLOADS, import_drrcalc,
                       load_case, run_workflow)


def main(argv: list[str]) -> None:
    drrcalc = import_drrcalc()
    pairs = {w.ref_key: w for w in WORKLOADS.values()}
    keys = argv or sorted(pairs)
    refs = json.loads(REFS_FILE.read_text()) if REFS_FILE.exists() else {}
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    for key in keys:
        w = pairs[key]
        case = load_case(drrcalc, w.case)
        table = {}
        for seed in range(REF_SEEDS):
            with tempfile.TemporaryDirectory(dir=scratch) as out:
                r = run_workflow(drrcalc, case, w.method, seed, 1, Path(out))
            if r.termination != "Converged":
                raise SystemExit(f"{key} seed {seed}: {r.termination}")
            table[str(seed)] = {"region.json": r.region_sha,
                                "binding.json": r.binding_sha}
            print(key, seed, r.iterations, r.facets, f"{r.workflow_s:.2f}s",
                  flush=True)
        refs[key] = table
        REFS_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
