"""Workload table and the timed workflow shared by the benchmark scripts.

The workflow is what ``drrcalc compute`` does in process: ``engine.run``,
then ``binding.identify``, ``analysis.high_risk_event`` and
``analysis.export_artifacts``.  Only the public library API is used, so the
benchmark keeps working while the modules behind it change.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CASES = ROOT / "cases"

# Outputs are checked against stored hashes, so a run may only use seeds
# that have a reference: rep j of a run with --seed n uses seed (n + j) % 32.
REF_SEEDS = 32
REFS_FILE = Path(__file__).resolve().parent / "refs.json"


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    method: str
    workers: int

    @property
    def ref_key(self) -> str:
        """Outputs must match the 1-worker run (any-worker-count contract)."""
        return f"{self.case}-{self.method}"


WORKLOADS = {w.name: w for w in (
    Workload("pjm5-iblp-1w", "case5_wind", "iblp", 1),
    Workload("ieee39-milp-1w", "case39_wind", "milp", 1),
    Workload("ieee39-iblp-2w", "case39_wind", "iblp", 2),
)}


def import_drrcalc():
    """Import drrcalc from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "drrcalc" / "__init__.py").is_file():
        raise SystemExit(f"no drrcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import drrcalc
    if Path(drrcalc.__file__).resolve().parent != SRC / "drrcalc":
        raise SystemExit(f"imported drrcalc from {drrcalc.__file__}, "
                         f"not from {SRC}")
    return drrcalc


def load_case(drrcalc, stem: str):
    raw = drrcalc.parse_matpower_file(CASES / f"{stem}.m")
    specs = drrcalc.load_renewables_file(CASES / f"{stem}_renewables.json")
    return drrcalc.apply_renewables(raw, specs)


@dataclass
class WorkflowResult:
    region_s: float
    workflow_s: float
    termination: str
    iterations: int
    cuts: int
    facets: int
    big_m_margins: list[float]
    region_sha: str
    binding_sha: str
    export_bytes: int


def run_workflow(drrcalc, case, method: str, seed: int, workers: int,
                 out_dir: Path) -> WorkflowResult:
    """One timed ``compute`` workflow; artifacts are hashed after timing."""
    import numpy as np
    from drrcalc import analysis, binding, engine

    cfg = drrcalc.StudyConfig(seed=seed)
    cfg.thread_count = workers
    w_bar_pu = np.array(case.forecast_mw) / case.base_mva

    t0 = time.perf_counter()
    result = engine.run(case, cfg, method=method)
    t1 = time.perf_counter()
    report = binding.identify(result.model, result.region, w_bar_pu, cfg,
                              allow_unresolved=True)
    event = analysis.high_risk_event(result.region, w_bar_pu,
                                     base_mva=case.base_mva)
    analysis.export_artifacts(result, report, event, out_dir,
                              w_bar_mw=np.array(case.forecast_mw))
    t2 = time.perf_counter()

    def sha(name):
        return hashlib.sha256((out_dir / name).read_bytes()).hexdigest()

    return WorkflowResult(
        region_s=t1 - t0, workflow_s=t2 - t0,
        termination=result.termination, iterations=result.iterations,
        cuts=sum(rec.cuts_added for rec in result.trace),
        facets=result.region.n_facets,
        big_m_margins=[rec.oracle_diag["big_m_margin"] for rec in result.trace
                       if "big_m_margin" in rec.oracle_diag],
        region_sha=sha("region.json"), binding_sha=sha("binding.json"),
        export_bytes=sum(p.stat().st_size for p in out_dir.iterdir()))
