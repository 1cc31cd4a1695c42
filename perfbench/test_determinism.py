"""Determinism self-check of the traced benchmark (about 90 s).

    python3 -m pytest -q perfbench/test_determinism.py

Two traced runs at one seed must give identical counts; a second seed must
change the iblp counts and leave the milp counts alone, which shows that
the seed reaches the workloads.
"""

import json
import signal

import pytest

import work
from workloads import REFS_FILE, ROOT, WORKLOADS, import_drrcalc

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Counts and ratios of counts; timings and byte sizes (trace.csv holds
# oracle milliseconds) vary from run to run.
COUNT_FIELDS = sorted(m["name"] for m in SPEC["per_layer"]
                      if m["unit"] in ("count", "ratio")
                      and m["name"] != "maxmin_iblp.parallel_efficiency")


def counts(name: str, seed: int) -> dict:
    drrcalc = import_drrcalc()
    w = WORKLOADS[name]
    runner = work.Runner(drrcalc, w, json.loads(REFS_FILE.read_text())[w.ref_key])
    r, tracer = work.traced_rep(runner, seed)
    lp_tracer = work.traced_rep(runner, seed, workers=1)[1] if w.workers > 1 else None
    assert runner.errors == []
    m = work.layer_metrics(tracer, r, lp_tracer)
    return {k: m[k] for k in COUNT_FIELDS}


@pytest.fixture(scope="module", autouse=True)
def _alarm():
    work.OUT.mkdir(exist_ok=True)
    old = signal.signal(signal.SIGALRM, work._on_alarm)
    yield
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_and_follow_the_seed(name):
    first = counts(name, 0)
    assert counts(name, 0) == first
    other = counts(name, 1)
    if WORKLOADS[name].method == "milp":
        assert other == first
    else:
        assert other != first
