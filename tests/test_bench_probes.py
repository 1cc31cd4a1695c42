"""The names that the benchmark's tracer patches still exist.

``perfbench/tracing.py`` swaps drrcalc names for timing wrappers, and its
``Tracer.wrap`` skips a name that is gone, so a rename would silently zero
a per-layer metric.  This loads the tracer, enters it with ``wrap``
replaced by a recorder, and checks every (owner, name) it would wrap.
"""

import importlib.util
import pathlib

from drrcalc import maxmin_milp

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Gone from drrcalc, so their metrics read 0 until the tracer reads counters
# that the library owns (ROADMAP item 3).
GONE = {
    ("lp", "linprog"),
    ("mip", "milp"),
    ("mip", "solve_lp"),
    ("analysis", "solve_lp"),
    ("maxmin_milp", "DualizedMaxMin"),
}


def test_the_tracer_wraps_only_names_drrcalc_has(monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = []
    monkeypatch.setattr(tracing.Tracer, "wrap", lambda self, owner, attr, *a, **k:
                        wrapped.append((owner.__name__.removeprefix("drrcalc."),
                                        attr, hasattr(owner, attr))))
    with tracing.Tracer():
        pass
    assert ("engine", "run", True) in wrapped
    assert ("polytope", "solve_lp", True) in wrapped
    missing = {(owner, attr) for owner, attr, found in wrapped if not found}
    # The tracer looks DualizedMaxMin up with getattr and wraps its methods
    # only when it is found, so the class shows here by its absence.
    if not hasattr(maxmin_milp, "DualizedMaxMin"):
        missing.add(("maxmin_milp", "DualizedMaxMin"))
    assert missing == GONE
