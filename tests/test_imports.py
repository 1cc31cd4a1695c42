"""What importing drrcalc loads, checked in fresh interpreters.

drrcalc reaches HiGHS through ``scipy.optimize._highspy._core``, loaded
from its file so that neither ``scipy/__init__`` nor
``scipy/optimize/__init__`` (and with it scipy.sparse and scipy.linalg)
runs.  These checks need a new
process: the other test modules import ``scipy.optimize`` at module level,
so in this process only the branch that reuses an already loaded
``_core`` would ever run.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import drrcalc

SRC = pathlib.Path(drrcalc.__file__).resolve().parent.parent
CASES = SRC.parent / "cases"


def _run(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_runs_never_import_scipy_optimize_sparse_or_linalg():
    _run(f"""
        import sys
        from drrcalc import (StudyConfig, apply_renewables, engine,
                             load_renewables_file, parse_matpower_file)
        case = apply_renewables(
            parse_matpower_file({str(CASES / "case5_wind.m")!r}),
            load_renewables_file({str(CASES / "case5_wind_renewables.json")!r}))
        for method in ("milp", "iblp"):
            res = engine.run(case, StudyConfig(thread_count=1), method=method)
            assert res.termination == "Converged", (method, res.termination)
        loaded = [m for m in ("scipy", "scipy.optimize", "scipy.sparse",
                              "scipy.linalg") if m in sys.modules]
        assert not loaded, loaded
    """)


def test_scipy_optimize_imported_first_shares_its_highs_bindings():
    _run("""
        import sys
        import scipy.optimize
        import drrcalc.lp
        assert drrcalc.lp._highs is sys.modules["scipy.optimize._highspy._core"]
        res = scipy.optimize.linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        assert res.status == 0 and res.fun == 1.0, res
    """)


def test_missing_bindings_name_the_scipy_floor(tmp_path):
    # A scipy package without optimize/_highspy/_core, first on sys.path.
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    _run(f"""
        import sys
        sys.path.insert(0, {str(tmp_path)!r})
        try:
            import drrcalc
        except ImportError as exc:
            assert "scipy >= 1.15" in str(exc), exc
        else:
            raise AssertionError("drrcalc imported without HiGHS bindings")
    """)
