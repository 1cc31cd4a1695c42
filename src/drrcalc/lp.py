"""Linear-program contract shared by every optimization layer.

A :class:`LinearProgram` is

    min or max   c @ x
    subject to   M_eq @ x == r_eq
                 M_in @ x <= r_in
                 lb <= x <= ub      (entries may be +-inf)

and :func:`solve_lp` returns an :class:`LpSolution`: HiGHS's status and,
at an optimum, x and the objective.  The status is HiGHS's own, mapped as
``linprog`` reports it: Optimal, Infeasible (linprog's status 2) or
Unbounded (3).  HiGHS's presolve reports some unbounded LPs as Infeasible,
and so does linprog; a caller that must tell the two apart solves
:func:`elastic_lp` of the LP, as the initial dispatch does.  Any other
outcome, a model HiGHS rejects (``kModelError``) included, raises
:class:`NumericalFailure`, as does an optimum that violates its own LP.

One solver implements the contract: the HiGHS dual simplex (Huangfu &
Hall, Math. Prog. Comp. 2018), through the bindings that scipy ships in
``scipy.optimize._highspy._core``.  :func:`solve_lp` makes the same HiGHS
call as ``scipy.optimize.linprog(method="highs")``, without linprog's
per-call input cleaning and option parsing, which cost more than HiGHS
itself on the small LPs solved here.  The tests hold its x and objective
bit for bit to linprog's, and check them against optimality and Farkas
certificates built from linprog's marginals.

The bindings are loaded from their file, in the scipy install directory
that ``importlib.util.find_spec("scipy")`` names, not imported: importing
``scipy.optimize._highspy._core`` runs ``scipy/__init__`` and
``scipy/optimize/__init__`` first, which pull in scipy.linalg,
scipy.sparse, linprog and the rest, and cost about 0.3 s and 40 MB of
every drrcalc process, none of it used.  If ``scipy.optimize`` is already
loaded, its ``_core`` is used, so one process never holds two copies of
the extension.  The other way round (drrcalc first), scipy's own imports
of ``_core`` find this copy, but the attribute path
``scipy.optimize._highspy._core`` is not set, as Python sets it only for
a submodule it loads itself.  No scipy subpackage is imported at module
level anywhere in drrcalc: one that a feature needs (``scipy.spatial``,
say) is imported in the function that uses it.  ``tests/test_imports.py``
checks in a fresh interpreter that a run loads neither scipy itself nor
scipy.optimize, scipy.sparse or scipy.linalg.

``_pass_and_run`` hands every program to HiGHS, LP or MIP, in one
``passModel`` call and one run; :func:`solve_lp` and ``mip.solve_mip``
each bring their own instances and options and read the status their way.

Each thread holds one HiGHS instance, made with linprog's options on its
first solve (a forked child makes its own) and thrown away after any
HiGHS error.  Every solve passes its whole model to that instance, which
discards the previous model and basis, so each solve is cold and returns
what a new instance would.  HiGHS releases the GIL while it runs, so
threads solve in parallel, each on its own instance.

:func:`worker_map` is where drrcalc starts threads, and the caller that
enters it owns them: the iblp oracle for a run, where each thread solves
whole LPs of a half-step, and ``binding.identify`` for one call, where
each thread explains whole facets.  It caps ``thread_count`` at the core
count and gives ``map`` itself for one worker, so one worker solves on
the calling thread in input order; from two on, a pool of that many
threads solves while the calling thread waits.  Both give results in
input order and raise the first failing input's own exception, so which
thread solved what changes no result.

The constructor assembles the matrix as ``passModel`` takes it: the CSC
arrays of ``[M_in; M_eq]`` and the integrality vector, all read-only.
A MIP assembles its own ``[M_eq; M_in]`` (``mip.solve_mip``).
Loops that solve one structure many times swap vectors into one
LinearProgram: ``lp.with_vectors(c=..., r_eq=..., r_in=..., ub=...)``
checks the new vectors as the constructor does and returns a copy that
shares the matrices and those arrays.  Every solve hands HiGHS the arrays
with all five vectors (costs, column bounds, row lower and upper bounds)
of its own LP in one ``passModel`` call.  So a solve returns what a new
LinearProgram with the same fields returns, whichever copy was solved
before it, and since a solve writes nothing into the LP, threads may
solve copies of one LP at once.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalFailure


def _load_highs_core():
    """scipy's HiGHS bindings, loaded from their file so that no scipy
    ``__init__`` runs; a copy already loaded (by a caller that imported
    ``scipy.optimize`` first) is the one used."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    folder = (os.path.join(scipy.submodule_search_locations[0], "optimize",
                           "_highspy") if scipy else "no scipy package")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"drrcalc needs scipy >= 1.15, whose {name} it "
                          f"calls; there is no such extension in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Registered under its dotted name before exec_module, as an import
    # would; the pybind11 submodules it makes (cb, simplex_constants)
    # register beneath that name.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_highs = _load_highs_core()

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


def _as_matrix(M, ncols):
    if M is None:
        return np.zeros((0, ncols))
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    return M


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise DimensionMismatch(f"non-finite coefficients in {name}")


def _check_not_nan(name: str, arr: np.ndarray) -> None:
    if np.isnan(arr).any():
        raise DimensionMismatch(f"NaN coefficients in {name}")


@dataclass
class LinearProgram:
    c: np.ndarray
    sense: str = "min"
    M_eq: np.ndarray | None = None
    r_eq: np.ndarray | None = None
    M_in: np.ndarray | None = None
    r_in: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    # The passModel arrays of [M_in; M_eq], read-only; see solve_lp.
    _model: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        self.M_eq = _as_matrix(self.M_eq, n)
        self.M_in = _as_matrix(self.M_in, n)
        self.r_eq = (np.zeros(0) if self.r_eq is None
                     else np.atleast_1d(np.asarray(self.r_eq, dtype=float)))
        self.r_in = (np.zeros(0) if self.r_in is None
                     else np.atleast_1d(np.asarray(self.r_in, dtype=float)))
        self.lb = (np.full(n, -np.inf) if self.lb is None
                   else np.asarray(self.lb, dtype=float).copy())
        self.ub = (np.full(n, np.inf) if self.ub is None
                   else np.asarray(self.ub, dtype=float).copy())
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        self._check("c", "r_eq", "r_in", "lb", "ub")
        for name, arr in (("M_eq", self.M_eq), ("M_in", self.M_in)):
            _check_finite(name, arr)
        # Inequality rows first, then equality rows as lhs == rhs, as
        # linprog does.  passModel rejects an empty integrality vector:
        # every column is continuous (0).
        self._model = (*_csc(np.vstack([self.M_in, self.M_eq])),
                       np.zeros(n, np.int32))
        for arr in self._model:
            arr.flags.writeable = False

    def _check(self, *names: str) -> None:
        """Check every shape, and the entries of the vectors ``names``."""
        n = self.c.size
        if self.M_eq.shape != (self.r_eq.size, n) or self.M_in.shape != (self.r_in.size, n):
            raise DimensionMismatch(
                f"constraint blocks inconsistent with {n} variables: "
                f"eq {self.M_eq.shape}x{self.r_eq.size}, in {self.M_in.shape}x{self.r_in.size}"
            )
        if self.lb.size != n or self.ub.size != n:
            raise DimensionMismatch("bound vectors must match the variable count")
        for name in names:
            (_check_finite if name == "c" else _check_not_nan)(name, getattr(self, name))
        if "lb" in names or "ub" in names:
            if (self.lb > self.ub).any():
                raise DimensionMismatch("lower bound above upper bound")
            # HiGHS reads either as no bound at all, so an empty box would
            # solve as Unbounded.
            if (self.lb == np.inf).any() or (self.ub == -np.inf).any():
                raise DimensionMismatch("lower bound of +inf or upper bound of -inf")

    def with_vectors(self, *, c=None, r_eq=None, r_in=None, ub=None) -> LinearProgram:
        """This LP with the given vectors replaced, checked as the
        constructor checks them; the copy shares the matrices, the other
        vectors and the passModel arrays."""
        # A shallow copy, made directly: copy.copy takes the generic
        # __reduce_ex__ path, several times slower on this hot path.
        lp = object.__new__(LinearProgram)
        lp.__dict__.update(self.__dict__)
        new = {name: value for name, value in
               (("c", c), ("r_eq", r_eq), ("r_in", r_in), ("ub", ub))
               if value is not None}
        for name, value in new.items():
            setattr(lp, name, np.array(value, dtype=float, ndmin=1))
        lp._check(*new)
        return lp

    @property
    def nvar(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float = np.nan


# --- HiGHS -----------------------------------------------------------------------

# HiGHS status -> contract status, as linprog maps them; every other status
# raises NumericalFailure.
_HIGHS_STATUS = {
    _highs.HighsModelStatus.kOptimal: OPTIMAL,
    _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}
# linprog's post-solve feasibility tolerance: sqrt(tol) * 10 at tol = 1e-9.
_FEASIBILITY_TOL = np.sqrt(1e-9) * 10


def _highs_options():
    """The options linprog(method="highs") hands HiGHS."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    return opts


# This thread's HiGHS instance and the pid that made it: a forked child
# inherits its parent's entry and must not use it.
_SOLVERS = threading.local()


def _highs_solver() -> _highs._Highs:
    """This thread's HiGHS instance, made with linprog's options on first use."""
    if getattr(_SOLVERS, "pid", None) != os.getpid():
        _SOLVERS.highs = _highs._Highs()
        _SOLVERS.highs.passOptions(_highs_options())
        _SOLVERS.pid = os.getpid()
    return _SOLVERS.highs


@contextlib.contextmanager
def worker_map(thread_count: int):
    """``map`` for ``thread_count`` workers, capped at the core count: the
    builtin for one, else the ``map`` of a pool of that many threads, shut
    down when the block ends."""
    workers = min(thread_count, os.cpu_count() or 1)
    if workers == 1:
        yield map
        return
    pool = concurrent.futures.ThreadPoolExecutor(workers)
    try:
        yield pool.map
    finally:
        pool.shutdown()


def _csc(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The matrix A as ``passModel`` takes it, column-wise: the start of
    each column (no trailing nonzero count), then the row index and value
    of each nonzero."""
    # Nonzeros of A.T in row-major order are A's in column order.
    At = A.T
    nz = At != 0.0
    start = np.concatenate(([0], np.cumsum(nz.sum(axis=1))[:-1])).astype(np.int32)
    return start, np.nonzero(nz)[1].astype(np.int32), At[nz]


def _pass_and_run(h, lp: LinearProgram, start, index, value, integrality,
                  row_lower, row_upper) -> tuple[bool, object]:
    """Pass ``h`` ``lp``'s costs and column bounds with the given matrix and
    rows, and run it: (whether both calls succeeded, the model status)."""
    sign = 1.0 if lp.sense == "min" else -1.0
    if h.passModel(lp.nvar, row_upper.size, index.size,
                   _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize,
                   0.0, sign * lp.c, lp.lb, lp.ub, row_lower, row_upper,
                   start, index, value,
                   integrality) == _highs.HighsStatus.kError:
        # run() would solve the instance's previous model again.
        return False, _highs.HighsModelStatus.kModelError
    run_ok = h.run() != _highs.HighsStatus.kError
    return run_ok, h.getModelStatus()


def solve_lp(lp: LinearProgram) -> LpSolution:
    """One cold HiGHS run of `lp` on this thread's instance; see the module
    docstring for the statuses."""
    m_in = lp.r_in.size
    rhs = np.concatenate([lp.r_in, lp.r_eq])
    lhs = rhs.copy()
    lhs[:m_in] = -np.inf

    # Every vector, every solve, and cold on every call: passModel drops
    # the instance's previous model and basis.  A warm start may land on
    # another optimal vertex and so change the x that a cut is made from.
    h = _highs_solver()
    try:
        run_ok, model_status = _pass_and_run(h, lp, *lp._model, lhs, rhs)
        if not run_ok:
            vars(_SOLVERS).clear()
        status = _HIGHS_STATUS.get(model_status)
        if status in (INFEASIBLE, UNBOUNDED):
            return LpSolution(status=status)
        if status != OPTIMAL or not run_ok:
            raise NumericalFailure(
                f"HiGHS LP failed: {h.modelStatusToString(model_status)}")

        solution = h.getSolution()
        x = np.array(solution.col_value)
        fun = h.getObjectiveValue()
        row = np.array(solution.row_value)
        # linprog's _check_result: an optimum must satisfy what it claims to.
        tol = _FEASIBILITY_TOL
        if not ((x >= lp.lb - tol).all() and (x <= lp.ub + tol).all()
                and (rhs[:m_in] - row[:m_in] >= -tol).all()
                and (np.abs(rhs[m_in:] - row[m_in:]) <= tol).all()
                and not np.isnan(fun)):
            raise NumericalFailure(
                "HiGHS reported an optimum that violates the constraints "
                f"by more than {tol:.2e}")
        obj = fun if lp.sense == "min" else -fun
        return LpSolution(status=OPTIMAL, x=x, objective=float(obj))
    except BaseException:
        vars(_SOLVERS).clear()
        raise


def elastic_lp(lp: LinearProgram) -> LinearProgram:
    """Elastic relaxation of ``lp``: minimize the total violation of its rows.

    Each equality row gets a surplus and a deficit column, each inequality
    row a deficit column, all nonnegative with unit cost; the original
    objective is dropped.  It is feasible whenever the box is nonempty.
    """
    n = lp.nvar
    m_eq, m_in = lp.r_eq.size, lp.r_in.size
    c = np.concatenate([np.zeros(n), np.ones(2 * m_eq + m_in)])
    M_eq = np.hstack([lp.M_eq, np.eye(m_eq), -np.eye(m_eq), np.zeros((m_eq, m_in))])
    M_in = np.hstack([lp.M_in, np.zeros((m_in, 2 * m_eq)), -np.eye(m_in)])
    lb = np.concatenate([lp.lb, np.zeros(2 * m_eq + m_in)])
    ub = np.concatenate([lp.ub, np.full(2 * m_eq + m_in, np.inf)])
    return LinearProgram(c=c, sense="min", M_eq=M_eq, r_eq=lp.r_eq,
                         M_in=M_in, r_in=lp.r_in, lb=lb, ub=ub)
