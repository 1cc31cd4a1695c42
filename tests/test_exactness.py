"""Each shipped region against exact references that run no engine code.

(a) Every vertex v of the region has violation F(v) <= eps_term by the
    multiplier LP, so the region holds no point that the oracle would cut.
(b) The region's support function h_W(c), the largest c'v over its
    vertices, equals the dispatchable region's h(c) (the projection LP of
    ``tests.conftest.projection_support``) over 200 seeded unit directions.
"""

import numpy as np
import pytest

from drrcalc.engine import CONVERGED
from drrcalc.lp import solve_lp
from drrcalc.maxmin_milp import multiplier_lp
from tests.conftest import projection_support, recorded_run, vertices

CASES = {"case2_ramp": "two", "case5_wind": "pjm5", "case39_wind": "ieee39"}

# ROADMAP item 2: on PJM-5, iblp stops as Converged with one facet missing
# at these seeds; one vertex has F = 3.16e-3 pu and h_W exceeds h by 8.1e-3.
MISSING_FACET = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: iblp's Converged misses a PJM-5 facet")


def _cells():
    for stem, name in CASES.items():
        yield pytest.param(stem, "milp", 0, id=f"{name}-milp-0")
        for seed in range(4):
            yield pytest.param(stem, "iblp", seed, id=f"{name}-iblp-{seed}",
                               marks=MISSING_FACET if name == "pjm5" else ())


_SUPPORT: dict[str, tuple[np.ndarray, np.ndarray]] = {}


def _reference(stem, m):
    """200 seeded unit directions and h at each; the model is the same for
    every method and seed of a case."""
    if stem not in _SUPPORT:
        C = np.random.default_rng(0).normal(size=(200, m.n_w))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        _SUPPORT[stem] = C, projection_support(m, C)
    return _SUPPORT[stem]


@pytest.mark.parametrize("stem, method, seed", _cells())
def test_region_is_exact(stem, method, seed):
    res = recorded_run(stem, method, seed).result
    assert res.termination == CONVERGED
    W, m = res.region, res.model
    V = vertices(W.H, W.f)
    assert V is not None
    worst_F = max(solve_lp(multiplier_lp(m, v)).objective for v in V)
    C, h = _reference(stem, m)
    gap = float(np.abs((V @ C.T).max(axis=0) - h).max())
    print(f"{stem} {method} seed {seed}: {len(V)} vertices, max F {worst_F:.3g}, "
          f"support gap {gap:.3g}")
    assert worst_F <= res.config_echo["eps_term"] and gap <= 1e-7
