"""Region representation, redundancy pruning, vertex preservation."""

import numpy as np
import pytest

from drrcalc.errors import EmptyRegionError, ZeroNormal
from drrcalc.polytope import FacetProvenance, Polytope, box, remove_redundant
from tests.conftest import (box_bounds, chebyshev_center, pruning_reference,
                            recorded_run)


def _tags(n, kind="Cut"):
    return tuple(FacetProvenance(kind, iteration=i) for i in range(n))


def unit_square():
    return box([0.0, 0.0], [1.0, 1.0],
               [FacetProvenance("InitialBox", farm=i, bound="upper") for i in range(2)],
               [FacetProvenance("InitialBox", farm=i, bound="lower") for i in range(2)])


def test_rows_are_normalized():
    W = Polytope(H=[[3.0, 4.0]], f=[10.0], provenance=_tags(1))
    assert np.linalg.norm(W.H[0]) == pytest.approx(1.0)
    assert W.f[0] == pytest.approx(2.0)


def test_zero_normal_rejected():
    with pytest.raises(ZeroNormal):
        Polytope(H=[[0.0, 0.0]], f=[1.0], provenance=_tags(1))


def test_contains_and_box_bounds():
    W = unit_square()
    assert W.contains([0.5, 0.5])
    assert not W.contains([1.5, 0.5])
    lo, hi = box_bounds(W)
    assert lo == pytest.approx([0.0, 0.0])
    assert hi == pytest.approx([1.0, 1.0])


def test_duplicate_facet_removed():
    W = unit_square().with_rows(np.array([[1.0, 0.0]]), np.array([2.0]),
                                [FacetProvenance("Cut", iteration=9)])
    R = remove_redundant(W)
    assert R.n_facets == 4
    assert all(p.kind == "InitialBox" for p in R.provenance)


def test_pruning_keeps_provenance_of_survivors():
    W = unit_square().with_rows(np.array([[1.0, 1.0]]), np.array([1.2]),
                                [FacetProvenance("Cut", iteration=1)])
    R = remove_redundant(W)
    labels = [p.label() for p in R.provenance]
    assert "cut from iteration 1" in labels
    assert R.n_facets == 5


def test_empty_region_detected():
    W = Polytope(H=[[1.0], [-1.0]], f=[-2.0, 1.0], provenance=_tags(2))
    with pytest.raises(EmptyRegionError):
        remove_redundant(W)


def _vertices_bruteforce(W):
    pts = []
    for i in range(W.n_facets):
        for j in range(i + 1, W.n_facets):
            M = np.vstack([W.H[i], W.H[j]])
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            v = np.linalg.solve(M, np.array([W.f[i], W.f[j]]))
            if W.contains(v, tol=1e-9):
                pts.append(tuple(np.round(v, 8)))
    return set(pts)


def test_random_pruning_preserves_vertex_set():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = rng.integers(5, 12)
        H = rng.normal(size=(k, 2))
        f = rng.uniform(0.5, 2.0, size=k)  # contains the origin: never empty
        W = Polytope(H=H, f=f, provenance=_tags(k))
        R = remove_redundant(W)
        assert _vertices_bruteforce(W) == _vertices_bruteforce(R)
        # Removed rows are certified redundant: every kept-region vertex obeys them.
        for v in _vertices_bruteforce(R):
            assert W.contains(np.array(v), tol=1e-6)


# Seeded 3- to 5-D polytopes for the pruning rule; each row is tagged by
# its position, so the kept tags name the kept rows.


def _cube_rows(d):
    return np.vstack([np.eye(d), -np.eye(d)]), np.concatenate([np.ones(d), np.zeros(d)])


def _box_with_cuts(d, rng):
    # Cuts a random distance past the centre, so some cut and some miss.
    H, f = _cube_rows(d)
    normals = rng.normal(size=(int(rng.integers(3, 9)), d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = normals @ np.full(d, 0.5) + rng.uniform(0.05, 1.2, size=len(normals))
    return np.vstack([H, normals]), np.concatenate([f, offsets])


def _duplicate_row(d, rng):
    H, f = _box_with_cuts(d, rng)
    return np.vstack([H, H[-1]]), np.append(f, f[-1])


def _plane_touching_cube_vertex(d, rng):
    # sum(w) <= d meets the unit cube only at its vertex (1, ..., 1): a
    # weakly redundant row, which today's rule keeps.
    H, f = _cube_rows(d)
    return np.vstack([H, np.ones(d)]), np.append(f, float(d))


def _pyramid(d, rng):
    # Base [0, 1]^(d-1) at w_d = 0, apex (0.5, ..., 0.5, 1) on the 2(d-1)
    # side rows and on w_d <= 1; w_d <= 2 misses it.
    rows, rhs = [-np.eye(d)[-1]], [0.0]
    for j in range(d - 1):
        for sign, r in ((-1.0, 0.0), (1.0, 1.0)):
            row = 0.5 * np.eye(d)[-1]
            row[j] = sign
            rows.append(row)
            rhs.append(r)
    rows += [np.eye(d)[-1]] * 2
    rhs += [1.0, 2.0]
    return np.array(rows), np.array(rhs)


@pytest.mark.parametrize("make", [_box_with_cuts, _duplicate_row,
                                  _plane_touching_cube_vertex, _pyramid])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_pruning_keeps_the_reference_rows(make, d):
    rng = np.random.default_rng(d)
    for _ in range(4):
        H, f = make(d, rng)
        order = rng.permutation(len(f))
        W = Polytope(H=H[order], f=f[order], provenance=_tags(len(f)))
        want = pruning_reference(W)
        assert want is not None
        assert remove_redundant(W).provenance == tuple(W.provenance[i] for i in want)


@pytest.mark.parametrize("stem", ["case5_wind", "case39_wind"], ids=["pjm5", "ieee39"])
def test_engine_pruning_keeps_the_reference_rows(stem):
    # Every pruning call of a seed-0 milp run whose rows have at most
    # 20,000 d-subsets.
    calls = recorded_run(stem, "milp").calls
    checked = 0
    for W, R in ((call.cut, call.pruned) for call in calls if call.cut is not None):
        assert len(set(W.provenance)) == W.n_facets
        want = pruning_reference(W)
        if want is not None:
            assert R.provenance == tuple(W.provenance[i] for i in want)
            checked += 1
    assert checked, "no pruning call small enough to check"


def test_chebyshev_center_of_square():
    c, r = chebyshev_center(unit_square())
    assert c == pytest.approx([0.5, 0.5], abs=1e-9)
    assert r == pytest.approx(0.5, abs=1e-9)
