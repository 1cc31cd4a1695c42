"""Vertex extraction, highest-risk event, artifact files."""

import json

import numpy as np
import pytest

from drrcalc.analysis import (export_artifacts, high_risk_event,
                              region_payload, vertices_2d)
from drrcalc.binding import identify
from drrcalc.caseio import StudyConfig
from drrcalc.engine import run
from drrcalc.errors import DimensionTooHigh
from drrcalc.polytope import FacetProvenance, Polytope


def square():
    return Polytope(H=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                    f=[1.0, 1.0, 0.0, 0.0],
                    provenance=tuple(FacetProvenance("Cut", iteration=i)
                                     for i in range(4)))


@pytest.fixture(scope="module")
def pjm_run():
    from tests.conftest import load_case
    case = load_case("case5_wind")
    cfg = StudyConfig()
    return case, cfg, run(case, cfg, method="milp")


def test_vertices_unit_square_ccw():
    verts = vertices_2d(square())
    assert len(verts) == 4
    # Counterclockwise: positive signed area.
    area = 0.0
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        area += a[0] * b[1] - b[0] * a[1]
    assert area / 2 == pytest.approx(1.0, abs=1e-9)


def test_vertices_1d_band():
    W = Polytope(H=[[1.0], [-1.0]], f=[0.65, -0.45],
                 provenance=(FacetProvenance("Cut", iteration=0),
                             FacetProvenance("Cut", iteration=1)))
    verts = vertices_2d(W)
    assert verts.ravel() == pytest.approx([0.45, 0.65])


def test_vertices_dimension_guard():
    W = Polytope(H=np.eye(3), f=np.ones(3),
                 provenance=tuple(FacetProvenance("Cut", iteration=i)
                                  for i in range(3)))
    with pytest.raises(DimensionTooHigh):
        vertices_2d(W)


def test_vertex_halfplane_roundtrip(pjm_run):
    _, _, res = pjm_run
    verts = vertices_2d(res.region)
    assert len(verts) >= 3
    # Rebuild halfplanes from consecutive vertices and re-extract.
    rows, offs = [], []
    centroid = verts.mean(axis=0)
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        t = b - a
        n = np.array([t[1], -t[0]])
        if n @ (centroid - a) > 0:
            n = -n
        n /= np.linalg.norm(n)
        rows.append(n)
        offs.append(n @ a)
    rebuilt = Polytope(H=np.array(rows), f=np.array(offs),
                       provenance=tuple(FacetProvenance("Cut", iteration=i)
                                        for i in range(len(rows))))
    verts2 = vertices_2d(rebuilt)
    assert len(verts2) == len(verts)
    match = sorted(map(tuple, np.round(verts, 8)))
    match2 = sorted(map(tuple, np.round(verts2, 8)))
    assert np.allclose(match, match2, atol=1e-8)


def test_high_risk_event_1d():
    W = Polytope(H=[[1.0], [-1.0]], f=[0.65, -0.45],
                 provenance=(FacetProvenance("Cut", iteration=0),
                             FacetProvenance("Cut", iteration=1)))
    ev = high_risk_event(W, np.array([0.50]), base_mva=100.0)
    assert ev.to_mw == pytest.approx([45.0], abs=1e-9)
    assert ev.distance_mw == pytest.approx(5.0, abs=1e-9)


def test_high_risk_event_square_center_tie():
    ev = high_risk_event(square(), np.array([0.5, 0.5]), base_mva=100.0)
    assert ev.distance_mw == pytest.approx(50.0, abs=1e-9)
    assert ev.facet == 0   # four-way tie broken by lowest facet index


def test_high_risk_event_degenerate_on_boundary():
    ev = high_risk_event(square(), np.array([1.0, 0.5]), base_mva=100.0)
    assert ev.degenerate
    assert ev.distance_mw == 0.0


def test_high_risk_event_matches_edge_bruteforce(pjm_run):
    case, _, res = pjm_run
    W = res.region
    w_bar = np.array(case.forecast_mw) / case.base_mva
    ev = high_risk_event(W, w_bar, base_mva=case.base_mva)
    # Brute force over polygon edges: densely sample each edge.
    verts = vertices_2d(W)
    best = np.inf
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        for t in np.linspace(0.0, 1.0, 20001):
            p = a + t * (b - a)
            best = min(best, np.linalg.norm(p - w_bar))
    assert ev.distance_mw == pytest.approx(best * case.base_mva, abs=1e-4)
    assert ev.distance_mw <= min(np.linalg.norm(v - w_bar) for v in verts) \
        * case.base_mva + 1e-9


def test_high_risk_event_3d_projection_path():
    # Cube with the forecast off-center: nearest boundary is the x=1 face.
    W = Polytope(H=np.vstack([np.eye(3), -np.eye(3)]),
                 f=np.concatenate([np.ones(3), np.zeros(3)]),
                 provenance=tuple(FacetProvenance("Cut", iteration=i)
                                  for i in range(6)))
    ev = high_risk_event(W, np.array([0.9, 0.5, 0.5]), base_mva=100.0)
    assert ev.distance_mw == pytest.approx(10.0, abs=1e-6)
    assert ev.to_mw == pytest.approx([100.0, 50.0, 50.0], abs=1e-6)


def test_high_risk_event_certified_on_random_polytopes():
    # The closed form: the nearest facet hyperplane's perpendicular foot.
    rng = np.random.default_rng(2024)
    for t in range(150):
        d = 1 + t % 5
        H = np.vstack([rng.normal(size=(d + 1 + rng.integers(0, 2 * d + 4), d)),
                       np.eye(d), -np.eye(d)])
        f = rng.uniform(0.2, 1.0, size=H.shape[0]) * np.linalg.norm(H, axis=1)
        W = Polytope(H=H, f=f, provenance=tuple(
            FacetProvenance("Cut", iteration=i) for i in range(H.shape[0])))
        w_bar = rng.uniform(-0.1, 0.1, size=d)
        ev = high_risk_event(W, w_bar, base_mva=1.0)
        gaps = W.f - W.H @ w_bar
        assert not ev.degenerate
        assert W.contains(ev.to_mw, tol=1e-9)
        assert abs(W.H[ev.facet] @ ev.to_mw - W.f[ev.facet]) < 1e-9
        assert ev.distance_mw == pytest.approx(gaps[ev.facet], abs=1e-12)
        assert ev.distance_mw == pytest.approx(
            np.linalg.norm(ev.to_mw - w_bar), abs=1e-12)
        assert gaps.min() >= ev.distance_mw - 1e-12


def test_high_risk_event_solves_no_lp(monkeypatch):
    import drrcalc.lp as lp_mod

    def no_lp(*args, **kwargs):
        raise AssertionError("high_risk_event solved an LP")

    monkeypatch.setattr(lp_mod, "solve_lp", no_lp)
    monkeypatch.setattr(lp_mod, "_pass_and_run", no_lp)
    # A 5-D region whose nearest facet is a cut, not a box face.
    H = np.vstack([np.eye(5), -np.eye(5), np.ones((1, 5))])
    f = np.concatenate([np.ones(5), np.zeros(5), [2.0]])
    W = Polytope(H=H, f=f, provenance=tuple(FacetProvenance("Cut", iteration=i)
                                            for i in range(11)))
    ev = high_risk_event(W, np.full(5, 0.3), base_mva=100.0)
    assert ev.facet == 10
    assert ev.distance_mw == pytest.approx(50.0 / np.sqrt(5), abs=1e-9)


def test_export_artifacts_pjm5(tmp_path, pjm_run):
    case, cfg, res = pjm_run
    w_bar = np.array(case.forecast_mw) / case.base_mva
    report = identify(res.model, res.region, w_bar, cfg)
    event = high_risk_event(res.region, w_bar, base_mva=case.base_mva)
    frag = export_artifacts(res, report, event, tmp_path,
                            w_bar_mw=np.array(case.forecast_mw))
    for name in ("trace.csv", "region.json", "binding.json", "event.json",
                 "region.svg"):
        assert (tmp_path / name).exists()
    trace = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "k,objective_pu,cuts_added,oracle_ms"
    assert len(trace) == 1 + res.iterations
    region = json.loads((tmp_path / "region.json").read_text())
    assert region["units"] == "MW"
    assert len(region["vertices_mw"]) >= 3
    assert "thread_count" not in region["config"]
    svg = (tmp_path / "region.svg").read_text()
    assert svg.count("<path") == 2           # polygon + arrow head
    assert "<circle" in svg and "xmlns" in svg


def test_export_skips_svg_above_2d(tmp_path, pjm_run):
    import copy
    case, cfg, res = pjm_run
    W3 = Polytope(H=np.vstack([np.eye(3), -np.eye(3)]),
                  f=np.concatenate([np.ones(3), np.zeros(3)]),
                  provenance=tuple(FacetProvenance("Cut", iteration=i)
                                   for i in range(6)))
    res3 = copy.copy(res)
    res3.region = W3
    # export writes the report as given, so the 2-D run's stands in.
    w_bar = np.array(case.forecast_mw) / case.base_mva
    report = identify(res.model, res.region, w_bar, cfg)
    event = high_risk_event(W3, np.full(3, 0.5), base_mva=100.0)
    frag = export_artifacts(res3, report, event, tmp_path, w_bar_mw=np.zeros(3))
    assert not (tmp_path / "region.svg").exists()
    assert sorted(frag["files"]) == ["binding", "event", "region", "trace"]
    assert any("svg_skipped" in n for n in frag["notes"])


def test_region_payload_excludes_timing(pjm_run):
    case, _, res = pjm_run
    payload = region_payload(res, np.array(case.forecast_mw))
    text = json.dumps(payload)
    assert "oracle_ms" not in text and "thread_count" not in text


def test_pjm5_region_geometry_frozen(pjm_run):
    # Regression pin: the exact-path region is unique (criterion-level tests
    # tie it to ground truth), so its polygon area is a stable fingerprint.
    case, _, res = pjm_run
    verts = vertices_2d(res.region) * case.base_mva
    area = 0.0
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        area += a[0] * b[1] - b[0] * a[1]
    area /= 2.0
    assert area == pytest.approx(16273.62168591429, abs=1.0)
    assert len(verts) == 6
    assert res.region.contains(np.array([1.00, 0.90]))      # forecast inside
