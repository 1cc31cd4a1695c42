"""Perturbation-based binding-constraint identification."""

import os
import threading

import numpy as np
import pytest

import drrcalc.binding as binding_mod
import drrcalc.lp as lp_mod
from drrcalc.binding import (ORIGIN_BOX, ORIGIN_PHYSICAL, identify,
                             probe_point, terminal_points)
from drrcalc.caseio import StudyConfig
from drrcalc.dispatch_model import build_compact, feasibility_model, initial_dispatch
from drrcalc.engine import run
from drrcalc.errors import AmbiguousFacet, DimensionMismatch, FacetInfeasible
from drrcalc.polytope import FacetProvenance, Polytope


@pytest.fixture(scope="module")
def two_result():
    from tests.conftest import load_case
    case = load_case("case2_ramp")
    cfg = StudyConfig()
    return case, cfg, run(case, cfg, method="milp")


@pytest.fixture(scope="module")
def pjm_result():
    from tests.conftest import load_case
    case = load_case("case5_wind")
    cfg = StudyConfig()
    return case, cfg, run(case, cfg, method="milp")


@pytest.fixture(scope="module")
def ieee39_result():
    from tests.conftest import load_case
    case = load_case("case39_wind")
    cfg = StudyConfig(seed=0)
    return case, cfg, run(case, cfg, method="iblp")


def unit_square():
    return Polytope(
        H=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        f=[1.0, 1.0, 0.0, 0.0],
        provenance=tuple(FacetProvenance("Cut", iteration=i) for i in range(4)))


def test_terminal_points_unit_square():
    w_u, w_l = terminal_points(unit_square(), 0)
    assert w_u == pytest.approx([1.0, 1.0], abs=1e-9)
    assert w_l == pytest.approx([1.0, 0.0], abs=1e-9)


def test_terminal_points_1d_facet_is_point(two_result):
    _, _, res = two_result
    for i in range(res.region.n_facets):
        w_u, w_l = terminal_points(res.region, i)
        assert w_u == pytest.approx(w_l, abs=1e-9)


def _square_with_an_empty_facet():
    """The unit square and a fifth facet, w_0 <= 2, that no point of it reaches."""
    W = unit_square()
    return Polytope(H=np.vstack([W.H, [[1.0, 0.0]]]),
                    f=np.concatenate([W.f, [2.0]]),
                    provenance=W.provenance + (FacetProvenance("Cut", iteration=9),))


def test_terminal_points_infeasible_facet():
    with pytest.raises(FacetInfeasible):
        terminal_points(_square_with_an_empty_facet(), 4)


def test_facet_infeasible_in_a_worker_reaches_the_caller(pjm_result, monkeypatch):
    # Two threads on any box: facet 4 of the region fails on a pool thread,
    # and identify raises that FacetInfeasible.
    case, _, res = pjm_result
    terminal, failed_on = binding_mod.terminal_points, []

    def recording(W, i):
        try:
            return terminal(W, i)
        except FacetInfeasible:
            failed_on.append(threading.get_ident())
            raise

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(binding_mod, "terminal_points", recording)
    w_bar = np.array(case.forecast_mw) / case.base_mva
    with pytest.raises(FacetInfeasible, match="facet 4 admits no point"):
        identify(res.model, _square_with_an_empty_facet(), w_bar,
                 StudyConfig(thread_count=2), allow_unresolved=True)
    assert failed_on and threading.get_ident() not in failed_on


def test_probe_point_formula():
    # Midpoint 65, forecast 50: probe lands just outside at 65.15.
    probe = probe_point(np.array([65.0]), np.array([65.0]), np.array([50.0]),
                        lam=0.01)
    assert probe == pytest.approx([65.15], abs=1e-12)
    below = probe_point(np.array([45.0]), np.array([45.0]), np.array([50.0]),
                        lam=0.01)
    assert below == pytest.approx([44.95], abs=1e-12)
    fixed = probe_point(np.array([50.0]), np.array([50.0]), np.array([50.0]),
                        lam=0.01)
    assert fixed == pytest.approx([50.0], abs=1e-12)


def test_twobus_binding_sets(two_result):
    case, cfg, res = two_result
    w_bar = np.array(case.forecast_mw) / case.base_mva
    report = identify(res.model, res.region, w_bar, cfg)
    assert len(report.entries) == res.region.n_facets
    upper_expected = {"ramp-down limit of generator 1 at bus 1",
                      "ramp-down limit of generator 2 at bus 2"}
    lower_expected = {"ramp-up limit of generator 2 at bus 2",
                      "thermal limit of line 1-2 (forward)"}
    for e in report.entries:
        assert e.origin == ORIGIN_PHYSICAL
        labels = {b.label for b in e.bindings}
        assert labels
        if e.w_upper_mw[0] > 55.0:   # the w <= 65 facet
            assert labels <= upper_expected
        else:                        # the w >= 45 facet
            assert labels <= lower_expected


def test_probe_exteriority(two_result):
    case, cfg, res = two_result
    w_bar = np.array(case.forecast_mw) / case.base_mva
    lam = cfg.perturb_lambda
    for i in range(res.region.n_facets):
        w_u, w_l = terminal_points(res.region, i)
        mid = (w_u + w_l) / 2
        outside = probe_point(w_u, w_l, w_bar, lam)
        inside = mid - lam * (mid - w_bar)   # same step, pulled inward
        assert feasibility_model(res.model, outside).objective > 1e-9
        assert feasibility_model(res.model, inside).objective <= 1e-9


def test_pjm5_box_facets_identified(pjm_result):
    case, cfg, res = pjm_result
    w_bar = np.array(case.forecast_mw) / case.base_mva
    report = identify(res.model, res.region, w_bar, cfg)
    by_origin = {}
    for e in report.entries:
        by_origin.setdefault(e.origin, []).append(e)
    assert {e.provenance for e in by_origin[ORIGIN_BOX]} == {
        p.label() for p in res.region.provenance if p.kind == "InitialBox"}
    # Physical facets on this system trace back to line 4-5 or unit ramps.
    for e in by_origin[ORIGIN_PHYSICAL]:
        assert e.bindings
        for b in e.bindings:
            assert b.kind in ("FlowUpper", "FlowLower", "GenUpper", "GenLower")


@pytest.mark.parametrize("fixture", ["pjm_result", "ieee39_result"])
def test_a_cut_on_a_capacity_bound_is_a_box_facet(fixture, request):
    # Facet 0, farm 0's capacity bound, relabeled as a cut: its probe stays
    # feasible, and the facet lies on the box, so its origin is the box.
    case, cfg, res = request.getfixturevalue(fixture)
    W = res.region
    assert W.provenance[0].label() == "initial upper bound of farm 0"
    relabeled = Polytope(H=W.H, f=W.f, provenance=(
        FacetProvenance("Cut", iteration=99),) + W.provenance[1:])
    w_bar = np.array(case.forecast_mw) / case.base_mva
    entry = identify(res.model, relabeled, w_bar, cfg).entries[0]
    assert entry.provenance == "cut from iteration 99"
    assert entry.origin == ORIGIN_BOX
    assert entry.bindings == []


def test_identify_assembles_the_slacked_model_once(pjm_result, monkeypatch):
    # build_compact assembles the slacked LP's matrix when it builds the LP.
    # Every feasibility solve of an identify call is a with_vectors copy of
    # it, so identify assembles it no more.
    case, cfg, res = pjm_result
    assembled, feasibility_solves = [], []
    build, feasibility = lp_mod._csc, binding_mod.feasibility_model

    def count_build(A, *args):
        assembled.append(A.shape[1])
        return build(A, *args)

    def count_feasibility(*args, **kwargs):
        feasibility_solves.append(1)
        return feasibility(*args, **kwargs)

    monkeypatch.setattr(lp_mod, "_csc", count_build)
    monkeypatch.setattr(binding_mod, "feasibility_model", count_feasibility)
    m = build_compact(case, initial_dispatch(case, cfg))
    slacked_cols = m.slacked.nvar
    assert assembled.count(slacked_cols) == 1
    assembled.clear()
    w_bar = np.array(case.forecast_mw) / case.base_mva
    identify(m, res.region, w_bar, cfg)
    assert len(feasibility_solves) > 2
    assert assembled.count(slacked_cols) == 0


@pytest.mark.parametrize("region_dim, forecast_size", [(1, 2), (2, 1)])
def test_identify_rejects_a_region_or_forecast_of_another_dimension(
        pjm_result, region_dim, forecast_size):
    # PJM-5 has 2 farms; a 1-D region or forecast must not be broadcast
    # into a report.
    case, cfg, res = pjm_result
    W = Polytope(H=np.vstack([np.eye(region_dim), -np.eye(region_dim)]),
                 f=np.concatenate([np.ones(region_dim), np.zeros(region_dim)]),
                 provenance=tuple(FacetProvenance("Cut", iteration=i)
                                  for i in range(2 * region_dim)))
    w_bar = np.full(forecast_size, 0.5)
    with pytest.raises(DimensionMismatch):
        identify(res.model, W, w_bar, cfg)


def test_lambda_halving_stability(two_result, pjm_result):
    for case, cfg, res in (two_result, pjm_result):
        w_bar = np.array(case.forecast_mw) / case.base_mva
        full = identify(res.model, res.region, w_bar, cfg)
        halved_cfg = StudyConfig(perturb_lambda=cfg.perturb_lambda / 2)
        halved = identify(res.model, res.region, w_bar, halved_cfg)
        kinds_a = [sorted({b.kind for b in e.bindings}) for e in full.entries]
        kinds_b = [sorted({b.kind for b in e.bindings}) for e in halved.entries]
        assert kinds_a == kinds_b


def test_ambiguous_facet_raises_without_flag(two_result):
    case, cfg, res = two_result
    # A facet strictly inside the admissible band: its probe stays feasible
    # but no provenance or box bound explains it.
    loose = Polytope(H=[[1.0], [-1.0]], f=[0.64, -0.45],
                     provenance=(FacetProvenance("Cut", iteration=77),
                                 FacetProvenance("Cut", iteration=78)))
    w_bar = np.array(case.forecast_mw) / case.base_mva
    with pytest.raises(AmbiguousFacet):
        identify(res.model, loose, w_bar, cfg)
    report = identify(res.model, loose, w_bar, cfg, allow_unresolved=True)
    assert any(e.origin == "Unresolved" for e in report.entries)


def test_report_serialization(two_result):
    case, cfg, res = two_result
    w_bar = np.array(case.forecast_mw) / case.base_mva
    report = identify(res.model, res.region, w_bar, cfg)
    table = report.table()
    assert "facet" in table and "binding constraints" in table
    payload = report.to_json()
    assert payload["lambda"] == cfg.perturb_lambda
    assert len(payload["facets"]) == len(report.entries)


def test_ieee39_binding_all_facets_resolved(ieee39_result):
    case, cfg, res = ieee39_result
    w_bar = np.array(case.forecast_mw) / case.base_mva
    report = identify(res.model, res.region, w_bar, cfg)
    assert len(report.entries) == res.region.n_facets
    origins = {e.origin for e in report.entries}
    assert origins <= {ORIGIN_PHYSICAL, ORIGIN_BOX}
    for e in report.entries:
        assert bool(e.bindings) == (e.origin == ORIGIN_PHYSICAL)


def _two_circuit_case():
    """case2_ramp with its 70 MW line split into two 40 MW circuits, of
    reactance 0.15 and 0.3 pu (0.1 pu in parallel)."""
    from drrcalc.caseio import apply_renewables, load_renewables_file, parse_matpower
    from tests.conftest import CASE_DIR
    one = "\t1\t2\t0\t0.1\t0\t70\t70\t70\t0\t0\t1\t-360\t360;\n"
    text = (CASE_DIR / "case2_ramp.m").read_text()
    assert one in text
    two = "".join(f"\t1\t2\t0\t{x}\t0\t40\t40\t40\t0\t0\t1\t-360\t360;\n"
                  for x in ("0.15", "0.3"))
    return apply_renewables(parse_matpower(text.replace(one, two)),
                            load_renewables_file(CASE_DIR / "case2_ramp_renewables.json"))


def test_parallel_circuits_get_a_label_each():
    # The 0.15 pu circuit carries two thirds of the flow, so its rating
    # binds first: the report must say which circuit binds.
    case = _two_circuit_case()
    cfg = StudyConfig()
    res = run(case, cfg, method="milp")
    labels = [r.label for r in res.model.eq_rows + res.model.in_rows]
    assert len(set(labels)) == len(labels)
    assert "thermal limit of line 1-2 circuit 2 (reverse)" in labels
    report = identify(res.model, res.region, np.array(case.forecast_mw) / case.base_mva,
                      cfg)
    named = {b.label for e in report.entries for b in e.bindings}
    assert "thermal limit of line 1-2 circuit 1 (forward)" in named
    assert not [label for label in named if "circuit 2" in label]


@pytest.mark.parametrize("fixture", ["twobus", "pjm5", "ieee39"])
def test_shipped_labels_are_unique_and_unnumbered(fixture, cfg, request):
    # No shipped case has parallel circuits, so no label gets a circuit.
    case = request.getfixturevalue(fixture)
    m = build_compact(case, initial_dispatch(case, cfg))
    labels = [r.label for r in m.eq_rows + m.in_rows]
    assert len(set(labels)) == len(labels)
    assert not [label for label in labels if "circuit" in label]


def test_ieee39_binding_json_is_byte_equal_for_1_2_and_4_threads(
        ieee39_result, monkeypatch, tmp_path):
    # Four cores whatever the box has: 1, 2 and 4 threads all really run.
    from drrcalc.analysis import write_binding_json
    case, _, res = ieee39_result
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    w_bar = np.array(case.forecast_mw) / case.base_mva
    written = []
    for threads in (1, 2, 4):
        cfg = StudyConfig(seed=0, thread_count=threads)
        report = identify(res.model, res.region, w_bar, cfg)
        write_binding_json(report, tmp_path / str(threads), res.method,
                           cfg.algorithmic_echo())
        written.append((tmp_path / str(threads) / "binding.json").read_bytes())
    assert written[0] == written[1] == written[2]


def test_facets_are_explained_on_the_worker_threads(ieee39_result, monkeypatch):
    # Two threads on any box.  Each thread's first feasibility LP waits at
    # a barrier for another thread's, so two threads must explain facets,
    # however the box schedules them; neither is the calling thread.
    case, _, res = ieee39_result
    feasibility, caller = binding_mod.feasibility_model, threading.get_ident()
    both, ran_on = threading.Barrier(2, timeout=60), []

    def recording(*args, **kwargs):
        if threading.get_ident() not in ran_on:
            ran_on.append(threading.get_ident())
            both.wait()
        return feasibility(*args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(binding_mod, "feasibility_model", recording)
    w_bar = np.array(case.forecast_mw) / case.base_mva
    identify(res.model, res.region, w_bar, StudyConfig(thread_count=2))
    assert len(ran_on) == 2 and caller not in ran_on

    # One thread: every feasibility LP on the calling thread.
    serial = []

    def on_this_thread(*args, **kwargs):
        serial.append(threading.get_ident())
        return feasibility(*args, **kwargs)

    monkeypatch.setattr(binding_mod, "feasibility_model", on_this_thread)
    identify(res.model, res.region, w_bar, StudyConfig(thread_count=1))
    assert serial and set(serial) == {caller}
