"""Acceptance battery: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expensive region computations are shared through module fixtures.
"""

import json
import os
import time

import numpy as np
import pytest

from drrcalc.analysis import high_risk_event, region_payload, vertices_2d
from drrcalc.binding import ORIGIN_PHYSICAL, identify
from drrcalc.caseio import (StudyConfig, apply_renewables, parse_matpower,
                            RenewableSpec)
from drrcalc.dispatch_model import build_compact, feasibility_model, initial_dispatch
from drrcalc.engine import CONVERGED, init_w0, run
from drrcalc.lp import solve_lp
from drrcalc.maxmin_milp import multiplier_lp, solve_maxmin_milp
from tests.conftest import box_bounds, chebyshev_center, load_case, recorded_run


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def two():
    return load_case("case2_ramp")


@pytest.fixture(scope="module")
def pjm5m():
    return load_case("case5_wind")


@pytest.fixture(scope="module")
def ieee39m():
    return load_case("case39_wind")


def _runs(stem):
    """Both methods at the default settings, recorded (tests.conftest)."""
    recs = {method: recorded_run(stem, method) for method in ("milp", "iblp")}
    return {**{method: rec.result for method, rec in recs.items()},
            "recorded": recs,
            "seconds": sum(rec.seconds for rec in recs.values())}


@pytest.fixture(scope="module")
def pjm5_runs():
    return _runs("case5_wind")


@pytest.fixture(scope="module")
def ieee39_runs():
    return _runs("case39_wind")


def _interior_points(result, count, seed):
    """Hit-and-run sample of the converged region, certified dispatchable.

    Boundary slivers where the region is only eps_term-accurate may fail the
    certification; the walk simply continues until `count` certified points
    are collected (with a hard attempt cap).
    """
    W = result.region
    x, radius = chebyshev_center(W)
    assert radius > 1e-6
    rng = np.random.default_rng(seed)
    certified = []
    shrink = 0.98
    attempts = 0
    while len(certified) < count:
        attempts += 1
        assert attempts <= 5 * count, "certification keeps rejecting samples"
        d = rng.normal(size=W.dim)
        d /= np.linalg.norm(d)
        denom = W.H @ d
        gaps = W.f - W.H @ x
        t_hi = np.inf
        t_lo = -np.inf
        for g, dn in zip(gaps, denom):
            if dn > 1e-12:
                t_hi = min(t_hi, g / dn)
            elif dn < -1e-12:
                t_lo = max(t_lo, g / dn)
        t = rng.uniform(shrink * t_lo, shrink * t_hi)
        x = x + t * d
        if feasibility_model(result.model, x).objective <= 1e-9:
            certified.append(x.copy())
    return certified


# --- criteria --------------------------------------------------------------------


def test_criterion_01_twobus_analytic(two):
    cfg = StudyConfig(s1_count=40)
    t0 = time.perf_counter()
    results = {m: run(two, cfg, method=m) for m in ("milp", "iblp")}
    w_bar = np.array(two.forecast_mw) / two.base_mva
    reports = {m: identify(r.model, r.region, w_bar, cfg)
               for m, r in results.items()}
    elapsed = time.perf_counter() - t0

    ok = elapsed < 1.0
    detail = f"runtime {elapsed:.2f}s"
    upper_ok = {"ramp-down limit of generator 1 at bus 1",
                "ramp-down limit of generator 2 at bus 2"}
    lower_ok = {"ramp-up limit of generator 2 at bus 2",
                "thermal limit of line 1-2 (forward)"}
    for method, res in results.items():
        ok &= res.termination == CONVERGED
        lo, hi = box_bounds(res.region)
        ok &= abs(lo[0] * 100.0 - 45.0) <= 1e-6
        ok &= abs(hi[0] * 100.0 - 65.0) <= 1e-6
        detail += f"; {method} [{lo[0]*100:.8f}, {hi[0]*100:.8f}] MW"
        for e in reports[method].entries:
            labels = {b.label for b in e.bindings}
            ok &= e.origin == ORIGIN_PHYSICAL and bool(labels)
            ok &= labels <= (upper_ok if e.w_upper_mw[0] > 55 else lower_ok)
    _report(1, "two-bus analytic band and binding sets", ok, detail)


def _random_threebus(seed):
    rng = np.random.default_rng(seed)
    x = [float(v) for v in rng.uniform(0.05, 0.2, size=3)]
    rate = [float(v) for v in rng.uniform(80, 150, size=3)]
    load2, load3 = (float(v) for v in rng.uniform(40, 120, size=2))
    pmax = [float(v) for v in rng.uniform(120, 220, size=2)]
    caps = [float(v) for v in rng.uniform(60, 120, size=2)]
    fore = [float(c * u) for c, u in zip(caps, rng.uniform(0.3, 0.7, size=2))]
    text = f"""function mpc = r{seed}
mpc.baseMVA = 100;
mpc.bus = [
1 3 0 0 0 0 1 1 0 110 1 1.1 0.9;
2 1 {load2!r} 0 0 0 1 1 0 110 1 1.1 0.9;
3 1 {load3!r} 0 0 0 1 1 0 110 1 1.1 0.9;
];
mpc.gen = [
1 0 0 0 0 1 100 1 {pmax[0]!r} 0;
2 0 0 0 0 1 100 1 {pmax[1]!r} 0;
2 0 0 0 0 1 100 1 {caps[0]!r} 0;
3 0 0 0 0 1 100 1 {caps[1]!r} 0;
];
mpc.branch = [
1 2 0 {x[0]!r} 0 {rate[0]!r} 0 0 0 0 1 -360 360;
2 3 0 {x[1]!r} 0 {rate[1]!r} 0 0 0 0 1 -360 360;
1 3 0 {x[2]!r} 0 {rate[2]!r} 0 0 0 0 1 -360 360;
];
mpc.gencost = [
2 0 0 2 10 0;
2 0 0 2 22 0;
2 0 0 2 0 0;
2 0 0 2 0 0;
];
"""
    specs = [RenewableSpec(3, float(fore[0])), RenewableSpec(4, float(fore[1]))]
    return apply_renewables(parse_matpower(text), specs)


def _grid_disagreement(res_a, res_b, n=200):
    lo, hi = box_bounds(init_w0(res_a.model))
    axes = [np.linspace(lo[d], hi[d], n) for d in range(len(lo))]
    G = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, len(lo))
    in_a = np.all(G @ res_a.region.H.T <= res_a.region.f + 1e-6, axis=1)
    in_b = np.all(G @ res_b.region.H.T <= res_b.region.f + 1e-6, axis=1)
    return float(np.logical_xor(in_a, in_b).mean())


def test_criterion_02_method_agreement(pjm5_runs):
    details = []
    ok = True
    diff = _grid_disagreement(pjm5_runs["milp"], pjm5_runs["iblp"])
    ok &= diff <= 1e-3 and pjm5_runs["seconds"] < 30.0
    details.append(f"pjm5 {diff*100:.4f}% {pjm5_runs['seconds']:.1f}s")

    produced = 0
    seed = 0
    while produced < 5:
        seed += 1
        assert seed <= 40, "random three-bus systems keep failing"
        try:
            case = _random_threebus(seed)
            t0 = time.perf_counter()
            ra = run(case, StudyConfig(), method="milp")
            rb = run(case, StudyConfig(), method="iblp")
            elapsed = time.perf_counter() - t0
        except Exception:
            continue  # infeasible draw: take the next seed
        if ra.termination != CONVERGED or rb.termination != CONVERGED:
            continue
        produced += 1
        diff = _grid_disagreement(ra, rb)
        ok &= diff <= 1e-3 and elapsed < 30.0
        details.append(f"s{seed} {diff*100:.4f}% {elapsed:.1f}s")
    _report(2, "exact and heuristic regions agree", ok, "; ".join(details))


def test_criterion_03_bruteforce_membership(pjm5_runs):
    res = pjm5_runs["milp"]
    m = res.model
    W = res.region
    lo, hi = box_bounds(init_w0(m))
    t0 = time.perf_counter()
    xs = np.linspace(lo[0], hi[0], 100)
    ys = np.linspace(lo[1], hi[1], 100)
    checked = skipped = mismatches = 0
    for x in xs:
        for y in ys:
            w = np.array([x, y])
            if np.min(np.abs(W.violations(w))) < 1e-4:
                skipped += 1
                continue
            checked += 1
            member = bool(np.all(W.H @ w <= W.f + 1e-6))
            dispatchable = feasibility_model(m, w).objective <= 1e-6
            mismatches += member != dispatchable
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    _report(3, "region membership equals dispatchability", ok,
            f"{checked} points, {skipped} near-facet skipped, "
            f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_04_strong_duality(two, pjm5m, ieee39m):
    ok = True
    details = []
    for name, case in (("two", two), ("pjm5", pjm5m), ("ieee39", ieee39m)):
        cfg = StudyConfig()
        m = build_compact(case, initial_dispatch(case, cfg))
        lo, hi = box_bounds(init_w0(m))
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(20):
            w = rng.uniform(lo, hi)
            dual = solve_lp(multiplier_lp(m, w)).objective
            feas = feasibility_model(m, w).objective
            worst = max(worst, abs(dual - feas))
        ok &= worst <= 1e-6
        details.append(f"{name} gap {worst:.2e}")
    _report(4, "dual value equals slacked objective", ok, "; ".join(details))


def test_criterion_05_milp_oracle_exact(two):
    cfg = StudyConfig()
    m = build_compact(two, initial_dispatch(two, cfg))
    W0 = init_w0(m)
    sol = solve_maxmin_milp(m, W0, cfg)
    grid = np.arange(0.0, 1.0 + 1e-12, 0.001)   # 0.1 MW steps over the box
    scan = max(feasibility_model(m, [w]).objective for w in grid)
    d = sol.diagnostics
    ok = (abs(sol.F - scan) <= 1e-3
          and d["kkt_residual"] <= 1e-7
          and d["complementarity_residual"] <= 1e-6
          and d["big_m_margin"] >= 0.01)
    _report(5, "exact oracle equals grid scan with clean KKT", ok,
            f"F {sol.F:.6f} vs scan {scan:.6f}; kkt {d['kkt_residual']:.1e}; "
            f"comp {d['complementarity_residual']:.1e}; "
            f"margin {d['big_m_margin']*100:.1f}%")


def test_criterion_06_cut_soundness(pjm5_runs, ieee39_runs):
    ok = True
    details = []
    for name, runs in (("pjm5", pjm5_runs), ("ieee39", ieee39_runs)):
        pts = _interior_points(runs["milp"], 500, seed=23)
        ok &= len(pts) == 500
        worst = 0.0
        cuts = runs["recorded"]["milp"].cuts() + runs["recorded"]["iblp"].cuts()
        for normal, offset, _ in cuts:
            for p in pts:
                worst = max(worst, normal @ p - offset)
        ok &= worst <= 1e-6
        details.append(f"{name}: {len(cuts)} cuts x {len(pts)} pts, "
                       f"worst {worst:.2e}")
    _report(6, "no cut excludes a certified dispatchable point", ok,
            "; ".join(details))


def test_criterion_06_cut_soundness_by_weak_duality(pjm5_runs, ieee39_runs):
    # Exact, where criterion 06 samples.  If B'alpha = F'delta, C'alpha =
    # G'delta, D'alpha = J'delta and delta >= 0, any dispatch (p, l, v) of w
    # gives alpha'(b - Aw) = delta'(Fp + Gl + Jv) <= delta'd: the cut built
    # from (alpha, delta) keeps every dispatchable w.  Every cut a run added,
    # and every Cut row of its final region, is the cut of the recorded
    # solution its provenance names (iteration, and scenario for iblp),
    # scaled to a unit normal: -a'A w <= -(a'b - d'm.d).
    ok = True
    details = []
    for name, runs in (("pjm5", pjm5_runs), ("ieee39", ieee39_runs)):
        residual = tied = 0.0
        delta_min = np.inf
        cuts = final = 0
        for rec in runs["recorded"].values():
            res, m = rec.result, rec.result.model
            solutions = {(k, s.diagnostics.get("scenario")): s
                         for k, call in enumerate(rec.calls, start=1)
                         for s in call.solutions}
            rows = rec.cuts()
            cuts += len(rows)
            kept = [(h, f, tag) for h, f, tag in zip(res.region.H, res.region.f,
                                                      res.region.provenance)
                    if tag.kind == "Cut"]
            final += len(kept)
            for h, f, tag in rows + kept:
                s = solutions[(tag.iteration, tag.scenario)]
                a, d = s.alpha, s.delta
                for X, Y in ((m.B, m.F), (m.C, m.G), (m.D, m.J)):
                    residual = max(residual, np.abs(X.T @ a - Y.T @ d).max())
                delta_min = min(delta_min, d.min())
                normal = -(a @ m.A)
                scale = np.linalg.norm(normal)
                tied = max(tied, np.abs(h - normal / scale).max(),
                           abs(f + (a @ m.b - d @ m.d) / scale))
        ok &= residual <= 1e-9 and delta_min >= -1e-9 and tied <= 1e-9
        ok &= 0 < final < cuts
        details.append(f"{name}: {cuts} cuts, {final} in the region, "
                       f"coupling residual {residual:.2e}, min delta "
                       f"{delta_min:.2e}, cut mismatch {tied:.2e}")
    _report(6, "every cut's multipliers are dual feasible", ok,
            "; ".join(details))


def test_criterion_07_monotonicity(pjm5_runs):
    res = pjm5_runs["milp"]
    Fs = [t.F for t in res.trace]
    ok = all(b <= a + 1e-9 for a, b in zip(Fs, Fs[1:]))
    ok &= all(F >= -1e-9 for F in Fs)
    lo, hi = box_bounds(init_w0(res.model))
    rng = np.random.default_rng(5)
    pts = rng.uniform(lo, hi, size=(100, len(lo)))
    # The region each oracle call searched, W_0 to W_{K-1}, then W_K.
    regions = [call.region for call in pjm5_runs["recorded"]["milp"].calls] + [res.region]
    ok &= len(regions) == res.iterations + 1
    for prev, nxt in zip(regions, regions[1:]):
        in_prev = np.all(pts @ prev.H.T <= prev.f + 1e-9, axis=1)
        in_next = np.all(pts @ nxt.H.T <= nxt.f + 1e-9, axis=1)
        ok &= not bool(np.any(in_next & ~in_prev))
    _report(7, "exact-path objective monotone, regions nested", ok,
            "F trace " + ">".join(f"{F:.3f}" for F in Fs))


def test_criterion_08_iteration_counts(pjm5_runs, ieee39_runs):
    p_milp = pjm5_runs["milp"].iterations
    p_iblp = pjm5_runs["iblp"].iterations
    n_milp = ieee39_runs["milp"].iterations
    n_iblp = ieee39_runs["iblp"].iterations
    ok = (p_milp <= 15 and p_iblp <= 8 and n_iblp < n_milp
          and all(r.termination == CONVERGED
                  for r in (pjm5_runs["milp"], pjm5_runs["iblp"],
                            ieee39_runs["milp"], ieee39_runs["iblp"])))
    _report(8, "iteration counts within documented envelopes", ok,
            f"pjm5 milp {p_milp} (<=15), iblp {p_iblp} (<=8); "
            f"ieee39 iblp {n_iblp} < milp {n_milp}")


def test_criterion_09_thread_determinism(pjm5m, ieee39m):
    ok = True
    details = []
    for name, case in (("pjm5", pjm5m), ("ieee39", ieee39m)):
        payloads = []
        for threads in (1, 4):
            cfg = StudyConfig(thread_count=threads, seed=0)
            res = run(case, cfg, method="iblp")
            w_bar = np.array(case.forecast_mw)
            payloads.append(json.dumps(region_payload(res, w_bar),
                                       indent=1, sort_keys=True))
        same = payloads[0] == payloads[1]
        ok &= same
        details.append(f"{name} {'identical' if same else 'DIFFERS'}")
    _report(9, "region bytes identical for 1 and 4 workers", ok,
            "; ".join(details))


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="thread-scaling direction needs >= 4 cores")
def test_criterion_10_thread_scaling(ieee39m):
    times = {}
    for threads in (1, 4):
        samples = []
        for _ in range(3):
            cfg = StudyConfig(thread_count=threads, seed=0)
            t0 = time.perf_counter()
            run(ieee39m, cfg, method="iblp")
            samples.append(time.perf_counter() - t0)
        times[threads] = sorted(samples)[1]
    ok = times[4] <= times[1]
    _report(10, "multi-worker heuristic no slower than serial", ok,
            f"median st {times[1]:.2f}s, mt {times[4]:.2f}s")


def test_criterion_11_high_risk_event(two, pjm5m, pjm5_runs):
    cfg = StudyConfig()
    res2 = run(two, StudyConfig(s1_count=40), method="milp")
    ev2 = high_risk_event(res2.region, np.array([0.50]), base_mva=100.0)
    ok = (abs(ev2.to_mw[0] - 45.0) <= 1e-6
          and abs(ev2.distance_mw - 5.0) <= 1e-6)

    res5 = pjm5_runs["milp"]
    w_bar = np.array(pjm5m.forecast_mw) / pjm5m.base_mva
    ev5 = high_risk_event(res5.region, w_bar, base_mva=pjm5m.base_mva)
    verts = vertices_2d(res5.region)
    brute = np.inf
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        seg = b - a
        denom = float(seg @ seg)
        t = 0.0 if denom < 1e-18 else np.clip((w_bar - a) @ seg / denom, 0.0, 1.0)
        brute = min(brute, float(np.linalg.norm(a + t * seg - w_bar)))
    ok &= abs(ev5.distance_mw - brute * pjm5m.base_mva) <= 1e-6
    _report(11, "highest-risk ramp matches projection oracle", ok,
            f"two-bus to {ev2.to_mw[0]:.6f} MW d={ev2.distance_mw:.6f}; "
            f"pjm5 d={ev5.distance_mw:.6f} vs brute {brute*pjm5m.base_mva:.6f}")
