"""Command-line workflow and exit-code contract."""

import json
import math
import os

import numpy as np
import pytest

from drrcalc import cli
from drrcalc.caseio import StudyConfig
from drrcalc.cli import main
from drrcalc.dispatch_model import build_compact, initial_dispatch
from drrcalc.maxmin_milp import MaxMinSolution
from tests.conftest import CASE_DIR

TWO = str(CASE_DIR / "case2_ramp.m")
TWO_R = str(CASE_DIR / "case2_ramp_renewables.json")
PJM = str(CASE_DIR / "case5_wind.m")
PJM_R = str(CASE_DIR / "case5_wind_renewables.json")


def test_compute_twobus_milp(tmp_path, capsys):
    code = main(["compute", "--case", TWO, "--renewables", TWO_R,
                 "--method", "milp", "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "Converged" in out
    produced = sorted(os.listdir(tmp_path / "o"))
    assert produced == ["binding.json", "event.json", "manifest.json",
                        "region.json", "trace.csv"]
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["exit_status"] == 0
    assert manifest["termination"] == "Converged"
    assert set(manifest["inputs"]) == {TWO, TWO_R}
    assert "compute" in manifest["phase_seconds"]


def test_compute_iblp_trace_rows(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"s1_count": 30}))
    code = main(["compute", "--case", TWO, "--renewables", TWO_R,
                 "--method", "iblp", "--threads", "2", "--config", str(cfgp),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    trace = (tmp_path / "o" / "trace.csv").read_text().strip().splitlines()
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert len(trace) == 1 + manifest["iterations"]


def test_manifest_oracle_counters_per_iteration(tmp_path, monkeypatch):
    # Each manifest "oracle" entry is its iteration's whole record but the
    # wall time: the trace's values, then every key of oracle_diag.
    record = {"k", "F_pu", "cuts", "facets", "w_star"}
    counters = {"scenarios_started", "scenarios_projected", "scenarios_failed",
                "scenarios_positive", "scenarios_deduplicated",
                "scenarios_kept", "lp_solves", "memo_hits", "multiplier_steps"}
    worst = {"iblp": {"rounds", "sequence", "scenario"},
             "milp": {"big_m", "big_m_margin", "kkt_residual",
                      "complementarity_residual", "mip_nodes"}}
    runs, run = [], cli.engine.run

    def recording_run(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli.engine, "run", recording_run)
    oracles = {}
    for method, threads in (("iblp", "1"), ("iblp", "2"), ("milp", "1")):
        out = tmp_path / f"{method}-{threads}"
        assert main(["compute", "--case", TWO, "--renewables", TWO_R,
                     "--method", method, "--threads", threads,
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        oracle = oracles[method, threads] = manifest["oracle"]
        trace = runs[-1].trace
        assert [e["k"] for e in oracle] == list(range(1, manifest["iterations"] + 1))
        for e, rec in zip(oracle, trace, strict=True):
            # An iblp iteration that keeps no cut has no worst solution,
            # only the oracle's counters.
            keys = record | (counters if method == "iblp" else set())
            if rec.w_star is not None:
                keys |= worst[method]
            assert set(e) == keys
            assert (e["F_pu"], e["cuts"], e["facets"]) == \
                (rec.F, rec.cuts_added, rec.facets_after)
            assert e["w_star"] == (None if rec.w_star is None else rec.w_star.tolist())
        for name in ("region.json", "binding.json", "trace.csv"):
            text = (out / name).read_text()
            assert not any(key in text for key in ("lp_solves", "scenarios_projected",
                                                   "scenarios_deduplicated"))
    assert oracles["iblp", "1"] == oracles["iblp", "2"]


def test_compute_missing_case_exits_1(tmp_path, capsys):
    code = main(["compute", "--case", str(tmp_path / "nope.m"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err
    # No partial artifacts beyond the failure manifest.
    assert sorted(os.listdir(tmp_path / "o")) == ["manifest.json"]


def test_milp_threads_default_to_the_cores(tmp_path, monkeypatch, capsys):
    # binding's facets run on the threads for either method, so milp reads
    # --threads too and defaults to the cores, with the bytes of one thread.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for out, threads in (("cores", []), ("one", ["--threads", "1"])):
        assert main(["compute", "--case", PJM, "--renewables", PJM_R,
                     "--method", "milp", *threads,
                     "--out", str(tmp_path / out)]) == 0
    assert "note" not in capsys.readouterr().out
    read = {out: json.loads((tmp_path / out / "manifest.json").read_text())
            for out in ("cores", "one")}
    assert read["cores"]["config"]["thread_count"] == 3
    assert read["one"]["config"]["thread_count"] == 1
    assert (tmp_path / "cores" / "binding.json").read_bytes() == \
        (tmp_path / "one" / "binding.json").read_bytes()


def test_binding_table(tmp_path, capsys):
    assert main(["compute", "--case", TWO, "--renewables", TWO_R,
                 "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    code = main(["binding", "--case", TWO, "--renewables", TWO_R,
                 "--region", str(tmp_path / "c" / "region.json"),
                 "--out", str(tmp_path / "b")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PhysicalConstraint" in out
    assert (tmp_path / "b" / "binding.json").exists()


def test_binding_from_region_json(tmp_path, capsys, monkeypatch):
    assert main(["compute", "--case", PJM, "--renewables", PJM_R,
                 "--method", "milp", "--out", str(tmp_path / "o")]) == 0
    monkeypatch.chdir(tmp_path)  # binding.json lands in the cwd by default
    code = main(["binding", "--case", PJM, "--renewables", PJM_R,
                 "--region", str(tmp_path / "o" / "region.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "InitialBoxFacet" in out
    assert (tmp_path / "binding.json").exists()


_BOX_2D = {"H": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
           "f_mw": [100.0, 100.0, 0.0, 0.0],
           "provenance": [{"kind": "InitialBox", "farm": farm, "bound": bound}
                          for bound in ("upper", "lower") for farm in (0, 1)],
           "method": "milp", "termination": "Converged",
           "config": StudyConfig().algorithmic_echo()}


@pytest.mark.parametrize("text, message", [
    ("{H: [[1.0, 0.0]]}", "not a region.json: JSONDecodeError"),
    (json.dumps({k: v for k, v in _BOX_2D.items() if k != "provenance"}),
     "not a region.json: KeyError: 'provenance'"),
    (json.dumps({**_BOX_2D, "f_mw": [100.0, 100.0, 0.0]}),
     "not a region.json: ValueError: facet count mismatch"),
    (json.dumps({**_BOX_2D, "provenance": [{"kind": "Cut", "colour": 1}] * 4}),
     "not a region.json: TypeError"),
    (json.dumps([_BOX_2D]), "not a region.json: TypeError"),
    (json.dumps({k: v for k, v in _BOX_2D.items() if k != "method"}),
     "not a region.json: KeyError: 'method'"),
    (json.dumps({**_BOX_2D, "method": "simplex"}),
     "not a region.json: ValueError: unknown method 'simplex'"),
    (json.dumps({**_BOX_2D, "H": [[1.0], [-1.0]], "f_mw": [100.0, 0.0],
                 "provenance": _BOX_2D["provenance"][::2]}),
     "region of dimension 1 and forecast of 2 entries for a model with 2 farms"),
    (json.dumps({k: v for k, v in _BOX_2D.items() if k != "config"}),
     "not a region.json: KeyError: 'config'"),
    # The layout the former EmptyRegion termination wrote: a region has rows.
    (json.dumps({**_BOX_2D, "termination": "EmptyRegion", "shape": [0, 2],
                 "H": [], "f_mw": [], "provenance": [], "vertices_mw": []}),
     "not a region.json: ValueError: facet count mismatch"),
    # Each setting comes from the echo, so every key of it must be one.
    (json.dumps({**_BOX_2D, "config": {**_BOX_2D["config"], "colour": 1}}),
     "not a region.json: TypeError: StudyConfig.__init__() got an unexpected "
     "keyword argument 'colour'"),
    (json.dumps({**_BOX_2D, "config": {**_BOX_2D["config"], "seed": -1}}),
     "not a region.json: InvalidSetting: seed must be at least 0, got -1"),
], ids=["not-json", "no-provenance", "lengths", "provenance-key", "array",
        "no-method", "unknown-method", "wrong-dimension", "no-config",
        "no-rows", "config-unknown-key", "config-bad-value"])
def test_malformed_region_file_is_an_error(text, message, tmp_path, capsys):
    region = tmp_path / "region.json"
    region.write_text(text)
    assert main(["binding", "--case", PJM, "--renewables", PJM_R,
                 "--region", str(region), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o" / "binding.json").exists()


@pytest.mark.parametrize("method", ["milp", "iblp"])
def test_binding_writes_the_binding_json_of_compute(method, tmp_path, capsys):
    # One writer, one model: binding on compute's region.json writes
    # compute's bytes, context (seed, method, config) included, at a seed
    # and with settings other than the defaults.  At the default ramp,
    # facet 2 of this region reads as bound by line 4-5, not as a box facet.
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"ramp_fraction": 0.2, "perturb_lambda": 0.02}))
    case = ["--case", PJM, "--renewables", PJM_R]
    assert main(["compute", *case, "--config", str(cfgp), "--seed", "5",
                 "--method", method, "--threads", "2",
                 "--out", str(tmp_path / "c")]) == 0
    assert main(["binding", *case, "--region", str(tmp_path / "c" / "region.json"),
                 "--threads", "2", "--out", str(tmp_path / "region")]) == 0
    want = (tmp_path / "c" / "binding.json").read_bytes()
    assert json.loads(want)["method"] == method
    assert json.loads(want)["seed"] == 5
    assert json.loads(want)["config"]["ramp_fraction"] == 0.2
    assert (tmp_path / "region" / "binding.json").read_bytes() == want


def _close(a, b):
    """Equal JSON values, floats to 1e-9 (MW)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float):
        return b == pytest.approx(a, rel=1e-9, abs=1e-9)
    return a == b


def test_binding_from_region_json_agrees_to_rounding(tmp_path, capsys):
    # region.json holds each bound in MW, and dividing by the base need not
    # give back the last bit of the pu bound; on case2_ramp both bounds
    # lose it, so the report from region.json agrees to rounding only.
    assert main(["compute", "--case", TWO, "--renewables", TWO_R,
                 "--out", str(tmp_path / "c")]) == 0
    assert main(["binding", "--case", TWO, "--renewables", TWO_R,
                 "--region", str(tmp_path / "c" / "region.json"),
                 "--out", str(tmp_path / "r")]) == 0
    want = json.loads((tmp_path / "c" / "binding.json").read_text())
    got = json.loads((tmp_path / "r" / "binding.json").read_text())
    assert _close(want, got)


@pytest.mark.parametrize("argv", [
    ["validate", "--threads", "2"], ["validate", "--verbose"],
    ["validate", "--method", "iblp"],
    ["binding", "--region", "region.json", "--verbose"],
    # The region.json names the method and every setting.
    ["binding", "--region", "region.json", "--seed", "5"],
    ["binding", "--region", "region.json", "--method", "milp"],
    ["binding", "--region", "region.json", "--config", "cfg.json"],
    # The manifest's "oracle" list holds each iteration's record.
    ["compute", "--out", "o", "--verbose"]])
def test_a_command_takes_no_flag_it_ignores(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--case", TWO, "--renewables", TWO_R])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["compute", "--case", TWO, "--bogus"],
     "drrcalc: error: unrecognized arguments: --bogus"),
    (["compute"], "drrcalc compute: error: the following arguments are "
                  "required: --case"),
    # perfbench/run.py times runs; the manifest's phase_seconds times one.
    (["bench", "--cases", f"{TWO}:{TWO_R}"],
     "drrcalc: error: argument cmd: invalid choice: 'bench'"),
    # binding explains a computed region; compute is the one engine run.
    (["binding", "--case", TWO, "--renewables", TWO_R],
     "drrcalc binding: error: the following arguments are required: --region"),
], ids=["top-level", "subcommand", "no-bench", "binding-without-region"])
def test_a_usage_error_exits_1(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validate_passes_and_probes(capsys):
    code = main(["validate", "--case", TWO, "--renewables", TWO_R,
                 "--w", "70"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "violation 5.000000 MW" in out


@pytest.mark.parametrize("entry", [(2, 3), (4, 0)], ids=["reference-column", "other"])
def test_validate_fails_a_ptdf_with_one_perturbed_entry(entry, monkeypatch, capsys):
    # The check compares the two maps whole on the zero-sum injections, so
    # one entry off by 1e-6 fails it, one in the zeroed reference column
    # (bus 4 of PJM-5) too.
    build_ptdf = cli.build_ptdf

    def perturbed(case):
        pi = build_ptdf(case)
        pi[entry] += 1e-6
        return pi

    monkeypatch.setattr(cli, "build_ptdf", perturbed)
    assert main(["validate", "--case", PJM, "--renewables", PJM_R]) == 1
    out = capsys.readouterr().out
    assert "FAIL  ptdf_angle_equivalence" in out
    assert out.count("PASS") == 2


@pytest.mark.parametrize("w", ["abc", "nan", "inf", "70,x"])
def test_validate_rejects_a_malformed_probe_before_any_check(w, capsys):
    code = main(["validate", "--case", TWO, "--renewables", TWO_R, "--w", w])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --w must be comma-separated finite numbers, got {w!r}\n"


def test_validate_rejects_a_probe_of_the_wrong_length_before_any_check(
        monkeypatch, capsys):
    def no_ptdf(case):
        raise AssertionError("a model check ran")

    monkeypatch.setattr(cli, "build_ptdf", no_ptdf)
    code = main(["validate", "--case", TWO, "--renewables", TWO_R, "--w", "70,80"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --w has 2 entries, the case has 1 farms\n"


def test_validate_rejects_zero_reactance(tmp_path, capsys):
    bad = (CASE_DIR / "case2_ramp.m").read_text().replace(
        "1\t2\t0\t0.1", "1\t2\t0\t0.0")
    p = tmp_path / "bad.m"
    p.write_text(bad)
    code = main(["validate", "--case", str(p), "--renewables", TWO_R])
    assert code == 1
    assert "zero reactance" in capsys.readouterr().err


def test_validate_without_renewable_farms_exits_1(capsys):
    # No renewables sidecar: the case has no farm, so no strong-duality
    # check can run, and validate fails rather than passing the others.
    code = main(["validate", "--case", TWO])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: case has no designated renewable farms\n"


def test_seed_reproducibility(tmp_path):
    for sub in ("a", "b"):
        assert main(["compute", "--case", PJM, "--renewables", PJM_R,
                     "--method", "iblp", "--seed", "11", "--threads", "1",
                     "--out", str(tmp_path / sub)]) == 0
    ra = (tmp_path / "a" / "region.json").read_bytes()
    rb = (tmp_path / "b" / "region.json").read_bytes()
    assert ra == rb
    ba = (tmp_path / "a" / "binding.json").read_bytes()
    assert ba == (tmp_path / "b" / "binding.json").read_bytes()


def test_config_file_thread_count_is_kept(tmp_path):
    # Precedence: --threads, the config file, the cores.
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"thread_count": 3}))
    code = main(["compute", "--case", TWO, "--renewables", TWO_R,
                 "--method", "milp", "--config", str(cfgp),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["thread_count"] == 3


@pytest.mark.parametrize("source, message", [
    ("config", "thread_count must be at least 1, got 0"),
    ("flag", "thread_count must be at least 1, got -3"),
    ("binding", "thread_count must be at least 1, got 0"),
], ids=["config", "flag", "binding"])
def test_thread_count_below_1_is_an_error(source, message, tmp_path, capsys):
    # Each source of the thread count is checked; none falls back to 1,
    # and --threads 0 is not taken for "the cores".
    argv = ["compute", "--case", TWO, "--renewables", TWO_R, "--method", "iblp",
            "--out", str(tmp_path / "o")]
    if source == "config":
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"thread_count": 0}))
        argv += ["--config", str(cfgp)]
    elif source == "flag":
        argv += ["--threads", "-3"]
    else:
        assert main([*argv, "--threads", "1"]) == 0
        capsys.readouterr()
        argv = ["binding", "--case", TWO, "--renewables", TWO_R, "--threads", "0",
                "--region", str(tmp_path / "o" / "region.json"),
                "--out", str(tmp_path / "b")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    if source == "binding":
        assert not (tmp_path / "b").exists()
    else:
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["exit_status"] == 1


def test_negative_seed_flag_is_an_error(tmp_path, capsys):
    # numpy's generators reject it deep inside the first iblp iteration.
    argv = ["compute", "--case", TWO, "--renewables", TWO_R, "--method", "iblp",
            "--seed", "-1", "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["exit_status"] == 1


# Wrong types, and values that would otherwise fail deep inside a run (a
# negative big_m, a zero cut_batch_cap): validate, the command that only
# loads the config and the case, is enough to reach them.
_BAD_SETTINGS = [
    ("int-str", {"s1_count": "a"}, "s1_count must be an integer, got 'a'"),
    ("int-float", {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ("int-bool", {"node_limit": True}, "node_limit must be an integer, got True"),
    ("float-str", {"eps_term": "1e-6"}, "eps_term must be a number, got '1e-6'"),
    ("float-null", {"reserve_factor": None},
     "reserve_factor must be a number, got None"),
    ("big_m-negative", {"big_m": -1}, "big_m must be a positive number, got -1"),
    ("big_m-str", {"big_m": "10"}, "big_m must be a positive number, got '10'"),
    ("cut_batch_cap-0", {"cut_batch_cap": 0},
     "cut_batch_cap must be at least 1, got 0"),
    ("node_limit-negative", {"node_limit": -1},
     "node_limit must be in [0, 2147483647]"),
    ("seed-negative", {"seed": -1}, "seed must be at least 0, got -1"),
]


@pytest.mark.parametrize("command, settings, message", [
    *[pytest.param(command, {"eps_term": -1}, "eps_term must be positive",
                   id=command) for command in ("compute", "binding", "validate")],
    # json reads Infinity and NaN: an infinite eps_term ended every run as
    # Converged after one iteration, and no iteration ran at -3.
    *[pytest.param("compute", settings, message, id=f"compute-{case}")
      for case, settings, message in [
          ("eps_term-inf", {"eps_term": math.inf}, "eps_term must be finite, got inf"),
          ("perturb_lambda-inf", {"perturb_lambda": math.inf},
           "perturb_lambda must be finite, got inf"),
          ("eps_dual-nan", {"eps_dual": math.nan}, "eps_dual must be positive"),
          ("max_outer_iters-negative", {"max_outer_iters": -3},
           "max_outer_iters must be at least 1, got -3")]],
    *[pytest.param("validate", settings, message, id=f"validate-{case}")
      for case, settings, message in _BAD_SETTINGS],
])
def test_bad_config_value_is_an_error_not_a_traceback(command, settings, message,
                                                      tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(settings))
    argv = [command, "--case", TWO, "--renewables", TWO_R, "--config", str(cfgp)]
    if command == "binding":  # its settings are the region.json's config echo
        region = tmp_path / "region.json"
        region.write_text(json.dumps(
            {**_BOX_2D, "config": {**_BOX_2D["config"], **settings}}))
        argv = [command, "--case", PJM, "--renewables", PJM_R, "--region", str(region)]
        message = f"{region}: not a region.json: InvalidSetting: {message}"
    if command != "validate":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    if command == "compute":
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["exit_status"] == 1
        assert manifest["error"] == f"InvalidSetting: {message}"


def _contradicting_oracle(monkeypatch, case, bus_pos):
    """Make every milp oracle call return one valid-looking cut that asks
    farm 0 for the load of the bus at ``bus_pos``, more than its capacity;
    with ``bus_pos`` None, a cut with no direction at a positive violation."""
    import drrcalc.engine as eng
    m = build_compact(case, initial_dispatch(case, StudyConfig()))
    alpha = np.zeros(m.b.size)
    if bus_pos is not None:
        alpha[bus_pos] = 1.0  # the balance row of farm 0's bus: w_0 >= its load
    fake = MaxMinSolution(F=0.5, w_star=np.zeros(m.n_w), alpha=alpha,
                          delta=np.zeros(m.d.size))
    monkeypatch.setattr(eng, "solve_maxmin_milp", lambda *a, **k: fake)


@pytest.mark.parametrize("paths, fixture, bus_pos, error", [
    # 150 MW load against 100 MW installed
    ((TWO, TWO_R), "twobus", 1,
     "EmptyRegionError: outer approximation has no feasible point"),
    # 400 MW load against 150 MW installed
    ((PJM, PJM_R), "pjm5", 3,
     "EmptyRegionError: outer approximation has no feasible point"),
    ((PJM, PJM_R), "pjm5", None,
     "DegenerateCut: cut normal vanished at violation 5.000e-01"),
], ids=["case2_ramp", "pjm5", "pjm5-zero-direction"])
def test_compute_empty_region_exits_2(paths, fixture, bus_pos, error, request,
                                      tmp_path, capsys, monkeypatch):
    # The forecast is in every region, so an oracle that empties the region,
    # or cuts with no direction, is at fault: compute exits 1 with the
    # error, not 2, and writes no region.
    _contradicting_oracle(monkeypatch, request.getfixturevalue(fixture), bus_pos)
    out = tmp_path / "o"
    code = main(["compute", "--case", paths[0], "--renewables", paths[1],
                 "--method", "milp", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error.split(': ', 1)[1]}\n"
    assert os.listdir(out) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1
    assert manifest["error"] == error
    assert manifest["artifacts"] == []
    assert "termination" not in manifest


@pytest.mark.parametrize("text, message", [
    ("[{gen_index: 2}]", "renewables sidecar is not JSON"),
    ('[[2, 50.0]]', "renewables entry 0 must be a JSON object, got [2, 50.0]"),
    ('[{"gen_index": 2}]', "renewables entry 0 has no forecast_mw"),
    ('[{"gen_index": 2, "forecast_mw": "50"}]',
     "renewables entry 0: forecast_mw must be a number, got '50'"),
    ('[{"gen_index": null, "forecast_mw": 50.0}]',
     "renewables entry 0: gen_index must be a number, got None"),
    ('[{"gen_index": 2.5, "forecast_mw": 50.0}]',
     "renewables entry 0: gen_index must be a whole number, got 2.5"),
    ('[{"gen_index": Infinity, "forecast_mw": 50.0}]',
     "renewables entry 0: gen_index must be a whole number, got inf"),
], ids=["not-json", "not-object", "missing", "string", "null", "fraction",
        "infinite"])
def test_malformed_renewables_file_is_an_error(text, message, tmp_path, capsys):
    rens = tmp_path / "rens.json"
    rens.write_text(text)
    assert main(["validate", "--case", TWO, "--renewables", str(rens)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_unparsable_config_file_is_an_error(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text("{eps_term: 1e-6}")
    assert main(["validate", "--case", TWO, "--renewables", TWO_R,
                 "--config", str(cfgp)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfgp}: ")


@pytest.mark.parametrize("text, kind", [
    ("5", "int"), ("null", "NoneType"), ("[1]", "list"), ('"abc"', "str"),
], ids=["number", "null", "list", "string"])
def test_config_file_must_hold_an_object(text, kind, tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(text)
    assert main(["validate", "--case", TWO, "--renewables", TWO_R,
                 "--config", str(cfgp)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfgp}: top level must be an object, got {kind}\n")


def test_iteration_cap_exit_code(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"max_outer_iters": 1}))
    code = main(["compute", "--case", PJM, "--renewables", PJM_R,
                 "--method", "milp", "--config", str(cfgp),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["termination"] == "MaxIterations"
    assert manifest["model"]["angle_spread_rows"] == 12
