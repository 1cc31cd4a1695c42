"""Command-line workflow and exit-code contract."""

import json
import os
import select
import time

from drrcalc import cli
from drrcalc.cli import main
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


def test_manifest_oracle_counters_per_iteration(tmp_path):
    for method, keys in (
            ("iblp", {"scenarios_started", "scenarios_projected",
                      "scenarios_failed", "scenarios_positive",
                      "scenarios_deduplicated", "scenarios_kept", "lp_solves",
                      "memo_hits", "multiplier_steps"}),
            ("milp", {"mip_nodes", "big_m_margin"})):
        out = tmp_path / method
        assert main(["compute", "--case", TWO, "--renewables", TWO_R,
                     "--method", method, "--threads", "1",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        oracle = manifest["oracle"]
        assert [e["k"] for e in oracle] == list(range(1, manifest["iterations"] + 1))
        assert all(set(e) == {"k"} | keys for e in oracle)
        for name in ("region.json", "binding.json", "trace.csv"):
            text = (out / name).read_text()
            assert not any(key in text for key in ("lp_solves", "scenarios_projected",
                                                   "scenarios_deduplicated"))


def test_compute_missing_case_exits_1(tmp_path, capsys):
    code = main(["compute", "--case", str(tmp_path / "nope.m"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err
    # No partial artifacts beyond the failure manifest.
    assert sorted(os.listdir(tmp_path / "o")) == ["manifest.json"]


def test_milp_threads_warning(tmp_path, capsys):
    code = main(["compute", "--case", TWO, "--renewables", TWO_R,
                 "--method", "milp", "--threads", "8",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert "serial" in capsys.readouterr().out


def test_binding_table(tmp_path, capsys):
    code = main(["binding", "--case", TWO, "--renewables", TWO_R,
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


def test_validate_passes_and_probes(capsys):
    code = main(["validate", "--case", TWO, "--renewables", TWO_R,
                 "--w", "70"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "violation 5.000000 MW" in out


def test_validate_rejects_zero_reactance(tmp_path, capsys):
    bad = (CASE_DIR / "case2_ramp.m").read_text().replace(
        "1\t2\t0\t0.1", "1\t2\t0\t0.0")
    p = tmp_path / "bad.m"
    p.write_text(bad)
    code = main(["validate", "--case", str(p), "--renewables", TWO_R])
    assert code == 1
    assert "zero reactance" in capsys.readouterr().err


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


def test_bench_shape_and_timeout(tmp_path, capsys):
    code = main(["bench", "--cases", f"{TWO}:{TWO_R}", "--reps", "1",
                 "--seed", "0", "--threads", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert rows[0] == "case,method,threads,median_seconds,iterations"
    assert len(rows) == 4  # milp, iblp-st, iblp-mt
    labels = [r.split(",")[1] for r in rows[1:]]
    assert labels == ["milp", "iblp-st", "iblp-mt"]
    # A vanishing timeout forces the '-' cell.
    capsys.readouterr()
    code = main(["bench", "--cases", f"{TWO}:{TWO_R}", "--reps", "1",
                 "--timeout", "0.01"])
    assert code == 0
    out = capsys.readouterr().out
    assert ",-,-" in out


def test_bench_timeout_kills_the_child_and_its_workers(monkeypatch):
    # A timed-out bench child takes its own children with it.  The fake
    # run forks a grandchild, as the iblp pool does, that holds the write
    # end of a pipe: the read end reaches EOF only once every copy of the
    # write end is closed.
    r, w = os.pipe()

    def fake_run(case, cfg, method="milp"):
        if os.fork() == 0:
            os.write(w, b"x")
            time.sleep(60)
            os._exit(0)
        time.sleep(60)

    monkeypatch.setattr(cli.engine, "run", fake_run)
    try:
        assert cli._bench_cell(TWO, TWO_R, "iblp", 2, 0, 1, 1) == (None, None)
        os.close(w)
        got = b""
        deadline = time.monotonic() + 10
        while True:
            ready, _, _ = select.select([r], [], [], max(0.0, deadline - time.monotonic()))
            assert ready, "a process of the timed-out bench cell still holds the pipe"
            chunk = os.read(r, 64)
            if not chunk:
                break
            got += chunk
        assert got == b"x"   # the grandchild did start
    finally:
        os.close(r)


def test_env_thread_default(tmp_path, monkeypatch):
    monkeypatch.setenv("DRR_THREADS", "2")
    code = main(["compute", "--case", TWO, "--renewables", TWO_R,
                 "--method", "iblp", "--out", str(tmp_path / "o")])
    assert code == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["thread_count"] == 2


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
