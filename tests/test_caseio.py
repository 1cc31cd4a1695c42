"""MATPOWER parsing, renewable designation, and config loading."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drrcalc.caseio import (RenewableSpec, StudyConfig, apply_renewables,
                            load_config_file, parse_matpower, to_case_text)
from drrcalc.errors import (DisconnectedNetwork, DuplicateDesignation,
                            InconsistentDimensions, MalformedCase,
                            MissingTable, UnknownGenerator)
from tests.conftest import CASE_DIR

MINI_CASE = """function mpc = mini
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
1 3 0 0 0 0 1 1 0 110 1 1.1 0.9;
2 1 10 5 0 0 1 1 0 110 1 1.1 0.9;
];
mpc.gen = [
1 0 0 10 -10 1 100 1 50 0;
];
mpc.branch = [
1 2 0.01 0.05 0 100 100 100 0 0 1 -360 360;
];
mpc.gencost = [
2 0 0 2 12 0;
];
"""


def test_parse_mini_case():
    raw = parse_matpower(MINI_CASE)
    assert raw.name == "mini"
    assert raw.base_mva == 100
    assert len(raw.buses) == 2
    assert raw.buses[1].load_mw == 10
    assert len(raw.branches) == 1
    assert raw.branches[0].reactance_pu == 0.05
    assert raw.generators[0].p_max_mw == 50
    assert raw.gencost[0].linear_rate() == 12


def test_parse_pjm5_fixture():
    raw = parse_matpower((CASE_DIR / "case5_wind.m").read_text())
    assert len(raw.buses) == 5
    assert len(raw.generators) == 7
    assert len(raw.branches) == 6
    assert raw.branches[5].rate_a_mw == 240
    assert [b.type for b in raw.buses].count(3) == 1


def test_parse_ieee39_fixture():
    raw = parse_matpower((CASE_DIR / "case39_wind.m").read_text())
    assert len(raw.buses) == 39
    assert len(raw.branches) == 46
    assert len(raw.generators) == 15
    farm_buses = [g.bus for g in raw.generators[10:]]
    assert farm_buses == [1, 5, 10, 15, 20]


def test_empty_branch_table_is_malformed():
    text = MINI_CASE.replace(
        "mpc.branch = [\n1 2 0.01 0.05 0 100 100 100 0 0 1 -360 360;\n];",
        "mpc.branch = [\n];")
    with pytest.raises(MalformedCase):
        parse_matpower(text)


def test_missing_table():
    text = MINI_CASE.replace("mpc.gencost", "mpc.whatever")
    with pytest.raises(MissingTable):
        parse_matpower(text)


def test_gencost_row_mismatch():
    text = MINI_CASE.replace("2 0 0 2 12 0;", "2 0 0 2 12 0;\n2 0 0 2 9 0;")
    with pytest.raises(InconsistentDimensions):
        parse_matpower(text)


def test_bad_token_reports_location():
    text = MINI_CASE.replace("1 2 0.01 0.05", "1 2 oops 0.05")
    with pytest.raises(MalformedCase) as err:
        parse_matpower(text)
    assert err.value.line is not None


def test_zero_reactance_in_service_rejected():
    text = MINI_CASE.replace("1 2 0.01 0.05", "1 2 0.01 0.0")
    with pytest.raises(MalformedCase):
        parse_matpower(text)


def test_roundtrip_fixture_cases():
    for stem in ("case2_ramp", "case5_wind", "case39_wind"):
        raw = parse_matpower((CASE_DIR / f"{stem}.m").read_text())
        again = parse_matpower(to_case_text(raw))
        assert again == raw


@settings(max_examples=30, deadline=None)
@given(
    loads=st.lists(st.floats(0, 500, allow_nan=False), min_size=2, max_size=6),
    x=st.floats(0.01, 2.0, allow_nan=False),
    rate=st.floats(1, 1000, allow_nan=False),
)
def test_roundtrip_generated_cases(loads, x, rate):
    n = len(loads)
    bus_rows = "\n".join(
        f"{i + 1} {3 if i == 0 else 1} {loads[i]!r} 0 0 0 1 1 0 110 1 1.1 0.9;"
        for i in range(n))
    branch_rows = "\n".join(
        f"{i + 1} {i + 2} 0 {x!r} 0 {rate!r} 0 0 0 0 1 -360 360;"
        for i in range(n - 1))
    text = (
        "function mpc = gencase\nmpc.baseMVA = 100;\n"
        f"mpc.bus = [\n{bus_rows}\n];\n"
        f"mpc.gen = [\n1 0 0 0 0 1 100 1 999 0;\n];\n"
        f"mpc.branch = [\n{branch_rows}\n];\n"
        "mpc.gencost = [\n2 0 0 2 5 0;\n];\n")
    raw = parse_matpower(text)
    assert parse_matpower(to_case_text(raw)) == raw


def test_apply_renewables_partition(pjm5):
    assert pjm5.renewable == (6, 7)
    assert pjm5.flexible == (1, 2, 3, 4, 5)
    assert pjm5.forecast_mw == (100.0, 90.0)
    assert set(pjm5.flexible) | set(pjm5.renewable) == set(range(1, 8))
    assert set(pjm5.flexible) & set(pjm5.renewable) == set()


def test_apply_renewables_empty_specs():
    raw = parse_matpower(MINI_CASE)
    case = apply_renewables(raw, [])
    assert case.renewable == ()
    assert case.forecast_mw == ()


def test_apply_renewables_bad_index():
    raw = parse_matpower(MINI_CASE)
    with pytest.raises(UnknownGenerator):
        apply_renewables(raw, [RenewableSpec(gen_index=9, forecast_mw=1.0)])
    with pytest.raises(DuplicateDesignation):
        apply_renewables(raw, [RenewableSpec(gen_index=1, forecast_mw=1.0),
                               RenewableSpec(gen_index=1, forecast_mw=2.0)])


def test_islanded_bus_rejected():
    text = MINI_CASE.replace(
        "2 1 10 5 0 0 1 1 0 110 1 1.1 0.9;",
        "2 1 10 5 0 0 1 1 0 110 1 1.1 0.9;\n3 1 5 0 0 0 1 1 0 110 1 1.1 0.9;")
    raw = parse_matpower(text)
    with pytest.raises(DisconnectedNetwork):
        apply_renewables(raw, [])


def test_out_of_service_branch_dropped():
    text = MINI_CASE.replace(
        "1 2 0.01 0.05 0 100 100 100 0 0 1 -360 360;",
        "1 2 0.01 0.05 0 100 100 100 0 0 1 -360 360;\n"
        "1 2 0.02 0.08 0 50 50 50 0 0 0 -360 360;")
    raw = parse_matpower(text)
    assert len(raw.branches) == 2
    case = apply_renewables(raw, [])
    assert len(case.in_service_branches()) == 1


def test_config_validation_and_file(tmp_path):
    cfg = StudyConfig()
    assert cfg.reserve_factor == 0.9
    assert cfg.ramp_fraction == 0.10
    assert cfg.s1_count == 100
    assert cfg.perturb_lambda == 0.01
    with pytest.raises(ValueError):
        StudyConfig(ramp_fraction=1.5)
    with pytest.raises(ValueError):
        StudyConfig(eps_term=0.0)
    with pytest.raises(ValueError):
        StudyConfig(alt_max_rounds=0)  # no multiplier step, so F would read 0
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 5, "s1_count": 17}))
    loaded = load_config_file(p)
    assert loaded.seed == 5 and loaded.s1_count == 17
    for unknown in ({"nope": 1}, {"lp_backend": "internal"}, {"mip_gap": 1e-6}):
        p.write_text(json.dumps(unknown))
        with pytest.raises(ValueError):
            load_config_file(p)


def test_config_echo_excludes_scheduling():
    echo = StudyConfig(thread_count=8).algorithmic_echo()
    assert "thread_count" not in echo
    assert echo["seed"] == 0
    # region.json and binding.json name the solver that produced them.
    assert echo["lp_backend"] == echo["mip_backend"] == "scipy"
    assert echo["node_limit"] == 100_000
    assert echo["mip_gap"] == 1e-9


def test_ieee39_forecasts(ieee39):
    assert ieee39.forecast_mw == (343.0, 290.0, 282.0, 432.0, 550.0)
    assert [ieee39.gen(i).bus for i in ieee39.renewable] == [1, 5, 10, 15, 20]


def test_forecast_above_capacity_rejected():
    raw = parse_matpower(MINI_CASE)
    with pytest.raises(UnknownGenerator):
        apply_renewables(raw, [RenewableSpec(gen_index=1, forecast_mw=60.0)])


def test_toml_config_if_supported(tmp_path):
    p = tmp_path / "cfg.toml"
    p.write_text("seed = 9\ns1_count = 12\n")
    try:
        import tomllib  # noqa: F401
    except ImportError:
        with pytest.raises(ValueError, match="TOML"):
            load_config_file(p)
    else:
        cfg = load_config_file(p)
        assert cfg.seed == 9 and cfg.s1_count == 12


def test_parser_tolerates_formatting_variants():
    text = ("function mpc = odd\r\n"
            "mpc.baseMVA = 1e2;\r\n"
            "mpc.bus = [\r\n"
            "1 3 0 0 0 0 1 1 0 110 1 1.1 0.9; 2 1 1.5e1 5 0 0 1 1 0 110 1 1.1 0.9;\r\n"
            "];\r\n"
            "mpc.gen = [ 1 0 0 10 -10 1 100 1 5E1 0; ];\r\n"
            "mpc.branch = [\r\n"
            "1 2 0.01 5e-2 0 100 100 100 0 0 1 -360 360; % trailing comment\r\n"
            "];\r\n"
            "mpc.gencost = [ 2 0 0 2 12 0 ];\r\n")
    raw = parse_matpower(text)
    assert raw.base_mva == 100.0
    assert raw.buses[1].load_mw == 15.0
    assert raw.generators[0].p_max_mw == 50.0
    assert raw.branches[0].reactance_pu == 0.05
    assert parse_matpower(to_case_text(raw)) == raw


def test_reference_bus_promoted_when_missing():
    text = MINI_CASE.replace("1 3 0 0", "1 2 0 0")
    raw = parse_matpower(text)
    assert [b.type for b in raw.buses].count(3) == 1
    assert raw.buses[0].type == 3  # first in-service generator bus promoted


def test_extra_reference_buses_demoted():
    text = MINI_CASE.replace("2 1 10 5", "2 3 10 5")
    raw = parse_matpower(text)
    assert [b.type for b in raw.buses] == [3, 2]
