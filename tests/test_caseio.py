"""MATPOWER parsing, renewable designation, and config loading."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drrcalc.caseio import (RenewableSpec, StudyConfig, apply_renewables,
                            load_config_file, parse_matpower)
from drrcalc.dispatch_model import build_compact, initial_dispatch
from drrcalc.errors import (DisconnectedNetwork, DuplicateDesignation,
                            InconsistentDimensions, InvalidSetting,
                            MalformedCase, MissingTable, UnknownGenerator)
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
    assert raw.ref_bus == 1
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
    assert raw.ref_bus == 4  # the one type-3 bus


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


def _rows(text, table):
    """The rows of ``mpc.<table>`` as written, read without the parser."""
    body = text.split(f"mpc.{table} = [", 1)[1].split("];", 1)[0]
    lines = (line.split("%")[0].strip().rstrip(";") for line in body.splitlines())
    return [[float(tok) for tok in line.split()] for line in lines if line]


def test_fixture_cases_parse_as_written():
    # Every field the model reads keeps the value written in the file.
    for stem in ("case2_ramp", "case5_wind", "case39_wind"):
        text = (CASE_DIR / f"{stem}.m").read_text()
        raw = parse_matpower(text)
        assert raw.base_mva == 100.0
        assert [(b.id, b.load_mw) for b in raw.buses] == \
            [(r[0], r[2]) for r in _rows(text, "bus")]
        assert raw.ref_bus == next(r[0] for r in _rows(text, "bus") if r[1] == 3)
        assert [(br.from_bus, br.to_bus, br.reactance_pu, br.rate_a_mw,
                 br.angle_min_deg, br.angle_max_deg)
                for br in raw.branches] == \
            [(r[0], r[1], r[3], r[5], r[11], r[12])
             for r in _rows(text, "branch") if r[10] != 0]
        assert [(g.bus, g.status, g.p_max_mw, g.p_min_mw)
                for g in raw.generators] == \
            [(r[0], r[7], r[8], r[9]) for r in _rows(text, "gen")]
        # The shipped rows are polynomial and hold exactly NCOST coefficients.
        assert [(c.model, c.coeffs) for c in raw.gencost] == \
            [(r[0], tuple(r[4:4 + int(r[3])])) for r in _rows(text, "gencost")]


@settings(max_examples=30, deadline=None)
@given(
    loads=st.lists(st.floats(0, 500, allow_nan=False), min_size=2, max_size=6),
    x=st.floats(0.01, 2.0, allow_nan=False),
    rate=st.floats(1, 1000, allow_nan=False),
)
def test_generated_cases_parse_as_written(loads, x, rate):
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
    assert [b.load_mw for b in raw.buses] == loads
    assert [br.reactance_pu for br in raw.branches] == [x] * (n - 1)
    assert [br.rate_a_mw for br in raw.branches] == [rate] * (n - 1)


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
    assert [br.reactance_pu for br in raw.branches] == [0.05]
    assert apply_renewables(raw, []).raw.branches == raw.branches


def test_out_of_service_branch_with_zero_reactance_is_dropped():
    text = MINI_CASE.replace(
        "1 2 0.01 0.05 0 100 100 100 0 0 1 -360 360;",
        "1 2 0.01 0.05 0 100 100 100 0 0 1 -360 360;\n"
        "1 2 0.02 0 0 50 50 50 0 0 0 -360 360;")
    assert [br.reactance_pu for br in parse_matpower(text).branches] == [0.05]


@pytest.mark.parametrize("row, message", [
    ("1 2 0.02 nan 0 50 50 50 0 0 0 -360 360;", "branch row 2 has a non-finite x"),
    ("1 9 0.02 0.08 0 50 50 50 0 0 0 -360 360;",
     "branch row 2 references unknown bus 9"),
    ("1 2 0.02 0.08 0 -50 50 50 0 0 0 -360 360;", "branch row 2 has negative rating"),
], ids=["nan", "unknown-bus", "negative-rating"])
def test_out_of_service_branch_rows_are_still_checked(row, message):
    text = MINI_CASE.replace(
        "1 2 0.01 0.05 0 100 100 100 0 0 1 -360 360;",
        f"1 2 0.01 0.05 0 100 100 100 0 0 1 -360 360;\n{row}")
    with pytest.raises(MalformedCase, match=message):
        parse_matpower(text)


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
    loaded = load_config_file(p, StudyConfig())
    assert loaded.seed == 5 and loaded.s1_count == 17
    for unknown in ({"nope": 1}, {"lp_backend": "internal"}, {"mip_gap": 1e-6}):
        p.write_text(json.dumps(unknown))
        with pytest.raises(ValueError):
            load_config_file(p, StudyConfig())


@pytest.mark.parametrize("name", ["eps_term", "eps_alt", "eps_slack", "eps_dual",
                                  "perturb_lambda"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_tolerances_must_be_finite(name, value):
    # json reads Infinity and NaN; an infinite eps_term would stop every
    # run after one iteration as Converged.
    with pytest.raises(InvalidSetting, match=name):
        StudyConfig(**{name: value})


@pytest.mark.parametrize("value", [0, -3])
def test_max_outer_iters_must_be_at_least_one(value):
    with pytest.raises(InvalidSetting,
                       match=f"max_outer_iters must be at least 1, got {value}"):
        StudyConfig(max_outer_iters=value)


def test_config_echo_excludes_scheduling():
    echo = StudyConfig(thread_count=8).algorithmic_echo()
    assert "thread_count" not in echo
    assert echo["seed"] == 0
    # region.json and binding.json name the solver that produced them.
    assert echo["lp_backend"] == echo["mip_backend"] == "scipy"
    assert echo["node_limit"] == 100_000
    assert echo["mip_gap"] == 1e-9


def test_from_echo_inverts_the_config_echo():
    cfg = StudyConfig(seed=5, ramp_fraction=0.2, big_m=40.0)
    assert StudyConfig.from_echo(cfg.algorithmic_echo()) == cfg
    # Only the solver keys are dropped; anything else off the echo is an
    # error, not a setting taken at its default or a thread count.
    echo = cfg.algorithmic_echo()
    for bad in ({k: v for k, v in echo.items() if k != "ramp_fraction"},
                {**echo, "thread_count": 4}, {**echo, "mip_gap": 0.0}):
        with pytest.raises(InvalidSetting, match="not a config echo"):
            StudyConfig.from_echo(bad)


def test_ieee39_forecasts(ieee39):
    assert ieee39.forecast_mw == (343.0, 290.0, 282.0, 432.0, 550.0)
    assert [ieee39.gen(i).bus for i in ieee39.renewable] == [1, 5, 10, 15, 20]


def test_forecast_above_capacity_rejected():
    raw = parse_matpower(MINI_CASE)
    with pytest.raises(UnknownGenerator):
        apply_renewables(raw, [RenewableSpec(gen_index=1, forecast_mw=60.0)])


def test_toml_config_is_rejected_as_malformed_json(tmp_path):
    p = tmp_path / "cfg.toml"
    p.write_text("seed = 9\ns1_count = 12\n")
    with pytest.raises(InvalidSetting) as info:
        load_config_file(p, StudyConfig())
    assert str(info.value).startswith(f"{p}: ")


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
    assert raw.gencost[0].linear_rate() == 12.0


def test_reference_bus_promoted_when_missing():
    text = MINI_CASE.replace("1 3 0 0", "1 2 0 0")
    assert parse_matpower(text).ref_bus == 1  # the first in-service generator bus


def test_extra_reference_buses_demoted():
    text = MINI_CASE.replace("2 1 10 5", "2 3 10 5")
    assert parse_matpower(text).ref_bus == 1  # the first type-3 bus


def test_no_reference_bus_and_no_generator_in_service_is_malformed():
    text = MINI_CASE.replace("1 3 0 0", "1 2 0 0").replace(
        "1 0 0 10 -10 1 100 1 50 0;", "1 0 0 10 -10 1 100 0 50 0;")
    with pytest.raises(MalformedCase, match="no reference bus"):
        parse_matpower(text)


def test_reference_bus_other_than_the_first_pins_the_angle():
    text = MINI_CASE.replace("1 3 0 0", "1 1 0 0").replace("2 1 10 5", "2 3 10 5")
    raw = parse_matpower(text)
    assert raw.ref_bus == 2
    case = apply_renewables(raw, [])
    m = build_compact(case, initial_dispatch(case, StudyConfig()))
    (k,) = [i for i, r in enumerate(m.eq_rows) if r.kind == "AngleRef"]
    assert m.eq_rows[k].label == "reference angle at bus 2"
    assert m.D[k].tolist() == [0.0, 1.0]  # the pin is on bus 2's angle


_PADDED_GENCOST = MINI_CASE.replace(
    "1 0 0 10 -10 1 100 1 50 0;",
    "1 0 0 10 -10 1 100 1 50 0;\n2 0 0 10 -10 1 100 1 40 0;\n"
    "2 0 0 10 -10 1 100 1 40 0;")


def test_gencost_keeps_exactly_ncost_coefficients():
    # A rectangular table pads the shorter rows with zeros; the rate is the
    # row's own linear term, not a padding entry.
    text = _PADDED_GENCOST.replace("2 0 0 2 12 0;", "2 0 0 3 0 10 0 0;\n"
                                   "2 0 0 2 25 0 0 0;\n1 0 0 1 0 0 50 500;")
    raw = parse_matpower(text)
    assert [c.coeffs for c in raw.gencost] == [(0.0, 10.0, 0.0), (25.0, 0.0), (0.0, 0.0)]
    # A one-point piecewise cost has no segment, so no slope.
    assert [c.linear_rate() for c in raw.gencost] == [10.0, 25.0, 0.0]


@pytest.mark.parametrize("row, message", [
    ("2 0 0 3 10 0;", "gencost row 2: NCOST 3 does not fit its 2 coefficients"),
    ("1 0 0 2 0 0 50;", "gencost row 2: NCOST 2 does not fit its 3 coefficients"),
    ("2 0 0 -1 10 0;", "gencost row 2: NCOST -1 does not fit its 2 coefficients"),
    ("2 0 0 1.5 10 0;", "gencost row 2: NCOST 1.5 does not fit its 2 coefficients"),
], ids=["polynomial", "piecewise", "negative", "fraction"])
def test_gencost_row_shorter_than_its_ncost_is_malformed(row, message):
    text = _PADDED_GENCOST.replace("2 0 0 2 12 0;", f"2 0 0 2 12 0;\n{row}\n2 0 0 1 0;")
    with pytest.raises(MalformedCase, match=message):
        parse_matpower(text)


def test_farm_on_an_out_of_service_generator_is_rejected():
    text = MINI_CASE.replace("1 0 0 10 -10 1 100 1 50 0;",
                             "1 0 0 10 -10 1 100 1 50 0;\n1 0 0 10 -10 1 100 0 30 0;"
                             ).replace("2 0 0 2 12 0;", "2 0 0 2 12 0;\n2 0 0 2 0 0;")
    with pytest.raises(UnknownGenerator, match="gen_index 2 is out of service"):
        apply_renewables(parse_matpower(text), [RenewableSpec(gen_index=2,
                                                              forecast_mw=10.0)])


@pytest.mark.parametrize("edits, message", [
    ({"2 1 10 5": "NaN 1 10 5"}, "bus row 2 has a bus id that is not a whole number: nan"),
    # Read as int, bus 2.5 and the branch to it would both be bus 2.
    ({"2 1 10 5": "2.5 1 10 5", "1 2 0.01 0.05": "1 2.5 0.01 0.05"},
     "bus row 2 has a bus id that is not a whole number: 2.5"),
    ({"1 2 0.01 0.05": "1.5 2 0.01 0.05"},
     "branch row 1 has a fbus that is not a whole number: 1.5"),
    ({"1 2 0.01 0.05": "1 Inf 0.01 0.05"},
     "branch row 1 has a tbus that is not a whole number: inf"),
    ({"1 0 0 10 -10": "NaN 0 0 10 -10"},
     "gen row 1 has a bus that is not a whole number: nan"),
], ids=["bus-nan", "bus-fraction", "fbus-fraction", "tbus-infinite", "gen-bus-nan"])
def test_ids_must_be_finite_whole_numbers(edits, message):
    text = MINI_CASE
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(MalformedCase, match=message):
        parse_matpower(text)


@pytest.mark.parametrize("row, model", [
    ("3 0 0 1 0 0 10 120;", "3"), ("0 0 0 2 12 0;", "0"),
    ("1.5 0 0 1 0 0 10 120;", "1.5"), ("NaN 0 0 2 12 0;", "nan"),
], ids=["three", "zero", "fraction", "nan"])
def test_gencost_model_outside_1_and_2_is_malformed(row, model):
    # Neither polynomial nor piecewise linear: no rate to read from it.
    text = MINI_CASE.replace("2 0 0 2 12 0;", row)
    with pytest.raises(MalformedCase, match=re.escape(
            f"gencost row 1 has model {model}, not 1 (piecewise linear) or 2 "
            "(polynomial)")):
        parse_matpower(text)
