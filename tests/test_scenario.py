import math
import operator
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import load_perfbench
from uavmec import channel, geometry, instance, scenario
from uavmec.channel import SLOT_BYTES_MAX, SLOT_PAIR_BYTES, los_matrix
from uavmec.instance import PHASE_DOWN_RSU, PHASE_DOWN_UAV, PHASE_OFFLOAD
from uavmec.runner import set_axis
from uavmec.scenario import (
    _FIELD_SECTION,
    HORIZON_BYTES_MAX,
    PER_VEHICLE_KEYS,
    ParseError,
    ScenarioConfig,
    ValidationError,
    build_instance,
    channel_bound,
    echo_config,
    load_scenario,
    parse_quantity,
    radio_config,
    validate,
)


def test_empty_config_gives_stock_values():
    cfg = load_scenario("")
    assert cfg.vehicles == 3
    assert cfg.antennas_uav == 36
    assert cfg.slot == 0.2
    assert cfg.n_slots == 40
    assert np.allclose(cfg.task_bits, 5e5)
    assert np.isclose(cfg.reference_gain, 1e-5)
    assert np.isclose(cfg.noise_density, 1e-16)
    assert np.isclose(cfg.power_max_offload, 10 ** 3.5 / 1000)


def test_db_and_dbm_units():
    assert np.isclose(parse_quantity("-50 dB"), 1e-5)
    assert np.isclose(parse_quantity("35 dBm"), 3.1622776601683795)
    assert np.isclose(parse_quantity("-130 dBm/Hz"), 1e-16)


def test_speed_size_and_angle_units():
    assert np.isclose(parse_quantity("60 km/h"), 60 / 3.6)
    assert np.isclose(parse_quantity("0.5 Mbit"), 5e5)
    assert np.isclose(parse_quantity("5 MHz"), 5e6)
    assert np.isclose(parse_quantity("pi/3"), math.pi / 3)
    assert np.isclose(parse_quantity("2pi/9"), 2 * math.pi / 9)
    assert parse_quantity("true") is True


def test_lambda_fraction_spacing():
    for text, spacing in (("lambda/2", 0.075), ("lambda/4", 0.0375), ("lambda", 0.15),
                          ("0.05 m", 0.05)):
        cfg = load_scenario(f"[radio]\nspacing = {text}\nwavelength = 0.15 m\n")
        assert np.isclose(cfg.resolved_spacing(), spacing)


def test_config_file_with_sections_and_comments(tmp_path):
    text = """
# stock scenario with a tweaked task
[task]
task_bits = 0.8 Mbit   ; per-slot requirement
horizon = 4 s

[radio]
antennas_vehicle = 16
antennas_uav = 16
antennas_rsu = 16
reference_gain = -50 dB
"""
    path = tmp_path / "run.ini"
    path.write_text(text)
    cfg = load_scenario(str(path))
    assert np.allclose(cfg.task_bits, 8e5)
    assert cfg.n_slots == 20
    assert cfg.antennas_uav == 16


def test_config_path_holding_an_equals_sign_is_read_as_that_file(tmp_path):
    path = tmp_path / "k=2.ini"
    path.write_text("[network]\nvehicles = 2\n")
    assert load_scenario(str(path)).vehicles == 2


@pytest.mark.parametrize("text", ["pi/0", "-2pi/0.0", "4000 dB", "3100 dBm", "3082.55 dB"])
def test_quantity_past_the_float_range_is_a_value_error(text):
    # not a ZeroDivisionError or OverflowError, which no refusal catches
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        parse_quantity(text)


@pytest.mark.parametrize("value, word", [("5e5, no", "no"), ("yes, 5e5", "yes"), ("5e5, none", "none"),
                                         ("5e5; off", "off"), ("5e5, 2e5, fast", "fast")])
def test_list_element_that_is_not_a_number_is_refused(value, word):
    # a switch word or `none` read as 0, 1 or nan would pass as a task size
    with pytest.raises(ValidationError) as err:
        load_scenario(f"[network]\nvehicles = 2\n[task]\ntask_bits = {value}\n")
    assert err.value.errors == [f"task.task_bits: list element {word!r} is not a number"]


def test_non_integer_slot_count_rejected():
    with pytest.raises(ValidationError) as err:
        load_scenario("[task]\nhorizon = 8 s\nslot = 0.3 s\n")
    assert any("horizon" in e for e in err.value.errors)


def test_unknown_keys_reported_with_paths():
    with pytest.raises(ValidationError) as err:
        load_scenario("[radio]\nbandwidht = 5 MHz\n")
    assert any("radio.bandwidht" in e for e in err.value.errors)


def test_sign_tolerance_is_not_a_config_key():
    with pytest.raises(ValidationError) as err:
        load_scenario("[solver]\nsign_tolerance = 1e-9\n")
    assert "solver.sign_tolerance: unknown key" in err.value.errors


UAV_CONSTANTS = ("c1", "c2", "c3", "tip_speed", "induced_velocity", "drag_ratio", "solidity",
                 "air_density", "disc_area", "climb_power", "blade_power", "induced_power")


# Every key `validate` range-checks or converts to int; NaN passes any `<`
# or `<=` check, and int() of NaN or inf raises an unnamed error.
RANGE_CHECKED_KEYS = [
    ("network", "vehicles"), ("network", "weight_vehicle"), ("network", "weight_uav"),
    ("task", "horizon"), ("task", "slot"), ("task", "task_bits"),
    ("task", "output_ratio"), ("task", "cpu_vehicle"), ("task", "cpu_uav"),
    ("task", "cycles_per_bit_vehicle"), ("task", "cycles_per_bit_uav"),
    ("task", "capacitance_vehicle"), ("task", "capacitance_uav"),
    ("radio", "bandwidth"), ("radio", "wavelength"), ("radio", "reference_gain"),
    ("radio", "noise_density"), ("radio", "power_max_offload"), ("radio", "power_max_relay"),
    ("radio", "power_max_down_uav"), ("radio", "power_max_down_rsu"),
    ("radio", "antennas_vehicle"), ("radio", "antennas_uav"), ("radio", "antennas_rsu"),
    ("solver", "epsilon"), ("solver", "max_iterations"), ("solver", "seed"),
] + [("uav", key) for key in UAV_CONSTANTS]


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("task", "task_bits", "-1"),
        ("task", "output_ratio", "-0.5"),
        ("radio", "power_max_offload", "-1 W"),
        ("radio", "power_max_relay", "-1 W"),
        ("radio", "power_max_down_uav", "-1 W"),
        ("radio", "power_max_down_rsu", "-1 W"),
        ("network", "weight_vehicle", "0"),
        ("network", "weight_uav", "-1"),
        ("task", "cpu_vehicle", "0"),
        ("task", "cpu_uav", "-3 GHz"),
        ("task", "cycles_per_bit_vehicle", "0"),
        ("task", "cycles_per_bit_uav", "-1e3"),
        ("task", "capacitance_vehicle", "0"),
        ("task", "capacitance_uav", "-1e-27"),
        ("solver", "epsilon", "0"),
        ("solver", "epsilon", "-1e-4"),
        ("radio", "path_loss_exponent", "nan"),
        ("geometry", "slant", "nan"),
        ("geometry", "uav_altitude", "nan"),
        ("geometry", "uav_speed", "inf"),
        ("task", "task_bits", "big"),
        ("geometry", "uav_altitude", "high"),
        ("radio", "spacing", "foo"),
        ("radio", "spacing", "lambda/0"),
        ("radio", "spacing", "-1 cm"),
        ("radio", "path_loss_exponent", "0.5"),
        ("geometry", "uav_altitude", "0"),
        ("geometry", "uav_altitude", "-10 m"),
        ("geometry", "vehicle_elevations", "0"),
        ("geometry", "vehicle_elevations", "pi/3, 2, pi/6"),
        ("geometry", "rsu_elevation", "0"),
        ("geometry", "rsu_elevation", "-pi/3"),
        ("geometry", "slant", "2"),
        ("geometry", "downtilt", "-2"),
        ("geometry", "vehicle_speed", "-1 m/s"),
        ("geometry", "uav_speed", "-10"),
        ("solver", "mode", "1, 2"),
        ("solver", "mode", ""),
        ("radio", "doppler_phase", "none"),
        ("uav", "uav_model", ""),
        ("uav", "c1", "none"),
    ]
    + [("uav", key, "-1") for key in UAV_CONSTANTS]
    + [
        (section, key, value)
        for section, key in RANGE_CHECKED_KEYS
        for value in ("nan", "inf")
    ],
)
def test_out_of_range_value_rejected_with_its_key(section, key, value):
    text = f"[{section}]\n{key} = {value}\n"
    if key != "horizon":
        text += ("" if section == "task" else "[task]\n") + "horizon = 0.2 s\n"
    with pytest.raises(ValidationError) as err:
        load_scenario(text)
    assert any(e.startswith(f"{section}.{key}:") for e in err.value.errors)


# Every key whose stock value is a number or an array, with its section
NUMERIC_KEYS = [(section, key) for section, keys in scenario._SECTIONS.items() for key in keys
                if not isinstance(getattr(ScenarioConfig(), key), (str, bool))]


@pytest.mark.parametrize("value", [-1, 0])
@pytest.mark.parametrize("section, key", NUMERIC_KEYS)
def test_numeric_key_is_refused_by_name_or_builds(section, key, value):
    # a value `validate` accepts must not fail later in a model's constructor,
    # whose error names no key; a refusal names the key before its colon
    cfg = ScenarioConfig(horizon=0.2, antennas_vehicle=4, antennas_uav=4, antennas_rsu=4)
    setattr(cfg, key, value)
    try:
        cfg = validate(cfg)
    except ValidationError as err:
        named = {name for e in err.errors for name in e.split(":")[0].split("/")}
        assert f"{section}.{key}" in named, err.errors
    else:
        build_instance(cfg)


def test_retired_min_bits_key_is_refused():
    # task_bits is every block's minimum bits; a second key for it is not read
    with pytest.raises(ValidationError) as err:
        load_scenario("[task]\nmin_bits = 5e5\n")
    assert err.value.errors == ["task.min_bits: unknown key"]


@pytest.mark.parametrize("key, value", [("seed", -1), ("max_iterations", -3)])
def test_negative_solver_counts_rejected(key, value):
    with pytest.raises(ValidationError) as err:
        load_scenario(f"[solver]\n{key} = {value}\n")
    assert f"solver.{key}: must be non-negative" in err.value.errors
    assert getattr(load_scenario(f"[solver]\n{key} = 0\n"), key) == 0


def test_elevations_unchecked_when_positions_place_the_nodes():
    cfg = load_scenario("[geometry]\nvehicle_elevations = 0\nrsu_elevation = 0\n"
                        "vehicle_positions = 5,1,0; 8,2,0; 12,0,0\nrsu_position = -20,0,0\n")
    assert np.all(cfg.vehicle_elevations == 0) and cfg.rsu_elevation == 0


COUNT_KEYS = [("network", "vehicles"), ("radio", "antennas_vehicle"), ("radio", "antennas_uav"),
              ("radio", "antennas_rsu"), ("solver", "max_iterations"), ("solver", "seed")]


def test_count_keys_are_the_keys_whose_stock_value_is_an_int():
    # every key set to 16.5: a whole-number refusal names exactly the counts
    with pytest.raises(ValidationError) as err:
        validate(ScenarioConfig(**{f.name: 16.5 for f in fields(ScenarioConfig)}))
    whole = [e.split(":")[0] for e in err.value.errors if e.endswith(": must be a whole number")]
    assert whole == [f"{section}.{key}" for section, key in COUNT_KEYS]


def test_fractional_counts_rejected_not_truncated():
    with pytest.raises(ValidationError) as err:
        validate(ScenarioConfig(antennas_uav=16.5))
    assert err.value.errors == ["radio.antennas_uav: must be a whole number"]
    with pytest.raises(ValidationError) as err:
        validate(ScenarioConfig(antennas_uav=16.5, vehicles=2.7))
    assert err.value.errors == ["network.vehicles: must be a whole number",
                                "radio.antennas_uav: must be a whole number"]


def test_arrays_too_large_to_build_refused_from_the_estimate():
    # validate refuses from the estimate alone: one slot of a 4096 x 4096
    # link would need 48 bytes per element pair, about 0.8 GB, and nothing
    # is built.  The largest link is named by its keys, L_tx x L_rx and bytes
    for arrays, keys, link in [((4096, 4096, 36), "antennas_vehicle/radio.antennas_uav", "4096 x 4096"),
                               ((36, 4096, 2048), "antennas_uav/radio.antennas_rsu", "4096 x 2048"),
                               ((1024, 2048, 4096), "antennas_uav/radio.antennas_rsu", "2048 x 4096")]:
        cfg = ScenarioConfig(**dict(zip(("antennas_vehicle", "antennas_uav", "antennas_rsu"), arrays)))
        with pytest.raises(ValidationError) as err:
            validate(cfg)
        need = SLOT_PAIR_BYTES * math.prod(map(int, link.split(" x ")))
        assert need > SLOT_BYTES_MAX
        assert err.value.errors == [f"radio.{keys}: one slot of the {link} (L_tx x L_rx) link needs "
                                    f"{need:,} bytes to build, over the {SLOT_BYTES_MAX:,}-byte budget"]
    assert SLOT_PAIR_BYTES * 2048 * 2048 <= SLOT_BYTES_MAX
    assert validate(ScenarioConfig(antennas_vehicle=2048, antennas_uav=2048)).antennas_uav == 2048


def test_horizon_too_long_to_hold_refused_from_the_estimate():
    # validate refuses from the estimate alone: 1,000,000 stock slots would
    # keep a (4, 3, N, 36) float64 gain table and 4 (N, 36) spectra, about
    # 4.6 GB, and nothing is built
    with pytest.raises(ValidationError) as err:
        validate(ScenarioConfig(horizon=2e5))
    need = 8 * 10**6 * (4 * 3 * 36 + 4 * 36)
    assert need > HORIZON_BYTES_MAX
    assert err.value.errors == [f"task.horizon/task.slot: the gain table and spectra of N = 1,000,000 slots "
                                f"need {need:,} bytes, over the {HORIZON_BYTES_MAX:,}-byte budget"]
    # the shorter spectrum of each link sets its width: 64-element vehicles
    # and UAV keep 64 values on the uplinks, and the 9-element ground unit 9
    # on the relay, in a table 64 wide
    with pytest.raises(ValidationError) as err:
        validate(ScenarioConfig(horizon=2e5, antennas_vehicle=64, antennas_uav=64, antennas_rsu=9))
    assert f"need {8 * 10**6 * (4 * 3 * 64 + 3 * 64 + 9):,} bytes" in err.value.errors[0]
    # a slot count past the floats is named, not an OverflowError
    with pytest.raises(ValidationError) as err:
        validate(ScenarioConfig(horizon=1e300, slot=1e-300))
    assert err.value.errors == ["task.horizon: horizon/slot = inf is not a positive integer slot count"]
    # the stock config, every golden config and the benchmark's random
    # draws of seeds 1-5 fit
    stock = validate(ScenarioConfig())
    golden = [set_axis(stock, "task_bits", bits) for bits in range(100_000, 900_001, 100_000)]
    golden += [set_axis(stock, "antennas", count) for count in (9, 16, 25, 36, 49, 64)]
    golden += [set_axis(stock, "uav_altitude", height) for height in (20, 30, 40, 50, 60)]
    workloads = load_perfbench("workloads")
    draws = [load_scenario(text) for seed in range(1, 6) for text in workloads.draw_block(np.random.default_rng(seed))]
    assert len(golden) == 20 and len(draws) == 60


@pytest.mark.parametrize("section, key", COUNT_KEYS)
def test_count_in_config_text_must_be_whole(section, key):
    with pytest.raises(ValidationError) as err:
        load_scenario(f"[{section}]\n{key} = 16.5\n")
    assert f"{section}.{key}: must be a whole number" in err.value.errors
    # an integral float, as INI text gives every number, becomes an int
    for cfg in (load_scenario(f"[{section}]\n{key} = 16\n"), validate(ScenarioConfig(**{key: 16.0}))):
        assert getattr(cfg, key) == 16 and type(getattr(cfg, key)) is int


@pytest.mark.parametrize("section, key, value, message", [
    ("network", "vehicles", "true", "must be a finite number"),
    ("radio", "antennas_uav", "on", "must be a finite number"),
    ("solver", "seed", "yes", "must be a finite number"),
    ("solver", "include_propulsion", "2", "must be true or false"),
    ("solver", "tccd_include_local", "0.5", "must be true or false"),
    ("solver", "include_propulsion", "maybe", "must be true or false"),
])
def test_switches_hold_booleans_and_numbers_do_not(section, key, value, message):
    # True == 1, so a boolean would pass every numeric check of a count
    with pytest.raises(ValidationError) as err:
        load_scenario(f"[{section}]\n{key} = {value}\n")
    assert err.value.errors == [f"{section}.{key}: {message}"]


def test_all_errors_collected_together():
    bad = "[task]\nhorizon = 8 s\nslot = 0.3 s\ncpu_vehicle = 5 GHz\n"
    with pytest.raises(ValidationError) as err:
        load_scenario(bad)
    assert len(err.value.errors) >= 2


def test_vehicle_array_broadcasting():
    cfg = load_scenario("[network]\nvehicles = 2\n[task]\noutput_ratio = 0.5\n")
    assert cfg.output_ratio.shape == (2,)
    assert np.allclose(cfg.output_ratio, 0.5)


def test_wrong_per_vehicle_length_rejected():
    # a list of neither 1 nor K values is refused, its values equal or not
    for text, key in (("[network]\nvehicles = 2\n[geometry]\nvehicle_elevations = pi/3, pi/4, pi/5\n",
                       "geometry.vehicle_elevations"),
                      ("[task]\ntask_bits = 5e5, 5e5\n", "task.task_bits"),
                      ("[geometry]\nvehicle_elevations = 1.0, 1.0\n", "geometry.vehicle_elevations")):
        with pytest.raises(ValidationError) as err:
            load_scenario(text)
        assert [error.split(":")[0] for error in err.value.errors] == [key], err.value.errors
    with pytest.raises(ValidationError) as err:
        load_scenario("[task]\ntask_bits = 5e5, 5e5\n")
    assert err.value.errors == ["task.task_bits: expected 1 or 3 values, got 2"]


@pytest.mark.parametrize("name", PER_VEHICLE_KEYS)
def test_per_vehicle_key_written_as_rows_is_refused(name):
    # `a;b` reads as two rows of one value; with two vehicles its size matched
    # the count, and the (2, 1) array failed later in the build or the solver
    with pytest.raises(ValidationError) as err:
        validate(ScenarioConfig(vehicles=2, **{name: np.array([[0.5], [0.7]])}))
    assert err.value.errors == [f"{_FIELD_SECTION[name]}.{name}: expected one row of values, comma-separated, "
                                "got shape (2, 1)"]
    with pytest.raises(ValidationError) as err:
        load_scenario("[network]\nvehicles = 2\n[task]\ntask_bits = 5e5;2e5\n")
    assert [error.split(":")[0] for error in err.value.errors] == ["task.task_bits"]


@pytest.mark.parametrize("value", ["5e5 ; 2e5", "5e5\t;2e5", "5e5 ; -2e5", "5e5 ; .5"])
def test_semicolon_comment_that_starts_with_a_number_is_refused(value):
    # a row separator written with a space before it would start a comment
    # and silently drop its row
    with pytest.raises(ValidationError) as err:
        load_scenario(f"[network]\nvehicles = 2\n[task]\ntask_bits = {value}\n")
    assert len(err.value.errors) == 1
    assert err.value.errors[0].startswith("task.task_bits: ") and "dropped as a comment" in err.value.errors[0]


def test_stock_elevations_cycle_with_vehicle_count():
    cfg = load_scenario("[network]\nvehicles = 5\n")
    assert cfg.vehicle_elevations.shape == (5,)
    assert np.isclose(cfg.vehicle_elevations[3], math.pi / 3)


def test_unparseable_text_raises_parse_error():
    with pytest.raises(ParseError):
        load_scenario("just some words\nwith = broken\n[missing")


# A value for every key that differs from its stock value and that
# `validate` accepts, the four optional keys set
NON_STOCK = dict(
    vehicles=2, weight_vehicle=np.array([1.5, 0.5]), weight_uav=0.2,
    horizon=0.4, slot=0.1, task_bits=np.array([2e5, 3e5]), output_ratio=np.array([0.5, 0.7]),
    cpu_vehicle=2e9, cpu_uav=4e9, cycles_per_bit_vehicle=500.0, cycles_per_bit_uav=700.0,
    capacitance_vehicle=2e-27, capacitance_uav=3e-27,
    uav_altitude=20.0, vehicle_elevations=np.array([1.0, 0.5]), rsu_elevation=1.1, slant=0.1,
    downtilt=0.2, bearing=0.3, vehicle_speed=10.0, vehicle_azimuth=0.4, uav_speed=5.0, uav_azimuth=0.6,
    uav_climb=0.05, vehicle_positions=np.array([[5.0, 1.0, 0.0], [8.0, 2.0, 0.0]]),
    rsu_position=np.array([-20.0, 0.0, 0.0]),
    wavelength=0.1, path_loss_exponent=2.5, bandwidth=1e7, reference_gain=2e-5, noise_density=2e-16,
    power_max_offload=1.0, power_max_relay=2.0, power_max_down_uav=3.0, power_max_down_rsu=4.0,
    antennas_vehicle=16, antennas_uav=9, antennas_rsu=25, spacing="lambda/4", doppler_phase="accumulated",
    uav_model="fixed_wing", c1=1e-3, c2=2000.0, c3=3.0, tip_speed=100.0, induced_velocity=4.0,
    drag_ratio=0.5, solidity=0.06, air_density=1.2, disc_area=0.4, climb_power=10.0,
    blade_power=80.0, induced_power=90.0,
    epsilon=1e-3, max_iterations=50, mode="baseline", include_propulsion=False, tccd_include_local=True,
    seed=7,
)


def test_echo_config_round_trips():
    stock, changed = validate(ScenarioConfig()), validate(ScenarioConfig(**NON_STOCK))
    assert [key for key, value in changed.as_dict().items() if value == stock.as_dict()[key]] == []
    # positions given as Python lists are echoed as numbers, not as list text
    listed = validate(ScenarioConfig(**{**NON_STOCK, "vehicle_positions": NON_STOCK["vehicle_positions"].tolist(),
                                        "rsu_position": NON_STOCK["rsu_position"].tolist()}))
    for cfg in (stock, changed, listed):
        assert load_scenario(echo_config(cfg)).as_dict() == cfg.as_dict()


def test_position_overrides_reach_geometry():
    cfg = load_scenario(
        "[geometry]\nvehicle_positions = 5,1,0; 8,2,0; 12,0,0\nrsu_position = -20,0,0\n"
    )
    inst = build_instance(cfg)
    assert np.allclose(inst.states[0].vehicles[0].position, [5, 1, 0])
    assert np.allclose(inst.states[0].rsu.position, [-20, 0, 0])


def test_one_vehicle_position_round_trips_through_the_echo():
    # config text reads one row flat, and the echo writes a (1, 3) position as one row
    cfg = load_scenario("[network]\nvehicles = 1\n[geometry]\nvehicle_positions = 5,1,0\n")
    again = load_scenario(echo_config(cfg))
    assert cfg.vehicle_positions.shape == (1, 3) and again.as_dict() == cfg.as_dict()
    assert np.array_equal(build_instance(again).states[0].vehicles[0].position, [5, 1, 0])


@pytest.mark.parametrize("line, message", [
    ("vehicle_positions = 1,0,0; 2,0,0", "geometry.vehicle_positions: expected shape (3, 3)"),
    ("vehicle_positions = 5,1,0", "geometry.vehicle_positions: expected shape (3, 3)"),
    ("rsu_position = 1, 2", "geometry.rsu_position: expected shape (3,)"),
], ids=["two rows", "one flat row", "two coordinates"])
def test_position_of_the_wrong_shape_rejected(line, message):
    with pytest.raises(ValidationError) as err:
        load_scenario(f"[geometry]\n{line}\n")
    assert any(e.startswith(message) for e in err.value.errors)


@pytest.mark.parametrize("line, key", [("uav_speed = 0", "uav_speed"), ("uav_climb = pi/2", "uav_climb"),
                                       ("uav_climb = -pi/2", "uav_climb")], ids=["hover", "up", "down"])
def test_fixed_wing_stall_rejected(line, key):
    # the fixed-wing propulsion power grows as 1/v_xy: a stalled or vertical
    # flight has no finite flight energy
    with pytest.raises(ValidationError) as err:
        load_scenario(f"[uav]\nuav_model = fixed_wing\n[geometry]\n{line}\n")
    assert any(e.startswith(f"geometry.{key}: a fixed-wing UAV") for e in err.value.errors)
    # a rotary-wing UAV hovers
    assert load_scenario(f"[geometry]\n{line}\n").uav_model == "rotary_wing"


def test_mode_and_doppler_validation():
    with pytest.raises(ValidationError):
        load_scenario("[solver]\nmode = fancy\n")
    with pytest.raises(ValidationError):
        load_scenario("[radio]\ndoppler_phase = sometimes\n")


def test_instance_caps_from_stock_values(table1_inst):
    assert np.isclose(table1_inst.bits_local_cap, 2e5)
    assert np.isclose(table1_inst.bits_uav_cap, 2e5)
    assert table1_inst.min_bits.shape == (3, 40)
    # K vehicle-UAV links and the relay, each over all 40 slots
    assert len(table1_inst.channel_sets) == 4
    assert all(ch.spectrum.shape == (40, 36) for ch in table1_inst.channel_sets)


def test_roll_out_builds_each_link_once_per_slot(monkeypatch, built_links):
    offsets, real_offsets = [], channel.element_offsets

    def counting_offsets(spec):
        offsets.append(spec)
        return real_offsets(spec)

    monkeypatch.setattr(channel, "element_offsets", counting_offsets)
    inst = build_instance(load_scenario("[task]\nhorizon = 0.4 s\n"))
    # one call per link covers every slot: K vehicle-UAV links, read in both
    # directions, and the UAV-to-ground-unit relay; the arrays of each share
    # spacing and angles, so each call places its displacement lattice once
    k, n = inst.min_bits.shape
    assert n == 2
    assert len(built_links) == k + 1
    assert len(offsets) == len(built_links)
    assert np.array_equal(inst.gains[PHASE_OFFLOAD], inst.gains[PHASE_DOWN_UAV])
    assert np.array_equal(inst.gains[PHASE_DOWN_UAV], inst.gains[PHASE_DOWN_RSU])


def test_repeated_roll_out_builds_no_link(built_links):
    cold = build_instance(load_scenario(""))
    assert len(built_links) == 4  # K + 1 on the stock scenario
    repeat = build_instance(load_scenario(""))
    assert len(built_links) == 4
    assert all(np.array_equal(a, b) for a, b in zip(repeat.gains, cold.gains))
    # a fresh list of the shared links
    assert repeat.channel_sets is not cold.channel_sets
    assert all(map(operator.is_, repeat.channel_sets, cold.channel_sets))


def test_cold_build_advances_no_state(monkeypatch, built_links):
    advanced, real = [], geometry.advance

    def counting(state):
        advanced.append(state.slot)
        return real(state)

    for module in (geometry, instance):
        monkeypatch.setattr(module, "advance", counting)
    inst = build_instance(load_scenario(""))
    assert len(built_links) == 4 and advanced == []
    # only the slot-0 state is kept
    assert [st.slot for st in inst.states] == [0]


# Every scenario field that reaches the slot-0 state, the array specs or the
# radio, with a changed value.
ROLL_OUT_INPUTS = (
    ("vehicles", 2),
    ("uav_altitude", 12.0),
    ("vehicle_elevations", np.array([1.0, 0.8, 0.6])),
    ("rsu_elevation", 1.0),
    ("vehicle_positions", np.array([[5.0, 1.0, 0.0], [8.0, -1.0, 0.0], [12.0, 0.0, 0.0]])),
    ("rsu_position", np.array([-9.0, 2.0, 0.0])),
    ("vehicle_speed", 10.0),
    ("uav_speed", 5.0),
    ("vehicle_azimuth", 0.5),
    ("uav_azimuth", 0.5),
    ("uav_climb", 0.1),
    ("antennas_vehicle", 16),
    ("antennas_uav", 16),
    ("antennas_rsu", 16),
    ("spacing", 0.05),
    ("slant", 0.5),
    ("downtilt", 0.5),
    ("bearing", 0.5),
    ("horizon", 0.6),
    ("slot", 0.1),
    ("wavelength", 0.1),
    ("path_loss_exponent", 2.5),
    ("reference_gain", 2e-5),
    ("bandwidth", 1e7),
    ("noise_density", 2e-16),
    ("doppler_phase", "accumulated"),
)


@pytest.mark.parametrize("name, value", ROLL_OUT_INPUTS, ids=[n for n, _ in ROLL_OUT_INPUTS])
def test_roll_out_memo_misses_when_an_input_changes(built_links, name, value):
    base = load_scenario("[task]\nhorizon = 0.4 s\n")
    # only `set_axis` resizes the validated per-vehicle lists to a new count
    changed = set_axis(base, name, value) if name == "vehicles" else validate(replace(base, **{name: value}))
    cold = build_instance(changed)
    build_instance(base)
    built_links.clear()
    again = build_instance(changed)
    assert len(built_links) == changed.vehicles + 1
    assert all(np.array_equal(a, b) for a, b in zip(again.gains, cold.gains))


def test_roll_out_memo_keys_on_the_caps_and_the_spectra(built_links):
    # a baseline build asks for log-determinants at the cap coefficients: a
    # changed uplink or relay cap misses, and its repeat hits
    base = load_scenario("[task]\nhorizon = 0.4 s\n[solver]\nmode = baseline\n")
    build_instance(base)
    for name in ("power_max_offload", "power_max_relay"):
        built_links.clear()
        changed = validate(replace(base, **{name: 2.0}))
        cold, again = build_instance(changed), build_instance(changed)
        assert len(built_links) == base.vehicles + 1
        assert np.array_equal(again.cap_rates, cold.cap_rates)
        build_instance(base)
    # only an identical request hits: a solver build without cap rates does
    # not share the links of one that also took them
    cfg = load_scenario("[task]\nhorizon = 0.4 s\n")
    with_caps = build_instance(cfg, baseline_row=True)
    built_links.clear()
    plain = build_instance(cfg)
    assert len(built_links) == cfg.vehicles + 1
    assert plain.cap_rates is None and np.array_equal(plain.gains, with_caps.gains)


def test_shared_link_arrays_are_read_only(table1_inst):
    link = table1_inst.channel_sets[0]
    for values in (link.spectrum, link.path_loss):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def _slot_states(inst):
    """The network state of every slot, advanced from the instance's slot-0
    state."""
    states = list(inst.states)
    while len(states) < inst.min_bits.shape[1]:
        states.append(geometry.advance(states[-1]))
    return states


def _reversed_links(doppler, antennas_uav=36):
    """The instance, its radio, and per (k, n) the uplink matrix and the
    UAV-to-vehicle matrix, which only these tests build, both from the
    matrix formula."""
    cfg = load_scenario(f"[radio]\ndoppler_phase = {doppler}\nantennas_uav = {antennas_uav}\n")
    inst = build_instance(cfg)
    radio = radio_config(cfg)
    links = [
        (k, n, los_matrix(veh, st.uav, radio, st.slot, st.slot_len)[1][0],
         los_matrix(st.uav, veh, radio, st.slot, st.slot_len)[1][0])
        for n, st in enumerate(_slot_states(inst))
        for k, veh in enumerate(st.vehicles)
    ]
    assert len(links) == inst.min_bits.size
    return inst, radio, links


@pytest.mark.parametrize("doppler", ["literal", "accumulated"])
def test_reversed_link_is_the_transposed_uplink(doppler):
    inst, _, links = _reversed_links(doppler)
    for k, n, up, ref in links:
        assert np.abs(ref - up.T).max() <= 1e-11 * np.abs(ref).max()
        s = np.linalg.svd(ref, compute_uv=False)
        built = np.sqrt(inst.channel_sets[k].spectrum[n])
        assert np.abs(s - built).max() <= 1e-14 * s[0]


@pytest.mark.parametrize("doppler", ["literal", "accumulated"])
def test_download_table_with_unequal_arrays_matches_reversed_links(doppler):
    inst, radio, links = _reversed_links(doppler, antennas_uav=16)
    down = inst.gains[PHASE_DOWN_UAV]
    for k, n, _, ref in links:
        n_tx = ref.shape[1]
        want = np.linalg.svd(ref, compute_uv=False) ** 2 / (radio.bandwidth * radio.noise_density * n_tx)
        assert np.abs(down[k, n] - want).max() <= 1e-12 * want.max()


def _reference_gain_tables(cfg, inst):
    """The (4, K, N, L) gain table from one matrix and one SVD per slot and
    link, each phase's spectra padded with zeros to the longest one, and each
    phase's own spectrum length."""
    radio, bound = radio_config(cfg), channel_bound(cfg.mode)

    def gain(tx, rx, st):
        matrix = los_matrix(tx, rx, radio, st.slot, st.slot_len)[1][0]
        lam2 = np.linalg.svd(matrix, compute_uv=False) ** 2
        if bound == "rank1":
            lam2 = np.array([np.sum(lam2)])
        elif bound == "fullrank":
            lam2 = np.full(lam2.size, np.sum(lam2) / lam2.size)
        return lam2 / (radio.bandwidth * radio.noise_density * tx.array.size)

    states = _slot_states(inst)
    up = np.array([[gain(st.vehicles[k], st.uav, st) for st in states]
                   for k in range(inst.min_bits.shape[0])])
    relay = np.array([[gain(st.uav, st.rsu, st) for st in states]] * inst.min_bits.shape[0])
    st = states[0]
    down = up * (st.vehicles[0].array.size / st.uav.array.size)
    tables = [up, relay, down, down]
    width = max(t.shape[-1] for t in tables)
    padded = np.stack([np.pad(t, [(0, 0), (0, 0), (0, width - t.shape[-1])]) for t in tables])
    return padded, [t.shape[-1] for t in tables]


# an uplink spectrum of min(16, 36) values beside a relay one of min(36, 64)
UNEQUAL_SPECTRA = "[radio]\nantennas_vehicle = 16\nantennas_rsu = 64\n"


@pytest.mark.parametrize("text", [
    "",
    "[radio]\ndoppler_phase = accumulated\n",
    "[radio]\nantennas_uav = 16\n",
    "[network]\nvehicles = 1\n",
    "[network]\nvehicles = 4\n",
    "[solver]\nmode = rank1_bound\n",
    "[solver]\nmode = fullrank_bound\n[radio]\nantennas_uav = 16\n",
    UNEQUAL_SPECTRA,
])
def test_gain_tables_equal_the_per_slot_per_link_build(text):
    cfg = load_scenario(text)
    inst = build_instance(cfg)
    want, lengths = _reference_gain_tables(cfg, inst)
    assert np.array_equal(inst.gains, want)
    # a shorter spectrum ends in exact zeros, and both download rows are one table
    for row, length in zip(inst.gains, lengths, strict=True):
        assert (row[..., length:] == 0.0).all()
    assert np.array_equal(inst.gains[PHASE_DOWN_UAV], inst.gains[PHASE_DOWN_RSU])
    if text == UNEQUAL_SPECTRA:
        assert lengths == [16, 36, 16, 16] and inst.gains.shape[-1] == 36


def test_rank1_mode_collapses_gain_tables():
    cfg = load_scenario("[solver]\nmode = rank1_bound\n")
    inst = build_instance(cfg)
    assert all(g.shape[-1] == 1 for g in inst.gains)
    exact = build_instance(load_scenario(""))
    # total singular power is preserved by the collapse
    assert np.allclose(inst.gains[0][..., 0], exact.gains[0].sum(axis=-1), rtol=1e-9)


def test_bound_mode_rates_match_rate_bound():
    # the rank-1 lower bound is the rate of one mode carrying the exact
    # spectrum's whole trace power; the full-rank upper bound spreads it
    # evenly over min(L_tx, L_rx) modes
    exact = build_instance(load_scenario(""))
    power = 0.5
    ch = exact.channel_sets[0]  # vehicle 0's uplink
    snr = ch.trace_power[0] / (exact.bandwidth * ScenarioConfig().noise_density * ch.n_tx)
    lmin = min(ch.n_tx, ch.n_rx)
    tables = {"rank1_bound": np.array([snr]), "fullrank_bound": np.full(lmin, snr / lmin)}
    for mode, table in tables.items():
        inst = build_instance(load_scenario(f"[solver]\nmode = {mode}\n"))
        got = float(inst.rate(np.full((4, 3, 40), power))[PHASE_OFFLOAD, 0, 0])
        want = instance.rate(table, exact.bandwidth, power)
        assert np.isclose(got, want, rtol=1e-9)



# The perfbench geometry points, and links whose cap rates take other paths:
# unequal arrays (a Gram on each link's smaller side), the accumulated Doppler
# phase, one and four vehicles, a high-SNR geometry (the UAV 1 m up, about 500
# bits/s/Hz), and unequal caps (three distinct coefficients on every
# vehicle-UAV link, one of them zero).  The Gram's rounding, about eps times
# its largest eigenvalue, reaches the rate through the weak modes, so the two
# drift apart as the strongest mode's SNR grows: 4e-12 at a noise density of
# 1e-18 W/Hz (top SNR 1.7e6).
CAP_RATE_SCENARIOS = [""] + [f"[radio]\nantennas_vehicle = {n}\nantennas_uav = {n}\nantennas_rsu = {n}\n"
                             for n in (9, 16, 25, 36, 49, 64)] + [
    f"[geometry]\nuav_altitude = {h}\n" for h in (20, 30, 40, 50, 60)] + [
    "[radio]\nantennas_vehicle = 16\nantennas_uav = 36\nantennas_rsu = 64\n",
    "[radio]\nantennas_vehicle = 64\nantennas_uav = 36\nantennas_rsu = 16\n",
    "[radio]\ndoppler_phase = accumulated\n",
    "[network]\nvehicles = 1\n",
    "[network]\nvehicles = 4\n",
    "[geometry]\nuav_altitude = 1\n",
    "[radio]\npower_max_offload = 2\npower_max_down_uav = 0.5\npower_max_down_rsu = 0\n",
]


@pytest.mark.parametrize("text", CAP_RATE_SCENARIOS)
def test_cap_rates_match_the_spectral_sums(text):
    # B/ln2 * ln det(I + c H^H H) against B * sum_l log2(1 + p_cap * g_l) of
    # the exact gain table
    base = build_instance(load_scenario(text + "[solver]\nmode = baseline\n"))
    exact = build_instance(load_scenario(text))
    want = exact.rate(np.broadcast_to(exact.power_max[:, None, None], exact.gains.shape[:-1]))
    assert base.gains is None and base.cap_rates.shape == want.shape
    assert np.all(np.abs(base.cap_rates - want) <= 1e-12 * want)


def _counted(monkeypatch, name):
    calls, real = [], getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs))
    return calls


def test_baseline_build_takes_no_svd_and_optimized_build_no_log_determinant(monkeypatch, built_links):
    svds, log_dets = _counted(monkeypatch, "svd"), _counted(monkeypatch, "slogdet")
    build_instance(load_scenario("[solver]\nmode = baseline\n"))
    assert len(built_links) == 4 and svds == [] and log_dets
    log_dets.clear()
    inst = build_instance(load_scenario(""))
    assert len(built_links) == 8 and svds and log_dets == [] and inst.cap_rates is None


def test_baseline_instance_rates_only_at_zero_or_the_caps():
    inst = build_instance(load_scenario("[task]\nhorizon = 0.4 s\n[solver]\nmode = baseline\n"))
    caps = np.broadcast_to(inst.power_max[:, None, None], inst.cap_rates.shape)
    powers = np.where(np.arange(2) == 0, caps, 0.0)  # slot 0 at the caps, slot 1 silent
    assert np.array_equal(inst.rate(powers), np.where(powers > 0, inst.cap_rates, 0.0))
    with pytest.raises(ValueError, match="only at 0 or at the power caps"):
        inst.rate(np.where(np.arange(2) == 0, caps, caps / 2))
