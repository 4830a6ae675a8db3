import copy
import math
import operator

import numpy as np
import pytest

from uavmec import channel, geometry, instance
from uavmec.channel import los_matrix
from uavmec.instance import PHASE_DOWN_RSU, PHASE_DOWN_UAV, PHASE_OFFLOAD
from uavmec.scenario import (
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


# Every key `validate` range-checks or converts to int; NaN passes any `<`
# or `<=` check, and int() of NaN or inf raises an unnamed error.
RANGE_CHECKED_KEYS = [
    ("network", "vehicles"), ("network", "weight_vehicle"), ("network", "weight_uav"),
    ("task", "horizon"), ("task", "slot"), ("task", "task_bits"), ("task", "min_bits"),
    ("task", "output_ratio"), ("task", "cpu_vehicle"), ("task", "cpu_uav"),
    ("task", "cycles_per_bit_vehicle"), ("task", "cycles_per_bit_uav"),
    ("task", "capacitance_vehicle"), ("task", "capacitance_uav"),
    ("radio", "bandwidth"), ("radio", "wavelength"), ("radio", "reference_gain"),
    ("radio", "noise_density"), ("radio", "power_max_offload"), ("radio", "power_max_relay"),
    ("radio", "power_max_down_uav"), ("radio", "power_max_down_rsu"),
    ("radio", "antennas_vehicle"), ("radio", "antennas_uav"), ("radio", "antennas_rsu"),
    ("solver", "epsilon"), ("solver", "max_iterations"), ("solver", "seed"),
]


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("task", "task_bits", "-1"),
        ("task", "min_bits", "-1"),
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
    ]
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


def test_elevations_unchecked_when_positions_place_the_nodes():
    cfg = load_scenario("[geometry]\nvehicle_elevations = 0\nrsu_elevation = 0\n"
                        "vehicle_positions = 5,1,0; 8,2,0; 12,0,0\nrsu_position = -20,0,0\n")
    assert np.all(cfg.vehicle_elevations == 0) and cfg.rsu_elevation == 0


COUNT_KEYS = [("network", "vehicles"), ("radio", "antennas_vehicle"), ("radio", "antennas_uav"),
              ("radio", "antennas_rsu"), ("solver", "max_iterations"), ("solver", "seed")]


def test_fractional_counts_rejected_not_truncated():
    with pytest.raises(ValidationError) as err:
        validate(ScenarioConfig(antennas_uav=16.5))
    assert err.value.errors == ["radio.antennas_uav: must be a whole number"]
    with pytest.raises(ValidationError) as err:
        validate(ScenarioConfig(antennas_uav=16.5, vehicles=2.7))
    assert err.value.errors == ["network.vehicles: must be a whole number",
                                "radio.antennas_uav: must be a whole number"]


@pytest.mark.parametrize("section, key", COUNT_KEYS)
def test_count_in_config_text_must_be_whole(section, key):
    with pytest.raises(ValidationError) as err:
        load_scenario(f"[{section}]\n{key} = 16.5\n")
    assert f"{section}.{key}: must be a whole number" in err.value.errors
    # an integral float, as INI text gives every number, becomes an int
    for cfg in (load_scenario(f"[{section}]\n{key} = 16\n"), validate(ScenarioConfig(**{key: 16.0}))):
        assert getattr(cfg, key) == 16 and type(getattr(cfg, key)) is int


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
    with pytest.raises(ValidationError):
        load_scenario("[network]\nvehicles = 2\n[geometry]\nvehicle_elevations = pi/3, pi/4, pi/5\n")


def test_stock_elevations_cycle_with_vehicle_count():
    cfg = load_scenario("[network]\nvehicles = 5\n")
    assert cfg.vehicle_elevations.shape == (5,)
    assert np.isclose(cfg.vehicle_elevations[3], math.pi / 3)


def test_unparseable_text_raises_parse_error():
    with pytest.raises(ParseError):
        load_scenario("just some words\nwith = broken\n[missing")


def test_echo_config_round_trips():
    cfg = validate(ScenarioConfig())
    text = echo_config(cfg)
    again = load_scenario(text)
    assert again.as_dict() == cfg.as_dict()


def test_position_overrides_reach_geometry():
    cfg = load_scenario(
        "[geometry]\nvehicle_positions = 5,1,0; 8,2,0; 12,0,0\nrsu_position = -20,0,0\n"
    )
    inst = build_instance(cfg)
    assert np.allclose(inst.states[0].vehicles[0].position, [5, 1, 0])
    assert np.allclose(inst.states[0].rsu.position, [-20, 0, 0])


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
    # directions, and the UAV-to-ground-unit relay; each call places the
    # elements of its two arrays once
    assert inst.n_slots == 2
    assert len(built_links) == inst.n_vehicles + 1
    assert len(offsets) == 2 * len(built_links)
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
    changed = copy.deepcopy(base)
    setattr(changed, name, value)
    changed = validate(changed)
    cold = build_instance(changed)
    build_instance(base)
    built_links.clear()
    again = build_instance(changed)
    assert len(built_links) == changed.vehicles + 1
    assert all(np.array_equal(a, b) for a, b in zip(again.gains, cold.gains))


def test_shared_link_arrays_are_read_only(table1_inst):
    link = table1_inst.channel_sets[0]
    for values in (link.spectrum, link.path_loss):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def _slot_states(inst):
    """The network state of every slot, advanced from the instance's slot-0
    state."""
    states = list(inst.states)
    while len(states) < inst.n_slots:
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
    assert len(links) == inst.n_slots * inst.n_vehicles
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
    """The four gain tables from one matrix and one SVD per slot and link."""
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
                   for k in range(inst.n_vehicles)])
    relay = np.array([[gain(st.uav, st.rsu, st) for st in states]] * inst.n_vehicles)
    st = states[0]
    down = up * (st.vehicles[0].array.size / st.uav.array.size)
    return [up, relay, down, down]


@pytest.mark.parametrize("text", [
    "",
    "[radio]\ndoppler_phase = accumulated\n",
    "[radio]\nantennas_uav = 16\n",
    "[network]\nvehicles = 1\n",
    "[network]\nvehicles = 4\n",
    "[solver]\nmode = rank1_bound\n",
    "[solver]\nmode = fullrank_bound\n[radio]\nantennas_uav = 16\n",
])
def test_gain_tables_equal_the_per_slot_per_link_build(text):
    cfg = load_scenario(text)
    inst = build_instance(cfg)
    for got, want in zip(inst.gains, _reference_gain_tables(cfg, inst), strict=True):
        assert np.array_equal(got, want)


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
        got = float(inst.rate(0, np.full((3, 40), power))[0, 0])
        want = instance.rate(table, exact.bandwidth, power)
        assert np.isclose(got, want, rtol=1e-9)

