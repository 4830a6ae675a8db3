import math

import numpy as np
import pytest

from uavmec import instance
from uavmec.instance import PHASE_DOWN_RSU, PHASE_DOWN_UAV
from uavmec.scenario import (
    ParseError,
    ScenarioConfig,
    ValidationError,
    build_instance,
    echo_config,
    load_scenario,
    parse_quantity,
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
    cfg = load_scenario("[radio]\nspacing = lambda/2\nwavelength = 0.15 m\n")
    assert np.isclose(cfg.resolved_spacing(), 0.075)


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
    ],
)
def test_out_of_range_value_rejected_with_its_key(section, key, value):
    text = f"[{section}]\n{key} = {value}\n"
    if section != "task":
        text += "[task]\n"
    text += "horizon = 0.2 s\n"
    with pytest.raises(ValidationError) as err:
        load_scenario(text)
    assert any(e.startswith(f"{section}.{key}:") for e in err.value.errors)


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
    assert len(table1_inst.channel_sets) == 40


def test_roll_out_builds_each_link_once_per_slot(monkeypatch):
    calls = []
    real = instance.build_channel

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(instance, "build_channel", counting)
    inst = build_instance(load_scenario("[task]\nhorizon = 0.4 s\n"))
    # per slot: K uplinks, K downlinks and the UAV-to-ground-unit relay
    assert len(calls) == inst.n_slots * (2 * inst.n_vehicles + 1)
    assert np.array_equal(inst.gains[PHASE_DOWN_UAV], inst.gains[PHASE_DOWN_RSU])


def test_rank1_mode_collapses_gain_tables():
    cfg = load_scenario("[solver]\nmode = rank1_bound\n")
    inst = build_instance(cfg)
    assert all(g.shape[-1] == 1 for g in inst.gains)
    exact = build_instance(load_scenario(""))
    # total singular power is preserved by the collapse
    assert np.allclose(inst.gains[0][..., 0], exact.gains[0].sum(axis=-1), rtol=1e-9)


def test_bound_mode_rates_match_rate_bound():
    from uavmec.channel import RadioConfig, rate_bound

    exact = build_instance(load_scenario(""))
    radio = RadioConfig(wavelength=0.15, path_loss_exponent=2, reference_gain=1e-5,
                        bandwidth=5e6, noise_density=1e-16)
    power = 0.5
    for mode, which in (("rank1_bound", "lower"), ("fullrank_bound", "upper")):
        inst = build_instance(load_scenario(f"[solver]\nmode = {mode}\n"))
        got = float(inst.rate(0, np.full((3, 40), power))[0, 0])
        ch = exact.channel_sets[0].v2u[0]
        want = rate_bound(power, ch, radio, ch.n_tx, which)
        assert np.isclose(got, want, rtol=1e-9)

