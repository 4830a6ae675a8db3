import numpy as np
import pytest

from uavmec.energy import (
    ComputeModel,
    FixedWingStall,
    compute_energy,
    flight_energy,
    rotary_defaults,
)
from uavmec.scenario import ScenarioConfig, flight_model


def stock_model(kind):
    """The stock UAV of the given kind, built as a scenario builds it."""
    return flight_model(ScenarioConfig(uav_model=kind))


def test_rotary_defaults_match_stock_rotor_constants():
    stock = ScenarioConfig()
    p0, p1 = rotary_defaults(stock.air_density, stock.solidity, stock.disc_area)
    assert np.isclose(p0, 79.85628, rtol=1e-6)
    assert np.isclose(p1, 88.6279, rtol=1e-4)


def test_rotary_hover_energy():
    model = stock_model("rotary_wing")
    e = flight_energy(model, [0, 0, 0], [0, 0, 0], 0.2)
    assert np.isclose(e, 0.2 * (model.p0 + model.p1), rtol=1e-12)
    assert np.isclose(e, 33.7, rtol=0.01)


def test_fixed_wing_energy_at_ten_mps():
    model = stock_model("fixed_wing")
    e = flight_energy(model, [10, 0, 0], [0, 0, 0], 0.2)
    assert np.isclose(e, 0.2 * (9.26e-4 * 1000 + 2250 / 10), rtol=1e-12)
    assert np.isclose(e, 45.19, rtol=1e-3)


def test_rotary_vertical_speed_term_is_linear():
    model = stock_model("rotary_wing")
    tau = 0.2
    base = flight_energy(model, [5, 2, 0], [0, 0, 1.0], tau)
    doubled = flight_energy(model, [5, 2, 0], [0, 0, 2.0], tau)
    assert np.isclose(doubled - base, tau * model.p2 * 1.0, rtol=1e-12)


def test_fixed_wing_stall():
    model = stock_model("fixed_wing")
    with pytest.raises(FixedWingStall):
        flight_energy(model, [0, 0, 0], [0, 0, 1.0], 0.2)


def test_fixed_wing_energy_convex_in_horizontal_speed():
    model = stock_model("fixed_wing")
    v = np.linspace(1.0, 60.0, 120)
    e = np.array([flight_energy(model, [x, 0, 0], [0, 0, 0], 0.2) for x in v])
    second = np.diff(np.diff(e))
    assert (second > -1e-9).all()


def test_compute_energy_zero_bits():
    model = ComputeModel(1e9, 1e3, 1e-27)
    assert compute_energy(0.0, model, 0.2) == 0.0


def test_local_compute_energy_example():
    model = ComputeModel(1e9, 1e3, 1e-27)
    assert np.isclose(compute_energy(2e5, model, 0.2), 0.2, rtol=1e-12)


def test_uav_compute_energy_squares_vehicle_count():
    model = ComputeModel(3e9, 1e3, 1e-27)
    assert np.isclose(compute_energy(2e5, model, 0.2 / 3), 1.8, rtol=1e-12)


def test_compute_energy_strictly_convex():
    model = ComputeModel(1e9, 1e3, 1e-27)
    b = np.linspace(0, 2e5, 50)
    e = np.array([compute_energy(x, model, 0.2) for x in b])
    assert (np.diff(np.diff(e)) > 0).all()

