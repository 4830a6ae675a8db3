import numpy as np
import pytest

from uavmec.geometry import (
    AdvancePastHorizon,
    ArraySpec,
    NetworkState,
    NodeState,
    advance,
    element_offsets,
    initial_state,
    make_velocity,
    rotation_matrix,
    trajectory,
)


def test_rotation_identity():
    assert np.allclose(rotation_matrix(0, 0, 0), np.eye(3))


def test_rotation_quarter_turn_about_x():
    r = rotation_matrix(np.pi / 2, 0, 0)
    assert np.allclose(r @ [0, 1, 0], [0, 0, 1], atol=1e-15)


def test_rotation_orthonormal_table_angles():
    r = rotation_matrix(np.pi / 3, np.pi / 4, np.pi / 3)
    assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
    assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def test_rotation_orthonormal_random_angles():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        sx, sy = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        sz = rng.uniform(0, 2 * np.pi)
        r = rotation_matrix(sx, sy, sz)
        assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def test_single_element_array_sits_at_center():
    spec = ArraySpec(1, 1, 0.075)
    pos = np.array([3.0, -2.0, 7.0]) + element_offsets(spec)
    assert pos.shape == (1, 3)
    assert np.allclose(pos[0], [3.0, -2.0, 7.0])


def test_two_element_row_offsets_are_centered():
    spec = ArraySpec(2, 1, 0.075)
    off = element_offsets(spec)
    assert np.allclose(off[:, 0], [-0.0375, 0.0375])
    assert np.allclose(off[:, 1:], 0.0)


def test_offsets_sum_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        spec = ArraySpec(
            int(rng.integers(1, 9)), int(rng.integers(1, 9)), rng.uniform(0.01, 0.2),
            slant=rng.uniform(-1.5, 1.5), downtilt=rng.uniform(-1.5, 1.5),
            bearing=rng.uniform(0, 6.28),
        )
        assert np.allclose(element_offsets(spec).sum(axis=0), 0.0, atol=1e-12)


def test_offsets_are_centrosymmetric():
    spec = ArraySpec(4, 6, 0.05, slant=0.3, downtilt=-0.7, bearing=2.0)
    off = element_offsets(spec)
    negated = -off
    for o in off:
        assert np.min(np.linalg.norm(negated - o, axis=1)) < 1e-12


def _simple_state(v_vehicle, v_uav, n_slots=40, slot_len=0.2):
    spec = ArraySpec(2, 2, 0.075)
    vehicles = (NodeState(np.array([17.3, 0.0, 0.0]), v_vehicle, spec),)
    uav = NodeState(np.array([0.0, 0.0, 10.0]), v_uav, spec)
    rsu = NodeState(np.array([-17.3, 0.0, 0.0]), np.zeros(3), spec)
    return NetworkState(0, vehicles, uav, rsu, n_slots, slot_len)


def test_advance_zero_velocity_keeps_positions():
    st = _simple_state(np.zeros(3), np.zeros(3))
    nxt = advance(st)
    assert nxt.slot == 1
    assert np.allclose(nxt.vehicles[0].position, st.vehicles[0].position)
    assert np.allclose(nxt.uav.position, st.uav.position)


def test_advance_uav_displacement_matches_velocity():
    # 10 m/s at azimuth pi/3 and climb pi/9 over a 0.2 s slot: 2 m along the
    # velocity direction
    v = make_velocity(10.0, np.pi / 3, np.pi / 9)
    st = _simple_state(np.zeros(3), v)
    nxt = advance(st)
    expected = 2.0 * np.array(
        [np.cos(np.pi / 3) * np.cos(np.pi / 9),
         np.sin(np.pi / 3) * np.cos(np.pi / 9),
         np.sin(np.pi / 9)]
    )
    assert np.allclose(nxt.uav.position - st.uav.position, expected, atol=1e-12)


def test_advance_telescopes_to_straight_line():
    v = make_velocity(10.0, np.pi / 3, np.pi / 9)
    st = _simple_state(make_velocity(60 / 3.6, np.pi / 3), v)
    total = st
    for _ in range(st.n_slots):
        total = advance(total)
    horizon = st.n_slots * st.slot_len
    assert np.allclose(total.uav.position - st.uav.position, v * horizon, atol=1e-9)
    assert np.allclose(
        total.vehicles[0].position - st.vehicles[0].position,
        st.vehicles[0].velocity * horizon,
        atol=1e-9,
    )


def test_trajectory_is_the_advanced_positions_bit_for_bit():
    st = _simple_state(make_velocity(60 / 3.6, np.pi / 3), make_velocity(10.0, np.pi / 3, np.pi / 9))
    states = [st]
    for _ in range(st.n_slots - 1):
        states.append(advance(states[-1]))
    for pick in (lambda s: s.vehicles[0], lambda s: s.uav, lambda s: s.rsu):
        want = np.array([pick(s).position for s in states])
        assert np.array_equal(trajectory(pick(st), st.n_slots, st.slot_len), want)
    assert np.array_equal(trajectory(st.uav, 1, None), [st.uav.position])


def test_ground_unit_is_fixed_point_of_advance():
    st = _simple_state(make_velocity(10, 0.3), make_velocity(5, 1.0, 0.1))
    nxt = advance(st)
    assert np.array_equal(nxt.rsu.position, st.rsu.position)


def test_advance_preserves_inter_element_distances():
    spec = ArraySpec(3, 3, 0.075, slant=0.4, downtilt=0.3, bearing=1.2)
    st = _simple_state(make_velocity(12, 0.5), make_velocity(9, 0.1, 0.2))
    st = NetworkState(0, (NodeState(st.vehicles[0].position, st.vehicles[0].velocity, spec),),
                      st.uav, st.rsu, st.n_slots, st.slot_len)
    before = st.vehicles[0].position + element_offsets(spec)
    nxt = advance(st)
    after = nxt.vehicles[0].position + element_offsets(spec)
    d_before = np.linalg.norm(before[:, None] - before[None, :], axis=2)
    d_after = np.linalg.norm(after[:, None] - after[None, :], axis=2)
    assert np.allclose(d_before, d_after, atol=1e-12)


def test_advance_past_horizon_raises():
    st = _simple_state(np.zeros(3), np.zeros(3), n_slots=1)
    nxt = advance(st)
    with pytest.raises(AdvancePastHorizon):
        advance(nxt)


def test_make_velocity_cases():
    assert np.allclose(make_velocity(0.0, 1.2, 0.4), 0.0)
    assert np.allclose(make_velocity(1.0, 0.0, 0.0), [1, 0, 0])
    v = make_velocity(10.0, np.pi / 3, np.pi / 9)
    assert abs(np.linalg.norm(v) - 10.0) <= 1e-12


def test_initial_state_placement():
    spec = ArraySpec(6, 6, 0.075)
    st = initial_state(
        n_vehicles=3,
        uav_altitude=10.0,
        vehicle_elevations=[np.pi / 3, np.pi / 4, np.pi / 6],
        rsu_elevation=np.pi / 3,
        vehicle_speed=60 / 3.6,
        vehicle_azimuth=np.pi / 3,
        uav_speed=10.0,
        uav_azimuth=np.pi / 3,
        uav_climb=np.pi / 9,
        vehicle_array=spec, uav_array=spec, rsu_array=spec,
        n_slots=40, slot_len=0.2,
    )
    assert np.allclose(st.uav.position, [0, 0, 10])
    # slot-0 slant ranges follow the configured elevation angles
    for veh, theta in zip(st.vehicles, (np.pi / 3, np.pi / 4, np.pi / 6)):
        d = np.linalg.norm(st.uav.position - veh.position)
        assert np.isclose(d, 10.0 / np.sin(theta))
    assert st.rsu.position[0] < 0
    assert np.allclose(st.rsu.velocity, 0.0)
