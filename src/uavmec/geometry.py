"""3-D placement and mobility of the network nodes and their antenna arrays.

Every node (vehicle, relay UAV, ground roadside unit) carries a uniform
rectangular planar array whose orientation in the global frame is set by a
slant/downtilt/bearing rotation.  All quantities are SI; states are immutable
values and `advance` returns a new state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


class AdvancePastHorizon(Exception):
    """Raised when advancing a network state beyond its last timeslot."""


@dataclass(frozen=True)
class ArraySpec:
    """Geometry of one uniform rectangular planar array.

    rows x cols elements with equal spacing (meters); orientation given by
    slant (about x), downtilt (about y) and bearing (about z), in radians.
    """

    rows: int
    cols: int
    spacing: float
    slant: float = 0.0
    downtilt: float = 0.0
    bearing: float = 0.0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array must have at least one element per axis")
        if self.spacing <= 0:
            raise ValueError("element spacing must be positive")
        half_pi = np.pi / 2 + 1e-12
        if abs(self.slant) > half_pi or abs(self.downtilt) > half_pi:
            raise ValueError("slant and downtilt must lie in [-pi/2, pi/2]")

    @property
    def size(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class NodeState:
    """Position (m), velocity (m/s) and array of a single node."""

    position: np.ndarray
    velocity: np.ndarray
    array: ArraySpec

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))
        if self.position.shape != (3,) or self.velocity.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")
        if not (np.isfinite(self.position).all() and np.isfinite(self.velocity).all()):
            raise ValueError("node coordinates must be finite")


@dataclass(frozen=True)
class NetworkState:
    """All node states at one timeslot.

    `slot` counts from 0; `n_slots` is the number of slots in the flight
    horizon and `slot_len` the slot duration in seconds.  The ground unit is
    static by construction (zero velocity).
    """

    slot: int
    vehicles: tuple[NodeState, ...]
    uav: NodeState
    rsu: NodeState
    n_slots: int
    slot_len: float

    def __post_init__(self):
        object.__setattr__(self, "vehicles", tuple(self.vehicles))
        if len(self.vehicles) < 1:
            raise ValueError("need at least one vehicle")
        if np.any(self.rsu.velocity != 0.0):
            raise ValueError("ground roadside unit must be static")


def rotation_matrix(slant: float, downtilt: float, bearing: float) -> np.ndarray:
    """Composite rotation R_X(slant) @ R_Y(downtilt) @ R_Z(bearing).

    Maps array-local coordinates into the global frame; orthonormal with
    determinant +1.
    """
    cx, sx = np.cos(slant), np.sin(slant)
    cy, sy = np.cos(downtilt), np.sin(downtilt)
    cz, sz = np.cos(bearing), np.sin(bearing)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rx @ ry @ rz


def element_offsets(spec: ArraySpec) -> np.ndarray:
    """Rotated offsets of every array element relative to the array center.

    The local grid is centered and antisymmetric: element (m, m') sits at
    ((2m - rows - 1) * spacing / 2, (2m' - cols - 1) * spacing / 2, 0) in the
    local frame, for 1-based m, m'.  Returns an (rows*cols, 3) array ordered
    row-major in (m, m').
    """
    m = np.arange(1, spec.rows + 1)
    mp = np.arange(1, spec.cols + 1)
    x = (2 * m - spec.rows - 1) * spec.spacing / 2.0
    y = (2 * mp - spec.cols - 1) * spec.spacing / 2.0
    local = np.zeros((spec.rows, spec.cols, 3))
    local[:, :, 0] = x[:, None]
    local[:, :, 1] = y[None, :]
    rot = rotation_matrix(spec.slant, spec.downtilt, spec.bearing)
    return local.reshape(-1, 3) @ rot.T


def make_velocity(speed: float, azimuth: float, elevation: float = 0.0) -> np.ndarray:
    """Velocity vector of given speed, azimuth heading and climb angle."""
    if speed < 0:
        raise ValueError("speed must be non-negative")
    return speed * np.array(
        [
            np.cos(azimuth) * np.cos(elevation),
            np.sin(azimuth) * np.cos(elevation),
            np.sin(elevation),
        ]
    )


def advance(state: NetworkState) -> NetworkState:
    """Move every mobile node by one timeslot along its velocity.

    The ground unit is a fixed point; element positions follow their centers
    rigidly.  Raises AdvancePastHorizon once the horizon is exhausted.
    """
    if state.slot >= state.n_slots:
        raise AdvancePastHorizon(
            f"slot {state.slot} is already at or past the horizon of {state.n_slots}"
        )
    dt = state.slot_len
    vehicles = tuple(
        replace(v, position=v.position + v.velocity * dt) for v in state.vehicles
    )
    uav = replace(state.uav, position=state.uav.position + state.uav.velocity * dt)
    return replace(state, slot=state.slot + 1, vehicles=vehicles, uav=uav)


def trajectory(node: NodeState, n_slots: int, slot_len: float | None) -> np.ndarray:
    """Center positions (n_slots, 3) of `node` over successive slots.

    A running sum of the per-slot step, so row n equals the position after n
    `advance` calls bit for bit.
    """
    steps = np.empty((n_slots, 3))
    steps[0] = node.position
    if n_slots > 1:
        steps[1:] = node.velocity * slot_len
    return np.cumsum(steps, axis=0)


def initial_state(
    n_vehicles: int,
    uav_altitude: float,
    vehicle_elevations,
    rsu_elevation: float,
    vehicle_speed: float,
    vehicle_azimuth: float,
    uav_speed: float,
    uav_azimuth: float,
    uav_climb: float,
    vehicle_array: ArraySpec,
    uav_array: ArraySpec,
    rsu_array: ArraySpec,
    n_slots: int,
    slot_len: float,
    vehicle_positions=None,
    rsu_position=None,
) -> NetworkState:
    """Build the slot-0 network state.

    The UAV array center starts at (0, 0, altitude).  Vehicle k is placed on
    the +x axis at the ground range implied by its elevation angle toward the
    UAV; the ground unit sits symmetrically on the -x side.  Explicit
    positions, when given, override the angle-derived ones.
    """
    elevations = np.asarray(vehicle_elevations, dtype=float)
    if elevations.shape != (n_vehicles,):
        raise ValueError("need one elevation angle per vehicle")

    uav = NodeState(
        position=np.array([0.0, 0.0, uav_altitude]),
        velocity=make_velocity(uav_speed, uav_azimuth, uav_climb),
        array=uav_array,
    )
    v_vel = make_velocity(vehicle_speed, vehicle_azimuth, 0.0)
    vehicles = []
    for k in range(n_vehicles):
        if vehicle_positions is not None:
            pos = np.asarray(vehicle_positions[k], dtype=float)
        else:
            pos = np.array([uav_altitude / np.tan(elevations[k]), 0.0, 0.0])
        vehicles.append(NodeState(position=pos, velocity=v_vel, array=vehicle_array))
    if rsu_position is not None:
        rsu_pos = np.asarray(rsu_position, dtype=float)
    else:
        rsu_pos = np.array([-uav_altitude / np.tan(rsu_elevation), 0.0, 0.0])
    rsu = NodeState(position=rsu_pos, velocity=np.zeros(3), array=rsu_array)
    return NetworkState(
        slot=0,
        vehicles=tuple(vehicles),
        uav=uav,
        rsu=rsu,
        n_slots=n_slots,
        slot_len=slot_len,
    )
