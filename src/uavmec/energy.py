"""Flight, computation and transmission energy terms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


UAV_KINDS = ("fixed_wing", "rotary_wing")


class FixedWingStall(Exception):
    """Fixed-wing flight energy diverges at zero horizontal speed."""


@dataclass(frozen=True)
class FlightPowerModel:
    """Propulsion power constants for a fixed-wing or rotary-wing UAV.

    Fixed wing uses (c1, c2, c3); rotary wing uses blade-profile power p0,
    induced power p1 and climb power p2 together with the rotor constants
    (tip speed, mean induced velocity, fuselage drag ratio, solidity, air
    density, disc area).  `scenario.flight_model` builds one from a
    scenario's `[uav]` keys, which hold the stock values.
    """

    kind: str  # one of UAV_KINDS
    c1: float
    c2: float
    c3: float
    p0: float | None  # None: implied by the rotor constants, as is p1
    p1: float | None
    p2: float
    tip_speed: float
    induced_velocity: float
    drag_ratio: float
    solidity: float
    air_density: float
    disc_area: float

    def __post_init__(self):
        if self.kind not in UAV_KINDS:
            raise ValueError(f"unknown UAV kind {self.kind!r}")
        if self.p0 is None or self.p1 is None:
            p0, p1 = rotary_defaults(self.air_density, self.solidity, self.disc_area)
            object.__setattr__(self, "p0", self.p0 if self.p0 is not None else p0)
            object.__setattr__(self, "p1", self.p1 if self.p1 is not None else p1)
        for name in ("c1", "c2", "c3", "p0", "p1", "p2", "tip_speed",
                     "induced_velocity", "drag_ratio", "solidity",
                     "air_density", "disc_area"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ComputeModel:
    """CPU frequency (cycles/s), cycle cost (cycles/bit) and capacitance."""

    cpu_freq: float
    cycles_per_bit: float
    capacitance: float

    def __post_init__(self):
        if min(self.cpu_freq, self.cycles_per_bit, self.capacitance) <= 0:
            raise ValueError("compute parameters must be positive")


def flight_energy(model: FlightPowerModel, v_xy, v_z, duration: float) -> float:
    """Propulsion energy over one timeslot for the given velocity split.

    `v_xy` and `v_z` are the horizontal and vertical velocity components
    (3-vectors or magnitudes).  Fixed wing requires non-zero horizontal
    speed.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    vh = float(np.linalg.norm(np.atleast_1d(v_xy)))
    vv = float(np.linalg.norm(np.atleast_1d(v_z)))
    if model.kind == "fixed_wing":
        if vh == 0.0:
            raise FixedWingStall("fixed-wing model is undefined at zero horizontal speed")
        power = model.c1 * vh**3 + model.c2 / vh + model.c3 * vv
        return duration * power
    blade = model.p0 * (1.0 + 3.0 * vh**2 / model.tip_speed**2)
    parasite = 0.5 * model.drag_ratio * model.solidity * model.air_density * model.disc_area * vh**3
    induced = model.p1 * np.sqrt(
        1.0 + vh**4 / (4.0 * model.induced_velocity**2) - vh**2 / (2.0 * model.induced_velocity**2)
    )
    climb = model.p2 * vv
    return duration * (blade + parasite + induced + climb)


def compute_energy(bits, model: ComputeModel, duration):
    """CPU energy to process `bits` (scalar or array) within `duration`
    seconds: kappa * c^3 * b^3 / d^2, over the slot for a vehicle's local
    CPU and over the vehicle's sub-slot for the shared UAV server."""
    if np.any(bits < 0):
        raise ValueError("bits must be non-negative")
    return model.capacitance * model.cycles_per_bit**3 * bits**3 / duration**2


def compute_time(bits, model: ComputeModel):
    """Seconds the CPU takes to process `bits` (scalar or array)."""
    return model.cycles_per_bit * bits / model.cpu_freq


def rotary_defaults(air_density: float, solidity: float, disc_area: float) -> tuple[float, float]:
    """Blade-profile and induced power implied by the rotor constants."""
    p0 = 12.0 * 30.0**3 * 0.4**3 * air_density * solidity * disc_area / 8.0
    p1 = 1.1 * 20.0**1.5 / np.sqrt(2.0 * air_density * disc_area)
    return p0, p1
