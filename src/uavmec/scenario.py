"""Run configuration: stock parameter values, the config-file dialect and the
problem-instance builder.

Config files are INI-style sections of key = value lines; values may carry
units in strings ("-50 dB", "60 km/h", "0.5 Mbit", "pi/3").  Every key has a
stock default, so an empty file is a valid full scenario.
"""

from __future__ import annotations

import configparser
import io
import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import RadioConfig
from .energy import ComputeModel, FlightPowerModel
from .geometry import ArraySpec, initial_state
from .instance import ProblemInstance, build_gain_tables, roll_out


class ParseError(Exception):
    """Config text could not be parsed at all."""


class ValidationError(Exception):
    """One or more config values are invalid; lists every offending key."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


MODES = ("optimized", "baseline", "rank1_bound", "fullrank_bound")

_STOCK_ELEVATIONS = np.array([math.pi / 3, math.pi / 4, math.pi / 6])


@dataclass
class ScenarioConfig:
    """Fully resolved run parameters, all in SI units."""

    # network
    vehicles: int = 3
    weight_vehicle: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    weight_uav: float = 0.1
    # task / compute
    horizon: float = 8.0
    slot: float = 0.2
    task_bits: np.ndarray = field(default_factory=lambda: np.array([5e5]))
    min_bits: np.ndarray | None = None
    output_ratio: np.ndarray = field(default_factory=lambda: np.array([0.8]))
    cpu_vehicle: float = 1e9
    cpu_uav: float = 3e9
    cycles_per_bit_vehicle: float = 1e3
    cycles_per_bit_uav: float = 1e3
    capacitance_vehicle: float = 1e-27
    capacitance_uav: float = 1e-27
    # geometry / mobility
    uav_altitude: float = 10.0
    vehicle_elevations: np.ndarray = field(
        default_factory=lambda: np.array([math.pi / 3, math.pi / 4, math.pi / 6])
    )
    rsu_elevation: float = math.pi / 3
    slant: float = math.pi / 3
    downtilt: float = math.pi / 4
    bearing: float = math.pi / 3
    vehicle_speed: float = 60.0 / 3.6
    vehicle_azimuth: float = math.pi / 3
    uav_speed: float = 10.0
    uav_azimuth: float = math.pi / 3
    uav_climb: float = math.pi / 9
    vehicle_positions: np.ndarray | None = None
    rsu_position: np.ndarray | None = None
    # radio
    wavelength: float = 0.15
    path_loss_exponent: float = 2.0
    bandwidth: float = 5e6
    reference_gain: float = 1e-5
    noise_density: float = 1e-16
    power_max_offload: float = 10 ** 3.5 / 1000.0
    power_max_relay: float = 10 ** 3.5 / 1000.0
    power_max_down_uav: float = 10 ** 3.5 / 1000.0
    power_max_down_rsu: float = 10 ** 3.5 / 1000.0
    antennas_vehicle: int = 36
    antennas_uav: int = 36
    antennas_rsu: int = 36
    spacing: float | str = "lambda/2"
    doppler_phase: str = "literal"
    # uav propulsion
    uav_model: str = "rotary_wing"
    c1: float = 9.26e-4
    c2: float = 2250.0
    c3: float = 3.33
    tip_speed: float = 120.0
    induced_velocity: float = 4.3
    drag_ratio: float = 0.6
    solidity: float = 0.05
    air_density: float = 1.225
    disc_area: float = 0.503
    climb_power: float = 11.46
    blade_power: float | None = None
    induced_power: float | None = None
    # solver / run
    epsilon: float = 1e-4
    max_iterations: int = 200
    mode: str = "optimized"
    include_propulsion: bool = True
    tccd_include_local: bool = False
    seed: int = 0

    @property
    def n_slots(self) -> int:
        return int(round(self.horizon / self.slot))

    def resolved_spacing(self) -> float:
        """Element spacing in meters; the text `lambda` or `lambda/N` is a
        fraction of the wavelength, and any other text raises ValueError."""
        if isinstance(self.spacing, str):
            m = _LAMBDA_RE.match(self.spacing.strip())
            divisor = float(m.group(1) or 1.0) if m else 0.0
            if divisor <= 0.0:
                raise ValueError(f"{self.spacing!r} is neither a length nor lambda/N")
            return self.wavelength / divisor
        return float(self.spacing)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray):
                v = v.tolist()
            out[f.name] = v
        return out


# section -> field names; used both for parsing and for echoing configs
_SECTIONS = {
    "network": ("vehicles", "weight_vehicle", "weight_uav"),
    "task": (
        "horizon", "slot", "task_bits", "min_bits", "output_ratio",
        "cpu_vehicle", "cpu_uav", "cycles_per_bit_vehicle", "cycles_per_bit_uav",
        "capacitance_vehicle", "capacitance_uav",
    ),
    "geometry": (
        "uav_altitude", "vehicle_elevations", "rsu_elevation", "slant", "downtilt",
        "bearing", "vehicle_speed", "vehicle_azimuth", "uav_speed", "uav_azimuth",
        "uav_climb", "vehicle_positions", "rsu_position",
    ),
    "radio": (
        "wavelength", "path_loss_exponent", "bandwidth", "reference_gain",
        "noise_density", "power_max_offload", "power_max_relay",
        "power_max_down_uav", "power_max_down_rsu", "antennas_vehicle",
        "antennas_uav", "antennas_rsu", "spacing", "doppler_phase",
    ),
    "uav": (
        "uav_model", "c1", "c2", "c3", "tip_speed", "induced_velocity",
        "drag_ratio", "solidity", "air_density", "disc_area", "climb_power",
        "blade_power", "induced_power",
    ),
    "solver": (
        "epsilon", "max_iterations", "mode",
        "include_propulsion", "tccd_include_local", "seed",
    ),
}

_FIELD_SECTION = {name: sec for sec, names in _SECTIONS.items() for name in names}

_UNIT_SCALE = {
    "s": 1.0, "ms": 1e-3, "us": 1e-6,
    "m": 1.0, "km": 1e3, "cm": 1e-2, "mm": 1e-3,
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9,
    "w": 1.0, "mw": 1e-3, "kw": 1e3,
    "m/s": 1.0, "km/h": 1.0 / 3.6, "km/s": 1e3,
    "bit": 1.0, "bits": 1.0, "kbit": 1e3, "mbit": 1e6, "mbits": 1e6, "gbit": 1e9,
    "j": 1.0, "rad": 1.0,
}

_LAMBDA_RE = re.compile(r"^lambda\s*(?:/\s*(\d+\.?\d*))?$", re.IGNORECASE)

_PI_RE = re.compile(r"^(-?\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?$", re.IGNORECASE)


def parse_quantity(text: str):
    """Parse one config value: number, number-with-unit, pi fraction,
    lambda fraction, boolean or bare string."""
    s = str(text).strip()
    low = s.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("none", ""):
        return None
    m = _PI_RE.match(low)
    if m:
        factor = float(m.group(1)) if m.group(1) not in ("", "-") else (-1.0 if m.group(1) == "-" else 1.0)
        value = factor * math.pi
        if m.group(2):
            value /= float(m.group(2))
        return value
    if low.startswith("lambda"):
        return s  # resolved against the wavelength later
    parts = s.split()
    if len(parts) == 1:
        try:
            return float(parts[0])
        except ValueError:
            return s  # bare word: mode names and the like
    if len(parts) == 2:
        value, unit = float(parts[0]), parts[1].lower()
        if unit == "db":
            return 10.0 ** (value / 10.0)
        if unit in ("dbm", "dbm/hz"):
            return 10.0 ** (value / 10.0) / 1000.0
        if unit in _UNIT_SCALE:
            return value * _UNIT_SCALE[unit]
        raise ValueError(f"unknown unit {unit!r}")
    raise ValueError(f"cannot parse value {text!r}")


def _parse_value(text: str):
    s = str(text).strip()
    if ";" in s:
        return np.array([[parse_quantity(x) for x in row.split(",")] for row in s.split(";")], dtype=float)
    if "," in s:
        return np.array([parse_quantity(x) for x in s.split(",")], dtype=float)
    return parse_quantity(s)


def load_scenario(path_or_text) -> ScenarioConfig:
    """Read a config file (or literal text) into a fully resolved scenario.

    Unspecified keys keep their stock defaults; all validation problems are
    reported together, each with its section.key path.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        text = str(path_or_text)
        if hasattr(path_or_text, "read"):
            parser.read_file(path_or_text)
        elif text.strip() == "" or "\n" in text or "=" in text:
            parser.read_string(text)
        else:
            with open(path_or_text, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ParseError(str(exc)) from exc

    cfg = ScenarioConfig()
    errors = []
    for section in parser.sections():
        if section not in _SECTIONS:
            errors.append(f"{section}: unknown section")
            continue
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                errors.append(f"{section}.{key}: unknown key")
                continue
            try:
                value = _parse_value(raw)
            except ValueError as exc:
                errors.append(f"{section}.{key}: {exc}")
                continue
            setattr(cfg, key, value)
    if errors:
        raise ValidationError(errors)
    return validate(cfg)


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Normalize per-vehicle arrays, check ranges, derive the slot count.

    Every numeric key must hold finite numbers.  NaN fails every `<`/`<=`
    comparison, so a range check alone lets it through, and a word, NaN or
    inf in a key without a range check (an azimuth, a climb angle, the
    bearing) fails later in the geometry or the SVD with an error that names
    no key.  A key that fails here skips its range check.  The geometry checks
    reject what would place a node wrongly: a UAV at or below the road, an
    elevation angle outside (0, pi/2] that places a node, an array tilted past
    a right angle, a negative speed.
    """
    errors, bad = [], set()
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None or (isinstance(value, str) and isinstance(f.default, str)):
            continue  # an unset optional key, or a text key holding text
        try:
            ok = bool(np.all(np.isfinite(np.asarray(value, dtype=float))))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            bad.add(f.name)
            errors.append(f"{_FIELD_SECTION[f.name]}.{f.name}: must be a finite number")

    # a count must be whole, not truncated; INI text and sweeps give 16.0
    for name in ("vehicles", "antennas_vehicle", "antennas_uav", "antennas_rsu",
                 "max_iterations", "seed"):
        if name in bad:
            continue
        value = getattr(cfg, name)
        if value != int(value):
            bad.add(name)
            errors.append(f"{_FIELD_SECTION[name]}.{name}: must be a whole number")
        else:
            setattr(cfg, name, int(value))

    if "vehicles" in bad:
        raise ValidationError(errors)
    k = cfg.vehicles
    if k < 1:
        errors.append("network.vehicles: need at least one vehicle")
        raise ValidationError(errors)

    def per_vehicle(name):
        if name in bad:
            return
        v = np.atleast_1d(np.asarray(getattr(cfg, name), dtype=float))
        if v.size == 1 or (v.size != k and np.all(v == v[0])):
            v = np.repeat(v[:1], k)
        if v.size != k:
            errors.append(f"{_FIELD_SECTION[name]}.{name}: expected 1 or {k} values, got {v.size}")
            v = np.repeat(v[:1], k)
        setattr(cfg, name, v)

    per_vehicle("weight_vehicle")
    per_vehicle("task_bits")
    per_vehicle("output_ratio")
    # the stock elevation angles cycle when the vehicle count differs
    elev = cfg.vehicle_elevations
    if np.size(elev) != k and np.array_equal(elev, _STOCK_ELEVATIONS):
        cfg.vehicle_elevations = np.resize(_STOCK_ELEVATIONS, k)
    per_vehicle("vehicle_elevations")
    if cfg.min_bits is None:
        cfg.min_bits = np.array(cfg.task_bits)
        if "task_bits" in bad:
            bad.add("min_bits")
    else:
        per_vehicle("min_bits")

    for name in ("task_bits", "min_bits", "output_ratio", "power_max_offload",
                 "power_max_relay", "power_max_down_uav", "power_max_down_rsu"):
        if name not in bad and np.any(np.asarray(getattr(cfg, name)) < 0):
            errors.append(f"{_FIELD_SECTION[name]}.{name}: must be non-negative")
    # a zero epsilon can never certify (the gap is clipped at 0)
    for name in ("weight_vehicle", "weight_uav", "cpu_vehicle", "cpu_uav",
                 "cycles_per_bit_vehicle", "cycles_per_bit_uav", "capacitance_vehicle",
                 "capacitance_uav", "epsilon"):
        if name not in bad and np.any(np.asarray(getattr(cfg, name)) <= 0):
            errors.append(f"{_FIELD_SECTION[name]}.{name}: must be positive")
    timing_ok = not bad & {"horizon", "slot"}
    if timing_ok and (cfg.slot <= 0 or cfg.horizon <= 0):
        errors.append("task.horizon/task.slot: must be positive")
    elif timing_ok:
        ratio = cfg.horizon / cfg.slot
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            errors.append(
                f"task.horizon: horizon/slot = {ratio} is not a positive integer slot count"
            )
    if not bad & {"cpu_vehicle", "cpu_uav"} and cfg.cpu_vehicle >= cfg.cpu_uav:
        errors.append("task.cpu_vehicle: vehicle CPU must be slower than the UAV server")
    for name in ("bandwidth", "wavelength", "reference_gain", "noise_density"):
        if name not in bad and getattr(cfg, name) <= 0:
            errors.append(f"radio.{name}: must be positive")
    if isinstance(cfg.spacing, str):
        try:
            cfg.resolved_spacing()
        except ValueError as exc:
            errors.append(f"radio.spacing: {exc}")
    elif "spacing" not in bad and cfg.spacing <= 0:
        errors.append("radio.spacing: must be positive")
    for name in ("antennas_vehicle", "antennas_uav", "antennas_rsu"):
        if name not in bad and getattr(cfg, name) < 1:
            errors.append(f"radio.{name}: must be a positive antenna count")
    if "path_loss_exponent" not in bad and cfg.path_loss_exponent < 1:
        errors.append("radio.path_loss_exponent: must be at least 1")
    # a UAV at or below the road coincides with, or flies under, the vehicles
    if "uav_altitude" not in bad and cfg.uav_altitude <= 0:
        errors.append("geometry.uav_altitude: must be positive")
    for name in ("vehicle_speed", "uav_speed"):
        if name not in bad and getattr(cfg, name) < 0:
            errors.append(f"geometry.{name}: must be non-negative")
    for name in ("slant", "downtilt"):
        if name not in bad and abs(getattr(cfg, name)) > math.pi / 2:
            errors.append(f"geometry.{name}: must lie in [-pi/2, pi/2]")
    # an elevation angle places its node only when no explicit position does
    for name, placed in (("vehicle_elevations", cfg.vehicle_positions),
                         ("rsu_elevation", cfg.rsu_position)):
        value = np.asarray(getattr(cfg, name))
        if name not in bad and placed is None and np.any((value <= 0) | (value > math.pi / 2)):
            errors.append(f"geometry.{name}: must lie in (0, pi/2]")
    if cfg.mode not in MODES:
        errors.append(f"solver.mode: {cfg.mode!r} not one of {MODES}")
    if cfg.doppler_phase not in ("literal", "accumulated"):
        errors.append(f"radio.doppler_phase: {cfg.doppler_phase!r} invalid")
    if cfg.uav_model not in ("rotary_wing", "fixed_wing"):
        errors.append(f"uav.uav_model: {cfg.uav_model!r} invalid")
    if errors:
        raise ValidationError(errors)
    return cfg


def echo_config(cfg: ScenarioConfig) -> str:
    """Render the fully resolved scenario back into config-file text."""
    buf = io.StringIO()
    for section, names in _SECTIONS.items():
        buf.write(f"[{section}]\n")
        for name in names:
            v = getattr(cfg, name)
            if v is None:
                continue
            if isinstance(v, np.ndarray):
                if v.ndim == 2:
                    text = "; ".join(",".join(f"{x:.17g}" for x in row) for row in v)
                else:
                    text = ", ".join(f"{x:.17g}" for x in v)
            elif isinstance(v, bool):
                text = "true" if v else "false"
            elif isinstance(v, float):
                text = f"{v:.17g}"
            else:
                text = str(v)
            buf.write(f"{name} = {text}\n")
        buf.write("\n")
    return buf.getvalue()


def _grid_dims(count: int) -> tuple[int, int]:
    """Rows/cols of the planar array: the most square exact factorization."""
    best = 1
    for d in range(1, int(math.isqrt(count)) + 1):
        if count % d == 0:
            best = d
    return best, count // best


def flight_model(cfg: ScenarioConfig) -> FlightPowerModel:
    return FlightPowerModel(
        kind=cfg.uav_model,
        c1=cfg.c1, c2=cfg.c2, c3=cfg.c3,
        p0=cfg.blade_power, p1=cfg.induced_power, p2=cfg.climb_power,
        tip_speed=cfg.tip_speed, induced_velocity=cfg.induced_velocity,
        drag_ratio=cfg.drag_ratio, solidity=cfg.solidity,
        air_density=cfg.air_density, disc_area=cfg.disc_area,
    )


def radio_config(cfg: ScenarioConfig) -> RadioConfig:
    return RadioConfig(
        wavelength=cfg.wavelength,
        path_loss_exponent=cfg.path_loss_exponent,
        reference_gain=cfg.reference_gain,
        bandwidth=cfg.bandwidth,
        noise_density=cfg.noise_density,
        doppler_phase_mode=cfg.doppler_phase,
    )


def channel_bound(mode: str) -> str:
    """Gain-table shaping of a solver mode: the two rate-bound modes collapse
    or spread the spectrum, every other mode keeps it exact."""
    return {"rank1_bound": "rank1", "fullrank_bound": "fullrank"}.get(mode, "exact")


def build_instance(cfg: ScenarioConfig) -> ProblemInstance:
    """Roll the scenario geometry over the horizon and assemble the solver
    inputs (link spectra, gain tables, caps and weights)."""
    spacing = cfg.resolved_spacing()

    def array_for(count: int) -> ArraySpec:
        rows, cols = _grid_dims(count)
        return ArraySpec(rows=rows, cols=cols, spacing=spacing,
                         slant=cfg.slant, downtilt=cfg.downtilt, bearing=cfg.bearing)

    state0 = initial_state(
        n_vehicles=cfg.vehicles,
        uav_altitude=cfg.uav_altitude,
        vehicle_elevations=cfg.vehicle_elevations,
        rsu_elevation=cfg.rsu_elevation,
        vehicle_speed=cfg.vehicle_speed,
        vehicle_azimuth=cfg.vehicle_azimuth,
        uav_speed=cfg.uav_speed,
        uav_azimuth=cfg.uav_azimuth,
        uav_climb=cfg.uav_climb,
        vehicle_array=array_for(cfg.antennas_vehicle),
        uav_array=array_for(cfg.antennas_uav),
        rsu_array=array_for(cfg.antennas_rsu),
        n_slots=cfg.n_slots,
        slot_len=cfg.slot,
        vehicle_positions=cfg.vehicle_positions,
        rsu_position=cfg.rsu_position,
    )
    radio = radio_config(cfg)
    links = roll_out(state0, radio)
    gains = build_gain_tables(links, radio, channel_bound(cfg.mode))

    min_bits = np.broadcast_to(cfg.min_bits[:, None], (cfg.vehicles, cfg.n_slots)).copy()
    return ProblemInstance(
        n_vehicles=cfg.vehicles,
        n_slots=cfg.n_slots,
        slot_len=cfg.slot,
        weights_vehicle=np.asarray(cfg.weight_vehicle, dtype=float),
        weight_uav=float(cfg.weight_uav),
        vehicle_compute=ComputeModel(cfg.cpu_vehicle, cfg.cycles_per_bit_vehicle, cfg.capacitance_vehicle),
        uav_compute=ComputeModel(cfg.cpu_uav, cfg.cycles_per_bit_uav, cfg.capacitance_uav),
        output_ratio=np.asarray(cfg.output_ratio, dtype=float),
        min_bits=min_bits,
        bandwidth=cfg.bandwidth,
        power_max=np.array([
            cfg.power_max_offload, cfg.power_max_relay,
            cfg.power_max_down_uav, cfg.power_max_down_rsu,
        ]),
        gains=gains,
        flight=flight_model(cfg),
        uav_velocity=state0.uav.velocity,
        channel_sets=links,
        states=[state0],
    )
