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
import os
import re
from dataclasses import dataclass, field, fields
from itertools import accumulate

import numpy as np

from .channel import DOPPLER_PHASE_MODES, SLOT_BYTES_MAX, SLOT_PAIR_BYTES, RadioConfig
from .energy import UAV_KINDS, ComputeModel, FlightPowerModel
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
# the keys that hold one value per vehicle; `validate` also takes one value for all
PER_VEHICLE_KEYS = ("weight_vehicle", "task_bits", "output_ratio", "vehicle_elevations")
HORIZON_BYTES_MAX = 256 * 2**20  # bytes of gain table and spectra that `validate` admits


@dataclass
class ScenarioConfig:
    """Fully resolved run parameters, all in SI units.

    Each field is one config key, in the section named on the nearest field
    at or above it.  A key whose stock value is an int is a count, a bool a
    switch, and None an optional key that may stay unset.
    """

    vehicles: int = field(default=3, metadata={"section": "network"})
    weight_vehicle: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    weight_uav: float = 0.1
    horizon: float = field(default=8.0, metadata={"section": "task"})
    slot: float = 0.2
    task_bits: np.ndarray = field(default_factory=lambda: np.array([5e5]))
    output_ratio: np.ndarray = field(default_factory=lambda: np.array([0.8]))
    cpu_vehicle: float = 1e9
    cpu_uav: float = 3e9
    cycles_per_bit_vehicle: float = 1e3
    cycles_per_bit_uav: float = 1e3
    capacitance_vehicle: float = 1e-27
    capacitance_uav: float = 1e-27
    uav_altitude: float = field(default=10.0, metadata={"section": "geometry"})
    vehicle_elevations: np.ndarray = field(default_factory=_STOCK_ELEVATIONS.copy)
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
    wavelength: float = field(default=0.15, metadata={"section": "radio"})
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
    uav_model: str = field(default="rotary_wing", metadata={"section": "uav"})
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
    epsilon: float = field(default=1e-4, metadata={"section": "solver"})
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


_FIELD_SECTION = dict(zip((f.name for f in fields(ScenarioConfig)), accumulate(
    (f.metadata.get("section") for f in fields(ScenarioConfig)), lambda above, own: own or above)))
_SECTIONS = {section: tuple(name for name in _FIELD_SECTION if _FIELD_SECTION[name] == section)
             for section in dict.fromkeys(_FIELD_SECTION.values())}  # section -> its keys, in field order

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
        if (divisor := float(m.group(2) or 1.0)) == 0.0:
            raise ValueError(f"{text!r} divides by zero")
        return factor * math.pi / divisor
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
        if unit in ("db", "dbm", "dbm/hz"):
            try:
                return 10.0 ** (value / 10.0) / (1.0 if unit == "db" else 1000.0)
            except OverflowError:
                raise ValueError(f"{text!r} exceeds the float range") from None
        if unit in _UNIT_SCALE:
            return value * _UNIT_SCALE[unit]
        raise ValueError(f"unknown unit {unit!r}")
    raise ValueError(f"cannot parse value {text!r}")


def _number(text: str) -> float:
    """One element of a comma or semicolon list, which must be a number."""
    value = parse_quantity(text)
    if type(value) is not float:
        raise ValueError(f"list element {text.strip()!r} is not a number")
    return value


def _parse_value(text: str):
    s = str(text).strip()
    if ";" not in s and "," not in s:
        return parse_quantity(s)
    rows = [[_number(x) for x in row.split(",")] for row in s.split(";")]
    return np.array(rows if ";" in s else rows[0])


# configparser reads a ';' after whitespace as an inline comment to the line's
# end; group 1 holds its start when that is a number
_SEMICOLON_COMMENT = re.compile(r"[^\S\n];([^\S\n]*[-+]?\.?\d)?.*")


def _uncommented(raw: str) -> str:
    """`raw` without its ';' inline comments.  One that starts with a number is
    a row separator written with a space, whose row the comment would drop, so
    it raises ValueError."""
    def drop(comment):
        if comment.group(1) is not None:
            raise ValueError(f"{comment.group().strip()!r} would be dropped as a comment; "
                             "rows are separated by ';' with no space before it")
        return ""

    return _SEMICOLON_COMMENT.sub(drop, raw)


def load_scenario(path_or_text) -> ScenarioConfig:
    """Read a config file path, or config text, into a fully resolved scenario.

    Unspecified keys keep their stock defaults; all validation problems are
    reported together, each with its section.key path.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))  # ';' comments: `_uncommented`
    try:
        text = str(path_or_text)
        if text.strip() == "" or "\n" in text or "=" in text and not os.path.isfile(text):
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
                value = _parse_value(_uncommented(raw))
            except ValueError as exc:
                errors.append(f"{section}.{key}: {exc}")
                continue
            setattr(cfg, key, value)
    if errors:
        raise ValidationError(errors)
    return validate(cfg)


def _any(value, test) -> bool:
    """Whether `test` holds for a Python number or text (without numpy's per-call cost) or any array element."""
    return bool(test(value) if isinstance(value, (int, float, str)) else np.any(test(np.asarray(value))))


_OPTIONAL_KEYS = frozenset(f.name for f in fields(ScenarioConfig) if f.default is None)
_COUNT_KEYS = tuple(f.name for f in fields(ScenarioConfig) if type(f.default) is int)  # a bool is a switch
_CHOICE_KEYS = ("mode", "doppler_phase", "uav_model")  # checked against their choices alone

# The range rules `validate` applies, one row per (keys, test that a bad value
# or any of its elements fails, message); an unset optional key is not checked.
_RANGE_RULES = (
    (("task_bits", "output_ratio", "power_max_offload", "power_max_relay", "power_max_down_uav",
      "power_max_down_rsu", "max_iterations", "seed", "vehicle_speed", "uav_speed"),
     lambda v: v < 0, "must be non-negative"),
    # a zero epsilon would certify only a gap that rounding pushed below 0;
    # a UAV at or below the road coincides with, or flies under, the vehicles
    (("weight_vehicle", "weight_uav", "cpu_vehicle", "cpu_uav", "cycles_per_bit_vehicle",
      "cycles_per_bit_uav", "capacitance_vehicle", "capacitance_uav", "epsilon",
      "bandwidth", "wavelength", "reference_gain", "noise_density", "uav_altitude",
      "c1", "c2", "c3", "tip_speed", "induced_velocity", "drag_ratio", "solidity",
      "air_density", "disc_area", "climb_power", "blade_power", "induced_power"),
     lambda v: v <= 0, "must be positive"),
    (("antennas_vehicle", "antennas_uav", "antennas_rsu"), lambda v: v < 1, "must be a positive antenna count"),
    (("path_loss_exponent",), lambda v: v < 1, "must be at least 1"),
    (("slant", "downtilt"), lambda v: abs(v) > math.pi / 2, "must lie in [-pi/2, pi/2]"),
    (("vehicle_elevations", "rsu_elevation"), lambda v: (v <= 0) | (v > math.pi / 2), "must lie in (0, pi/2]"),
    (("mode",), lambda v: str(v) not in MODES, f"{{!r}} not one of {MODES}"),
    (("doppler_phase",), lambda v: str(v) not in DOPPLER_PHASE_MODES, "{!r} invalid"),
    (("uav_model",), lambda v: str(v) not in UAV_KINDS, "{!r} invalid"),
)


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Normalize per-vehicle arrays, check ranges, derive the slot count.

    Every switch must hold true or false, and every other numeric key finite
    numbers.  NaN fails every `<`/`<=` comparison, so a range check alone lets
    it through, and a word, NaN or inf in a key without a range check (an
    azimuth, a climb angle, the bearing) fails later in the geometry or the
    SVD with an error that names no key.  A key that fails here skips its
    range check (its row of `_RANGE_RULES`), and a key that fails its range
    check skips the checks that combine keys.  The rules cover every value
    the built models check, the propulsion constants too, so no model's
    constructor raises later.  The geometry checks reject what would place or fly a node
    wrongly: a UAV at or below the road, an elevation angle outside
    (0, pi/2] that places a node, a position of the wrong shape, an array
    tilted past a right angle, a negative speed, a fixed-wing UAV that stalls.
    """
    errors, bad = [], set()
    for f in fields(cfg):
        value, switch = getattr(cfg, f.name), isinstance(f.default, bool)
        if f.name in _CHOICE_KEYS or not switch and (
                value is None if f.default is None else isinstance(value, str) and isinstance(f.default, str)):
            continue  # a key with a set of choices, an unset optional key, or a text key holding text
        try:  # only a switch holds a bool: True == 1 would pass as a number
            ok = switch if isinstance(value, bool) else not switch and (
                math.isfinite(value) if isinstance(value, (int, float))
                else bool(np.all(np.isfinite(np.asarray(value, dtype=float)))))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            bad.add(f.name)
            what = "true or false" if switch else "a finite number"
            errors.append(f"{_FIELD_SECTION[f.name]}.{f.name}: must be {what}")

    # a count must be whole, not truncated; INI text and sweeps give 16.0
    for name in (name for name in _COUNT_KEYS if name not in bad):
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

    # one value per vehicle, or one for all; the stock elevation angles cycle
    # when the vehicle count differs
    for name in (name for name in PER_VEHICLE_KEYS if name not in bad):
        v = np.atleast_1d(np.asarray(getattr(cfg, name), dtype=float))
        if v.ndim > 1:  # config text reads `a;b` as rows
            errors.append(f"{_FIELD_SECTION[name]}.{name}: expected one row of values, comma-separated, "
                          f"got shape {v.shape}")
        elif v.size == 1 or name == "vehicle_elevations" and np.array_equal(v, _STOCK_ELEVATIONS):
            v = np.resize(v, k)
        elif v.size != k:
            errors.append(f"{_FIELD_SECTION[name]}.{name}: expected 1 or {k} values, got {v.size}")
        setattr(cfg, name, v)

    # an elevation angle places its node only when no explicit position does
    placed = {name for name, position in (("vehicle_elevations", cfg.vehicle_positions),
                                          ("rsu_elevation", cfg.rsu_position)) if position is not None}
    for names, fails, message in _RANGE_RULES:
        for name in names:
            value = getattr(cfg, name)
            if name in bad or name in placed or value is None and name in _OPTIONAL_KEYS or not _any(value, fails):
                continue
            bad.add(name)
            errors.append(f"{_FIELD_SECTION[name]}.{name}: {message.format(value)}")
    timing_ok, n_slots = not bad & {"horizon", "slot"}, 0  # 0 unless horizon/slot is a slot count
    if timing_ok and (cfg.slot <= 0 or cfg.horizon <= 0):
        errors.append("task.horizon/task.slot: must be positive")
    elif timing_ok:
        ratio = cfg.horizon / cfg.slot
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            errors.append(
                f"task.horizon: horizon/slot = {ratio} is not a positive integer slot count"
            )
        else:
            n_slots = round(ratio)
    if not bad & {"cpu_vehicle", "cpu_uav"} and cfg.cpu_vehicle >= cfg.cpu_uav:
        errors.append("task.cpu_vehicle: vehicle CPU must be slower than the UAV server")
    if isinstance(cfg.spacing, str):
        try:
            cfg.resolved_spacing()
        except ValueError as exc:
            errors.append(f"radio.spacing: {exc}")
    elif "spacing" not in bad and cfg.spacing <= 0:
        errors.append("radio.spacing: must be positive")
    arrays = ("antennas_vehicle", "antennas_uav", "antennas_rsu")
    if not bad & set(arrays):  # the largest of the uplink and the relay, (tx, rx) each
        tx, rx = max(zip(arrays, arrays[1:]), key=lambda link: getattr(cfg, link[0]) * getattr(cfg, link[1]))
        if (need := SLOT_PAIR_BYTES * getattr(cfg, tx) * getattr(cfg, rx)) > SLOT_BYTES_MAX:
            errors.append(f"radio.{tx}/radio.{rx}: one slot of the {getattr(cfg, tx)} x {getattr(cfg, rx)} "
                          f"(L_tx x L_rx) link needs {need:,} bytes to build, over the {SLOT_BYTES_MAX:,}-byte budget")
        # a build keeps the (4, K, N, L) float64 gain table and the K+1 (N, L) spectra
        up, relay = (min(getattr(cfg, a), getattr(cfg, b)) for a, b in zip(arrays, arrays[1:]))
        if (need := 8 * n_slots * (4 * k * max(up, relay) + k * up + relay)) > HORIZON_BYTES_MAX:
            errors.append(f"task.horizon/task.slot: the gain table and spectra of N = {n_slots:,} slots need "
                          f"{need:,} bytes, over the {HORIZON_BYTES_MAX:,}-byte budget")
    # a fixed-wing UAV's propulsion power grows as 1/v_xy, without bound at a stall
    if cfg.uav_model == "fixed_wing" and not bad & {"uav_speed", "uav_climb"}:
        if abs(cfg.uav_climb) >= math.pi / 2:
            errors.append("geometry.uav_climb: a fixed-wing UAV needs |uav_climb| < pi/2")
        elif cfg.uav_speed * math.cos(cfg.uav_climb) <= 0:
            errors.append("geometry.uav_speed: a fixed-wing UAV needs uav_speed*cos(uav_climb) > 0")
    # config text reads one row of coordinates flat, so one vehicle's may come as a 3-vector
    if cfg.vehicle_positions is not None and "vehicle_positions" not in bad:
        pos = np.asarray(cfg.vehicle_positions, dtype=float)
        cfg.vehicle_positions = pos.reshape(1, 3) if k == 1 and pos.shape == (3,) else pos
        if cfg.vehicle_positions.shape != (k, 3):
            errors.append(f"geometry.vehicle_positions: expected shape ({k}, 3), one x,y,z row per vehicle, "
                          f"got {pos.shape}")
    if cfg.rsu_position is not None and "rsu_position" not in bad:
        cfg.rsu_position = np.asarray(cfg.rsu_position, dtype=float)
        if cfg.rsu_position.shape != (3,):
            errors.append(f"geometry.rsu_position: expected shape (3,), one x,y,z, got {cfg.rsu_position.shape}")
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


def build_instance(cfg: ScenarioConfig, baseline_row: bool = False) -> ProblemInstance:
    """Roll the scenario geometry over the horizon and assemble the inputs of
    its mode: a solver mode's link spectra and gain table, the baseline's rates
    at the power caps (no spectra, so no SVD), then caps and weights.  A solver
    build for a point that also emits a baseline row (`baseline_row`) takes
    both."""
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
    power_max = np.array([cfg.power_max_offload, cfg.power_max_relay, cfg.power_max_down_uav, cfg.power_max_down_rsu])
    solver = cfg.mode != "baseline"
    links, cap_rates = roll_out(state0, radio, power_max if baseline_row or not solver else None, spectra=solver)
    gains = build_gain_tables(links, radio, channel_bound(cfg.mode)) if solver else None

    min_bits = np.broadcast_to(cfg.task_bits[:, None], (cfg.vehicles, cfg.n_slots)).copy()
    return ProblemInstance(
        slot_len=cfg.slot,
        weights_vehicle=np.asarray(cfg.weight_vehicle, dtype=float),
        weight_uav=float(cfg.weight_uav),
        vehicle_compute=ComputeModel(cfg.cpu_vehicle, cfg.cycles_per_bit_vehicle, cfg.capacitance_vehicle),
        uav_compute=ComputeModel(cfg.cpu_uav, cfg.cycles_per_bit_uav, cfg.capacitance_uav),
        output_ratio=np.asarray(cfg.output_ratio, dtype=float),
        min_bits=min_bits,
        bandwidth=cfg.bandwidth,
        power_max=power_max,
        gains=gains,
        cap_rates=cap_rates,
        channel_sets=links,
        states=[state0],
    )
