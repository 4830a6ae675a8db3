import importlib.util
import os

import numpy as np
import pytest

from uavmec import instance
from uavmec.energy import ComputeModel
from uavmec.instance import ProblemInstance
from uavmec.scenario import ScenarioConfig, build_instance, validate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_perfbench(name):
    """The module perfbench/<name>.py, loaded from its file: perfbench is not
    a package."""
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_synthetic_instance(
    n_vehicles=1,
    n_slots=1,
    gain=5000.0,
    min_bits=5e5,
    weight_uav=0.1,
    power_max=10 ** 3.5 / 1000.0,
    slot_len=0.2,
    output_ratio=0.8,
    bandwidth=5e6,
    weight_vehicle=1.0,
):
    """Rank-1 constant-gain instance with hand-controllable numbers.

    `gain` is the per-watt SNR of every link and `power_max` its power cap
    in W (each a scalar or a per-phase list), so phase rates are
    bandwidth * log2(1 + p * gain); a per-phase gain may also be a
    per-vehicle list.  `weight_vehicle`, `output_ratio` and `min_bits` are
    each a scalar or a per-vehicle list.
    """
    k, n = n_vehicles, n_slots
    gain = np.asarray(gain, dtype=float)
    gains_in = np.broadcast_to(gain.reshape(gain.shape + (1,) * (2 - gain.ndim)), (4, k))
    per_vehicle = lambda v: np.broadcast_to(np.asarray(v, dtype=float), (k,)).copy()
    return ProblemInstance(
        slot_len=slot_len,
        weights_vehicle=per_vehicle(weight_vehicle),
        weight_uav=weight_uav,
        vehicle_compute=ComputeModel(1e9, 1e3, 1e-27),
        uav_compute=ComputeModel(3e9, 1e3, 1e-27),
        output_ratio=per_vehicle(output_ratio),
        min_bits=np.repeat(per_vehicle(min_bits)[:, None], n, axis=1),
        bandwidth=bandwidth,
        power_max=np.broadcast_to(np.asarray(power_max, dtype=float), (4,)).copy(),
        gains=np.repeat(gains_in[:, :, None, None], n, axis=2),
    )


@pytest.fixture
def built_links(monkeypatch):
    """The arguments of every `build_channel` call a roll-out makes, from an
    empty roll-out memo on."""
    monkeypatch.setattr(instance, "_last_roll_out", None)
    calls, real = [], instance.build_channel

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(instance, "build_channel", counting)
    return calls


@pytest.fixture(scope="session")
def table1_cfg():
    return validate(ScenarioConfig())


@pytest.fixture(scope="session")
def table1_inst(table1_cfg):
    return build_instance(table1_cfg)


@pytest.fixture(scope="session")
def table1_report(table1_cfg, table1_inst):
    from uavmec.optimizer import algorithm1

    return algorithm1(table1_inst, eps=table1_cfg.epsilon,
                      max_iterations=table1_cfg.max_iterations)
