"""The package names the benchmark's tracer and workloads reach into.

perfbench/tracing.py wraps package functions by (module, attribute) and
reads the solver state's counters and the built link's array sizes, and perfbench/workloads.py binds solver
arguments by name and copies instances without their channel matrices and
network states.  Its correctness check reads a solve report's gap and
allocation.  A rename that breaks any of these fails here, not only in a
traced benchmark run.
"""

import dataclasses
import inspect

import pytest

from conftest import load_perfbench
from uavmec import optimizer, runner
from uavmec.channel import RadioConfig, build_channel
from uavmec.geometry import ArraySpec, NodeState
from uavmec.instance import ProblemInstance


def test_every_traced_attribute_resolves():
    tracing = load_perfbench("tracing")
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.PATCHES
               if not callable(getattr(tracing._MODULES[mod], attr, None))]
    assert not missing


def test_instance_keeps_the_fields_the_workloads_replace():
    names = {f.name for f in dataclasses.fields(ProblemInstance)}
    assert {"channel_sets", "states"} <= names


@pytest.mark.parametrize("name", ["algorithm1", "ellipsoid_solve"])
def test_solvers_keep_the_argument_names_bound_by_name(name):
    # workloads.SolveCapture and tracing._eps_of bind `inst` and `eps`
    params = inspect.signature(getattr(optimizer, name)).parameters
    assert {"inst", "eps"} <= set(params)


def test_dual_state_keeps_the_fields_the_tracer_reads():
    # tracing._observe reads the iteration count and the first log entry
    names = {f.name for f in dataclasses.fields(optimizer.DualState)}
    assert {"iterations", "log"} <= names


def test_channel_build_keeps_the_array_sizes_the_tracer_reads():
    # tracing._observe counts one Lr x Lt complex matrix per build_channel call
    radio = RadioConfig(wavelength=0.15, path_loss_exponent=2.0, reference_gain=1e-5,
                        bandwidth=5e6, noise_density=1e-16)
    tx = NodeState([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], ArraySpec(2, 3, 0.075))
    rx = NodeState([0.0, 0.0, 20.0], [0.0, 0.0, 0.0], ArraySpec(2, 2, 0.075))
    link = build_channel(tx, rx, radio, slot_len=0.2, n_slots=5)
    assert (link.n_tx, link.n_rx) == (6, 4)
    assert type(link.n_tx) is int and type(link.n_rx) is int


def test_stock_solve_passes_the_workloads_correctness_check(monkeypatch, table1_cfg):
    # workloads.check_solves reads report.gap and checks report.allocation
    # with protocol.check_feasible against the captured instance
    workloads = load_perfbench("workloads")
    monkeypatch.setattr(optimizer, "algorithm1", optimizer.algorithm1)  # undone after the test
    capture = workloads.SolveCapture()
    capture.install()
    runner.solve_scenario(table1_cfg)
    records = capture.take()
    assert len(records) == 1 and records[0][2] is not None
    assert workloads.check_solves(records) == []
    # the check does read the allocation: a schedule without air time fails it
    light, eps, report, exc = records[0]
    report.allocation.times[:] = 0.0
    assert workloads.check_solves([(light, eps, report, exc)])
