"""Energy-minimizing task offloading for a massive-MIMO UAV-aided vehicular
edge-computing network: geometry, LoS channels, the five-phase timeslot
protocol, the Lagrangian-dual/ellipsoid solver and its verification oracles.
"""

from .channel import ChannelSet, LinkChannel, RadioConfig, achievable_rate, build_channel, path_loss, rate_bound
from .energy import ComputeModel, FlightPowerModel, compute_energy, flight_energy
from .geometry import ArraySpec, NetworkState, NodeState, advance, element_positions, make_velocity, rotation_matrix
from .instance import ProblemInstance
from .optimizer import SolveReport, algorithm1, ellipsoid_solve, solve_p2
from .protocol import Allocation, check_feasible, tccd, wtec
from .runner import SweepResult, emit_results, run_sweep, solve_scenario
from .scenario import ScenarioConfig, build_instance, load_scenario, validate
from .acceptance import verify

__all__ = [
    "Allocation", "ArraySpec", "ChannelSet", "ComputeModel",
    "FlightPowerModel", "LinkChannel", "NetworkState", "NodeState",
    "ProblemInstance", "RadioConfig", "ScenarioConfig", "SolveReport",
    "SweepResult", "achievable_rate", "advance", "algorithm1", "build_channel",
    "build_instance", "check_feasible", "compute_energy", "element_positions",
    "ellipsoid_solve", "emit_results", "flight_energy", "load_scenario",
    "make_velocity", "path_loss", "rate_bound", "rotation_matrix", "run_sweep",
    "solve_p2", "solve_scenario", "tccd", "validate", "verify", "wtec",
]

__version__ = "0.1.0"
