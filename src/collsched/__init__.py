"""Collective communication schedule synthesis on GPU interconnects.

Formulates collectives (AllGather, AllToAll, custom multi-tenant demands) as
flow problems over a time-expanded network, solves them with an open-source
MILP/LP engine, decomposes them round by round when one shot is too large,
and replays every schedule in a discrete-epoch simulator before emitting it.
"""

from .astar import astar_solve
from .demand import Demand, generate_demand, merge_demands
from .epochs import EpochConfig, compute_delta, epoch_duration
from .errors import (CollschedError, ConservationError, EstimationError,
                     HorizonInfeasibleError, RoundLimitError, ScheduleError,
                     SolverBackendError, SolverTimeoutError, ValidationError)
from .estimator import estimate_epoch_upper_bound
from .lp import build_lp_model, lp_rates_to_schedule
from .milp import ModelOptions, build_general_model
from .schedule import Schedule, extract_schedule, prune_unused_flows
from .simulator import SimOptions, SimReport, algorithmic_bandwidth, simulate
from .solver import Solution, SolverOptions, min_feasible_horizon, solve
from .topology import Edge, Topology, validate_topology
from .workflow import SynthesisResult, synthesize

__all__ = [
    "Demand", "generate_demand", "merge_demands",
    "EpochConfig", "compute_delta", "epoch_duration",
    "ModelOptions", "build_general_model",
    "build_lp_model", "lp_rates_to_schedule",
    "astar_solve", "estimate_epoch_upper_bound",
    "Schedule", "extract_schedule", "prune_unused_flows",
    "SimOptions", "SimReport", "algorithmic_bandwidth", "simulate",
    "Solution", "SolverOptions", "min_feasible_horizon", "solve",
    "Edge", "Topology", "validate_topology",
    "SynthesisResult", "synthesize",
    "CollschedError", "ConservationError", "EstimationError",
    "HorizonInfeasibleError", "RoundLimitError", "ScheduleError",
    "SolverBackendError", "SolverTimeoutError", "ValidationError",
]
