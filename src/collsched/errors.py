"""Exception types shared across the package."""


class CollschedError(Exception):
    """Base class for all package errors."""


class ValidationError(CollschedError):
    """Topology or demand failed a structural check."""


class SolverBackendError(CollschedError):
    """The optimization backend is unavailable or rejected the model."""


class HorizonInfeasibleError(CollschedError):
    """No feasible horizon exists in the searched range."""

    def __init__(self, k_lo: int, k_hi: int, solver_seconds: float = 0.0):
        super().__init__(f"model infeasible for every horizon in [{k_lo}, {k_hi}]")
        self.k_lo = k_lo
        self.k_hi = k_hi
        self.solver_seconds = solver_seconds  # summed solve time of the probes


class EstimationError(CollschedError):
    """No candidate completion time produced a feasible coarse model."""


class SolverTimeoutError(CollschedError):
    """The backend hit its time limit without an incumbent."""


class ConservationError(CollschedError):
    """A solution's flows do not account for the demand within tolerance."""


class ScheduleError(CollschedError):
    """A schedule is malformed or references unknown edges/epochs."""


class RoundLimitError(CollschedError):
    """Round-decomposed solve met no demand entry for a window of rounds
    derived from its network, with demand left over."""
