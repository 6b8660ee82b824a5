"""End-to-end synthesis: build, solve, prune, extract, and always simulate."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

from .astar import astar_solve
from .demand import Demand
from .epochs import EpochConfig, FASTEST, epoch_duration
from .errors import EstimationError, HorizonInfeasibleError, ValidationError
from .estimator import estimate_epoch_upper_bound
from .lp import build_lp_model, horizon_lower_bound, lp_rates_to_schedule
from .milp import ModelOptions, build_general_model
from .schedule import Schedule, extract_schedule, prune_unused_flows
from .simulator import SimOptions, SimReport, simulate
# bench/tracer.py wraps `workflow.solve` by name.
from .solver import SolverOptions, min_feasible_horizon, solve  # noqa: F401
from .topology import COPY, HYPER_EDGE, Topology

METHODS = ("milp", "lp", "astar")


@dataclass
class SynthesisResult:
    """A replay-verified schedule and how it was found.

    `epochs` is the horizon the result answers for: the smallest feasible
    one when the horizon was searched, and for A* the schedule's completion
    epoch + 1, since carried arrivals may land after its last round. The
    LP's search starts at `lp.horizon_lower_bound`, which `warnings` notes
    as "horizon lower bound L"; when L is feasible it is the only probe. The
    schedule, `objective` and `achieved_gap` come from the solved model that
    proved it, which may be a longer probe whose reads complete by epoch
    `epochs` - 1; its objective then includes the reward of each later
    epoch j, 1/(j + 1) per unit, for reads already made.
    `solver_wall_time` sums the solve time of every horizon probe; the
    estimator's coarse solves are not in it; A*'s sums its rounds'. Every
    schedule takes tau and chunk size from its solved model's `meta`.
    """

    schedule: Schedule
    report: SimReport
    method: str
    status: str
    solver_wall_time: float
    total_wall_time: float
    objective: float | None
    achieved_gap: float
    epochs: int
    tau: float
    warnings: list[str] = field(default_factory=list)


def synthesize(t: Topology, d: Demand, method: str = "milp", *,
               switch_mode: str = COPY, buffer_limit: float | None = None,
               epoch_mode: str = FASTEST, em: int = 1,
               epochs: int | None = None, search_horizon: bool = False,
               gap: float = 0.0, time_limit: float = 300.0,
               epochs_per_round: int | None = None,
               dump_model_path=None) -> SynthesisResult:
    """Produce a schedule with the requested solver and verify it by replay.

    The emitted schedule always passed simulation; a schedule that fails its
    own replay raises instead of being returned.

    A* takes no horizon: `astar_solve` runs rounds of `epochs_per_round`
    epochs (None: its default) until the demand is met, or raises
    `RoundLimitError` once its stall window (see there) meets no entry.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r} (one of {METHODS})")
    if method == "lp" and switch_mode == HYPER_EDGE:
        raise ValidationError("hyper-edge switches apply to the whole-chunk model only")
    notes: list[str] = []
    start = time.perf_counter()
    tau = epoch_duration(t, d.chunk_size, epoch_mode, em)
    opts = ModelOptions(switch_mode=switch_mode, buffer_limit=buffer_limit)
    solver_opts = SolverOptions(time_limit=time_limit, relative_gap=gap)

    if method == "astar":
        if dump_model_path:
            raise ValidationError("cannot dump the model of an A* solve: it builds one per round")
        if epochs is not None or search_horizon:
            raise ValidationError("A* sets its own horizon, round by round: use "
                                  "epochs_per_round, not epochs or search_horizon")
        sched = astar_solve(t, d, tau, epochs_per_round, opts=opts,
                            solver_opts=solver_opts)
        report = _checked_replay(sched, t, d, switch_mode)
        return SynthesisResult(sched, report, method, sched.meta["status"],
                               sched.meta["solver_wall_time_sec"], time.perf_counter() - start,
                               None, 0.0, sched.completion_epoch + 1, tau, notes)

    lower = horizon_lower_bound(t, d, tau)  # refuses an unreachable demand first
    estimated = epochs is None
    if estimated:
        try:
            epochs = estimate_epoch_upper_bound(t, d, tau, opts=opts)
            notes.append(f"estimated epoch upper bound {epochs}")
        except EstimationError:
            if method != "lp":
                raise
            # The LP needs no estimate: its search starts at the lower bound.
            epochs = lower
            notes.append(f"no epoch estimate: the horizon lower bound {lower} stands in")
    cfg = EpochConfig(tau, epochs, d.chunk_size)

    if method == "lp":
        notes.append(f"horizon lower bound {lower}")
        if len(d.commodities) < len(d.entries):
            notes.append("demand is multicast: the copy-free program only bounds "
                         "what copy-capable schedules achieve")
            warnings.warn(notes[-1])
        builder = lambda K: build_lp_model(t, d, cfg.with_horizon(K), opts)
    else:
        builder = lambda K: build_general_model(t, d, cfg.with_horizon(K), opts)

    # Without the search the range is the one horizon. With it the LP first
    # probes its sound lower bound alone, often the answer, then the horizons
    # above it up to the estimate; the MILP searches from 1 to the estimate.
    # The estimate is not a sound bound, so while an estimated range is
    # infeasible the next one runs above it, up to the estimate or else to
    # double its upper end, until 8 times the larger of the estimate and the
    # first range's upper end.
    if not search_horizon:
        k_lo = k_hi = epochs
    elif method == "lp":
        k_lo = k_hi = lower if estimated else min(lower, epochs)
    else:
        k_lo, k_hi = 1, epochs
    first, limit, solver_s = k_lo, 8 * max(epochs, k_hi) if estimated else epochs, 0.0
    while True:
        try:
            k_star, sol, seconds = min_feasible_horizon(builder, k_lo, k_hi, solver_opts)
            break
        except HorizonInfeasibleError as exc:
            solver_s += exc.solver_seconds
            if k_hi >= limit:
                raise HorizonInfeasibleError(first, k_hi, solver_s) from None
            grown = epochs if k_hi < epochs else 2 * k_hi
            notes.append(f"no feasible horizon up to {k_hi}: trying up to {grown}")
        k_lo, k_hi = (k_hi + 1 if search_horizon else grown), grown
    solver_s += seconds
    if dump_model_path:
        with open(dump_model_path, "w") as f:
            f.write(sol.model.to_lp_text())

    sched = (lp_rates_to_schedule(sol, d) if method == "lp"
             else extract_schedule(prune_unused_flows(sol)))
    report = _checked_replay(sched, t, d, switch_mode)
    wall = time.perf_counter() - start
    return SynthesisResult(sched, report, method, sol.status, solver_s,
                           wall, sol.objective, sol.achieved_gap, k_star, tau, notes)


def _checked_replay(sched: Schedule, t: Topology, d: Demand, switch_mode: str) -> SimReport:
    """The schedule's replay report; raises unless the replay finds no
    violation and completes at the epoch the schedule claims."""
    report = simulate(sched, t, d, SimOptions(switch_mode=switch_mode))
    if report.violations:
        kinds = sorted({v.kind for v in report.violations})
        raise ValidationError(
            f"refusing to emit schedule: replay found {len(report.violations)} "
            f"violations ({', '.join(kinds)})")
    if report.completion_epoch != sched.completion_epoch:
        raise ValidationError(
            f"refusing to emit schedule: it claims completion at epoch "
            f"{sched.completion_epoch}, its replay completes at epoch {report.completion_epoch}")
    return report
