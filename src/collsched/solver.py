"""Solve models with HiGHS, the MILP/LP engine that scipy bundles.

`milp` is the one call into HiGHS. It takes plain arrays (objective,
integrality, column bounds, a compressed-column matrix and its row bounds),
hands HiGHS the whole model in one `passModel` call and reads back only the
model status, the column values, the objective, the MIP gap and the node
count.

HiGHS is reached through scipy's private binding
`scipy.optimize._highspy._core`, which `tests/test_solver.py` pins and checks
against `scipy.optimize.milp`; `extensions.load` loads it without importing
`scipy.optimize`.

`solve` passes a `Model` to `milp`: its free columns only (lb < ub), with
each fixed column's value moved into the row bounds and the fixed columns'
share of the objective passed as HiGHS's objective offset, so the objective
and MIP gap HiGHS reports are the whole model's. It takes two column subsets
of the model's matrix: the fixed columns with a nonzero value, whose product
with those values is each row's moved share, and the free columns, which are
HiGHS's matrix. It scatters the values back
into one value per column and maps HiGHS's model status to `OPTIMAL`,
`FEASIBLE_GAP`, `INFEASIBLE` or `TIMEOUT`; a model with no free column is
checked against its rows without HiGHS. A model with no binary free column
goes to HiGHS's interior-point solver with crossover, and to simplex if that
run ends undecided. The vertex path (`SolverOptions.vertex`) is for small
LPs, such as an A* round's relaxation, whose presolve would cost more than
their solve: HiGHS's dual simplex with presolve off, which ends at a basic
optimum, a vertex of the LP.
`min_feasible_horizon` searches for the smallest feasible horizon.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConservationError, HorizonInfeasibleError, SolverBackendError,
                     SolverTimeoutError, ValidationError)
from .extensions import load
from .model import TOL, Model, holds

_core = load("scipy.optimize._highspy._core")
HighsModelStatus, HighsStatus, _Highs = _core.HighsModelStatus, _core.HighsStatus, _core._Highs
MatrixFormat, ObjSense, kHighsInf = _core.MatrixFormat, _core.ObjSense, _core.kHighsInf

OPTIMAL = "optimal"
FEASIBLE_GAP = "feasible-gap"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"

_GAP_EPS = 1e-9


# A MILP stopped by one of these may still hold an incumbent.
_STOPPED = (HighsModelStatus.kTimeLimit, HighsModelStatus.kIterationLimit,
            HighsModelStatus.kSolutionLimit)


# The model statuses that end an LP's interior-point run; on any other the
# LP is solved again by simplex.
_IPM_DECIDED = (HighsModelStatus.kOptimal, HighsModelStatus.kInfeasible,
                HighsModelStatus.kTimeLimit)


@dataclass(frozen=True)
class SolverOptions:
    time_limit: float = 300.0
    relative_gap: float = 0.0  # early-stop when the primal-dual gap falls below
    first_incumbent: bool = False  # stop a MILP at its first feasible solution
    vertex: bool = False  # solve an LP by dual simplex, presolve off, to a vertex

    def __post_init__(self):
        if not (0 <= self.relative_gap < 1):
            raise ValidationError("relative_gap must be in [0, 1)")
        if not self.time_limit > 0:  # NaN included
            raise ValidationError("time_limit must be positive")


@dataclass
class Solution:
    status: str
    model: Model
    x: np.ndarray | None = None
    objective: float | None = None
    achieved_gap: float = 0.0
    solve_wall_time: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE_GAP)

    def family_values(self, family: str, threshold: float = 0.0) -> dict:
        """{key: value} of the family's variables whose magnitude exceeds
        threshold, in column order."""
        x = self._values()
        fam = self.model.families.get(family)
        if fam is None:
            return {}
        flat = fam.index.ravel()
        pos = np.flatnonzero(np.abs(x[flat]) > threshold)
        pos = fam.declared(pos)
        return dict(zip(fam.keys(pos), x[flat[pos]].tolist()))

    def _values(self) -> np.ndarray:
        if self.x is None:
            raise ValueError(f"no values available (status={self.status})")
        return self.x


def milp(c, *, integrality, lb, ub, a, row_lb, row_ub, options, offset=0.0) -> dict:
    """Minimise c @ x + offset subject to lb <= x <= ub and
    row_lb <= a @ x <= row_ub, with the columns where `integrality` is 1
    integral. `c`, `integrality`, `lb` and `ub` hold one entry per column;
    `a` has one column per column and one row per entry of `row_lb` and
    `row_ub` (0 rows for a model without rows). `a` is any compressed-column
    matrix with `shape`, `nnz`, `indptr`, `indices` and `data`: a
    `model.CSC`, or a scipy `csc_matrix`. `offset` is a constant HiGHS adds
    to its objective.

    `options` maps HiGHS option names to values. Returns a dict: `status`,
    HiGHS's model status, then `x`, `fun`, `mip_gap` and `mip_node_count`,
    each None where `scipy.optimize.milp` gives None. An LP has values only
    when optimal; a MILP also when stopped with an incumbent; the `mip_`
    pair is set for a MILP with values only. On the same model and options,
    with offset 0, `scipy.optimize.milp` (given `Bounds(lb, ub)` and
    `LinearConstraint(a, row_lb, row_ub)`) runs the same HiGHS solve and
    returns the same values bit for bit.
    """
    highs = _Highs()
    for name, value in {"log_to_console": False, **options}.items():
        if highs.setOptionValue(name, value) != HighsStatus.kOk:
            raise SolverBackendError(f"HiGHS refused option {name}={value!r}")
    # The binding converts each array to the dtype HiGHS stores (float64 or int32).
    loaded = highs.passModel(
        len(c), a.shape[0], a.nnz, MatrixFormat.kColwise, ObjSense.kMinimize, offset,
        c, lb, ub, row_lb, row_ub, a.indptr, a.indices, a.data, integrality)
    if loaded == HighsStatus.kError:
        raise SolverBackendError("HiGHS refused the model")
    ran = highs.run() != HighsStatus.kError
    status = highs.getModelStatus()
    res = {"status": status, "x": None, "fun": None, "mip_gap": None, "mip_node_count": None}
    info = highs.getInfo()
    mip = bool(np.any(integrality))
    if ran and (status == HighsModelStatus.kOptimal or (
            mip and status in _STOPPED and info.objective_function_value != kHighsInf)):
        res["x"] = np.array(highs.getSolution().col_value)
        res["fun"] = info.objective_function_value
        if mip:
            res["mip_gap"], res["mip_node_count"] = info.mip_gap, info.mip_node_count
    return res


def solve(m: Model, opts: SolverOptions | None = None) -> Solution:
    """Solve the model; integer variables come back integral within 1e-6.

    HiGHS gets only the free columns (lb < ub): each fixed column's value is
    moved into the row bounds, and its objective term into HiGHS's objective
    offset, so the objective and the MIP gap HiGHS reports are the whole
    model's. The values come back with every fixed column at its bound. A
    model with no free column never reaches HiGHS: it is optimal if every
    row holds within TOL at the fixed values, else infeasible. Every
    builder settles its model (`Model.settle`), so HiGHS gets only rows
    with two or more free columns, and the rows that cannot hold.

    With `opts.vertex`, a model with no binary free column is solved by
    dual simplex with presolve off, and the values are a vertex of its LP;
    a model with one is refused.

    HiGHS runs single-threaded here, so results are deterministic for a fixed
    model.
    """
    opts = opts or SolverOptions()
    c = np.zeros(m.num_vars)
    np.subtract.at(c, *m.objective_arrays())  # maximize
    free = m.lb != m.ub
    x = m.lb.copy()
    x[free] = 0.0
    held = np.flatnonzero(x)  # the fixed columns with a nonzero value
    moved = m.matrix(held) @ x[held]  # their share of each row
    row_lb, row_ub = m.row_bounds()
    offset = float(c @ x)
    if not free.any():
        met = np.all(holds(moved, row_lb, row_ub))
        # 0.0 - offset, not -offset: a model with no objective reports 0.0, not -0.0.
        return Solution(OPTIMAL, m, x, 0.0 - offset) if met else Solution(INFEASIBLE, m)
    a = m.matrix(np.flatnonzero(free))
    options = {
        "time_limit": float(opts.time_limit),
        "mip_rel_gap": float(opts.relative_gap),
        # Feasibility jump only hunts for a first feasible point; a solve
        # that goes on to optimality, as every A* round does, skips it.
        "mip_heuristic_run_feasibility_jump": opts.first_incumbent,
    }
    if opts.first_incumbent:
        options["mip_max_improving_sols"] = 1
    binary = m.binary[free]
    lp = not binary.any()
    if opts.vertex:
        if not lp:
            raise ValidationError("a vertex solve takes a model with no binary free column")
        options.update(solver="simplex", presolve="off")
    elif lp:
        # Interior point, then crossover to a vertex (the LP's decomposition
        # peels paths off one): about twice as fast as simplex on the
        # copy-free LP of dgx2 alltoall.
        options["solver"] = "ipm"
    run = lambda: milp(c[free], integrality=binary.astype(np.uint8), lb=m.lb[free],
                       ub=m.ub[free], a=a, row_lb=row_lb - moved, row_ub=row_ub - moved,
                       options=options, offset=offset)
    start = time.perf_counter()
    res = run()
    if lp and not opts.vertex and res["status"] not in _IPM_DECIDED:
        # The interior-point solver can stop undecided on an infeasible LP
        # that simplex proves infeasible; simplex gets the time left.
        options.update(solver="simplex", time_limit=max(
            opts.time_limit - (time.perf_counter() - start), 1e-3))
        res = run()
    wall = time.perf_counter() - start
    status = _outcome(res, opts.relative_gap)
    if res["x"] is None:
        return Solution(status, m, solve_wall_time=wall)
    x[free] = res["x"]
    return Solution(status, m, x, float(-res["fun"]), res["mip_gap"] or 0.0, wall)


def _outcome(res: dict, relative_gap: float) -> str:
    """The package's status for a `milp` result."""
    status = res["status"]
    if status == HighsModelStatus.kInfeasible:
        return INFEASIBLE
    if res["x"] is None:
        if status in (HighsModelStatus.kTimeLimit, HighsModelStatus.kIterationLimit):
            return TIMEOUT
        raise SolverBackendError(f"solver failed: HiGHS model status {status.name}")
    gap = res["mip_gap"] or 0.0
    if status == HighsModelStatus.kOptimal and gap <= max(relative_gap, _GAP_EPS):
        return OPTIMAL
    return FEASIBLE_GAP


def completion_epoch(sol: Solution) -> int:
    """Earliest epoch by which every demand's reads in a solved model meet
    it; -1 if the model reads nothing.

    The model names its read family in `meta["reads"]`, one row of epochs
    per demand bounded by it: cumulative (`R` in the whole-chunk model), or
    per epoch and summed here if `meta["per_epoch_reads"]` (`Rd` in the LP).
    """
    reads = sol.model.families[sol.model.meta["reads"]]
    demand = sol.model.ub[reads.index[:, -1:]]
    got = sol._values()[reads.index]
    got = np.cumsum(got, axis=1) if sol.model.meta.get("per_epoch_reads") else got
    met = got >= demand - TOL * np.maximum(1.0, demand)
    never = ~met.any(axis=1)
    if never.any():
        raise ConservationError(
            f"reads of {reads.axes[0].labels[int(np.argmax(never))]!r} never reach the demand")
    return int(met.argmax(axis=1).max(initial=-1))


def min_feasible_horizon(builder: Callable[[int], Model], k_lo: int, k_hi: int,
                         opts: SolverOptions | None = None) -> tuple[int, Solution, float]:
    """Smallest horizon in [k_lo, k_hi] whose model is feasible, the solution
    that proves it, and the summed solve time of every probe.

    Bisects on the assumption that feasibility is monotone: a demand met in
    K epochs is met in K + 1, by idling the extra epoch. A feasible probe at
    K whose reads complete at epoch e < K also proves K = e + 1 feasible:
    its solution cut to e + 1 epochs meets every row once the sends no read
    needs are dropped. In the copy-free LP there are none, since all mass is
    read by then and every F and B after e is zero; in the whole-chunk model
    they are the sends that pruning removes. So a horizon above e is known
    feasible and never solved, and the search returns the probe with the
    smallest e as it is, its model `sol.model` keeping the probe's own K.
    With the early-delivery objective an optimum at K is also one at e + 1:
    the objectives differ by the constant sum over rows of demand times
    1/(k + 1) for k = e + 1..K - 1.
    """
    opts = opts or SolverOptions()
    if k_lo < 1 or k_hi < k_lo:
        raise ValidationError(f"bad horizon range [{k_lo}, {k_hi}]")
    best: Solution | None = None
    known = k_hi + 1  # smallest horizon a probe has proved feasible
    lo, hi, seconds = k_lo, k_hi, 0.0
    while lo <= hi:
        mid = (lo + hi) // 2
        if mid < known:
            sol = solve(builder(mid), opts)
            seconds += sol.solve_wall_time
            if sol.status == TIMEOUT:
                raise SolverTimeoutError(f"no incumbent within {opts.time_limit}s "
                                         f"at horizon K={mid}")
            if not sol.feasible:
                lo = mid + 1
                continue
            best, known = sol, completion_epoch(sol) + 1
        hi = mid - 1
    if best is None:
        raise HorizonInfeasibleError(k_lo, k_hi, seconds)
    return lo, best, seconds
