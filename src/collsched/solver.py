"""Thin wrapper over an open-source MILP/LP engine (HiGHS via scipy).

The backend is selected by name so alternative engines can be slotted in
behind the same four calls: build matrices, solve, read status, read values.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import HorizonInfeasibleError, SolverBackendError, ValidationError
from .model import BINARY, INF, Model

OPTIMAL = "optimal"
FEASIBLE_GAP = "feasible-gap"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"

ENV_BACKEND = "COLLSCHED_SOLVER"
_GAP_EPS = 1e-9


@dataclass(frozen=True)
class SolverOptions:
    time_limit: float = 300.0
    relative_gap: float = 0.0  # early-stop when the primal-dual gap falls below
    backend: str | None = None  # None: $COLLSCHED_SOLVER or "highs"

    def __post_init__(self):
        if not (0 <= self.relative_gap < 1):
            raise ValidationError("relative_gap must be in [0, 1)")
        if self.time_limit <= 0:
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

    def value(self, family: str, *key) -> float:
        if self.x is None:
            raise ValueError(f"no values available (status={self.status})")
        return float(self.x[self.model.var(family, *key)])

    def family_values(self, family: str, threshold: float = 0.0) -> dict:
        if self.x is None:
            raise ValueError(f"no values available (status={self.status})")
        out = {}
        for key, idx in self.model.family_items(family):
            v = float(self.x[idx])
            if abs(v) > threshold:
                out[key] = v
        return out

    def replace_values(self, updates: dict[int, float]) -> "Solution":
        x = np.array(self.x, copy=True)
        for idx, v in updates.items():
            x[idx] = v
        return Solution(self.status, self.model, x, self.objective,
                        self.achieved_gap, self.solve_wall_time)


def _backend_name(opts: SolverOptions) -> str:
    return opts.backend or os.environ.get(ENV_BACKEND, "highs")


def solve(m: Model, opts: SolverOptions | None = None) -> Solution:
    """Solve the model; integer variables come back integral within 1e-6.

    HiGHS runs single-threaded here, so results are deterministic for a fixed
    model.
    """
    opts = opts or SolverOptions()
    name = _backend_name(opts)
    if name != "highs":
        raise SolverBackendError(f"unknown solver backend {name!r} (available: highs)")
    if m.num_vars == 0:
        return Solution(OPTIMAL, m, np.zeros(0), 0.0)
    c = np.zeros(m.num_vars)
    for idx, coef in m.objective.items():
        c[idx] = -coef  # maximize
    integrality = np.zeros(m.num_vars, dtype=np.uint8)
    for i, kind in enumerate(m.kinds):
        if kind == BINARY:
            integrality[i] = 1
    lb = np.array(m.lb, dtype=float)
    ub = np.array([np.inf if b is INF or b == INF else b for b in m.ub], dtype=float)
    constraints = None
    if m.rows:
        data, rows_idx, cols_idx, lo, hi = [], [], [], [], []
        for r, (coeffs, rlo, rhi) in enumerate(m.rows):
            for idx, coef in coeffs:
                rows_idx.append(r)
                cols_idx.append(idx)
                data.append(coef)
            lo.append(-np.inf if rlo == -INF else rlo)
            hi.append(np.inf if rhi is INF or rhi == INF else rhi)
        a = sp.csc_matrix((data, (rows_idx, cols_idx)), shape=(len(m.rows), m.num_vars))
        constraints = LinearConstraint(a, np.array(lo), np.array(hi))
    options = {
        "time_limit": float(opts.time_limit),
        "mip_rel_gap": float(opts.relative_gap),
    }
    start = time.perf_counter()
    res = milp(c=c, integrality=integrality, bounds=Bounds(lb, ub),
               constraints=constraints, options=options)
    wall = time.perf_counter() - start

    gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
    if res.status == 2:
        return Solution(INFEASIBLE, m, solve_wall_time=wall)
    if res.x is None:
        status = TIMEOUT if res.status == 1 else INFEASIBLE
        if res.status not in (1, 2):
            raise SolverBackendError(f"solver failed: {res.message}")
        return Solution(status, m, solve_wall_time=wall)
    status = OPTIMAL if gap <= max(opts.relative_gap, _GAP_EPS) and res.status == 0 else FEASIBLE_GAP
    if res.status == 1:
        status = FEASIBLE_GAP
    return Solution(status, m, np.asarray(res.x), float(-res.fun), gap, wall)


def min_feasible_horizon(builder: Callable[[int], Model], k_lo: int, k_hi: int,
                         opts: SolverOptions | None = None) -> tuple[int, Solution]:
    """Binary-search the smallest horizon whose model is feasible.

    Assumes monotonicity: a demand satisfiable in K epochs is satisfiable in
    K+1. Returns the smallest feasible K with its solution.
    """
    if k_lo < 1 or k_hi < k_lo:
        raise ValidationError(f"bad horizon range [{k_lo}, {k_hi}]")
    best: tuple[int, Solution] | None = None
    lo, hi = k_lo, k_hi
    while lo <= hi:
        mid = (lo + hi) // 2
        sol = solve(builder(mid), opts)
        if sol.status == TIMEOUT:
            raise SolverBackendError(f"horizon probe timed out at K={mid}")
        if sol.feasible:
            best = (mid, sol)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise HorizonInfeasibleError(k_lo, k_hi)
    return best
