"""Cheap upper bound on the epoch horizon before the real solve.

Sweeps candidate completion times with very coarse epochs; the first
candidate whose coarse model is feasible converts into an epoch count at the
real epoch duration. Loose on purpose: the real solve discovers on its own if
fewer epochs suffice.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .demand import Demand
from .epochs import EpochConfig, ceil_frac, _frac
from .errors import EstimationError
from .milp import ModelOptions, build_time_expanded
from .solver import SolverOptions, solve
from .topology import Topology, all_pairs_distances

COARSE_EPOCH_COUNTS = (4, 8, 12)


def default_candidates(t: Topology, d: Demand, count: int = 10) -> list[float]:
    """Geometric ladder seeded from a latency-plus-bisection heuristic."""
    fw = all_pairs_distances(t, lambda e: e.alpha)
    worst_alpha = 0.0
    for s, c, dst in d.entries:
        w = fw[s, dst]
        if math.isfinite(w):
            worst_alpha = max(worst_alpha, w)
    total_caps = sum(e.capacity for e in t.edges)
    bisection = max(total_caps / 4.0, min(e.capacity for e in t.edges))
    slowest_chunk = d.chunk_size / min(e.capacity for e in t.edges)
    seed = max(worst_alpha + d.total_bytes() / bisection, slowest_chunk)
    return [seed * (2.0 ** i) for i in range(count)]


def estimate_epoch_upper_bound(t: Topology, d: Demand, tau_opt: float,
                               candidates: list[float] | None = None,
                               opts: ModelOptions | None = None,
                               solver_opts: SolverOptions | None = None) -> int:
    """Epoch count at tau_opt that is sufficient to satisfy the demand.

    For each candidate total time, tries coarse models with 4, 8, then 12
    epochs; the first feasible candidate wins outright. Only feasibility is
    read, so each coarse solve stops at its first incumbent, whatever
    `solver_opts` says. The coarse models use base capacities: an override
    names a real epoch, which no coarse epoch matches.
    """
    if candidates is None:
        candidates = default_candidates(t, d)
    if sorted(candidates) != list(candidates):
        raise EstimationError("candidate completion times must be ascending")
    opts = opts or ModelOptions()
    solver_opts = replace(solver_opts or SolverOptions(time_limit=60.0), first_incumbent=True)
    coarse = replace(t, capacity_overrides={})
    for total_time in candidates:
        for n_e in COARSE_EPOCH_COUNTS:
            tau = total_time / n_e
            cfg = EpochConfig(tau, n_e, d.chunk_size)
            sol = solve(build_time_expanded(coarse, d, cfg, opts), solver_opts)
            if sol.feasible:
                return ceil_frac(_frac(total_time) / _frac(tau_opt))
    raise EstimationError("no candidate completion time was feasible")
