"""Horizon-decomposed solver: fixed-size rounds, carried in-flight state, and
a distance-shaped reward for moving chunks toward the nodes that want them.

Each round is the general whole-chunk model given a `Carry`, which makes
delivery rewarded rather than forced. What a round leaves behind seeds the
next one: the chunks its nodes hold and those still landing after the
boundary seed buffers and switches, and its last sends on a link that holds
a chunk for several epochs seed that link's capacity windows.

A round often has many optima with the same progress: on ndv2x2 every delay
is at least a round long, so no send lands inside its own round. An
early-send term rewards every send by a weight that falls with its epoch,
far below any progress reward, so among those optima the round takes one
that starts its sends soonest. A send of a chunk into a node that holds it
from the carry by the time the send lands is never needed, so the round
fixes it to zero unless a no-copy switch makes it (`milp.build_time_expanded`),
and neither the term nor a progress counter can reward it. Nor is a second
copy made within the round: a buffering node never drops a copy, so one row
per (commodity, buffering node) lets it receive each chunk at most once a
round (sends out of a no-copy switch are exempt, and with a buffer limit
the rows stay out). Without it a duplicate would earn progress credit,
since a progress counter sums copies. Other sends that nothing needs are
pruned when the schedule is extracted.

A round also states what its carry already decides. A buffer that no free
send can reach by an epoch, a look-ahead count whose predecessor and feeding
sends are all fixed, and a progress counter at a location that no wanted
chunk can reach are fixed to the value their own row forces (0 for the
counter). On ndv2x2 allgather that decides every buffer and most of the
look-ahead, and HiGHS gets about a quarter of the nonzeros. The round is
then settled (`Model.settle`): the rows those fixings decide, the buffer
and look-ahead rows among them, are dropped or become column bounds.

A round is solved as its LP relaxation first (`solve_round`), by dual
simplex with HiGHS's presolve off, which on rounds this small costs more
than the solve itself. An optimal vertex whose binaries are all 0 or 1 is
an optimum of the round; on every seed-1 benchmark input each one is.
Only a fractional vertex, or a relaxation that is not optimal, sends the
round to HiGHS's MILP solver, presolve and branch and bound included.

`astar_solve` plans the rounds once, link timing and round length included,
and stitches their flows under the `meta` a one-shot model carries.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .demand import Demand, check_demand_nodes
from .epochs import EpochConfig, LinkTiming, link_timing
from .errors import RoundLimitError, SolverBackendError, ValidationError
from .milp import Carry, ModelOptions, build_time_expanded, model_topology
from .model import INF, Axis, Model
from .schedule import Schedule, schedule_from_flows
from .solver import FEASIBLE_GAP, OPTIMAL, Solution, SolverOptions, solve
from .topology import NO_COPY, Topology, all_pairs_distances

# Status of an A* solve whose every round was solved to optimality; a round
# stopped by its time limit with an incumbent makes it FEASIBLE_GAP.
OPTIMAL_PER_ROUND = "optimal-per-round"

# Weight of a round's send at epoch k is EARLY_SEND / (k + 1), like a read's
# 1 / (k + 1) but far below the smallest progress (P) reward (about 5e-3 on
# ndv2x2), so it only breaks ties between a round's optima: toward starting
# sends sooner. Which tied optimum a round gets used to depend on HiGHS's
# MILP presolve as well; rounds solved by dual simplex with presolve off
# see only this term. 1e-6, 1e-5 and 1e-3 give the same completions on the
# seed-1 ndv2x2 benchmark inputs (with no term, 59-67 instead of 59-63);
# far smaller weights would near HiGHS's tolerances (1e-6 to 1e-7).
EARLY_SEND = 1e-4

# How far from 0 or 1 a binary column of a round's relaxed optimum may lie
# for the vertex to count as integral: HiGHS's own MIP feasibility tolerance.
INTEGRAL = 1e-6


def round_distance_table(t: Topology, cfg: EpochConfig) -> dict:
    """Distance used to weight round progress, in epochs, as {(a, b): epochs}.

    Every hop costs at least one epoch of transmission on top of its latency,
    so the weight is 1 + alpha/tau per edge. A pure-alpha table would be flat
    on zero-latency fixtures and give the solver no reason to move chunks.
    """
    return all_pairs_distances(t, lambda e: 1.0 + e.alpha / cfg.tau)


@dataclass
class RoundState:
    """What one round hands to the next: the demand still unmet and the
    carry that seeds the round's buffers, switches and link windows."""

    round_index: int
    demand: Demand  # the entries still unmet, in the solve's chunk-id space
    carry: Carry


def build_round_model(t: Topology, state: RoundState, cfg: EpochConfig,
                      fw: dict, gamma: float = 0.5,
                      opts: ModelOptions | None = None, *,
                      timing: LinkTiming | None = None) -> Model:
    """One round: the general model seeded with the state's carry, plus
    look-ahead accounting (Q), progress counters (P), the distance reward,
    the early-send tie-break (`EARLY_SEND`) and, with no buffer limit, one
    row per (commodity, buffering node) that caps its receptions, sends out
    of a no-copy switch aside, at one. A Q whose predecessor (the
    terminal buffer or the Q before it) and feeding sends are all fixed is
    fixed to their sum; a P whose wanted chunks' Q at its location are all
    fixed at 0 is fixed at 0. Settling is the last step (`Model.settle`), so
    the round keeps only the rows with two or more free columns, and any row
    that cannot hold.

    gamma < 1 keeps any in-transit reward below the payoff of a chunk sitting
    at its destination. `timing` is the link timing of the whole solve (the
    model topology at cfg, epochs counted from the first round's start); it
    is derived when not given.
    """
    if not (0 < gamma < 1):
        raise ValidationError("gamma must lie in (0, 1)")
    opts = opts or ModelOptions()
    timing = timing or link_timing(model_topology(t, opts)[0], cfg)
    max_kp = timing.max_delta
    if cfg.K < max_kp:
        raise ValidationError(f"epochs per round {cfg.K} < max link delay {max_kp}")

    dem = state.demand
    commodities = dem.commodities
    K, kk, M = cfg.K, cfg.K - 1, max_kp + 1
    # The round sees each capacity override at its own epochs, k0 on.
    m = build_time_expanded(t, dem, cfg, opts, state.carry,
                            timing=timing.from_epoch(state.round_index * K, K))
    net = m.meta["net"]
    C, N = len(commodities), len(net.nodes)
    F, B = m.families["F"].index, m.families["B"].index
    ar = np.arange
    cc = ar(C)[:, None, None]

    # Look-ahead: what sits in each buffer at the start of the next round's
    # epoch k'. k'=0 is the terminal buffer itself; switches only ever hold
    # flows still on the wire. One row per Q, in Q's column order.
    q_at = net.switch[:, None] | (ar(M) >= 1)[None, :]  # (node, k')
    has_q = np.broadcast_to(q_at, (C, N, M))
    count = int(has_q.sum())
    Q = np.full((C, N, M), -1, dtype=np.int64)
    Q[has_q] = m.columns(count) + ar(count)
    m.add_family("Q", [Axis(commodities, 2), Axis(net.nodes), Axis(range(M))], Q)
    rq = np.full((C, N, M), -1, dtype=np.int64)
    rq[has_q] = ar(count)
    # A buffering node's Q[k'] follows Q[k'-1], and Q[1] the terminal buffer.
    qref = Q.copy()
    buffering = ~net.switch
    qref[:, buffering, 0] = B[:, net.bpos[buffering], K]
    prev = np.broadcast_to(buffering[None, :, None] & (ar(M) >= 1)[None, None, :], (C, N, M))
    pn, pe = net.edges_in(ar(N))
    dlt = net.delta[pe][:, None]
    k_send = kk + ar(M)[None, :] - dlt
    ok = np.broadcast_to(((dlt >= ar(M)[None, :]) & (k_send >= 0) & q_at[pn])[None],
                         (C, len(pn), M))
    sends = F[cc, pe[None, :, None], np.clip(k_send, 0, kk)[None]][ok]
    # A Q whose predecessor and feeding sends are all fixed is decided: fix
    # it to their sum. A switch's Q has no predecessor.
    at = ((cc * N + pn[None, :, None]) * M + ar(M))[ok]  # (commodity, node, k') of each send
    decided = np.bincount(at, m.lb[sends] != m.ub[sends], C * N * M).reshape(C, N, M) == 0
    value = np.bincount(at, m.lb[sends], C * N * M).reshape(C, N, M)
    terminal = qref[:, buffering, 0]
    decided[:, buffering, 0] = m.lb[terminal] == m.ub[terminal]
    value[:, buffering, 0] = m.lb[terminal]
    decided[:, buffering] = np.logical_and.accumulate(decided[:, buffering], axis=2)
    value[:, buffering] = np.cumsum(value[:, buffering], axis=2)
    fixed = decided & has_q
    m.fix(Q[fixed], value[fixed])
    m.add_rows(np.zeros(count), np.zeros(count),
               (rq[has_q], Q[has_q], 1.0),
               (rq[prev], qref[:, :, :-1][prev[:, :, 1:]], -1.0),
               (rq[:, pn, :][ok], sends, -1.0))

    # Progress counters: how many still-wanted chunks sit at (or move through)
    # each location, rewarded by closeness to the wanting destination. Per
    # (destination, k'): one cap row per location, then their sum.
    wanted = dem.ordered_entries
    dsts = sorted({dst for _, _, dst in wanted}, key=str)
    D = len(dsts)
    dpos = {dst: i for i, dst in enumerate(dsts)}
    w_dst = np.array([dpos[dst] for _, _, dst in wanted], dtype=np.int64)
    cpos = {sc: i for i, sc in enumerate(commodities)}
    w_com = np.array([cpos[(s, c)] for s, c, _ in wanted], dtype=np.int64)
    dk = ar(D)[None, :, None] * M + ar(M)[None, None, :]  # (1, D, M)
    P = m.columns(N * D * M) + dk * N + ar(N)[:, None, None]  # (loc, dst, k')
    m.add_family("P", [Axis(net.nodes), Axis(dsts), Axis(range(M))], P,
                 lb=0.0, ub=float(dem.chunk_count))
    # No wanted chunk can be at (loc, k'): the counter is 0.
    at = (w_dst[:, None, None] * N + ar(N)[:, None]) * M + ar(M)  # (wanted entry, loc, k')
    held = np.bincount(at.ravel(), (m.ub[qref[w_com]] != 0).ravel(), D * N * M)
    m.fix(P[held.reshape(D, N, M).transpose(1, 0, 2) == 0], 0.0)
    per = N + 1
    cap_row = dk * per + ar(N)[:, None, None]
    lo = np.full((D, M, per), -INF)
    hi = np.zeros((D, M, per))
    lo[:, :, N] = hi[:, :, N] = np.bincount(w_dst, minlength=D)[:, None]
    q_row = ((w_dst[:, None, None] * M + ar(M)[None, :, None]) * per
             + ar(N)[None, None, :])  # (wanted entry, k', loc)
    m.add_rows(lo.ravel(), hi.ravel(),
               (cap_row, P, 1.0),
               (q_row, qref[w_com].transpose(0, 2, 1), -1.0),
               (np.broadcast_to(dk * per + N, P.shape), P, 1.0))
    dist = np.array([[fw[loc, dst] for dst in dsts] for loc in net.nodes],
                    dtype=float).reshape(N, D)[:, :, None]
    kp1 = ar(M)[None, None, :] + 1
    at_dst = ar(N)[:, None, None] == np.array([net.pos[dst] for dst in dsts])[None, :, None]
    with np.errstate(invalid="ignore"):
        reward = np.where(np.isfinite(dist), gamma / (kp1 * (1.0 + dist)), 0.0)
    m.add_objective(P, np.where(at_dst, 1.0 / kp1, reward))
    m.add_objective(F, EARLY_SEND / (ar(K) + 1)[None, None, :])

    # A buffering node never drops a copy, so it needs each chunk at most
    # once a round: one row per (commodity, buffering node) caps its
    # receptions at 1. Sends out of a no-copy switch are exempt, as the
    # switch must forward every arrival; with a buffer limit a node may
    # drop a copy, so the rows stay out.
    if opts.buffer_limit is None:
        bn = np.flatnonzero(~net.switch)
        owner, into = net.edges_in(bn)
        keep = ~(net.switch & (opts.switch_mode == NO_COPY))[net.src[into]]
        owner, into = owner[keep], into[keep]
        once = ar(C)[:, None, None] * len(bn) + owner[None, :, None]
        m.add_rows(np.full(C * len(bn), -INF), np.ones(C * len(bn)),
                   (np.broadcast_to(once, (C, len(into), K)), F[:, into, :], 1.0))
    m.settle()
    return m


def solve_round(m: Model, opts: SolverOptions | None = None) -> Solution:
    """Solve a round model as its LP relaxation first, by dual simplex
    (`SolverOptions.vertex`); an optimal vertex whose every binary column
    lies within `INTEGRAL` of 0 or 1 is an optimum of the round itself.
    On any other outcome, a fractional vertex or any status but optimal,
    the round is solved as the MILP with the time left. The returned
    solution's `solve_wall_time` sums both solves."""
    opts = opts or SolverOptions()
    relaxed = copy.copy(m)  # shares every array; `solve` changes none
    relaxed.binary = np.zeros_like(m.binary)
    sol = solve(relaxed, replace(opts, vertex=True))
    if sol.status == OPTIMAL:
        x = sol.x[m.binary]
        if np.all(np.abs(x - np.rint(x)) <= INTEGRAL):
            sol.model = m
            return sol
    rest = replace(opts, vertex=False,
                   time_limit=max(opts.time_limit - sol.solve_wall_time, 1e-3))
    whole = solve(m, rest)
    whole.solve_wall_time += sol.solve_wall_time
    return whole


def initial_state(d: Demand) -> RoundState:
    return RoundState(0, d, Carry.at_sources(d))


def advance_state(state: RoundState, sol, timing: LinkTiming,
                  sent: dict | None = None) -> RoundState:
    """Clear the demand entries a round met and carry forward what it leaves:
    the chunks each buffering node holds at the boundary, the arrivals that
    land after it, and its sends still occupying a link's window. A carried
    arrival at a switch usable from epoch K, where the round has no switch
    row, is carried again from the next round's epoch 0. Round length and
    model topology are the solved round model's. `sent` is the round's
    sends as `sol.family_values("F", 0.5)` gives them, for a caller that has
    read them already; they are read when not given."""
    K, t_eff = sol.model.meta["cfg"].K, sol.model.meta["eff_topology"]
    arrivals = {(s, c, n, 0): v for (s, c, n, k), v in state.carry.arrivals.items()
                if k == K and t_eff.is_switch(n)}
    link_load: dict = {}
    sent = sol.family_values("F", 0.5) if sent is None else sent
    for (s, c, i, j, k) in sent:
        kp = k + timing.delta[(i, j)] + 1 - K  # next round's epoch it is usable from
        if kp > 0 or (kp == 0 and t_eff.is_switch(j)):
            arrivals[(s, c, j, kp)] = arrivals.get((s, c, j, kp), 0) + 1
        for kn in range(k + timing.kappa[(i, j)] - K):
            link_load[(i, j, kn)] = link_load.get((i, j, kn), 0) + 1
    buffers = sol.model.families["B"]
    held = np.rint(sol.x[buffers.index[:, :, K]]).astype(np.int64)
    commodities, nodes = buffers.axes[0].labels, buffers.axes[1].labels
    for ci, b in np.argwhere(held).tolist():
        arrivals[(*commodities[ci], nodes[b], 0)] = held[ci, b].item()
    residual = state.demand.entries - {key[:3] for key in arrivals}
    kept = {(s, c) for (s, c, _) in residual}
    arrivals = {key: v for key, v in arrivals.items() if key[:2] in kept}
    return RoundState(state.round_index + 1, replace(state.demand, entries=residual),
                      Carry(arrivals, link_load))


def astar_solve(t: Topology, d: Demand, tau: float, epochs_per_round: int | None = None,
                gamma: float = 0.5, *, opts: ModelOptions | None = None,
                solver_opts: SolverOptions | None = None) -> Schedule:
    """Solve round after round until every demand entry is met, then stitch
    the per-round flows into one schedule on the global epoch axis. Rounds
    last `epochs_per_round` epochs of `tau` seconds, by default 4 or the
    largest link delay, whichever is more. It raises `RoundLimitError` once
    no entry has been met for stall = ceil(N (max_delta + 1) / K) + 1 rounds,
    N the model topology's node count, so it runs at most stall * (entries +
    1) rounds.
    """
    check_demand_nodes(d, t)
    opts = opts or ModelOptions()
    t_eff, _ = model_topology(t, opts)
    # Delays and kappa do not depend on K; each round derives its budgets.
    timing = link_timing(t_eff, EpochConfig(tau, 1, d.chunk_size))
    if epochs_per_round is None:
        epochs_per_round = max(4, timing.max_delta)
    cfg = EpochConfig(tau, epochs_per_round, d.chunk_size)
    fw = round_distance_table(t, cfg)
    for s, c, dst in d.entries:
        if not math.isfinite(fw[s, dst]):
            raise ValidationError(f"demanded pair ({s!r},{dst!r}) unreachable")

    # A path crosses fewer than N edges of at most max_delta + 1 epochs, and an entry is met
    # once a copy is in flight to it: chunks still moving meet one within `stall` rounds.
    stall = math.ceil(len(t_eff.nodes) * (timing.max_delta + 1) / cfg.K) + 1
    state = initial_state(d)
    flows: dict = {}
    status, highs_s, last_met = OPTIMAL_PER_ROUND, 0.0, 0
    while state.demand.entries:
        if state.round_index - last_met >= stall:
            raise RoundLimitError(f"no demand entry met in the {stall} rounds to round "
                                  f"{state.round_index - 1}: {len(state.demand.entries)} unmet")
        m = build_round_model(t, state, cfg, fw, gamma, opts, timing=timing)
        sol = solve_round(m, solver_opts)
        if not sol.feasible:
            raise SolverBackendError(f"round {state.round_index} came back {sol.status}")
        highs_s += sol.solve_wall_time
        if sol.status == FEASIBLE_GAP:
            status = FEASIBLE_GAP
        offset = state.round_index * cfg.K
        sent = sol.family_values("F", 0.5)
        for (s, c, i, j, k) in sent:
            flows[(s, c, i, j, offset + k)] = 1.0
        unmet = len(state.demand.entries)
        state = advance_state(state, sol, timing, sent)
        last_met = state.round_index if len(state.demand.entries) < unmet else last_met

    meta = {"eff_topology": t_eff, "delta": timing.delta, "opts": opts, "entries": set(d.entries),
            "cfg": cfg.with_horizon(max(1, state.round_index * cfg.K))}
    sched = schedule_from_flows(flows, meta)
    sched.meta.update({"rounds": state.round_index, "epochs_per_round": cfg.K, "gamma": gamma,
                       "status": status, "solver_wall_time_sec": highs_s})
    return sched
