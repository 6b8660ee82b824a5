"""Horizon-decomposed solver: fixed-size rounds, carried in-flight state, and
a distance-shaped reward for moving chunks toward the nodes that want them.

Each round is the general whole-chunk model given a `Carry`, which makes
delivery rewarded rather than forced. What a round leaves behind seeds the
next one: the chunks its nodes hold and those still landing after the
boundary seed buffers and switches, and its last sends on a link that holds
a chunk for several epochs seed that link's capacity windows.

Every round of a solve has the same network, length and rows, so a solve
builds them once over its live demand (`round_template`), and again only
when three quarters of those commodities are met. A template holds the general
model (`milp.time_expanded`), look-ahead (Q) and progress (P) counters, and
one row per (commodity, buffering node) that lets it receive each chunk
once a round, as it never drops a copy and a duplicate would earn progress
credit (sends out of a no-copy switch are exempt; with a buffer limit the
rows stay out). A round is a copy that differs in bounds only
(`build_round_model`). Its carry fixes what it decides: a send into a node
that holds the chunk by the time it lands (unless a no-copy switch makes
it), a buffer no free send reaches by an epoch, a look-ahead count whose
predecessor and feeding sends are fixed, a progress counter no unmet chunk
reaches. Met entries and commodities are fixed at 0, and a met entry's Q
terms leave its destination's P rows, as an allgather commodity lives on
while some of its destinations are met. Settling (`Model.settle`) leaves
HiGHS only the rows and columns these bounds keep open.

A round often has many optima with the same progress: on ndv2x2 every delay
is at least a round long, so no send lands inside its own round. An
early-send term rewards every send by a weight that falls with its epoch,
far below any progress reward, so among those optima the round takes one
that starts its sends soonest; unneeded sends are pruned at extraction.

A round is solved as its LP relaxation first (`solve_round`), by dual
simplex with presolve off, which on rounds this small costs more than the
solve. An optimal vertex whose binaries are all 0 or 1 is an optimum of the
round, as on every seed-1 benchmark input; any other outcome goes to
HiGHS's MILP solver. `astar_solve` plans the rounds (link timing, round
length, templates) and stitches their flows under a one-shot `meta`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .demand import Demand, check_demand_nodes
from .epochs import EpochConfig, LinkTiming, link_timing
from .errors import RoundLimitError, SolverBackendError, ValidationError
from .milp import Carry, ModelOptions, model_topology, time_expanded
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

# Progress away from the destination earns GAMMA / ((k' + 1)(1 + distance)),
# below the 1 / (k' + 1) at it; neither 0.1 nor 0.9 beats 0.5 on every input.
GAMMA = 0.5

# How far from 0 or 1 a binary column of a round's relaxed optimum may lie
# for the vertex to count as integral: HiGHS's own MIP feasibility tolerance.
INTEGRAL = 1e-6


@dataclass
class RoundState:
    """What one round hands to the next: the demand still unmet and the
    carry that seeds the round's buffers, switches and link windows."""

    round_index: int
    demand: Demand  # the entries still unmet, in the solve's chunk-id space
    carry: Carry


def round_template(t: Topology, d: Demand, cfg: EpochConfig,
                   opts: ModelOptions | None = None, *,
                   timing: LinkTiming | None = None) -> tuple[Model, Callable]:
    """The rounds of an A* solve of `d` (see the module): the model over every
    entry, its matrix assembled, and `bound(m, state)` for a copy of it. `timing`
    is the solve's link timing (epochs from its first round), derived if None."""
    opts = opts or ModelOptions()
    timing = timing or link_timing(model_topology(t, opts)[0], cfg)
    K, kk, M = cfg.K, cfg.K - 1, timing.max_delta + 1
    if K < M - 1:
        raise ValidationError(f"epochs per round {K} < max link delay {M - 1}")
    # Progress is weighed by distance in epochs: a hop costs an epoch on top
    # of its latency, so even with no latency a chunk gains by moving.
    fw = all_pairs_distances(t, lambda e: 1.0 + e.alpha / cfg.tau)
    for s, c, dst in d.entries:
        if not math.isfinite(fw[s, dst]):
            raise ValidationError(f"demanded pair ({s!r},{dst!r}) unreachable")

    commodities = d.commodities
    m, bound_expanded = time_expanded(t, d, cfg, opts, timing=timing)
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
    q_of = ((cc * N + pn[None, :, None]) * M + ar(M))[ok]  # (commodity, node, k') of each send
    terminal = qref[:, buffering, 0]
    m.add_rows(np.zeros(count), np.zeros(count),
               (rq[has_q], Q[has_q], 1.0),
               (rq[prev], qref[:, :, :-1][prev[:, :, 1:]], -1.0),
               (rq[:, pn, :][ok], sends, -1.0))

    # Progress counters: how many unmet chunks sit at (or move through) each
    # location, rewarded by closeness to the wanting destination. Per
    # (destination, k'): one cap row per location, then their sum.
    wanted = d.ordered_entries
    dsts = sorted({dst for _, _, dst in wanted}, key=str)
    D = len(dsts)
    dpos = {dst: i for i, dst in enumerate(dsts)}
    w_dst = np.array([dpos[dst] for _, _, dst in wanted], dtype=np.int64)
    cpos = {sc: i for i, sc in enumerate(commodities)}
    w_com = np.array([cpos[(s, c)] for s, c, _ in wanted], dtype=np.int64)
    dk = ar(D)[None, :, None] * M + ar(M)[None, None, :]  # (1, D, M)
    P = m.columns(N * D * M) + dk * N + ar(N)[:, None, None]  # (loc, dst, k')
    m.add_family("P", [Axis(net.nodes), Axis(dsts), Axis(range(M))], P,
                 lb=0.0, ub=float(d.chunk_count))
    w_ent = [m.families["R"].axes[0].position[e] for e in wanted]
    per = N + 1
    cap_row = dk * per + ar(N)[:, None, None]
    q_row = ((w_dst[:, None, None] * M + ar(M)[None, :, None]) * per
             + ar(N)[None, None, :])  # (wanted entry, k', loc)
    q_col = qref[w_com].transpose(0, 2, 1)
    p0 = m.num_rows
    m.add_rows(np.full(D * M * per, -INF), 0.0,
               (cap_row, P, 1.0),
               (q_row, q_col, -1.0),
               (np.broadcast_to(dk * per + N, P.shape), P, 1.0))
    dist = np.array([[fw[loc, dst] for dst in dsts] for loc in net.nodes],
                    dtype=float).reshape(N, D)[:, :, None]
    kp1 = ar(M)[None, None, :] + 1
    at_dst = ar(N)[:, None, None] == np.array([net.pos[dst] for dst in dsts])[None, :, None]
    with np.errstate(invalid="ignore"):
        reward = np.where(np.isfinite(dist), GAMMA / (kp1 * (1.0 + dist)), 0.0)
    m.add_objective(P, np.where(at_dst, 1.0 / kp1, reward))
    m.add_objective(F, EARLY_SEND / (ar(K) + 1)[None, None, :])

    # One row per (commodity, buffering node) caps its receptions, sends out
    # of a no-copy switch aside, at 1 a round; a node with a buffer limit may
    # drop a copy, so then the rows stay out.
    if opts.buffer_limit is None:
        bn = np.flatnonzero(~net.switch)
        owner, into = net.edges_in(bn)
        keep = ~(net.switch & (opts.switch_mode == NO_COPY))[net.src[into]]
        owner, into = owner[keep], into[keep]
        once = ar(C)[:, None, None] * len(bn) + owner[None, :, None]
        m.add_rows(np.full(C * len(bn), -INF), np.ones(C * len(bn)),
                   (np.broadcast_to(once, (C, len(into), K)), F[:, into, :], 1.0))
    q_terms = m.entry_positions(p0 + q_row, q_col)  # the matrix every round's copy starts from

    def bound(r: Model, state: RoundState) -> None:
        met = bound_expanded(r, state.carry, state.demand.entries, state.round_index * K)
        # A Q whose predecessor and feeding sends are all fixed is decided:
        # fix it to their sum. A switch's Q has no predecessor.
        decided = np.bincount(q_of, r.lb[sends] != r.ub[sends], C * N * M).reshape(C, N, M) == 0
        value = np.bincount(q_of, r.lb[sends], C * N * M).reshape(C, N, M)
        decided[:, buffering, 0] = r.lb[terminal] == r.ub[terminal]
        value[:, buffering, 0] = r.lb[terminal]
        decided[:, buffering] = np.logical_and.accumulate(decided[:, buffering], axis=2)
        value[:, buffering] = np.cumsum(value[:, buffering], axis=2)
        fixed = decided & has_q
        r.fix(Q[fixed], value[fixed])
        # No unmet chunk can be at (loc, k'): the counter is 0.
        live = ~met[w_ent]
        at = (w_dst[live, None, None] * N + ar(N)[:, None]) * M + ar(M)  # (unmet entry, loc, k')
        held = np.bincount(at.ravel(), (r.ub[qref[w_com[live]]] != 0).ravel(), D * N * M)
        r.fix(P[held.reshape(D, N, M).transpose(1, 0, 2) == 0], 0.0)
        total = np.bincount(w_dst[live], minlength=D)[None, :, None]
        r.bound_rows(p0 + dk * per + N, total, total)
        r.remove_entries(q_terms[~live])

    return m, bound


def build_round_model(template: tuple[Model, Callable], state: RoundState) -> Model:
    """One round: a copy of the solve's `round_template`, bounded by the
    state and settled (`Model.settle`)."""
    m = template[0].copy()
    template[1](m, state)
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
    relaxed = m.copy()
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
                *, opts: ModelOptions | None = None,
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
    size = 4 * len(d.commodities)  # so that the first round builds the first template

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
        live = len(state.demand.commodities)
        if 4 * live <= size:  # a round costs as its template: rebuilt at a quarter live
            template, size = round_template(t, state.demand, cfg, opts, timing=timing), live
        m = build_round_model(template, state)
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
    sched.meta.update({"rounds": state.round_index, "epochs_per_round": cfg.K,
                       "status": status, "solver_wall_time_sec": highs_s})
    return sched
