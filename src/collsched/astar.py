"""Horizon-decomposed solver: fixed-size rounds, carried in-flight state, and
a distance-shaped reward for moving chunks toward the nodes that want them.

Each round is the general whole-chunk model given a `Carry`, which makes
delivery rewarded rather than forced. What a round leaves behind seeds the
next one: the chunks its nodes hold and those still landing after the
boundary seed buffers and switches, and its last sends on a link that holds
a chunk for several epochs seed that link's capacity windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .demand import Demand, check_demand_nodes
from .epochs import EpochConfig, LinkTiming, link_timing
from .errors import RoundLimitError, SolverBackendError, ValidationError
from .milp import Carry, ModelOptions, build_time_expanded, model_topology
from .model import Model
from .schedule import Schedule, schedule_from_flows
from .solver import SolverOptions, solve
from .topology import NodeId, Topology, require_valid, shortest_distances


def floyd_warshall_alpha(t: Topology) -> dict:
    """Shortest latency (seconds) between all node pairs over edge alphas,
    as {(a, b): seconds}."""
    require_valid(t)
    hop = lambda e: e.alpha
    return {(a, b): w for a in t.nodes for b, w in shortest_distances(t, hop, {a: 0.0}).items()}


def round_distance_table(t: Topology, cfg: EpochConfig) -> dict:
    """Distance used to weight round progress, in epochs, as {(a, b): epochs}.

    Every hop costs at least one epoch of transmission on top of its latency,
    so the weight is 1 + alpha/tau per edge. A pure-alpha table would be flat
    on zero-latency fixtures and give the solver no reason to move chunks.
    """
    require_valid(t)
    hop = lambda e: 1.0 + e.alpha / cfg.tau
    return {(a, b): w for a in t.nodes for b, w in shortest_distances(t, hop, {a: 0.0}).items()}


@dataclass
class RoundState:
    """What one round hands to the next: the demand still unmet and the
    carry that seeds the round's buffers, switches and link windows."""

    round_index: int
    residual: frozenset  # demanded (s, c, d) entries still unmet
    carry: Carry
    demand_proto: Demand  # chunk-id space and chunk size


def max_future_epochs(t: Topology, cfg: EpochConfig, opts: ModelOptions | None = None) -> int:
    """Largest link delay in epochs: how far into the next round chunks land."""
    t_eff, _ = model_topology(t, opts or ModelOptions())
    return link_timing(t_eff, cfg).max_delta


def build_round_model(t: Topology, state: RoundState, cfg: EpochConfig,
                      fw: dict, gamma: float = 0.5,
                      opts: ModelOptions | None = None) -> Model:
    """One round: the general model seeded with the state's carry, plus
    look-ahead accounting (Q), progress counters (P), and the distance reward.

    gamma < 1 keeps any in-transit reward below the payoff of a chunk sitting
    at its destination.
    """
    if not (0 < gamma < 1):
        raise ValidationError("gamma must lie in (0, 1)")
    opts = opts or ModelOptions()
    t_eff, _ = model_topology(t, opts)
    timing = link_timing(t_eff, cfg)
    delta, max_kp = timing.delta, timing.max_delta
    if cfg.K < max_kp:
        raise ValidationError(f"epochs per round {cfg.K} < max link delay {max_kp}")

    dem = state_demand(state)
    commodities = dem.commodities
    kk = cfg.K - 1

    # The round sees each capacity override at its own epochs, k0 on.
    k0 = state.round_index * cfg.K
    shifted = {(i, j, k - k0): c for (i, j, k), c in t.capacity_overrides.items() if k >= k0}
    m = build_time_expanded(Topology(t.nodes, t.switches, t.edges, shifted), dem, cfg, opts,
                            state.carry)

    # Look-ahead: what sits in each buffer at the start of the next round's
    # epoch k'. k'=0 is the terminal buffer itself; switches only ever hold
    # flows still on the wire.
    for s, c in commodities:
        for n in t_eff.nodes:
            in_edges = t_eff.in_edges(n)
            if t_eff.is_switch(n):
                for kp in range(0, max_kp + 1):
                    coeffs = [(m.add_var("Q", (s, c, n, kp)), 1.0)]
                    for e in in_edges:
                        dlt = delta[(e.src, e.dst)]
                        k_send = kk + kp - dlt
                        if dlt >= kp and k_send >= 0:
                            coeffs.append((m.var("F", s, c, e.src, e.dst, k_send), -1.0))
                    m.add_eq(coeffs, 0.0)
            else:
                for kp in range(1, max_kp + 1):
                    coeffs = [(m.add_var("Q", (s, c, n, kp)), 1.0)]
                    prev = m.var("Q", s, c, n, kp - 1) if kp > 1 else m.var("B", s, c, n, cfg.K)
                    coeffs.append((prev, -1.0))
                    for e in in_edges:
                        dlt = delta[(e.src, e.dst)]
                        k_send = kk + kp - dlt
                        if dlt >= kp and k_send >= 0:
                            coeffs.append((m.var("F", s, c, e.src, e.dst, k_send), -1.0))
                    m.add_eq(coeffs, 0.0)

    def q_ref(s, c, n, kp):
        if kp == 0 and not t_eff.is_switch(n):
            return m.var("B", s, c, n, cfg.K)
        return m.var("Q", s, c, n, kp)

    # Progress counters: how many still-wanted chunks sit at (or move through)
    # each location, rewarded by closeness to the wanting destination.
    wanted_by: dict[NodeId, list] = {}
    for (s, c, dst) in sorted(state.residual, key=lambda e: (str(e[0]), e[1], str(e[2]))):
        wanted_by.setdefault(dst, []).append((s, c))
    cap = float(dem.chunk_count)
    for dst, pairs in sorted(wanted_by.items(), key=lambda kv: str(kv[0])):
        for kp in range(0, max_kp + 1):
            total = []
            for loc in t_eff.nodes:
                p = m.add_var("P", (loc, dst, kp), lb=0.0, ub=cap)
                coeffs = [(p, 1.0)] + [(q_ref(s, c, loc, kp), -1.0) for (s, c) in pairs]
                m.add_le(coeffs, 0.0)
                total.append((p, 1.0))
                if loc == dst:
                    m.add_objective_term(p, 1.0 / (kp + 1))
                else:
                    w = fw[loc, dst]
                    if math.isfinite(w):
                        m.add_objective_term(p, gamma / ((kp + 1) * (1.0 + w)))
            m.add_eq(total, float(len(pairs)))
    return m


def state_demand(state: RoundState) -> Demand:
    return Demand(frozenset(state.residual), state.demand_proto.chunk_count,
                  state.demand_proto.chunk_size)


def initial_state(d: Demand) -> RoundState:
    return RoundState(0, frozenset(d.entries), Carry.at_sources(d), d)


def advance_state(state: RoundState, sol, t_eff: Topology, cfg: EpochConfig,
                  timing: LinkTiming) -> RoundState:
    """Clear the demand entries a round met and carry forward what it leaves:
    the chunks each buffering node holds at the boundary, the arrivals that
    land after it, and its sends still occupying a link's window."""
    arrivals: dict = {}
    link_load: dict = {}
    for (s, c, i, j, k) in sol.family_values("F", 0.5):
        kp = k + timing.delta[(i, j)] + 1 - cfg.K  # next round's epoch it is usable from
        if kp > 0 or (kp == 0 and t_eff.is_switch(j)):
            arrivals[(s, c, j, kp)] = arrivals.get((s, c, j, kp), 0) + 1
        for kn in range(k + timing.kappa[(i, j)] - cfg.K):
            link_load[(i, j, kn)] = link_load.get((i, j, kn), 0) + 1
    for s, c in state_demand(state).commodities:
        for n in t_eff.nodes:
            if not t_eff.is_switch(n):
                held = int(round(sol.value("B", s, c, n, cfg.K)))
                if held:
                    arrivals[(s, c, n, 0)] = held
    residual = state.residual - {key[:3] for key in arrivals}
    kept = {(s, c) for (s, c, _) in residual}
    arrivals = {key: v for key, v in arrivals.items() if key[:2] in kept}
    return RoundState(state.round_index + 1, residual, Carry(arrivals, link_load),
                      state.demand_proto)


def astar_solve(t: Topology, d: Demand, cfg: EpochConfig, gamma: float = 0.5,
                max_rounds: int = 64, *, opts: ModelOptions | None = None,
                solver_opts: SolverOptions | None = None,
                fw: dict | None = None) -> Schedule:
    """Solve round after round until every demand entry is met, then stitch
    the per-round flows into one schedule on the global epoch axis."""
    require_valid(t)
    check_demand_nodes(d, t)
    opts = opts or ModelOptions()
    t_eff, _ = model_topology(t, opts)
    timing = link_timing(t_eff, cfg)
    fw = fw or round_distance_table(t, cfg)
    for s, c, dst in d.entries:
        if not math.isfinite(fw[s, dst]):
            raise ValidationError(f"demanded pair ({s!r},{dst!r}) unreachable")

    state = initial_state(d)
    flows: dict = {}
    while state.residual:
        if state.round_index >= max_rounds:
            raise RoundLimitError(f"residual demand after {max_rounds} rounds")
        m = build_round_model(t, state, cfg, fw, gamma, opts)
        sol = solve(m, solver_opts)
        if not sol.feasible:
            raise SolverBackendError(f"round {state.round_index} came back {sol.status}")
        offset = state.round_index * cfg.K
        for (s, c, i, j, k), v in sol.family_values("F", 0.5).items():
            flows[(s, c, i, j, offset + k)] = 1.0
        prev = state
        state = advance_state(state, sol, t_eff, cfg, timing)
        # A round that changes neither hands the next one its own state.
        if state.residual == prev.residual and state.carry == prev.carry:
            raise RoundLimitError(f"no progress in round {prev.round_index}")

    meta = {"eff_topology": t_eff, "delta": timing.delta, "opts": opts,
            "entries": set(d.entries)}
    horizon = max(1, state.round_index * cfg.K)
    sched = schedule_from_flows(flows, meta, cfg.with_horizon(horizon), d.chunk_size)
    sched.meta.update({"rounds": state.round_index, "epochs_per_round": cfg.K, "gamma": gamma})
    return sched
