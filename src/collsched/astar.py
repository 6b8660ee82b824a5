"""Horizon-decomposed solver: fixed-size rounds, carried in-flight state, and
a distance-shaped reward for moving chunks toward the nodes that want them.

Each round reuses the general whole-chunk model minus the hard final-delivery
constraint; look-ahead variables record what lands after the round boundary
and seed the next round's buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .demand import Demand, check_demand_nodes
from .epochs import EpochConfig, link_timing
from .errors import RoundLimitError, SolverBackendError, ValidationError
from .milp import ModelOptions, build_time_expanded, model_topology
from .model import Model
from .schedule import Schedule, schedule_from_flows
from .solver import SolverOptions, solve
from .topology import NodeId, Topology, require_valid


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs shortest distances; dist[s][d] in the weights' units."""

    nodes: tuple[NodeId, ...]
    dist: dict

    def __getitem__(self, pair):
        return self.dist[pair[0]][pair[1]]


def _all_pairs(t: Topology, weight) -> DistanceTable:
    nodes = t.nodes
    dist = {a: {b: (0.0 if a == b else math.inf) for b in nodes} for a in nodes}
    for e in t.edges:
        w = weight(e)
        if w < dist[e.src][e.dst]:
            dist[e.src][e.dst] = w
    for mid in nodes:
        dmid = dist[mid]
        for a in nodes:
            da = dist[a]
            through = da[mid]
            if through == math.inf:
                continue
            for b in nodes:
                alt = through + dmid[b]
                if alt < da[b]:
                    da[b] = alt
    return DistanceTable(nodes, dist)


def floyd_warshall_alpha(t: Topology) -> DistanceTable:
    """Shortest latency (seconds) between all node pairs over edge alphas."""
    require_valid(t)
    return _all_pairs(t, lambda e: e.alpha)


def round_distance_table(t: Topology, cfg: EpochConfig) -> DistanceTable:
    """Distance used to weight round progress, in epochs.

    Every hop costs at least one epoch of transmission on top of its latency,
    so the weight is 1 + alpha/tau per edge. A pure-alpha table would be flat
    on zero-latency fixtures and give the solver no reason to move chunks.
    """
    require_valid(t)
    return _all_pairs(t, lambda e: 1.0 + e.alpha / cfg.tau)


@dataclass
class RoundState:
    """What one round hands to the next."""

    round_index: int
    residual: frozenset  # demanded (s, c, d) entries still unmet
    # (s, c, node, k') -> copies in the node's buffer at the start of the
    # next round's epoch k'; cumulative over k' for buffering nodes.
    q: dict = field(default_factory=dict)
    demand_proto: Demand | None = None  # chunk-id space and chunk size


def max_future_epochs(t: Topology, cfg: EpochConfig, opts: ModelOptions | None = None) -> int:
    """Largest link delay in epochs: how far into the next round chunks land."""
    t_eff, _ = model_topology(t, opts or ModelOptions())
    return link_timing(t_eff, cfg).max_delta


def build_round_model(t: Topology, state: RoundState, cfg: EpochConfig,
                      fw: DistanceTable, gamma: float = 0.5,
                      opts: ModelOptions | None = None) -> Model:
    """One round: general model without the final-delivery equality, plus
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

    b0 = None
    delta_q: dict = {}
    switch_q: dict = {}
    if state.round_index > 0:
        b0 = {}
        for (s, c) in commodities:
            for n in t_eff.nodes:
                if t_eff.is_switch(n):
                    for k in range(0, max_kp + 1):
                        v = state.q.get((s, c, n, k), 0)
                        if v:
                            switch_q[(s, c, n, k)] = v
                else:
                    b0[(s, c, n)] = state.q.get((s, c, n, 0), 0)
                    for k in range(1, max_kp + 1):
                        dv = state.q.get((s, c, n, k), 0) - state.q.get((s, c, n, k - 1), 0)
                        if dv:
                            delta_q[(s, c, n, k)] = dv

    m = build_time_expanded(t, dem, cfg, opts, final_delivery=False, b0=b0,
                            delta_q=delta_q, switch_q=switch_q, name="round")

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
    if state.demand_proto is None:
        raise ValidationError("round state missing demand prototype")
    return Demand(frozenset(state.residual), state.demand_proto.chunk_count,
                  state.demand_proto.chunk_size)


def initial_state(d: Demand) -> RoundState:
    return RoundState(0, frozenset(d.entries), demand_proto=d)


def advance_state(state: RoundState, sol, t_eff: Topology, cfg: EpochConfig,
                  max_kp: int, strict_appendix_d: bool = False) -> RoundState:
    """Carry look-ahead holdings forward and clear satisfied demand entries."""
    dem = state_demand(state)
    q_new: dict = {}
    for (s, c) in dem.commodities:
        for n in t_eff.nodes:
            for kp in range(0, max_kp + 1):
                if kp == 0 and not t_eff.is_switch(n):
                    v = sol.value("B", s, c, n, cfg.K)
                else:
                    v = sol.value("Q", s, c, n, kp)
                v = int(round(v))
                if v:
                    q_new[(s, c, n, kp)] = v
    residual = set()
    for (s, c, dst) in state.residual:
        if strict_appendix_d:
            done = q_new.get((s, c, dst, max_kp), 0) >= 1
        else:
            done = any(q_new.get((s, c, dst, kp), 0) >= 1 for kp in range(max_kp + 1))
        if not done:
            residual.add((s, c, dst))
    kept = {(s, c) for (s, c, _) in residual}
    q_new = {key: v for key, v in q_new.items() if (key[0], key[1]) in kept}
    return RoundState(state.round_index + 1, frozenset(residual), q_new,
                      demand_proto=state.demand_proto)


def astar_solve(t: Topology, d: Demand, cfg: EpochConfig, gamma: float = 0.5,
                max_rounds: int = 64, *, opts: ModelOptions | None = None,
                solver_opts: SolverOptions | None = None,
                strict_appendix_d: bool = False,
                fw: DistanceTable | None = None) -> Schedule:
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
    rounds_used = 0
    while state.residual:
        if state.round_index >= max_rounds:
            raise RoundLimitError(
                f"residual demand after {max_rounds} rounds", list(flows),
                len(state.residual))
        m = build_round_model(t, state, cfg, fw, gamma, opts)
        sol = solve(m, solver_opts)
        if not sol.feasible:
            raise SolverBackendError(f"round {state.round_index} came back {sol.status}")
        offset = state.round_index * cfg.K
        for (s, c, i, j, k), v in sol.family_values("F", 0.5).items():
            flows[(s, c, i, j, offset + k)] = 1.0
        prev_residual = state.residual
        state = advance_state(state, sol, t_eff, cfg, timing.max_delta, strict_appendix_d)
        rounds_used = state.round_index
        if state.residual == prev_residual and not sol.family_values("F", 0.5):
            raise RoundLimitError(
                f"no progress in round {state.round_index - 1}", list(flows),
                len(state.residual))

    meta = {"eff_topology": t_eff, "delta": timing.delta, "opts": opts,
            "entries": set(d.entries)}
    horizon = max(1, rounds_used * cfg.K)
    sched = schedule_from_flows(flows, meta, cfg.with_horizon(horizon), d.chunk_size)
    sched.meta.update({"rounds": rounds_used, "epochs_per_round": cfg.K, "gamma": gamma})
    return sched
