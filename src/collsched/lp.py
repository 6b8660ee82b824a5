"""Copy-free continuous formulation and its rate-to-schedule decomposition.

Suited to demands where every destination wants distinct data; for multicast
demands it stays valid but models each (source, destination) unit separately,
so it only bounds what copy-capable schedules achieve.

The model is built in family blocks: F, B and Rd are index arrays over
(source or (source, destination) pair, edge or node, epoch), and each
constraint family is one block of rows computed from them; the solution is
read back through the same arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .demand import Demand, check_demand_nodes
from .epochs import EpochConfig, cap_chunks, compute_delta
from .errors import ConservationError, ValidationError
from .milp import ModelOptions, Net
from .model import INF, Axis, Model, check_columns
from .schedule import Schedule, ScheduleEvent
from .solver import TOL, Solution, completion_epoch
from .topology import Topology, shortest_distances


def build_lp_model(t: Topology, d: Demand, cfg: EpochConfig,
                   opts: ModelOptions | None = None) -> Model:
    """Continuous flows without chunk identity: F and B are indexed by source
    only, a node consumes via per-epoch reads, and switches forward exactly
    what they receive.

    Columns run source by source (F over (edge, epoch), then B over
    (buffering node, epoch 0..K)), then the per-epoch reads Rd of each
    (source, destination) pair, epoch by epoch. Each constraint family is
    one block of rows built by index arithmetic over (source, edge, epoch).
    The objective weighs a read at epoch k by the sum of 1/(j + 1) over
    j = k..K-1, which is 1/(j + 1) on each epoch j's cumulative reads.
    Settling is the last step (`Model.settle`), so the model keeps only the
    rows with two or more free columns, and any row that cannot hold.
    """
    opts = opts or ModelOptions()
    check_demand_nodes(d, t)
    K = cfg.K
    kk = K - 1
    delta = {(e.src, e.dst): compute_delta(e, cfg.tau) for e in t.edges}
    net = Net(t, delta)
    N, E, NB = len(net.nodes), len(net.pairs), len(net.buffers)

    sources = sorted({s for s, _, _ in d.entries}, key=str)
    units = {}  # (s, d) -> demanded chunk units
    for s, _, dst in d.entries:
        units[(s, dst)] = units.get((s, dst), 0) + 1
    out_units = [float(sum(v for (s2, _), v in units.items() if s2 == s)) for s in sources]
    pairs = [pair for pair, _ in sorted(units.items(), key=str)]
    S, U = len(sources), len(pairs)
    spos = np.array([net.pos[s] for s in sources], dtype=np.int64)
    p_src = np.array([sources.index(s) for s, _ in pairs], dtype=np.int64)
    p_dst = np.array([net.pos[dst] for _, dst in pairs], dtype=np.int64)
    u = np.array([units[pair] for pair in pairs], dtype=float)
    per_s = E * K + NB * (K + 1)
    check_columns(K, S * per_s + U * K)

    m = Model()
    m.meta.update({"cfg": cfg, "delta": delta, "sources": sources, "reads": "Rd",
                   "per_epoch_reads": True})

    ar = np.arange
    first = m.columns(S * per_s + U * K)
    off = first + ar(S)[:, None, None] * per_s
    F = off + (ar(E)[:, None] * K + ar(K))[None]
    B = off + E * K + (ar(NB)[:, None] * (K + 1) + ar(K + 1))[None]
    Rd = first + S * per_s + ar(U)[:, None] * K + ar(K)
    m.add_family("F", [Axis(sources), Axis(net.pairs, 2), Axis(range(K))], F)
    m.add_family("B", [Axis(sources), Axis(net.buffers), Axis(range(K + 1))], B)
    m.add_family("Rd", [Axis(pairs, 2), Axis(range(K))], Rd, ub=u[:, None])
    # Only the source holds anything yet.
    m.fix(F[:, :, 0][net.src[None, :] != spos[:, None]], 0.0)
    m.fix(B[:, :, 0][np.flatnonzero(~net.switch)[None, :] != spos[:, None]], 0.0)

    # Source initialization: the source holds its full outgoing demand, less
    # whatever it already committed to epoch-0 sends.
    out_s, out_e = net.edges_out(spos)
    m.add_rows(out_units, out_units,
               (ar(S), B[ar(S), net.bpos[spos], 0], 1.0),
               (out_s, F[out_s, out_e, 0], 1.0))

    cap = cap_chunks(t, cfg)
    rows = np.broadcast_to(ar(E * K).reshape(E, K, 1), (E, K, S))
    m.add_rows(np.full(E * K, -INF), [c for pair in net.pairs for c in cap[pair]],
               (rows, F.transpose(1, 2, 0), 1.0))

    # Conservation: buffer plus arrivals split into next buffer, reads, and
    # next-epoch sends. Switches neither buffer nor read. Rows run by source
    # and node: one per epoch, and at a buffering node other than the source
    # one more for the last epoch.
    last = ~net.switch[None, :] & (ar(N)[None, :] != spos[:, None])  # (S, N)
    count = (K + last).ravel()
    base = (np.cumsum(count) - count).reshape(S, N)
    kv = ar(K)
    ss = ar(S)[:, None, None]
    in_n, in_e = net.edges_in(ar(N))
    out_n, out_e = net.edges_out(ar(N))
    k_in = kv[None, :] - net.delta[in_e][:, None]  # (pair, k)
    ok_in = np.broadcast_to((k_in >= 0)[None], (S,) + k_in.shape)
    k_last = kk - net.delta[in_e]
    ok_last = (k_last >= 0)[None, :] & last[:, in_n]
    at = lambda n, k: base[:, n][..., None] + k  # (source, n, k) -> row
    lp_last = last[p_src, p_dst]
    terms = [
        (at(np.flatnonzero(~net.switch), kv), B[:, :, :-1], 1.0),
        (at(np.flatnonzero(~net.switch), kv), B[:, :, 1:], -1.0),
        (at(in_n, kv)[ok_in], F[ss, in_e[None, :, None], np.maximum(k_in, 0)[None]][ok_in], 1.0),
        (base[p_src, p_dst][:, None] + kv[None, :], Rd, -1.0),
        (at(out_n, kv[:-1]), F[:, out_e, 1:], -1.0),
        # Last epoch: whatever still lands must be consumed on arrival.
        ((base[:, in_n] + K)[ok_last],
         F[ar(S)[:, None], in_e[None, :], np.maximum(k_last, 0)[None, :]][ok_last], 1.0),
        ((base[p_src, p_dst] + K)[lp_last], Rd[lp_last, kk], -1.0),
    ]
    total = int(count.sum())
    m.add_rows(np.zeros(total), np.zeros(total), *terms)

    # Demand: each pair reads its units by the last epoch.
    m.add_rows(u, u, (np.broadcast_to(ar(U)[:, None], Rd.shape), Rd, 1.0))

    if opts.buffer_limit is not None:
        rows = np.broadcast_to(ar(NB * (K + 1)).reshape(NB, K + 1, 1), (NB, K + 1, S))
        m.add_rows(np.full(NB * (K + 1), -INF), np.full(NB * (K + 1), float(opts.buffer_limit)),
                   (rows, B.transpose(1, 2, 0), 1.0))

    m.add_objective(Rd, np.cumsum(1.0 / (kv + 1)[::-1])[::-1][None, :])
    m.settle()
    return m


def horizon_lower_bound(t: Topology, d: Demand, tau: float) -> int:
    """A horizon no feasible `build_lp_model` of (t, d) at epoch length tau
    is shorter than; raises `ValidationError` for a demanded pair with no path.

    In the LP a send at epoch k lands delta epochs later and is forwarded
    from the next epoch, so a node n first sends source s's mass at epoch
    dist(s, n), the sum of delta + 1 over the path (0 at s), and a
    destination first reads it at dist(s, dst) - 1. Three bounds follow.
    The farthest demanded pair needs dist(s, dst) epochs. Every unit that
    dst reads landed over one of its in-edges (i, dst), which sends from the
    nearest of dst's sources' dist to i on, so the horizon is at least one
    more than the first epoch by which those edges' capacities can have
    landed all of dst's units. And every unit crosses at least its pair's
    hop count of edges, so the horizon's summed capacity of all edges must
    carry the demand's units times hops.
    """
    check_demand_nodes(d, t)
    units: dict = {}  # dst -> demanded units
    sources: dict = {}  # dst -> sources that send to it
    for s, _, dst in d.entries:
        units[dst] = units.get(dst, 0) + 1
        sources.setdefault(dst, set()).add(s)
    delta = {(e.src, e.dst): compute_delta(e, tau) for e in t.edges}
    hop = lambda e: delta[(e.src, e.dst)] + 1
    dist = {s: shortest_distances(t, hop, {s: 0}) for s in set().union(*sources.values())}
    # Epochs after the last override's run at the base rate, which is each
    # edge's last entry here.
    last = max((k for _, _, k in t.capacity_overrides), default=-1)
    cap = cap_chunks(t, EpochConfig(tau, max(last, 0) + 2, d.chunk_size))
    bound = 1
    for dst in sorted(units, key=str):
        for s in sorted(sources[dst], key=str):
            if dist[s][dst] == math.inf:
                raise ValidationError(f"demand from {s!r} to {dst!r} has no path")
            bound = max(bound, dist[s][dst])
        ingress = []  # (first send epoch, delta, per-epoch capacity)
        for e in t.in_edges(dst):
            first = min(dist[s][e.src] for s in sources[dst])
            if first < math.inf:
                ingress.append((first, delta[(e.src, e.dst)], cap[(e.src, e.dst)]))
        bound = max(bound, _landing_epoch(units[dst] * (1 - TOL), ingress) + 1)
    hops = {s: shortest_distances(t, lambda e: 1, {s: 0}) for s in dist}
    volume = sum(hops[s][dst] for s, _, dst in d.entries)
    if volume:
        # Every edge as if sending from epoch 0 on and landing at once.
        edges = [(0, 0, c) for c in cap.values()]
        bound = max(bound, _landing_epoch(volume * (1 - TOL), edges) + 1)
    return bound


def _landing_epoch(need: float, ingress: list) -> int:
    """First epoch by which edges (first send epoch, delta, per-epoch
    capacity) can have landed `need` units, each capacity list's last entry
    holding for every later epoch."""
    steady = max(a + dl + len(c) for a, dl, c in ingress)
    landed = 0.0
    for e in range(min(a + dl for a, dl, _ in ingress), steady):
        landed += sum(c[min(e - dl, len(c) - 1)] for a, dl, c in ingress if e - dl >= a)
        if landed >= need:
            return e
    # From epoch `steady` on every edge lands its base rate each epoch.
    rate = sum(c[-1] for _, _, c in ingress)
    return steady - 1 + math.ceil((need - landed) / rate)


def lp_rates_to_schedule(sol: Solution, d: Demand) -> Schedule:
    """Decompose per-source link rates into per-chunk fractional path events;
    tau, horizon and chunk size are the solved model's (`meta["cfg"]`).

    Reads F, B and Rd once. Each demanded chunk peels paths (`_peel`) from
    its pair's earliest unconsumed reads until its fractions sum to 1; the
    fractions of one (source, chunk, edge, epoch) are summed as peeled, so
    the schedule is deterministic. Residue above tolerance means the solution
    is corrupt.
    """
    if not sol.feasible:
        raise ValidationError(f"cannot schedule a solution with status {sol.status}")
    cfg, delta = sol.model.meta["cfg"], sol.model.meta["delta"]
    fres, bres, rres = (_above_tol(sol, family) for family in ("F", "B", "Rd"))
    by_pair: dict[tuple, list[int]] = {}
    for s, c, dst in d.ordered_entries:
        by_pair.setdefault((s, dst), []).append(c)

    fractions: dict[tuple, float] = {}
    for s in sol.model.meta["sources"]:
        flows, held, reads = fres.get(s, {}), bres.get(s, {}), rres.get(s, {})
        arriving: dict[tuple, list] = {}  # (node, arrival epoch) -> sends, lowest sender first
        for i, j, k in sorted(flows, key=lambda f: (str(f[0]), f[2])):
            arriving.setdefault((j, k + delta[(i, j)]), []).append((i, j, k))
        for (s2, dst), chunk_ids in sorted(by_pair.items(), key=str):
            if s2 != s:
                continue
            for c in chunk_ids:
                need = 1.0
                guard = 0
                while need > TOL:
                    guard += 1
                    if guard > 10000:
                        raise ConservationError("path peeling did not converge")
                    k_read = next((k for k in range(cfg.K) if (dst, k) in reads), None)
                    if k_read is None:
                        raise ConservationError(
                            f"conservation residue: chunk {c} of {s!r} short by {need:.2e} at {dst!r}")
                    got, path = _peel(s, dst, k_read, min(need, reads[(dst, k_read)]),
                                      flows, held, arriving)
                    if got <= TOL:
                        raise ConservationError(
                            f"conservation residue: no backing path for read at epoch {k_read}")
                    reads[(dst, k_read)] -= got
                    if reads[(dst, k_read)] <= TOL:
                        del reads[(dst, k_read)]
                    need -= got
                    for i, j, k in path:
                        key = (s, c, i, j, k)
                        fractions[key] = fractions.get(key, 0.0) + got
    events = tuple(ScheduleEvent(*key, f) for key, f in fractions.items())
    return Schedule(tau=cfg.tau, events=events, completion_epoch=completion_epoch(sol),
                    chunk_size=cfg.chunk_size)


def _above_tol(sol: Solution, family: str) -> dict:
    """source -> {rest of key: value} for the family's values above TOL."""
    out: dict = {}
    for (s, *rest), val in sol.family_values(family, TOL).items():
        if val > TOL:
            out.setdefault(s, {})[tuple(rest)] = val
    return out


def _peel(s, dst, k_read, amount, flows, held, arriving):
    """Trace a read at (dst, k_read) back to the source and take the path's
    bottleneck off every arc on it.

    Pool (n, k), what n has in epoch k, is fed by buffer B[n, k] from pool
    (n, k - 1) and by sends landing then. The walk takes the buffer while it
    holds mass, else the first live send in `arriving` (lowest sender id); a
    send from i at epoch t leaves pool (i, t - 1), or the source at t == 0.
    Returns (fraction, [(i, j, send epoch)] in path order), or (0, []).
    """
    arcs = []  # (residual table, key), from the read back to the source
    node, k = dst, k_read
    while not (node == s and k == 0):
        if (node, k) in held:
            arcs.append((held, (node, k)))
            k -= 1
            if k < 0:
                raise ConservationError(f"buffer at {node!r} traces past epoch 0")
            continue
        send = next((f for f in arriving.get((node, k), ()) if f in flows), None)
        if send is None:
            return 0.0, []
        arcs.append((flows, send))
        i, _, t = send
        if t == 0:
            if i != s:
                return 0.0, []
            break
        node, k = i, t - 1
    bottleneck = min([amount] + [table[key] for table, key in arcs])
    if bottleneck <= TOL:
        return 0.0, []
    for table, key in arcs:
        table[key] -= bottleneck
        if table[key] <= TOL:
            del table[key]
    return bottleneck, [key for table, key in arcs if table is flows]
