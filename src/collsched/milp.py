"""Whole-chunk schedule model over the time-expanded network.

Binary flow variables F[s,c,i,j,k] say whether chunk c of source s crosses
edge (i,j) during epoch k. Buffers, per-edge capacity over each link's
kappa-epoch window with delays from `epochs.link_timing`, copy-aware
conservation, three switch treatments, optional buffer limits, and a
delivery objective that rewards finishing early.

Each variable family (F, B, R, X) is one block of the model, indexed by
(commodity, edge or node, epoch) arrays, and each constraint family is one
block of rows computed from those arrays by index arithmetic; `Net` holds
the topology's node and edge positions the arithmetic needs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from .demand import Demand, check_demand_nodes
from .epochs import EpochConfig, LinkTiming, link_timing
from .errors import ValidationError
from .model import BINARY, INF, Axis, Model, check_columns
from .topology import (COPY, HYPER_EDGE, NO_COPY, Topology, check_switch_mode,
                       hyper_edge_transform)


@dataclass(frozen=True)
class ModelOptions:
    """How a model treats switches and node buffers; link timing is not an
    option (see `epochs.link_timing`)."""

    switch_mode: str = COPY
    buffer_limit: float | None = None  # chunks a node may hold at once

    def __post_init__(self):
        check_switch_mode(self.switch_mode)
        if self.buffer_limit is not None and not self.buffer_limit > 0:  # NaN included
            raise ValidationError("buffer_limit must be positive")


def model_topology(t: Topology, opts: ModelOptions) -> tuple[Topology, dict]:
    """The topology a whole-chunk model runs on, and its hyper-edge groups."""
    if opts.switch_mode == HYPER_EDGE:
        return hyper_edge_transform(t)
    return t, {}


@dataclass(frozen=True)
class Carry:
    """What earlier rounds of a horizon-decomposed solve hand to the next.

    arrivals: (s, c, n, k) -> copies of chunk (s, c) that land at node n,
    usable from epoch k. At k = 0 on a buffering node these are the copies
    held when the round starts.
    link_load: (i, j, k) -> chunks the previous round put into the
    kappa-epoch window of edge (i, j) that ends at this round's epoch k.
    """

    arrivals: dict
    link_load: dict = field(default_factory=dict)

    @classmethod
    def at_sources(cls, d: Demand) -> "Carry":
        """Every source holds its own chunks at epoch 0."""
        return cls({(s, c, s, 0): 1 for s, c in d.commodities})


class Net:
    """Index tables of a model topology: node and edge positions, and each
    node's incoming and outgoing edges, node by node in the topology's own
    order (`edges_in(nodes)`, `edges_out(nodes)`)."""

    def __init__(self, t: Topology, delta: dict):
        self.nodes = list(t.nodes)
        self.pos = {n: i for i, n in enumerate(self.nodes)}
        self.switch = np.array([t.is_switch(n) for n in self.nodes], dtype=bool)
        self.buffers = [n for n in self.nodes if not t.is_switch(n)]
        self.bpos = np.full(len(self.nodes), -1, dtype=np.int64)
        self.bpos[~self.switch] = np.arange(len(self.buffers))
        self.pairs = [(e.src, e.dst) for e in t.edges]
        self.epos = {pair: i for i, pair in enumerate(self.pairs)}
        self.src = np.array([self.pos[i] for i, _ in self.pairs], dtype=np.int64)
        self.dst = np.array([self.pos[j] for _, j in self.pairs], dtype=np.int64)
        self.delta = np.array([delta[pair] for pair in self.pairs], dtype=np.int64)
        self._in = self._adjacency(t.in_edges)
        self._out = self._adjacency(t.out_edges)

    def _adjacency(self, edges_of):
        lists = [[self.epos[(e.src, e.dst)] for e in edges_of(n)] for n in self.nodes]
        counts = np.array([len(es) for es in lists], dtype=np.int64)
        return (np.cumsum(counts) - counts, counts,
                np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=int(counts.sum())))

    def edges_in(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, edge) for every edge into nodes[i], by i, then in-edge order."""
        return _expand(nodes, *self._in)

    def edges_out(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, edge) for every edge out of nodes[i], by i, then out-edge order."""
        return _expand(nodes, *self._out)


def _expand(nodes, starts, counts, edges):
    """(i, edge) for every edge of nodes[i]'s slice edges[starts:starts+counts]."""
    n = counts[nodes]
    owner = np.repeat(np.arange(len(nodes)), n)
    first = np.repeat(starts[nodes] - (np.cumsum(n) - n), n)
    return owner, edges[first + np.arange(int(n.sum()))]


def build_time_expanded(t: Topology, d: Demand, cfg: EpochConfig,
                        opts: ModelOptions | None = None) -> Model:
    """The general (one-shot) model, infeasible at too-short horizons:
    `time_expanded` bounded with no carry and settled (`Model.settle`), so
    it keeps only rows with two or more free columns, or that cannot hold."""
    m, bound = time_expanded(t, d, cfg, opts or ModelOptions())
    bound(m)
    m.settle()
    return m


build_general_model = build_time_expanded


def time_expanded(t: Topology, d: Demand, cfg: EpochConfig, opts: ModelOptions, *,
                  timing: LinkTiming | None = None) -> tuple[Model, Callable]:
    """The time-expanded model behind the one-shot solve and every A* round:
    its columns, rows and objective over every entry of `d`, and `bound(m,
    carry=None, unmet=None, k0=0)`, which fixes the columns and sets the row
    bounds of it or of a copy (`Model.copy`), and returns which entries, in
    R's order, are met. With no carry sources hold their chunks at epoch 0
    and every entry is read by the last epoch. A carry seeds buffers,
    switches and link windows of a round whose epoch 0 is epoch k0, and
    rewards delivery; the entries not in `unmet` are met, their reads fixed
    at 0, as is every column of a commodity with none unmet. `timing` is the
    link timing of the model topology at cfg, derived when not given.
    Columns run commodity by commodity: F over (edge, epoch), B over
    (buffering node, epoch 0..K), R over (destination, epoch) and, with a
    buffer limit, X over (buffering node, epoch)."""
    check_demand_nodes(d, t)
    per_source = Counter(s for s, _ in d.commodities)
    if opts.buffer_limit is not None and opts.buffer_limit < max(per_source.values(), default=0):
        raise ValidationError("buffer_limit below a source's initial chunk count")

    t_eff, hyper_groups = model_topology(t, opts)
    K = cfg.K
    # F, B and X of each commodity, R of each entry.
    nb = len(t_eff.gpus) * (2 if opts.buffer_limit is not None else 1)
    check_columns(K, len(d.commodities) * (len(t_eff.edges) * K + nb * K + len(t_eff.gpus))
                  + len(d.entries) * K)
    timing = timing or link_timing(t_eff, cfg)
    kk = K - 1  # last epoch index
    net = Net(t_eff, timing.delta)
    N, E, NB = len(net.nodes), len(net.pairs), len(net.buffers)

    commodities = d.commodities
    C = len(commodities)
    cpos = {sc: i for i, sc in enumerate(commodities)}
    entries = set(d.entries)
    dests = {}
    for s, c, dst in entries:
        dests.setdefault((s, c), []).append(dst)
    for key in dests:
        dests[key].sort(key=str)

    m = Model()
    # What extraction reads (schedule.trace_required_flows and
    # delivery_epochs), what solver.completion_epoch reads, and the index
    # tables a round template extends (astar.round_template).
    m.meta.update({"eff_topology": t_eff, "delta": timing.delta, "opts": opts, "entries": entries,
                   "cfg": cfg, "reads": "R", "net": net})

    # Epochs between nodes, a hop costing delta + 1 (inf where unreachable),
    # give the earliest epoch each chunk could be forwarded from each node;
    # flows, buffers, and reads before that are fixed to zero. A one-shot
    # model also fixes every send that lands at j at epoch a with a + togo[j]
    # > K - 1, togo the epochs to its chunk's nearest destination: it serves
    # no read, nor does any later send of the chunk from j (and has no
    # objective weight; a round carries late sends). A round with no buffer
    # limit fixes every send of a chunk landing at a buffering node no sooner
    # than the carry's copy of it there (`head_holds`), as a copying node
    # never drops a copy (sends out of a no-copy switch, which must forward
    # every arrival, are exempt), and each buffer B[k] that no free send can
    # land in by epoch k, to what the carry and the fixed sends put there.
    ar = np.arange
    hops = np.full((N, N), np.inf)
    hops[ar(N), ar(N)] = 0.0
    np.minimum.at(hops, (net.src, net.dst), net.delta + 1.0)
    for k in range(N):  # Floyd-Warshall, exact on these whole numbers
        hops = np.minimum(hops, hops[:, k, None] + hops[k])
    limited = opts.buffer_limit is not None
    no_copy = net.switch & (opts.switch_mode == NO_COPY)

    # Variables. Buffers and reads stay continuous: integrality propagates
    # from the binary flows through the equalities that define them.
    ent = [(s, c, dst) for s, c in commodities for dst in dests[(s, c)]]
    ent_c = np.array([cpos[(s, c)] for s, c, _ in ent], dtype=np.int64)
    ent_j = np.array([j for s, c in commodities for j in range(len(dests[(s, c)]))],
                     dtype=np.int64)
    ent_dst = np.array([net.pos[dst] for _, _, dst in ent], dtype=np.int64)
    nd = np.bincount(ent_c, minlength=C)
    per_c = E * K + NB * (K + 1) + nd * K + (NB * K if limited else 0)
    off = m.columns(int(per_c.sum())) + np.cumsum(per_c) - per_c
    F = off[:, None, None] + (ar(E)[:, None] * K + ar(K))[None]
    B = off[:, None, None] + E * K + (ar(NB)[:, None] * (K + 1) + ar(K + 1))[None]
    R = off[ent_c][:, None] + E * K + NB * (K + 1) + ent_j[:, None] * K + ar(K)
    com = Axis(commodities, 2)
    m.add_family("F", [com, Axis(net.pairs, 2), Axis(range(K))], F, BINARY)
    m.add_family("B", [com, Axis(net.buffers), Axis(range(K + 1))], B)
    m.add_family("R", [Axis(ent, 3), Axis(range(K))], R, lb=0.0, ub=1.0)
    if limited:
        X = (off[:, None, None] + E * K + NB * (K + 1) + nd[:, None, None] * K
             + (ar(NB)[:, None] * K + ar(K))[None])
        m.add_family("X", [com, Axis(net.buffers), Axis(range(K))], X,
                     lb=0.0, ub=float(d.chunk_count))
    bnodes = np.flatnonzero(~net.switch)

    # Capacity, per edge and epoch; sliding windows where a chunk needs
    # several epochs on the wire. A row sums F over every commodity and the
    # window's epochs; its bound is the window's budget less the carried load.
    kap = np.array([timing.kappa[pair] for pair in net.pairs], dtype=np.int64)
    terms = []
    for w in sorted(set(kap.tolist())):  # (edge, k, commodity, window epoch) per kappa
        es = np.flatnonzero(kap == w)[:, None, None, None]
        k = ar(K)[None, :, None, None]
        k2 = k - w + 1 + ar(w)[None, None, None, :]
        ok = np.broadcast_to(k2 >= 0, (len(es), K, C, w))
        cols = F[ar(C)[None, None, :, None], es, np.maximum(k2, 0)]
        terms.append((np.broadcast_to(es * K + k, ok.shape)[ok],
                      np.broadcast_to(cols, ok.shape)[ok], 1.0))
    cap_rows = m.num_rows + ar(E * K)
    budget_at = lambda k0: np.array(list(map(timing.from_epoch(k0, K).budget.get, net.pairs)))
    steady = None if timing.overrides else budget_at(0)  # every round's, with no override
    m.add_rows(np.full(E * K, -INF), 0.0, *terms)

    # Conservation with copy: what a node holds at the start of an epoch plus
    # what lands during it bounds each outgoing flow of the next epoch. A
    # no-copy switch instead forwards every arrival exactly once, next epoch.
    # Rows run by commodity, node, then out-edge and epoch (one row per epoch
    # at a no-copy switch).
    ge = np.flatnonzero(~no_copy[net.src])  # edges leaving a copying node
    gn = np.flatnonzero(no_copy)  # no-copy switches
    order = np.lexsort((np.concatenate([ge, np.full(len(gn), -1)]),
                        np.concatenate([net.src[ge], gn])))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = ar(len(order))
    S = len(order) * K  # candidate rows per commodity
    slot_e = rank[:len(ge), None] * K + ar(K)  # (edge group, k_out)
    slot_n = rank[len(ge):, None] * K + ar(K)  # (switch group, k_out)
    cS = ar(C)[:, None, None] * S

    n_of = net.src[ge]
    sw_of = net.switch[n_of]
    pair_g, pair_e = net.edges_in(n_of)  # each edge group with its node's in-edges
    kin = ar(K)[None, :] - 1 - net.delta[pair_e][:, None]
    has_in = kin >= 0  # implies k_out >= 1
    n_in = np.zeros((len(ge), K), dtype=np.int64)
    np.add.at(n_in, pair_g, has_in)
    # Carried arrivals usable from k_out are forwardable during it, like any
    # in-round arrival; a buffer's epoch-0 arrivals are already in B[0].
    counted = (ar(K)[None, None, :] >= 1) | sw_of[None, :, None]

    rows_e = cS + slot_e[None]  # (C, edge group, k_out)
    rows_n = cS + slot_n[None]  # (C, switch group, k_out)
    cons_e, cons_n = m.num_rows + rows_e, m.num_rows + rows_n
    kv = ar(K)[None, None, :]
    cc = ar(C)[:, None, None]
    bn = net.bpos[n_of]
    buffered = np.broadcast_to(~sw_of[None, :, None], rows_e.shape)
    held = B[cc, np.maximum(bn, 0)[None, :, None], np.maximum(kv - 1, 0)]
    terms = [(rows_e, F[:, ge, :], -1.0),
             (rows_e[buffered], np.broadcast_to(held, rows_e.shape)[buffered], 1.0)]
    ok = np.broadcast_to(has_in[None], (C, len(pair_g), K))
    terms.append((rows_e[:, pair_g, :][ok],
                  F[cc, pair_e[None, :, None], np.maximum(kin, 0)[None]][ok], 1.0))
    if len(gn):
        og, oe = net.edges_out(gn)
        ig, ie = net.edges_in(gn)
        terms.append((rows_n[:, og, :].ravel(), F[:, oe, :].ravel(), 1.0))
        kin_n = ar(K)[None, :] - 1 - net.delta[ie][:, None]
        ok = np.broadcast_to(kin_n >= 0, (C, len(ig), K))
        terms.append((rows_n[:, ig, :][ok],
                      F[cc, ie[None, :, None], np.maximum(kin_n, 0)[None]][ok], -1.0))
    m.add_rows(np.zeros(C * S), INF, *terms)

    # Buffer recurrence: each start-of-epoch buffer accumulates last epoch's
    # arrivals (minus explicit removals when a limit is in force).
    rb = (ar(C)[:, None, None] * NB + ar(NB)[None, :, None]) * K + ar(K)[None, None, :]
    buf_rows = m.num_rows + rb
    terms = [(rb, B[:, :, 1:], 1.0), (rb, B[:, :, :-1], -1.0)]
    if limited:
        terms.append((rb, X, 1.0))
    ib, iedge = net.edges_in(bnodes)
    kin_b = ar(K)[None, :] - net.delta[iedge][:, None]  # k - 1 - delta for k = 1..K
    ok = np.broadcast_to(kin_b >= 0, (C, len(ib), K))
    rows_in = rb[:, ib, :][ok]
    lands = F[cc, iedge[None, :, None], np.maximum(kin_b, 0)[None]][ok]
    terms.append((rows_in, lands, -1.0))
    m.add_rows(np.zeros(C * NB * K), 0.0, *terms)

    # Destination reads: R is capped by demand (declared R vars only) and by
    # what the buffer holds at the next boundary; monotone so a read is never
    # retracted. Per entry: the cap at epoch 0, then cap and monotonicity at
    # each later epoch.
    NE = len(ent)
    per = 2 * K - 1
    cap_col, mono_col = np.maximum(2 * ar(K) - 1, 0), 2 * ar(1, K)
    cap_row = ar(NE)[:, None] * per + cap_col
    mono_row = ar(NE)[:, None] * per + mono_col
    lo = np.zeros((NE, per))
    hi = np.full((NE, per), INF)
    lo[:, cap_col] = -INF
    hi[:, cap_col] = 0.0
    next_held = B[ent_c[:, None], net.bpos[ent_dst][:, None], ar(1, K + 1)[None, :]]
    m.add_rows(lo.ravel(), hi.ravel(),
               (cap_row, R, 1.0), (cap_row, next_held, -1.0),
               (mono_row, R[:, 1:], 1.0), (mono_row, R[:, :-1], -1.0))

    if limited:
        rl = ar(NB)[:, None, None] * (K + 1) + ar(K + 1)[None, :, None]
        m.add_rows(np.full(NB * (K + 1), -INF), np.full(NB * (K + 1), float(opts.buffer_limit)),
                   (np.broadcast_to(rl, (NB, K + 1, C)), B.transpose(1, 2, 0), 1.0))

    # Legacy-switch budgets: simultaneous pair uses are limited by the
    # physical switch degree, and each node drives or drains at most one
    # hyper-edge of a switch per epoch.
    for sw, group in sorted(hyper_groups.items(), key=lambda kv: str(kv[0])):
        pe = np.array([net.epos[pair] for pair in group.pairs], dtype=np.int64)
        srcs = sorted({i for i, _ in group.pairs}, key=str)
        dsts = sorted({j for _, j in group.pairs}, key=str)
        rs = np.array([srcs.index(i) for i, _ in group.pairs], dtype=np.int64)
        rd = np.array([dsts.index(j) for _, j in group.pairs], dtype=np.int64)
        per = 1 + len(srcs) + len(dsts)
        base = ar(K)[:, None, None] * per
        cols = F[ar(C)[None, :, None], pe[None, None, :], ar(K)[:, None, None]]  # (k, c, pair)
        ub = np.tile(np.array([float(group.budget)] + [1.0] * (per - 1)), K)
        at = lambda rows: np.broadcast_to(rows, cols.shape)
        m.add_rows(np.full(K * per, -INF), ub, (at(base), cols, 1.0),
                   (at(base + 1 + rs[None, None, :]), cols, 1.0),
                   (at(base + 1 + len(srcs) + rd[None, None, :]), cols, 1.0))

    m.add_objective(R, 1.0 / (ar(K) + 1)[None, :])

    slot = {(s, c, n): i * N + p for (s, c), i in cpos.items() for n, p in net.pos.items()}
    ent_at = {e: i for i, e in enumerate(ent)}

    def bound(m: Model, carry: Carry | None = None, unmet=None, k0: int = 0) -> np.ndarray:
        one_shot = carry is None
        carry = carry or Carry.at_sources(d)
        met = np.ones(len(ent), dtype=bool)
        met[[ent_at[e] for e in (entries if unmet is None else unmet)]] = False
        dead = np.bincount(ent_c[~met], minlength=C) == 0
        # Live commodities' arrivals by (commodity, node, epoch 0..K), and first.
        got = np.array([(slot.get((s, c, n), -1), k, v) for (s, c, n, k), v
                        in carry.arrivals.items() if v]).reshape(-1, 3)
        at, ka = got[:, :2].T.astype(np.int64)
        on = ~np.append(dead, True)[at // N]  # a commodity of `d`, not dead
        first, arr = np.full(C * N, np.inf), np.zeros((C * N, K + 1))
        np.minimum.at(first, at[on], ka[on])
        on &= ka <= K
        arr[at[on], ka[on]] = got[on, 2]
        first, arr = first.reshape(C, N), arr.reshape(C, N, K + 1)
        reach = (first[:, :, None] + hops[None]).min(axis=1, initial=np.inf)

        kf = ar(K)[None, None, :]
        fixed = kf < reach[:, net.src][:, :, None]
        if one_shot:
            togo = np.full((C, N), np.inf)
            np.minimum.at(togo, ent_c, hops[:, ent_dst].T)
            fixed |= kf + (net.delta + togo[:, net.dst])[:, :, None] > kk
        elif not limited:
            # Epoch from which each edge's head holds each commodity from the
            # carry (inf where never, and on every edge out of a no-copy switch).
            landed = arr > 0
            since = np.where(landed.any(axis=2), landed.argmax(axis=2), np.inf)
            since[:, net.switch] = np.inf
            head_holds = np.where(no_copy[net.src], np.inf, since[:, net.dst])
            fixed |= kf + (net.delta + 1)[None, :, None] >= head_holds[:, :, None]
        m.fix(F[fixed], 0.0)
        late = ar(K + 1)[None, None, :] < reach[:, bnodes][:, :, None]
        late[:, :, 0] = False
        m.fix(B[late], 0.0)
        m.fix(B[:, :, 0], arr[:, bnodes, 0])
        early = ar(K)[None, :] + 1 < reach[ent_c, ent_dst][:, None]
        if one_shot:
            early[:, kk] = False
            m.fix(R[:, kk], 1.0)
        m.fix(R[early | met[:, None]], 0.0)
        if limited:
            m.fix(X[dead], 0.0)

        load = np.zeros((E, K))
        for (i, j, k), v in carry.link_load.items():
            if (i, j) in net.epos and 0 <= k < K:
                load[net.epos[(i, j)], k] = v
        budget = (steady if steady is not None else budget_at(k0)).reshape(E, K)
        m.bound_rows(cap_rows, -INF, (budget - load).ravel())

        rhs_e = np.where(counted, 0.0 - arr[:, n_of, :K], 0.0)
        drop = sw_of[None, :, None] & (n_in == 0)[None] & (rhs_e == 0.0)
        m.fix(F[:, ge, :][drop], 0.0)
        rhs_n = arr[:, gn, :K]
        m.bound_rows(cons_e, rhs_e, INF)
        m.bound_rows(cons_n, rhs_n, rhs_n)

        if not (one_shot or limited):
            free = np.bincount(rows_in, m.lb[lands] != m.ub[lands], C * NB * K).reshape(C, NB, K)
            sent = np.bincount(rows_in, m.lb[lands], C * NB * K).reshape(C, NB, K)
            # At k: B[k + 1] holds only fixed terms.
            decided = np.logical_and.accumulate(free == 0, axis=2)
            value = arr[:, bnodes, :1] + np.cumsum(arr[:, bnodes, 1:] + sent, axis=2)
            m.fix(B[:, :, 1:][decided], value[decided])
        rhs_b = arr[:, bnodes, 1:]
        m.bound_rows(buf_rows, rhs_b, rhs_b)
        return met

    return m, bound
