"""Whole-chunk schedule model over the time-expanded network.

Binary flow variables F[s,c,i,j,k] say whether chunk c of source s crosses
edge (i,j) during epoch k. Buffers, per-edge capacity over each link's
kappa-epoch window with delays from `epochs.link_timing`, copy-aware
conservation, three switch treatments, optional buffer limits, and a
delivery objective that rewards finishing early.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .demand import Demand, check_demand_nodes
from .epochs import EpochConfig, link_timing
from .errors import ValidationError
from .model import BINARY, Model
from .topology import Topology, hyper_edge_transform, require_valid, shortest_distances

COPY = "copy"
NO_COPY = "no-copy"
HYPER_EDGE = "hyper-edge"


@dataclass(frozen=True)
class ModelOptions:
    """How a model treats switches and node buffers; link timing is not an
    option (see `epochs.link_timing`)."""

    switch_mode: str = COPY
    buffer_limit: float | None = None  # chunks a node may hold at once

    def __post_init__(self):
        if self.switch_mode not in (COPY, NO_COPY, HYPER_EDGE):
            raise ValidationError(f"unknown switch mode {self.switch_mode!r}")
        if self.buffer_limit is not None and self.buffer_limit <= 0:
            raise ValidationError("buffer_limit must be positive")


def model_topology(t: Topology, opts: ModelOptions) -> tuple[Topology, dict]:
    """The topology a whole-chunk model runs on, and its hyper-edge groups."""
    if opts.switch_mode == HYPER_EDGE:
        return hyper_edge_transform(t)
    return t, {}


def build_general_model(t: Topology, d: Demand, cfg: EpochConfig,
                        opts: ModelOptions | None = None) -> Model:
    """The general whole-chunk model; infeasible at too-short horizons."""
    opts = opts or ModelOptions()
    return build_time_expanded(t, d, cfg, opts)


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


def build_time_expanded(t: Topology, d: Demand, cfg: EpochConfig, opts: ModelOptions,
                        carry: Carry | None = None) -> Model:
    """The time-expanded model behind the one-shot solve and every A* round.

    With carry None it is the one-shot model: sources hold their chunks at
    epoch 0, every demanded chunk must be delivered by the last epoch, and
    no-copy switches take no arrival they could not forward. With a carry it
    is one round: buffers and switches receive the carried arrivals, link
    windows start with the carried load, and delivery is rewarded but not
    forced.
    """
    require_valid(t)
    check_demand_nodes(d, t)
    if opts.buffer_limit is not None:
        per_source = {}
        for s, c in d.commodities:
            per_source[s] = per_source.get(s, 0) + 1
        if per_source and opts.buffer_limit < max(per_source.values()):
            raise ValidationError("buffer_limit below a source's initial chunk count")

    t_eff, hyper_groups = model_topology(t, opts)
    timing = link_timing(t_eff, cfg)
    kap, delta = timing.kappa, timing.delta
    K = cfg.K
    kk = K - 1  # last epoch index
    edges = t_eff.edges

    commodities = d.commodities
    one_shot = carry is None
    carry = carry or Carry.at_sources(d)
    arrivals = carry.arrivals
    entries = set(d.entries)
    dests = {}
    for s, c, dst in entries:
        dests.setdefault((s, c), []).append(dst)
    for key in dests:
        dests[key].sort(key=str)

    m = Model()
    # What extraction reads: schedule.trace_required_flows and delivery_epochs.
    m.meta.update({"eff_topology": t_eff, "delta": delta, "opts": opts, "entries": entries})

    is_switch = t_eff.is_switch  # hyper-edge mode leaves no switches

    # Earliest epoch each chunk could be forwarded from each node (a hop costs
    # delta + 1 epochs; inf where unreachable); flows, buffers, and reads
    # before that are fixed to zero up front, which trims the search space
    # considerably on multi-chassis horizons. One walk per distinct set of
    # starting holdings: once per source in a one-shot model.
    seeds: dict[tuple, dict] = {}
    for (s, c, n, k), v in arrivals.items():
        if v:
            held = seeds.setdefault((s, c), {})
            held[n] = min(held.get(n, k), k)
    hop = lambda e: delta[(e.src, e.dst)] + 1
    walks: dict[frozenset, dict] = {}
    reach: dict[tuple, dict] = {}
    for s, c in commodities:
        start = seeds.get((s, c), {})
        key = frozenset(start.items())
        if key not in walks:
            walks[key] = shortest_distances(t_eff, hop, start)
        reach[(s, c)] = walks[key]

    # Variables. Buffers and reads stay continuous: integrality propagates
    # from the binary flows through the equalities that define them.
    for s, c in commodities:
        es = reach[(s, c)]
        for e in edges:
            for k in range(K):
                idx = m.add_var("F", (s, c, e.src, e.dst, k), BINARY)
                if k < es[e.src]:
                    m.fix(idx, 0.0)
        for n in t_eff.nodes:
            if is_switch(n):
                continue
            for k in range(K + 1):
                idx = m.add_var("B", (s, c, n, k))
                if k == 0:
                    m.fix(idx, float(arrivals.get((s, c, n, 0), 0)))
                elif k < es[n]:
                    m.fix(idx, 0.0)
        for dst in dests.get((s, c), ()):
            for k in range(K):
                idx = m.add_var("R", (s, c, dst, k), lb=0.0, ub=1.0)
                if one_shot and k == kk:
                    m.fix(idx, 1.0)
                elif k + 1 < es[dst]:
                    m.fix(idx, 0.0)
        if opts.buffer_limit is not None:
            for n in t_eff.nodes:
                if is_switch(n):
                    continue
                for k in range(K):
                    m.add_var("X", (s, c, n, k), lb=0.0, ub=float(d.chunk_count))

    # Capacity, per edge and epoch; sliding windows where a chunk needs
    # several epochs on the wire.
    for e in edges:
        pair = (e.src, e.dst)
        w = kap[pair]
        for k in range(K):
            lo = max(0, k - w + 1)
            coeffs = [(m.var("F", s, c, e.src, e.dst, k2), 1.0)
                      for s, c in commodities for k2 in range(lo, k + 1)]
            m.add_le(coeffs, timing.budget[pair][k] - carry.link_load.get((*pair, k), 0))

    # Conservation with copy: what a node holds at the start of an epoch plus
    # what lands during it bounds each outgoing flow of the next epoch.
    for s, c in commodities:
        for n in t_eff.nodes:
            in_edges = t_eff.in_edges(n)
            out_edges = t_eff.out_edges(n)
            if is_switch(n) and opts.switch_mode == NO_COPY:
                # Legacy switch: every arrival leaves exactly once, next epoch.
                for k_out in range(K):
                    coeffs = [(m.var("F", s, c, e.src, e.dst, k_out), 1.0) for e in out_edges]
                    rhs = 0.0
                    for e in in_edges:
                        k_in = k_out - 1 - delta[(e.src, e.dst)]
                        if k_in >= 0:
                            coeffs.append((m.var("F", s, c, e.src, e.dst, k_in), -1.0))
                    rhs += float(arrivals.get((s, c, n, k_out), 0))
                    m.add_eq(coeffs, rhs)
                if one_shot:
                    # Arrivals in the final epochs could never leave again.
                    for e in in_edges:
                        dlt = delta[(e.src, e.dst)]
                        for k in range(max(0, kk - dlt), K):
                            m.fix(m.var("F", s, c, e.src, e.dst, k), 0.0)
                continue
            for e_out in out_edges:
                for k_out in range(K):
                    f_out = m.var("F", s, c, n, e_out.dst, k_out)
                    coeffs = [(f_out, -1.0)]
                    rhs = 0.0
                    if not is_switch(n):
                        coeffs.append((m.var("B", s, c, n, max(k_out - 1, 0)), 1.0))
                    if k_out >= 1 or is_switch(n):
                        # Carried arrivals usable from k_out are forwardable
                        # during it, like any in-round arrival; a buffer's
                        # epoch-0 arrivals are already in B[0].
                        rhs -= float(arrivals.get((s, c, n, k_out), 0))
                    if k_out >= 1:
                        for e in in_edges:
                            k_in = k_out - 1 - delta[(e.src, e.dst)]
                            if k_in >= 0:
                                coeffs.append((m.var("F", s, c, e.src, e.dst, k_in), 1.0))
                    if len(coeffs) == 1 and rhs == 0.0:
                        m.fix(f_out, 0.0)
                    else:
                        m.add_ge(coeffs, rhs)

    # Buffer recurrence: each start-of-epoch buffer accumulates last epoch's
    # arrivals (minus explicit removals when a limit is in force).
    for s, c in commodities:
        for n in t_eff.nodes:
            if is_switch(n):
                continue
            for k in range(1, K + 1):
                coeffs = [(m.var("B", s, c, n, k), 1.0), (m.var("B", s, c, n, k - 1), -1.0)]
                if opts.buffer_limit is not None:
                    coeffs.append((m.var("X", s, c, n, k - 1), 1.0))
                for e in t_eff.in_edges(n):
                    k_in = (k - 1) - delta[(e.src, e.dst)]
                    if k_in >= 0:
                        coeffs.append((m.var("F", s, c, e.src, e.dst, k_in), -1.0))
                m.add_eq(coeffs, float(arrivals.get((s, c, n, k), 0)))

    # Destination reads: R is capped by demand (declared R vars only) and by
    # what the buffer holds at the next boundary; monotone so a read is never
    # retracted.
    for (s, c), dlist in sorted(dests.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        for dst in dlist:
            for k in range(K):
                m.add_le([(m.var("R", s, c, dst, k), 1.0),
                          (m.var("B", s, c, dst, k + 1), -1.0)], 0.0)
                if k >= 1:
                    m.add_ge([(m.var("R", s, c, dst, k), 1.0),
                              (m.var("R", s, c, dst, k - 1), -1.0)], 0.0)

    if opts.buffer_limit is not None:
        for n in t_eff.nodes:
            if is_switch(n):
                continue
            for k in range(K + 1):
                coeffs = [(m.var("B", s, c, n, k), 1.0) for s, c in commodities]
                m.add_le(coeffs, float(opts.buffer_limit))

    # Legacy-switch budgets: simultaneous pair uses are limited by the
    # physical switch degree, and each node drives or drains at most one
    # hyper-edge of a switch per epoch.
    for sw, group in sorted(hyper_groups.items(), key=lambda kv: str(kv[0])):
        for k in range(K):
            coeffs = [(m.var("F", s, c, i, j, k), 1.0)
                      for s, c in commodities for (i, j) in group.pairs]
            m.add_le(coeffs, float(group.budget))
            for node in sorted({i for i, _ in group.pairs}, key=str):
                coeffs = [(m.var("F", s, c, i, j, k), 1.0)
                          for s, c in commodities for (i, j) in group.pairs if i == node]
                m.add_le(coeffs, 1.0)
            for node in sorted({j for _, j in group.pairs}, key=str):
                coeffs = [(m.var("F", s, c, i, j, k), 1.0)
                          for s, c in commodities for (i, j) in group.pairs if j == node]
                m.add_le(coeffs, 1.0)

    for (s, c), dlist in dests.items():
        for dst in dlist:
            for k in range(K):
                m.add_objective_term(m.var("R", s, c, dst, k), 1.0 / (k + 1))
    return m
