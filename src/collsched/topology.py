"""Directed interconnect graphs with per-edge capacity and fixed latency.

Capacities are bytes per second, alpha is seconds. A bidirectional link is
represented as two edges. Unit-capacity test fixtures use chunk_size=1 so
bytes/sec reads as chunks/sec.

A `Topology` is valid once made: construction raises `ValidationError` listing
every violation `validate_topology` finds. The switch modes live here too,
beside `hyper_edge_transform`, the rewrite behind the hyper-edge mode.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .errors import ValidationError

NodeId = int | str


def node_key(n: NodeId):
    """Sort key that keeps integer ranks in numeric order."""
    return (1, str(n)) if isinstance(n, str) else (0, n, "")


@dataclass(frozen=True)
class Edge:
    src: NodeId
    dst: NodeId
    capacity: float  # bytes per second
    alpha: float = 0.0  # seconds


@dataclass(frozen=True)
class Topology:
    """Immutable directed graph of GPUs and switches."""

    nodes: tuple[NodeId, ...]
    switches: frozenset[NodeId]
    edges: tuple[Edge, ...]
    # (src, dst, epoch) -> capacity override in bytes/sec, for links whose
    # bandwidth changes from one epoch to the next.
    capacity_overrides: dict[tuple[NodeId, NodeId, int], float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_out", _adjacency(self.edges, key="src"))
        object.__setattr__(self, "_in", _adjacency(self.edges, key="dst"))
        object.__setattr__(self, "_by_pair", {(e.src, e.dst): e for e in self.edges})
        violations = validate_topology(self)
        if violations:
            raise ValidationError("; ".join(violations))

    @property
    def gpus(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.nodes if n not in self.switches)

    def out_edges(self, n: NodeId) -> tuple[Edge, ...]:
        return self._out.get(n, ())

    def in_edges(self, n: NodeId) -> tuple[Edge, ...]:
        return self._in.get(n, ())

    def edge(self, src: NodeId, dst: NodeId) -> Edge:
        return self._by_pair[(src, dst)]

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        return (src, dst) in self._by_pair

    def capacity_at(self, e: Edge, k: int) -> float:
        return self.capacity_overrides.get((e.src, e.dst, k), e.capacity)

    def is_switch(self, n: NodeId) -> bool:
        return n in self.switches


def _adjacency(edges, key):
    table: dict[NodeId, list[Edge]] = {}
    for e in edges:
        table.setdefault(getattr(e, key), []).append(e)
    return {n: tuple(es) for n, es in table.items()}


def validate_topology(t: Topology) -> list[str]:
    """Return a list of violation messages; empty iff the topology is well formed."""
    violations = []
    node_set = set(t.nodes)
    if len(node_set) != len(t.nodes):
        violations.append("duplicate node ids")
    for s in t.switches:
        if s not in node_set:
            violations.append(f"switch {s!r} is not a node")
    seen_pairs = set()
    for e in t.edges:
        if e.src not in node_set or e.dst not in node_set:
            violations.append(f"edge ({e.src!r},{e.dst!r}) references unknown node")
        if e.src == e.dst:
            violations.append(f"self-loop at {e.src!r}")
        if not math.isfinite(e.capacity):
            violations.append(f"non-finite capacity on ({e.src!r},{e.dst!r})")
        elif e.capacity <= 0:
            violations.append(f"non-positive capacity on ({e.src!r},{e.dst!r})")
        if not math.isfinite(e.alpha):
            violations.append(f"non-finite alpha on ({e.src!r},{e.dst!r})")
        elif e.alpha < 0:
            violations.append(f"negative alpha on ({e.src!r},{e.dst!r})")
        if (e.src, e.dst) in seen_pairs:
            violations.append(f"duplicate edge ({e.src!r},{e.dst!r})")
        seen_pairs.add((e.src, e.dst))
    for s in sorted(t.switches, key=str):
        if s in node_set:
            if not t.out_edges(s):
                violations.append(f"switch {s!r} has no outgoing edge")
            if not t.in_edges(s):
                violations.append(f"switch {s!r} has no incoming edge")
    for (src, dst, k), cap in t.capacity_overrides.items():
        if (src, dst) not in seen_pairs:
            violations.append(f"capacity override for unknown edge ({src!r},{dst!r})")
        if not math.isfinite(cap):
            violations.append(f"non-finite capacity override on ({src!r},{dst!r}) at epoch {k}")
        elif cap <= 0:
            violations.append(f"non-positive capacity override on ({src!r},{dst!r}) at epoch {k}")
    return violations


def shortest_distances(t: Topology, weight, seeds: dict) -> dict:
    """Dijkstra from several starting nodes at once.

    weight(e) is the non-negative cost of crossing edge e; seeds maps each
    starting node to the distance it starts at. Returns every node's
    distance from the nearest seed, inf where no seed reaches it. Equal
    distances pop in node-name order.
    """
    dist = dict.fromkeys(t.nodes, math.inf)
    heap = []
    for n, d0 in seeds.items():
        if d0 < dist[n]:
            dist[n] = d0
            heapq.heappush(heap, (d0, str(n), n))
    while heap:
        d0, _, n = heapq.heappop(heap)
        if d0 > dist[n]:
            continue
        for e in t.out_edges(n):
            alt = d0 + weight(e)
            if alt < dist[e.dst]:
                dist[e.dst] = alt
                heapq.heappush(heap, (alt, str(e.dst), e.dst))
    return dist


def all_pairs_distances(t: Topology, weight) -> dict:
    """Every node pair's distance over edge weights weight(e), as
    {(a, b): distance}; inf where b is unreachable from a."""
    return {(a, b): w for a in t.nodes for b, w in shortest_distances(t, weight, {a: 0.0}).items()}


# ---------------------------------------------------------------------------
# JSON round-trip


def topology_to_json(t: Topology) -> dict:
    doc = {
        "nodes": [{"id": n, "is_switch": n in t.switches} for n in t.nodes],
        "edges": [
            {"src": e.src, "dst": e.dst, "capacity_bytes_per_sec": e.capacity, "alpha_sec": e.alpha}
            for e in t.edges
        ],
    }
    if t.capacity_overrides:
        doc["capacity_overrides"] = [
            {"src": src, "dst": dst, "epoch": k, "capacity_bytes_per_sec": cap}
            for (src, dst, k), cap in sorted(t.capacity_overrides.items(), key=str)
        ]
    return doc


def topology_from_json(doc: dict) -> Topology:
    nodes = tuple(n["id"] for n in doc["nodes"])
    switches = frozenset(n["id"] for n in doc["nodes"] if n.get("is_switch"))
    edges = tuple(
        Edge(e["src"], e["dst"], float(e["capacity_bytes_per_sec"]), float(e.get("alpha_sec", 0.0)))
        for e in doc["edges"]
    )
    overrides = {
        (o["src"], o["dst"], int(o["epoch"])): float(o["capacity_bytes_per_sec"])
        for o in doc.get("capacity_overrides", [])
    }
    return Topology(nodes, switches, edges, overrides)


# ---------------------------------------------------------------------------
# Generators

def _bidir(src, dst, cap, alpha):
    return [Edge(src, dst, cap, alpha), Edge(dst, src, cap, alpha)]


def star(leaves: int = 3, capacity: float = 1.0, alpha: float = 0.0) -> Topology:
    """One source, one copy-capable switch, `leaves` destinations."""
    nodes = ["s", "h"] + [f"d{i + 1}" for i in range(leaves)]
    edges = [Edge("s", "h", capacity, alpha)]
    edges += [Edge("h", f"d{i + 1}", capacity, alpha) for i in range(leaves)]
    return Topology(tuple(nodes), frozenset({"h"}), tuple(edges))


def line(n: int, capacity: float = 1.0, alpha: float = 0.0) -> Topology:
    nodes = tuple(range(n))
    edges = []
    for i in range(n - 1):
        edges += _bidir(i, i + 1, capacity, alpha)
    return Topology(nodes, frozenset(), tuple(edges))


def ring(n: int, capacity: float = 1.0, alpha: float = 0.0) -> Topology:
    if n == 2:
        return line(2, capacity, alpha)
    nodes = tuple(range(n))
    edges = []
    for i in range(n):
        edges += _bidir(i, (i + 1) % n, capacity, alpha)
    return Topology(nodes, frozenset(), tuple(edges))


# Intra-chassis wiring shared by DGX1 and NDv2: two quads bridged by two
# fast and two slow vertical links. Pairs are (a, b, fast?).
_CHASSIS8_LINKS = [
    (0, 1, True), (0, 2, False), (0, 3, False), (1, 2, False),
    (2, 3, True), (1, 3, True), (4, 5, True), (4, 6, False),
    (4, 7, False), (5, 6, False), (6, 7, True), (5, 7, True),
    (0, 4, True), (1, 5, False), (2, 6, True), (3, 7, False),
]

GBPS = 1e9  # bytes/sec per GB/s


def dgx1(fast_gbps: float = 50.0, slow_gbps: float = 25.0,
         alpha: float = 0.7e-6) -> Topology:
    """Single 8-GPU chassis, 32 directed edges."""
    return ndv2(chassis=1, fast_gbps=fast_gbps, slow_gbps=slow_gbps, alpha=alpha)


def ndv2(chassis: int = 1, fast_gbps: float = 50.0, slow_gbps: float = 25.0,
         alpha: float = 0.7e-6, switch_gbps: float = 12.5,
         switch_alpha: float = 1.3e-6) -> Topology:
    """N 8-GPU chassis; GPU 0 of each chassis uplinks to one shared switch,
    which downlinks to GPU 1 of every chassis."""
    nodes: list[NodeId] = []
    edges: list[Edge] = []
    for ch in range(chassis):
        base = ch * 8
        nodes += [base + i for i in range(8)]
        for a, b, fast in _CHASSIS8_LINKS:
            cap = (fast_gbps if fast else slow_gbps) * GBPS
            edges += _bidir(base + a, base + b, cap, alpha)
    switches: frozenset[NodeId] = frozenset()
    if chassis > 1:
        sw = "sw0"
        nodes.append(sw)
        switches = frozenset({sw})
        for ch in range(chassis):
            base = ch * 8
            edges.append(Edge(base + 0, sw, switch_gbps * GBPS, switch_alpha))
            edges.append(Edge(sw, base + 1, switch_gbps * GBPS, switch_alpha))
    return Topology(tuple(nodes), switches, tuple(edges))


def dgx2(chassis: int = 1, switch_gbps: float = 125.0, switch_alpha: float = 0.35e-6,
         cross_gbps: float = 12.5, cross_alpha: float = 2.6e-6) -> Topology:
    """N chassis of 16 GPUs behind one switch each; the first 8 GPUs of each
    chassis send one unidirectional link to the last 8 GPUs of the next."""
    nodes: list[NodeId] = []
    edges: list[Edge] = []
    switches = set()
    for ch in range(chassis):
        base = ch * 16
        sw = f"sw{ch}"
        nodes += [base + i for i in range(16)]
        nodes.append(sw)
        switches.add(sw)
        for i in range(16):
            edges += _bidir(base + i, sw, switch_gbps * GBPS, switch_alpha)
    if chassis > 1:
        for ch in range(chassis):
            nxt = (ch + 1) % chassis
            if nxt == ch:
                continue
            for i in range(8):
                edges.append(Edge(ch * 16 + i, nxt * 16 + 15 - i, cross_gbps * GBPS, cross_alpha))
    return Topology(tuple(nodes), frozenset(switches), tuple(edges))


GENERATORS = {
    "dgx1": dgx1,
    "ndv2": ndv2,
    "dgx2": dgx2,
    "star": star,
    "line": line,
    "ring": ring,
}


# ---------------------------------------------------------------------------
# Switch modes, and the legacy-switch rewrite behind the hyper-edge mode

COPY = "copy"  # a switch may forward copies of one arrival on several edges
NO_COPY = "no-copy"  # a switch forwards each arrival exactly once
HYPER_EDGE = "hyper-edge"  # switches are replaced by `hyper_edge_transform`
SWITCH_MODES = (COPY, NO_COPY, HYPER_EDGE)


def check_switch_mode(mode: str) -> None:
    if mode not in SWITCH_MODES:
        raise ValidationError(f"unknown switch mode {mode!r}")


@dataclass(frozen=True)
class HyperEdgeGroup:
    """Direct neighbor-pair edges standing in for one removed switch."""

    switch: NodeId
    pairs: tuple[tuple[NodeId, NodeId], ...]
    budget: int  # simultaneous pair uses per epoch: min(in-degree, out-degree)


def hyper_edge_transform(t: Topology) -> tuple[Topology, dict[NodeId, HyperEdgeGroup]]:
    """Replace every switch with direct edges between its neighbors.

    A pair (i, j) becomes an edge when i feeds the switch and the switch feeds
    j and no direct (i, j) edge exists. Crossing pays a single transmission:
    the new edge takes the tighter of the two link capacities and the summed
    latency, and at every epoch where either link's capacity is overridden,
    the tighter of the two capacities then. Direct edges keep their
    overrides. Pairs reachable through several switches are attached to the
    first switch in node order.
    """
    if not t.switches:
        return t, {}
    groups: dict[NodeId, HyperEdgeGroup] = {}
    new_edges: list[Edge] = [e for e in t.edges
                             if e.src not in t.switches and e.dst not in t.switches]
    claimed = {(e.src, e.dst) for e in new_edges}
    overrides = {key: cap for key, cap in t.capacity_overrides.items() if key[:2] in claimed}
    for sw in sorted(t.switches, key=str):
        ins = [e for e in t.in_edges(sw) if e.src not in t.switches]
        outs = [e for e in t.out_edges(sw) if e.dst not in t.switches]
        if not ins or not outs:
            raise ValidationError(f"switch {sw!r} lacks incoming or outgoing edges")
        pairs = []
        for ein in ins:
            for eout in outs:
                i, j = ein.src, eout.dst
                if i == j or t.has_edge(i, j):
                    continue
                pairs.append((i, j))
                if (i, j) not in claimed:
                    claimed.add((i, j))
                    new_edges.append(Edge(i, j, min(ein.capacity, eout.capacity),
                                          ein.alpha + eout.alpha))
                    for (a, b, k) in t.capacity_overrides:
                        if (a, b) in ((i, sw), (sw, j)):
                            overrides[(i, j, k)] = min(t.capacity_at(ein, k),
                                                       t.capacity_at(eout, k))
        groups[sw] = HyperEdgeGroup(sw, tuple(pairs), min(len(ins), len(outs)))
    nodes = tuple(n for n in t.nodes if n not in t.switches)
    return Topology(nodes, frozenset(), tuple(new_edges), overrides), groups
