"""Demand matrices: which destination wants which chunk of which source.

Chunk ids are globally unique, partitioned per source, so one (source, chunk)
indexing scheme serves broadcast-style and pairwise-distinct collectives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .topology import NodeId, Topology, node_key


@dataclass(frozen=True)
class Demand:
    entries: frozenset[tuple[NodeId, int, NodeId]]  # (source, chunk, destination)
    chunk_count: int  # size of the chunk-id space
    chunk_size: int  # bytes

    def __post_init__(self):
        owners: dict[int, NodeId] = {}
        for s, c, d in self.entries:
            if s == d:
                raise ValidationError(f"self-demand at node {s!r}")
            if not (0 <= c < self.chunk_count):
                raise ValidationError(f"chunk id {c} outside [0, {self.chunk_count})")
            if owners.setdefault(c, s) != s:
                raise ValidationError(f"chunk id {c} claimed by two sources")
        if self.chunk_size <= 0:
            raise ValidationError("chunk_size must be positive")

    @property
    def ordered_entries(self) -> list[tuple[NodeId, int, NodeId]]:
        """The entries in `entry_order`."""
        return entry_order(self.entries)

    @property
    def commodities(self) -> list[tuple[NodeId, int]]:
        """Demanded (source, chunk) pairs, sorted for determinism."""
        return sorted({(s, c) for s, c, _ in self.entries}, key=lambda x: (str(x[0]), x[1]))

    def total_bytes(self) -> int:
        return len(self.entries) * self.chunk_size


def entry_order(entries) -> list[tuple[NodeId, int, NodeId]]:
    """Entries by source, chunk, then destination, each node compared as text."""
    return sorted(entries, key=lambda e: (str(e[0]), e[1], str(e[2])))


def generate_demand(kind: str, t: Topology, chunks_per_pair: int = 1,
                    chunk_size: int = 1) -> Demand:
    """Build an allgather or alltoall demand over the topology's GPUs.

    allgather: every GPU broadcasts `chunks_per_pair` chunks to all other GPUs.
    alltoall: every GPU sends `chunks_per_pair` distinct chunks to each other
    GPU. Switches never appear as sources or destinations.
    """
    gpus = sorted(t.gpus, key=node_key)
    if len(gpus) < 2:
        raise ValidationError("collective needs at least 2 non-switch nodes")
    if chunks_per_pair < 1:
        raise ValidationError("chunks_per_pair must be >= 1")
    entries = set()
    next_id = 0
    if kind == "allgather":
        for s in gpus:
            for _ in range(chunks_per_pair):
                for d in gpus:
                    if d != s:
                        entries.add((s, next_id, d))
                next_id += 1
    elif kind == "alltoall":
        for s in gpus:
            for d in gpus:
                if d == s:
                    continue
                for _ in range(chunks_per_pair):
                    entries.add((s, next_id, d))
                    next_id += 1
    else:
        raise ValidationError(f"unknown collective kind {kind!r}")
    return Demand(frozenset(entries), next_id, chunk_size)


def merge_demands(demands: list[Demand]) -> Demand:
    """Union demands from several tenants, re-indexing chunk ids to stay disjoint."""
    if not demands:
        raise ValidationError("nothing to merge")
    sizes = {d.chunk_size for d in demands}
    if len(sizes) != 1:
        raise ValidationError(f"chunk_size mismatch across demands: {sorted(sizes)}")
    entries = set()
    offset = 0
    for dem in demands:
        for s, c, d in dem.entries:
            entries.add((s, c + offset, d))
        offset += dem.chunk_count
    return Demand(frozenset(entries), offset, demands[0].chunk_size)


def demand_to_json(d: Demand) -> dict:
    return {
        "chunk_size_bytes": d.chunk_size,
        "chunk_count": d.chunk_count,
        "entries": [
            {"src": s, "chunk": c, "dst": dst}
            for s, c, dst in d.ordered_entries
        ],
    }


def demand_from_json(doc: dict) -> Demand:
    entries = frozenset((e["src"], int(e["chunk"]), e["dst"]) for e in doc["entries"])
    count = int(doc.get("chunk_count", max((c for _, c, _ in entries), default=-1) + 1))
    return Demand(entries, count, int(doc["chunk_size_bytes"]))


def check_demand_nodes(d: Demand, t: Topology) -> None:
    """Demand endpoints must be GPU nodes of the topology."""
    nodes = set(t.nodes)
    for s, c, dst in d.entries:
        for n in (s, dst):
            if n not in nodes:
                raise ValidationError(f"demand references node {n!r} absent from topology")
            if t.is_switch(n):
                raise ValidationError(f"demand endpoint {n!r} is a switch")
