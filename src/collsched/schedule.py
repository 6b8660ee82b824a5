"""Schedules: pruned, deterministic chunk-send event lists plus serialization.

A schedule is the deliverable: which chunk crosses which edge in which epoch.
Solver output first passes a reverse trace that zeroes every flow not needed
to account for some demanded delivery. Extraction reads all else from the
model's `meta` (epoch config, model topology, delays, switch mode, entries),
which A* gives its stitched flows too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .demand import entry_order
from .errors import ConservationError
from .solver import Solution
from .topology import NO_COPY, NodeId, Topology


@dataclass(frozen=True)
class ScheduleEvent:
    source: NodeId
    chunk: int
    src: NodeId
    dst: NodeId
    epoch: int
    fraction: float = 1.0


@dataclass(frozen=True)
class Schedule:
    """Events are kept in one order, whatever order they are given in: by
    epoch, then source, sender and receiver (each compared as text), then
    chunk. The replay and every export read them in that order."""

    tau: float
    events: tuple[ScheduleEvent, ...]
    completion_epoch: int  # epoch of the last demanded delivery; -1 if no demand
    chunk_size: int = 1
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(sorted(self.events, key=lambda e: (
            e.epoch, str(e.source), str(e.src), str(e.dst), e.chunk))))

    @property
    def transfer_time(self) -> float:
        return (self.completion_epoch + 1) * self.tau if self.completion_epoch >= 0 else 0.0


# ---------------------------------------------------------------------------
# Reverse-trace pruning

def prune_unused_flows(sol: Solution) -> Solution:
    """Zero every flow that no demanded delivery depends on.

    Walks backward from each destination's earliest delivery, preferring the
    earliest arrival and then the lowest sender id, marking the flows that
    account for each demanded chunk. Buffers, reads and the objective are
    untouched.
    """
    m = sol.model
    flows = sol.family_values("F", 0.5)
    keep = trace_required_flows(flows, m.meta)
    x = sol.x.copy()
    x[[m.var("F", *key) for key in flows if key not in keep]] = 0.0
    return replace(sol, x=x)


def trace_required_flows(flows: dict, meta: dict) -> set:
    """The subset of whole-chunk flows needed to justify every delivery.

    flows: (s, c, i, j, k) -> value (>0 whole sends). Raises if some demanded
    chunk cannot be traced back to its source.
    """
    t_eff: Topology = meta["eff_topology"]
    delta = meta["delta"]
    no_copy_switch = meta["opts"].switch_mode == NO_COPY
    arrivals: dict[tuple, list[tuple[int, NodeId, int]]] = {}
    for (s, c, i, j, k) in flows:
        arrivals.setdefault((s, c, j), []).append((k + delta[(i, j)], i, k))
    for lst in arrivals.values():
        lst.sort(key=lambda a: (a[0], str(a[1])))

    keep: set = set()
    # (s, c, n) -> earliest epoch-end by which possession was already traced.
    possession: dict[tuple, int] = {}

    def justify(s, c, n, by_end: int):
        """Mark flows proving n holds chunk (s,c) by end of epoch `by_end`."""
        if n == s:
            return
        prev = possession.get((s, c, n))
        switch = t_eff.is_switch(n)
        if prev is not None and prev <= by_end and not switch:
            return
        options = [a for a in arrivals.get((s, c, n), ()) if a[0] <= by_end]
        if switch:
            # A switch cannot hold a chunk across epochs: the arrival must land
            # exactly at by_end (copy) and each unit forwards once (no-copy),
            # so a no-copy switch takes no arrival already kept.
            options = [a for a in options if a[0] == by_end]
            if no_copy_switch:
                options = [a for a in options if (s, c, a[1], n, a[2]) not in keep]
        if not options:
            raise ConservationError(
                f"cannot account for chunk {c} of {s!r} at {n!r} by epoch {by_end}")
        arr, i, k_send = options[0]
        if not switch:
            possession[(s, c, n)] = arr  # below any earlier trace: arr <= by_end < prev
        if (s, c, i, n, k_send) not in keep:
            keep.add((s, c, i, n, k_send))
            justify(s, c, i, k_send - 1)

    deliveries = delivery_epochs(flows, meta)
    for (s, c, dst) in entry_order(meta["entries"]):
        justify(s, c, dst, deliveries[(s, c, dst)])
    return keep


def delivery_epochs(flows: dict, meta: dict) -> dict:
    """Earliest arrival epoch of each demanded (s, c, d); raises if missing."""
    delta = meta["delta"]
    # Earliest arrival of each (source, chunk) at each receiving node.
    possession: dict[tuple, int] = {}
    for (s, c, i, j, k) in flows:
        arr = k + delta[(i, j)]
        key = (s, c, j)
        if key not in possession or arr < possession[key]:
            possession[key] = arr
    out = {}
    for (s, c, dst) in meta["entries"]:
        arr = possession.get((s, c, dst))
        if arr is None:
            raise ConservationError(f"no delivery of chunk {c} from {s!r} to {dst!r}")
        out[(s, c, dst)] = arr
    return out


def schedule_from_flows(flows: dict, meta: dict, prune: bool = True) -> Schedule:
    """Build a schedule straight from whole-chunk flow values.

    Flows may come from one solve or from several chained ones; `meta` is
    their model's. Completion is the latest arrival among demanded deliveries.
    """
    cfg = meta["cfg"]
    if not meta["entries"]:
        return Schedule(cfg.tau, (), -1, cfg.chunk_size)
    kept = {k: flows[k] for k in trace_required_flows(flows, meta)} if prune else flows
    completion = max(delivery_epochs(kept, meta).values())
    events = tuple(ScheduleEvent(s, c, i, j, k, 1.0) for (s, c, i, j, k) in kept)
    return Schedule(cfg.tau, events, completion, cfg.chunk_size)


def extract_schedule(sol: Solution) -> Schedule:
    """One event per whole-chunk flow of a solved model; completion is the
    latest demanded arrival."""
    return schedule_from_flows(sol.family_values("F", 0.5), sol.model.meta, prune=False)


# ---------------------------------------------------------------------------
# Serialization

def schedule_to_json(s: Schedule) -> dict:
    return {
        "tau_sec": s.tau,
        "chunk_size_bytes": s.chunk_size,
        "completion_epoch": s.completion_epoch,
        "transfer_time_sec": s.transfer_time,
        "events": [
            {"src_rank": e.source, "chunk": e.chunk, "from": e.src, "to": e.dst,
             "epoch": e.epoch, "fraction": e.fraction}
            for e in s.events
        ],
        "meta": dict(s.meta),
    }


def schedule_from_json(doc: dict) -> Schedule:
    events = tuple(
        ScheduleEvent(e["src_rank"], int(e["chunk"]), e["from"], e["to"],
                      int(e["epoch"]), float(e.get("fraction", 1.0)))
        for e in doc["events"]
    )
    return Schedule(float(doc["tau_sec"]), events, int(doc["completion_epoch"]),
                    int(doc.get("chunk_size_bytes", 1)), dict(doc.get("meta", {})))


def msccl_style_steps(s: Schedule) -> list[dict]:
    """Informational exporter: one ordered step per event, runtime-agnostic."""
    return [{"step": n, "type": "send", "src_rank": e.src, "dst_rank": e.dst,
             "src_buf_rank": e.source, "chunk": e.chunk, "epoch": e.epoch,
             "fraction": e.fraction} for n, e in enumerate(s.events)]
