"""Discrete-epoch replay of schedules under the alpha-beta cost model.

Independent of the optimization path: it imports no model, and availability
and arrival arithmetic are rebuilt here from raw link parameters. A chunk
sent on (i,j) at epoch k is available at j for forwarding from epoch
k + delta + 1 and counts as delivered at epoch k + delta, where delta covers
both the link latency and, for whole-chunk schedules on sub-epoch links, the
extra transmission epochs.

A replay reads a schedule twice. As scheduled, every send is checked at the
epoch the schedule gives it; what cannot hold there is a violation. As
executed, every send is made at the earliest epoch, no earlier than its
scheduled one, at which its sender holds the chunk and its link's capacity
window has room; arrivals, deliveries and completion times follow these
executed epochs, so a schedule is never credited for a send it could not
make. For a schedule without violations both readings agree epoch by epoch.

Each reading keeps what nodes hold in a `_Holdings`: a whole chunk at a GPU
is a copy, and every other arrival is a lot whose mass sends use up.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .demand import Demand, check_demand_nodes
from .epochs import ceil_frac, _frac
from .errors import ScheduleError, ValidationError
from .schedule import Schedule
from .topology import (COPY, HYPER_EDGE, NO_COPY, Topology, check_switch_mode,
                       hyper_edge_transform)

WHOLE = 1.0 - 1e-9
TOL = 1e-6  # slack on capacities, fractions and delivered mass


@dataclass(frozen=True)
class SimOptions:
    switch_mode: str = COPY

    def __post_init__(self):
        check_switch_mode(self.switch_mode)


@dataclass(frozen=True)
class Violation:
    kind: str  # capacity | causality | switch-buffer | unmet-demand
    location: str
    epoch: int


@dataclass
class SimReport:
    """Outcome of a replay.

    `violations` checks the schedule as scheduled. The completion fields
    (`completion_epochs`, `completion_epoch`, `per_entry_completion`,
    `transfer_time`) and `output_buffer_bytes` are as executed, and cover
    delivered entries only: an entry never delivered is an `unmet-demand`
    violation instead.
    """

    violations: list[Violation]
    completion_epochs: dict  # destination -> last demanded arrival epoch
    completion_epoch: int
    transfer_time: float
    output_buffer_bytes: dict
    demand_bytes: int
    tau: float
    per_entry_completion: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def simulate(sched: Schedule, t: Topology, d: Demand,
             opts: SimOptions | None = None) -> SimReport:
    """Replay a schedule event by event and check it against the cost model.

    Violations are as scheduled: capacity overruns per (edge, window), sends
    of data the sender does not hold at the scheduled epoch, chunks resting
    at switches across an epoch, and demand left unmet by the execution.

    Completion is as executed (see the module docstring). A send waits for
    its chunk and for room on its link; a send whose chunk never reaches its
    sender is never made. A switch holds a chunk only in the epoch after it
    lands, so a send from a switch is made in the forwarding epoch of the
    first arrival of its chunk that is no earlier than the send's scheduled
    epoch and finds room on the link, or never. A send larger than its
    link's whole window runs once the window is otherwise empty. Hyper-edge
    group budgets are checked as scheduled only.
    """
    opts = opts or SimOptions()
    check_demand_nodes(d, t)
    t_eff = t
    hyper_groups = {}
    if opts.switch_mode == HYPER_EDGE:
        t_eff, hyper_groups = hyper_edge_transform(t)

    tau = _frac(sched.tau)
    if tau <= 0:
        raise ScheduleError("schedule has non-positive epoch duration")
    whole_only = all(ev.fraction >= WHOLE for ev in sched.events)
    caps, kap, delta = _link_timing(t_eff, tau, sched.chunk_size, whole_only)

    for ev in sched.events:
        if (ev.src, ev.dst) not in caps:
            raise ScheduleError(f"event references unknown edge ({ev.src!r},{ev.dst!r})")
        if ev.epoch < 0:
            raise ScheduleError(f"event at negative epoch {ev.epoch}")
        if not (0.0 < ev.fraction <= 1.0 + TOL):
            raise ScheduleError(f"event fraction {ev.fraction} outside (0, 1]")

    commodities = {(s, c) for s, c, _ in d.entries}
    entry_index = set(d.entries)

    violations: list[Violation] = []
    scheduled = _Holdings(t_eff, commodities, opts)
    for ev in sched.events:
        if not scheduled.draw(ev.source, ev.chunk, ev.src, ev.epoch, ev.fraction):
            violations.append(Violation("causality", f"{ev.src!r} lacks chunk "
                                        f"{ev.chunk} of {ev.source!r}", ev.epoch))
        arr = ev.epoch + delta[(ev.src, ev.dst)]
        scheduled.arrive(ev.source, ev.chunk, ev.dst, arr, ev.fraction)

    _check_capacity(sched.events, caps, kap, TOL, violations)
    _check_switch_rest(scheduled, TOL, violations)
    _check_hyper_budgets(sched.events, hyper_groups, TOL, violations)

    deliveries = _execute(sched.events, _Holdings(t_eff, commodities, opts), delta, kap,
                          _window_limits(caps, kap, TOL), entry_index)

    per_entry: dict[tuple, int] = {}
    for (s, c, dst) in sorted(entry_index, key=str):
        got = sorted(deliveries.get((s, c, dst), ()))
        acc = 0.0
        done = None
        for arr, qty in got:
            acc += qty
            if acc >= 1.0 - TOL:
                done = arr
                break
        if done is None:
            violations.append(Violation("unmet-demand", f"chunk {c} of {s!r} at {dst!r}", -1))
        else:
            per_entry[(s, c, dst)] = done

    completion_per_dest: dict = {}
    for (s, c, dst), k in per_entry.items():
        completion_per_dest[dst] = max(completion_per_dest.get(dst, -1), k)
    completion = max(per_entry.values(), default=-1)
    output_bytes = {}
    for n in t.nodes:
        if not t.is_switch(n):
            output_bytes[n] = sum(d.chunk_size for (s, c, dst) in per_entry if dst == n)
    return SimReport(
        violations=violations,
        completion_epochs=completion_per_dest,
        completion_epoch=completion,
        transfer_time=(completion + 1) * float(tau) if completion >= 0 else 0.0,
        output_buffer_bytes=output_bytes,
        demand_bytes=d.total_bytes(),
        tau=float(tau),
        per_entry_completion=per_entry,
    )


def _link_timing(t_eff: Topology, tau: Fraction, chunk_size: int,
                 whole_only: bool) -> tuple[dict, dict, dict]:
    """Chunks per epoch, kappa and delay of every edge, from raw link parameters.

    A whole chunk occupies a link for kappa epochs, and every delay is
    widened by the slowest link's kappa - 1, so nothing is forwarded while a
    chunk is still on the wire. Fractional sends are not widened.
    """
    chunk = Fraction(chunk_size)
    caps, kap = {}, {}
    for e in t_eff.edges:
        pair = (e.src, e.dst)
        caps[pair] = _frac(e.capacity) * tau / chunk
        kap[pair] = max(1, ceil_frac(1 / caps[pair])) if whole_only else 1
    widen = max(kap.values(), default=1) - 1
    delta = {(e.src, e.dst): ceil_frac(_frac(e.alpha) / tau) + widen for e in t_eff.edges}
    return caps, kap, delta


class _Holdings:
    """What each node holds of each (source, chunk), and from which epoch.

    A whole arrival at a GPU is a copy any number of sends may use
    (`copy_from`). Every other arrival is a lot [usable, qty, used, whole]
    whose mass sends use up; a whole lot at a copying switch may be copied.
    A lot at a switch is usable only in its one epoch, then must be gone.
    """

    def __init__(self, t_eff: Topology, commodities, opts: SimOptions):
        self.t_eff = t_eff
        self.switch_mode = opts.switch_mode
        self.copy_from: dict[tuple, int] = {(s, c, s): 0 for s, c in commodities}
        self.lots: dict[tuple, list[list]] = {}

    def arrive(self, s, c, node, arr_epoch, qty) -> None:
        key = (s, c, node)
        whole = qty >= WHOLE
        if whole and not self.t_eff.is_switch(node):
            prev = self.copy_from.get(key)
            if prev is None or arr_epoch + 1 < prev:
                self.copy_from[key] = arr_epoch + 1
        else:
            self.lots.setdefault(key, []).append([arr_epoch + 1, qty, 0.0, whole])

    def draw(self, s, c, node, k, qty, commit: bool = True) -> bool:
        """Deduct qty of (s,c) available at node for a send in epoch k.

        With `commit` false nothing is deducted; the result still says
        whether the draw would succeed.
        """
        key = (s, c, node)
        ready = self.copy_from.get(key)
        if ready is not None and ready <= k:
            return True
        at_switch = self.t_eff.is_switch(node)
        lots = [lot for lot in self.lots.get(key, ())
                if lot[0] == k or lot[0] < k and not at_switch]
        if self.switch_mode != NO_COPY:
            for lot in lots:
                if lot[3]:
                    if commit:
                        lot[2] += qty
                    return True
        remaining = qty
        for lot in lots:
            free = lot[1] - lot[2]
            if free > TOL:
                take = min(free, remaining)
                if commit:
                    lot[2] += take
                remaining -= take
                if remaining <= TOL:
                    return True
        return remaining <= TOL

    def next_usable(self, s, c, node, k) -> int | None:
        """First epoch after k at which an arrival already registered makes
        (s,c) usable at node, or None."""
        key = (s, c, node)
        epochs = [lot[0] for lot in self.lots.get(key, ()) if lot[0] > k]
        ready = self.copy_from.get(key)
        if ready is not None and ready > k:
            epochs.append(ready)
        return min(epochs, default=None)


def _execute(events, held: _Holdings, delta, kap, limits,
             entry_index) -> dict[tuple, list[tuple[int, float]]]:
    """Make each send at the earliest epoch it really can; return deliveries.

    Sends are taken in epoch order, ties in schedule order, so every send
    made at an epoch sees all arrivals usable by then. A send whose chunk is
    not yet at its sender is retried when an arrival there becomes usable;
    one that finds its link's window full moves to the first epoch with
    room, unless its sender is a switch, which cannot hold the chunk that
    long and so waits for another arrival.
    """
    loads: dict[tuple, list[list]] = {pair: [] for pair in limits}
    waiting: dict[tuple, list[int]] = {}
    deliveries: dict[tuple, list[tuple[int, float]]] = {}
    # due[n]: the epoch send n is queued for; None while it is not queued,
    # DONE (below every epoch) once made. Heap entries that disagree with it
    # are stale.
    DONE = -1
    due: list[int | None] = [ev.epoch for ev in events]
    heap = [(ev.epoch, n) for n, ev in enumerate(events)]
    heapq.heapify(heap)

    def retry(n, epoch):
        if due[n] is None or epoch < due[n]:
            due[n] = epoch
            heapq.heappush(heap, (epoch, n))

    def wait(n, at_sender, k):
        waiting.setdefault(at_sender, []).append(n)
        later = held.next_usable(*at_sender, k)
        if later is not None:
            retry(n, later)

    while heap:
        k, n = heapq.heappop(heap)
        if due[n] != k:
            continue
        due[n] = None
        ev = events[n]
        pair = (ev.src, ev.dst)
        at_sender = (ev.source, ev.chunk, ev.src)
        if not held.draw(*at_sender, k, ev.fraction, commit=False):
            wait(n, at_sender, k)
            continue
        start = _link_free_from(loads[pair], k, kap[pair], limits[pair], ev.fraction)
        if start > k:
            if held.t_eff.is_switch(ev.src):
                wait(n, at_sender, k)
            else:
                retry(n, start)
            continue
        due[n] = DONE
        held.draw(*at_sender, k, ev.fraction)
        link = loads[pair]
        if link and link[-1][0] == k:
            link[-1][1] += ev.fraction
        else:
            link.append([k, ev.fraction])
        arr = k + delta[pair]
        at_receiver = (ev.source, ev.chunk, ev.dst)
        held.arrive(*at_receiver, arr, ev.fraction)
        if at_receiver in entry_index:
            deliveries.setdefault(at_receiver, []).append((arr, ev.fraction))
        for m in waiting.pop(at_receiver, ()):
            retry(m, arr + 1)
    return deliveries


def _link_free_from(loads, k, w, limit, qty) -> int:
    """Earliest epoch from k on whose w-epoch window takes qty more load.

    `loads` lists [epoch, load] in epoch order with no epoch after k, so a
    window ending later only sheds load. With the window otherwise empty the
    answer is k, even for a qty above the limit.
    """
    total = qty
    for epoch, load in reversed(loads):
        if epoch <= k - w:
            break
        total += load
        if total > limit:
            return max(k, epoch + w)
    return k


def _window_limits(caps, kap, tol) -> dict[tuple, float]:
    """Most load each edge's kappa-epoch window may carry, tolerance included."""
    return {pair: float(kap[pair] * cap) * (1 + tol) + tol for pair, cap in caps.items()}


def _check_capacity(events, caps, kap, tol, violations):
    """Flag every epoch up to the last scheduled one whose w-epoch window on
    an edge carries more than w epochs of capacity, w being the edge's kappa.

    A window's load changes only where a loaded epoch enters or leaves it, so
    the work is proportional to loaded (edge, epoch) pairs and violations
    reported, not to kappa.
    """
    load: dict[tuple, dict[int, float]] = {}
    max_epoch = -1
    for ev in events:
        per_epoch = load.setdefault((ev.src, ev.dst), {})
        per_epoch[ev.epoch] = per_epoch.get(ev.epoch, 0.0) + ev.fraction
        max_epoch = max(max_epoch, ev.epoch)
    for (i, j), limit in _window_limits(caps, kap, tol).items():
        per_epoch = load.get((i, j))
        if not per_epoch:
            continue
        w = kap[(i, j)]
        loaded = sorted(per_epoch)
        marks = sorted(set(loaded) | {k + w for k in loaded})
        first = last = 0  # loaded[first:last] lie in the window ending at mark
        for mark, next_mark in zip(marks, marks[1:] + [max_epoch + 1]):
            if mark > max_epoch:
                break
            while last < len(loaded) and loaded[last] <= mark:
                last += 1
            while first < last and loaded[first] <= mark - w:
                first += 1
            total = sum(per_epoch[k] for k in loaded[first:last])
            if total > limit:
                violations.extend(Violation("capacity", f"({i!r},{j!r})", k)
                                  for k in range(mark, min(next_mark, max_epoch + 1)))


def _check_switch_rest(held: _Holdings, tol, violations):
    """Flag every lot at a switch not gone after its one usable epoch: mass
    left over, or a whole lot at a copying switch that was never copied."""
    copying = held.switch_mode != NO_COPY
    for (s, c, sw) in sorted(held.lots, key=str):
        if held.t_eff.is_switch(sw):
            for usable, qty, used, whole in held.lots[(s, c, sw)]:
                rests = used == 0.0 if whole and copying else qty - used > tol
                if rests:
                    violations.append(Violation(
                        "switch-buffer", f"chunk {c} of {s!r} rests at {sw!r}", usable))


def _check_hyper_budgets(events, hyper_groups, tol, violations):
    if not hyper_groups:
        return
    for sw, group in sorted(hyper_groups.items(), key=lambda kv: str(kv[0])):
        pairs = set(group.pairs)
        by_epoch: dict[int, list] = {}
        for ev in events:
            if (ev.src, ev.dst) in pairs:
                by_epoch.setdefault(ev.epoch, []).append(ev)
        for k, evs in sorted(by_epoch.items()):
            if sum(e.fraction for e in evs) > group.budget + tol:
                violations.append(Violation("capacity", f"hyper-edges of {sw!r}", k))
            for node in sorted({e.src for e in evs}, key=str):
                if sum(e.fraction for e in evs if e.src == node) > 1 + tol:
                    violations.append(Violation("capacity", f"{node!r} egress via {sw!r}", k))
            for node in sorted({e.dst for e in evs}, key=str):
                if sum(e.fraction for e in evs if e.dst == node) > 1 + tol:
                    violations.append(Violation("capacity", f"{node!r} ingress via {sw!r}", k))


def algorithmic_bandwidth(report: SimReport) -> dict:
    """Received bytes over transfer time, per destination and in aggregate.

    Only delivered demand counts as received.
    """
    total_bytes = sum(report.output_buffer_bytes.values())
    if report.demand_bytes == 0:
        return {"aggregate": 0.0, "per_node": {n: 0.0 for n in report.output_buffer_bytes}}
    if report.transfer_time <= 0:
        raise ValidationError("zero transfer time with nonzero demand")
    per_node = {n: b / report.transfer_time for n, b in report.output_buffer_bytes.items()}
    return {"aggregate": total_bytes / report.transfer_time, "per_node": per_node}
