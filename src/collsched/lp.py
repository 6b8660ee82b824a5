"""Copy-free continuous formulation and its rate-to-schedule decomposition.

Suited to demands where every destination wants distinct data; for multicast
demands it stays valid but models each (source, destination) unit separately,
so it only bounds what copy-capable schedules achieve.
"""

from __future__ import annotations

from .demand import Demand, check_demand_nodes
from .epochs import EpochConfig, cap_chunks, compute_delta
from .errors import ConservationError, ValidationError
from .milp import ModelOptions
from .model import Model
from .schedule import Schedule, ScheduleEvent
from .solver import Solution
from .topology import Topology, require_valid

TOL = 1e-6  # relative feasibility slack solvers are allowed


def build_lp_model(t: Topology, d: Demand, cfg: EpochConfig,
                   opts: ModelOptions | None = None) -> Model:
    """Continuous flows without chunk identity: F and B are indexed by source
    only, a node consumes via per-epoch reads, and switches forward exactly
    what they receive."""
    opts = opts or ModelOptions()
    require_valid(t)
    check_demand_nodes(d, t)
    K = cfg.K
    kk = K - 1
    delta = {(e.src, e.dst): compute_delta(e, cfg.tau) for e in t.edges}

    sources = sorted({s for s, _, _ in d.entries}, key=str)
    units = {}  # (s, d) -> demanded chunk units
    for s, _, dst in d.entries:
        units[(s, dst)] = units.get((s, dst), 0) + 1
    out_units = {s: sum(v for (s2, _), v in units.items() if s2 == s) for s in sources}

    m = Model()
    m.meta.update({"cfg": cfg, "delta": delta, "units": units, "sources": sources})

    for s in sources:
        for e in t.edges:
            for k in range(K):
                idx = m.add_var("F", (s, e.src, e.dst, k))
                if k == 0 and e.src != s:
                    m.fix(idx, 0.0)  # only the source holds anything yet
        for n in t.nodes:
            if t.is_switch(n):
                continue
            for k in range(K + 1):
                idx = m.add_var("B", (s, n, k))
                if k == 0 and n != s:
                    m.fix(idx, 0.0)
    for (s, dst), u in sorted(units.items(), key=str):
        for k in range(K):
            idx = m.add_var("Rd", (s, dst, k), lb=0.0, ub=float(u))
            idx = m.add_var("Rc", (s, dst, k), lb=0.0, ub=float(u))
            if k == kk:
                m.fix(idx, float(u))

    # Source initialization: the source holds its full outgoing demand, less
    # whatever it already committed to epoch-0 sends.
    for s in sources:
        coeffs = [(m.var("B", s, s, 0), 1.0)]
        coeffs += [(m.var("F", s, s, e.dst, 0), 1.0) for e in t.out_edges(s)]
        m.add_eq(coeffs, float(out_units[s]))

    for e in t.edges:
        for k in range(K):
            m.add_le([(m.var("F", s, e.src, e.dst, k), 1.0) for s in sources],
                     float(cap_chunks(t, e, k, cfg)))

    # Conservation: buffer plus arrivals split into next buffer, reads, and
    # next-epoch sends. Switches neither buffer nor read.
    for s in sources:
        for n in t.nodes:
            in_edges = t.in_edges(n)
            out_edges = t.out_edges(n)
            if t.is_switch(n):
                for k in range(K):
                    coeffs = []
                    for e in in_edges:
                        k_in = k - delta[(e.src, e.dst)]
                        if k_in >= 0:
                            coeffs.append((m.var("F", s, e.src, n, k_in), 1.0))
                    if k + 1 <= kk:
                        coeffs += [(m.var("F", s, n, e.dst, k + 1), -1.0) for e in out_edges]
                    m.add_eq(coeffs, 0.0)
                continue
            for k in range(K):
                coeffs = [(m.var("B", s, n, k), 1.0), (m.var("B", s, n, k + 1), -1.0)]
                for e in in_edges:
                    k_in = k - delta[(e.src, e.dst)]
                    if k_in >= 0:
                        coeffs.append((m.var("F", s, e.src, n, k_in), 1.0))
                if m.has_var("Rd", s, n, k):
                    coeffs.append((m.var("Rd", s, n, k), -1.0))
                if k + 1 <= kk:
                    coeffs += [(m.var("F", s, n, e.dst, k + 1), -1.0) for e in out_edges]
                m.add_eq(coeffs, 0.0)
            if n != s:
                # Last epoch: whatever still lands must be consumed on arrival.
                coeffs = []
                for e in in_edges:
                    k_in = kk - delta[(e.src, e.dst)]
                    if k_in >= 0:
                        coeffs.append((m.var("F", s, e.src, n, k_in), 1.0))
                if m.has_var("Rd", s, n, kk):
                    coeffs.append((m.var("Rd", s, n, kk), -1.0))
                m.add_eq(coeffs, 0.0)

    for (s, dst), u in sorted(units.items(), key=str):
        for k in range(K):
            coeffs = [(m.var("Rc", s, dst, k), 1.0), (m.var("Rd", s, dst, k), -1.0)]
            if k >= 1:
                coeffs.append((m.var("Rc", s, dst, k - 1), -1.0))
            m.add_eq(coeffs, 0.0)

    if opts.buffer_limit is not None:
        for n in t.nodes:
            if t.is_switch(n):
                continue
            for k in range(K + 1):
                m.add_le([(m.var("B", s, n, k), 1.0) for s in sources],
                         float(opts.buffer_limit))

    for (s, dst), u in units.items():
        for k in range(K):
            m.add_objective_term(m.var("Rc", s, dst, k), 1.0 / (k + 1))
    return m


def lp_completion_epoch(sol: Solution) -> int:
    """Earliest epoch by which every pair's cumulative reads meet its demand."""
    units = sol.model.meta["units"]
    K = sol.model.meta["cfg"].K
    worst = 0
    for (s, dst), u in units.items():
        done = None
        for k in range(K):
            if sol.value("Rc", s, dst, k) >= u - TOL * max(1.0, u):
                done = k
                break
        if done is None:
            raise ConservationError(f"pair ({s!r},{dst!r}) never reaches its demand")
        worst = max(worst, done)
    return worst


def lp_rates_to_schedule(sol: Solution, t: Topology, d: Demand,
                         cfg: EpochConfig) -> Schedule:
    """Decompose per-source link rates into per-chunk fractional path events.

    Works backward from each read through the time-expanded flow, preferring
    mass that arrived earliest and breaking ties by lowest node id, so the
    emitted schedule is deterministic. Every demanded chunk's fractions sum
    to 1; residue above tolerance means the solution is corrupt.
    """
    if not sol.feasible:
        raise ValidationError(f"cannot schedule a solution with status {sol.status}")
    delta = sol.model.meta["delta"]
    K = cfg.K
    events: list[ScheduleEvent] = []

    sources = sol.model.meta["sources"]
    by_pair: dict[tuple, list[int]] = {}
    for s, c, dst in sorted(d.entries, key=lambda e: (str(e[0]), e[1], str(e[2]))):
        by_pair.setdefault((s, dst), []).append(c)

    for s in sources:
        fres = {}
        for (s2, i, j, k), v in sol.model.family_items("F"):
            if s2 == s:
                val = float(sol.x[v])
                if val > TOL:
                    fres[(i, j, k)] = val
        bres = {}
        for (s2, n, k), v in sol.model.family_items("B"):
            if s2 == s:
                val = float(sol.x[v])
                if val > TOL:
                    bres[(n, k)] = val
        rres = {}
        for (s2, dst, k), v in sol.model.family_items("Rd"):
            if s2 == s:
                val = float(sol.x[v])
                if val > TOL:
                    rres[(dst, k)] = val

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
                    k_read = _earliest_read(rres, dst, K)
                    if k_read is None:
                        raise ConservationError(
                            f"conservation residue: chunk {c} of {s!r} short by {need:.2e} at {dst!r}")
                    got, path_events = _peel(s, dst, k_read, min(need, rres[(dst, k_read)]),
                                             fres, bres, delta)
                    if got <= TOL:
                        raise ConservationError(
                            f"conservation residue: no backing path for read at epoch {k_read}")
                    rres[(dst, k_read)] -= got
                    if rres[(dst, k_read)] <= TOL:
                        del rres[(dst, k_read)]
                    need -= got
                    for (i, j, k, frac) in path_events:
                        events.append(ScheduleEvent(s, c, i, j, k, frac))
    events.sort(key=lambda e: (e.epoch, str(e.source), str(e.src), str(e.dst), e.chunk))
    merged = _merge_events(events)
    comp = lp_completion_epoch(sol)
    return Schedule(tau=cfg.tau, events=tuple(merged), completion_epoch=comp,
                    chunk_size=d.chunk_size)


def _earliest_read(rres, dst, K):
    for k in range(K):
        if rres.get((dst, k), 0.0) > TOL:
            return k
    return None


def _peel(s, dst, k_read, amount, fres, bres, delta):
    """Peel one backward path from a read event to the source's initial pool.

    Returns (fraction peeled, [(i, j, send_epoch, fraction)]).
    """
    # Walk backward through pool states (node, epoch) collecting arcs:
    # ('carry', n, k): buffer B[n,k] linking pool(n,k-1) -> pool(n,k)
    # ('flow', i, j, t): link send F[i,j,t] from pool(i,t-1) (or the source
    # init when t == 0) arriving into pool(j, t + delta).
    arcs = []
    node, k = dst, k_read
    while True:
        if node == s and k == 0:
            break
        carry = bres.get((node, k), 0.0)
        if carry > TOL:
            arcs.append(("carry", node, k))
            k -= 1
            if k < 0:
                raise ConservationError(f"buffer at {node!r} traces past epoch 0")
            continue
        found = None
        for (i, j, t), val in sorted(fres.items(), key=lambda kv: (str(kv[0][1]), str(kv[0][0]), kv[0][2])):
            if j == node and t + delta[(i, j)] == k and val > TOL:
                found = (i, j, t)
                break
        if found is None:
            return 0.0, []
        arcs.append(("flow", *found))
        i, j, t = found
        if t == 0:
            if i != s:
                return 0.0, []
            break
        node, k = i, t - 1
    bottleneck = amount
    for arc in arcs:
        if arc[0] == "carry":
            bottleneck = min(bottleneck, bres[(arc[1], arc[2])])
        else:
            bottleneck = min(bottleneck, fres[(arc[1], arc[2], arc[3])])
    if bottleneck <= TOL:
        return 0.0, []
    evs = []
    for arc in arcs:
        if arc[0] == "carry":
            key = (arc[1], arc[2])
            bres[key] -= bottleneck
            if bres[key] <= TOL:
                del bres[key]
        else:
            key = (arc[1], arc[2], arc[3])
            fres[key] -= bottleneck
            if fres[key] <= TOL:
                del fres[key]
            evs.append((arc[1], arc[2], arc[3], bottleneck))
    return bottleneck, evs


def _merge_events(events):
    merged: dict[tuple, float] = {}
    for e in events:
        key = (e.source, e.chunk, e.src, e.dst, e.epoch)
        merged[key] = merged.get(key, 0.0) + e.fraction
    return [ScheduleEvent(s, c, i, j, k, f)
            for (s, c, i, j, k), f in sorted(merged.items(), key=lambda kv: (
                kv[0][4], str(kv[0][0]), str(kv[0][2]), str(kv[0][3]), kv[0][1]))]
