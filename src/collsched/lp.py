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

    Reads F, B and Rd once. Each demanded chunk peels paths (`_peel`) from
    its pair's earliest unconsumed reads until its fractions sum to 1; the
    fractions of one (source, chunk, edge, epoch) are summed as peeled, so
    the schedule is deterministic. Residue above tolerance means the solution
    is corrupt.
    """
    if not sol.feasible:
        raise ValidationError(f"cannot schedule a solution with status {sol.status}")
    delta = sol.model.meta["delta"]
    fres, bres, rres = (_above_tol(sol, family) for family in ("F", "B", "Rd"))
    by_pair: dict[tuple, list[int]] = {}
    for s, c, dst in sorted(d.entries, key=lambda e: (str(e[0]), e[1], str(e[2]))):
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
    events = [ScheduleEvent(*key, f) for key, f in sorted(fractions.items(), key=lambda kv: (
        kv[0][4], str(kv[0][0]), str(kv[0][2]), str(kv[0][3]), kv[0][1]))]
    return Schedule(tau=cfg.tau, events=tuple(events), completion_epoch=lp_completion_epoch(sol),
                    chunk_size=d.chunk_size)


def _above_tol(sol: Solution, family: str) -> dict:
    """source -> {rest of key: value} for the family's values above TOL."""
    out: dict = {}
    for (s, *rest), idx in sol.model.family_items(family):
        val = float(sol.x[idx])
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
