import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from collsched import lp
from collsched.demand import Demand, generate_demand
from collsched.epochs import EpochConfig, epoch_duration
from collsched.errors import ConservationError, ValidationError
from collsched.lp import TOL, build_lp_model, horizon_lower_bound, lp_rates_to_schedule
from collsched.milp import ModelOptions, build_general_model
from collsched.simulator import SimOptions, simulate
from collsched.solver import completion_epoch, min_feasible_horizon, solve
from collsched.topology import Edge, Topology, dgx2, line, ring


def test_two_node_ring_alltoall_single_epoch(solver_opts):
    t = ring(2)
    d = generate_demand("alltoall", t, 1, 1)
    cfg = EpochConfig(1.0, 1)
    sol = solve(build_lp_model(t, d, cfg, ModelOptions()), solver_opts)
    assert sol.feasible
    assert completion_epoch(sol) == 0
    assert sol.objective == pytest.approx(2.0)


def test_latency_chain_completion(latency_chain, solver_opts):
    t, d = latency_chain
    builder = lambda k: build_lp_model(t, d, EpochConfig(1.0, k), ModelOptions())
    k, sol, _ = min_feasible_horizon(builder, 1, 12, solver_opts)
    assert k == 8
    assert completion_epoch(sol) == 7


def test_single_path_decomposes_to_one_event(solver_opts):
    t = Topology((0, 1), frozenset(), (Edge(0, 1, 1.0),))
    d = Demand(frozenset({(0, 0, 1)}), 1, 1)
    cfg = EpochConfig(1.0, 1)
    sol = solve(build_lp_model(t, d, cfg, ModelOptions()), solver_opts)
    sched = lp_rates_to_schedule(sol, d)
    assert len(sched.events) == 1
    e = sched.events[0]
    assert (e.source, e.chunk, e.src, e.dst, e.epoch) == (0, 0, 0, 1, 0)
    assert e.fraction == pytest.approx(1.0)


def test_parallel_paths_split_fractions(solver_opts):
    # two 0.5-capacity disjoint relay paths force a 50/50 chunk split
    t = Topology(("s", "a", "b", "d"), frozenset(), (
        Edge("s", "a", 0.5), Edge("s", "b", 0.5),
        Edge("a", "d", 0.5), Edge("b", "d", 0.5)))
    d = Demand(frozenset({("s", 0, "d")}), 1, 1)
    cfg = EpochConfig(1.0, 2)
    sol = solve(build_lp_model(t, d, cfg, ModelOptions()), solver_opts)
    assert sol.feasible
    sched = lp_rates_to_schedule(sol, d)
    by_chunk = sum(e.fraction for e in sched.events if e.src == "s")
    assert by_chunk == pytest.approx(1.0)
    fractions = sorted(e.fraction for e in sched.events)
    assert fractions == pytest.approx([0.5] * 4)
    rep = simulate(sched, t, d, SimOptions())
    assert rep.violations == []


def test_zero_rate_solution_raises_conservation_error(solver_opts):
    t = Topology((0, 1), frozenset(), (Edge(0, 1, 1.0),))
    d = Demand(frozenset({(0, 0, 1)}), 1, 1)
    cfg = EpochConfig(1.0, 2)
    sol = solve(build_lp_model(t, d, cfg, ModelOptions()), solver_opts)
    x = sol.x.copy()
    x[[idx for _, idx in sol.model.family_items("F")]] = 0.0
    corrupt = dataclasses.replace(sol, x=x)
    with pytest.raises(ConservationError, match="residue|backing"):
        lp_rates_to_schedule(corrupt, d)


def test_infeasible_solution_is_not_scheduled(solver_opts):
    # The all-to-all on ring(4) needs two hops, so one epoch is too few.
    t = ring(4)
    d = generate_demand("alltoall", t)
    sol = solve(build_lp_model(t, d, EpochConfig(1.0, 1), ModelOptions()), solver_opts)
    with pytest.raises(ValidationError, match="cannot schedule a solution with status infeasible"):
        lp_rates_to_schedule(sol, d)


def test_lp_schedule_respects_capacity(solver_opts):
    t = ring(4)
    d = generate_demand("alltoall", t, 1, 1)
    builder = lambda k: build_lp_model(t, d, EpochConfig(1.0, k), ModelOptions())
    k, sol, _ = min_feasible_horizon(builder, 1, 8, solver_opts)
    sched = lp_rates_to_schedule(sol, d)
    load = {}
    for e in sched.events:
        load[(e.src, e.dst, e.epoch)] = load.get((e.src, e.dst, e.epoch), 0.0) + e.fraction
    assert all(v <= 1.0 + 1e-6 for v in load.values())


def test_mass_conservation_per_pair(solver_opts):
    t = ring(4)
    d = generate_demand("alltoall", t, 2, 1)
    builder = lambda k: build_lp_model(t, d, EpochConfig(1.0, k), ModelOptions())
    k, sol, _ = min_feasible_horizon(builder, 1, 8, solver_opts)
    sched = lp_rates_to_schedule(sol, d)
    rep = simulate(sched, t, d, SimOptions())
    assert rep.violations == []
    # every demanded chunk fully delivered exactly once
    for s, c, dst in d.entries:
        assert (s, c, dst) in rep.per_entry_completion


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relaxation_dominance_small_rings(n, solver_opts):
    t = ring(n)
    d = generate_demand("alltoall", t, 1, 1)
    lp_k, _, _ = min_feasible_horizon(
        lambda k: build_lp_model(t, d, EpochConfig(1.0, k), ModelOptions()),
        1, 8, solver_opts)
    milp_k, _, _ = min_feasible_horizon(
        lambda k: build_general_model(t, d, EpochConfig(1.0, k), ModelOptions()),
        1, 8, solver_opts)
    assert lp_k <= milp_k
    assert lp_k == milp_k  # exact on these fixtures


def _reference_rates_to_schedule(sol, d, K):
    """The decomposition as first written: per source, three scans of the
    model and a sort of every positive flow at every hop; events merged after
    a stable sort. Kept as the reference the one-pass version must match."""
    delta = sol.model.meta["delta"]
    by_pair = {}
    for s, c, dst in sorted(d.entries, key=lambda e: (str(e[0]), e[1], str(e[2]))):
        by_pair.setdefault((s, dst), []).append(c)
    events = []
    for s in sol.model.meta["sources"]:
        res = {}
        for fam in ("F", "B", "Rd"):
            res[fam] = {key[1:]: float(sol.x[v]) for key, v in sol.model.family_items(fam)
                        if key[0] == s and float(sol.x[v]) > TOL}
        fres, bres, rres = res["F"], res["B"], res["Rd"]
        for (s2, dst), chunk_ids in sorted(by_pair.items(), key=str):
            for c in chunk_ids if s2 == s else ():
                need = 1.0
                while need > TOL:
                    k_read = next(k for k in range(K) if rres.get((dst, k), 0.0) > TOL)
                    arcs, node, k = [], dst, k_read
                    while not (node == s and k == 0):
                        if bres.get((node, k), 0.0) > TOL:
                            arcs.append((bres, (node, k)))
                            k -= 1
                            continue
                        i, j, t = next(f for f, _ in sorted(fres.items(), key=lambda kv: (
                            str(kv[0][1]), str(kv[0][0]), kv[0][2]))
                            if f[1] == node and f[2] + delta[(f[0], f[1])] == k)
                        arcs.append((fres, (i, j, t)))
                        if t == 0:
                            break
                        node, k = i, t - 1
                    got = min(need, rres[(dst, k_read)])
                    for table, key in arcs:
                        got = min(got, table[key])
                    for table, key in arcs + [(rres, (dst, k_read))]:
                        table[key] -= got
                        if table[key] <= TOL:
                            del table[key]
                    need -= got
                    events += [(s, c, *key, got) for table, key in arcs if table is fres]
    events.sort(key=lambda e: (e[4], str(e[0]), str(e[2]), str(e[3]), e[1]))
    merged = {}
    for *key, frac in events:
        merged[tuple(key)] = merged.get(tuple(key), 0.0) + frac
    return sorted(((*key, f) for key, f in merged.items()),
                  key=lambda e: (e[4], str(e[0]), str(e[2]), str(e[3]), e[1]))


@pytest.mark.parametrize("t, kind, chunks", [
    (ring(6), "alltoall", 1),
    (ring(4), "alltoall", 2),
    (ring(4), "allgather", 1),
    (line(4, capacity=0.5, alpha=1.0), "alltoall", 1),
])
def test_decomposition_matches_reference(t, kind, chunks, solver_opts):
    d = generate_demand(kind, t, chunks, 1)
    builder = lambda k: build_lp_model(t, d, EpochConfig(1.0, k), ModelOptions())
    k, sol, _ = min_feasible_horizon(builder, 1, 16, solver_opts)
    sched = lp_rates_to_schedule(sol, d)
    got = [(e.source, e.chunk, e.src, e.dst, e.epoch, e.fraction) for e in sched.events]
    assert got == _reference_rates_to_schedule(sol, d, k)


@st.composite
def _bound_inputs(draw):
    """A small line, ring, star (around a switch) or two linked pairs joined
    by a bridge of 1/4 chunk per epoch, with per-edge capacities of 2 to
    1/3 chunks per epoch, alphas of 0 to 2 epochs, overrides that raise or
    lower an edge's capacity at one of the first epochs, and a unicast
    (alltoall) or multicast (allgather) demand."""
    shape = draw(st.sampled_from(["line", "ring", "star", "bridge"]))
    n = draw(st.integers(3 if shape == "ring" else 2, 4))

    def link(i, j):
        return Edge(i, j, draw(st.sampled_from([2.0, 1.0, 0.5, 1 / 3])),
                    draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))

    if shape == "star":
        nodes, switches = tuple(range(n)) + ("h",), frozenset({"h"})
        pairs = [(i, "h") for i in range(n)]
    elif shape == "bridge":
        # Every unit between the pairs crosses the bridge: a cut that
        # neither the ingress nor the link-volume cut of the bound sees.
        nodes, switches = (0, 1, 2, 3), frozenset()
        pairs = [(0, 1), (2, 3)]
    else:
        nodes, switches = tuple(range(n)), frozenset()
        pairs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)] * (shape == "ring")
    edges = tuple(e for i, j in pairs for e in (link(i, j), link(j, i)))
    if shape == "bridge":
        edges += (Edge(0, 2, 0.25), Edge(2, 0, 0.25))
    overrides = draw(st.dictionaries(
        st.tuples(st.sampled_from([(e.src, e.dst) for e in edges]), st.integers(0, 3)),
        st.sampled_from([4.0, 0.25]), max_size=3))
    t = Topology(nodes, switches, edges, {(i, j, k): c for ((i, j), k), c in overrides.items()})
    d = generate_demand(draw(st.sampled_from(["allgather", "alltoall"])), t,
                        draw(st.integers(1, 2)))
    return t, d


def _feasible(t, d, K):
    return solve(build_lp_model(t, d, EpochConfig(1.0, K))).feasible


@settings(max_examples=25, deadline=None)
@given(_bound_inputs())
def test_horizon_lower_bound_is_sound(case):
    # Plain bisection from 1, relying on nothing but feasibility being
    # monotone in the horizon.
    t, d = case
    hi = 1
    while not _feasible(t, d, hi):
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(t, d, mid):
            hi = mid
        else:
            lo = mid + 1
    assert 1 <= horizon_lower_bound(t, d, 1.0) <= lo


def test_horizon_lower_bound_is_tight_on_dgx2_alltoall():
    # Each GPU reads 15 units over its one link from the switch, a chunk per
    # epoch; the link first sends at epoch 2 (GPU to switch is one epoch,
    # forwarding the next), so the last unit lands at epoch 17.
    t = dgx2()
    d = generate_demand("alltoall", t, 1, 1 << 20)
    assert horizon_lower_bound(t, d, epoch_duration(t, d.chunk_size)) == 18


@pytest.mark.parametrize("t, unit_hops, bound, k_star", [
    (ring(6), 54, 5, 5),  # 12 links: 4.5 epochs
    (line(5), 40, 5, 6),  # 8 links
    (ring(4), 16, 2, 2),  # 8 links; reachability and ingress give 2 too
], ids=["ring6", "line5", "ring4"])
def test_horizon_lower_bound_counts_link_volume(t, unit_hops, bound, k_star, monkeypatch):
    # Each unit crosses at least its pair's hop count of links, each link
    # carrying a chunk per epoch. The volume cut is the bound's last.
    d = generate_demand("alltoall", t)
    cuts = _record_cuts(monkeypatch)
    assert horizon_lower_bound(t, d, 1.0) == bound
    assert cuts[-1] == (pytest.approx(unit_hops * (1 - TOL)), bound)
    assert not _feasible(t, d, k_star - 1) and _feasible(t, d, k_star)


def test_link_volume_stays_below_the_ingress_cut_on_dgx2_alltoall(monkeypatch):
    # 240 units over two hops each, 32 links of a chunk per epoch: 15
    # epochs, below the ingress cut's 18, so the search's first LP probe is
    # still its last.
    cuts = _record_cuts(monkeypatch)
    t = dgx2()
    d = generate_demand("alltoall", t, 1, 1 << 20)
    assert horizon_lower_bound(t, d, epoch_duration(t, d.chunk_size)) == 18
    assert cuts[-1] == (pytest.approx(480 * (1 - TOL)), 15)
    assert max(epochs for _, epochs in cuts[:-1]) == 18


def _record_cuts(monkeypatch) -> list:
    """(units, epochs) of every capacity cut `horizon_lower_bound` takes."""
    cuts, real = [], lp._landing_epoch

    def record(need, edges):
        epoch = real(need, edges)
        cuts.append((need, epoch + 1))
        return epoch

    monkeypatch.setattr(lp, "_landing_epoch", record)
    return cuts


def test_horizon_lower_bound_counts_overrides():
    # Six chunks over one link of a chunk per epoch, tripled at epoch 1.
    t = Topology((0, 1), frozenset(), (Edge(0, 1, 1.0),))
    d = Demand(frozenset((0, c, 1) for c in range(6)), 6, 1)
    assert horizon_lower_bound(t, d, 1.0) == 6
    faster = Topology(t.nodes, t.switches, t.edges, {(0, 1, 1): 3.0})
    assert horizon_lower_bound(faster, d, 1.0) == 4
    assert not _feasible(faster, d, 3) and _feasible(faster, d, 4)


def test_horizon_lower_bound_refuses_an_unreachable_pair():
    t = Topology((0, 1, 2), frozenset(), (Edge(0, 1, 1.0), Edge(1, 0, 1.0), Edge(1, 2, 1.0)))
    with pytest.raises(ValidationError, match="from 2 to 0 has no path"):
        horizon_lower_bound(t, Demand(frozenset({(2, 0, 0)}), 1, 1), 1.0)
