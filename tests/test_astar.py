import math
from collections import Counter
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collsched import astar
from collsched.astar import (RoundState, advance_state, astar_solve, build_round_model,
                             initial_state, round_template, solve_round)
from collsched.demand import Demand, generate_demand
from collsched.epochs import EpochConfig, epoch_duration, link_timing
from collsched.errors import RoundLimitError, SolverBackendError, ValidationError
from collsched.milp import COPY, HYPER_EDGE, NO_COPY, Carry, ModelOptions, model_topology
from collsched.simulator import SimOptions, simulate
from collsched.solver import solve
from collsched.topology import Edge, Topology, all_pairs_distances, dgx1, line, ring, star
from collsched.workflow import synthesize

alpha = attrgetter("alpha")


class TestFloydWarshall:
    def test_line_alpha_sums(self):
        fw = all_pairs_distances(line(3, alpha=1.0), alpha)
        assert fw[0, 2] == 2.0
        assert fw[0, 1] == fw[1, 2] == 1.0
        assert fw[0, 0] == 0.0

    def test_zero_alpha_complete_graph(self):
        fw = all_pairs_distances(ring(4, alpha=0.0), alpha)
        assert all(fw[a, b] == 0.0 for a in range(4) for b in range(4))

    def test_latency_chain_prefers_direct_edge(self, latency_chain):
        t, _ = latency_chain
        fw = all_pairs_distances(t, alpha)
        # s2 only reaches d through its single 5s edge plus the free hop
        assert fw["s2", "d"] == 5.0
        assert fw["s1", "d"] == 3.0

    def test_unreachable_is_infinite(self):
        t = star(3)  # no path back toward s
        fw = all_pairs_distances(t, alpha)
        assert math.isinf(fw["d1", "s"])

    def test_triangle_inequality(self):
        t = ring(6, alpha=2.0)
        fw = all_pairs_distances(t, alpha)
        for a in t.nodes:
            for b in t.nodes:
                for c in t.nodes:
                    assert fw[a, c] <= fw[a, b] + fw[b, c] + 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), data=st.data())
def test_distances_match_floyd_warshall(n, data):
    # Random directed graphs, some pairs unreachable. Paths are summed in
    # another order than Floyd-Warshall's, so equal up to rounding.
    pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda p: p[0] != p[1]), max_size=n * (n - 1)))
    t = Topology(tuple(range(n)), frozenset(), tuple(
        Edge(a, b, 1.0, data.draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))) for a, b in sorted(pairs)))
    ref = {(a, b): 0.0 if a == b else math.inf for a in t.nodes for b in t.nodes}
    for e in t.edges:
        ref[e.src, e.dst] = e.alpha
    for mid in t.nodes:
        for a in t.nodes:
            for b in t.nodes:
                ref[a, b] = min(ref[a, b], ref[a, mid] + ref[mid, b])
    assert all_pairs_distances(t, alpha) == pytest.approx(ref, rel=1e-12)


def test_round_distance_counts_hops_at_zero_alpha():
    # Progress toward node 2 is weighed by hops on a line with no latency:
    # GAMMA / (1 + 2) from node 0 and GAMMA / (1 + 1) from node 1, at k' = 0.
    t = line(3, alpha=0.0)
    m, _ = round_template(t, Demand(frozenset({(0, 0, 2)}), 1, 1), EpochConfig(1.0, 2))
    objective = dict(zip(*(a.tolist() for a in m.objective_arrays())))
    assert objective[m.var("P", 0, 2, 0)] == astar.GAMMA / 3
    assert objective[m.var("P", 1, 2, 0)] == astar.GAMMA / 2


def _round(t, state, cfg, opts=None):
    """The round model of `state`, from a template over its unmet demand."""
    return build_round_model(round_template(t, state.demand, cfg, opts), state)


class TestRoundModel:
    def test_round_too_short_for_link_delay(self):
        t = line(3, alpha=3.0)
        d = Demand(frozenset({(0, 0, 2)}), 1, 1)
        cfg = EpochConfig(1.0, 2)  # max link delay is 3 epochs
        with pytest.raises(ValidationError, match="max link delay"):
            _round(t, initial_state(d), cfg)

    def test_satisfied_demand_round_is_zero_flow(self, solver_opts):
        # no residual entries: the model trivially solves with no flows
        t = line(2)
        cfg = EpochConfig(1.0, 2)
        state = RoundState(1, Demand(frozenset(), 1, 1), Carry({(0, 0, 0, 0): 1}))
        m = _round(t, state, cfg)
        sol = solve(m, solver_opts)
        assert sol.feasible
        assert sol.family_values("F", 0.5) == {}

    @staticmethod
    def _fixed_sends(t, state, opts):
        cfg = EpochConfig(1.0, 4)
        m = _round(t, state, cfg, opts)
        return {(i, j, k) for (_, _, i, j, k), idx in m.family_items("F")
                if m.lb[idx] == m.ub[idx] == 0.0}

    def test_sends_into_a_holder_are_fixed(self):
        # Node 0 holds the chunk at epoch 0 and a carried copy lands at node
        # 2 usable from epoch 2. Every hop takes one epoch, so a send into 0
        # is never needed, nor one into 2 that lands at epoch 2 or later.
        t = line(3)
        d = Demand(frozenset({(0, 0, 1), (0, 0, 2)}), 1, 1)
        state = RoundState(1, d, Carry({(0, 0, 0, 0): 1, (0, 0, 2, 2): 1}))
        reach = {(1, 0, 0), (1, 2, 0), (2, 1, 0), (2, 1, 1)}  # k below the sender's reach
        held = {(1, 0, k) for k in range(4)} | {(1, 2, k) for k in range(1, 4)}
        assert self._fixed_sends(t, state, ModelOptions()) == reach | held
        # A buffer limit lets a node drop its copy, so the rule stays off.
        assert self._fixed_sends(t, state, ModelOptions(buffer_limit=2)) == reach

    @pytest.mark.parametrize("mode", [COPY, NO_COPY])
    def test_no_copy_switch_sends_into_a_holder_stay_free(self, mode):
        # The switch holds a carried arrival usable from epoch 1; GPU 0 holds
        # the chunk. A no-copy switch must forward the arrival, possibly back
        # into GPU 0, so none of its sends is fixed past its reach.
        t = Topology((0, 1, "h"), frozenset({"h"}),
                     tuple(Edge(a, b, 1.0) for a, b in
                           ((0, "h"), ("h", 0), (1, "h"), ("h", 1))))
        d = Demand(frozenset({(0, 0, 1)}), 1, 1)
        state = RoundState(1, d, Carry({(0, 0, 0, 0): 1, (0, 0, "h", 1): 1}))
        fixed = self._fixed_sends(t, state, ModelOptions(switch_mode=mode))
        out_of_h = {(j, k) for i, j, k in fixed if i == "h"}
        assert out_of_h == ({(0, 0), (1, 0)} if mode == NO_COPY
                            else {(0, k) for k in range(4)} | {(1, 0)})

    def test_in_transit_reward_below_delivered(self):
        t = line(3, alpha=0.0)
        cfg = EpochConfig(1.0, 2)
        d = Demand(frozenset({(0, 0, 2)}), 1, 1)
        m = _round(t, initial_state(d), cfg)
        objective = dict(zip(*(a.tolist() for a in m.objective_arrays())))
        weights = {}
        for (loc, dst, kp), idx in m.family_items("P"):
            weights[(loc, dst, kp)] = objective.get(idx, 0.0)
        for (loc, dst, kp), w in weights.items():
            if loc != dst:
                assert w < weights[(dst, dst, kp)]


class TestAstarSolve:
    def test_empty_demand_zero_rounds(self, solver_opts):
        t = line(2)
        d = Demand(frozenset(), 1, 1)
        sched = astar_solve(t, d, 1.0, 2, solver_opts=solver_opts)
        assert sched.events == () and sched.meta["rounds"] == 0
        assert sched.transfer_time == 0.0

    def test_star3_single_epoch_rounds(self, star3, solver_opts):
        t, d = star3
        sched = astar_solve(t, d, 1.0, 1, solver_opts=solver_opts)
        assert sched.meta["rounds"] == 2
        assert sched.completion_epoch == 1  # matches the one-shot optimum
        assert len(sched.events) == 4

    def test_line3_moves_then_delivers(self, solver_opts):
        t = line(3)
        d = Demand(frozenset({(0, 0, 2)}), 1, 1)
        sched = astar_solve(t, d, 1.0, 1, solver_opts=solver_opts)
        assert sched.meta["rounds"] == 2
        assert [(e.src, e.dst, e.epoch) for e in sched.events] == [(0, 1, 0), (1, 2, 1)]

    def test_unreachable_demand_rejected(self, solver_opts):
        t = star(3)
        d = Demand(frozenset({("d1", 0, "d2")}), 1, 1)
        with pytest.raises(ValidationError, match="unreachable"):
            astar_solve(t, d, 1.0, 2, solver_opts=solver_opts)

    def test_rounds_run_while_entries_are_met(self, solver_opts):
        # One chunk a round over one link: 80 rounds, far past any fixed cap,
        # each of which meets an entry.
        d = Demand(frozenset((0, c, 1) for c in range(80)), 80, 1)
        sched = astar_solve(line(2), d, 1.0, 1, solver_opts=solver_opts)
        assert sched.meta["rounds"] == 80
        assert sched.completion_epoch == 79

    def test_round_that_changes_nothing_is_refused(self, monkeypatch, solver_opts):
        # With every send fixed to zero no round meets an entry. line(3) with
        # 2-epoch rounds: N = 3, max_delta 0 and K = 2 give a 3-round window.
        real, built = astar.build_round_model, []

        def frozen(*args, **kwargs):
            m = real(*args, **kwargs)
            m.fix([idx for _, idx in m.family_items("F")], 0.0)
            built.append(m)
            return m

        monkeypatch.setattr(astar, "build_round_model", frozen)
        t = line(3)
        d = Demand(frozenset({(0, 0, 2)}), 1, 1)
        with pytest.raises(RoundLimitError,
                           match=r"no demand entry met in the 3 rounds to round 2: 1 unmet"):
            astar_solve(t, d, 1.0, 2, solver_opts=solver_opts)
        assert len(built) == 3

    def test_residual_demand_never_grows(self, solver_opts):
        t = ring(6, alpha=1.0)
        d = generate_demand("allgather", t, 1, 1)
        cfg = EpochConfig(1.0, 3)
        template, timing = round_template(t, d, cfg), link_timing(t, cfg)
        state = initial_state(d)
        sizes = [len(state.demand.entries)]
        for _ in range(12):
            if not state.demand.entries:
                break
            sol = solve(build_round_model(template, state), solver_opts)
            state = advance_state(state, sol, timing)
            sizes.append(len(state.demand.entries))
        assert sizes[-1] == 0
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_chunks_survive_round_boundaries(self, solver_opts):
        # delayed cross-boundary arrivals must show up in the next rounds;
        # the independent replay of the stitched schedule proves no loss.
        t = line(4, alpha=1.0)
        d = Demand(frozenset({(0, 0, 3), (0, 0, 2)}), 1, 1)
        sched = astar_solve(t, d, 1.0, 2, solver_opts=solver_opts)
        rep = simulate(sched, t, d, SimOptions())
        assert rep.violations == []
        assert rep.completion_epoch == sched.completion_epoch

    def test_round_boundary_keeps_slow_link_windows(self, solver_opts):
        # (0,1) holds a chunk for 3 epochs, so a send in a round's last epoch
        # still fills the link's window in the next round's first two.
        t = Topology((0, 1, 2), frozenset(), (Edge(0, 1, 1 / 3), Edge(1, 0, 1 / 3),
                                              Edge(1, 2, 1.0), Edge(2, 1, 1.0)))
        d = generate_demand("alltoall", t, 1, 1)
        sched = astar_solve(t, d, 1.0, 2, solver_opts=solver_opts)
        rep = simulate(sched, t, d, SimOptions())
        assert rep.violations == []
        assert rep.completion_epoch == sched.completion_epoch == 8

    def test_round_waiting_on_a_carried_arrival_is_progress(self, solver_opts):
        # Node 0 broadcasts two chunks over a link that holds each for 3
        # epochs, in rounds of 2. Round 1 sends the second chunk in its last
        # epoch: it lands at node 1 usable from epoch 2 = K of round 2, and
        # the link stays busy through round 2. So round 2 places no flow and
        # meets no demand, but its carry changes (the arrival becomes a held
        # chunk), and round 3 forwards it to node 2.
        t = Topology((0, 1, 2), frozenset(), (Edge(0, 1, 1 / 3), Edge(1, 0, 1 / 3),
                                              Edge(1, 2, 1.0), Edge(2, 1, 1.0)))
        d = Demand(frozenset((0, c, j) for c in range(2) for j in (1, 2)), 2, 1)
        cfg = EpochConfig(1.0, 2)
        timing, template = link_timing(t, cfg), round_template(t, d, cfg)
        states, placed = [initial_state(d)], []
        while states[-1].demand.entries:
            sol = solve(build_round_model(template, states[-1]), solver_opts)
            placed.append(sol.family_values("F", 0.5))
            states.append(advance_state(states[-1], sol, timing))
        waiting, after = states[2], states[3]
        assert placed[2] == {} and after.demand == waiting.demand
        [c] = [c for (_, c, n, k) in waiting.carry.arrivals if (n, k) == (1, cfg.K)]
        assert after.carry.arrivals[(0, c, 1, 0)] == 1
        sched = astar_solve(t, d, cfg.tau, cfg.K, solver_opts=solver_opts)
        rep = simulate(sched, t, d, SimOptions())
        assert rep.violations == []
        assert rep.completion_epoch == sched.completion_epoch == 8
        assert sched.meta["rounds"] == len(placed) == 4

    def test_resent_chunk_earns_no_progress(self, solver_opts):
        # Two chunks from node 0 are wanted at node 2 over a 0->1 link that
        # holds a chunk for 3 epochs. Once node 1 holds chunk 0, resending it
        # cannot count as progress toward node 2: chunk 1 goes out at epoch
        # 3, as when both chunks are broadcast to nodes 1 and 2.
        t = Topology((0, 1, 2), frozenset(), (Edge(0, 1, 1 / 3), Edge(1, 2, 1.0)))
        d = Demand(frozenset({(0, 0, 2), (0, 1, 2)}), 2, 1)
        sched = astar_solve(t, d, 1.0, 2, solver_opts=solver_opts)
        rep = simulate(sched, t, d, SimOptions())
        assert rep.violations == []
        assert rep.completion_epoch == sched.completion_epoch == 8

    def test_no_copy_switch_forwards_into_holders(self):
        # Round 1 must forward chunks carried into the switch, and some can
        # only go back to GPUs that already hold them.
        edges = tuple(e for i in range(4)
                      for e in (Edge(i, "h", 1.0, 1.0), Edge("h", i, 1.0, 1.0)))
        t = Topology((0, 1, 2, 3, "h"), frozenset({"h"}), edges)
        result = synthesize(t, generate_demand("allgather", t, 1, 1), "astar",
                            switch_mode=NO_COPY)
        assert result.report.ok
        assert result.epochs == 7

    def test_switch_arrival_at_the_round_boundary_is_carried(self):
        # a->h runs at 1% for epochs 0-2 and takes 4 s, so a send at epoch 3
        # lands at the copy switch at round 1's epoch 4, where that round has
        # no switch row. Round 2 forwards it: completion 8, the MILP's
        # optimum (9 when the arrival was dropped and the chunk resent).
        t = Topology(("a", "h", "b"), frozenset({"h"}),
                     (Edge("a", "h", 1.0, 4.0), Edge("h", "b", 1.0)),
                     {("a", "h", k): 0.01 for k in range(3)})
        d = Demand(frozenset({("a", 0, "b")}), 1, 1)
        result = synthesize(t, d, "astar")
        assert result.report.ok
        assert [(e.src, e.dst, e.epoch) for e in result.schedule.events] == [
            ("a", "h", 3), ("h", "b", 8)]
        assert synthesize(t, d, "milp", search_horizon=True).epochs == result.epochs == 9

    def test_rounds_see_overrides_at_their_own_epochs(self, solver_opts):
        # Only global epoch 1 carries 3 chunks; round 1 (epochs 2-3) must not
        # reuse the override at its local epoch 1.
        t = Topology((0, 1), frozenset(), (Edge(0, 1, 1.0), Edge(1, 0, 1.0)),
                     {(0, 1, 1): 3.0})
        d = Demand(frozenset((0, c, 1) for c in range(8)), 8, 1)
        sched = astar_solve(t, d, 1.0, 2, solver_opts=solver_opts)
        per_epoch = Counter(e.epoch for e in sched.events)
        assert per_epoch[1] == 3
        assert all(n <= 1 for k, n in per_epoch.items() if k != 1)
        assert sum(per_epoch.values()) == 8

    def test_never_beats_one_shot_optimum(self, solver_opts):
        from collsched.milp import build_general_model
        from collsched.solver import min_feasible_horizon
        t = ring(8)
        d = generate_demand("allgather", t, 1, 1)
        k_opt, _, _ = min_feasible_horizon(
            lambda k: build_general_model(t, d, EpochConfig(1.0, k), ModelOptions()),
            1, 10, solver_opts)
        sched = astar_solve(t, d, 1.0, 2, solver_opts=solver_opts)
        assert sched.completion_epoch + 1 >= k_opt


@pytest.mark.parametrize("alpha, epochs", [(5.5, 6), (0.0, 4)])
def test_default_round_length(alpha, epochs, solver_opts):
    # 4 epochs, or the largest link delay when that is longer.
    d = Demand(frozenset({(0, 0, 2)}), 1, 1)
    sched = astar_solve(line(3, alpha=alpha), d, 1.0, solver_opts=solver_opts)
    assert sched.meta["epochs_per_round"] == epochs


def test_zero_round_length_is_refused():
    d = Demand(frozenset({(0, 0, 2)}), 1, 1)
    with pytest.raises(ValidationError, match="K must be >= 1"):
        astar_solve(line(3), d, 1.0, 0)


@st.composite
def _astar_inputs(draw):
    """A small line, ring or star (around a switch) with per-edge capacities
    of 2 to 1/3 chunks per epoch and alphas of 0 to 2 epochs, a collective on
    it, a switch mode, and epochs per round no fewer than the largest delay."""
    shape = draw(st.sampled_from(["line", "ring", "star"]))
    n = draw(st.integers(3 if shape == "ring" else 2, 4))

    def link(i, j):
        return Edge(i, j, draw(st.sampled_from([2.0, 1.0, 0.5, 1 / 3])),
                    draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))

    if shape == "star":
        nodes, switches = tuple(range(n)) + ("h",), frozenset({"h"})
        pairs = [(i, "h") for i in range(n)]
    else:
        nodes, switches = tuple(range(n)), frozenset()
        pairs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)] * (shape == "ring")
    t = Topology(nodes, switches, tuple(e for i, j in pairs for e in (link(i, j), link(j, i))))
    d = generate_demand(draw(st.sampled_from(["allgather", "alltoall"])), t,
                        draw(st.integers(1, 2)))
    opts = ModelOptions(switch_mode=draw(st.sampled_from([COPY, NO_COPY, HYPER_EDGE])))
    k = max(draw(st.integers(1, 4)),
            link_timing(model_topology(t, opts)[0], EpochConfig(1.0, 1)).max_delta)
    return t, d, opts, k


@settings(max_examples=60, deadline=None)
@given(_astar_inputs())
def test_returned_schedules_replay_as_claimed(case):
    t, d, opts, k = case
    try:
        sched = astar_solve(t, d, 1.0, k, opts=opts)
    except (RoundLimitError, SolverBackendError):
        return  # no schedule came back, so nothing is claimed
    rep = simulate(sched, t, d, SimOptions(opts.switch_mode))
    assert rep.violations == []
    assert rep.completion_epoch == sched.completion_epoch


@settings(max_examples=40, deadline=None)
@given(_astar_inputs())
def test_relaxation_first_rounds_keep_the_milp_optimum(case):
    # Each round solved as its LP relaxation first ends at the optimum of
    # the round's MILP, with every binary within 1e-6 of 0 or 1.
    t, d, opts, k = case
    rounds = []

    def both(m, solver_opts=None):
        rounds.append((solve_round(m, solver_opts), solve(m, solver_opts)))
        return rounds[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(astar, "solve_round", both)
        try:
            astar_solve(t, d, 1.0, k, opts=opts)
        except (RoundLimitError, SolverBackendError):
            pass  # the rounds solved so far are still checked
    for first, whole in rounds:
        assert first.status == whole.status
        if whole.feasible:
            scale = max(1.0, abs(whole.objective))
            assert abs(first.objective - whole.objective) <= 1e-9 * scale
            binaries = first.x[first.model.binary]
            assert np.all(np.abs(binaries - np.rint(binaries)) <= 1e-6)


def test_fractional_relaxation_falls_back_to_the_round_milp(monkeypatch, solver_opts):
    # With every relaxation made fractional, each round is solved again as
    # its MILP: the schedule is the one that solving every round as its MILP
    # gives, and the HiGHS time sums both solves of every round.
    t = ring(6)
    d = generate_demand("alltoall", t)
    real, times = astar.solve, []

    def fractional(m, opts=None):
        sol = real(m, opts)
        times.append(sol.solve_wall_time)
        if opts.vertex:
            sol.x = sol.x.copy()
            sol.x[m.families["F"].index.flat[0]] = 0.5
        return sol

    monkeypatch.setattr(astar, "solve", fractional)
    fell_back = astar_solve(t, d, 1.0, 2, solver_opts=solver_opts)
    rounds = fell_back.meta["rounds"]
    assert rounds >= 2 and len(times) == 2 * rounds
    assert fell_back.meta["solver_wall_time_sec"] == pytest.approx(sum(times), rel=1e-12)
    assert fell_back.meta["status"] == astar.OPTIMAL_PER_ROUND
    monkeypatch.setattr(astar, "solve_round", lambda m, opts=None: solve(m, opts))
    assert fell_back.events == astar_solve(t, d, 1.0, 2, solver_opts=solver_opts).events


@pytest.mark.parametrize("t, chunk, by", [
    (dgx1(), 1 << 20, 14),
    (line(8, alpha=1.0), 1, 43),
], ids=["dgx1", "line8-alpha1"])
def test_alltoall_completes_by(t, chunk, by):
    # Sends start as early as a round's optimum allows: 17 and 47 without
    # the early-send term.
    result = synthesize(t, generate_demand("alltoall", t, 1, chunk), "astar")
    assert result.report.ok
    assert result.schedule.completion_epoch <= by


def _progress(sol) -> float:
    """The objective of a solved round model without its send terms."""
    idx, coef = sol.model.objective_arrays()
    keep = ~np.isin(idx, sol.model.families["F"].index)
    return float(coef[keep] @ sol.x[idx[keep]])


def test_early_sends_only_break_ties(monkeypatch, solver_opts):
    # Each round's optimum with the early-send term keeps the progress and
    # read rewards of the optimum without it: the term only picks among them.
    t = dgx1()
    d = generate_demand("alltoall", t, 1, 1 << 20)
    cfg = EpochConfig(epoch_duration(t, 1 << 20), 4, 1 << 20)
    timing, template = link_timing(t, cfg), round_template(t, d, cfg)
    with monkeypatch.context() as mp:
        mp.setattr(astar, "EARLY_SEND", 0.0)
        without = round_template(t, d, cfg)
    state, rounds = initial_state(d), 0
    while state.demand.entries:
        sol = solve_round(build_round_model(template, state), solver_opts)
        plain = solve_round(build_round_model(without, state), solver_opts)
        assert _progress(sol) == pytest.approx(plain.objective, abs=1e-9)
        assert sol.objective > plain.objective  # the term is in the objective
        state, rounds = advance_state(state, sol, timing), rounds + 1
    assert rounds >= 3
