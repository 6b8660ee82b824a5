import dataclasses

import pytest

from collsched import estimator
from collsched.demand import Demand, generate_demand
from collsched.epochs import EpochConfig, epoch_duration, link_timing
from collsched.errors import ValidationError
from collsched.estimator import default_candidates, estimate_epoch_upper_bound
from collsched.milp import ModelOptions, build_general_model, build_time_expanded, model_topology
from collsched.model import INF
from collsched.schedule import extract_schedule, prune_unused_flows
from collsched.simulator import simulate
from collsched.solver import INFEASIBLE, OPTIMAL, TOL, min_feasible_horizon, solve
from collsched.topology import (Edge, Topology, all_pairs_distances, dgx1, dgx2,
                                hyper_edge_transform, line, ring, star)


def _min_horizon(t, d, opts, hi, solver_opts, cfg_kwargs=None):
    kw = cfg_kwargs or {}
    builder = lambda k: build_general_model(t, d, EpochConfig(K=k, **kw), opts)
    return min_feasible_horizon(builder, 1, hi, solver_opts)[:2]


class TestSwitchModes:
    def test_copy_star3_two_epochs(self, star3, solver_opts):
        t, d = star3
        k, _ = _min_horizon(t, d, ModelOptions(), 8, solver_opts, {"tau": 1.0})
        assert k == 2

    def test_no_copy_star3_four_epochs(self, star3, solver_opts):
        t, d = star3
        k, _ = _min_horizon(t, d, ModelOptions(switch_mode="no-copy"), 8,
                            solver_opts, {"tau": 1.0})
        assert k == 4

    def test_no_copy_switch_never_duplicates(self, star3, solver_opts):
        t, d = star3
        sol = solve(build_general_model(t, d, EpochConfig(1.0, 4),
                                        ModelOptions(switch_mode="no-copy")), solver_opts)
        flows = sol.family_values("F", 0.5)
        into_h = sum(1 for (s, c, i, j, k) in flows if j == "h")
        out_of_h = sum(1 for (s, c, i, j, k) in flows if i == "h")
        assert into_h == out_of_h == 3  # one traversal per destination

    def test_hyper_edge_star3(self, star3, solver_opts):
        t, d = star3
        k, sol = _min_horizon(t, d, ModelOptions(switch_mode="hyper-edge"), 8,
                              solver_opts, {"tau": 1.0})
        # one hyper-edge use per epoch (in-degree 1), three destinations
        assert k == 3
        flows = sol.family_values("F", 0.5)
        assert all(i == "s" for (_, _, i, _, _) in flows)


class TestFunnel:
    def test_three_epochs_unlimited_buffers(self, funnel3, solver_opts):
        t, d = funnel3
        k, _ = _min_horizon(t, d, ModelOptions(), 8, solver_opts, {"tau": 1.0})
        assert k == 3

    def test_three_epochs_with_buffer_limit(self, funnel3, solver_opts):
        t, d = funnel3
        k, _ = _min_horizon(t, d, ModelOptions(buffer_limit=3), 8,
                            solver_opts, {"tau": 1.0})
        assert k == 3

    def test_buffer_limit_rows_respected(self, funnel3, solver_opts):
        t, d = funnel3
        sol = solve(build_general_model(t, d, EpochConfig(1.0, 3),
                                        ModelOptions(buffer_limit=3)), solver_opts)
        assert sol.feasible
        for n in t.nodes:
            for k in range(4):
                held = sum(v for (s, c, n2, k2), v in sol.family_values("B").items()
                           if n2 == n and k2 == k)
                assert held <= 3 + 1e-6

    def test_buffer_limit_below_initial_chunks_rejected(self, solver_opts):
        t = line(2)
        d = generate_demand("alltoall", t, 3, 1)
        with pytest.raises(ValidationError):
            build_general_model(t, d, EpochConfig(1.0, 4), ModelOptions(buffer_limit=2))

    @pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
    def test_buffer_limit_must_be_positive(self, limit):
        with pytest.raises(ValidationError, match="buffer_limit must be positive"):
            ModelOptions(buffer_limit=limit)


def test_latency_chain_completes_at_eight_epochs(latency_chain, solver_opts):
    t, d = latency_chain
    k, _ = _min_horizon(t, d, ModelOptions(), 12, solver_opts, {"tau": 1.0})
    assert k == 8  # alpha2 + 3 beta at tau = beta


def test_demand_for_unknown_node_rejected():
    t = line(2)
    d = Demand(frozenset({(0, 0, 7)}), 1, 1)
    with pytest.raises(ValidationError):
        build_general_model(t, d, EpochConfig(1.0, 2), ModelOptions())


class TestWindowedCapacity:
    def test_kappa_descriptors(self):
        t = Topology(("a", "b", "c", "d"), frozenset(),
                     (Edge("a", "b", 50e9), Edge("b", "c", 25e9), Edge("c", "d", 12.5e9)))
        timing = link_timing(t, EpochConfig(0.5e-6, 4, chunk_size=25000))
        assert timing.kappa[("a", "b")] == 1  # plain capacity on the fastest link
        assert timing.budget[("a", "b")] == [1.0] * 4
        assert timing.kappa[("b", "c")] == 2
        assert timing.budget[("b", "c")] == [1.0] * 4  # 2 epochs admit 1 chunk
        assert timing.kappa[("c", "d")] == 4

    def test_window_blocks_back_to_back_sends(self, solver_opts):
        # one half-speed link, two chunks: 1 chunk per 2-epoch window forces
        # sends at epochs {0, 2}, first feasible horizon 2 * kappa.
        t = Topology((0, 1), frozenset(), (Edge(0, 1, 0.5),))
        d = Demand(frozenset({(0, 0, 1), (0, 1, 1)}), 2, 1)
        opts = ModelOptions()
        builder = lambda k: build_general_model(
            t, d, EpochConfig(1.0, k, chunk_size=1), opts)
        k, sol, _ = min_feasible_horizon(builder, 1, 8, solver_opts)
        assert k == 4
        epochs = sorted(key[4] for key in sol.family_values("F", 0.5))
        assert epochs == [0, 2]

    def test_sub_chunk_links_get_windows_in_any_mode(self, diamond_multicast, solver_opts):
        # 0.5 chunks per epoch on every link: each chunk needs a 2-epoch
        # window, and arrivals land one epoch later than plain latency says.
        t, d = diamond_multicast
        builder = lambda k: build_general_model(t, d, EpochConfig(1.0, k), ModelOptions())
        k, sol, _ = min_feasible_horizon(builder, 1, 12, solver_opts)
        assert k == 4
        cfg = EpochConfig(1.0, k)
        sched = extract_schedule(prune_unused_flows(sol))
        rep = simulate(sched, t, d)
        assert rep.violations == []
        assert sched.completion_epoch == rep.completion_epoch == 3


class TestHyperEdgeConstraints:
    def test_group_surface(self):
        nodes = tuple(range(4)) + ("sw",)
        edges = []
        for g in range(4):
            edges += [Edge(g, "sw", 1.0), Edge("sw", g, 1.0)]
        _, groups = hyper_edge_transform(Topology(nodes, frozenset({"sw"}), tuple(edges)))
        assert len(groups["sw"].pairs) == 12
        assert groups["sw"].budget == 4

    def test_budget_binds_flow(self, solver_opts):
        # 2 sources feed the switch, 4 sinks drain it: at most 2 pair uses/epoch
        nodes = ("a", "b", "w", "x", "y", "z", "sw")
        edges = [Edge("a", "sw", 1.0), Edge("b", "sw", 1.0)]
        edges += [Edge("sw", n, 1.0) for n in ("w", "x", "y", "z")]
        t = Topology(nodes, frozenset({"sw"}), tuple(edges))
        d = Demand(frozenset({("a", 0, "w"), ("a", 0, "x"), ("b", 1, "y"), ("b", 1, "z")}),
                   2, 1)
        opts = ModelOptions(switch_mode="hyper-edge")
        builder = lambda k: build_general_model(t, d, EpochConfig(1.0, k), opts)
        k, sol, _ = min_feasible_horizon(builder, 1, 6, solver_opts)
        # per-node egress <= 1 pair per epoch forces two epochs of sends
        assert k == 2
        by_epoch = {}
        for (s, c, i, j, kk), v in sol.family_values("F", 0.5).items():
            by_epoch.setdefault(kk, []).append((i, j))
        for kk, uses in by_epoch.items():
            assert len(uses) <= 2

    def test_overrides_reach_pair_and_direct_edges(self):
        # (a,b) is direct; (a,c) crosses switch h over (a,h) and (h,c).
        t = Topology(("a", "b", "c", "h"), frozenset({"h"}),
                     (Edge("a", "b", 1.0), Edge("b", "a", 1.0), Edge("a", "h", 1.0),
                      Edge("h", "a", 1.0), Edge("h", "c", 1.0), Edge("c", "h", 1.0)),
                     {("a", "b", 1): 2.0, ("a", "h", 2): 0.5})
        cfg = EpochConfig(1.0, 3)
        copy = link_timing(model_topology(t, ModelOptions())[0], cfg)
        hyper = link_timing(model_topology(t, ModelOptions(switch_mode="hyper-edge"))[0], cfg)
        assert copy.budget[("a", "b")] == hyper.budget[("a", "b")] == [1.0, 2.0, 1.0]
        assert hyper.budget[("a", "c")] == [1.0, 1.0, 0.5]  # the tighter leg at epoch 2
        assert hyper.budget[("c", "a")] == [1.0, 1.0, 1.0]


class TestModelInvariants:
    def test_solution_respects_all_rows(self, star3, solver_opts):
        t, d = star3
        m = build_general_model(t, d, EpochConfig(1.0, 3), ModelOptions())
        sol = solve(m, solver_opts)
        for (coeffs, lo, hi) in m.rows:
            value = sum(coef * sol.x[idx] for idx, coef in coeffs)
            if lo != -INF:
                assert value >= lo - 1e-6
            if hi != INF:
                assert value <= hi + 1e-6

    def test_buffers_monotone_without_limit(self, funnel3, solver_opts):
        t, d = funnel3
        sol = solve(build_general_model(t, d, EpochConfig(1.0, 4), ModelOptions()),
                    solver_opts)
        series = {}
        for (s, c, n, k), v in sol.family_values("B").items():
            series.setdefault((s, c, n), {})[k] = v
        for values in series.values():
            ordered = [values[k] for k in sorted(values)]
            assert all(b >= a - 1e-6 for a, b in zip(ordered, ordered[1:]))

    def test_objective_prefers_earlier_delivery(self, star3, solver_opts):
        t, d = star3
        sol3 = solve(build_general_model(t, d, EpochConfig(1.0, 3), ModelOptions()),
                     solver_opts)
        # delivering in epoch 1 scores 3/2; the same demand delivered one epoch
        # later would only add 3/3, so the optimum must hit 1.5 + 3/3 bonus-free
        assert sol3.objective == pytest.approx(1.5 + 1.0)

    def test_dgx1_allgather_min_horizon_alpha0(self, solver_opts):
        t = dgx1(alpha=0.0)
        d = generate_demand("allgather", t, 1, 25000)
        builder = lambda k: build_general_model(
            t, d, EpochConfig(1e-6, k, chunk_size=25000), ModelOptions())
        k, _, _ = min_feasible_horizon(builder, 1, 4, solver_opts)
        assert k == 2


def _free_window(m) -> int:
    """Free to F's bounds [0, 1] every send column of the one-shot model m
    that the backward window alone fixes, and return how many. The window is
    recomputed here from all-pairs hop distances (a hop costs delta + 1): a
    send on (i, j) at epoch k is in it when k + delta + the hops from j to
    the chunk's nearest destination pass K - 1, and the chunk could have
    reached i by k."""
    t, delta, K = m.meta["eff_topology"], m.meta["delta"], m.meta["cfg"].K
    dist = all_pairs_distances(t, lambda e: delta[(e.src, e.dst)] + 1)
    dests = {}
    for s, c, dst in m.meta["entries"]:
        dests.setdefault((s, c), []).append(dst)
    fam = m.families["F"]
    commodities, pairs, epochs = (a.labels for a in fam.axes)
    freed = 0
    for ci, (s, c) in enumerate(commodities):
        for ei, (i, j) in enumerate(pairs):
            togo = min(dist[(j, dst)] for dst in dests[(s, c)])
            for k in epochs:
                if k + delta[(i, j)] + togo > K - 1 and k >= dist[(s, i)]:
                    col = fam.index[ci, ei, k]
                    assert m.lb[col] == m.ub[col] == 0.0
                    m.lb[col], m.ub[col] = 0.0, 1.0
                    freed += 1
    return freed


def _switch_star(overrides=None) -> Topology:
    """GPUs 0-3 around switch h, with 0 and 1 also linked directly; 0's
    uplink is one epoch slower than the rest at tau = 1."""
    edges = [Edge(0, 1, 1.0), Edge(1, 0, 1.0)]
    for g in range(4):
        edges += [Edge(g, "h", 1.0, 1.0 if g == 0 else 0.0), Edge("h", g, 1.0)]
    return Topology((0, 1, 2, 3, "h"), frozenset({"h"}), tuple(edges), overrides or {})


# name -> (topology, collective, options, the least feasible horizon K*)
WINDOW_INPUTS = {
    "line4-slow": (line(4, alpha=1.0), "alltoall", ModelOptions(), 6),
    "line4-buffer-limit": (line(4), "alltoall", ModelOptions(buffer_limit=3), 4),
    "ring5": (ring(5), "allgather", ModelOptions(), 2),
    "star-copy": (_switch_star(), "allgather", ModelOptions(), 4),
    "star-no-copy": (_switch_star(), "allgather", ModelOptions(switch_mode="no-copy"), 4),
    "star-hyper-edge": (_switch_star(), "allgather", ModelOptions(switch_mode="hyper-edge"), 3),
    "star-no-copy-override": (_switch_star({(2, "h", 1): 2.0, ("h", 3, 0): 0.5}), "alltoall",
                              ModelOptions(switch_mode="no-copy"), 4),
}


class TestBackwardWindow:
    """A one-shot model fixes every send that cannot reach a destination of
    its chunk by the last epoch; freeing those sends changes no outcome."""

    @pytest.mark.parametrize("name", sorted(WINDOW_INPUTS))
    def test_freeing_the_window_keeps_every_optimum(self, name, solver_opts):
        t, coll, opts, k_star = WINDOW_INPUTS[name]
        d = generate_demand(coll, t, 1, 1)
        statuses, freed = [], 0
        for K in (k_star - 1, k_star, k_star + 2):
            windowed = build_time_expanded(t, d, EpochConfig(1.0, K, 1), opts)
            unwindowed = build_time_expanded(t, d, EpochConfig(1.0, K, 1), opts)
            freed += _free_window(unwindowed)
            got, want = solve(windowed, solver_opts), solve(unwindowed, solver_opts)
            assert got.status == want.status
            if want.feasible:
                assert abs(got.objective - want.objective) <= TOL * max(1.0, abs(want.objective))
            statuses.append(got.status)
        assert statuses == [INFEASIBLE, OPTIMAL, OPTIMAL]
        assert freed > 0

    @pytest.mark.parametrize("t, d, tau, candidates", [
        (star(3), Demand(frozenset({("s", 0, "d1"), ("s", 0, "d2"), ("s", 0, "d3")}), 1, 1),
         1.0, [2.0, 4.0]),
        (line(4), generate_demand("alltoall", line(4), 1, 1), 1.0, None),
        (ring(4), generate_demand("alltoall", ring(4), chunk_size=1),
         epoch_duration(ring(4), 1), None),
        (ring(8), generate_demand("alltoall", ring(8), chunk_size=1),
         epoch_duration(ring(8), 1), None),
        (dgx1(), generate_demand("alltoall", dgx1(), chunk_size=1 << 20),
         epoch_duration(dgx1(), 1 << 20), None),
        (dataclasses.replace(line(2), capacity_overrides={(0, 1, 1): 2.0}),
         Demand(frozenset({(0, 0, 1), (0, 1, 1)}), 2, 1), 1.0, [8.0]),
    ], ids=["star3", "line4", "ring4", "ring8", "dgx1", "line2-override"])
    def test_estimates_unchanged(self, t, d, tau, candidates, monkeypatch):
        windowed = estimate_epoch_upper_bound(t, d, tau, candidates)
        real, freed = estimator.build_time_expanded, []

        def unwindowed(*args, **kwargs):
            m = real(*args, **kwargs)
            freed.append(_free_window(m))
            return m

        monkeypatch.setattr(estimator, "build_time_expanded", unwindowed)
        assert estimate_epoch_upper_bound(t, d, tau, candidates) == windowed
        assert any(freed)

    def test_dgx2_alltoall_coarse_model_halves(self):
        # The estimator's 8-epoch coarse model of dgx2 alltoall, the one it
        # solves last on the benchmark's inputs: HiGHS got 60,240 free columns
        # before the window and gets 30,480 with it.
        t = dgx2()
        d = generate_demand("alltoall", t, chunk_size=1 << 20)
        total = default_candidates(t, d)[0]
        m = build_time_expanded(t, d, EpochConfig(total / 8, 8, 1 << 20), ModelOptions())
        assert int((m.lb != m.ub).sum()) <= 0.51 * 60_240
