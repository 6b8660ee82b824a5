import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from collsched import simulator
from collsched.demand import Demand, generate_demand
from collsched.epochs import EpochConfig, _frac, epoch_duration, link_timing
from collsched.errors import ScheduleError, ValidationError
from collsched.milp import ModelOptions, build_general_model
from collsched.schedule import Schedule, ScheduleEvent, extract_schedule, prune_unused_flows
from collsched.simulator import (SimOptions, Violation, _check_capacity, _link_timing,
                                  algorithmic_bandwidth, simulate)
from collsched.solver import solve
from collsched.topology import Edge, Topology, dgx1, line, ndv2, star


def _sched(events, tau=1.0, completion=None, chunk_size=1):
    comp = completion if completion is not None else max(e.epoch for e in events)
    return Schedule(tau, tuple(events), comp, chunk_size)


class TestReplayBasics:
    def test_star3_copy_schedule(self, star3, solver_opts):
        t, d = star3
        cfg = EpochConfig(1.0, 2)
        sol = solve(build_general_model(t, d, cfg, ModelOptions()), solver_opts)
        sched = extract_schedule(prune_unused_flows(sol))
        rep = simulate(sched, t, d, SimOptions())
        assert rep.violations == []
        assert rep.completion_epoch == 1
        assert rep.transfer_time == pytest.approx(2.0)
        assert rep.output_buffer_bytes == {"s": 0, "d1": 1, "d2": 1, "d3": 1}

    def test_causality_violation_flagged(self):
        t = line(3)
        d = Demand(frozenset({(0, 0, 2)}), 1, 1)
        # node 1 forwards in the same epoch the chunk is still on (0,1)
        sched = _sched([ScheduleEvent(0, 0, 0, 1, 0), ScheduleEvent(0, 0, 1, 2, 0)])
        rep = simulate(sched, t, d, SimOptions())
        assert any(v.kind == "causality" for v in rep.violations)

    def test_capacity_violation_flagged(self):
        t = line(2)
        d = Demand(frozenset({(0, 0, 1), (0, 1, 1)}), 2, 1)
        sched = _sched([ScheduleEvent(0, 0, 0, 1, 0), ScheduleEvent(0, 1, 0, 1, 0)])
        rep = simulate(sched, t, d, SimOptions())
        assert any(v.kind == "capacity" for v in rep.violations)

    def test_unmet_demand_flagged(self):
        t = line(3)
        d = Demand(frozenset({(0, 0, 2)}), 1, 1)
        sched = _sched([ScheduleEvent(0, 0, 0, 1, 0)])
        rep = simulate(sched, t, d, SimOptions())
        assert any(v.kind == "unmet-demand" for v in rep.violations)

    def test_switch_rest_flagged(self, star3):
        t, d = star3
        # chunk parks at the switch for an epoch before fanning out
        events = [ScheduleEvent("s", 0, "s", "h", 0)] + [
            ScheduleEvent("s", 0, "h", dest, 2) for dest in ("d1", "d2", "d3")]
        rep = simulate(_sched(events), t, d, SimOptions())
        assert any(v.kind == "switch-buffer" for v in rep.violations)
        assert any(v.kind == "causality" for v in rep.violations)

    def test_malformed_edge_rejected(self):
        t = line(2)
        d = Demand(frozenset({(0, 0, 1)}), 1, 1)
        with pytest.raises(ScheduleError):
            simulate(_sched([ScheduleEvent(0, 0, 0, 5, 0)]), t, d, SimOptions())

    @pytest.mark.parametrize("epoch, fraction, message", [
        (-1, 1.0, "negative epoch"), (0, 0.0, "outside"), (0, 1.5, "outside")])
    def test_malformed_event_rejected(self, epoch, fraction, message):
        t = line(2)
        d = Demand(frozenset({(0, 0, 1)}), 1, 1)
        with pytest.raises(ScheduleError, match=message):
            simulate(Schedule(1.0, (ScheduleEvent(0, 0, 0, 1, epoch, fraction),), 0, 1),
                     t, d, SimOptions())

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_non_positive_epoch_duration_rejected(self, tau):
        t = line(2)
        d = Demand(frozenset({(0, 0, 1)}), 1, 1)
        with pytest.raises(ScheduleError, match="non-positive epoch duration"):
            simulate(Schedule(tau, (ScheduleEvent(0, 0, 0, 1, 0),), 0, 1), t, d, SimOptions())

    @pytest.mark.parametrize("mode, first, second, rests", [
        # a whole arrival forwarded as half a chunk: copied at a copying
        # switch, half of it left behind at a no-copy one
        ("copy", 1.0, 0.5, False), ("no-copy", 1.0, 0.5, True),
        # a fractional arrival is mass at any switch
        ("copy", 0.5, 0.25, True), ("copy", 0.5, 0.5, False),
    ])
    def test_switch_arrival_left_unforwarded_flagged(self, mode, first, second, rests):
        t = star(1)
        d = Demand(frozenset({("s", 0, "d1")}), 1, 1)
        events = [ScheduleEvent("s", 0, "s", "h", 0, first),
                  ScheduleEvent("s", 0, "h", "d1", 1, second)]
        rep = simulate(_sched(events), t, d, SimOptions(mode))
        rest = [v for v in rep.violations if v.kind == "switch-buffer"]
        assert rest == ([Violation("switch-buffer", "chunk 0 of 's' rests at 'h'", 1)]
                        if rests else [])

    def test_no_copy_mode_flags_duplication(self, star3):
        t, d = star3
        events = [ScheduleEvent("s", 0, "s", "h", 0)] + [
            ScheduleEvent("s", 0, "h", dest, 1) for dest in ("d1", "d2", "d3")]
        ok = simulate(_sched(events), t, d, SimOptions("copy"))
        assert ok.violations == []
        dup = simulate(_sched(events), t, d, SimOptions("no-copy"))
        assert any(v.kind == "causality" for v in dup.violations)


class TestExecutedReplay:
    def test_early_forward_runs_when_chunk_arrives(self):
        t = line(3)
        d = Demand(frozenset({(0, 0, 2)}), 1, 1)
        sched = _sched([ScheduleEvent(0, 0, 0, 1, 0), ScheduleEvent(0, 0, 1, 2, 0)])
        rep = simulate(sched, t, d, SimOptions())
        assert [v.kind for v in rep.violations] == ["causality"]
        assert rep.per_entry_completion == {(0, 0, 2): 1}
        assert rep.transfer_time == pytest.approx(2.0)

    def test_overfull_link_delays_the_later_send(self):
        t = line(2)
        d = Demand(frozenset({(0, 0, 1), (0, 1, 1)}), 2, 1)
        sched = _sched([ScheduleEvent(0, 0, 0, 1, 0), ScheduleEvent(0, 1, 0, 1, 0)])
        rep = simulate(sched, t, d, SimOptions())
        assert [v.kind for v in rep.violations] == ["capacity"]
        assert rep.per_entry_completion == {(0, 0, 1): 0, (0, 1, 1): 1}
        assert rep.completion_epoch == 1

    def test_send_woken_before_its_queued_epoch_runs_once(self):
        # 2->3 first waits for the slow 0->2 arrival at epoch 6; the relayed
        # arrival at 2 wakes it at epoch 2, leaving the epoch-6 entry stale.
        edges = (Edge(0, 1, 1.0), Edge(0, 2, 1.0, 5.0), Edge(1, 2, 1.0), Edge(2, 3, 1.0))
        t = Topology((0, 1, 2, 3), frozenset(), edges)
        d = Demand(frozenset({(0, 0, 3)}), 1, 1)
        sched = _sched([ScheduleEvent(0, 0, 0, 1, 0), ScheduleEvent(0, 0, 0, 2, 0),
                        ScheduleEvent(0, 0, 1, 2, 1), ScheduleEvent(0, 0, 2, 3, 0)])
        rep = simulate(sched, t, d, SimOptions())
        assert rep.completion_epoch == 2
        assert [(v.kind, v.epoch) for v in rep.violations] == [("causality", 0)]

    def test_send_of_a_chunk_never_held_is_never_made(self):
        t = line(3)
        d = Demand(frozenset({(0, 0, 2)}), 1, 1)
        rep = simulate(_sched([ScheduleEvent(0, 0, 1, 2, 0)]), t, d, SimOptions())
        assert {v.kind for v in rep.violations} == {"causality", "unmet-demand"}
        assert rep.per_entry_completion == {}

    def test_switch_forwards_only_in_the_epoch_after_arrival(self, star3):
        t, d = star3
        # scheduled before the chunk lands: made in its forwarding epoch
        early = [ScheduleEvent("s", 0, "s", "h", 0)] + [
            ScheduleEvent("s", 0, "h", dest, 0) for dest in ("d1", "d2", "d3")]
        rep = simulate(_sched(early), t, d, SimOptions())
        assert {v.kind for v in rep.violations} == {"causality", "switch-buffer"}
        assert rep.completion_epoch == 1
        # scheduled after the forwarding epoch: the chunk is gone, never made
        late = early[:1] + [ScheduleEvent("s", 0, "h", dest, 2) for dest in ("d1", "d2", "d3")]
        rep = simulate(_sched(late), t, d, SimOptions())
        assert sum(v.kind == "unmet-demand" for v in rep.violations) == 3
        assert rep.per_entry_completion == {}

    @pytest.mark.parametrize("again", [False, True])
    def test_switch_send_on_a_full_link_waits_for_a_later_arrival(self, again):
        # Both chunks reach h for epoch 1, but (h, d1) takes one a epoch: the
        # switch cannot hold chunk 1 for epoch 2, so its send is made only
        # when chunk 1 lands at h again, or never.
        t = Topology(("s", "h", "d1"), frozenset({"h"}),
                     (Edge("s", "h", 2.0), Edge("h", "d1", 1.0)))
        d = Demand(frozenset({("s", 0, "d1"), ("s", 1, "d1")}), 2, 1)
        events = [ScheduleEvent("s", c, "s", "h", 0) for c in (0, 1)]
        events += [ScheduleEvent("s", c, "h", "d1", 1) for c in (0, 1)]
        if again:
            events.append(ScheduleEvent("s", 1, "s", "h", 2))
        rep = simulate(_sched(events), t, d, SimOptions())
        assert Violation("capacity", "('h','d1')", 1) in rep.violations
        if again:
            assert rep.per_entry_completion == {("s", 0, "d1"): 1, ("s", 1, "d1"): 3}
        else:
            assert rep.per_entry_completion == {("s", 0, "d1"): 1}
            assert Violation("unmet-demand", "chunk 1 of 's' at 'd1'", -1) in rep.violations


def _capacity_reference(events, caps, kap, tol):
    """Window-by-window capacity check, one epoch at a time."""
    load, max_epoch, out = {}, -1, []
    for ev in events:
        load[(ev.src, ev.dst, ev.epoch)] = load.get((ev.src, ev.dst, ev.epoch), 0.0) + ev.fraction
        max_epoch = max(max_epoch, ev.epoch)
    for (i, j), cap in caps.items():
        w = kap[(i, j)]
        budget = float(w * cap)
        for k in range(max_epoch + 1):
            total = sum(load.get((i, j, k2), 0.0) for k2 in range(k - w + 1, k + 1))
            if total > budget * (1 + tol) + tol:
                out.append(Violation("capacity", f"({i!r},{j!r})", k))
    return out


class TestCapacityCheck:
    @settings(max_examples=200, deadline=None)
    @given(sends=st.lists(st.tuples(st.sampled_from([(0, 1), (1, 0)]),
                                    st.integers(0, 20),
                                    st.sampled_from([0.25, 0.5, 1.0])), max_size=12),
           caps=st.tuples(st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([0.2, 1.0])),
           kap=st.tuples(st.integers(1, 6), st.integers(1, 6)))
    def test_matches_epoch_by_epoch_reference(self, sends, caps, kap):
        events = sorted((ScheduleEvent(0, 0, i, j, k, f) for (i, j), k, f in sends),
                        key=lambda ev: (ev.epoch, ev.src))
        cap_map = {(0, 1): Fraction(caps[0]), (1, 0): Fraction(caps[1])}
        kap_map = {(0, 1): kap[0], (1, 0): kap[1]}
        got = []
        _check_capacity(events, cap_map, kap_map, 1e-6, got)
        assert got == _capacity_reference(events, cap_map, kap_map, 1e-6)


class TestLatencyChain:
    def test_correct_completion_beats_path_sum(self, latency_chain, solver_opts):
        t, d = latency_chain
        cfg = EpochConfig(1.0, 8)
        sol = solve(build_general_model(t, d, cfg, ModelOptions()), solver_opts)
        sched = extract_schedule(prune_unused_flows(sol))
        rep = simulate(sched, t, d, SimOptions())
        assert rep.violations == []
        alpha2, beta = 5.0, 1.0
        assert rep.transfer_time == pytest.approx(alpha2 + 3 * beta)
        naive_path_sum_estimate = alpha2 + 4 * beta
        assert rep.transfer_time < naive_path_sum_estimate

    def test_oracle_agrees_with_claimed_transfer(self, latency_chain, solver_opts):
        t, d = latency_chain
        cfg = EpochConfig(1.0, 8)
        sol = solve(build_general_model(t, d, cfg, ModelOptions()), solver_opts)
        sched = extract_schedule(prune_unused_flows(sol))
        rep = simulate(sched, t, d, SimOptions())
        assert rep.transfer_time == pytest.approx(sched.transfer_time)


class TestAlphaSensitivity:
    def test_ignoring_alpha_costs_time(self, solver_opts):
        # two 2-GPU chassis; the cross links carry all the latency
        def microtopo(alpha):
            return Topology((0, 1, 2, 3), frozenset(), (
                Edge(0, 1, 1.0), Edge(1, 0, 1.0), Edge(2, 3, 1.0), Edge(3, 2, 1.0),
                Edge(1, 2, 1.0, alpha), Edge(2, 1, 1.0, alpha)))

        alpha = 3.0
        d = generate_demand("allgather", microtopo(0.0), 1, 1)
        results = {}
        for label, t_model in (("blind", microtopo(0.0)), ("aware", microtopo(alpha))):
            from collsched.solver import min_feasible_horizon
            k, sol, _ = min_feasible_horizon(
                lambda kk: build_general_model(t_model, d, EpochConfig(1.0, kk),
                                               ModelOptions()),
                1, 16, solver_opts)
            cfg = EpochConfig(1.0, k)
            sched = extract_schedule(prune_unused_flows(sol))
            results[label] = simulate(sched, microtopo(alpha), d, SimOptions())
        # the comparison is between executed times of a valid schedule and
        # of one that forwards chunks before the slow links deliver them
        assert results["aware"].violations == []
        assert any(v.kind == "causality" for v in results["blind"].violations)
        assert results["aware"].transfer_time <= results["blind"].transfer_time

    def test_alpha_error_grows_for_smaller_transfers(self):
        # one cross-chassis hop: relative alpha cost doubles as chunks halve
        t = Topology((0, 1), frozenset(), (Edge(0, 1, 1.0, 4.0),))
        for chunk, expected_epochs in ((4, 8), (2, 12)):
            d = Demand(frozenset({(0, 0, 1)}), 1, chunk)
            tau = chunk / 1.0
            sched = Schedule(tau, (ScheduleEvent(0, 0, 0, 1, 0),),
                             0 + -(-4 // chunk), chunk)
            rep = simulate(sched, t, d, SimOptions())
            blind_time = tau  # an alpha-free model would claim one epoch
            assert rep.transfer_time / blind_time == pytest.approx(
                1 + -(-4 // chunk))


class TestMetrics:
    def test_bandwidth_arithmetic(self):
        t = line(2, capacity=1e9)
        d = Demand(frozenset({(0, 0, 1)}), 1, 1_000_000)
        sched = Schedule(1e-3, (ScheduleEvent(0, 0, 0, 1, 0),), 0, 1_000_000)
        rep = simulate(sched, t, d, SimOptions())
        bw = algorithmic_bandwidth(rep)
        assert bw["per_node"][1] == pytest.approx(1e9)  # 1 MB / 1 ms
        # on 1 B/s links the same send takes 1e6 s (kappa = 1e9 epochs)
        slow = simulate(sched, line(2), d, SimOptions())
        assert slow.violations == []
        assert algorithmic_bandwidth(slow)["per_node"][1] == pytest.approx(1.0)

    def test_undelivered_demand_earns_no_bandwidth(self):
        t = line(3)
        d = Demand(frozenset({(0, 0, 1), (0, 0, 2)}), 1, 1)
        rep = simulate(_sched([ScheduleEvent(0, 0, 0, 1, 0)]), t, d, SimOptions())
        assert [v.kind for v in rep.violations] == ["unmet-demand"]
        assert rep.transfer_time == pytest.approx(1.0)
        bw = algorithmic_bandwidth(rep)
        assert bw["aggregate"] == pytest.approx(1.0)
        assert bw["per_node"] == {0: 0.0, 1: pytest.approx(1.0), 2: 0.0}

    def test_empty_demand_bandwidth_zero(self):
        t = line(2)
        d = Demand(frozenset(), 1, 1)
        rep = simulate(Schedule(1.0, (), -1, 1), t, d, SimOptions())
        assert algorithmic_bandwidth(rep)["aggregate"] == 0.0

    def test_zero_transfer_nonzero_demand_rejected(self):
        t = line(2)
        d = Demand(frozenset({(0, 0, 1)}), 1, 1)
        rep = simulate(Schedule(1.0, (), -1, 1), t, d, SimOptions())
        rep.violations.clear()  # force the degenerate state
        with pytest.raises(ValidationError):
            algorithmic_bandwidth(rep)

    def test_ndv2_hyper_edge_budgets_checked(self):
        t = ndv2(chassis=2)
        d = generate_demand("allgather", t, 1, 25000)
        from collsched.topology import hyper_edge_transform
        t_eff, groups = hyper_edge_transform(t)
        (group,) = groups.values()
        a, b = group.pairs[0], group.pairs[1]
        events = [
            ScheduleEvent(a[0], 0, a[0], a[1], 0),
            ScheduleEvent(b[0], 8, b[0], b[1], 0),
            ScheduleEvent(b[0], 8, b[0], b[1], 1),
        ]
        sched = Schedule(1.0, tuple(events), 1, 25000)
        rep = simulate(sched, t, d, SimOptions(switch_mode="hyper-edge"))
        # Two uplinks and two downlinks: the switch's two pairs may both
        # carry a chunk in one epoch.
        assert group.budget == 2
        assert not any(v.kind == "capacity" and "hyper" in v.location
                       for v in rep.violations)

    def test_hyper_edge_group_egress_and_ingress_budgets(self):
        # sw joins {0, 1} to {2, 3}: a budget of two pairs an epoch, and one
        # pair an epoch out of each sender and into each receiver.
        t = Topology((0, 1, 2, 3, "sw"), frozenset({"sw"}), tuple(
            [Edge(g, "sw", 2.0) for g in (0, 1)] + [Edge("sw", g, 2.0) for g in (2, 3)]))
        d = Demand(frozenset({(0, 0, 2), (0, 0, 3), (1, 1, 3)}), 2, 1)
        events = [ScheduleEvent(0, 0, 0, 2, 0), ScheduleEvent(0, 0, 0, 3, 0),
                  ScheduleEvent(1, 1, 1, 3, 0)]
        rep = simulate(_sched(events), t, d, SimOptions(switch_mode="hyper-edge"))
        assert set(rep.violations) == {Violation("capacity", "hyper-edges of 'sw'", 0),
                                       Violation("capacity", "0 egress via 'sw'", 0),
                                       Violation("capacity", "3 ingress via 'sw'", 0)}
        assert len(rep.violations) == 3
        assert rep.completion_epoch == 0  # group budgets are checked as scheduled only


def test_replay_imports_no_model():
    # The replay is the independent oracle: it shares the topology's rules,
    # the demand and the schedule format, and derives link timing itself.
    allowed = {"demand": None, "errors": None, "schedule": {"Schedule"}, "topology": None,
               "epochs": {"ceil_frac", "_frac"}}
    tree = ast.parse(Path(simulator.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module in allowed, node.module
            names = allowed[node.module]
            assert names is None or {a.name for a in node.names} <= names, node.module
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name


@st.composite
def _timed_links(draw):
    """A small random topology, a chunk size and an epoch duration for it."""
    n = draw(st.integers(2, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=6, unique=True))
    chunk = draw(st.sampled_from([1, 1000, 25000, 7_777_777, 1 << 20]) |
                 st.integers(1, 10 ** 8))
    # capacities from well below one chunk per second to tens of GB/s
    edges = tuple(Edge(i, j, draw(st.sampled_from([0.3, 0.5, 1.0, 12.5e9, 25e9, 50e9]) |
                                  st.floats(0.1, 1e11)),
                       draw(st.sampled_from([0.0, 0.7e-6, 1.3e-6]) | st.floats(0.0, 10.0)))
                  for i, j in pairs)
    t = Topology(tuple(range(n)), frozenset(), edges)
    if draw(st.booleans()):
        tau = epoch_duration(t, chunk, draw(st.sampled_from(["slowest", "fastest"])),
                             draw(st.integers(1, 3)))
    else:
        tau = draw(st.sampled_from([1.0, 0.5, 0.3, 1e-6, 0.5e-6, 3.11e-4]))
    return t, chunk, tau


class TestOracleAgreement:
    @settings(max_examples=300, deadline=None)
    @given(_timed_links())
    @example((dgx1(), 7_777_777, epoch_duration(dgx1(), 7_777_777, "slowest")))
    def test_models_time_links_as_the_replay_does(self, case):
        # The replay derives link timing on its own; every whole-chunk model
        # takes it from link_timing. Both must agree edge by edge.
        t, chunk, tau = case
        model = link_timing(t, EpochConfig(tau, 2, chunk_size=chunk))
        caps, kap, delta = _link_timing(t, _frac(tau), chunk, whole_only=True)
        assert model.kappa == kap
        assert model.delta == delta
        for pair, budget in model.budget.items():
            assert budget == [float(kap[pair] * caps[pair])] * 2
