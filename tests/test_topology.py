import dataclasses
import json

import pytest

from collsched.epochs import EpochConfig, link_timing
from collsched.errors import ValidationError
from collsched.milp import ModelOptions
from collsched.simulator import SimOptions
from collsched.topology import (SWITCH_MODES, Edge, Topology, all_pairs_distances, dgx1, dgx2,
                                hyper_edge_transform, line, ndv2, ring, shortest_distances,
                                star, topology_from_json, topology_to_json, validate_topology)


def test_star3_is_valid():
    assert validate_topology(star(3)) == []


def violations_of(*fields) -> list[str]:
    """The violations a Topology built from `fields` is refused for."""
    with pytest.raises(ValidationError) as exc:
        Topology(*fields)
    return str(exc.value).split("; ")


def test_zero_capacity_flagged():
    report = violations_of(("a", "b"), frozenset(), (Edge("a", "b", 0.0),))
    assert len(report) == 1 and "non-positive capacity" in report[0]


@pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
def test_non_finite_capacity_flagged(capacity):
    report = violations_of(("a", "b"), frozenset(), (Edge("a", "b", capacity),))
    assert report == ["non-finite capacity on ('a','b')"]


def test_nan_alpha_flagged():
    report = violations_of(("a", "b"), frozenset(), (Edge("a", "b", 1.0, float("nan")),))
    assert report == ["non-finite alpha on ('a','b')"]


@pytest.mark.parametrize("cap", [float("nan"), float("inf")])
def test_non_finite_override_flagged(cap):
    report = violations_of(("a", "b"), frozenset(), (Edge("a", "b", 1.0),), {("a", "b", 1): cap})
    assert report == ["non-finite capacity override on ('a','b') at epoch 1"]


def test_dangling_switch_flagged():
    report = violations_of(("a", "b", "sw"), frozenset({"sw"}),
                           (Edge("a", "sw", 1.0), Edge("a", "b", 1.0)))
    assert any("no outgoing edge" in v for v in report)


def test_self_loop_and_duplicate_edges_flagged():
    report = violations_of(("a", "b"), frozenset(),
                           (Edge("a", "a", 1.0), Edge("a", "b", 1.0), Edge("a", "b", 2.0)))
    assert any("self-loop" in v for v in report)
    assert any("duplicate edge" in v for v in report)


@pytest.mark.parametrize("fields, message", [
    ((("a", "a", "b"), frozenset(), (Edge("a", "b", 1.0),)), "duplicate node ids"),
    ((("a", "b"), frozenset({"sw"}), (Edge("a", "b", 1.0),)), "switch 'sw' is not a node"),
    ((("a", "b"), frozenset(), (Edge("a", "c", 1.0),)), "edge ('a','c') references unknown node"),
    ((("a", "b"), frozenset(), (Edge("a", "b", 1.0, -1.0),)), "negative alpha on ('a','b')"),
    ((("a", "b", "sw"), frozenset({"sw"}), (Edge("sw", "a", 1.0), Edge("a", "b", 1.0))),
     "switch 'sw' has no incoming edge"),
    ((("a", "b"), frozenset(), (Edge("a", "b", 1.0),), {("a", "b", 2): 0.0}),
     "non-positive capacity override on ('a','b') at epoch 2"),
], ids=["duplicate-node", "unknown-switch", "unknown-node", "negative-alpha", "switch-no-in",
        "override-non-positive"])
def test_violation_messages(fields, message):
    assert violations_of(*fields) == [message]


def test_every_way_to_make_a_topology_validates():
    with pytest.raises(ValidationError, match="override for unknown edge"):
        dataclasses.replace(line(3), capacity_overrides={(0, 2, 1): 2.0})
    doc = topology_to_json(line(2))
    doc["edges"][0]["capacity_bytes_per_sec"] = -1.0
    with pytest.raises(ValidationError, match="non-positive capacity"):
        topology_from_json(doc)


@pytest.mark.parametrize("options", [ModelOptions, SimOptions])
def test_unknown_switch_mode_rejected(options):
    assert SWITCH_MODES == ("copy", "no-copy", "hyper-edge")
    with pytest.raises(ValidationError, match="unknown switch mode 'bogus'"):
        options(switch_mode="bogus")


def test_shortest_distances_walk_either_way():
    # A line 0-1-2 whose links are slower one way: at tau = 1 the delays are
    # 0->1: 1, 1->0: 3, 1->2: 2 and 2->1: 0, and a hop costs delta + 1, as in
    # the whole-chunk model.
    alphas = {(0, 1): 1.0, (1, 0): 3.0, (1, 2): 2.0, (2, 1): 0.0}
    t = Topology((0, 1, 2), frozenset(),
                 tuple(Edge(a, b, 1.0, alpha) for (a, b), alpha in alphas.items()))
    delta = link_timing(t, EpochConfig(1.0, 1)).delta
    hop = lambda e: delta[(e.src, e.dst)] + 1
    assert shortest_distances(t, hop, {0: 0}) == {0: 0, 1: 2, 2: 5}
    assert shortest_distances(t, hop, {2: 0}) == {0: 5, 1: 1, 2: 0}
    # The other way, each node's distance to a node.
    to = all_pairs_distances(t, hop)
    assert {n: to[n, 0] for n in t.nodes} == {0: 0, 1: 4, 2: 5}
    assert {n: to[n, 2] for n in t.nodes} == {0: 5, 1: 3, 2: 0}


def test_dgx1_shape():
    t = dgx1()
    assert len(t.nodes) == 8
    assert len(t.edges) == 32  # 16 bidirectional links
    assert not t.switches
    fast = [e for e in t.edges if e.capacity == 50e9]
    slow = [e for e in t.edges if e.capacity == 25e9]
    assert len(fast) == len(slow) == 16
    assert all(e.alpha == 0.7e-6 for e in t.edges)
    # every GPU has degree 4 in each direction
    for n in t.nodes:
        assert len(t.out_edges(n)) == 4
        assert len(t.in_edges(n)) == 4


def test_ndv2_multi_chassis_switch_wiring():
    t = ndv2(chassis=4)
    assert len(t.nodes) == 33
    assert len(t.edges) == 4 * 32 + 8
    (sw,) = t.switches
    # chassis GPU 0 uplinks, switch downlinks into GPU 1
    assert {e.src for e in t.in_edges(sw)} == {0, 8, 16, 24}
    assert {e.dst for e in t.out_edges(sw)} == {1, 9, 17, 25}
    for e in t.in_edges(sw) + t.out_edges(sw):
        assert e.capacity == 12.5e9 and e.alpha == 1.3e-6


def test_dgx2_two_chassis():
    t = dgx2(chassis=2)
    assert len(t.nodes) == 34  # 16 GPUs + 1 switch per chassis
    cross = [e for e in t.edges if e.capacity == 12.5e9]
    assert len(cross) == 16  # 8 unidirectional links each way
    assert all(e.alpha == 2.6e-6 for e in cross)
    within = [e for e in t.edges if e.capacity == 125e9]
    assert len(within) == 2 * 32


def test_line_and_ring_shapes():
    assert len(line(5).edges) == 8
    assert len(ring(5).edges) == 10


def test_json_round_trip(tmp_path):
    t = ndv2(chassis=2)
    doc = topology_to_json(t)
    text = json.dumps(doc, sort_keys=True)
    again = topology_from_json(json.loads(text))
    assert again == t


def test_capacity_override_round_trip():
    t = Topology(("a", "b"), frozenset(), (Edge("a", "b", 4.0),),
                 {("a", "b", 2): 1.0})
    again = topology_from_json(topology_to_json(t))
    assert again.capacity_at(again.edges[0], 2) == 1.0
    assert again.capacity_at(again.edges[0], 0) == 4.0


class TestHyperEdgeTransform:
    def test_four_gpus_behind_one_switch(self):
        nodes = (0, 1, 2, 3, "sw")
        edges = []
        for g in range(4):
            edges += [Edge(g, "sw", 1.0), Edge("sw", g, 1.0)]
        t = Topology(nodes, frozenset({"sw"}), tuple(edges))
        t_eff, groups = hyper_edge_transform(t)
        assert len(groups["sw"].pairs) == 12  # n(n-1) ordered pairs
        assert groups["sw"].budget == 4
        assert not t_eff.switches
        assert len(t_eff.edges) == 12

    def test_budget_is_min_degree(self):
        nodes = (0, 1, 2, 3, 4, 5, "sw")
        edges = [Edge(0, "sw", 1.0), Edge(1, "sw", 1.0)]
        edges += [Edge("sw", g, 1.0) for g in (2, 3, 4, 5)]
        t = Topology(nodes, frozenset({"sw"}), tuple(edges))
        _, groups = hyper_edge_transform(t)
        assert groups["sw"].budget == 2
        assert len(groups["sw"].pairs) == 8

    def test_single_pair_reduces_to_direct_link(self):
        t = Topology((0, 1, "sw"), frozenset({"sw"}),
                     (Edge(0, "sw", 2.0, 1e-6), Edge("sw", 1, 3.0, 2e-6)))
        t_eff, groups = hyper_edge_transform(t)
        assert groups["sw"].budget == 1
        assert groups["sw"].pairs == ((0, 1),)
        e = t_eff.edge(0, 1)
        assert e.capacity == 2.0  # tighter of the two legs
        assert e.alpha == pytest.approx(3e-6)

    def test_no_switches_is_identity(self):
        t = ring(4)
        t_eff, groups = hyper_edge_transform(t)
        assert t_eff is t and groups == {}

    def test_switch_without_egress_rejected(self):
        # A valid topology: sw's only egress leads to another switch.
        t = Topology((0, 1, "sw", "sw2"), frozenset({"sw", "sw2"}),
                     (Edge(0, "sw", 1.0), Edge("sw", "sw2", 1.0), Edge("sw2", 1, 1.0)))
        with pytest.raises(ValidationError):
            hyper_edge_transform(t)
