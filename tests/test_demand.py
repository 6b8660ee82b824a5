import pytest
from hypothesis import given, strategies as st

from collsched.demand import (Demand, check_demand_nodes, demand_from_json, demand_to_json,
                              generate_demand, merge_demands)
from collsched.errors import ValidationError
from collsched.topology import dgx1, line, star


def test_allgather_dgx1_counts():
    d = generate_demand("allgather", dgx1(), 1, 25000)
    assert len(d.entries) == 8 * 7
    assert d.chunk_count == 8


def test_alltoall_dgx1_counts():
    d = generate_demand("alltoall", dgx1(), 1, 25000)
    assert len(d.entries) == 56
    # chunk ids are pairwise distinct within (and across) sources
    per_source = {}
    for s, c, _ in d.entries:
        per_source.setdefault(s, []).append(c)
    for chunks in per_source.values():
        assert len(chunks) == len(set(chunks)) == 7


def test_allgather_two_node_line():
    d = generate_demand("allgather", line(2), 1, 1)
    assert d.entries == frozenset({(0, 0, 1), (1, 1, 0)})


def test_switches_excluded():
    d = generate_demand("allgather", star(3), 1, 1)
    nodes = {n for s, _, dst in d.entries for n in (s, dst)}
    assert "h" not in nodes


def test_generate_rejects_tiny_topologies():
    t = line(2)
    solo = t.__class__((0,), frozenset(), ())
    with pytest.raises(ValidationError):
        generate_demand("allgather", solo, 1, 1)


def test_merge_identity():
    d = generate_demand("allgather", line(3), 1, 4)
    assert merge_demands([d]) == d


def test_merge_disjoint_union():
    a = generate_demand("allgather", line(2), 1, 8)
    b = generate_demand("alltoall", line(2), 1, 8)
    m = merge_demands([a, b])
    assert m.chunk_count == a.chunk_count + b.chunk_count
    assert len(m.entries) == len(a.entries) + len(b.entries)
    # original entries survive with source/destination intact
    assert {(s, d) for s, _, d in m.entries} == {(s, d) for s, _, d in a.entries}


def test_merge_two_allgathers_three_nodes():
    a = generate_demand("allgather", line(3), 1, 2)
    m = merge_demands([a, a])
    assert len(m.entries) == 12


def test_merge_rejects_chunk_size_mismatch():
    a = generate_demand("allgather", line(2), 1, 8)
    b = generate_demand("allgather", line(2), 1, 16)
    with pytest.raises(ValidationError):
        merge_demands([a, b])


def test_no_self_demand_enforced():
    with pytest.raises(ValidationError):
        Demand(frozenset({(0, 0, 0)}), 1, 1)


def test_chunk_owned_by_two_sources_rejected():
    with pytest.raises(ValidationError):
        Demand(frozenset({(0, 0, 1), (1, 0, 2)}), 1, 1)


@pytest.mark.parametrize("make, match", [
    (lambda: Demand(frozenset({(0, 1, 1)}), 1, 1), r"chunk id 1 outside \[0, 1\)"),
    (lambda: Demand(frozenset({(0, 0, 1)}), 1, 0), "chunk_size must be positive"),
    (lambda: generate_demand("allgather", line(2), 0), "chunks_per_pair must be >= 1"),
    (lambda: generate_demand("broadcast", line(2)), "unknown collective kind 'broadcast'"),
    (lambda: merge_demands([]), "nothing to merge"),
    (lambda: check_demand_nodes(Demand(frozenset({("s", 0, "h")}), 1, 1), star(3)),
     "demand endpoint 'h' is a switch"),
], ids=["chunk-id", "chunk-size", "chunks-per-pair", "kind", "merge-nothing", "switch-endpoint"])
def test_refusals(make, match):
    with pytest.raises(ValidationError, match=match):
        make()


def test_json_round_trip():
    d = generate_demand("alltoall", line(3), 2, 64)
    assert demand_from_json(demand_to_json(d)) == d


@given(n=st.integers(2, 6), cpp=st.integers(1, 3))
def test_allgather_destination_counts(n, cpp):
    # each destination wants (gpus - 1) * chunks_per_source chunks
    d = generate_demand("allgather", line(n), cpp, 1)
    for node in range(n):
        assert sum(1 for _, _, dst in d.entries if dst == node) == (n - 1) * cpp


@given(sizes=st.lists(st.integers(2, 4), min_size=1, max_size=4))
def test_merge_preserves_entry_count(sizes):
    demands = [generate_demand("alltoall", line(n), 1, 4) for n in sizes]
    merged = merge_demands(demands)
    assert len(merged.entries) == sum(len(d.entries) for d in demands)
