import pytest

from collsched import Demand, SolverOptions
from collsched.topology import Edge, Topology, star


@pytest.fixture(scope="session")
def solver_opts():
    return SolverOptions(time_limit=120.0)


@pytest.fixture
def star3():
    t = star(3)
    d = Demand(frozenset({("s", 0, "d1"), ("s", 0, "d2"), ("s", 0, "d3")}), 1, 1)
    return t, d


@pytest.fixture
def funnel3():
    # Sources feeding a buffering relay `h` that drains into one sink `d`.
    edges = [Edge(f"s{i}", "h", 1.0) for i in (1, 2, 3)] + [Edge("h", "d", 2.0)]
    t = Topology(("s1", "s2", "s3", "h", "d"), frozenset(), tuple(edges))
    d = Demand(frozenset({("s1", 0, "d"), ("s2", 1, "d"), ("s3", 2, "d")}), 3, 1)
    return t, d


@pytest.fixture
def latency_chain():
    # tau = beta = 1s, per-hop latency 1s on the relay chain, 5s on the
    # direct edge (= 2 beta + 3 alpha_hop); both sources race one unit to d.
    t = Topology(("s1", "h1", "h2", "h3", "d", "s2"), frozenset(), (
        Edge("s1", "h1", 1.0, 1.0), Edge("h1", "h2", 1.0, 1.0), Edge("h2", "h3", 1.0, 1.0),
        Edge("h3", "d", 1.0), Edge("s2", "h3", 1.0, 5.0)))
    d = Demand(frozenset({("s1", 0, "d"), ("s2", 1, "d")}), 2, 1)
    return t, d


@pytest.fixture
def diamond_multicast():
    # s fans out to d1/d2 which both feed d3; no d1<->d2 link.
    t = Topology(("s", "d1", "d2", "d3"), frozenset(), tuple(
        Edge(a, b, 0.5) for a, b in (("s", "d1"), ("s", "d2"), ("d1", "d3"), ("d2", "d3"))))
    d = Demand(frozenset({("s", 0, "d1"), ("s", 0, "d2"), ("s", 0, "d3")}), 1, 1)
    return t, d
