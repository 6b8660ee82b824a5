import pytest
from hypothesis import given, strategies as st

from collsched.epochs import EpochConfig, compute_delta, epoch_duration, link_timing
from collsched.errors import ValidationError
from collsched.topology import Edge, Topology, dgx1, line


def _kappa(capacity, cfg):
    """kappa of a lone edge of the given capacity, by `link_timing`."""
    t = Topology(("a", "b"), frozenset(), (Edge("a", "b", capacity),))
    return link_timing(t, cfg).kappa[("a", "b")]


def test_delta_zero_latency():
    assert compute_delta(Edge("a", "b", 1.0, 0.0), 0.5) == 0


def test_delta_ndv2_alpha_on_fast_epochs():
    # 0.7us latency over 0.5us epochs rounds up to 2
    assert compute_delta(Edge("a", "b", 50e9, 0.7e-6), 0.5e-6) == 2


def test_delta_exact_multiple():
    assert compute_delta(Edge("a", "b", 1.0, 1.3e-6), 1.3e-6) == 1


def test_epoch_duration_dgx1():
    t = dgx1()
    assert epoch_duration(t, 25000, "fastest", 1) == pytest.approx(0.5e-6)
    assert epoch_duration(t, 25000, "slowest", 1) == pytest.approx(1.0e-6)


def test_epoch_duration_uniform_links():
    t = line(3, capacity=1.0)
    assert epoch_duration(t, 1, "fastest", 1) == 1.0
    assert epoch_duration(t, 1, "slowest", 1) == 1.0


def test_epoch_duration_multiplier():
    t = dgx1()
    assert epoch_duration(t, 25000, "fastest", 5) == pytest.approx(2.5e-6)


def test_kappa_ladder():
    cfg = EpochConfig(0.5e-6, 4, chunk_size=25000)
    assert _kappa(50e9, cfg) == 1  # fastest link: plain capacity
    assert _kappa(25e9, cfg) == 2  # half speed: 1 chunk per 2 epochs
    assert _kappa(12.5e9, cfg) == 4  # quarter speed
    assert max(link_timing(dgx1(), cfg).kappa.values()) == 2


def test_kappa_is_mode_independent_arithmetic():
    # 12.5 GBps moves half a 25 KB chunk per 1us epoch regardless of mode
    cfg = EpochConfig(1e-6, 4, chunk_size=25000)
    assert _kappa(12.5e9, cfg) == 2


def test_epoch_config_validation():
    with pytest.raises(ValidationError):
        EpochConfig(0.0, 4)
    with pytest.raises(ValidationError):
        EpochConfig(1.0, 0)
    with pytest.raises(ValidationError):
        epoch_duration(line(2), 1, "fastest", em=0)
    with pytest.raises(ValidationError):
        epoch_duration(line(2), 1, "sideways")


def test_epoch_arithmetic_refusals():
    with pytest.raises(ValidationError, match="topology has no edges"):
        epoch_duration(Topology((0,), frozenset(), ()), 1)
    for tau in (0.0, -1.0):
        with pytest.raises(ValidationError, match="tau must be positive"):
            compute_delta(Edge(0, 1, 1.0, 1.0), tau)


@given(alpha=st.floats(0, 1e-3), tau_a=st.floats(1e-9, 1e-3), tau_b=st.floats(1e-9, 1e-3))
def test_delta_monotone_in_tau(alpha, tau_a, tau_b):
    lo, hi = sorted([tau_a, tau_b])
    e = Edge("a", "b", 1.0, alpha)
    assert compute_delta(e, lo) >= compute_delta(e, hi)


@given(alpha_a=st.floats(0, 1e-3), alpha_b=st.floats(0, 1e-3), tau=st.floats(1e-9, 1e-3))
def test_delta_monotone_in_alpha(alpha_a, alpha_b, tau):
    lo, hi = sorted([alpha_a, alpha_b])
    assert compute_delta(Edge("a", "b", 1.0, lo), tau) <= \
        compute_delta(Edge("a", "b", 1.0, hi), tau)


def test_window_budget_sums_overridden_capacities():
    # half a chunk per epoch (kappa 2) with epoch 2 raised to 1.5 chunks
    t = Topology(("a", "b"), frozenset(), (Edge("a", "b", 0.5, 2.5),), {("a", "b", 2): 1.5})
    timing = link_timing(t, EpochConfig(1.0, 5))
    assert timing.kappa[("a", "b")] == 2
    assert timing.delta[("a", "b")] == 3 + 1  # ceil(2.5) plus kappa - 1
    assert timing.budget[("a", "b")] == [1.0, 1.0, 2.0, 2.0, 1.0]


def _exact_budgets(kap, rate, overrides, k0, K):
    """Window budgets summed in exact arithmetic on every edge, each
    converted to a float once: how `_budgets` computed every edge before it
    took the base windows' floats from `link_timing`."""
    budget = {}
    for pair, w in kap.items():
        per_epoch = [rate[pair]] * K
        for (i, j, k), c in overrides.items():
            if (i, j) == pair and 0 <= k - k0 < K:
                per_epoch[k - k0] = c
        window = w * per_epoch[0]
        budget[pair] = [float(window)]
        for k in range(1, K):
            window += per_epoch[k] - per_epoch[max(k - w, 0)]
            budget[pair].append(float(window))
    return budget


@pytest.mark.parametrize("overrides", [{}, {(0, 1, 1): 100e9, (0, 1, 2): 25e9, (2, 3, 0): 100e9,
                                            (5, 4, 9): 1e9}])
def test_base_window_budgets_are_the_exact_sums(overrides):
    # dgx1 at a 0.3 us epoch: kappa 2 and 4, and rates (0.6 and 0.3 chunks
    # per epoch) that no float holds exactly.
    base = dgx1()
    t = Topology(base.nodes, base.switches, base.edges, overrides)
    timing = link_timing(t, EpochConfig(0.3e-6, 6, 25000))
    assert sorted(set(timing.kappa.values())) == [2, 4]
    assert timing.budget == _exact_budgets(timing.kappa, timing.rate, timing.overrides, 0, 6)
    for k0 in (0, 1, 4, 9):
        got = timing.from_epoch(k0, 4).budget
        assert got == _exact_budgets(timing.kappa, timing.rate, timing.overrides, k0, 4)
