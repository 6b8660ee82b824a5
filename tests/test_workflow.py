import dataclasses
import time

import pytest

from collsched import astar, estimator, solver, workflow
from collsched.demand import Demand, generate_demand
from collsched.errors import EstimationError, HorizonInfeasibleError, ValidationError
from collsched.solver import FEASIBLE_GAP
from collsched.topology import Edge, Topology, dgx1, line, ndv2, ring
from collsched.workflow import synthesize


@pytest.fixture(scope="module")
def dgx1_odd_chunks():
    # With slowest-link epochs, float rounding of tau leaves the 25 GB/s links
    # just short of one 7,777,777-byte chunk per epoch, so a chunk needs two
    # epochs on them (kappa 2) and every delay widens by one epoch.
    t = dgx1()
    return t, generate_demand("allgather", t, 1, 7_777_777)


@pytest.mark.parametrize("method, kwargs, completion", [
    ("astar", {}, 5),
    ("milp", {"epochs": 12}, 5),
])
def test_sub_chunk_epochs_replay_clean(dgx1_odd_chunks, method, kwargs, completion):
    t, d = dgx1_odd_chunks
    result = synthesize(t, d, method, epoch_mode="slowest", time_limit=120.0, **kwargs)
    assert result.report.ok
    assert result.report.completion_epoch == result.schedule.completion_epoch == completion


@pytest.mark.parametrize("search, epochs", [(False, 10), (True, 6)])
def test_horizon_grows_past_an_infeasible_estimate(dgx1_odd_chunks, search, epochs):
    # The estimator bounds this input by 5 epochs, where the MILP needs 6:
    # the estimated range is infeasible, so the next doubles it.
    t, d = dgx1_odd_chunks
    result = synthesize(t, d, "milp", epoch_mode="slowest", search_horizon=search)
    assert result.warnings == ["estimated epoch upper bound 5",
                               "no feasible horizon up to 5: trying up to 10"]
    assert result.report.ok and result.epochs == epochs
    assert result.report.completion_epoch == result.schedule.completion_epoch == 5


@pytest.mark.parametrize("search, first", [(False, 2), (True, 1)])
def test_horizon_growth_stops_at_eight_times_the_estimate(monkeypatch, search, first):
    # 20 chunks over one link of a chunk per epoch need 20 epochs.
    t = Topology((0, 1), frozenset(), (Edge(0, 1, 1.0),))
    d = Demand(frozenset((0, c, 1) for c in range(20)), 20, 1)
    monkeypatch.setattr(workflow, "estimate_epoch_upper_bound", lambda *a, **k: 2)
    # A lower bound below the estimate, so the estimate sets the cap.
    monkeypatch.setattr(workflow, "horizon_lower_bound", lambda *a, **k: 1)
    with pytest.raises(HorizonInfeasibleError, match=rf"\[{first}, 16\]"):
        synthesize(t, d, "lp", search_horizon=search)


@pytest.mark.parametrize("estimate, bound, outcome", [
    # The sound bound, 20, is probed first and alone, and is the answer.
    (2, None, ["estimated epoch upper bound 2", "horizon lower bound 20"]),
    # Ranges [2, 2], [3, 4], [5, 8], [9, 16]: 8 times the bound ends them.
    (1, 2, r"\[2, 16\]"),
    # Ranges [3, 3], [4, 6], [7, 12], [13, 24]: 8 times the bound, 24, lets
    # the search reach 20, where 8 times the estimate would stop at 8.
    (1, 3, ["estimated epoch upper bound 1", "horizon lower bound 3",
            "no feasible horizon up to 3: trying up to 6",
            "no feasible horizon up to 6: trying up to 12",
            "no feasible horizon up to 12: trying up to 24"]),
])
def test_lp_search_grows_until_eight_times_the_larger_of_estimate_and_bound(
        monkeypatch, estimate, bound, outcome):
    # 20 chunks over one link of a chunk per epoch need 20 epochs.
    t = Topology((0, 1), frozenset(), (Edge(0, 1, 1.0),))
    d = Demand(frozenset((0, c, 1) for c in range(20)), 20, 1)
    monkeypatch.setattr(workflow, "estimate_epoch_upper_bound", lambda *a, **k: estimate)
    if bound is not None:
        monkeypatch.setattr(workflow, "horizon_lower_bound", lambda *a, **k: bound)
    if isinstance(outcome, str):
        with pytest.raises(HorizonInfeasibleError, match=outcome):
            synthesize(t, d, "lp", search_horizon=True)
        return
    result = synthesize(t, d, "lp", search_horizon=True)
    assert result.epochs == 20 and result.warnings == outcome


def test_lp_search_survives_a_failed_estimate():
    # The estimator finds no candidate feasible on this line, yet the LP is
    # feasible: the search takes the lower bound, 14, as its estimate.
    t = line(8, alpha=1.0)
    result = synthesize(t, generate_demand("alltoall", t), "lp", search_horizon=True)
    assert result.report.ok and result.epochs == 17
    assert result.warnings == ["no epoch estimate: the horizon lower bound 14 stands in",
                               "horizon lower bound 14",
                               "no feasible horizon up to 14: trying up to 28"]


def _no_estimate(*args, **kwargs):
    raise EstimationError("no candidate completion time was feasible")


@pytest.mark.parametrize("method, error, match", [
    # Ranges [2, 2], [3, 4], [5, 8], [9, 16]: 8 times the bound ends them.
    ("lp", HorizonInfeasibleError, r"\[2, 16\]"),
    ("milp", EstimationError, "no candidate"),
])
def test_only_the_lp_stands_the_lower_bound_in_for_a_failed_estimate(
        monkeypatch, method, error, match):
    # 20 chunks over one link of a chunk per epoch need 20 epochs.
    t = Topology((0, 1), frozenset(), (Edge(0, 1, 1.0),))
    d = Demand(frozenset((0, c, 1) for c in range(20)), 20, 1)
    monkeypatch.setattr(workflow, "estimate_epoch_upper_bound", _no_estimate)
    monkeypatch.setattr(workflow, "horizon_lower_bound", lambda *a, **k: 2)
    with pytest.raises(error, match=match):
        synthesize(t, d, method, search_horizon=True)


@pytest.mark.parametrize("method", ["lp", "milp"])
def test_unreachable_demand_is_refused_before_any_solve(monkeypatch, method):
    # 2 has an edge in from 1 but none out, so nothing it sends reaches 0.
    t = Topology((0, 1, 2), frozenset(), (Edge(0, 1, 1.0), Edge(1, 0, 1.0), Edge(1, 2, 1.0)))
    d = Demand(frozenset({(2, 0, 0)}), 1, 1)
    calls = []
    for module in (workflow, solver, estimator):
        monkeypatch.setattr(module, "solve", lambda *a, **k: calls.append(a))
    with pytest.raises(ValidationError, match="demand from 2 to 0 has no path"):
        synthesize(t, d, method, search_horizon=True)
    assert calls == []


@pytest.mark.parametrize("method, switch_mode, match", [
    ("lp", "hyper-edge", "hyper-edge switches apply to the whole-chunk model only"),
    ("greedy", "copy", "unknown method 'greedy'"),
], ids=["hyper-edge-lp", "unknown-method"])
def test_bad_arguments_are_refused_before_any_bound_or_estimate(
        monkeypatch, method, switch_mode, match):
    calls = []
    for name in ("estimate_epoch_upper_bound", "horizon_lower_bound"):
        monkeypatch.setattr(workflow, name, lambda *a, name=name, **k: calls.append(name))
    t = ring(4)
    with pytest.raises(ValidationError, match=match):
        synthesize(t, generate_demand("alltoall", t), method, switch_mode=switch_mode,
                   search_horizon=True)
    assert calls == []


def test_solver_time_sums_every_horizon_probe(monkeypatch):
    real = solver.solve
    probes = []

    def timed(m, opts=None):
        sol = real(m, opts)
        probes.append(sol.solve_wall_time)
        return sol

    monkeypatch.setattr(solver, "solve", timed)
    # The LP's lower bound on line(5) alltoall is 5 and its smallest feasible
    # horizon 6, so the search probes more than the bound.
    t = line(5)
    result = synthesize(t, generate_demand("alltoall", t), "lp", search_horizon=True)
    assert len(probes) > 1
    assert result.solver_wall_time == sum(probes)


def test_astar_rounds_respect_windows_of_sub_chunk_links():
    # The 25 GB/s NVLinks and 12.5 GB/s switch links hold a 1 MiB chunk for
    # two and four of the fastest link's epochs, so a round's last sends on
    # them still fill their windows at the start of the next round.
    t = ndv2(chassis=2)
    d = generate_demand("allgather", t, 1, 1 << 20)
    result = synthesize(t, d, "astar", switch_mode="hyper-edge", time_limit=120.0)
    assert result.report.ok
    assert result.report.completion_epoch == result.schedule.completion_epoch


def test_astar_refuses_to_dump_a_model(tmp_path):
    # A* builds one model per round, so there is no single model to write.
    t = ring(4)
    path = tmp_path / "model.lp"
    with pytest.raises(ValidationError, match="dump"):
        synthesize(t, generate_demand("alltoall", t), "astar", dump_model_path=path)
    assert not path.exists()


@pytest.mark.parametrize("search", [False, True])
def test_lp_schedule_of_empty_demand_claims_no_epoch(search):
    result = synthesize(ring(4), Demand(frozenset(), 1, 1), "lp", search_horizon=search)
    assert result.schedule.completion_epoch == result.report.completion_epoch == -1
    assert result.schedule.transfer_time == result.report.transfer_time == 0.0


def test_astar_reports_highs_time_and_its_worst_round(monkeypatch):
    t = ring(4)
    d = generate_demand("alltoall", t)
    result = synthesize(t, d, "astar")
    assert result.status == "optimal-per-round"
    assert 0 < result.solver_wall_time < result.total_wall_time

    # A round stopped by its time limit with an incumbent makes the solve's
    # status feasible-gap.
    real = astar.solve_round
    calls = []

    def stopped_once(m, opts=None):
        sol = real(m, opts)
        calls.append(sol.status)
        return dataclasses.replace(sol, status=FEASIBLE_GAP) if len(calls) == 1 else sol

    monkeypatch.setattr(astar, "solve_round", stopped_once)
    assert synthesize(t, d, "astar").status == FEASIBLE_GAP


@pytest.mark.parametrize("search", [False, True])
def test_claim_that_the_replay_misses_is_refused(search):
    # At the fastest link's epoch (1,2) needs two epochs for a whole chunk,
    # so the replay widens every delay by one; the LP plans plain delays and
    # claims epoch 0, the whole-chunk MILP plans widened ones.
    t = Topology((0, 1, 2), frozenset(), (Edge(0, 1, 2.0), Edge(1, 0, 2.0),
                                          Edge(1, 2, 1.0), Edge(2, 1, 1.0)))
    d = Demand(frozenset({(0, 0, 1)}), 1, 1)
    with pytest.raises(ValidationError, match="claims completion at epoch 0, "
                                              "its replay completes at epoch 1"):
        synthesize(t, d, "lp", search_horizon=search)
    result = synthesize(t, d, "milp", search_horizon=search)
    assert result.schedule.completion_epoch == result.report.completion_epoch == 1


def test_oversized_horizon_is_refused_before_it_is_built():
    # With 1-byte chunks an epoch lasts 20 ps and the estimate is 140,019
    # epochs: hundreds of millions of columns, which would exhaust memory.
    t = dgx1()
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="140019-epoch model needs 321,484,072 columns"):
        synthesize(t, generate_demand("alltoall", t), "milp", switch_mode="no-copy")
    assert time.perf_counter() - start < 10


def test_astar_horizon_covers_arrivals_after_its_last_round():
    # Alpha of 3 epochs: the one round (K = 3) sends at epoch 0 and the chunk
    # lands at epoch 3, after the round ends; the horizon is 4 epochs, not 3.
    t = Topology((0, 1), frozenset(), (Edge(0, 1, 1.0, 3.0), Edge(1, 0, 1.0, 3.0)))
    result = synthesize(t, generate_demand("alltoall", t, 1, 1), "astar", epochs_per_round=3)
    sched = result.schedule
    assert sched.meta["rounds"] * sched.meta["epochs_per_round"] == 3
    assert result.report.completion_epoch == sched.completion_epoch == 3
    assert result.epochs == 4


@pytest.mark.parametrize("method, producer", [
    ("milp", "extract_schedule"), ("lp", "lp_rates_to_schedule"), ("astar", "astar_solve")])
def test_schedule_that_fails_its_replay_is_refused(monkeypatch, method, producer):
    # Each method's schedule loses its last event, one delivery: the replay
    # finds that entry unmet, and `synthesize` raises instead of returning it.
    real = getattr(workflow, producer)

    def drop_last(*args, **kwargs):
        sched = real(*args, **kwargs)
        return dataclasses.replace(sched, events=sched.events[:-1])

    monkeypatch.setattr(workflow, producer, drop_last)
    t = ring(4)
    with pytest.raises(ValidationError, match=r"refusing to emit schedule: replay found "
                                              r"1 violations \(unmet-demand\)"):
        synthesize(t, generate_demand("alltoall", t), method)


def test_multicast_lp_is_noted_as_a_bound():
    # Allgather wants each chunk at three GPUs, which the copy-free LP can
    # only bound; it still returns a schedule that replays clean.
    t = ring(4)
    with pytest.warns(UserWarning, match="demand is multicast"):
        result = synthesize(t, generate_demand("allgather", t), "lp", search_horizon=True)
    assert any(note.startswith("demand is multicast") for note in result.warnings)
    assert result.report.ok and result.epochs == 2


@pytest.mark.parametrize("method, options", [
    ("milp", {}), ("lp", {"search_horizon": True}), ("astar", {})])
def test_synthesize_writes_nothing(method, options, capfd):
    # Nothing the package runs, HiGHS included, writes to stdout or stderr.
    t = ring(4)
    assert synthesize(t, generate_demand("alltoall", t), method, **options).report.ok
    assert capfd.readouterr() == ("", "")


def test_an_astar_round_solved_as_its_milp_writes_nothing(monkeypatch, capfd):
    # Each round's relaxation made fractional, so every round runs HiGHS's
    # MILP solver, presolve and branch and bound included.
    real, vertex = astar.solve, []

    def fractional(m, opts=None):
        sol = real(m, opts)
        vertex.append(opts.vertex)
        if opts.vertex and sol.x is not None:
            sol.x = sol.x.copy()
            sol.x[m.families["F"].index.flat[0]] = 0.5
        return sol

    monkeypatch.setattr(astar, "solve", fractional)
    t = ring(4)
    result = synthesize(t, generate_demand("alltoall", t), "astar")
    assert result.report.ok and vertex.count(False) == result.schedule.meta["rounds"] >= 1
    assert capfd.readouterr() == ("", "")
