"""Tests of the benchmark itself, outside the package's test suite:

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import SELF_TIME_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, make_inputs, relabel, run_inputs  # noqa: E402

from collsched import algorithmic_bandwidth  # noqa: E402
from collsched.topology import dgx1, ring  # noqa: E402

ASTAR = WORKLOADS["ndv2x2-allgather-astar"]
# Small inputs that take the other two paths of `synthesize` in well under a
# second; the benchmark's LP workload takes about 20 s a call.
SMALL_MILP = Workload("ring4-alltoall-milp", lambda: ring(4), "alltoall", {"method": "milp"})
SMALL_LP = Workload("ring4-alltoall-lp", lambda: ring(4), "alltoall",
                    {"method": "lp", "search_horizon": True})
REPEATED = ("model.vars", "model.rows", "model.nnz", "model.fixed_vars",
            "model.binaries", "model.max_nnz", "solver.calls", "astar.rounds",
            "schedule.events")


def traced_call(w, seed):
    [call] = run.closed_loop(w, [make_inputs(w, seed)], 1e-9, traced=True)
    assert not call.problems
    return call


@pytest.fixture(scope="module")
def astar_call():
    return traced_call(ASTAR, 3)


def test_traced_runs_repeat_counts_and_quality(astar_call):
    a, b = astar_call, traced_call(ASTAR, 3)
    ma, mb = a.tracer.metrics(a.result), b.tracer.metrics(b.result)
    assert {k: ma[k] for k in REPEATED} == {k: mb[k] for k in REPEATED}
    assert ma["astar.rounds"] == ma["solver.calls"] > 1 and ma["model.nnz"] > 0
    assert (algorithmic_bandwidth(a.result.report)["aggregate"]
            == algorithmic_bandwidth(b.result.report)["aggregate"])


@pytest.mark.parametrize("w", [ASTAR, SMALL_MILP, SMALL_LP], ids=lambda w: w.name)
def test_self_times_add_up_to_synth_time(w, astar_call):
    call = astar_call if w is ASTAR else traced_call(w, 1)
    m = call.tracer.metrics(call.result)
    assert sum(m[k] for k in SELF_TIME_METRICS.values()) == pytest.approx(
        m["trace.synth_s"], rel=1e-9)
    assert all(m[k] >= 0 for k in SELF_TIME_METRICS.values())
    assert m["trace.synth_s"] == call.seconds
    # Each path reports the layers it runs and 0 for the others.
    assert (m["estimator.solves"] > 0) == (m["milp.build_s"] > 0) == (w is not ASTAR)
    assert (m["astar.build_s"] > 0) == (w is ASTAR)
    assert (m["lp.decompose_s"] > 0) == (w is SMALL_LP)


def test_reported_metrics_are_the_declared_ones(astar_call):
    declared = lambda trace: {m["name"] for m in run.declared_metrics(trace)}
    assert set(run.layer_metrics([astar_call], [astar_call])) == declared(True)
    assert set(run.end_to_end_metrics([astar_call], [0.5])) == declared(False)


def test_tracer_restores_every_wrapped_name():
    with Tracer() as tracer:
        patched = list(tracer._patches)
        assert all(getattr(mod, attr) is not orig for mod, attr, orig in patched)
    assert all(getattr(mod, attr) is orig for mod, attr, orig in patched)
    names = {(mod.__name__, attr) for mod, attr, _ in patched}
    for mod in ("workflow", "solver", "astar", "estimator"):
        assert (f"collsched.{mod}", "solve") in names
    assert ("collsched.solver", "milp") in names


def test_checks_reject_tampered_results():
    t, d = make_inputs(SMALL_MILP, 2)
    [call] = run.closed_loop(SMALL_MILP, [(t, d)], 1e-9, traced=False)
    good = call.result
    opts = SMALL_MILP.synthesis_options()
    assert run.check(good, t, d, opts, call.seconds, good) == []

    late = dataclasses.replace(good.schedule, completion_epoch=good.schedule.completion_epoch + 1)
    problems = run.check(dataclasses.replace(good, schedule=late), t, d, opts, 1.0, None)
    assert any("claims epoch" in p for p in problems)

    short = dataclasses.replace(good.schedule, events=good.schedule.events[:-1])
    problems = run.check(dataclasses.replace(good, schedule=short), t, d, opts, 1.0, good)
    assert any("second replay" in p for p in problems)
    assert any("first call" in p for p in problems)

    stopped = dataclasses.replace(good, status="feasible-gap")
    assert run.check(stopped, t, d, opts, 1.0, None)


def test_relabel_is_a_seeded_isomorphism():
    t = dgx1()
    a, b, c = relabel(t, 7), relabel(t, 7), relabel(t, 8)
    assert a == b and a != c
    assert a.nodes == t.nodes
    degree = lambda top: sorted(len(top.out_edges(n)) for n in top.nodes)
    assert degree(a) == degree(t)
    assert sorted(e.capacity for e in a.edges) == sorted(e.capacity for e in t.edges)


def test_each_seed_has_its_own_inputs():
    w = Workload("dgx1-alltoall", dgx1, "alltoall")
    a, b = run_inputs(w, 1), run_inputs(w, 2)
    assert a == run_inputs(w, 1)
    labellings = [t.edges for t, _ in a + b]
    assert len(set(labellings)) == len(labellings)


def test_closed_loop_takes_inputs_in_turn():
    inputs = run_inputs(SMALL_MILP, 1)[:2]
    calls = run.closed_loop(SMALL_MILP, inputs, 1.0, traced=False)
    assert [c.input for c in calls] == [i % 2 for i in range(len(calls))]
    assert len(calls) > 2 and not any(c.problems for c in calls)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    got = run.tail([float(i) for i in range(20)])
    assert got == {"percentile": 50.0, "value": 9.0}
