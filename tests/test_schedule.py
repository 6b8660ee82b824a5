import dataclasses

import pytest

from collsched.demand import Demand
from collsched.epochs import EpochConfig
from collsched.errors import ConservationError
from collsched.milp import ModelOptions, build_general_model
from collsched.cli import _dump, _read
from collsched.schedule import (Schedule, ScheduleEvent, extract_schedule,
                                msccl_style_steps, prune_unused_flows,
                                schedule_from_json, schedule_to_json)
from collsched.solver import solve
from collsched.topology import line


def _solved_star3(star3, solver_opts, k=2):
    t, d = star3
    cfg = EpochConfig(1.0, k)
    sol = solve(build_general_model(t, d, cfg, ModelOptions()), solver_opts)
    assert sol.feasible
    return t, d, cfg, sol


def _set(sol, columns, value):
    """A copy of the solution with `columns` set to `value`."""
    x = sol.x.copy()
    x[columns] = value
    return dataclasses.replace(sol, x=x)


class TestPrune:
    def test_spurious_flow_removed(self, star3, solver_opts):
        t, d, cfg, sol = _solved_star3(star3, solver_opts, k=3)
        # inject a gratuitous extra hop: resend the chunk to d1 in epoch 2
        m = sol.model
        spur = m.var("F", "s", 0, "h", "d1", 2)
        hop = m.var("F", "s", 0, "s", "h", 1)
        corrupted = _set(sol, [spur, hop], 1.0)
        pruned = prune_unused_flows(corrupted)
        assert pruned.x[spur] == 0.0
        assert pruned.x[hop] == 0.0
        # reads unchanged
        for key, idx in m.family_items("R"):
            assert pruned.x[idx] == corrupted.x[idx]

    def test_prune_is_idempotent(self, star3, solver_opts):
        t, d, cfg, sol = _solved_star3(star3, solver_opts, k=3)
        once = prune_unused_flows(sol)
        twice = prune_unused_flows(once)
        assert (once.x == twice.x).all()

    def test_prune_preserves_completion(self, star3, solver_opts):
        t, d, cfg, sol = _solved_star3(star3, solver_opts, k=3)
        before = extract_schedule(sol)
        after = extract_schedule(prune_unused_flows(sol))
        assert before.completion_epoch == after.completion_epoch

    def test_prune_preserves_objective(self, star3, solver_opts):
        t, d, cfg, sol = _solved_star3(star3, solver_opts, k=3)
        pruned = prune_unused_flows(sol)
        idx, coef = sol.model.objective_arrays()
        value = float(coef @ pruned.x[idx])
        assert value == pytest.approx(sol.objective)

    def test_missing_delivery_raises(self, star3, solver_opts):
        t, d, cfg, sol = _solved_star3(star3, solver_opts)
        broken = _set(sol, [idx for _, idx in sol.model.family_items("F")], 0.0)
        with pytest.raises(ConservationError):
            prune_unused_flows(broken)


class TestExtract:
    def test_star3_optimal_support(self, star3, solver_opts):
        t, d, cfg, sol = _solved_star3(star3, solver_opts)
        sched = extract_schedule(prune_unused_flows(sol))
        moves = [(e.src, e.dst, e.epoch) for e in sched.events]
        assert moves == [("s", "h", 0), ("h", "d1", 1), ("h", "d2", 1), ("h", "d3", 1)]
        assert sched.completion_epoch == 1
        assert sched.transfer_time == pytest.approx(2.0)

    def test_empty_demand(self, solver_opts):
        t = line(2)
        d = Demand(frozenset(), 1, 1)
        cfg = EpochConfig(1.0, 1)
        sol = solve(build_general_model(t, d, cfg, ModelOptions()), solver_opts)
        sched = extract_schedule(sol)
        assert sched.events == ()
        assert sched.transfer_time == 0.0

    def test_funnel_six_events(self, funnel3, solver_opts):
        t, d = funnel3
        cfg = EpochConfig(1.0, 3)
        sol = solve(build_general_model(t, d, cfg, ModelOptions()), solver_opts)
        sched = extract_schedule(prune_unused_flows(sol))
        assert len(sched.events) == 6  # three into the relay, three out
        assert sched.completion_epoch == 2

    def test_event_order_deterministic(self, star3, solver_opts):
        t, d, cfg, sol = _solved_star3(star3, solver_opts)
        sched = extract_schedule(sol)
        keys = [(e.epoch, str(e.source), str(e.src), str(e.dst), e.chunk)
                for e in sched.events]
        assert keys == sorted(keys)


class TestSerialization:
    def test_json_round_trip(self, star3, solver_opts):
        t, d, cfg, sol = _solved_star3(star3, solver_opts)
        sched = extract_schedule(sol)
        doc = schedule_to_json(sched)
        again = schedule_from_json(doc)
        assert again.events == sched.events
        assert again.tau == sched.tau
        assert again.completion_epoch == sched.completion_epoch

    def test_file_round_trip(self, tmp_path, star3, solver_opts):
        t, d, cfg, sol = _solved_star3(star3, solver_opts)
        sched = extract_schedule(sol)
        path = tmp_path / "sched.json"
        _dump(schedule_to_json(sched), path)
        assert schedule_from_json(_read(path)).events == sched.events

    def test_msccl_style_steps(self):
        sched = Schedule(1.0, (ScheduleEvent(0, 0, 0, 1, 0), ScheduleEvent(0, 0, 1, 2, 1)),
                         1, 1)
        steps = msccl_style_steps(sched)
        assert [s["step"] for s in steps] == [0, 1]
        assert steps[0]["src_rank"] == 0 and steps[0]["dst_rank"] == 1
        assert all(s["type"] == "send" for s in steps)
