import dataclasses

import pytest
from scipy.optimize._highspy._core import HighsModelStatus

from collsched import estimator, solver
from collsched.demand import Demand, generate_demand
from collsched.epochs import EpochConfig, epoch_duration
from collsched.errors import EstimationError
from collsched.estimator import default_candidates, estimate_epoch_upper_bound
from collsched.milp import ModelOptions, build_general_model
from collsched.solver import INFEASIBLE, Solution, SolverOptions, solve
from collsched.topology import dgx1, dgx2, line, ring, star


def test_star3_candidate_ladder(star3, solver_opts):
    t, d = star3
    n_e = estimate_epoch_upper_bound(t, d, tau_opt=1.0, candidates=[2.0, 4.0],
                                     solver_opts=solver_opts)
    assert n_e == 2  # the 2s candidate is feasible on 4 coarse epochs


def test_estimate_is_sound(star3, solver_opts):
    t, d = star3
    n_e = estimate_epoch_upper_bound(t, d, tau_opt=1.0, candidates=[2.0, 4.0],
                                     solver_opts=solver_opts)
    sol = solve(build_general_model(t, d, EpochConfig(1.0, n_e), ModelOptions()),
                solver_opts)
    assert sol.feasible


def test_unreachable_demand_never_feasible(solver_opts):
    t = star(3)
    d = Demand(frozenset({("d1", 0, "d2")}), 1, 1)
    with pytest.raises(EstimationError):
        estimate_epoch_upper_bound(t, d, 1.0, candidates=[1.0, 2.0, 4.0],
                                   solver_opts=solver_opts)


def test_huge_candidate_returns_large_bound(star3, solver_opts):
    t, d = star3
    n_e = estimate_epoch_upper_bound(t, d, tau_opt=1.0, candidates=[64.0],
                                     solver_opts=solver_opts)
    assert n_e == 64  # loose upper bound; the real solve shrinks it


def test_candidates_must_ascend(star3, solver_opts):
    t, d = star3
    with pytest.raises(EstimationError):
        estimate_epoch_upper_bound(t, d, 1.0, candidates=[4.0, 2.0],
                                   solver_opts=solver_opts)


def test_default_ladder_covers_line(solver_opts):
    t = line(4)
    d = generate_demand("alltoall", t, 1, 1)
    ladder = default_candidates(t, d)
    assert ladder == sorted(ladder) and len(ladder) >= 8
    n_e = estimate_epoch_upper_bound(t, d, tau_opt=1.0, solver_opts=solver_opts)
    sol = solve(build_general_model(t, d, EpochConfig(1.0, n_e), ModelOptions()),
                solver_opts)
    assert sol.feasible


@pytest.mark.parametrize("t, coll, chunk, bound, stops", [
    (ring(4), "alltoall", 1, 6, HighsModelStatus.kOptimal),
    (ring(8), "alltoall", 1, 14, HighsModelStatus.kSolutionLimit),
    (dgx1(), "alltoall", 1 << 20, 10, HighsModelStatus.kOptimal),
], ids=["ring4", "ring8", "dgx1"])
def test_coarse_solves_stop_at_their_first_incumbent(t, coll, chunk, bound, stops, monkeypatch):
    # The bounds the estimator gave when it solved every coarse MILP to
    # optimality. The first feasible coarse model ends the estimate, so HiGHS
    # is asked to stop at its first incumbent, also when given options that
    # do not say so; on ring(8) it does stop there, before proving that
    # incumbent optimal.
    handed = []
    real = solver.milp

    def record(c, *, integrality, lb, ub, a, row_lb, row_ub, options, offset):
        res = real(c, integrality=integrality, lb=lb, ub=ub, a=a, row_lb=row_lb,
                   row_ub=row_ub, options=options, offset=offset)
        handed.append((options.get("mip_max_improving_sols"), res["status"]))
        return res

    monkeypatch.setattr(solver, "milp", record)
    d = generate_demand(coll, t, chunk_size=chunk)
    n_e = estimate_epoch_upper_bound(t, d, epoch_duration(t, chunk),
                                     solver_opts=SolverOptions(time_limit=60.0))
    assert n_e == bound
    assert [limit for limit, _ in handed] == [1] * len(handed)
    assert handed[-1][1] == stops


def test_coarse_models_ignore_capacity_overrides(monkeypatch):
    # An override names a real epoch, which no coarse epoch matches: a link
    # doubled in real epoch 1 (seconds 1-2) must not double coarse epoch 1,
    # which spans seconds 2-4 of the 4-epoch model of 8 s.
    t = dataclasses.replace(line(2), capacity_overrides={(0, 1, 1): 2.0})
    seen = []
    real = estimator.build_time_expanded

    def record(topology, *args, **kwargs):
        seen.append(topology.capacity_overrides)
        return real(topology, *args, **kwargs)

    monkeypatch.setattr(estimator, "build_time_expanded", record)
    d = Demand(frozenset({(0, 0, 1), (0, 1, 1)}), 2, 1)
    assert estimate_epoch_upper_bound(t, d, 1.0, candidates=[8.0]) == 8
    assert seen and all(overrides == {} for overrides in seen)


class _Built(Exception):
    pass


def test_the_coarse_dgx2_alltoall_model_is_settled(monkeypatch):
    # The estimator's first 8-epoch coarse MILP sets the memory peak of
    # dgx2 alltoall's LP synthesis: 88,336 rows before every builder
    # settled its model, 34,000 after, the rest decided by its fixings.
    # Only models are built here; none is solved.
    t = dgx2()
    d = generate_demand("alltoall", t, chunk_size=1 << 20)
    real, built = estimator.build_time_expanded, []

    def build(*args):
        built.append(real(*args))
        if built[-1].meta["cfg"].K == 8:
            raise _Built
        return built[-1]

    monkeypatch.setattr(estimator, "build_time_expanded", build)
    monkeypatch.setattr(estimator, "solve", lambda m, opts: Solution(INFEASIBLE, m))
    with pytest.raises(_Built):
        estimate_epoch_upper_bound(t, d, epoch_duration(t, 1 << 20))
    assert [m.meta["cfg"].K for m in built] == [4, 8]
    assert built[-1].meta["cfg"].tau * 8 == default_candidates(t, d)[0]
    assert built[-1].num_rows <= 40_000
