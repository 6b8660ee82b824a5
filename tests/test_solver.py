import pytest

from collsched.epochs import EpochConfig
from collsched.errors import HorizonInfeasibleError, ValidationError
from collsched.milp import ModelOptions, build_general_model
from collsched.model import BINARY, Model
from collsched.solver import (INFEASIBLE, OPTIMAL, SolverOptions,
                              min_feasible_horizon, solve)


def test_trivial_binary_max(solver_opts):
    m = Model()
    x = m.add_var("x", (0,), BINARY)
    m.add_le([(x, 1.0)], 1.0)
    m.add_objective_term(x, 1.0)
    sol = solve(m, solver_opts)
    assert sol.status == OPTIMAL
    assert sol.value("x", 0) == pytest.approx(1.0)
    assert sol.objective == pytest.approx(1.0)


def test_contradiction_is_infeasible(solver_opts):
    m = Model()
    x = m.add_var("x", (0,))
    m.add_ge([(x, 1.0)], 1.0)
    m.add_le([(x, 1.0)], 0.0)
    sol = solve(m, solver_opts)
    assert sol.status == INFEASIBLE
    assert sol.x is None


def test_integrality_of_integer_vars(solver_opts):
    m = Model()
    x = m.add_var("x", (0,), BINARY)
    y = m.add_var("y", (0,), lb=0.0, ub=10.0)
    m.add_le([(x, 3.0), (y, 2.0)], 7.5)
    m.add_objective_term(x, 5.0)
    m.add_objective_term(y, 1.0)
    sol = solve(m, solver_opts)
    assert abs(sol.value("x", 0) - round(sol.value("x", 0))) < 1e-6


def test_star3_objective_matches_hand_sum(star3, solver_opts):
    # the 2-epoch optimum delivers all three copies in epoch 1: 3 * 1/2
    t, d = star3
    sol = solve(build_general_model(t, d, EpochConfig(1.0, 2), ModelOptions()), solver_opts)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.5)


def test_min_feasible_horizon_star3(star3, solver_opts):
    t, d = star3
    builder = lambda k: build_general_model(t, d, EpochConfig(1.0, k), ModelOptions())
    k, sol = min_feasible_horizon(builder, 1, 8, solver_opts)
    assert k == 2 and sol.feasible


def test_min_feasible_horizon_no_copy(star3, solver_opts):
    t, d = star3
    opts = ModelOptions(switch_mode="no-copy")
    builder = lambda k: build_general_model(t, d, EpochConfig(1.0, k), opts)
    k, _ = min_feasible_horizon(builder, 1, 8, solver_opts)
    assert k == 4


def test_horizon_range_exhausted(star3, solver_opts):
    t, d = star3
    builder = lambda k: build_general_model(t, d, EpochConfig(1.0, k), ModelOptions())
    with pytest.raises(HorizonInfeasibleError):
        min_feasible_horizon(builder, 1, 1, solver_opts)


def test_feasibility_monotone_in_horizon(star3, solver_opts):
    t, d = star3
    feasible = []
    for k in range(1, 7):
        sol = solve(build_general_model(t, d, EpochConfig(1.0, k), ModelOptions()),
                    solver_opts)
        feasible.append(sol.feasible)
    assert feasible == sorted(feasible)  # False... then True...


def test_gap_honesty(star3, solver_opts):
    t, d = star3
    opts = SolverOptions(time_limit=60, relative_gap=0.5)
    sol = solve(build_general_model(t, d, EpochConfig(1.0, 4), ModelOptions()), opts)
    assert sol.feasible
    assert sol.achieved_gap <= 0.5 + 1e-9


def test_solver_options_validation():
    with pytest.raises(ValidationError):
        SolverOptions(relative_gap=1.0)
    with pytest.raises(ValidationError):
        SolverOptions(time_limit=0.0)


def test_lp_text_export(star3):
    t, d = star3
    m = build_general_model(t, d, EpochConfig(1.0, 2), ModelOptions())
    text = m.to_lp_text()
    assert text.startswith("Maximize")
    assert "Subject To" in text and "Binaries" in text and text.rstrip().endswith("End")


def test_deterministic_resolve(star3, solver_opts):
    t, d = star3
    runs = []
    for _ in range(2):
        sol = solve(build_general_model(t, d, EpochConfig(1.0, 3), ModelOptions()),
                    solver_opts)
        runs.append(sorted(sol.family_values("F", 0.5)))
    assert runs[0] == runs[1]
