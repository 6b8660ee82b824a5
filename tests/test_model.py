import numpy as np
import pytest

from collsched import solver
from collsched.model import INF, Axis, Model
from collsched.solver import Solution, solve


def _grid(m: Model) -> np.ndarray:
    """A 2 x 3 family over keys (a|b, 0..2) whose columns are not in key
    order; ("a", 1) is left undeclared."""
    layout = np.array([[4, -1, 1], [2, 0, 3]])
    index = np.where(layout >= 0, layout + m.columns(5), -1)
    m.add_family("x", [Axis(["a", "b"]), Axis(range(3))], index)
    return index


def test_rows_sum_a_repeated_column_and_keep_a_cancelled_entry():
    m = Model()
    x = _grid(m)
    m.add_rows([0.0, -INF], [4.0, 1.0],
               ([0, 0, 0], [x[0, 0], x[1, 2], x[0, 0]], [2.0, 1.0, 3.0]),
               ([1, 1], x[1, 0], [2.0, -2.0]))
    # Entries come in column order, not in the order added.
    assert list(m.rows) == [([(x[1, 2], 1.0), (x[0, 0], 5.0)], 0.0, 4.0),
                            ([(x[1, 0], 0.0)], -INF, 1.0)]


def test_rows_list_the_entries_handed_to_the_solver(monkeypatch):
    m = Model()
    x = _grid(m)
    m.add_rows([1.0, 0.0, 2.0], [INF, 0.0, 2.0],
               ([0, 1, 1, 2], [x[0, 0], x[0, 2], x[0, 2], x[1, 1]], [1.0, 1.0, -1.0, 2.0]),
               (2, x[1, 1], 1.0))
    m.add_objective(x[x >= 0], -1.0)
    handed = []
    real = solver.milp

    def record(c, *, integrality, lb, ub, a, row_lb, row_ub, options, offset):
        handed.append(a.nnz)
        return real(c, integrality=integrality, lb=lb, ub=ub, a=a, row_lb=row_lb,
                    row_ub=row_ub, options=options, offset=offset)

    monkeypatch.setattr(solver, "milp", record)
    assert solve(m).feasible
    assert handed == [sum(len(coeffs) for coeffs, _, _ in m.rows)] == [m.matrix().nnz]


def test_var_finds_declared_keys_only():
    m = Model()
    x = _grid(m)
    assert m.var("x", "b", 1) == x[1, 1]
    with pytest.raises(KeyError):
        m.var("x", "a", 1)  # undeclared
    with pytest.raises(KeyError):
        m.var("x", "b")  # too few key parts
    with pytest.raises(KeyError):
        m.var("x", "b", 1, 0)  # too many


def test_families_and_axes_are_checked():
    m = Model()
    _grid(m)
    with pytest.raises(ValueError, match="declared twice"):
        _grid(m)
    with pytest.raises(ValueError, match="does not match"):
        m.add_family("y", [Axis(["a", "b"])], np.arange(3) + m.columns(3))
    with pytest.raises(ValueError, match="distinct"):
        Axis([0, 1, 0])


def test_family_values_in_column_order_above_threshold():
    m = Model()
    x = _grid(m)
    values = np.zeros(m.num_vars)
    values[x[1, 2]], values[x[0, 2]], values[x[1, 0]], values[x[0, 0]] = 0.7, 0.4, 0.9, 0.5
    sol = Solution(solver.OPTIMAL, m, values)
    got = sol.family_values("x", 0.45)
    assert got == {("a", 0): 0.5, ("b", 0): 0.9, ("b", 2): 0.7}
    assert list(got) == [("b", 0), ("b", 2), ("a", 0)]
    assert sol.family_values("missing") == {}
