import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

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


def test_rows_a_block_omits_are_gone_with_their_entries():
    m = Model()
    x = _grid(m)
    m.add_rows([0.0, 1.0, 2.0], [5.0, 6.0, 7.0],
               ([0, 1, 2], [x[0, 0], x[0, 2], x[1, 0]], [1.0, 2.0, 3.0]),
               ([1, 2], x[1, 1], 4.0), keep=[True, False, True])
    assert list(m.rows) == [([(x[0, 0], 1.0)], 0.0, 5.0),
                            ([(x[1, 1], 4.0), (x[1, 0], 3.0)], 2.0, 7.0)]


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


@pytest.mark.parametrize("row, column", [(0, 3), (0, -1), (1, 0), (0, 2 ** 32 + 1), (2 ** 32, 0)])
def test_matrix_refuses_an_entry_outside_the_model(row, column):
    # scipy's kernels would write outside their arrays: refused, as by scipy.
    # An index past int32 is refused too, not wrapped onto one in the model.
    m = Model()
    m.columns(3)
    m.add_rows([0.0], [1.0], (row, column, 1.0))
    with pytest.raises(ValueError, match="index outside"):
        m.matrix()


def test_product_refuses_a_vector_of_another_length():
    m = Model()
    m.columns(3)
    m.add_rows([0.0], [1.0], (0, [0, 2], [1.0, 2.0]))
    assert (m.matrix() @ np.array([1.0, 5.0, 3.0])).tolist() == [7.0]
    with pytest.raises(ValueError, match="vector of shape"):
        m.matrix() @ np.ones(2)

# -- the matrix, byte for byte as scipy.sparse builds it ----------------------

# Coefficients whose sums depend on the order of their terms (0.1 + 0.2 +
# 0.3 is not 0.3 + 0.2 + 0.1), and pairs that cancel to an explicit zero.
_COEFS = st.sampled_from([0.1, 0.2, 0.3, -0.3, 1.0, -1.0, 2.5, 1e16, -1e16, 3e-9])


@st.composite
def _models(draw):
    """A model of up to 6 rows and 6 columns, its entries added in blocks as
    (row, column, coefficient) triples, repeated (row, column) pairs,
    empty rows and empty columns all likely; the entries in the order
    added; a permutation of the columns; a subset of them, in any order;
    and a vector."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    m = Model()
    m.columns(n_cols)
    entries = []
    while m.num_rows < n_rows and draw(st.booleans()):
        size = draw(st.integers(1, n_rows - m.num_rows))
        cell = st.tuples(st.integers(0, size - 1), st.integers(0, max(n_cols - 1, 0)), _COEFS)
        triples = draw(st.lists(cell, max_size=12)) if n_cols else []
        entries += [(m.num_rows + r, c, v) for r, c, v in triples]
        m.add_rows(np.zeros(size), np.ones(size), *triples)
    if m.num_rows < n_rows:
        m.add_rows(np.zeros(n_rows - m.num_rows), np.ones(n_rows - m.num_rows))
    order = np.array(draw(st.permutations(range(n_cols))), dtype=np.int64)
    subset = np.array(draw(st.permutations(range(n_cols)))[:draw(st.integers(0, n_cols))],
                      dtype=np.int64)
    x = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n_cols, max_size=n_cols)))
    return m, entries, order, subset, x


def _same(ours, ref) -> None:
    """Our CSC holds scipy's compressed arrays, byte for byte."""
    for name in ("indptr", "indices", "data"):
        got, want = getattr(ours, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert ours.nnz == ref.nnz


@settings(max_examples=150, deadline=None)
@given(_models())
def test_matrix_rows_and_product_are_scipys_to_the_byte(drawn):
    m, entries, order, subset, x = drawn
    rows, cols, coefs = (np.array([e[i] for e in entries], dtype=t)
                         for i, t in enumerate((np.int64, np.int64, float)))
    shape = (m.num_rows, m.num_vars)
    ref = sp.csc_matrix((coefs, (rows, cols)), shape=shape)
    ours = m.matrix()
    _same(ours, ref)
    assert ours.shape == ref.shape
    assert (ours @ x).tobytes() == (ref @ x).tobytes()
    # Rows: the transpose holds scipy's CSR of the matrix.
    by_row = ref.tocsr()
    _same(ours.transpose(), by_row)
    assert ours.transpose().shape == shape[::-1]
    ptr, idx, val = (a.tolist() for a in (by_row.indptr, by_row.indices, by_row.data))
    assert [coeffs for coeffs, _, _ in m.rows] == [
        list(zip(idx[a:b], val[a:b])) for a, b in zip(ptr, ptr[1:])]
    # Column j of matrix(order) is the model's column order[j].
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    ref = sp.csc_matrix((coefs, (rows, position[cols])), shape=shape)
    ours = m.matrix(order)
    _same(ours, ref)
    assert (ours @ x).tobytes() == (ref @ x).tobytes()
    # matrix(subset) holds the entries on the subset's columns only, column j
    # the model's column subset[j].
    position = np.full(m.num_vars, -1)
    position[subset] = np.arange(len(subset))
    on = position[cols] >= 0
    ref = sp.csc_matrix((coefs[on], (rows[on], position[cols[on]])),
                        shape=(m.num_rows, len(subset)))
    ours = m.matrix(subset)
    _same(ours, ref)
    assert ours.shape == ref.shape
    assert (ours @ x[subset]).tobytes() == (ref @ x[subset]).tobytes()
