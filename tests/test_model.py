import copy

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from collsched import solver
from collsched.model import BINARY, INF, TOL, Axis, Model, holds
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


def test_settle_takes_out_the_rows_the_bounds_decide():
    m = Model()
    x = _grid(m)
    m.fix(x[0, 0], 2.0)
    m.add_rows([1.0, 1.0, 1.0, -INF, 0.0, 5.0], [INF, 3.0, 1.0, 0.5, 1.0, 5.0],
               ([0, 1, 2, 4], x[0, 0], 1.0),
               ([1, 3, 3, 5, 5, 5, 5], [x[0, 2], x[1, 2], x[1, 2], x[1, 1], x[1, 1], x[0, 2],
                                        x[1, 0]], [2.0, 3.0, -2.0, 1.0, -1.0, 1.0, 1.0]),
               (2, x[1, 0], 1.0))
    m.settle()
    # Row 0 holds at x[0, 0] = 2 and goes. Rows 1 and 3 (whose x[1, 2]
    # coefficients sum to 1) become the bounds x[0, 2] <= 0.5 and
    # x[1, 2] <= 0.5 and go. Row 2 would need x[1, 0] = -1, below its
    # bound, and row 4 fails at x[0, 0] = 2: neither can hold, so both stay.
    # Row 5 keeps two open columns, and its cancelled x[1, 1] entry.
    assert list(m.rows) == [([(x[1, 0], 1.0), (x[0, 0], 1.0)], 1.0, 1.0),
                            ([(x[0, 0], 1.0)], 0.0, 1.0),
                            ([(x[1, 1], 0.0), (x[0, 2], 1.0), (x[1, 0], 1.0)], 5.0, 5.0)]
    assert m.ub[x[0, 2]] == m.ub[x[1, 2]] == 0.5
    assert (m.lb[x[1, 0]], m.ub[x[1, 0]]) == (0.0, INF)
    assert m.lb[x[[0, 1, 1], [2, 1, 2]]].tolist() == [0.0] * 3


def test_settle_fixes_a_binary_and_repeats_while_it_fixes_columns():
    m = Model()
    first = m.columns(3)
    x = np.arange(3) + first
    m.add_family("x", [Axis(range(3))], x, BINARY)
    # 2 x0 <= 1 rounds x0 down to 0; then x1 + x0 >= 1 fixes x1 at 1; then
    # x2 - x1 = 0 fixes x2 at 1, and every row is gone.
    m.add_rows([-INF, 1.0, 0.0], [1.0, INF, 0.0],
               ([0, 1, 1], [x[0], x[0], x[1]], [2.0, 1.0, 1.0]),
               ([2, 2], [x[2], x[1]], [1.0, -1.0]))
    m.settle()
    assert m.num_rows == 0 and list(m.rows) == []
    assert m.lb.tolist() == m.ub.tolist() == [0.0, 1.0, 1.0]


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
def _models(draw, coefs=_COEFS, bounds=st.just((0.0, 1.0))):
    """A model of up to 6 rows and 6 columns, its entries added in blocks as
    (row, column, coefficient) triples, repeated (row, column) pairs,
    empty rows and empty columns all likely, each row's (lb, ub) drawn from
    `bounds`; the entries in the order added; a permutation of the columns;
    a subset of them, in any order; and a vector."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    m = Model()
    m.columns(n_cols)
    entries = []
    row_bounds = lambda size: np.array(draw(st.lists(bounds, min_size=size, max_size=size))).T
    while m.num_rows < n_rows and draw(st.booleans()):
        size = draw(st.integers(1, n_rows - m.num_rows))
        cell = st.tuples(st.integers(0, size - 1), st.integers(0, max(n_cols - 1, 0)), coefs)
        triples = draw(st.lists(cell, max_size=12)) if n_cols else []
        entries += [(m.num_rows + r, c, v) for r, c, v in triples]
        m.add_rows(*row_bounds(size), *triples)
    if m.num_rows < n_rows:
        m.add_rows(*row_bounds(n_rows - m.num_rows))
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


# -- settling keeps every optimum ---------------------------------------------

# Coefficients and row bounds whose optima HiGHS finds exactly, pairs that
# cancel among them; each column's (lb, ub, binary): free, binary or fixed.
_SMALL = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, 3.0])
_ROW_BOUNDS = st.sampled_from([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (-INF, 1.0), (-INF, 0.0),
                               (0.0, INF), (1.0, INF), (-1.0, 2.0), (0.5, 1.5)])
_COLUMNS = st.sampled_from([(0.0, 2.0, False), (-1.0, 1.0, False), (0.0, 1.0, True),
                            (0.0, 0.0, False), (1.0, 1.0, False), (0.5, 0.5, False),
                            (0.0, 0.0, True), (1.0, 1.0, True)])


@settings(max_examples=200, deadline=None)
@given(_models(_SMALL, _ROW_BOUNDS), st.data())
def test_settle_keeps_the_status_and_the_optimum(drawn, data):
    m = drawn[0]
    n = m.num_vars
    columns = data.draw(st.lists(_COLUMNS, min_size=n, max_size=n))
    lb, ub = (np.array([col[i] for col in columns], dtype=float) for i in (0, 1))
    m.lb, m.ub = lb.copy(), ub.copy()
    m.binary = np.array([col[2] for col in columns], dtype=bool)
    m.add_objective(np.arange(n), data.draw(st.lists(_SMALL, min_size=n, max_size=n)))
    settled = copy.deepcopy(m)
    settled.settle()
    before, after = solve(m), solve(settled)
    assert after.status == before.status
    if before.feasible:
        assert after.objective == pytest.approx(before.objective, rel=1e-9, abs=1e-9)
        # The settled optimum meets every row of the model as built.
        row_lb, row_ub = m.row_bounds()
        assert np.all(holds(m.matrix() @ after.x, row_lb, row_ub))
        assert np.all((after.x >= lb - TOL) & (after.x <= ub + TOL))
        # No row with fewer than two open columns is left where the rows can hold.
        free = settled.lb != settled.ub
        assert all(sum(1 for j, v in coeffs if free[j] and v != 0) >= 2
                   for coeffs, _, _ in settled.rows)
    assert np.all(settled.lb >= lb) and np.all(settled.ub <= ub)


@settings(max_examples=150, deadline=None)
@given(_models(), st.data())
def test_a_copy_trims_settles_and_grows_apart_from_its_original(drawn, data):
    m, entries, order, subset, x = drawn
    before = m.matrix()
    rows_before = [list(r) for r in zip(*m.row_bounds())]
    c = m.copy()
    # Take some (row, column) entries out: the copy's matrix is scipy's of
    # the rest, and the original's is as it was.
    pairs = sorted({(r, k) for r, k, _ in entries})
    gone = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rows, cols = (np.array([p[i] for p in gone], dtype=np.int64) for i in (0, 1))
    c.remove_entries(c.entry_positions(rows, cols))
    kept = [(r, k, v) for r, k, v in entries if (r, k) not in set(gone)]
    ref = sp.csc_matrix(([v for _, _, v in kept], ([r for r, _, _ in kept], [k for _, k, _ in kept])),
                        shape=(m.num_rows, m.num_vars))
    _same(c.matrix(), ref)
    _same(m.matrix(), before)
    # Settled, its columns read the same from the whole matrix or by subset;
    # rows added after still assemble with the rest.
    c.fix(np.arange(0, m.num_vars, 2), 0.0)
    c.settle()
    whole = c.matrix()
    _same(c.matrix(subset), sp.csc_matrix((whole.data, whole.indices, whole.indptr),
                                          shape=whole.shape)[:, subset])
    c.add_rows([0.0], [1.0], (0, np.arange(m.num_vars), 1.0))
    grown = sp.vstack([sp.csc_matrix((whole.data, whole.indices, whole.indptr), shape=whole.shape),
                       sp.csc_matrix(np.ones((1, m.num_vars)))], format="csc")
    assert (c.matrix() @ x).tolist() == pytest.approx((grown @ x).tolist())
    assert [list(r) for r in zip(*m.row_bounds())] == rows_before
    assert m.lb.tolist() == [0.0] * m.num_vars
