"""Solver-agnostic linear model stored as numpy blocks: typed variables in
families, rows in COO blocks, maximize objective.

A model is built one way, a block at a time. `columns` reserves a run of
columns; `add_family` names them: a family groups the variables of one role
(chunk flows, buffers, reads, ...), and its keys are the cartesian product of
its axes. Each axis holds labels of one or more key parts, and a key is one
label of every axis, concatenated. The family's index array, shaped like its
axes, holds each key's column, or -1 where the family declares no variable,
so builders address whole families by index arithmetic and `var` finds a
key's column from the axes alone. `fix` pins columns to values.

`add_rows` appends rows lb <= sum(coef * var) <= ub as (row, column,
coefficient) triples with a bound pair per row, dropping zero coefficients;
`add_objective` adds terms to the objective, whose sense is always maximize.
A model keeps its terms as added, a block per term: rows and columns as
int32 (int64 only where an index does not fit), and the coefficients as one
float where a term gives a scalar, so most entries cost 8 bytes.

The rows are read back one way too: `matrix` assembles them into the sparse
matrix the solver gets, a `CSC`, summing the coefficients of a repeated
(row, column) entry, and `rows` lists each row's entries of that matrix.
It is assembled once; a subset of the columns takes theirs. `CSC` and its
assembly call scipy's compiled kernels (`scipy.sparse._sparsetools`, loaded
by `extensions.load`) in the order `scipy.sparse` calls them, so each matrix
is byte for byte the one `scipy.sparse.csc_matrix` builds from the same
entries, without importing `scipy.sparse`. A `copy` shares the matrix, so
models that differ only in bounds (`fix`, `bound_rows`) assemble it once.

`settle` is every builder's last step: it takes out the rows the model's
column bounds already decide. A row with no open column (lb < ub, nonzero
summed coefficient) that holds within TOL at its fixed columns' values is
dropped; a row with one open column becomes that column's bounds, rounded
inward on a binary, and is dropped; and that repeats while it fixes new
columns. A row that cannot hold stays, so the solver still proves the model
infeasible. The feasible set and every optimum stay as they were, and a
settled model's rows that can hold have two or more open columns each.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ValidationError
from .extensions import load

_sparsetools = load("scipy.sparse._sparsetools")

CONTINUOUS = "C"
BINARY = "B"

INF = float("inf")
# Most columns a builder will lay out. Far above any model the tests or the
# benchmark solve (about 10^5), far below one that exhausts memory.
MAX_COLUMNS = 10 ** 7
_INT32_MAX = np.iinfo(np.int32).max
TOL = 1e-6  # relative feasibility slack solvers are allowed


def holds(value: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Whether each value lies in [lb, ub], within TOL of the bound's size."""
    return ((value >= lb - TOL * np.maximum(1.0, np.abs(lb)))
            & (value <= ub + TOL * np.maximum(1.0, np.abs(ub))))


def check_columns(K: int, count: int) -> None:
    """Refuse a K-epoch model of `count` columns past MAX_COLUMNS; builders
    call it before allocating anything that grows with K."""
    if count > MAX_COLUMNS:
        raise ValidationError(f"a {K}-epoch model needs {count:,} columns, more than "
                              f"{MAX_COLUMNS:,}: use a longer epoch or fewer epochs")


@dataclass(frozen=True, eq=False)
class CSC:
    """A sparse matrix in compressed-column form: column j holds the rows
    `indices[indptr[j]:indptr[j + 1]]`, ascending, with their coefficients
    at the same positions of `data`. Index arrays are int32 when every
    index and `nnz` fit, else int64, as in `scipy.sparse`."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with a vector of one entry per column."""
        if np.shape(x) != self.shape[1:]:  # the kernel reads shape[1] entries
            raise ValueError(f"a vector of shape {np.shape(x)} times a {self.shape} matrix")
        y = np.zeros(self.shape[0])
        _sparsetools.csc_matvec(*self.shape, self.indptr, self.indices, self.data, x, y)
        return y

    def transpose(self) -> CSC:
        """The transpose: its column i holds row i, in column order."""
        rows, cols = self.shape
        indptr = np.empty(rows + 1, self.indptr.dtype)
        indices, data = np.empty_like(self.indices), np.empty_like(self.data)
        _sparsetools.csr_tocsc(cols, rows, self.indptr, self.indices, self.data,
                               indptr, indices, data)
        return CSC(indptr, indices, data, (cols, rows))


class Axis:
    """Labels along one dimension of a family. With width 1 a label is one
    key part; otherwise it is a tuple of `width` key parts."""

    def __init__(self, labels, width: int = 1):
        self.labels = list(labels)
        self.width = width
        self.position = {label: p for p, label in enumerate(self.labels)}
        if len(self.position) != len(self.labels):
            raise ValueError("axis labels must be distinct")

    def parts(self) -> list[tuple]:
        return [(lab,) for lab in self.labels] if self.width == 1 else self.labels


class Family:
    def __init__(self, axes: list[Axis], index: np.ndarray):
        self.axes = axes
        self.index = index

    def column(self, key: tuple) -> int:
        """The key's column; KeyError if the family declares no such key."""
        if len(key) != sum(a.width for a in self.axes):
            raise KeyError(key)
        pos, at = [], 0
        for a in self.axes:
            pos.append(a.position[key[at] if a.width == 1 else key[at:at + a.width]])
            at += a.width
        idx = int(self.index[tuple(pos)])
        if idx < 0:
            raise KeyError(key)
        return idx

    def keys(self, flat: np.ndarray) -> list[tuple]:
        """Keys at the given flat positions of the index array."""
        parts = []
        for a, where in zip(self.axes, np.unravel_index(flat, self.index.shape)):
            labels = a.parts()
            parts.append([labels[p] for p in where.tolist()])
        return [tuple(chain.from_iterable(key)) for key in zip(*parts)]

    def declared(self, among: np.ndarray | None = None) -> np.ndarray:
        """Flat positions of declared variables, in column order; only those
        in `among` if given."""
        flat = self.index.ravel()
        pos = np.flatnonzero(flat >= 0) if among is None else among[flat[among] >= 0]
        return pos[np.argsort(flat[pos], kind="stable")]


class Model:
    """A linear program over variables addressed by (family, key) tuples."""

    def __init__(self):
        self.lb = np.zeros(0)
        self.ub = np.zeros(0)
        self.binary = np.zeros(0, dtype=bool)
        self.families: dict[str, Family] = {}
        # Rows added since `_matrix`: (rows, columns, coefficients), a float
        # or one per entry. The matrix is `_matrix` (a view, see `_take`) and these.
        self._blocks: list[tuple] = []
        self._row_lb = np.zeros(0)
        self._row_ub = np.zeros(0)
        self.num_rows = 0
        self._objective: list[tuple[np.ndarray, np.ndarray]] = []
        self._matrix: tuple | None = None
        self._rows = None
        self.meta: dict = {}

    def copy(self) -> Model:
        """This model, sharing families and meta, the rest its own to change."""
        other = copy.copy(self)
        for name in ("lb", "ub", "_row_lb", "_row_ub", "_blocks", "_objective"):
            setattr(other, name, copy.copy(getattr(self, name)))
        return other

    # -- variables ----------------------------------------------------------

    def columns(self, n: int) -> int:
        """Reserve n continuous columns in [0, inf); returns the first."""
        start = self.num_vars
        self.lb = np.concatenate([self.lb, np.zeros(n)])
        self.ub = np.concatenate([self.ub, np.full(n, INF)])
        self.binary = np.concatenate([self.binary, np.zeros(n, dtype=bool)])
        self._rows = None
        return start

    def add_family(self, family: str, axes: list[Axis], index: np.ndarray,
                   kind: str = CONTINUOUS, lb=0.0, ub=INF) -> None:
        """Declare a family over the product of its axes. `index`, shaped
        like the axes, holds the column of each key, reserved by `columns`,
        or -1 where the family has no variable. lb and ub are scalars or
        arrays that broadcast to the index."""
        if family in self.families:
            raise ValueError(f"family {family!r} declared twice")
        shape = tuple(len(a.labels) for a in axes)
        if index.shape != shape:
            raise ValueError(f"index shape {index.shape} does not match axes {shape}")
        declared = index >= 0
        cols = index[declared]
        if kind == BINARY and np.ndim(ub) == 0 and ub == INF:
            ub = 1.0
        self.binary[cols] = kind == BINARY
        self.lb[cols] = np.broadcast_to(lb, shape)[declared]
        self.ub[cols] = np.broadcast_to(ub, shape)[declared]
        self.families[family] = Family(axes, index)

    def var(self, family: str, *key) -> int:
        return self.families[family].column(key)

    def fix(self, idx, value) -> None:
        """Fix one column, or an array of them, to the value(s)."""
        self.lb[idx] = value
        self.ub[idx] = value

    def family_items(self, family: str):
        """Yield (key, index) for every variable of the family, in column order."""
        fam = self.families.get(family)
        if fam is None:
            return
        pos = fam.declared()
        yield from zip(fam.keys(pos), fam.index.ravel()[pos].tolist())

    @property
    def num_vars(self) -> int:
        return len(self.lb)

    @property
    def kinds(self) -> list[str]:
        return np.where(self.binary, BINARY, CONTINUOUS).tolist()

    # -- rows and objective --------------------------------------------------

    def add_rows(self, lb, ub, *terms) -> None:
        """Append a block of rows. lb and ub give one bound per row; each term
        is (rows, columns, coefficients), rows numbered from 0 within the
        block, arrays or scalars broadcast together. A term's rows and
        columns are kept as int32, or as int64 where an index does not fit,
        so none is ever wrapped; a scalar coefficient is kept as one float."""
        lb, ub = np.broadcast_arrays(np.asarray(lb, dtype=float), np.asarray(ub, dtype=float))
        for r, c, v in terms:
            r, c = np.asarray(r, dtype=np.int64), np.asarray(c, dtype=np.int64)
            if np.ndim(v) == 0:
                v = float(v)
                if v == 0:
                    continue
                r, c = np.broadcast_arrays(r, c)
            else:
                r, c, v = np.broadcast_arrays(r, c, np.asarray(v, dtype=float))
                nonzero = v != 0
                r, c, v = r[nonzero], c[nonzero], v[nonzero]
            self._blocks.append((_narrow(r + self.num_rows), _narrow(c), v))
        self._row_lb = np.concatenate([self._row_lb, lb.ravel()])
        self._row_ub = np.concatenate([self._row_ub, ub.ravel()])
        self.num_rows += lb.size
        self._rows = None

    def bound_rows(self, rows, lb, ub) -> None:
        """Set the bounds of the given rows; lb and ub broadcast to them."""
        self._row_lb[rows], self._row_ub[rows], self._rows = lb, ub, None

    def entry_positions(self, rows, columns) -> np.ndarray:
        """Where each (row, column) pair, an entry of `matrix()`, lies in its
        `indices`, shaped like the pairs."""
        a = self.matrix()
        key = np.repeat(np.arange(a.shape[1]) * a.shape[0], np.diff(a.indptr)) + a.indices
        return np.searchsorted(key, np.asarray(columns, dtype=np.int64) * a.shape[0] + rows)

    def remove_entries(self, at) -> None:
        """Take the entries at positions `at` of `matrix()` out of it."""
        a = self.matrix()
        keep = np.ones(a.nnz, dtype=bool)
        keep[at] = False
        self._matrix, self._rows = (a, keep, None), None

    def settle(self) -> None:
        """Take out the rows the column bounds decide, and tighten the
        bounds they imply. With `matrix()` assembled once, each pass reads
        every remaining row's open entries (free column, nonzero summed
        coefficient) and its fixed columns' share `moved`:
        - a row with no open entry that holds within TOL is dropped;
        - the rows with one open entry on a column bound it to
          (lb - moved) / coef .. (ub - moved) / coef, intersected with its
          bounds and rounded inward on a binary, and are dropped; where the
          intersection is empty they stay, and the bounds stay as they were.
        Passes repeat while one fixes a column. The remaining rows keep
        their order, and the matrix's entries their order in each column."""
        view = None if self._blocks else self._matrix  # as is, if it leaves out no row
        full, keep, _ = view if view and view[2] is None else (self.matrix(), None, None)
        cols = np.flatnonzero((self.lb != self.ub) | (self.lb != 0))  # not fixed at 0
        a = _take((full, keep, None), cols, self.num_rows)
        ones = CSC(a.indptr, a.indices, (a.data != 0).astype(float), a.shape)
        lo, hi = self.row_bounds()
        alive = np.ones(self.num_rows, dtype=bool)
        while True:
            # Per row, by three products: its fixed columns' share, its open
            # entries and, for a row with one, that entry's column and
            # coefficient.
            lb = self.lb[cols]
            free = lb != self.ub[cols]
            moved = a @ np.where(free, 0.0, lb)
            count = ones @ free.astype(float)
            alive &= (count > 0) | ~holds(moved, lo, hi)
            r = np.flatnonzero(alive & (count == 1))
            c = (ones @ np.where(free, cols, 0).astype(float))[r].astype(np.int64)
            v = (a @ free.astype(float))[r]
            at_lb, at_ub = (lo[r] - moved[r]) / v, (hi[r] - moved[r]) / v
            bound_lb, bound_ub = self.lb.copy(), self.ub.copy()
            np.maximum.at(bound_lb, c, np.where(v > 0, at_lb, at_ub))
            np.minimum.at(bound_ub, c, np.where(v > 0, at_ub, at_lb))
            hit = np.zeros(self.num_vars, dtype=bool)
            hit[c] = True  # not np.unique, which imports numpy.ma
            touched = np.flatnonzero(hit)
            lb, ub, binary = bound_lb[touched], bound_ub[touched], self.binary[touched]
            lb[binary], ub[binary] = np.ceil(lb[binary] - TOL), np.floor(ub[binary] + TOL)
            ok = lb <= ub
            settled = touched[ok]
            self.lb[settled], self.ub[settled] = lb[ok] + 0.0, ub[ok] + 0.0  # no -0.0
            hit[touched[~ok]] = False
            alive[r[hit[c]]] = False
            if not np.any(lb[ok] == ub[ok]):
                break
        self._row_lb, self._row_ub = lo[alive], hi[alive]
        self.num_rows = int(alive.sum())
        rid = np.where(alive, np.cumsum(alive, dtype=full.indices.dtype) - 1, -1)
        self._matrix, self._rows = (full, keep, rid), None
        if keep is None:  # a matrix no template shares: hold only the rows left
            self.matrix()

    def add_objective(self, idx, coef) -> None:
        """Add coef * var to the objective for each (idx, coef) pair."""
        idx, coef = np.broadcast_arrays(np.asarray(idx, dtype=np.int64),
                                        np.asarray(coef, dtype=float))
        keep = coef != 0
        self._objective.append((idx[keep], coef[keep]))

    def objective_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(columns, coefficients) of every objective term, in the order added."""
        return (_cat([i for i, _ in self._objective], np.int64),
                _cat([c for _, c in self._objective], float))

    def matrix(self, columns: np.ndarray | None = None) -> CSC:
        """The constraint matrix, one row per model row and one column per
        variable, as the solver gets it: the coefficients of a repeated
        (row, column) entry are summed, and a sum of zero stays an entry.
        With `columns`, distinct column numbers, column j of the matrix is
        the model's column columns[j]: a permutation reorders the columns,
        a subset takes only its columns, each holding what it holds in
        `matrix()`. The caller changes none of its arrays."""
        if self._blocks or self._matrix is None or self._matrix[0].shape[1] < self.num_vars:
            self._matrix, self._blocks = (self._assemble(), None, None), []
        a, keep, rows = self._matrix
        if columns is not None:
            return _take(self._matrix, np.asarray(columns, dtype=np.int64), self.num_rows)
        if keep is not None or rows is not None:
            a = _take(self._matrix, np.arange(self.num_vars), self.num_rows)
            self._matrix = a, None, None
        return a

    def _assemble(self) -> CSC:
        """`matrix()` from `_matrix`, if any, and the blocks added since."""
        blocks = list(self._blocks)
        if self._matrix is not None:
            a = _take(self._matrix, np.arange(self._matrix[0].shape[1]), self.num_rows)
            blocks[:0] = [(a.indices, np.repeat(np.arange(a.shape[1]), np.diff(a.indptr)), a.data)]
        rows, cols = (_cat([b[i] for b in blocks], np.int32) for i in (0, 1))
        coefs = _cat([v if isinstance(v, np.ndarray) else np.full(len(r), v)
                      for r, _, v in blocks], float)
        n_rows, n_cols = self.num_rows, self.num_vars
        for name, idx, size in (("row", rows, n_rows), ("column", cols, n_cols)):
            if len(idx) and not 0 <= idx.min() <= idx.max() < size:  # the kernels write there
                raise ValueError(f"a {name} index outside [0, {size})")
        # The kernels `scipy.sparse.csc_matrix((coefs, (rows, cols)), shape)`
        # calls: compress by column, sort each column's rows unless all are
        # sorted already, sum repeated entries, and drop the space they freed.
        # csr_sort_indices is not a stable sort, so it runs only when needed:
        # the order of a repeated entry's terms fixes the bits of their sum.
        nnz = len(coefs)
        idx = np.int32 if max(n_rows, n_cols, nnz) <= _INT32_MAX else np.int64
        indptr, indices, data = np.empty(n_cols + 1, idx), np.empty(nnz, idx), np.empty(nnz)
        _sparsetools.coo_tocsr(n_cols, n_rows, nnz, cols.astype(idx, copy=False),
                               rows.astype(idx, copy=False), coefs, indptr, indices, data)
        if not _sparsetools.csr_has_sorted_indices(n_cols, indptr, indices):
            _sparsetools.csr_sort_indices(n_cols, indptr, indices, data)
        _sparsetools.csr_sum_duplicates(n_cols, n_rows, indptr, indices, data)
        end = indptr[-1]
        return CSC(indptr, indices[:end], data[:end], (n_rows, n_cols))

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lb, ub) of every row, the model's own arrays (see `bound_rows`)."""
        return self._row_lb, self._row_ub

    @property
    def rows(self) -> Rows:
        """Every row as (coeffs, lb, ub), read from `matrix()`."""
        if self._rows is None:
            self._rows = Rows(self.matrix().transpose(), *self.row_bounds())
        return self._rows

    # -- debugging aids -------------------------------------------------------

    def _column_keys(self) -> list[tuple]:
        keys: list = [None] * self.num_vars
        for family in self.families:
            for key, idx in self.family_items(family):
                keys[idx] = (family, *key)
        return keys

    def to_lp_text(self) -> str:
        """Serialize in CPLEX LP format, for inspection with external solvers."""
        names = [_name(full) for full in self._column_keys()]
        seen: dict[str, int] = {}
        for i, n in enumerate(names):
            if n in seen:
                names[i] = f"{n}_v{i}"
            seen[n] = i
        terms = zip(*(a.tolist() for a in self.objective_arrays()))
        out = ["Maximize", " obj: " + _expr(terms, names), "Subject To"]
        for r, (coeffs, lb, ub) in enumerate(self.rows):
            expr = _expr(coeffs, names)
            if lb == ub:
                out.append(f" c{r}: {expr} = {lb}")
            else:
                if ub != INF:
                    out.append(f" c{r}: {expr} <= {ub}")
                if lb != -INF:
                    out.append(f" c{r}l: {expr} >= {lb}")
        out.append("Bounds")
        for i, (lo, hi) in enumerate(zip(self.lb.tolist(), self.ub.tolist())):
            hi_text = "+inf" if hi == INF else str(hi)
            out.append(f" {lo} <= {names[i]} <= {hi_text}")
        binaries = [names[i] for i in np.flatnonzero(self.binary).tolist()]
        if binaries:
            out.append("Binaries")
            out.append(" " + " ".join(binaries))
        out.append("End")
        return "\n".join(out) + "\n"


class Rows:
    """A model's rows as (coeffs, lb, ub) triples, each built when iterated:
    coeffs lists the row's (column, coefficient) entries in column order."""

    def __init__(self, a: CSC, lb: np.ndarray, ub: np.ndarray):
        """`a` is the transpose of the model's matrix: column i is row i."""
        self._ptr, self._cols, self._coefs = (v.tolist() for v in (a.indptr, a.indices, a.data))
        self._lb, self._ub = lb.tolist(), ub.tolist()

    def __len__(self) -> int:
        return len(self._lb)

    def __iter__(self):
        ptr, cols, coefs = self._ptr, self._cols, self._coefs
        for a, b, lb, ub in zip(ptr, ptr[1:], self._lb, self._ub):
            yield list(zip(cols[a:b], coefs[a:b])), lb, ub


def _cat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype)


def _take(view: tuple, columns: np.ndarray, n_rows: int) -> CSC:
    """Column j is column columns[j] of view (a, keep, rows): the entries of
    CSC `a` where `keep`, its row r at rows[r], none where -1 (None: all)."""
    (a, keep, rows), idx = view, view[0].indptr.dtype  # index arithmetic in a's dtype
    counts = np.diff(a.indptr)[columns]
    start = np.concatenate([np.zeros(1, idx), np.cumsum(counts, dtype=idx)])
    at = np.repeat(a.indptr[columns] - start[:-1], counts) + np.arange(start[-1], dtype=idx)
    r = a.indices[at] if rows is None else rows[a.indices[at]]
    on = np.flatnonzero((r >= 0) & (True if keep is None else keep[at]))
    return CSC(np.searchsorted(on, start).astype(idx), r[on].astype(idx, copy=False),
               a.data[at[on]], (n_rows, len(columns)))


def _narrow(idx: np.ndarray) -> np.ndarray:
    """`idx`, flattened, as int32 if every entry fits, else as int64: never
    wrapped."""
    fits = not idx.size or -_INT32_MAX - 1 <= idx.min() <= idx.max() <= _INT32_MAX
    return idx.astype(np.int32 if fits else np.int64).ravel()


def _name(full: tuple) -> str:
    text = full[0] + "_" + "_".join(str(p) for p in full[1:])
    return re.sub(r"[^A-Za-z0-9_]", "x", text)


def _expr(coeffs, names) -> str:
    parts = []
    for idx, coef in coeffs:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {abs(coef)} {names[idx]}")
    if not parts:
        return "0 " + (names[0] if names else "x")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text
