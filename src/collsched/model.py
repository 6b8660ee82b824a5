"""Solver-agnostic linear model stored as numpy blocks: typed variables in
families, rows in COO blocks, maximize objective.

A family groups the variables of one role (chunk flows, buffers, reads, ...).
Its keys are the cartesian product of its axes: each axis holds labels of
one or more key parts, and a key is one label of every axis, concatenated.
The family's index array, shaped like its axes, holds each key's column, or
-1 where the family declares no variable, so builders address whole families
by index arithmetic and a key's column is found from the axes alone.

Rows are lb <= sum(coef * var) <= ub. They are added as blocks of
(row, column, coefficient) triples with a bound pair per row; zero
coefficients are dropped, and coefficients of one column within a row add
up. The objective sense is always maximize.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import chain

import numpy as np

CONTINUOUS = "C"
BINARY = "B"

INF = float("inf")


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
        self._lb = np.zeros(0)
        self._ub = np.zeros(0)
        self._binary = np.zeros(0, dtype=bool)
        self.families: dict[str, Family] = {}
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # global rows
        self._row_lb: list[np.ndarray] = []
        self._row_ub: list[np.ndarray] = []
        self.num_rows = 0
        self._objective: list[tuple[np.ndarray, np.ndarray]] = []
        self._rows_cache = None
        self.meta: dict = {}

    # -- variables ----------------------------------------------------------

    def columns(self, n: int) -> int:
        """Reserve n continuous columns in [0, inf); returns the first."""
        start = self.num_vars
        self._lb = np.concatenate([self._lb, np.zeros(n)])
        self._ub = np.concatenate([self._ub, np.full(n, INF)])
        self._binary = np.concatenate([self._binary, np.zeros(n, dtype=bool)])
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
        self._binary[cols] = kind == BINARY
        self._lb[cols] = np.broadcast_to(lb, shape)[declared]
        self._ub[cols] = np.broadcast_to(ub, shape)[declared]
        self.families[family] = Family(axes, index)

    def add_var(self, family: str, key: tuple, kind: str = CONTINUOUS,
                lb: float = 0.0, ub: float = INF) -> int:
        """One variable; its family is a plain list of keys."""
        label = key[0] if len(key) == 1 else tuple(key)
        fam = self.families.get(family)
        if fam is None:
            idx = self.columns(1)
            self.add_family(family, [Axis([label], len(key))], np.array([idx]), kind, lb, ub)
            return idx
        if len(fam.axes) != 1 or fam.axes[0].width != len(key):
            raise ValueError(f"family {family!r} is not a list of keys")
        if label in fam.axes[0].position:
            raise ValueError(f"variable {(family, *key)} declared twice")
        idx = self.columns(1)
        axis = fam.axes[0]
        axis.position[label] = len(axis.labels)
        axis.labels.append(label)
        fam.index = np.append(fam.index, idx)
        self._binary[idx] = kind == BINARY
        self._lb[idx] = lb
        self._ub[idx] = 1.0 if kind == BINARY and ub == INF else ub
        return idx

    def var(self, family: str, *key) -> int:
        return self.families[family].column(key)

    def has_var(self, family: str, *key) -> bool:
        try:
            self.var(family, *key)
        except KeyError:
            return False
        return True

    def fix(self, idx, value) -> None:
        """Fix one column, or an array of them, to the value(s)."""
        self._lb[idx] = value
        self._ub[idx] = value

    def family_items(self, family: str):
        """Yield (key, index) for every variable of the family, in column order."""
        fam = self.families.get(family)
        if fam is None:
            return
        pos = fam.declared()
        yield from zip(fam.keys(pos), fam.index.ravel()[pos].tolist())

    @property
    def num_vars(self) -> int:
        return len(self._lb)

    @property
    def lb(self) -> np.ndarray:
        return self._lb

    @property
    def ub(self) -> np.ndarray:
        return self._ub

    @property
    def binary(self) -> np.ndarray:
        return self._binary

    @property
    def kinds(self) -> list[str]:
        return np.where(self._binary, BINARY, CONTINUOUS).tolist()

    # -- rows and objective --------------------------------------------------

    def add_rows(self, lb, ub, *terms) -> None:
        """Append a block of rows. lb and ub give one bound per row; each term
        is (rows, columns, coefficients), rows numbered from 0 within the
        block, arrays or scalars broadcast together. Within a row, entries
        keep the order of the terms and of their arrays."""
        lb, ub = np.broadcast_arrays(np.asarray(lb, dtype=float), np.asarray(ub, dtype=float))
        for r, c, v in terms:
            r, c, v = np.broadcast_arrays(np.asarray(r, dtype=np.int64),
                                          np.asarray(c, dtype=np.int64),
                                          np.asarray(v, dtype=float))
            keep = v != 0
            self._blocks.append((r[keep] + self.num_rows, c[keep], v[keep]))
        self._row_lb.append(np.array(lb, dtype=float))
        self._row_ub.append(np.array(ub, dtype=float))
        self.num_rows += len(lb)
        self._rows_cache = None

    def add_row(self, coeffs, lb: float = -INF, ub: float = INF) -> None:
        coeffs = list(coeffs)
        self.add_rows([lb], [ub], (0, [i for i, _ in coeffs], [c for _, c in coeffs]))

    def add_eq(self, coeffs, rhs: float) -> None:
        self.add_row(coeffs, rhs, rhs)

    def add_le(self, coeffs, rhs: float) -> None:
        self.add_row(coeffs, -INF, rhs)

    def add_ge(self, coeffs, rhs: float) -> None:
        self.add_row(coeffs, rhs, INF)

    def add_objective(self, idx, coef) -> None:
        """Add coef * var to the objective for each (idx, coef) pair."""
        idx, coef = np.broadcast_arrays(np.asarray(idx, dtype=np.int64),
                                        np.asarray(coef, dtype=float))
        keep = coef != 0
        self._objective.append((idx[keep], coef[keep]))

    def add_objective_term(self, idx: int, coef: float) -> None:
        self.add_objective(idx, coef)

    def objective_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(columns, coefficients) of every objective term, in the order added."""
        if not self._objective:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        return (np.concatenate([i for i, _ in self._objective]),
                np.concatenate([c for _, c in self._objective]))

    @property
    def objective(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for idx, coef in zip(*(a.tolist() for a in self.objective_arrays())):
            out[idx] = out.get(idx, 0.0) + coef
        return out

    def row_arrays(self):
        """(rows, columns, coefficients, row lb, row ub); entries are in the
        order added, not grouped by row."""
        cat = lambda parts, dtype: np.concatenate(parts) if parts else np.zeros(0, dtype)
        rows, cols, coefs = (cat([b[i] for b in self._blocks], dtype)
                             for i, dtype in enumerate((np.int64, np.int64, float)))
        return rows, cols, coefs, cat(self._row_lb, float), cat(self._row_ub, float)

    @property
    def rows(self) -> "Rows":
        """Every row as (coeffs, lb, ub), coefficients of one column merged."""
        if self._rows_cache is None:
            self._rows_cache = Rows(*self.row_arrays(), self.num_rows)
        return self._rows_cache

    # -- debugging aids -------------------------------------------------------

    def _column_keys(self) -> list[tuple]:
        keys: list = [None] * self.num_vars
        for family, fam in self.families.items():
            pos = fam.declared()
            for key, idx in zip(fam.keys(pos), fam.index.ravel()[pos].tolist()):
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
        out = ["Maximize", " obj: " + _expr(self.objective.items(), names), "Subject To"]
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
        for i, (lo, hi) in enumerate(zip(self._lb.tolist(), self._ub.tolist())):
            hi_text = "+inf" if hi == INF else str(hi)
            out.append(f" {lo} <= {names[i]} <= {hi_text}")
        binaries = [names[i] for i in np.flatnonzero(self._binary).tolist()]
        if binaries:
            out.append("Binaries")
            out.append(" " + " ".join(binaries))
        out.append("End")
        return "\n".join(out) + "\n"


class Rows(Sequence):
    """A model's rows as (coeffs, lb, ub) triples, each built when read:
    coeffs lists (column, coefficient) pairs in the order added, with the
    coefficients of one column summed."""

    def __init__(self, rows, cols, coefs, lb, ub, count: int):
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        self._cols, self._coefs = cols[order].tolist(), coefs[order].tolist()
        self._bounds = np.searchsorted(rows, np.arange(count + 1)).tolist()
        self._lb, self._ub = lb.tolist(), ub.tolist()
        by_cell = np.lexsort((cols[order], rows))
        twice = (np.diff(rows[by_cell]) == 0) & (np.diff(cols[order][by_cell]) == 0)
        self._repeats = set(np.unique(rows[by_cell][1:][twice]).tolist())

    def __len__(self) -> int:
        return len(self._lb)

    def __getitem__(self, row: int):
        row = range(len(self))[row]
        return self._coeffs(row), self._lb[row], self._ub[row]

    def __iter__(self):
        for row in range(len(self)):
            yield self._coeffs(row), self._lb[row], self._ub[row]

    def _coeffs(self, row: int) -> list[tuple[int, float]]:
        a, b = self._bounds[row], self._bounds[row + 1]
        coeffs = list(zip(self._cols[a:b], self._coefs[a:b]))
        if row in self._repeats:
            merged: dict[int, float] = {}
            for i, coef in coeffs:
                merged[i] = merged.get(i, 0.0) + coef
            coeffs = list(merged.items())
        return coeffs


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
