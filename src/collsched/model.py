"""Solver-agnostic linear model: typed variables, rows, maximize objective."""

from __future__ import annotations

import re

CONTINUOUS = "C"
BINARY = "B"

INF = float("inf")


class Model:
    """A linear program over variables addressed by (family, key) tuples.

    Families group variables of one role (chunk flows, buffers, reads, ...).
    Rows are lb <= sum(coef * var) <= ub. The objective sense is always
    maximize.
    """

    def __init__(self):
        self.kinds: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self._index: dict[tuple, int] = {}
        self._keys: list[tuple] = []
        self.rows: list[tuple[list[tuple[int, float]], float, float]] = []
        self.objective: dict[int, float] = {}
        self.meta: dict = {}

    # -- variables ----------------------------------------------------------

    def add_var(self, family: str, key: tuple, kind: str = CONTINUOUS,
                lb: float = 0.0, ub: float = INF) -> int:
        full = (family, *key)
        if full in self._index:
            raise ValueError(f"variable {full} declared twice")
        idx = len(self.kinds)
        self._index[full] = idx
        self._keys.append(full)
        self.kinds.append(kind)
        self.lb.append(lb)
        self.ub.append(1.0 if kind == BINARY and ub is INF else ub)
        return idx

    def var(self, family: str, *key) -> int:
        return self._index[(family, *key)]

    def has_var(self, family: str, *key) -> bool:
        return (family, *key) in self._index

    def fix(self, idx: int, value: float) -> None:
        self.lb[idx] = value
        self.ub[idx] = value

    def family_items(self, family: str):
        """Yield (key, index) for every variable of the family."""
        for full, idx in self._index.items():
            if full[0] == family:
                yield full[1:], idx

    @property
    def num_vars(self) -> int:
        return len(self.kinds)

    # -- rows and objective --------------------------------------------------

    def add_row(self, coeffs, lb: float = -INF, ub: float = INF) -> None:
        merged: dict[int, float] = {}
        for idx, coef in coeffs:
            if coef:
                merged[idx] = merged.get(idx, 0.0) + coef
        self.rows.append((list(merged.items()), lb, ub))

    def add_eq(self, coeffs, rhs: float) -> None:
        self.add_row(coeffs, rhs, rhs)

    def add_le(self, coeffs, rhs: float) -> None:
        self.add_row(coeffs, -INF, rhs)

    def add_ge(self, coeffs, rhs: float) -> None:
        self.add_row(coeffs, rhs, INF)

    def add_objective_term(self, idx: int, coef: float) -> None:
        if coef:
            self.objective[idx] = self.objective.get(idx, 0.0) + coef

    # -- debugging aids -------------------------------------------------------

    def var_name(self, idx: int) -> str:
        full = self._keys[idx]
        text = full[0] + "_" + "_".join(str(p) for p in full[1:])
        return re.sub(r"[^A-Za-z0-9_]", "x", text)

    def to_lp_text(self) -> str:
        """Serialize in CPLEX LP format, for inspection with external solvers."""
        names = [self.var_name(i) for i in range(self.num_vars)]
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
                if ub is not INF and ub != INF:
                    out.append(f" c{r}: {expr} <= {ub}")
                if lb is not -INF and lb != -INF:
                    out.append(f" c{r}l: {expr} >= {lb}")
        out.append("Bounds")
        for i in range(self.num_vars):
            lo, hi = self.lb[i], self.ub[i]
            hi_text = "+inf" if hi is INF or hi == INF else str(hi)
            out.append(f" {lo} <= {names[i]} <= {hi_text}")
        binaries = [names[i] for i in range(self.num_vars) if self.kinds[i] == BINARY]
        if binaries:
            out.append("Binaries")
            out.append(" " + " ".join(binaries))
        out.append("End")
        return "\n".join(out) + "\n"


def _expr(coeffs, names) -> str:
    parts = []
    for idx, coef in coeffs:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {abs(coef)} {names[idx]}")
    if not parts:
        return "0 " + (names[0] if names else "x")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text
