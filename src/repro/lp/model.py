"""A thin linear-program builder over ``scipy.optimize.linprog``.

Keeps the rest of the codebase free of matrix plumbing: callers add named
variables and dictionary-coefficient constraints; the builder assembles the
sparse matrices and normalizes the solution. Only the features BDS's
formulations need are exposed (continuous variables, <=/>=/== constraints,
min/max objectives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np


class LPError(RuntimeError):
    """Raised when the solver fails or the model is infeasible/unbounded."""


@dataclass
class LPSolution:
    """A solved LP: objective value plus per-variable values by name."""

    objective: float
    values: Dict[str, float]
    status: str

    def __getitem__(self, name: str) -> float:
        return self.values[name]


class LinearProgram:
    """Incrementally built LP, solved with HiGHS via scipy.

    >>> lp = LinearProgram(maximize=True)
    >>> x = lp.add_variable("x", upper=4, objective=1.0)
    >>> y = lp.add_variable("y", upper=4, objective=1.0)
    >>> lp.add_constraint({"x": 1, "y": 2}, "<=", 6)
    >>> sol = lp.solve()
    >>> round(sol.objective, 6)
    5.0
    """

    def __init__(self, maximize: bool = False) -> None:
        self.maximize = maximize
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        self._objective: List[float] = []
        self._lower: List[float] = []
        self._upper: List[Optional[float]] = []
        # Constraints as (coeffs, sense, rhs).
        self._constraints: List[Tuple[Dict[int, float], str, float]] = []

    # -- construction ------------------------------------------------------

    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: Optional[float] = None,
        objective: float = 0.0,
    ) -> str:
        """Add a continuous variable; returns its name for convenience."""
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._objective.append(objective)
        self._lower.append(lower)
        self._upper.append(upper)
        return name

    def add_constraint(
        self, coefficients: Mapping[str, float], sense: str, rhs: float
    ) -> None:
        """Add ``sum(coef * var) <sense> rhs`` with sense in {<=, >=, ==}."""
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        indexed = {self._index[name]: coef for name, coef in coefficients.items()}
        self._constraints.append((indexed, sense, rhs))

    # -- solving --------------------------------------------------------------

    def solve(self, method: str = "highs") -> LPSolution:
        """Solve and return an :class:`LPSolution`; raises :class:`LPError`.

        scipy is imported here, not at module load: only the exact-LP
        paths solve, and ``import repro`` should not pay for it.
        """
        from scipy import sparse
        from scipy.optimize import linprog

        if not self._names:
            raise LPError("empty model: no variables")
        n = len(self._names)
        c = np.asarray(self._objective, dtype=float)
        if self.maximize:
            c = -c

        ub_rows, ub_rhs = [], []
        eq_rows, eq_rhs = [], []
        for coeffs, sense, rhs in self._constraints:
            row = coeffs
            if sense == "<=":
                ub_rows.append(row)
                ub_rhs.append(rhs)
            elif sense == ">=":
                ub_rows.append({i: -v for i, v in row.items()})
                ub_rhs.append(-rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(rhs)

        def to_matrix(rows: List[Dict[int, float]]) -> Optional[sparse.csr_matrix]:
            if not rows:
                return None
            data, row_idx, col_idx = [], [], []
            for r, coeffs in enumerate(rows):
                for i, v in coeffs.items():
                    row_idx.append(r)
                    col_idx.append(i)
                    data.append(v)
            return sparse.csr_matrix(
                (data, (row_idx, col_idx)), shape=(len(rows), n)
            )

        result = linprog(
            c,
            A_ub=to_matrix(ub_rows),
            b_ub=np.asarray(ub_rhs, dtype=float) if ub_rhs else None,
            A_eq=to_matrix(eq_rows),
            b_eq=np.asarray(eq_rhs, dtype=float) if eq_rhs else None,
            bounds=list(zip(self._lower, self._upper)),
            method=method,
        )
        if not result.success:
            raise LPError(f"LP solve failed: {result.message} (status {result.status})")
        objective = float(result.fun)
        if self.maximize:
            objective = -objective
        values = {name: float(result.x[self._index[name]]) for name in self._names}
        return LPSolution(objective=objective, values=values, status="optimal")
