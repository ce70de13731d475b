"""Self-contained linear programming: dense two-phase tableau simplex
with an anti-cycling fallback, and depth-first branch and bound for
integer variables.

Sized for desk-scale design instances; robustness and determinism are
prioritized over raw speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MalformedProgram

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
INT_TOL = 1e-6


@dataclass
class Variable:
    name: str
    upper: Optional[float] = None  # lower bound is always 0
    integer: bool = False


@dataclass
class Constraint:
    coeffs: dict[int, float]
    relation: str  # "<=", "=", ">="
    rhs: float
    name: str = ""


class LinearProgram:
    """Minimization LP over nonnegative variables."""

    def __init__(self):
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: dict[int, float] = {}

    def add_var(self, name: str, upper: Optional[float] = None,
                integer: bool = False) -> int:
        self.variables.append(Variable(name=name, upper=upper, integer=integer))
        return len(self.variables) - 1

    def add_constraint(self, coeffs: dict[int, float], relation: str, rhs: float,
                       name: str = "") -> None:
        if relation not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {relation!r}")
        for j in coeffs:
            if not 0 <= j < len(self.variables):
                raise ValueError(f"constraint references undeclared variable {j}")
        self.constraints.append(Constraint(dict(coeffs), relation, rhs, name))

    def set_objective(self, coeffs: dict[int, float]) -> None:
        self.objective = dict(coeffs)

    def integer_indices(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.integer]

    def _check_finite(self):
        values = list(self.objective.values())
        for con in self.constraints:
            values.extend(con.coeffs.values())
            values.append(con.rhs)
        for v in values:
            if not math.isfinite(v):
                raise MalformedProgram("NaN or infinite coefficient in program")


@dataclass
class LpSolution:
    status: str  # "Optimal" | "Infeasible" | "Unbounded"
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    objective: float = math.nan
    iterations: int = 0
    certificate: list[str] = field(default_factory=list)
    reduced_costs: np.ndarray = field(default_factory=lambda: np.zeros(0))


class _Tableau:
    """Dense simplex tableau over the standard-form expansion of an LP."""

    def __init__(self, lp: LinearProgram):
        rows = []  # (dense coeffs over structural vars, relation, rhs, name)
        n = len(lp.variables)
        for con in lp.constraints:
            dense = np.zeros(n)
            for j, c in con.coeffs.items():
                dense[j] = c
            rows.append([dense, con.relation, float(con.rhs), con.name])
        for j, var in enumerate(lp.variables):
            if var.upper is not None and math.isfinite(var.upper):
                dense = np.zeros(n)
                dense[j] = 1.0
                rows.append([dense, "<=", float(var.upper), f"ub[{var.name}]"])
        # normalize to rhs >= 0
        for row in rows:
            if row[2] < 0:
                row[0] = -row[0]
                row[2] = -row[2]
                row[1] = {"<=": ">=", ">=": "<=", "=": "="}[row[1]]

        m = len(rows)
        self.m, self.n = m, n
        self.row_names = [r[3] for r in rows]
        n_slack = sum(1 for r in rows if r[1] != "=")
        n_art = sum(1 for r in rows if r[1] != "<=")
        total = n + n_slack + n_art
        A = np.zeros((m, total))
        b = np.zeros(m)
        basis = np.zeros(m, dtype=int)
        self.artificial = np.zeros(total, dtype=bool)
        self.seed_col = np.zeros(m, dtype=int)  # unit column created for each row
        s = n
        a = n + n_slack
        for i, (dense, rel, rhs, _name) in enumerate(rows):
            A[i, :n] = dense
            b[i] = rhs
            if rel == "<=":
                A[i, s] = 1.0
                basis[i] = s
                self.seed_col[i] = s
                s += 1
            elif rel == ">=":
                A[i, s] = -1.0
                s += 1
                A[i, a] = 1.0
                basis[i] = a
                self.seed_col[i] = a
                self.artificial[a] = True
                a += 1
            else:
                A[i, a] = 1.0
                basis[i] = a
                self.seed_col[i] = a
                self.artificial[a] = True
                a += 1
        self.A = A  # original matrix, never mutated
        self.b = b
        self.basis = basis
        self.total = total
        self.binv = np.eye(m)  # initial basis is the identity seed columns
        self.xb = b.copy()
        self.iterations = 0

    def _pivot(self, row: int, col: int, direction: np.ndarray) -> None:
        """Replace the basic variable of ``row`` by ``col``;
        ``direction`` is binv @ A[:, col]."""
        piv = direction[row]
        self.binv[row] /= piv
        self.xb[row] /= piv
        factor = direction.copy()
        factor[row] = 0.0
        self.binv -= np.outer(factor, self.binv[row])
        self.xb -= factor * self.xb[row]
        self.basis[row] = col
        self.iterations += 1

    def duals(self, cost: np.ndarray) -> np.ndarray:
        return cost[self.basis] @ self.binv

    def run(self, cost: np.ndarray, allowed: np.ndarray,
            max_iter: int) -> tuple[str, np.ndarray]:
        """Revised primal simplex on the current basis.

        Returns (status, reduced_costs).  Dantzig entering rule with a
        switch to Bland's rule after a long run of degenerate pivots.
        Reduced costs are recomputed from the basis inverse every
        iteration, so the optimality certificate is exact.
        """
        blocked = ~allowed
        bland = False
        degenerate_run = 0
        for _ in range(max_iter):
            red = cost - self.duals(cost) @ self.A
            red[blocked] = np.inf  # never enter disallowed columns
            if bland:
                candidates = np.nonzero(red < -PIVOT_TOL)[0]
                if candidates.size == 0:
                    return "Optimal", red
                col = int(candidates[0])
            else:
                col = int(np.argmin(red))
                if red[col] >= -PIVOT_TOL:
                    return "Optimal", red
            direction = self.binv @ self.A[:, col]
            positive = direction > PIVOT_TOL
            if not positive.any():
                return "Unbounded", red
            ratios = np.full(self.m, np.inf)
            ratios[positive] = self.xb[positive] / direction[positive]
            best = ratios.min()
            tied = np.nonzero(ratios <= best + PIVOT_TOL)[0]
            # leaving tie-break: smallest basis variable index (Bland-safe)
            row = int(min(tied, key=lambda i: self.basis[i]))
            if best <= PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run > 2 * self.m + 10:
                    bland = True
            else:
                degenerate_run = 0
            self._pivot(row, col, direction)
        raise MalformedProgram("simplex iteration limit exceeded")


def simplex_solve(lp: LinearProgram, max_iter: Optional[int] = None) -> LpSolution:
    """Two-phase tableau simplex.

    Returns Optimal with a reduced-cost certificate, Infeasible with the
    names of the constraint rows in the phase-1 certificate, or
    Unbounded.
    """
    lp._check_finite()
    tab = _Tableau(lp)
    if max_iter is None:
        max_iter = 50 * (tab.m + tab.total) + 1000
    allowed = np.ones(tab.total, dtype=bool)

    if tab.artificial.any():
        phase1_cost = np.where(tab.artificial, 1.0, 0.0)
        status, _red = tab.run(phase1_cost, allowed, max_iter)
        infeas = float(phase1_cost[tab.basis] @ tab.xb)
        if status != "Optimal" or infeas > FEAS_TOL:
            # rows with nonzero multipliers form the Farkas certificate
            y = tab.duals(phase1_cost)
            names = [tab.row_names[i] for i in range(tab.m)
                     if abs(y[i]) > FEAS_TOL and tab.row_names[i]]
            return LpSolution(status="Infeasible", certificate=names,
                              iterations=tab.iterations)
        # drive remaining artificials out of the basis
        for i in range(tab.m):
            if tab.artificial[tab.basis[i]]:
                tableau_row = tab.binv[i] @ tab.A
                pivot_cols = np.nonzero(
                    (np.abs(tableau_row) > PIVOT_TOL) & ~tab.artificial)[0]
                if pivot_cols.size:
                    col = int(pivot_cols[0])
                    tab._pivot(i, col, tab.binv @ tab.A[:, col])
                # else: redundant row, harmless to leave the artificial basic at 0
        allowed = ~tab.artificial

    cost = np.zeros(tab.total)
    for j, c in lp.objective.items():
        cost[j] = c
    status, red = tab.run(cost, allowed, max_iter)
    if status == "Unbounded":
        return LpSolution(status="Unbounded", iterations=tab.iterations)
    values = np.zeros(tab.total)
    values[tab.basis] = tab.xb
    x = values[:len(lp.variables)].copy()
    x[np.abs(x) < 1e-12] = 0.0
    objective = float(cost[:len(lp.variables)] @ x)
    return LpSolution(status="Optimal", values=x, objective=objective,
                      iterations=tab.iterations,
                      reduced_costs=red[:len(lp.variables)].copy())


def branch_and_bound(lp: LinearProgram, int_tol: float = INT_TOL,
                     tie_key: Optional[Callable[[np.ndarray], tuple]] = None
                     ) -> LpSolution:
    """Depth-first branch and bound over the LP's integer variables.

    Branches on the most fractional variable (ties by lowest index).
    Incumbent ties within ``int_tol`` are resolved by ``tie_key`` of the
    value vector (default: lexicographically smallest rounded vector),
    so results are order-independent.  The root is the first node; a
    root that is not optimal is returned as solved, with its status and
    certificate.
    """
    int_idx = lp.integer_indices()
    if not int_idx:
        raise ValueError("branch_and_bound requires at least one integer variable")

    if tie_key is None:
        tie_key = lambda x: tuple(round(v, 9) for v in x)

    incumbent: Optional[LpSolution] = None
    incumbent_key = None
    total_iters = 0
    # node = list of (var index, "<=" floor / ">=" ceil, bound value)
    stack: list[list[tuple[int, str, float]]] = [[]]
    while stack:
        bounds = stack.pop()
        sol = simplex_solve(_with_bounds(lp, bounds))
        total_iters += sol.iterations
        if sol.status != "Optimal":
            if not bounds:
                return sol
            continue
        if incumbent is not None and sol.objective > incumbent.objective + 1e-9:
            continue  # keep exploring ties for deterministic tie-breaking
        frac_j, frac_amount = -1, -1.0
        for j in int_idx:
            f = abs(sol.values[j] - round(sol.values[j]))
            if f > int_tol and f > frac_amount + 1e-12:
                frac_amount = f
                frac_j = j
        if frac_j < 0:
            key = tie_key(sol.values)
            better = (incumbent is None
                      or sol.objective < incumbent.objective - 1e-9
                      or (sol.objective <= incumbent.objective + 1e-9
                          and key < incumbent_key))
            if better:
                incumbent = sol
                incumbent_key = key
            continue
        v = sol.values[frac_j]
        stack.append(bounds + [(frac_j, ">=", math.ceil(v))])
        stack.append(bounds + [(frac_j, "<=", math.floor(v))])

    if incumbent is None:
        return LpSolution(status="Infeasible", iterations=total_iters)
    incumbent.iterations = total_iters
    return incumbent


def _with_bounds(lp: LinearProgram, bounds: Sequence[tuple[int, str, float]]
                 ) -> LinearProgram:
    node = LinearProgram()
    node.variables = list(lp.variables)
    node.constraints = list(lp.constraints)
    node.objective = dict(lp.objective)
    for j, rel, value in bounds:
        node.add_constraint({j: 1.0}, rel, value,
                            name=f"branch[{lp.variables[j].name}]")
    return node
