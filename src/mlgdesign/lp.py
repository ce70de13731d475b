"""Self-contained linear programming: a bounded revised simplex with an
anti-cycling fallback, and depth-first branch and bound for integer
variables that takes the up branch first.

Every column lies between a lower and an upper bound (0 and
``Variable.upper`` unless a caller narrows them).  A nonbasic column
sits at one of its bounds and the ratio test flips it to the other, so
a bound never becomes a row (Chvátal, *Linear Programming*, 1983,
ch. 8).  Each row has one logical column, and every solve takes one
road: the dual simplex to a feasible basis, then the primal simplex to
an optimal one.  The dual simplex runs on the costs shifted to make
its start dual feasible: from the logical basis that clips them at
zero, so no phase 1 is needed (Koberstein, *The dual simplex method*,
PhD thesis, Paderborn, 2005, ch. 4).  A branch narrows one bound of one
column; the parent's optimal basis stays dual feasible, so each child
is re-solved from it on the true costs.  A solve can also restart from
a basis found before columns and rows were appended, as column
generation does; an optimal solve returns the row duals that price
such columns.  A cold solve may start from a crash basis the caller
names by its columns (:meth:`Basis.of`) in place of the logical one.
The search
takes the up branch first: in the design models a binary's up branch
opens a channel or homes a subscriber, which tends to reach feasible
integer points soon (Achterberg, Koch & Martin, *Oper. Res. Letters*
33, 2005, on node selection).

Sized for desk-scale design instances; robustness and determinism are
prioritized over raw speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

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
        """Append a column in [0, ``upper``]; None or +inf means no upper
        bound.  A NaN or -inf bound raises ``ValueError``."""
        if upper is not None and (math.isnan(upper) or upper == -math.inf):
            raise ValueError(f"upper bound of {name!r} must be a number or +inf, not {upper}")
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

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) per variable as posed: 0, and ``upper`` with
        None read as no bound."""
        upper = [math.inf if v.upper is None else v.upper for v in self.variables]
        return np.zeros(len(upper)), np.array(upper, dtype=float)


class _StandardForm:
    """An LP's rows over its columns, then one logical column per row
    (B = I): a ``<=`` row's slack in [0, inf), a ``>=`` row negated into
    ``<=`` form (``sign`` -1) with the same slack, and an ``=`` row's
    logical fixed at [0, 0].  Shared by every solve restarted from one
    of its bases, and never mutated.

    ``base``, if given, is the form of this program before columns and
    rows were appended.  Its blocks are copied, and only what is new is
    read from ``lp``: the new rows, the old rows' coefficients in new
    columns and the new columns' costs.  Raises ``ValueError`` when
    ``lp`` is smaller than ``base``'s program, and ``MalformedProgram``
    when a number read is NaN or infinite."""

    def __init__(self, lp: LinearProgram, base: Optional[_StandardForm] = None):
        n, m = len(lp.variables), len(lp.constraints)
        n0, m0 = (0, 0) if base is None else (base.n, base.m)
        if n0 > n or m0 > m:
            raise ValueError("a start basis must come from this program or a part of it")
        self.m, self.n, self.total = m, n, n + m
        self.row_names = [con.name for con in lp.constraints]
        self.var_names = [v.name for v in lp.variables]
        self.A = np.zeros((m, n + m))
        self.b = np.zeros(m)
        self.sign = np.ones(m)
        self.logical_upper = np.full(m, np.inf)
        self.cost = np.zeros(n + m)
        if base is not None:
            self.A[:m0, :n0] = base.A[:, :n0]
            self.b[:m0], self.sign[:m0] = base.b, base.sign
            self.logical_upper[:m0] = base.logical_upper
            self.cost[:n0] = base.cost[:n0]
        for i, (con, sign) in enumerate(zip(lp.constraints, self.sign[:m0].tolist())):
            for j, c in con.coeffs.items():
                if j >= n0:
                    self.A[i, j] = sign * c
        for i, con in enumerate(lp.constraints[m0:], m0):
            sign = self.sign[i] = -1.0 if con.relation == ">=" else 1.0
            for j, c in con.coeffs.items():
                self.A[i, j] = sign * c
            self.b[i] = sign * con.rhs
            if con.relation == "=":
                self.logical_upper[i] = 0.0
        for j, c in lp.objective.items():
            if j >= n0:
                self.cost[j] = c
        new = (self.A[:m0, n0:n], self.A[m0:, :n], self.b[m0:], self.cost[n0:n])
        if not all(np.isfinite(block).all() for block in new):
            raise MalformedProgram("NaN or infinite coefficient in program")
        self.A[range(m), range(n, n + m)] = 1.0


@dataclass(frozen=True, eq=False)
class Basis:
    """A basis of one LP's standard form (its columns, then one logical
    column per row): the basic column of each row and the nonbasic
    columns that sit at their upper bound.  It also keeps the form and
    the basis inverse, so a solve can restart from it without building
    the one or inverting the other again.  A solve returns its final
    basis; :meth:`of` builds one from given columns."""

    columns: np.ndarray
    at_upper: np.ndarray
    form: _StandardForm = field(repr=False)
    inverse: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, lp: LinearProgram, columns: Mapping[int, int]) -> Basis:
        """The basis of ``lp`` in which row i has column ``columns[i]``
        and every other row its logical, each nonbasic column at its
        lower bound: a crash basis a formulation reads off its own
        structure (Bixby, *ORSA J. Computing* 4, 1992).

        The inverse is reached from B = I by one pivot per given column,
        in the map's order, and a pivot updates only the rows where the
        entering column's direction is nonzero.  When the columns form a
        forest over node rows (a source column at each root, an arc into
        each other node) and each comes after its parent's, every pivot
        is +-1 and the inverse is exact.  Raises
        ``ValueError`` for a row or column out of range, a column given
        twice, a logical column, or a zero pivot (the columns are
        dependent in that order)."""
        form = _StandardForm(lp)
        cols = np.fromiter(columns.values(), dtype=int, count=len(columns))
        for row, col in columns.items():
            if not 0 <= row < form.m or not 0 <= col < form.total:
                raise ValueError(f"row {row} or column {col} is out of range")
            if col >= form.n:
                raise ValueError(f"column {col} is a logical column")
        if len(set(cols.tolist())) < cols.size:
            raise ValueError("a column is given twice")
        # the given columns' nonzero entries, column after column
        owner, entries = np.nonzero(form.A[:, cols].T)
        values = form.A[entries, cols[owner]]
        ends = np.searchsorted(owner, np.arange(cols.size + 1)).tolist()
        basis = np.arange(form.n, form.total)
        inverse = np.eye(form.m)
        for k, (row, col) in enumerate(columns.items()):
            part = slice(ends[k], ends[k + 1])
            direction = inverse[:, entries[part]] @ values[part]
            piv = direction[row]
            if abs(piv) <= PIVOT_TOL:
                raise ValueError(f"column {col} has a zero pivot in row {row}")
            if piv != 1.0:
                inverse[row] /= piv
            direction[row] = 0.0
            hit = direction.nonzero()[0]
            inverse[hit] -= np.multiply.outer(direction[hit], inverse[row])
            basis[row] = col
        return cls(basis, np.zeros(form.total, dtype=bool), form, inverse)

    def extended(self, form: _StandardForm) -> Basis:
        """This basis in ``form``, the standard form of its program after
        columns and rows were appended: the old columns keep their index
        and the logicals move past the new columns, each new column is
        nonbasic at its lower bound, and each new row's logical is
        basic.  With R the
        new rows over the old basic columns, the inverse of
        [[B, 0], [R, I]] is [[B^-1, 0], [-R B^-1, I]]."""
        old = self.form
        grown = form.n - old.n
        remap = np.where(self.columns < old.n, self.columns, self.columns + grown)
        columns = np.concatenate([remap, np.arange(form.n + old.m, form.total)])
        at_upper = np.zeros(form.total, dtype=bool)
        at_upper[:old.n] = self.at_upper[:old.n]
        at_upper[form.n:form.n + old.m] = self.at_upper[old.n:]
        inverse = np.eye(form.m)
        inverse[:old.m, :old.m] = self.inverse
        inverse[old.m:, :old.m] = -form.A[old.m:, remap] @ self.inverse
        return Basis(columns, at_upper, form, inverse)


@dataclass
class LpSolution:
    status: str  # "Optimal" | "Infeasible" | "Unbounded"
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    objective: float = math.nan
    iterations: int = 0
    certificate: list[str] = field(default_factory=list)
    reduced_costs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # one per row as posed, of an optimal solve: <= 0 on a <= row, >= 0 on a >= row
    duals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    basis: Optional[Basis] = None  # the final basis of an optimal or infeasible solve


class _Tableau:
    """Revised simplex state over a standard form: the basis, its
    explicit inverse and the basic values, each nonbasic column at its
    lower or upper bound."""

    def __init__(self, form: _StandardForm, lower: np.ndarray, upper: np.ndarray,
                 start: Optional[Basis]):
        self.form = form
        self.A = form.A  # never mutated
        self.m, self.total = form.m, form.total
        self.lower = np.concatenate([lower, np.zeros(form.m)])
        self.upper = np.concatenate([upper, form.logical_upper])
        if start is None:
            self.basis = np.arange(form.n, form.total)  # the logical columns
            self.binv = np.eye(form.m)
            self.at_upper = np.zeros(form.total, dtype=bool)
        else:
            self.basis = start.columns.copy()
            self.binv = start.inverse.copy()
            # a column whose bounds now meet sits at its lower bound
            self.at_upper = start.at_upper & (self.upper > self.lower)
        self.xb = self.basic_values()
        self.iterations = 0

    def values(self, basic: Optional[np.ndarray]) -> np.ndarray:
        """Every column's value: nonbasic ones at their bound, basic ones
        at ``basic`` (0 when None)."""
        x = np.where(self.at_upper, self.upper, self.lower)
        x[self.basis] = 0.0 if basic is None else basic
        return x

    def basic_values(self) -> np.ndarray:
        """The basic values read off the basis inverse and the nonbasic
        bounds, ``binv @ (b - A x_N)``, free of the rounding that pivots
        accumulate in ``xb``."""
        return self.binv @ (self.form.b - self.A @ self.values(basic=None))

    def _pivot(self, row: int, col: int, direction: np.ndarray,
               to_upper: bool = False) -> None:
        """Replace the basic variable of ``row`` by ``col``; the leaving
        one goes to its upper bound if ``to_upper``, else its lower.
        ``direction`` is binv @ A[:, col]."""
        leaving = self.basis[row]
        target = self.upper[leaving] if to_upper else self.lower[leaving]
        origin = self.upper[col] if self.at_upper[col] else self.lower[col]
        if target:
            self.xb[row] -= target
        piv = direction[row]
        self.binv[row] /= piv
        self.xb[row] /= piv  # the entering column's step
        factor = direction.copy()
        factor[row] = 0.0
        self.binv -= np.outer(factor, self.binv[row])
        self.xb -= factor * self.xb[row]
        if origin:
            self.xb[row] += origin
        self.at_upper[leaving] = to_upper and self.upper[leaving] > self.lower[leaving]
        self.at_upper[col] = False
        self.basis[row] = col
        self.iterations += 1

    def _flip(self, col: int, direction: np.ndarray) -> None:
        """Move nonbasic ``col`` to its other bound."""
        span = self.upper[col] - self.lower[col]
        self.xb -= direction * (-span if self.at_upper[col] else span)
        self.at_upper[col] = not self.at_upper[col]
        self.iterations += 1

    def duals(self, cost: np.ndarray) -> np.ndarray:
        return cost[self.basis] @ self.binv

    def final_basis(self) -> Basis:
        return Basis(self.basis, self.at_upper, self.form, self.binv)

    def run(self, cost: np.ndarray, max_iter: int) -> tuple[str, np.ndarray]:
        """Bounded revised primal simplex from a primal-feasible basis.

        Returns (status, reduced_costs).  A column at its lower bound
        enters on a negative reduced cost, one at its upper bound on a
        positive one.  Dantzig entering rule with a switch to Bland's
        rule after a long run of degenerate pivots.  When the entering
        column reaches its other bound before any basic value reaches
        one of its own, it flips there and the basis stays.  Reduced
        costs are recomputed from the basis inverse every iteration, so
        the optimality certificate is exact.
        """
        blocked = self.upper <= self.lower  # fixed columns never move
        bland = False
        degenerate_run = 0
        for _ in range(max_iter):
            red = cost - self.duals(cost) @ self.A
            gain = np.where(self.at_upper, -red, red)
            gain[blocked] = np.inf
            if bland:
                candidates = np.nonzero(gain < -PIVOT_TOL)[0]
                if candidates.size == 0:
                    return "Optimal", red
                col = int(candidates[0])
            else:
                col = int(np.argmin(gain))
                if gain[col] >= -PIVOT_TOL:
                    return "Optimal", red
            direction = self.binv @ self.A[:, col]
            # basic values fall by ``move`` per unit the entering column moves
            move = -direction if self.at_upper[col] else direction
            ratios = np.full(self.m, np.inf)
            falling = move > PIVOT_TOL
            ratios[falling] = ((self.xb[falling] - self.lower[self.basis][falling])
                               / move[falling])
            rising = move < -PIVOT_TOL
            ratios[rising] = ((self.upper[self.basis][rising] - self.xb[rising])
                              / -move[rising])
            best = ratios.min(initial=np.inf)
            span = self.upper[col] - self.lower[col]
            if span == np.inf and best == np.inf:
                return "Unbounded", red
            if span <= best:
                self._flip(col, direction)
                degenerate_run = 0
                continue
            tied = np.nonzero(ratios <= best + PIVOT_TOL)[0]
            # leaving tie-break: smallest basis variable index (Bland-safe)
            row = int(min(tied, key=lambda i: self.basis[i]))
            if best <= PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run > 2 * self.m + 10:
                    bland = True
            else:
                degenerate_run = 0
            self._pivot(row, col, direction, to_upper=bool(move[row] < 0))
        raise MalformedProgram("simplex iteration limit exceeded")

    def dual_run(self, cost: np.ndarray, max_iter: int) -> Optional[list[str]]:
        """Bounded dual simplex, until every basic value is within its
        bounds (then None).  If a basic value out of its bounds cannot be
        moved toward them by any column, the program is infeasible:
        returns that row's certificate.

        It runs on ``cost`` shifted so that the start is dual feasible:
        each nonbasic column whose reduced cost has the wrong sign by
        more than ``PIVOT_TOL`` gets a cost that prices it at 0 (from
        the logical basis that clips the costs at zero; Koberstein,
        2005, ch. 4, on cost shifting).  Basic costs are unchanged, so
        the duals are too.

        The leaving row is the one farthest out of its bounds; the
        entering column keeps every reduced cost of the right sign,
        ties going to the largest pivot, then the lowest column.  After
        a long run of degenerate pivots, Bland's rule: the lowest basic
        column out of bounds leaves and the lowest tied column enters.
        The reduced costs are updated by the pivot row, not recomputed:
        they only steer the ratio test, and ``run`` recomputes its own.
        """
        blocked = self.upper <= self.lower
        red = cost - self.duals(cost) @ self.A
        red[np.where(self.at_upper, red, -red) > PIVOT_TOL] = 0.0  # the shift
        bland = False
        degenerate_run = 0
        for _ in range(max_iter):
            below = self.lower[self.basis] - self.xb
            above = self.xb - self.upper[self.basis]
            excess = np.maximum(below, above)
            out = np.nonzero(excess > FEAS_TOL)[0]
            if out.size == 0:
                return None
            if bland:
                row = int(min(out, key=lambda i: self.basis[i]))
            else:
                row = int(out[np.argmax(excess[out])])
            to_upper = bool(above[row] > below[row])
            alpha = self.binv[row] @ self.A
            # per unit a column moves off its bound, the leaving value
            # moves toward its violated bound by ``toward``
            toward = alpha if to_upper else -alpha
            toward = np.where(self.at_upper, -toward, toward)
            eligible = toward > PIVOT_TOL
            eligible[blocked] = False
            eligible[self.basis] = False
            if not eligible.any():
                return self._certificate(
                    self.binv[row], -alpha if to_upper else alpha,
                    self.basis[row] if to_upper else None)
            slack = np.maximum(np.where(self.at_upper, -red, red), 0.0)
            cols = np.nonzero(eligible)[0]
            ratios = slack[cols] / toward[cols]
            best = ratios.min()
            tied = cols[ratios <= best + PIVOT_TOL]
            col = int(tied[0] if bland else tied[np.argmax(toward[tied])])
            if best <= PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run > 2 * self.m + 10:
                    bland = True
            else:
                degenerate_run = 0
            self._pivot(row, col, self.binv @ self.A[:, col], to_upper)
            red -= red[col] / alpha[col] * alpha
        raise MalformedProgram("simplex iteration limit exceeded")

    def _certificate(self, multipliers: np.ndarray, gradient: np.ndarray,
                     own: Optional[int] = None) -> list[str]:
        """Names of an infeasibility proof: ``bound[<var>]`` for each
        variable whose upper bound it uses (a nonbasic one whose
        ``gradient`` entry is negative, plus ``own``), then each named
        row with a nonzero multiplier."""
        form = self.form
        used = gradient < -FEAS_TOL
        used[self.basis] = False
        if own is not None:
            used[own] = True
        used &= self.upper < np.inf
        names = [f"bound[{form.var_names[j]}]" for j in np.nonzero(used[:form.n])[0]]
        names += [form.row_names[i] for i in np.nonzero(np.abs(multipliers) > FEAS_TOL)[0]
                  if form.row_names[i]]
        return names


def simplex_solve(lp: LinearProgram, lower: Optional[np.ndarray] = None,
                  upper: Optional[np.ndarray] = None,
                  start: Optional[Basis] = None) -> LpSolution:
    """Bounded revised simplex: the dual simplex to a feasible basis,
    then the primal simplex to an optimal one.

    Column ``j`` lies within ``[lower[j], upper[j]]``, by default
    ``lp.bounds()``.  Without ``start`` the solve begins at the logical
    basis.  ``start`` is a basis of this program from :meth:`Basis.of`,
    or the basis of an earlier solve of it, optimal or infeasible, and
    the solve starts from it.  Columns and
    rows may have been appended to the program since: old rows may gain
    coefficients in new columns, and nothing else of them may change.
    The standard form is then grown from the basis's (only the new
    numbers are read and checked), and the basis is extended by
    :meth:`Basis.extended`, with no refactorization.  The dual simplex runs on the costs shifted to make
    its start dual feasible (see ``_Tableau.dual_run``); the primal
    simplex then restores the true costs.

    Returns Optimal with reduced costs, the duals of the rows as posed
    and the final basis; Infeasible with a certificate and, past the
    bound check, the final basis; or Unbounded.  A certificate names
    the constraint rows of the proof, and as ``bound[<variable name>]``
    each variable whose upper bound the proof rests on; lower bounds
    are never named.  Crossed bounds name the variable the same way.
    Each of the two runs is limited to 50 * (rows + columns) + 1000
    pivots and bound flips of the standard form; past that it raises
    MalformedProgram.
    """
    lower = np.zeros(len(lp.variables)) if lower is None else np.asarray(lower, dtype=float)
    upper = lp.bounds()[1] if upper is None else np.asarray(upper, dtype=float)
    crossed = np.nonzero(lower > upper)[0]
    if crossed.size:
        return LpSolution(status="Infeasible", certificate=[
            f"bound[{lp.variables[j].name}]" for j in crossed])
    if start is None:
        form = _StandardForm(lp)
    elif (start.form.n, start.form.m) != (len(lp.variables), len(lp.constraints)):
        form = _StandardForm(lp, start.form)
        start = start.extended(form)
    else:
        form = start.form
    tab = _Tableau(form, lower, upper, start)
    max_iter = 50 * (tab.m + tab.total) + 1000

    certificate = tab.dual_run(form.cost, max_iter)
    if certificate is not None:
        return LpSolution(status="Infeasible", certificate=certificate,
                          iterations=tab.iterations, basis=tab.final_basis())
    status, red = tab.run(form.cost, max_iter)
    if status == "Unbounded":
        return LpSolution(status="Unbounded", iterations=tab.iterations)
    x = tab.values(tab.basic_values())[:form.n].copy()
    x[np.abs(x) < 1e-12] = 0.0
    objective = float(form.cost[:form.n] @ x)
    return LpSolution(status="Optimal", values=x, objective=objective,
                      iterations=tab.iterations,
                      reduced_costs=red[:form.n].copy(),
                      duals=tab.duals(form.cost) * form.sign,
                      basis=tab.final_basis())


def branch_and_bound(lp: LinearProgram,
                     root: Optional[LpSolution] = None) -> LpSolution:
    """Depth-first branch and bound over the LP's integer variables.

    A value within ``INT_TOL`` of an integer counts as integral; the
    search branches on the most fractional variable (ties by lowest
    index).  A branch narrows that variable's bounds, and each child is
    re-solved from its parent's basis.  The up child (``x >= ceil(v)``)
    is explored before the down child.

    A node whose relaxation does not beat the incumbent by more than
    1e-9 is pruned, and every integral node that survives becomes the
    incumbent.  The node order is fixed, so the result is the first
    optimum that order reaches, and it is deterministic.

    The root is the first node: ``root``, if given, is
    ``simplex_solve(lp)`` already solved, else it is solved here.  A
    root that is not optimal is returned as solved, with its status and
    certificate.
    """
    int_idx = lp.integer_indices()
    if not int_idx:
        raise ValueError("branch_and_bound requires at least one integer variable")

    incumbent: Optional[LpSolution] = None
    total_iters = 0
    # node = (lower bounds, upper bounds, parent's basis; None at the root)
    stack: list[tuple[np.ndarray, np.ndarray, Optional[Basis]]] = [(*lp.bounds(), None)]
    while stack:
        lower, upper, start = stack.pop()
        if start is None:
            sol = root if root is not None else simplex_solve(lp)
        else:
            sol = simplex_solve(lp, lower, upper, start)
        total_iters += sol.iterations
        if sol.status != "Optimal":
            if start is None:
                return sol
            continue
        if incumbent is not None and sol.objective >= incumbent.objective - 1e-9:
            continue
        frac_j, frac_amount = -1, -1.0
        for j, v in zip(int_idx, sol.values[int_idx].tolist()):
            f = abs(v - round(v))
            if f > INT_TOL and f > frac_amount + 1e-12:
                frac_amount = f
                frac_j = j
        if frac_j < 0:
            incumbent = sol
            continue
        v = sol.values[frac_j]
        raised, cut = lower.copy(), upper.copy()
        raised[frac_j] = math.ceil(v)
        cut[frac_j] = math.floor(v)
        stack.append((lower, cut, sol.basis))
        stack.append((raised, upper, sol.basis))  # popped first

    if incumbent is None:
        return LpSolution(status="Infeasible", iterations=total_iters)
    # The incumbent's integer columns lie within INT_TOL of integers, and
    # a basic one off its integer carries that error into the columns it
    # scales.  Re-solved cold with them fixed at those integers,
    # they are bounds, not basic values, and carry no error.
    rounded = np.round(incumbent.values[int_idx])
    if not np.array_equal(rounded, incumbent.values[int_idx]):
        lower, upper = lp.bounds()
        lower[int_idx] = upper[int_idx] = rounded
        fixed = simplex_solve(lp, lower, upper)
        total_iters += fixed.iterations
        if fixed.status == "Optimal":
            incumbent = fixed
    incumbent.iterations = total_iters
    return incumbent
