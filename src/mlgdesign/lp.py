"""Self-contained linear programming: a bounded revised simplex with an
anti-cycling fallback, and depth-first branch and bound for integer
variables that takes the up branch first.

Every column lies between a lower and an upper bound (``Variable.lower``,
0 unless posed, and ``Variable.upper`` unless a caller narrows them).  A nonbasic column
sits at one of its bounds and the ratio test flips it to the other, so
a bound never becomes a row (Chvátal, *Linear Programming*, 1983,
ch. 8).  Each row has one logical column, and every solve takes one
road: the dual simplex to a feasible basis, then the primal simplex to
an optimal one.  The dual simplex runs on the costs shifted to make
its start dual feasible: from the logical basis that clips them at
zero, so no phase 1 is needed (Koberstein, *The dual simplex method*,
PhD thesis, Paderborn, 2005, ch. 4).  A branch narrows one bound of one
column; the parent's optimal basis stays dual feasible, so each child
is re-solved from it on the true costs, in place in the tableau its
parent left: a dive keeps one tableau, and a saved copy is restored
only on backtrack.  A solve can also restart from
a basis found before columns and rows were appended, as column
generation does; an optimal solve returns the row duals that price
such columns, and an infeasible one the Farkas multipliers that price
a column able to mend it.  Branch and bound takes a pricer that appends
columns and rows at the nodes whose LP decides them, and grows its
tableau in place (branch and price).  A cold solve may start from a
crash basis the caller names by its columns (:meth:`Basis.of`) in place
of the logical one.

At desk scale a NumPy call costs more than its arithmetic, so the
tableau keeps what each iteration reads of the basis: the bounds of
each row's basic column, the side (+1 or -1) each column sits on, and
the mask of columns free to enter (neither fixed nor basic).  Each
pivot and bound flip updates them in O(1), rather than every iteration
re-deriving them (Maros, *Computational Techniques of the Simplex
Method*, 2003).  Bounds are checked once per solve: a NaN bound,
a lower bound that is not finite or an upper bound of -inf raises
``ValueError``.

The search
takes the up branch first: in the design models a binary's up branch
opens a channel or homes a subscriber, which tends to reach feasible
integer points soon (Achterberg, Koch & Martin, *Oper. Res. Letters*
33, 2005, on node selection).  A program whose integer points all cost
integers says so (``LinearProgram.integral_objective``), and the search
then prunes a node on its bound rounded up (Achterberg, *Constraint
Integer Programming*, PhD thesis, TU Berlin, 2007).

Sized for desk-scale design instances; robustness and determinism are
prioritized over raw speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import MalformedProgram

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
INT_TOL = 1e-6


@dataclass
class Variable:
    name: str
    upper: Optional[float] = None  # None: no upper bound
    integer: bool = False
    lower: float = 0.0


@dataclass
class Constraint:
    coeffs: dict[int, float]
    relation: str  # "<=", "=", ">="
    rhs: float
    name: str = ""


class LinearProgram:
    """Minimization LP over bounded variables.

    ``integral_objective`` declares that every integer point's best
    completion costs an integer, so branch and bound may prune a node
    whose bound rounds up to the incumbent's (see
    :func:`branch_and_bound`).  The caller that poses the program vouches
    for it; it is False unless set."""

    def __init__(self):
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: dict[int, float] = {}
        self.integral_objective = False

    def add_var(self, name: str, upper: Optional[float] = None,
                integer: bool = False, lower: float = 0.0) -> int:
        """Append a column in [``lower``, ``upper``]; None or +inf means no
        upper bound.  A NaN or -inf upper bound, or a lower bound that is
        not finite, raises ``ValueError``."""
        if upper is not None and (math.isnan(upper) or upper == -math.inf):
            raise ValueError(f"upper bound of {name!r} must be a number or +inf, not {upper}")
        if not math.isfinite(lower):
            raise ValueError(f"lower bound of {name!r} must be a finite number, not {lower}")
        self.variables.append(Variable(name, upper, integer, lower))
        return len(self.variables) - 1

    def add_constraint(self, coeffs: dict[int, float], relation: str, rhs: float,
                       name: str = "") -> None:
        if relation not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {relation!r}")
        n = len(self.variables)
        for j in coeffs:
            if not 0 <= j < n:
                raise ValueError(f"constraint references undeclared variable {j}")
        self.constraints.append(Constraint(dict(coeffs), relation, rhs, name))

    def set_objective(self, coeffs: dict[int, float]) -> None:
        self.objective = dict(coeffs)

    def integer_indices(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.integer]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) per variable as posed, ``upper`` None read as no
        bound."""
        lower = [v.lower for v in self.variables]
        upper = [math.inf if v.upper is None else v.upper for v in self.variables]
        return np.array(lower, dtype=float), np.array(upper, dtype=float)


class _StandardForm:
    """An LP's rows over its columns, then one logical column per row
    (B = I): a ``<=`` row's slack in [0, inf), a ``>=`` row negated into
    ``<=`` form (``sign`` -1) with the same slack, and an ``=`` row's
    logical fixed at [0, 0].  Shared by every solve restarted from one
    of its bases, and never mutated.

    ``base``, if given, is the form of this program before columns and
    rows were appended.  Its blocks are copied, and only what is new is
    read from ``lp``: the new rows, the old rows' coefficients in new
    columns and the new columns' costs.  Nothing of the old columns
    changes, so the coefficients and costs of new columns are the last
    entries each row's dict and the objective gained: each is read from
    its end back to its first old column.  Raises ``ValueError`` when
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
        A = self.A
        if n0 < n:  # the old rows' coefficients in new columns, the last ones each gained
            for i, (con, sign) in enumerate(zip(lp.constraints, self.sign[:m0].tolist())):
                for j in reversed(con.coeffs):
                    if j < n0:
                        break
                    A[i, j] = sign * con.coeffs[j]
        for i, con in enumerate(lp.constraints[m0:], m0):
            sign = self.sign[i] = -1.0 if con.relation == ">=" else 1.0
            for j, c in con.coeffs.items():
                A[i, j] = sign * c
            self.b[i] = sign * con.rhs
            if con.relation == "=":
                self.logical_upper[i] = 0.0
        for j in reversed(lp.objective):  # the new columns' costs, set last
            if j < n0:
                break
            self.cost[j] = lp.objective[j]
        if not (np.isfinite(A[:m0, n0:n]).all() and np.isfinite(A[m0:, :n]).all()
                and np.isfinite(self.b[m0:]).all() and np.isfinite(self.cost[n0:n]).all()):
            raise MalformedProgram("NaN or infinite coefficient in program")
        A.reshape(-1)[n::n + m + 1] = 1.0  # the logical columns, B = I


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

        The columns are taken in the map's order.  A start is triangular
        in that order when no column has an entry in a row given after
        its own; the node-link forest is, since it lists each parent
        before its child, and so is each link-path column, which touches
        no given row but its own ``demand`` row.  Then column r_q of the
        inverse, for the q-th pair (r_q, c_q), is (e_{r_q} - sum over
        logical rows l of A[l, c_q] e_l - sum over p < q of A[r_p, c_q]
        x_p) / A[r_q, c_q], where x_p is column r_p: one column update
        per entry in an earlier given row, a scalar write per entry in a
        logical row, and no pivot.  For a forest basis, column v of the
        inverse is the indicator of v's path up to its root, less the
        logical rows that path's columns enter, so row v is the indicator
        of v's subtree (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
        ch. 11); with +-1 entries the inverse is exact.  A row
        that an earlier column has an entry in is reached by a pivot
        instead, which updates the rows where the entering column's
        direction is nonzero.  Raises ``ValueError`` for a row or column
        out of range, a column given twice, a logical column, or a zero
        pivot (the columns are dependent in that order)."""
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
        entries, values = entries.tolist(), values.tolist()
        basis = np.arange(form.n, form.total)
        inverse = np.eye(form.m)
        given: set[int] = set()  # rows whose column is already basic
        hit: set[int] = set()  # rows that a given column has an entry in
        for k, (row, col) in enumerate(columns.items()):
            mine, coeffs = entries[ends[k]:ends[k + 1]], values[ends[k]:ends[k + 1]]
            if row in hit:  # row ``row`` of the inverse is no longer e_row: pivot
                hit.update(mine)
                direction = inverse[:, mine] @ coeffs
                piv = direction[row]
                if abs(piv) <= PIVOT_TOL:
                    raise ValueError(f"column {col} has a zero pivot in row {row}")
                if piv != 1.0:
                    inverse[row] /= piv
                direction[row] = 0.0
                nonzero = direction.nonzero()[0]
                inverse[nonzero] -= np.multiply.outer(direction[nonzero], inverse[row])
            else:
                x = inverse[:, row]  # e_row so far
                piv = 0.0
                for entry, value in zip(mine, coeffs):
                    if entry == row:
                        piv = value
                    elif entry in given:
                        if value == -1.0:  # a forest arc's entry in its parent's row
                            x += inverse[:, entry]
                        else:
                            x -= value * inverse[:, entry]
                    else:
                        x[entry] -= value
                        hit.add(entry)
                if abs(piv) <= PIVOT_TOL:
                    raise ValueError(f"column {col} has a zero pivot in row {row}")
                if piv != 1.0:
                    x /= piv
            given.add(row)
            basis[row] = col
        return cls(basis, np.zeros(form.total, dtype=bool), form, inverse)


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
    # one per row as posed, of an infeasible solve the dual simplex proved: the
    # multipliers u of its infeasible row, signed as the duals.  u @ b exceeds
    # the most u @ A x reaches within the bounds, and a new column at its lower
    # bound can mend that only if u @ A_j > 0 (Farkas pricing)
    farkas: np.ndarray = field(default_factory=lambda: np.zeros(0))
    basis: Optional[Basis] = None  # the final basis of an optimal or infeasible solve
    nodes: int = 0  # of a branch-and-bound result: the node LPs solved, the root not counted


class _Tableau:
    """Revised simplex state over a standard form: the basis, its
    explicit inverse and the basic values, each nonbasic column at its
    lower or upper bound.

    It also keeps what every iteration reads of the basis, and each
    pivot and bound flip updates it in O(1) instead of re-deriving it
    (Maros, *Computational Techniques of the Simplex Method*, 2003):
    ``lower_b`` and ``upper_b``, the bounds of each row's basic
    column; ``side``, -1 for a column at its upper bound and +1 for any
    other; and ``movable``, the columns that are neither fixed
    (``blocked``, computed once per solve) nor basic."""

    def __init__(self, form: _StandardForm, lower: np.ndarray, upper: np.ndarray,
                 start: Optional[Basis]):
        self.form = form
        self.A = form.A  # never mutated
        self.m, self.total = form.m, form.total
        self.lower = np.concatenate([lower, np.zeros(form.m)])
        self.upper = np.concatenate([upper, form.logical_upper])
        self.blocked = self.upper <= self.lower  # fixed columns never move
        if start is None:
            self.basis = np.arange(form.n, form.total)  # the logical columns
            self.binv = np.eye(form.m)
        else:
            self.basis = start.columns.copy()
            self.binv = start.inverse.copy()
        if start is None or not np.count_nonzero(start.at_upper):
            self.at_upper = np.zeros(form.total, dtype=bool)
            self.side = np.ones(form.total)
        else:
            # a column whose bounds now meet, or whose upper bound is now
            # infinite, sits at its lower bound
            self.at_upper = start.at_upper & ~self.blocked & (self.upper < np.inf)
            self.side = np.where(self.at_upper, -1.0, 1.0)
        self.movable = ~self.blocked
        self.movable[self.basis] = False
        self.lower_b = self.lower[self.basis]
        self.upper_b = self.upper[self.basis]
        self.xb = self.basic_values(self.nonbasic_values())
        self.iterations = 0

    def nonbasic_values(self) -> np.ndarray:
        """Every column's value with the basic ones at 0: each nonbasic
        one at its bound."""
        x = np.where(self.at_upper, self.upper, self.lower)
        x[self.basis] = 0.0
        return x

    def basic_values(self, nonbasic: np.ndarray) -> np.ndarray:
        """The basic values read off the basis inverse and the
        ``nonbasic`` values, ``binv @ (b - A x_N)``, free of the rounding
        that pivots accumulate in ``xb``."""
        return self.binv.dot(self.form.b - self.A.dot(nonbasic))

    def _pivot(self, row: int, col: int, direction: np.ndarray,
               to_upper: bool = False) -> None:
        """Replace the basic variable of ``row`` by ``col``; the leaving
        one goes to its upper bound if ``to_upper``, else its lower.
        ``direction`` is binv @ A[:, col]; the pivot zeroes its ``row``
        entry and eliminates with it in place."""
        xb, binv = self.xb, self.binv
        leaving = self.basis[row]
        target = self.upper_b[row] if to_upper else self.lower_b[row]
        origin = self.upper[col] if self.at_upper[col] else self.lower[col]
        if target:
            xb[row] -= target
        piv = direction[row]
        binv[row] /= piv
        xb[row] /= piv  # the entering column's step
        direction[row] = 0.0
        binv -= direction[:, None] * binv[row]
        xb -= direction * xb[row]
        if origin:
            xb[row] += origin
        fixed = self.blocked[leaving]
        up = to_upper and not fixed
        self.at_upper[leaving] = up
        self.side[leaving] = -1.0 if up else 1.0
        self.movable[leaving] = not fixed
        self.at_upper[col] = False
        self.side[col] = 1.0
        self.movable[col] = False
        self.lower_b[row] = self.lower[col]
        self.upper_b[row] = self.upper[col]
        self.basis[row] = col
        self.iterations += 1

    def _flip(self, col: int, direction: np.ndarray) -> None:
        """Move nonbasic ``col`` to its other bound."""
        span = self.upper[col] - self.lower[col]
        up = self.at_upper[col]
        self.xb -= direction * (-span if up else span)
        self.at_upper[col] = not up
        self.side[col] = 1.0 if up else -1.0
        self.iterations += 1

    def duals(self, cost: np.ndarray) -> np.ndarray:
        return cost[self.basis].dot(self.binv)

    def final_basis(self) -> Basis:
        return Basis(self.basis, self.at_upper, self.form, self.binv)

    def read_off(self) -> tuple[np.ndarray, float]:
        """The structural columns' values, with entries below 1e-12 in
        magnitude read as 0, and their cost.  The basic values are read
        fresh off the inverse (:meth:`basic_values`) and also replace
        ``xb``, so the tableau then holds what one built over this basis
        would derive."""
        n = self.form.n
        x = self.nonbasic_values()
        x[self.basis] = self.xb = self.basic_values(x)
        x = x[:n].copy()
        x[np.abs(x) < 1e-12] = 0.0
        return x, float(self.form.cost[:n].dot(x))

    _STATE = ("basis", "binv", "xb", "lower", "upper", "blocked", "at_upper", "side",
              "movable", "lower_b", "upper_b")

    def save(self) -> tuple:
        """The form, and a copy of everything a solve or :meth:`narrow`
        changes."""
        return (self.form, *(getattr(self, name).copy() for name in self._STATE))

    def restore(self, saved: tuple) -> None:
        """Return to a state :meth:`save` took, over the form it was taken
        in; ``saved`` is taken over, not copied, so it is restored at most
        once."""
        form, *arrays = saved
        self.form, self.A, self.m, self.total = form, form.A, form.m, form.total
        for name, value in zip(self._STATE, arrays):
            setattr(self, name, value)

    def grow(self, form: _StandardForm, lower: np.ndarray, upper: np.ndarray) -> None:
        """Extend this tableau in place to ``form``, the standard form of
        its program after columns and rows were appended, the new columns
        within [``lower``, ``upper``].  The old columns keep their index and
        the logicals move past the new columns; each new column is nonbasic
        at its lower bound, and each new row's logical is basic.  With R the
        new rows over the old basic columns, the inverse of [[B, 0], [R, I]]
        is [[B^-1, 0], [-R B^-1, I]].  The tableau then holds what one built
        over that basis would derive, with no pivot."""
        n0, m0, rows = self.form.n, self.form.m, form.m - self.form.m

        def pad(old, new, logicals):  # the old columns, new ones, old and new logicals
            return np.concatenate([old[:n0], new, old[n0:], logicals])

        self.lower = pad(self.lower, lower, np.zeros(rows))
        self.upper = pad(self.upper, upper, form.logical_upper[m0:])
        self.at_upper = pad(self.at_upper, np.zeros(lower.size, dtype=bool),
                            np.zeros(rows, dtype=bool))
        remap = np.where(self.basis < n0, self.basis, self.basis + lower.size)
        self.basis = np.concatenate([remap, np.arange(form.n + m0, form.total)])
        if rows:
            binv = np.eye(form.m)
            binv[:m0, :m0] = self.binv
            binv[m0:, :m0] = -form.A[m0:, remap] @ self.binv
            self.binv = binv
        self.form, self.A, self.m, self.total = form, form.A, form.m, form.total
        self.blocked = self.upper <= self.lower
        self.side = np.where(self.at_upper, -1.0, 1.0)
        self.movable = ~self.blocked
        self.movable[self.basis] = False
        self.lower_b, self.upper_b = self.lower[self.basis], self.upper[self.basis]
        self.xb = self.basic_values(self.nonbasic_values())

    def narrow(self, col: int, lower: float, upper: float) -> None:
        """Set column ``col``'s bounds to [``lower``, ``upper``], leaving
        exactly what a tableau built over this basis with the new bounds
        would derive: a column now fixed is blocked, and a nonbasic
        column moved off a bound that went away or became its lower one
        sits at its lower bound, which moves the basic values."""
        self.lower[col], self.upper[col] = lower, upper
        fixed = self.blocked[col] = upper <= lower
        rows = (self.basis == col).nonzero()[0]
        if rows.size:
            self.lower_b[rows[0]], self.upper_b[rows[0]] = lower, upper
            return
        up = self.at_upper[col] = self.at_upper[col] and not fixed and upper < np.inf
        self.side[col] = -1.0 if up else 1.0
        self.movable[col] = not fixed
        self.xb = self.basic_values(self.nonbasic_values())

    def run(self, cost: np.ndarray, max_iter: int) -> tuple[str, np.ndarray, np.ndarray]:
        """Bounded revised primal simplex from a primal-feasible basis.

        Returns (status, reduced costs, duals).  A column at its lower bound
        enters on a negative reduced cost, one at its upper bound on a
        positive one.  Dantzig entering rule with a switch to Bland's
        rule after a long run of degenerate pivots.  When the entering
        column reaches its other bound before any basic value reaches
        one of its own, it flips there and the basis stays.  Reduced
        costs are recomputed from the basis inverse every iteration, so
        the optimality certificate is exact.
        """
        xb, lower_b, upper_b = self.xb, self.lower_b, self.upper_b
        bland = False
        degenerate_run = 0
        for _ in range(max_iter):
            y = self.duals(cost)
            red = cost - y.dot(self.A)
            gain = red * self.side
            gain[self.blocked] = np.inf
            if bland:
                candidates = (gain < -PIVOT_TOL).nonzero()[0]
                if candidates.size == 0:
                    return "Optimal", red, y
                col = int(candidates[0])
            else:
                col = int(gain.argmin())
                if gain[col] >= -PIVOT_TOL:
                    return "Optimal", red, y
            direction = self.binv.dot(self.A[:, col])
            # per unit the entering column moves off its bound, each basic
            # value moves by |direction| toward its lower bound (falling)
            # or its upper one
            falling = direction < 0.0 if self.at_upper[col] else direction > 0.0
            size = np.abs(direction)
            ratios = np.divide(np.where(falling, xb - lower_b, upper_b - xb), size,
                               out=np.full(self.m, np.inf), where=size > PIVOT_TOL)
            best = ratios.min(initial=np.inf)
            span = self.upper[col] - self.lower[col]
            if span == np.inf and best == np.inf:
                return "Unbounded", red, y
            if span <= best:
                self._flip(col, direction)
                degenerate_run = 0
                continue
            tied = (ratios <= best + PIVOT_TOL).nonzero()[0]
            # leaving tie-break: smallest basis variable index (Bland-safe)
            row = int(tied[0] if tied.size == 1 else tied[self.basis[tied].argmin()])
            if best <= PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run > 2 * self.m + 10:
                    bland = True
            else:
                degenerate_run = 0
            self._pivot(row, col, direction, to_upper=not falling[row])
        raise MalformedProgram("simplex iteration limit exceeded")

    def dual_run(self, cost: np.ndarray, max_iter: int,
                 red: Optional[np.ndarray] = None) -> Optional[int]:
        """Bounded dual simplex, until every basic value is within its
        bounds (then None).  If a basic value out of its bounds cannot be
        moved toward them by any column, the program is infeasible:
        returns that row, whose proof :meth:`proof` reads.  ``red``, if
        given, is ``cost``'s reduced costs over the start basis, as the
        last pricing of a ``run`` that ended there computed them; it is
        not written to.

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
        if not self.m:
            return None
        xb, lower_b, upper_b = self.xb, self.lower_b, self.upper_b
        side, movable = self.side, self.movable
        shifted = False  # priced at the first ratio test, which no pivot precedes
        bland = False
        degenerate_run = 0
        for _ in range(max_iter):
            below = lower_b - xb
            above = xb - upper_b
            excess = np.maximum(below, above)
            if bland:
                out = (excess > FEAS_TOL).nonzero()[0]
                if out.size == 0:
                    return None
                row = int(out[self.basis[out].argmin()])
            else:
                row = int(excess.argmax())
                if not excess[row] > FEAS_TOL:
                    return None
            to_upper = bool(above[row] > below[row])
            alpha = self.binv[row].dot(self.A)
            # per unit a column moves off its bound, the leaving value
            # moves toward its violated bound by ``toward``
            toward = alpha * side
            if not to_upper:
                toward *= -1.0
            cols = ((toward > PIVOT_TOL) & movable).nonzero()[0]
            if cols.size == 0:
                return row
            if not shifted:
                if red is None:
                    red = cost - self.duals(cost).dot(self.A)
                red = np.where(red * side < -PIVOT_TOL, 0.0, red)  # the shift
                shifted = True
            step = toward[cols]
            ratios = np.maximum((red * side)[cols], 0.0) / step
            best = ratios[ratios.argmin()]
            tied = ratios <= best + PIVOT_TOL
            # the first tied column, or the one with the largest pivot
            col = int(cols[tied.argmax() if bland else (step * tied).argmax()])
            if best <= PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run > 2 * self.m + 10:
                    bland = True
            else:
                degenerate_run = 0
            self._pivot(row, col, self.binv.dot(self.A[:, col]), to_upper)
            red -= red[col] / alpha[col] * alpha
        raise MalformedProgram("simplex iteration limit exceeded")

    def proof(self, row: int) -> tuple[list[str], np.ndarray]:
        """The certificate and multipliers (``farkas`` of
        :class:`LpSolution`) of ``row``, which :meth:`dual_run` returned:
        its basic value is out of its bounds and no column moves it back.

        The certificate names the proof: ``bound[<var>]`` for each
        variable whose upper bound it uses (a nonbasic one whose gradient
        entry is negative, plus the row's basic one when it lies above its
        upper bound), then each named row with a nonzero multiplier."""
        form = self.form
        to_upper = bool(self.xb[row] - self.upper_b[row] > self.lower_b[row] - self.xb[row])
        alpha = self.binv[row].dot(self.A)
        farkas = self.farkas(row)
        used = (-alpha if to_upper else alpha) < -FEAS_TOL
        used[self.basis] = False
        if to_upper:
            used[self.basis[row]] = True
        used &= self.upper < np.inf
        names = [f"bound[{form.var_names[j]}]" for j in np.nonzero(used[:form.n])[0]]
        names += [form.row_names[i] for i in np.nonzero(np.abs(farkas) > FEAS_TOL)[0]
                  if form.row_names[i]]
        return names, farkas

    def farkas(self, row: int) -> np.ndarray:
        """The multipliers of ``row``'s proof (:meth:`proof`), one per row as posed."""
        up = self.xb[row] - self.upper_b[row] > self.lower_b[row] - self.xb[row]
        return (self.binv[row] if up else -self.binv[row]) * self.form.sign


def _crossed_bounds(lp: LinearProgram, lower: np.ndarray, upper: np.ndarray) -> list[str]:
    """``bound[<name>]`` for each variable whose lower bound lies above
    its upper one.  A NaN bound, a lower bound that is not finite or an
    upper bound of -inf raises ``ValueError`` naming the first variable
    that has one."""
    bad = ~np.isfinite(lower) | np.isnan(upper) | (upper == -np.inf)
    if bad.any():
        j = int(bad.argmax())
        name = lp.variables[j].name
        if not np.isfinite(lower[j]):
            raise ValueError(f"lower bound of {name!r} must be a finite number, not {lower[j]}")
        raise ValueError(f"upper bound of {name!r} must be a number or +inf, not {upper[j]}")
    return [f"bound[{lp.variables[j].name}]" for j in np.nonzero(lower > upper)[0]]


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
    numbers are read and checked), and the tableau over the basis is
    extended by ``_Tableau.grow``, with no refactorization.  The dual simplex runs on the costs shifted to make
    its start dual feasible (see ``_Tableau.dual_run``); the primal
    simplex then restores the true costs.

    Returns Optimal with reduced costs, the duals of the rows as posed
    and the final basis; Infeasible with a certificate and, past the
    bound check, the Farkas multipliers of the rows as posed and the
    final basis; or Unbounded.  A certificate names the constraint rows
    of the proof, and as ``bound[<variable name>]`` each variable whose
    upper bound the proof rests on; lower bounds are never named.  Crossed bounds name the variable the same way.  A
    NaN bound, a lower bound that is not finite or an upper bound of
    -inf raises ``ValueError`` naming the variable.  A column of
    ``start`` at an upper bound that is now infinite starts at its lower
    bound.
    Each of the two runs is limited to 50 * (rows + columns) + 1000
    pivots and bound flips of the standard form; past that it raises
    MalformedProgram.
    """
    if lower is None or upper is None:
        posed = lp.bounds()
        lower = posed[0] if lower is None else lower
        upper = posed[1] if upper is None else upper
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    # one pass over the bounds; the reasons are sorted out only when it fails
    if np.count_nonzero(np.isfinite(lower) & (lower <= upper)) < lower.size:
        return LpSolution(status="Infeasible", certificate=_crossed_bounds(lp, lower, upper))
    form = _StandardForm(lp) if start is None else start.form
    n = form.n
    grown = (None if (n, form.m) == (len(lp.variables), len(lp.constraints))
             else _StandardForm(lp, form))
    tab = _Tableau(form, lower[:n], upper[:n], start)
    if grown is not None:
        tab.grow(grown, lower[n:], upper[n:])
        form = grown
    max_iter = 50 * (tab.m + tab.total) + 1000

    row = tab.dual_run(form.cost, max_iter)
    if row is not None:
        certificate, farkas = tab.proof(row)
        return LpSolution(status="Infeasible", certificate=certificate, farkas=farkas,
                          iterations=tab.iterations, basis=tab.final_basis())
    status, red, y = tab.run(form.cost, max_iter)
    if status == "Unbounded":
        return LpSolution(status="Unbounded", iterations=tab.iterations)
    x, objective = tab.read_off()
    return LpSolution(status="Optimal", values=x, objective=objective,
                      iterations=tab.iterations,
                      reduced_costs=red[:form.n].copy(),
                      duals=y * form.sign,
                      basis=tab.final_basis())


def branch_and_bound(lp: LinearProgram, root: Optional[LpSolution] = None,
                     price: Optional[Callable[..., bool]] = None) -> LpSolution:
    """Depth-first branch and bound over the LP's integer variables.

    A value within ``INT_TOL`` of an integer counts as integral; the
    search branches on the most fractional variable (ties by lowest
    index).  A branch narrows that variable's bounds, and each child is
    re-solved from its parent's basis.  The up child (``x >= ceil(v)``)
    is explored before the down child.

    A node whose relaxation does not beat the incumbent by more than
    1e-9 is pruned, and every integral node that survives becomes the
    incumbent.  When ``lp.integral_objective`` is set, every integer
    point's objective is an integer, so a node is also pruned when its
    bound rounds up to the incumbent's: ``ceil(bound - 1e-6) >=
    incumbent - 1e-9``.  Its subtree could hold only ties, which never
    replace the incumbent, so the result is the same.  The node order
    is fixed, so the result is the first optimum that order reaches,
    and it is deterministic.

    The root is the first node: ``root``, if given, is
    ``simplex_solve(lp)`` already solved, else it is solved here.  A
    root that is not optimal is returned as solved, with its status and
    certificate.

    A dive keeps one tableau (Koberstein, 2005).  A child narrows one
    bound of the branched column in it and runs the dual and primal
    simplex in place; the down child's start is saved when its parent
    branches and restored when the search backtracks to it.  Each child starts bit for bit where
    ``simplex_solve(lp, lower, upper, parent.basis)`` would: from the
    parent's final basis, its basic values read fresh off the inverse
    and its last pricing, so it takes the same pivots.  The result has
    the incumbent's values, objective and basis, the pivots of every
    solve in ``iterations`` and the node LPs solved in ``nodes``.

    ``price``, if given, prices columns in wherever a node's LP decides
    that node (Barnhart et al., "Branch-and-price", *Oper. Res.* 46,
    1998): an infeasible node before it is pruned, an optimal node
    before it is pruned on its bound, and an integral node before it
    becomes the incumbent.  A node that branches is not priced; its
    children are, where they are decided.  ``price(kind, multipliers,
    lower, upper)`` reads the node's LP: ``kind`` is "optimal", with the
    row duals as posed, or "infeasible", with the Farkas multipliers as
    posed (``LpSolution.farkas``), and ``lower`` and ``upper`` are the
    node's structural bounds, read only.  It may append columns and rows
    to ``lp`` and returns whether any entered.  Then the standard form
    grows once, the tableau is extended in place (``_Tableau.grow``) and
    the node is solved again in place, until nothing enters.  A saved
    down child from an older form is extended the same way when it is
    restored.  A column appended later takes its posed bounds at every
    node.  As every node the search prunes or accepts is fully priced,
    the result is the optimum over every column ``price`` can add.  The
    result's ``values`` has one entry per column of the final program,
    0 in those appended after the incumbent was found; ``nodes`` counts
    each node once, however often it is solved.
    """
    int_idx = np.array(lp.integer_indices(), dtype=int)
    if not int_idx.size:
        raise ValueError("branch_and_bound requires at least one integer variable")
    if root is None:
        root = simplex_solve(lp)
    if root.status != "Optimal":
        return root

    form = root.basis.form
    cost, max_iter = form.cost, 50 * (form.m + form.total) + 1000
    total_iters, nodes = root.iterations, 0
    incumbent: Optional[LpSolution] = None
    tab: Optional[_Tableau] = None  # built when the root branches or grows
    # the down children still to solve: (their parent's saved tableau and
    # last pricing, the branched column, its new upper bound)
    stack: list[tuple[tuple, Optional[np.ndarray], int, float]] = []
    # of the node just solved: its values and objective when optimal, its
    # last pricing, and its duals (optimal) or infeasible row, which a
    # pricer reads; proof is None for a node not solved to either
    values, objective, red, proof = root.values, root.objective, None, root.duals
    while True:
        col = -1
        live = values is not None and (incumbent is None or _bound(lp, objective)
                                       < incumbent.objective - 1e-9)
        if live:
            col = _most_fractional(values, int_idx)
        if col < 0 and price is not None and proof is not None:
            if tab is None:
                entered = price("optimal", proof, *lp.bounds())
            elif values is not None:
                entered = price("optimal", proof * form.sign, tab.lower[:form.n],
                                tab.upper[:form.n])
            else:
                entered = price("infeasible", tab.farkas(proof), tab.lower[:form.n],
                                tab.upper[:form.n])
            if entered:
                if tab is None:
                    tab = _Tableau(form, *(b[:form.n] for b in lp.bounds()), root.basis)
                form = _StandardForm(lp, form)
                cost, max_iter = form.cost, 50 * (form.m + form.total) + 1000
                tab.grow(form, *(b[tab.form.n:] for b in lp.bounds()))
                values, objective, red, proof = _solve_node(tab, cost, max_iter, None)
                total_iters += tab.iterations
                continue
        if live and col < 0:
            incumbent = root if tab is None else LpSolution(
                status="Optimal", values=values, objective=objective,
                basis=Basis(tab.basis.copy(), tab.at_upper.copy(), form, tab.binv.copy()))
        if col >= 0:
            if tab is None:
                tab = _Tableau(form, *lp.bounds(), root.basis)
            v = values[col]
            stack.append((tab.save(), red, col, math.floor(v)))
            tab.narrow(col, math.ceil(v), tab.upper[col])  # the up child, solved next
        elif stack:
            saved, red, col, cut = stack.pop()
            tab.restore(saved)
            if tab.form is not form:  # saved before the program grew
                tab.grow(form, *(b[tab.form.n:] for b in lp.bounds()))
                red = None
            tab.narrow(col, tab.lower[col], cut)
        else:
            break
        nodes += 1
        values = proof = None
        if tab.lower[col] > tab.upper[col]:
            continue
        values, objective, red, proof = _solve_node(tab, cost, max_iter, red)
        total_iters += tab.iterations

    if incumbent is None:
        return LpSolution(status="Infeasible", iterations=total_iters, nodes=nodes)
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
        while price is not None and fixed.basis is not None:
            optimal = fixed.status == "Optimal"
            if not price("optimal" if optimal else "infeasible",
                         fixed.duals if optimal else fixed.farkas, lower, upper):
                break
            posed_lower, posed_upper = lp.bounds()
            lower = np.concatenate([lower, posed_lower[lower.size:]])
            upper = np.concatenate([upper, posed_upper[upper.size:]])
            fixed = simplex_solve(lp, lower, upper, fixed.basis)
            total_iters += fixed.iterations
        if fixed.status == "Optimal":
            incumbent = fixed
    n = len(lp.variables)
    if incumbent.values.size < n:
        incumbent.values = np.concatenate([incumbent.values,
                                           np.zeros(n - incumbent.values.size)])
    incumbent.iterations, incumbent.nodes = total_iters, nodes
    return incumbent


def _solve_node(tab: _Tableau, cost: np.ndarray, max_iter: int,
                red: Optional[np.ndarray]) -> tuple:
    """Solve a node in place in ``tab`` (``red`` as :meth:`_Tableau.dual_run`
    takes it): (values and objective, None and NaN unless optimal; its last
    pricing, or ``red`` when the dual simplex stopped; the duals of the
    standard form when optimal, the infeasible row when infeasible, else
    None).  ``tab.iterations`` counts its pivots."""
    tab.iterations = 0
    row = tab.dual_run(cost, max_iter, red)
    if row is not None:
        return None, math.nan, red, row
    status, red, y = tab.run(cost, max_iter)
    if status != "Optimal":
        return None, math.nan, red, None
    values, objective = tab.read_off()
    return values, objective, red, y


def _bound(lp: LinearProgram, objective: float) -> float:
    """What a node's relaxation ``objective`` proves of the integer points
    below it: the next integer up when ``lp.integral_objective``."""
    return math.ceil(objective - 1e-6) if lp.integral_objective else objective


def _most_fractional(values: np.ndarray, int_idx: np.ndarray) -> int:
    """The integer column farthest from an integer, by more than
    ``INT_TOL``; a later one wins only by more than 1e-12.  -1 when
    every one is integral."""
    ints = values[int_idx]
    fraction = np.abs(ints - np.round(ints))
    best, amount = -1, -1.0
    for k in (fraction > INT_TOL).nonzero()[0].tolist():
        if fraction[k] > amount + 1e-12:
            best, amount = int(int_idx[k]), fraction[k]
    return best
