import json
import math
import pathlib
import random

import numpy as np
import pytest
from scipy.optimize import linprog

import mlgdesign.lp as lp_module
from mlgdesign import (LinearProgram, branch_and_bound, build_redundant_mlg, design,
                       simplex_solve, solve_uncapacitated)
from mlgdesign.cli import problem_from_dict
from mlgdesign.errors import MalformedProgram


def single_var_lp():
    lp = LinearProgram()
    x = lp.add_var("x")
    lp.add_constraint({x: 1.0}, ">=", 3.0, name="floor")
    lp.set_objective({x: 1.0})
    return lp


def random_program(rng, bounded=False):
    """A random LP over 2-6 columns and 2-6 rows, and the same program as
    ``linprog`` keyword arguments.  ``bounded`` adds upper bounds, some
    of them zero-width, and negative right-hand sides."""
    n = rng.randint(2, 6)
    m = rng.randint(2, 6)
    uppers = [rng.choice((None, None, 0.0, 2.0, 3.5, 5.0, 8.0)) if bounded else None
              for _ in range(n)]
    lp = LinearProgram()
    for j in range(n):
        lp.add_var(f"x{j}", upper=uppers[j])
    c = [rng.randint(-5, 8) for _ in range(n)]
    lp.set_objective({j: float(c[j]) for j in range(n)})
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for i in range(m):
        coeffs = [rng.randint(-3, 5) for _ in range(n)]
        rhs = rng.randint(-3 if bounded else 0, 12)
        rel = rng.choice(["<=", "<=", ">=", "="])
        lp.add_constraint({j: float(coeffs[j]) for j in range(n)}, rel,
                          float(rhs), name=f"r{i}")
        if rel == "<=":
            a_ub.append(coeffs)
            b_ub.append(rhs)
        elif rel == ">=":
            a_ub.append([-v for v in coeffs])
            b_ub.append(-rhs)
        else:
            a_eq.append(coeffs)
            b_eq.append(rhs)
    return lp, dict(c=c, A_ub=a_ub or None, b_ub=b_ub or None,
                    A_eq=a_eq or None, b_eq=b_eq or None,
                    bounds=[(0, u) for u in uppers])


def assert_matches_highs(sol, ref):
    if ref.status == 3:  # unbounded
        assert sol.status == "Unbounded"
    elif ref.status == 2:  # infeasible
        assert sol.status == "Infeasible"
    else:
        assert ref.status == 0
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7)


def highs(lp):
    """``linprog`` (HiGHS) on a ``LinearProgram`` as posed."""
    n = len(lp.variables)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in lp.constraints:
        row = [con.coeffs.get(j, 0.0) for j in range(n)]
        if con.relation == "=":
            a_eq.append(row)
            b_eq.append(con.rhs)
        else:
            sign = -1.0 if con.relation == ">=" else 1.0
            a_ub.append([sign * v for v in row])
            b_ub.append(sign * con.rhs)
    return linprog([lp.objective.get(j, 0.0) for j in range(n)],
                   A_ub=a_ub or None, b_ub=b_ub or None,
                   A_eq=a_eq or None, b_eq=b_eq or None,
                   bounds=[(0, v.upper) for v in lp.variables], method="highs")


def covering_program(rng, n=30, m=12):
    """Binary-bounded columns covering ``m`` random >= rows."""
    lp = LinearProgram()
    for j in range(n):
        lp.add_var(f"y{j}", upper=1.0)
    lp.set_objective({j: float(rng.randint(1, 9)) for j in range(n)})
    for i in range(m):
        lp.add_constraint({j: float(rng.randint(0, 4)) for j in range(n)}, ">=",
                          float(rng.randint(5, 15)), name=f"cover{i}")
    return lp


class TestSimplex:
    def test_single_binding_constraint(self):
        sol = simplex_solve(single_var_lp())
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(3.0)
        assert sol.values[0] == pytest.approx(3.0)

    @pytest.mark.parametrize("column", [-1, 3])
    def test_undeclared_objective_column_rejected(self, column):
        """A cost on a column the program lacks raises ``ValueError``, as a
        row entry on one does; the program keeps its objective."""
        lp = single_var_lp()
        with pytest.raises(ValueError, match="undeclared variable"):
            lp.set_objective({0: 1.0, column: 5.0})
        with pytest.raises(ValueError, match="undeclared variable"):
            lp.add_constraint({0: 1.0, column: 5.0}, "<=", 9.0)
        assert lp.objective == {0: 1.0}
        assert simplex_solve(lp).objective == pytest.approx(3.0)

    @pytest.mark.parametrize("where", ["objective", "row", "new row"])
    def test_index_written_past_the_checks_rejected(self, where):
        """``x >= 2`` at cost 1, with a cost on column -1, an entry of its
        row in column n (the row's logical) or a new row's entry in column
        -1 written straight into the public dicts: the solve raises
        ``ValueError`` naming the index, cold and when the entry is
        appended with a new column after a solve and the solve restarts
        from its basis."""
        def spoil(lp):
            if where == "objective":
                lp.objective[-1] = 5.0
                return -1
            if where == "new row":
                lp.add_constraint({0: 1.0}, "<=", 9.0)
                lp.constraints[-1].coeffs[-1] = 1.0
                return -1
            j = len(lp.variables)
            lp.constraints[0].coeffs[j] = 3.0
            return j

        lp = LinearProgram()
        x = lp.add_var("x")
        lp.add_constraint({x: 1.0}, ">=", 2.0, name="floor")
        lp.set_objective({x: 1.0})
        sol = simplex_solve(lp)
        assert sol.objective == pytest.approx(2.0)
        y = lp.add_var("y")
        lp.objective[y] = 1.0
        lp.constraints[0].coeffs[y] = 1.0
        j = spoil(lp)
        with pytest.raises(ValueError, match=f"undeclared variable {j}$"):
            simplex_solve(lp, start=sol.basis)
        with pytest.raises(ValueError, match=f"undeclared variable {j}$"):
            simplex_solve(lp)

    def test_split_indifferent(self):
        lp = LinearProgram()
        x1, x2 = lp.add_var("x1"), lp.add_var("x2")
        lp.add_constraint({x1: 1.0, x2: 1.0}, ">=", 2.0)
        lp.set_objective({x1: 1.0, x2: 1.0})
        sol = simplex_solve(lp)
        assert sol.objective == pytest.approx(2.0)

    def test_infeasible_names_rows(self):
        lp = LinearProgram()
        x = lp.add_var("x")
        lp.add_constraint({x: 1.0}, "<=", 1.0, name="cap")
        lp.add_constraint({x: 1.0}, ">=", 2.0, name="need")
        lp.set_objective({x: 1.0})
        sol = simplex_solve(lp)
        assert sol.status == "Infeasible"
        assert "need" in sol.certificate and "cap" in sol.certificate

    def test_unbounded(self):
        lp = LinearProgram()
        x = lp.add_var("x")
        lp.add_constraint({x: 1.0}, ">=", 0.0)
        lp.set_objective({x: -1.0})
        assert simplex_solve(lp).status == "Unbounded"

    def test_nan_rejected(self):
        lp = LinearProgram()
        x = lp.add_var("x")
        lp.add_constraint({x: math.nan}, "<=", 1.0)
        lp.set_objective({x: 1.0})
        with pytest.raises(MalformedProgram):
            simplex_solve(lp)

    @pytest.mark.parametrize("upper", [None, math.inf])
    def test_no_upper_bound(self, upper):
        lp = LinearProgram()
        x = lp.add_var("x", upper=upper)
        lp.add_constraint({x: 1.0}, ">=", 0.0)
        lp.set_objective({x: -1.0})
        assert lp.bounds()[1][x] == math.inf
        assert simplex_solve(lp).status == "Unbounded"

    @pytest.mark.parametrize("upper", [math.nan, -math.inf])
    def test_nan_or_minus_inf_upper_bound_rejected(self, upper):
        lp = LinearProgram()
        with pytest.raises(ValueError, match="upper bound of 'x'"):
            lp.add_var("x", upper=upper)
        assert lp.variables == []

    def test_upper_bound_respected(self):
        lp = LinearProgram()
        x = lp.add_var("x", upper=2.0)
        lp.add_constraint({x: 1.0}, ">=", 0.0)
        lp.set_objective({x: -1.0})
        sol = simplex_solve(lp)
        assert sol.status == "Optimal"
        assert sol.values[0] == pytest.approx(2.0)

    def test_reduced_cost_certificate(self):
        sol = simplex_solve(single_var_lp())
        assert (sol.reduced_costs >= -1e-9).all()

    def test_certificate_names_upper_bound(self):
        lp = LinearProgram()
        x = lp.add_var("x", upper=1.0)
        lp.add_constraint({x: 1.0}, ">=", 2.0, name="need")
        lp.set_objective({x: 1.0})
        sol = simplex_solve(lp)
        assert sol.status == "Infeasible"
        assert sol.certificate == ["bound[x]", "need"]

    def test_warm_certificate_names_upper_bound(self):
        lp = LinearProgram()
        x = lp.add_var("x", upper=3.0)
        lp.add_constraint({x: 1.0}, ">=", 2.0, name="need")
        lp.set_objective({x: 1.0})
        lower, upper = lp.bounds()
        upper[x] = 1.0
        sol = simplex_solve(lp, lower, upper, simplex_solve(lp).basis)
        assert sol.status == "Infeasible"
        assert sol.certificate == ["bound[x]", "need"]

    def test_crossed_bounds_named(self):
        lp = single_var_lp()
        sol = simplex_solve(lp, np.array([2.0]), np.array([1.0]))
        assert sol.status == "Infeasible" and sol.certificate == ["bound[x]"]

    def test_program_without_rows(self):
        """No rows, so no basic values: columns flip to a bound or leave
        the program unbounded."""
        lp = LinearProgram()
        x, y = lp.add_var("x", upper=2.0), lp.add_var("y")
        lp.set_objective({x: -1.0, y: 1.0})
        sol = simplex_solve(lp)
        assert sol.status == "Optimal" and sol.values.tolist() == [2.0, 0.0]
        assert sol.iterations == 1 and sol.duals.size == 0
        lp.set_objective({y: -1.0})
        assert simplex_solve(lp).status == "Unbounded"

    def test_restart_at_lifted_upper_bound(self):
        """A column nonbasic at its upper bound 1, restarted with that
        bound lifted to +inf, starts at its lower bound: the restart
        finds the program unbounded, as the cold solve does."""
        lp = LinearProgram()
        x, y = lp.add_var("x", upper=1.0), lp.add_var("y")
        lp.add_constraint({x: 1.0, y: 1.0}, ">=", 0.5, name="floor")
        lp.set_objective({x: -1.0, y: 1.0})
        sol = simplex_solve(lp)
        assert sol.status == "Optimal" and sol.basis.at_upper[x]
        lower, upper = lp.bounds()
        upper[x] = math.inf
        assert simplex_solve(lp, lower, upper).status == "Unbounded"
        assert simplex_solve(lp, lower, upper, sol.basis).status == "Unbounded"

    @pytest.mark.parametrize("lower, upper, message", [
        ([math.nan, 0.0], [1.0, 1.0], "lower bound of 'x' must be a finite number, not nan"),
        ([-math.inf, 0.0], [1.0, 1.0], "lower bound of 'x' must be a finite number, not -inf"),
        ([0.0, math.inf], [1.0, math.inf], "lower bound of 'y' must be a finite number, not inf"),
        ([0.0, 0.0], [1.0, math.nan], r"upper bound of 'y' must be a number or \+inf, not nan"),
        ([0.0, 0.0], [-math.inf, 1.0], r"upper bound of 'x' must be a number or \+inf, not -inf"),
    ])
    def test_bad_bounds_rejected(self, lower, upper, message):
        """A NaN bound, a lower bound that is not finite or an upper bound
        of -inf raises, cold or restarted, where it used to solve to
        NaN or infinite values."""
        lp = LinearProgram()
        x, y = lp.add_var("x", upper=1.0), lp.add_var("y", upper=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "<=", 3.0, name="cap")
        lp.set_objective({x: 1.0, y: 1.0})
        start = simplex_solve(lp).basis
        for basis in (None, start):
            with pytest.raises(ValueError, match=message):
                simplex_solve(lp, np.array(lower), np.array(upper), basis)

    def test_dependent_equality_rows_consistent(self):
        """A row twice another: one of their logicals stays basic at 0."""
        lp = LinearProgram()
        x, y = lp.add_var("x"), lp.add_var("y")
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0, name="once")
        lp.add_constraint({x: 2.0, y: 2.0}, "=", 4.0, name="twice")
        lp.set_objective({x: 1.0, y: 2.0})
        sol = simplex_solve(lp)
        ref = linprog([1, 2], A_eq=[[1, 1], [2, 2]], b_eq=[2, 4], method="highs")
        assert_matches_highs(sol, ref)
        assert sol.values.tolist() == [2.0, 0.0]

    def test_dependent_equality_rows_contradictory(self):
        lp = LinearProgram()
        x, y = lp.add_var("x"), lp.add_var("y")
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 2.0, name="two")
        lp.add_constraint({x: 1.0, y: 1.0}, "=", 3.0, name="three")
        lp.set_objective({x: 1.0, y: 1.0})
        sol = simplex_solve(lp)
        assert sol.status == "Infeasible"
        assert sorted(sol.certificate) == ["three", "two"]

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_scipy_on_random_programs(self, seed):
        lp, ref_args = random_program(random.Random(seed))
        assert_matches_highs(simplex_solve(lp), linprog(**ref_args, method="highs"))

    @pytest.mark.parametrize("seed", range(150))
    def test_matches_scipy_with_upper_bounds(self, seed):
        """Finite and zero-width upper bounds, negative right-hand sides."""
        lp, ref_args = random_program(random.Random(500 + seed), bounded=True)
        assert_matches_highs(simplex_solve(lp), linprog(**ref_args, method="highs"))

    @pytest.mark.parametrize("seed", range(60))
    def test_warm_resolve_matches_scipy(self, seed):
        """From an optimal basis, each column with a positive value is cut
        to half that value, or raised above it, and re-solved warm."""
        rng = random.Random(700 + seed)
        sol = None
        while sol is None or sol.status != "Optimal":
            lp, ref_args = random_program(rng, bounded=True)
            sol = simplex_solve(lp)
        for j in np.nonzero(sol.values > 1e-6)[0]:
            lower, upper = lp.bounds()
            value = sol.values[j]
            for lo, hi in ((0.0, value / 2), (value + 0.5, upper[j])):
                if lo > hi:
                    continue
                lower[j], upper[j] = lo, hi
                bounds = list(ref_args["bounds"])
                bounds[j] = (lo, None if hi == math.inf else hi)
                ref = linprog(**dict(ref_args, bounds=bounds), method="highs")
                assert_matches_highs(simplex_solve(lp, lower, upper, sol.basis), ref)

    def test_warm_resolve_takes_fewer_pivots(self):
        """Both children of a fractional column: re-solved from the
        parent's basis, each takes fewer pivots than solved cold."""
        lp = covering_program(random.Random(7))
        root = simplex_solve(lp)
        j = next(j for j, v in enumerate(root.values) if 1e-6 < v < 1 - 1e-6)
        for side in (0, 1):
            lower, upper = lp.bounds()
            (upper if side == 0 else lower)[j] = side
            warm = simplex_solve(lp, lower, upper, root.basis)
            cold = simplex_solve(lp, lower, upper)
            assert warm.status == cold.status == "Optimal"
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert warm.iterations < cold.iterations


class TestDuals:
    @pytest.mark.parametrize("seed", range(80))
    def test_duals_certify_the_optimum(self, seed):
        """On seeded programs with =, <= and >= rows and upper bounds,
        the duals of the rows as posed are dual feasible and
        complementary to the optimum within 1e-7, and price it at the
        ``linprog`` (HiGHS) objective."""
        rng = random.Random(900 + seed)
        sol = None
        while sol is None or sol.status != "Optimal":
            lp, ref_args = random_program(rng, bounded=True)
            sol = simplex_solve(lp)
        n = len(lp.variables)
        a = np.array([[con.coeffs.get(j, 0.0) for j in range(n)] for con in lp.constraints])
        b = np.array([con.rhs for con in lp.constraints])
        relation = [con.relation for con in lp.constraints]
        c = np.array([lp.objective.get(j, 0.0) for j in range(n)])
        y, x, upper = sol.duals, sol.values, lp.bounds()[1]
        assert y.shape == (len(lp.constraints),)
        for i, rel in enumerate(relation):
            if rel == "<=":
                assert y[i] <= 1e-7
            elif rel == ">=":
                assert y[i] >= -1e-7
            assert y[i] * (a[i] @ x - b[i]) == pytest.approx(0.0, abs=1e-7)
        red = c - y @ a
        assert red == pytest.approx(sol.reduced_costs, abs=1e-7)
        for j in range(n):
            if x[j] < upper[j] - 1e-7:  # off its upper bound: may not gain by rising
                assert red[j] >= -1e-7
            if x[j] > 1e-7:  # off zero: may not gain by falling
                assert red[j] <= 1e-7
        finite = np.isfinite(upper)
        dual_objective = b @ y + upper[finite] @ np.minimum(red[finite], 0.0)
        ref = linprog(**ref_args, method="highs")
        assert dual_objective == pytest.approx(ref.fun, abs=1e-7)
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7)


class TestAppendedRestart:
    def test_appended_column_and_row_fewer_pivots(self):
        """A column priced below zero by the duals and a row over it and
        old columns that cuts off the old optimum, appended to a solved
        program: re-solved from the old basis, the grown program reaches
        its cold optimum (and HiGHS's) in fewer pivots."""
        lp = covering_program(random.Random(7))
        sol = simplex_solve(lp)
        rows = {i: 3.0 for i in range(len(lp.constraints))}
        price = sum(sol.duals[i] * v for i, v in rows.items())
        j = lp.add_var("new", upper=1.0)
        lp.objective[j] = price - 2.0  # reduced cost -2
        for i, v in rows.items():
            lp.constraints[i].coeffs[j] = v
        used = [i for i in range(j) if sol.values[i] > 1e-6][:3]
        lp.add_constraint({**dict.fromkeys(used, 1.0), j: 1.0}, "<=",
                          sum(sol.values[used]) - 0.5, name="joint")
        warm = simplex_solve(lp, start=sol.basis)
        cold = simplex_solve(lp)
        assert warm.status == cold.status == "Optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.objective == pytest.approx(highs(lp).fun, abs=1e-7)
        assert warm.objective < sol.objective - 1e-9
        assert warm.iterations < cold.iterations

    @pytest.mark.parametrize("seed", range(40))
    def test_continues_from_infeasible_basis(self, seed):
        """An infeasible program keeps its final basis; columns that
        can move every row either way, appended with a high cost, make
        it feasible, and the solve continues from that basis to the
        ``linprog`` optimum of the grown program."""
        rng = random.Random(1300 + seed)
        sol = None
        while sol is None or sol.status != "Infeasible" or sol.basis is None:
            lp, _ = random_program(rng, bounded=True)
            sol = simplex_solve(lp)
        m = len(lp.constraints)
        for i in range(m):
            for sign in (1.0, -1.0):
                j = lp.add_var(f"fix{i}{sign:+.0f}")
                lp.objective[j] = 50.0
                lp.constraints[i].coeffs[j] = sign
        grown = simplex_solve(lp, start=sol.basis)
        assert_matches_highs(grown, highs(lp))
        assert grown.status == "Optimal"

    @staticmethod
    def append_columns_and_rows(lp, rng):
        """Random columns with coefficients in some old rows, then random
        rows over old and new columns."""
        n, m = len(lp.variables), len(lp.constraints)
        for j in range(n, n + rng.randint(0, 4)):
            lp.add_var(f"new{j}", upper=rng.choice((None, 1.0)))
            lp.objective[j] = float(rng.randint(-3, 6))
            for i in rng.sample(range(m), rng.randint(0, m)):
                lp.constraints[i].coeffs[j] = float(rng.randint(-3, 5))
        for i in range(rng.randint(0, 3)):
            cols = rng.sample(range(len(lp.variables)), 2)
            lp.add_constraint({j: float(rng.randint(-3, 5)) for j in cols},
                              rng.choice(["<=", ">=", "="]), float(rng.randint(-2, 9)),
                              name=f"new_row{i}")

    @pytest.mark.parametrize("seed", range(40))
    def test_grown_form_equals_fresh_form(self, seed):
        """The standard form grown from an earlier one equals the form built
        cold, array for array, after columns and rows are
        appended once and again; the matrix equals [sign * rows, I] read
        entry by entry."""
        rng = random.Random(1700 + seed)
        lp, _ = random_program(rng, bounded=True)
        form = lp_module._StandardForm(lp)
        for _ in range(2):
            self.append_columns_and_rows(lp, rng)
            grown = lp_module._StandardForm(lp, form)
            form = lp_module._StandardForm(lp)
            n, m = len(lp.variables), len(lp.constraints)
            dense = np.hstack([np.array([[(-1.0 if con.relation == ">=" else 1.0)
                                          * con.coeffs.get(j, 0.0) for j in range(n)]
                                         for con in lp.constraints]).reshape(m, n),
                               np.eye(m)])
            assert np.array_equal(form.A, dense)
            for attr in ("A", "b", "sign", "logical_upper", "cost"):
                assert np.array_equal(getattr(grown, attr), getattr(form, attr)), attr
            for attr in ("m", "n", "total", "row_names", "var_names"):
                assert getattr(grown, attr) == getattr(form, attr), attr

    @pytest.mark.parametrize("where", ["old row", "new row", "objective"])
    def test_nan_in_appended_column_rejected(self, where):
        lp = covering_program(random.Random(7))
        sol = simplex_solve(lp)
        j = lp.add_var("new")
        lp.objective[j] = math.nan if where == "objective" else 1.0
        lp.constraints[0].coeffs[j] = math.nan if where == "old row" else 1.0
        lp.add_constraint({j: math.nan if where == "new row" else 1.0}, "<=", 1.0)
        with pytest.raises(MalformedProgram):
            simplex_solve(lp, start=sol.basis)

    def test_start_from_a_larger_program_rejected(self):
        lp = covering_program(random.Random(7))
        big = simplex_solve(lp)
        small = covering_program(random.Random(7), m=11)
        with pytest.raises(ValueError, match="start basis"):
            simplex_solve(small, start=big.basis)


class TestStartBasis:
    @staticmethod
    def program():
        """x and y share one column, z has no entry in row ``two``."""
        lp = LinearProgram()
        x, y, z = (lp.add_var(name) for name in "xyz")
        lp.add_constraint({x: 1.0, y: 1.0, z: 2.0}, "=", 4.0, name="one")
        lp.add_constraint({x: 1.0, y: 1.0}, ">=", 1.0, name="two")
        lp.set_objective({x: 1.0, y: 2.0, z: 1.0})
        return lp

    @pytest.mark.parametrize("columns, reason", [
        ({0: 0, 1: 0}, "given twice"),
        ({0: 3}, "logical"),
        ({1: 4}, "logical"),
        ({2: 0}, "out of range"),
        ({0: 5}, "out of range"),
        ({0: 0, 1: 1}, "zero pivot"),  # x and y are the same column
        ({1: 2}, "zero pivot"),  # z has no entry in row two
    ])
    def test_rejects(self, columns, reason):
        with pytest.raises(ValueError, match=reason):
            lp_module.Basis.of(self.program(), columns)

    def test_given_columns_are_basic(self):
        """Each given column is basic in its row, every other row keeps
        its logical, and the inverse is exact for +-1 pivots."""
        lp = self.program()
        basis = lp_module.Basis.of(lp, {1: 0, 0: 2})
        assert basis.columns.tolist() == [2, 0]
        assert not basis.at_upper.any()
        form = basis.form
        assert np.array_equal(basis.inverse @ form.A[:, basis.columns], np.eye(2))
        assert lp_module.Basis.of(lp, {}).columns.tolist() == [3, 4]
        sol = simplex_solve(lp, start=basis)
        assert sol.status == "Optimal" and sol.objective == pytest.approx(2.5)

    @staticmethod
    def start_of(lp, sol):
        """The structural columns of ``sol``'s basis, each given the first
        row still on its logical, and whose logical is not basic in that
        basis, where the column's direction is nonzero."""
        form = sol.basis.form
        free = sorted(set(range(form.m)) - {int(c) - form.n for c in sol.basis.columns
                                            if c >= form.n})
        start = {}
        for col in (int(c) for c in sol.basis.columns if c < form.n):
            direction = lp_module.Basis.of(lp, start).inverse @ form.A[:, col]
            row = next(i for i in free if abs(direction[i]) > 1e-9)
            free.remove(row)
            start[row] = col
        return start

    @pytest.mark.parametrize("seed", range(40))
    def test_inverse_in_any_order(self, seed):
        """The columns of an optimal basis, given in a shuffled order so
        that some column has an entry in a row given after its own (a
        pivot), still give the inverse of the basis."""
        rng = random.Random(seed)
        lp = random_program(rng)[0] if seed % 2 else covering_program(rng)
        sol = simplex_solve(lp)
        if sol.status != "Optimal":
            return
        items = list(self.start_of(lp, sol).items())
        rng.shuffle(items)
        try:
            basis = lp_module.Basis.of(lp, dict(items))
        except ValueError as exc:  # that order can meet a zero pivot
            assert "zero pivot" in str(exc)
            return
        form = basis.form
        assert np.allclose(basis.inverse @ form.A[:, basis.columns], np.eye(form.m),
                           rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_optimal_basis_resolves_in_zero_pivots(self, seed):
        """The columns of an optimal solve's own basis, given to
        ``Basis.of``, re-solve in 0 pivots to the same objective."""
        rng = random.Random(seed)
        lp = random_program(rng)[0] if seed % 2 else covering_program(rng)
        if seed % 2 == 0:  # no column at its upper bound
            lp.variables = [lp_module.Variable(v.name) for v in lp.variables]
        sol = simplex_solve(lp)
        if sol.status != "Optimal":
            return
        again = simplex_solve(lp, start=lp_module.Basis.of(lp, self.start_of(lp, sol)))
        assert again.status == "Optimal" and again.iterations == 0
        assert again.objective == pytest.approx(sol.objective, rel=1e-12, abs=1e-12)


def assert_tableau_kept(tab):
    """The bookkeeping a tableau keeps across pivots equals what it
    stands for."""
    assert np.array_equal(tab.lower_b, tab.lower[tab.basis])
    assert np.array_equal(tab.upper_b, tab.upper[tab.basis])
    assert np.array_equal(tab.side, np.where(tab.at_upper, -1.0, 1.0))
    assert np.array_equal(tab.blocked, tab.upper <= tab.lower)
    movable = ~tab.blocked
    movable[tab.basis] = False
    assert np.array_equal(tab.movable, movable)


class TestTableauInvariants:
    @pytest.fixture
    def steps(self, monkeypatch):
        """Checks the tableau when a run starts and after each pivot and
        bound flip, and counts the pivots and flips."""
        counts = {"_pivot": 0, "_flip": 0}

        def checked(name):
            original = getattr(lp_module._Tableau, name)

            def step(tab, *args, **kwargs):
                if name in counts:
                    counts[name] += 1
                else:
                    assert_tableau_kept(tab)
                result = original(tab, *args, **kwargs)
                assert_tableau_kept(tab)
                return result
            return step

        for name in ("_pivot", "_flip", "dual_run", "run"):
            monkeypatch.setattr(lp_module._Tableau, name, checked(name))
        return counts

    def test_kept_arrays_follow_every_step(self, steps):
        """Seeded random bounded programs solved cold, from
        ``Basis.of``, restarted with a narrowed bound as branch and bound
        does, and restarted after columns and rows were appended."""
        for seed in range(80):
            rng = random.Random(2100 + seed)
            lp, _ = random_program(rng, bounded=True)
            sol = simplex_solve(lp)
            if sol.status == "Optimal":
                simplex_solve(lp, start=lp_module.Basis.of(lp, TestStartBasis.start_of(lp, sol)))
                for j in np.nonzero(sol.values > 1e-6)[0]:
                    for side in (0, 1):
                        lower, upper = lp.bounds()
                        if side:
                            lower[j] = min(upper[j], math.floor(sol.values[j]) + 1.0)
                        else:
                            upper[j] = math.floor(sol.values[j] / 2)
                        simplex_solve(lp, lower, upper, sol.basis)
            if sol.basis is not None:
                TestAppendedRestart.append_columns_and_rows(lp, rng)
                simplex_solve(lp, start=sol.basis)
        assert steps["_pivot"] > 200 and steps["_flip"] > 10


class TestRowRestrictedPivot:
    @staticmethod
    def sparse_program(rng):
        """A bounded program of 70-120 rows and as many columns, each row
        over 3 of them, which a point in the bounds satisfies unless the
        rows are ``tight``: a basis past ``SPARSE_PIVOT_ROWS`` rows whose
        pivots move few of them."""
        m = rng.randint(70, 120)
        lp = LinearProgram()
        point = []
        for j in range(m):
            upper = rng.choice((1.0, 4.0))
            lp.add_var(f"x{j}", upper=upper)
            point.append(rng.choice((0.0, upper / 2, upper)))
        lp.set_objective({j: float(rng.randint(-4, 6)) for j in range(m)})
        tight = rng.random() < 0.25
        for i in range(m):
            coeffs = {j: float(rng.choice((-2, -1, 1, 1, 3))) for j in rng.sample(range(m), 3)}
            at = sum(v * point[j] for j, v in coeffs.items())
            relation = rng.choice(("<=", "<=", ">=", "="))
            slack = float(rng.randint(0, 3)) - (2.0 if tight else 0.0)
            rhs = {"<=": at + slack, ">=": at - slack, "=": at}[relation]
            lp.add_constraint(coeffs, relation, rhs, name=f"r{i}")
        return lp

    def test_same_solve_as_dense(self, monkeypatch):
        """Solved with the update forced dense, every program takes the
        same pivots to the same status, objective, values, duals and
        certificate; most pivots on these bases are row-restricted."""
        restricted = []
        pivot = lp_module._Tableau._pivot

        def counted(tab, row, col, direction, *args, **kwargs):
            restricted.append(len(direction) > lp_module.SPARSE_PIVOT_ROWS
                              and 4 * (np.count_nonzero(direction) - 1) < len(direction))
            pivot(tab, row, col, direction, *args, **kwargs)

        monkeypatch.setattr(lp_module._Tableau, "_pivot", counted)
        programs = [self.sparse_program(random.Random(3300 + seed)) for seed in range(12)]
        sparse = [simplex_solve(lp) for lp in programs]
        assert sum(restricted) > len(restricted) / 2
        monkeypatch.setattr(lp_module, "SPARSE_PIVOT_ROWS", 10 ** 9)
        for lp, a in zip(programs, sparse):
            b = simplex_solve(lp)
            assert (a.status, a.iterations, a.objective) == (b.status, b.iterations, b.objective)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.duals, b.duals)
            assert a.certificate == b.certificate
        assert {sol.status for sol in sparse} == {"Optimal", "Infeasible"}


class TestBranchAndBound:
    def test_rounding_forced(self):
        lp = LinearProgram()
        y1 = lp.add_var("y1", upper=1.0, integer=True)
        y2 = lp.add_var("y2", upper=1.0, integer=True)
        lp.add_constraint({y1: 1.0, y2: 1.0}, ">=", 1.5)
        lp.set_objective({y1: 1.0, y2: 1.0})
        sol = branch_and_bound(lp)
        assert sol.objective == pytest.approx(2.0)

    def test_integral_relaxation_unchanged(self):
        lp = LinearProgram()
        x = lp.add_var("x", integer=True)
        lp.add_constraint({x: 1.0}, ">=", 3.0)
        lp.set_objective({x: 1.0})
        relax = simplex_solve(lp)
        sol = branch_and_bound(lp)
        assert sol.objective == pytest.approx(relax.objective)
        assert sol.values[0] == pytest.approx(3.0)

    def test_requires_integer_variable(self):
        with pytest.raises(ValueError):
            branch_and_bound(single_var_lp())

    def test_integral_root_solved_once(self, monkeypatch):
        lp = LinearProgram()
        x = lp.add_var("x", integer=True)
        lp.add_constraint({x: 1.0}, ">=", 3.0)
        lp.set_objective({x: 1.0})
        calls = []

        def counted(program, *args, **kwargs):
            calls.append(program)
            return simplex_solve(program, *args, **kwargs)

        monkeypatch.setattr(lp_module, "simplex_solve", counted)
        sol = branch_and_bound(lp)
        assert sol.status == "Optimal" and sol.values[0] == pytest.approx(3.0)
        assert len(calls) == 1

    def test_given_root_not_solved_again(self, monkeypatch):
        lp = LinearProgram()
        x = lp.add_var("x", integer=True)
        lp.add_constraint({x: 1.0}, ">=", 3.0)
        lp.set_objective({x: 1.0})
        root = simplex_solve(lp)
        calls = []

        def counted(program, *args, **kwargs):
            calls.append(program)
            return simplex_solve(program, *args, **kwargs)

        monkeypatch.setattr(lp_module, "simplex_solve", counted)
        sol = branch_and_bound(lp, root=root)
        assert sol.status == "Optimal" and sol.values[0] == pytest.approx(3.0)
        assert calls == []

    @pytest.mark.parametrize("coeff, rhs", [(2.0, 3.0), (1.0, 2.0)])
    def test_root_solved_before_the_program_grew(self, coeff, rhs):
        """Integer x at cost 1 with ``coeff * x >= rhs``, solved, then y at
        cost 0.1 appended to that row: the stale root, fractional (2x >=
        3) or integral (x >= 2), is solved again from its basis, and the
        search ends where a search from scratch does (y = 3 or 2)."""
        def program():
            lp = LinearProgram()
            x = lp.add_var("x", integer=True)
            lp.add_constraint({x: coeff}, ">=", rhs, name="need")
            lp.set_objective({x: 1.0})
            return lp

        def grown(lp):
            y = lp.add_var("y")
            lp.objective[y] = 0.1
            lp.constraints[0].coeffs[y] = 1.0
            return lp

        lp = program()
        root = simplex_solve(lp)
        sol = branch_and_bound(grown(lp), root=root)
        cold = branch_and_bound(grown(program()))
        assert sol.status == cold.status == "Optimal"
        assert sol.objective == pytest.approx(cold.objective) == pytest.approx(0.1 * rhs)
        assert sol.values.tolist() == cold.values.tolist()
        assert sol.iterations > root.iterations

    def test_infeasible_root_keeps_certificate(self):
        lp = LinearProgram()
        x = lp.add_var("x", integer=True)
        lp.add_constraint({x: 1.0}, "<=", 1.0, name="cap")
        lp.add_constraint({x: 1.0}, ">=", 2.0, name="need")
        lp.set_objective({x: 1.0})
        sol = branch_and_bound(lp)
        assert sol.status == "Infeasible"
        assert sorted(sol.certificate) == ["cap", "need"]

    def test_bound_dominates_relaxation(self):
        lp = LinearProgram()
        y = [lp.add_var(f"y{j}", upper=1.0, integer=True) for j in range(3)]
        lp.add_constraint({y[0]: 2.0, y[1]: 3.0, y[2]: 4.0}, ">=", 5.0)
        lp.set_objective({y[0]: 3.0, y[1]: 4.0, y[2]: 6.0})
        relax = simplex_solve(lp)
        sol = branch_and_bound(lp)
        assert sol.objective >= relax.objective - 1e-9

    def test_first_optimum_reached_is_kept(self):
        # fractional relaxation (y1 = 0.5) forces branching on y1; its up
        # branch reaches (1, 0) first, and the tied (0, 1) under its down
        # branch is pruned, not solved to replace it
        lp = LinearProgram()
        y1 = lp.add_var("y1", upper=1.0, integer=True)
        y2 = lp.add_var("y2", upper=1.0, integer=True)
        lp.add_constraint({y1: 2.0, y2: 2.0}, ">=", 1.0)
        lp.set_objective({y1: 1.0, y2: 1.0})
        sol = branch_and_bound(lp)
        assert sol.objective == pytest.approx(1.0)
        assert tuple(np.round(sol.values)) == (1.0, 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scipy_milp_on_random_binaries(self, seed):
        from scipy.optimize import milp, LinearConstraint, Bounds
        rng = random.Random(1000 + seed)
        n = rng.randint(2, 5)
        lp = LinearProgram()
        for j in range(n):
            lp.add_var(f"y{j}", upper=1.0, integer=True)
        c = [rng.randint(1, 9) for _ in range(n)]
        lp.set_objective({j: float(c[j]) for j in range(n)})
        rows = []
        rhs = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(0, 4) for _ in range(n)]
            bound = rng.randint(1, 6)
            lp.add_constraint({j: float(coeffs[j]) for j in range(n)}, ">=",
                              float(bound))
            rows.append(coeffs)
            rhs.append(bound)
        ref = milp(c, constraints=LinearConstraint(rows, lb=rhs),
                   integrality=np.ones(n), bounds=Bounds(0, 1))
        sol = branch_and_bound(lp)
        if ref.status == 2:  # infeasible
            assert sol.status == "Infeasible"
        else:
            assert sol.status == "Optimal"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-7)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scipy_milp_on_general_integers(self, seed):
        """Integers with upper bounds 2-4, costs of either sign, and
        covering and packing rows."""
        from scipy.optimize import milp, LinearConstraint, Bounds
        rng = random.Random(4000 + seed)
        n = rng.randint(2, 5)
        uppers = [rng.randint(2, 4) for _ in range(n)]
        lp = LinearProgram()
        for j in range(n):
            lp.add_var(f"z{j}", upper=float(uppers[j]), integer=True)
        c = [rng.randint(-4, 9) for _ in range(n)]
        lp.set_objective({j: float(c[j]) for j in range(n)})
        rows, lb, ub = [], [], []
        for _ in range(rng.randint(1, 4)):
            coeffs = [rng.randint(-2, 5) for _ in range(n)]
            rhs = rng.randint(1, 11)
            rel = rng.choice([">=", "<="])
            lp.add_constraint({j: float(coeffs[j]) for j in range(n)}, rel, float(rhs))
            rows.append(coeffs)
            lb.append(rhs if rel == ">=" else -np.inf)
            ub.append(np.inf if rel == ">=" else rhs)
        ref = milp(c, constraints=LinearConstraint(rows, lb=lb, ub=ub),
                   integrality=np.ones(n), bounds=Bounds(0, uppers))
        sol = branch_and_bound(lp)
        if ref.status == 2:  # infeasible
            assert sol.status == "Infeasible"
        else:
            assert sol.status == "Optimal"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-7)
            assert np.array_equal(sol.values, np.round(sol.values))


def milp_reference(lp):
    """scipy's HiGHS ``milp`` result for ``lp`` as posed."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    n = len(lp.variables)
    rows = np.zeros((len(lp.constraints), n))
    lb, ub = [], []
    for i, con in enumerate(lp.constraints):
        for j, c in con.coeffs.items():
            rows[i, j] = c
        lb.append(-np.inf if con.relation == "<=" else con.rhs)
        ub.append(np.inf if con.relation == ">=" else con.rhs)
    cost = np.zeros(n)
    for j, c in lp.objective.items():
        cost[j] = c
    lower, upper = lp.bounds()
    integrality = np.array([v.integer for v in lp.variables], dtype=int)
    constraints = LinearConstraint(rows, lb, ub) if lp.constraints else ()
    return milp(cost, constraints=constraints, integrality=integrality,
                bounds=Bounds(lower, upper))


def mixed_binary_program(rng):
    """A random bounded program (``random_program``) whose first column
    is a 0/1 integer, and each other with probability 1/2, or a binary covering
    program (``covering_program``) over 8-14 columns; every column
    has an upper bound."""
    if rng.random() < 0.5:
        lp = covering_program(rng, n=rng.randint(8, 14), m=rng.randint(3, 6))
        for v in lp.variables:
            v.integer = True
        return lp
    lp, _ = random_program(rng, bounded=True)
    for j, v in enumerate(lp.variables):
        if j == 0 or rng.random() < 0.5:
            v.integer, v.upper = True, 1.0
        elif v.upper is None:
            v.upper = 6.0
    return lp


class TestDive:
    STATE = ("basis", "binv", "lower", "upper", "lower_b", "upper_b", "side", "movable",
             "blocked", "at_upper", "xb")

    @pytest.fixture
    def fresh_starts(self, monkeypatch):
        """Checks that every dual run starts bit for bit where a tableau
        built over its basis and bounds would, with the reduced costs it
        is given equal to that tableau's pricing; lists whether each run
        was given them."""
        runs = []
        dual_run = lp_module._Tableau.dual_run

        def checked(tab, cost, max_iter, red=None):
            n = tab.form.n
            fresh = lp_module._Tableau(
                tab.form, tab.lower[:n], tab.upper[:n],
                lp_module.Basis(tab.basis, tab.at_upper, tab.form, tab.binv))
            for name in self.STATE:
                assert getattr(tab, name).tobytes() == getattr(fresh, name).tobytes(), name
            if red is not None:
                assert red.tobytes() == (cost - fresh.duals(cost).dot(fresh.A)).tobytes()
            runs.append(red is not None)
            return dual_run(tab, cost, max_iter, red)

        monkeypatch.setattr(lp_module._Tableau, "dual_run", checked)
        return runs

    def test_random_mixed_binary_programs(self, fresh_starts):
        """Seeded random bounded programs with 0/1 integer columns: each
        node starts fresh, and each search ends at HiGHS's optimum."""
        searched = 0
        for seed in range(100):
            lp = mixed_binary_program(random.Random(7100 + seed))
            sol = branch_and_bound(lp)
            ref = milp_reference(lp)
            assert (sol.status == "Optimal") == (ref.status == 0), seed
            if sol.status == "Optimal":
                # HiGHS accepts an integer column within 1e-6 of an
                # integer, which moves its objective by up to 1e-6 per
                # unit of the column's cost
                assert sol.objective == pytest.approx(ref.fun, abs=1e-5)
            searched += sol.nodes > 0
        assert searched > 20 and sum(fresh_starts) > 100

    def test_priced_searches_start_fresh(self, fresh_starts):
        """With columns and rows appended at nodes, each node, re-solved
        or restored after the program grew, still starts where a tableau
        built over its basis would."""
        for seed in range(30):
            fixed, initial, pool, caps, demand = random_facility(random.Random(7300 + seed))
            lp = facility_program(fixed, initial, demand)
            pricer = PoolPricer(lp, pool, caps)
            assert branch_and_bound(lp, price=pricer).status == "Optimal"
        assert sum(fresh_starts) > 20

    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    def test_bnb04_fixed_charge(self, formulation, fresh_starts, monkeypatch):
        """The fixed-charge programs of ``tests/data/bnb04.json``."""
        data = pathlib.Path(__file__).parent / "data"
        instance = build_redundant_mlg(problem_from_dict(json.loads(
            (data / "bnb04.json").read_text())))
        fixed = json.loads((data / "bnb04.fixed.json").read_text())
        searches = []
        search = design.branch_and_bound

        def recorded(lp, root=None, **kwargs):
            searches.append((lp, search(lp, root, **kwargs)))
            return searches[-1][1]

        monkeypatch.setattr(design, "branch_and_bound", recorded)
        solve_uncapacitated(instance, fixed, formulation=formulation)
        (lp, sol), = searches
        assert sol.nodes > 0 and sum(fresh_starts) > 0
        assert sol.objective == pytest.approx(milp_reference(lp).fun, abs=1e-7)


class PoolPricer:
    """A test pricer over a facility program (:func:`facility_program`):
    of the pool columns (cost, facility) whose reduced cost, or Farkas
    gain, lets them enter, it appends the one that gains most, the first
    of ties.  It skips a facility whose ``y`` has upper bound 0, and opens
    a ``cap[f]`` row with the first pool column of facility f.  It
    records each call as (kind, lower, upper, the column appended or
    None)."""

    def __init__(self, lp, pool, caps):
        self.lp, self.pool, self.caps, self.calls = lp, list(pool), caps, []
        self.rows = {con.name: i for i, con in enumerate(lp.constraints)}

    def __call__(self, kind, multipliers, lower, upper):
        scale = 1.0 if kind == "optimal" else 0.0
        y = dict(zip(self.rows, multipliers.tolist()))
        gains = [(y["demand"] + y[f"coupling[{f}]"] + y.get(f"cap[{f}]", 0.0) - scale * cost,
                  -k) for k, (cost, f) in enumerate(self.pool) if upper[f] > 0]
        best = max(gains, default=(0.0, 0))
        column = self.pool.pop(-best[1]) if best[0] > 1e-9 else None
        if column is not None:
            add_pool_column(self.lp, self.rows, self.caps, *column)
        self.calls.append((kind, lower.copy(), upper.copy(), column))
        return column is not None


def add_pool_column(lp, rows, caps, cost, f):
    if f"cap[{f}]" not in rows:
        rows[f"cap[{f}]"] = len(lp.constraints)
        lp.add_constraint({}, "<=", caps[f], name=f"cap[{f}]")
    j = lp.add_var(f"x[{f},{cost}]")
    lp.objective[j] = float(cost)
    for row in ("demand", f"coupling[{f}]", f"cap[{f}]"):
        lp.constraints[rows[row]].coeffs[j] = 1.0


def facility_program(fixed, initial, demand):
    """Binary ``y[f]`` at fixed cost ``fixed[f]`` (columns 0..F-1), one
    column per (cost, facility) of ``initial``, ``demand`` = the demand
    and ``coupling[f]``: what facility f carries <= 2 * demand * y[f]."""
    lp = LinearProgram()
    for f, cost in enumerate(fixed):
        lp.add_var(f"y[{f}]", upper=1.0, integer=True)
        lp.objective[f] = float(cost)
    lp.add_constraint({}, "=", float(demand), name="demand")
    for f in range(len(fixed)):
        lp.add_constraint({f: -2.0 * demand}, "<=", 0.0, name=f"coupling[{f}]")
    for cost, f in initial:
        j = lp.add_var(f"x[{f},{cost}]")
        lp.objective[j] = float(cost)
        lp.constraints[0].coeffs[j] = lp.constraints[1 + f].coeffs[j] = 1.0
    return lp


def random_facility(rng):
    """(fixed costs, initial columns, pool, capacities, demand): 2-4
    facilities, each with one dear initial column and 1-4 cheaper pool
    columns whose capacity row caps them below the demand."""
    n = rng.randint(2, 4)
    demand = rng.randint(2, 5)
    fixed = [rng.randint(1, 6) for _ in range(n)]
    initial = [(rng.randint(8, 12), f) for f in range(n)]
    pool = sorted({(rng.randint(1, 9), f) for f in range(n) for _ in range(rng.randint(1, 4))})
    caps = [float(rng.randint(1, demand)) for _ in range(n)]
    return fixed, initial, pool, caps, demand


def full_program(fixed, initial, pool, caps, demand):
    """The facility program with every pool column posed from the start."""
    lp = facility_program(fixed, initial, demand)
    rows = {con.name: i for i, con in enumerate(lp.constraints)}
    for cost, f in pool:
        add_pool_column(lp, rows, caps, cost, f)
    return lp


class TestPricing:
    def hand_case(self):
        """Facilities 0 and 1 at fixed cost 5 serve a demand of 2 by
        columns of cost 10; the pool holds one of cost 1 at facility 0
        and one of cost 2 at facility 1.  The root sits at y = (0.5, 0)."""
        lp = facility_program([5, 5], [(10, 0), (10, 1)], 2)
        return lp, PoolPricer(lp, [(1, 0), (2, 1)], [2.0, 2.0])

    def test_column_at_a_node_changes_the_optimum(self):
        """Without pricing the optimum over the first columns is 25.  The
        up child y[0] = 1 is integral; priced there, the cost-1 column
        enters and the optimum is 7, which HiGHS confirms on the program
        the search ends with."""
        lp, pricer = self.hand_case()
        assert branch_and_bound(lp).objective == pytest.approx(25.0)
        lp, pricer = self.hand_case()
        sol = branch_and_bound(lp, price=pricer)
        assert sol.status == "Optimal" and sol.objective == pytest.approx(7.0)
        kind, lower, _upper, column = pricer.calls[0]
        assert (kind, lower[0], column) == ("optimal", 1.0, (1, 0))  # at the up child
        assert sol.objective == pytest.approx(milp_reference(lp).fun)

    def test_values_one_per_final_column(self):
        """The incumbent was found before the cost-2 column entered under
        the down child: its values are padded with 0 for it."""
        lp, pricer = self.hand_case()
        sol = branch_and_bound(lp, price=pricer)
        assert len(lp.variables) == 6 and sol.values.size == 6
        assert sol.values.tolist() == [1.0, 0.0, 0.0, 0.0, 2.0, 0.0]

    def test_down_child_restored_after_growth(self, monkeypatch):
        """The down child y[0] = 0 was saved before its up sibling grew
        the program; restored, it is extended to the grown program and
        priced itself (the cost-2 column enters), and the search ends at
        the cold search's optimum over every column."""
        grown = []
        original = lp_module._Tableau.grow

        def counted(tab, form, lower, upper):
            grown.append((tab.form.n, form.n))
            return original(tab, form, lower, upper)

        monkeypatch.setattr(lp_module._Tableau, "grow", counted)
        lp, pricer = self.hand_case()
        sol = branch_and_bound(lp, price=pricer)
        # the up child grows 4 -> 5, the restored down child is padded 4 -> 5,
        # then grows 5 -> 6 when the cost-2 column enters there
        assert grown == [(4, 5), (4, 5), (5, 6)]
        cold = branch_and_bound(full_program([5, 5], [(10, 0), (10, 1)], [(1, 0), (2, 1)],
                                             [2.0, 2.0], 2))
        assert sol.objective == pytest.approx(cold.objective)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_facilities_match_cold_search_and_milp(self, seed):
        """Seeded random facility programs: the priced search ends at the
        optimum of the cold search over every pool column and at HiGHS's,
        with one value per column of the program it ends with."""
        data = random_facility(random.Random(7300 + seed))
        fixed, initial, pool, caps, demand = data
        lp = facility_program(fixed, initial, demand)
        sol = branch_and_bound(lp, price=PoolPricer(lp, pool, caps))
        full = full_program(*data)
        cold = branch_and_bound(full)
        ref = milp_reference(full)
        assert sol.status == cold.status == "Optimal" and ref.status == 0
        assert sol.objective == pytest.approx(cold.objective, abs=1e-7)
        assert sol.objective == pytest.approx(ref.fun, abs=1e-6)
        assert sol.values.size == len(lp.variables)


class TestPricedSolve:
    """``simplex_solve(lp, ..., price=...)``: column generation over the
    facility programs of :class:`TestPricing`, their ``y`` continuous."""

    @pytest.mark.parametrize("seed", range(40))
    def test_reaches_the_full_relaxation(self, seed):
        """The priced relaxation reaches the cold solve's objective over
        every pool column, and HiGHS's, with one value per column of the
        program it ends with."""
        data = random_facility(random.Random(7300 + seed))
        fixed, initial, pool, caps, demand = data
        lp = facility_program(fixed, initial, demand)
        sol = simplex_solve(lp, price=PoolPricer(lp, pool, caps))
        full = full_program(*data)
        cold = simplex_solve(full)
        assert sol.status == cold.status == "Optimal"
        assert sol.objective == pytest.approx(cold.objective, abs=1e-9)
        assert sol.objective == pytest.approx(highs(full).fun, abs=1e-7)
        assert sol.values.size == len(lp.variables)

    @pytest.mark.parametrize("seed", range(40))
    def test_infeasible_start_mended_by_farkas_columns(self, seed):
        """With no initial columns the demand row cannot be met: the first
        solve is infeasible, and the columns its Farkas multipliers price
        in reach the status and objective of the cold solve over every
        pool column."""
        fixed, _initial, pool, caps, demand = random_facility(random.Random(7300 + seed))
        lp = facility_program(fixed, [], demand)
        pricer = PoolPricer(lp, pool, caps)
        sol = simplex_solve(lp, price=pricer)
        cold = simplex_solve(full_program(fixed, [], pool, caps, demand))
        assert pricer.calls[0][0] == "infeasible" and pricer.calls[0][3] is not None
        assert sol.status == cold.status
        if cold.status == "Optimal":
            assert sol.objective == pytest.approx(cold.objective, abs=1e-9)
        else:
            assert sol.farkas.size == len(lp.constraints) and sol.certificate

    @pytest.mark.parametrize("seed", range(20))
    def test_iterations_sum_every_round(self, seed):
        """The priced solve takes the pivots of a solve restarted from
        each round's basis after each pricing, summed, and reaches the
        same objective bit for bit."""
        fixed, initial, pool, caps, demand = random_facility(random.Random(7300 + seed))
        lp = facility_program(fixed, initial, demand)
        priced = simplex_solve(lp, price=PoolPricer(lp, pool, caps))
        lp = facility_program(fixed, initial, demand)
        pricer = PoolPricer(lp, pool, caps)
        sol = simplex_solve(lp)
        rounds, total = 1, sol.iterations
        while pricer("optimal", sol.duals, *lp.bounds()):
            sol = simplex_solve(lp, start=sol.basis)
            rounds, total = rounds + 1, total + sol.iterations
        assert rounds == len(pricer.calls) > 1
        assert priced.iterations == total
        assert priced.objective == sol.objective

    def test_pricer_reads_the_given_bounds(self):
        """Given bounds that fix ``y[0]`` at 1 and ``y[1]`` at 0, every
        call reads them, and the posed bounds of each column appended
        since; facility 1's pool column never enters."""
        lp = facility_program([5, 5], [(10, 0), (10, 1)], 2)
        pricer = PoolPricer(lp, [(1, 0), (2, 1)], [2.0, 2.0])
        lower, upper = lp.bounds()
        lower[0], upper[1] = 1.0, 0.0
        sol = simplex_solve(lp, lower.copy(), upper.copy(), price=pricer)
        assert sol.status == "Optimal" and sol.objective == pytest.approx(7.0)
        assert [call[3] for call in pricer.calls] == [(1, 0), None]
        for _kind, seen_lower, seen_upper, _column in pricer.calls:
            assert seen_lower[:lower.size].tolist() == lower.tolist()
            assert seen_upper[:upper.size].tolist() == upper.tolist()
        assert pricer.calls[1][1][lower.size:].tolist() == [0.0]
        assert pricer.calls[1][2][upper.size:].tolist() == [math.inf]


class TestPosedBounds:
    def test_lower_bound_posed(self):
        lp = LinearProgram()
        x = lp.add_var("x", upper=4.0, lower=1.5)
        y = lp.add_var("y")
        lp.add_constraint({x: 1.0, y: 1.0}, ">=", 1.0)
        lp.set_objective({x: 1.0, y: 2.0})
        lower, upper = lp.bounds()
        assert lower.tolist() == [1.5, 0.0] and upper.tolist() == [4.0, math.inf]
        sol = simplex_solve(lp)
        assert sol.status == "Optimal" and sol.values.tolist() == [1.5, 0.0]

    @pytest.mark.parametrize("lower", [math.nan, math.inf, -math.inf])
    def test_non_finite_lower_rejected(self, lower):
        with pytest.raises(ValueError, match="lower bound of 'x'"):
            LinearProgram().add_var("x", lower=lower)


class TestSearchCounts:
    @staticmethod
    def program(integral_objective):
        """The root sits at y1 = 0.5; its up child (1, 0) costs 1, and
        its down child's relaxation (0, 0.5) costs 0.5."""
        lp = LinearProgram()
        y1 = lp.add_var("y1", upper=1.0, integer=True)
        y2 = lp.add_var("y2", upper=1.0, integer=True)
        lp.add_constraint({y1: 2.0, y2: 2.0}, ">=", 1.0)
        lp.set_objective({y1: 1.0, y2: 1.0})
        lp.integral_objective = integral_objective
        return lp

    def test_nodes_counts_node_lps(self):
        """The up child, the down child, the down child's up child (a tie,
        pruned) and its down child (infeasible): four node LPs."""
        sol = branch_and_bound(self.program(False))
        assert sol.nodes == 4
        assert sol.values.tolist() == [1.0, 0.0]

    def test_integral_objective_prunes_on_the_rounded_bound(self):
        """0.5 rounds up to the incumbent's 1, so the down child is not
        branched on; the result is the same."""
        sol = branch_and_bound(self.program(True))
        assert sol.nodes == 2
        assert sol.values.tolist() == [1.0, 0.0] and sol.objective == 1.0
