import math
import random

import numpy as np
import pytest
from scipy.optimize import linprog

import mlgdesign.lp as lp_module
from mlgdesign import LinearProgram, branch_and_bound, simplex_solve
from mlgdesign.errors import MalformedProgram


def single_var_lp():
    lp = LinearProgram()
    x = lp.add_var("x")
    lp.add_constraint({x: 1.0}, ">=", 3.0, name="floor")
    lp.set_objective({x: 1.0})
    return lp


class TestSimplex:
    def test_single_binding_constraint(self):
        sol = simplex_solve(single_var_lp())
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(3.0)
        assert sol.values[0] == pytest.approx(3.0)

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

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_scipy_on_random_programs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        m = rng.randint(2, 6)
        lp = LinearProgram()
        for j in range(n):
            lp.add_var(f"x{j}")
        c = [rng.randint(-5, 8) for _ in range(n)]
        lp.set_objective({j: float(c[j]) for j in range(n)})
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for i in range(m):
            coeffs = [rng.randint(-3, 5) for _ in range(n)]
            rhs = rng.randint(0, 12)
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
        ref = linprog(c, A_ub=a_ub or None, b_ub=b_ub or None,
                      A_eq=a_eq or None, b_eq=b_eq or None,
                      bounds=(0, None), method="highs")
        sol = simplex_solve(lp)
        if ref.status == 3:  # unbounded
            assert sol.status == "Unbounded"
        elif ref.status == 2:  # infeasible
            assert sol.status == "Infeasible"
        else:
            assert sol.status == "Optimal"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-7)


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

    def test_tie_break_smallest_vector(self):
        # fractional relaxation (y1 = 0.5) forces branching, and both
        # integral optima cost 1, so the incumbent tie-break decides
        lp = LinearProgram()
        y1 = lp.add_var("y1", upper=1.0, integer=True)
        y2 = lp.add_var("y2", upper=1.0, integer=True)
        lp.add_constraint({y1: 2.0, y2: 2.0}, ">=", 1.0)
        lp.set_objective({y1: 1.0, y2: 1.0})
        sol = branch_and_bound(lp)
        assert sol.objective == pytest.approx(1.0)
        assert tuple(np.round(sol.values)) == (0.0, 1.0)

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
