"""The integer modes against scipy's HiGHS ``milp`` at sizes past the
brute-force oracle's limits.

The reference models come from ``perfbench/reference.py``, built from
the problem document alone.  Link-path optimizes over the first k
candidate paths per server, a restriction of the problem the reference
solves; at the default k it reaches the same optimum on every instance
here.
"""

import pathlib
import random
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import gen
import reference
from mlgdesign import (InfeasibleError, build_redundant_mlg, solve_capacitated,
                       solve_uncapacitated)
from mlgdesign.cli import problem_from_dict

SIZES = {"8-18": dict(n_sub=8, n_srv=3, n_int=2, n_ch=18, slack=1),
         "12-26": dict(n_sub=12, n_srv=3, n_int=2, n_ch=26, slack=1)}


@pytest.mark.parametrize("formulation", ["node-link", "link-path"])
@pytest.mark.parametrize("mode", ["fixed-charge", "single-homing"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("size", sorted(SIZES))
def test_integer_modes_match_milp(size, seed, mode, formulation):
    doc = gen.big_problem(seed, **SIZES[size])
    instance = build_redundant_mlg(problem_from_dict(doc))
    if mode == "fixed-charge":
        rng = random.Random(seed)
        fixed = {ch["id"]: float(rng.randint(1, 3)) for ch in doc["channels"]}
        ref = reference.reference_optimum(doc, mode="uncapacitated", fixed_costs=fixed)
        solve = lambda: solve_uncapacitated(instance, fixed, formulation=formulation)
    else:
        ref = reference.reference_optimum(doc, single_homing=True)
        solve = lambda: solve_capacitated(instance, formulation=formulation,
                                          single_homing=True)
    if ref.status == "infeasible":
        with pytest.raises(InfeasibleError):
            solve()
    else:
        assert solve().objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-6)


@pytest.mark.parametrize("formulation", ["node-link", "link-path"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fractional_fixed_costs_match_milp(seed, formulation):
    """Fixed costs of 0.5, 1.5 and 2.5: no integer objective to prune
    on, and channels every design needs still posed open."""
    doc = gen.big_problem(seed, **SIZES["8-18"])
    instance = build_redundant_mlg(problem_from_dict(doc))
    rng = random.Random(seed)
    fixed = {ch["id"]: rng.choice([0.5, 1.5, 2.5]) for ch in doc["channels"]}
    ref = reference.reference_optimum(doc, mode="uncapacitated", fixed_costs=fixed)
    if ref.status == "infeasible":
        with pytest.raises(InfeasibleError):
            solve_uncapacitated(instance, fixed, formulation=formulation)
    else:
        sol = solve_uncapacitated(instance, fixed, formulation=formulation)
        assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-6)
