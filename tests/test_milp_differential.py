"""The integer modes against scipy's HiGHS ``milp`` at sizes past the
brute-force oracle's limits.

The reference models come from ``perfbench/reference.py``, built from
the problem document alone.  Link-path prices its columns over every
layer-1 path, at the root and at each branch-and-bound node its LP
decides, so it solves the problem the reference solves; ``--k`` is
accepted and has no effect.  Over only each server's first two paths,
six fixed-charge instances here cost 1-4 more than the reference.
"""

import json
import pathlib
import random
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import gen
import reference
from mlgdesign import (InfeasibleError, build_redundant_mlg, solve_capacitated,
                       solve_uncapacitated)
from mlgdesign.cli import main, problem_from_dict

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


@pytest.mark.parametrize("size, seed, costs", [
    ("8-18", 12, "drawn"), ("8-18", 15, "unit"), ("8-18", 15, "drawn"),
    ("8-18", 16, "drawn"), ("12-26", 15, "unit"), ("12-26", 19, "drawn")])
def test_fixed_charge_link_path_at_k2_matches_milp(size, seed, costs, tmp_path):
    """The fixed-charge instances where the first two paths per server
    missed the optimum (64 against 63, up to 84 against 80): through the
    CLI at ``--k 2``, link-path reaches the reference optimum.  Unit fixed
    costs are 1.0 per channel; drawn ones ``random.Random(seed).randint(1,
    3)`` per channel, in file order."""
    doc = gen.big_problem(seed, **SIZES[size])
    rng = random.Random(seed)
    fixed = {ch["id"]: 1.0 if costs == "unit" else float(rng.randint(1, 3))
             for ch in doc["channels"]}
    problem, fixed_path, out = (tmp_path / name for name in ("p.json", "f.json", "o.json"))
    problem.write_text(json.dumps(doc))
    fixed_path.write_text(json.dumps(fixed))
    assert main(["solve", str(problem), "--mode", "uncapacitated", "--formulation",
                 "link-path", "--k", "2", "--fixed-costs", str(fixed_path),
                 "-o", str(out)]) == 0
    want = reference.reference_optimum(doc, mode="uncapacitated", fixed_costs=fixed)
    assert json.loads(out.read_text())["objective"] == pytest.approx(want.objective,
                                                                    rel=1e-9, abs=1e-6)
