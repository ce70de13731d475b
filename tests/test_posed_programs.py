"""A fingerprint of every posed design program, checked against a golden.

For each instance, formulation and mode, the program ``design._design``
hands to ``simplex_solve`` is hashed as it stands when the design
returns (with the columns pricing appended): each row in order (its
relation, right-hand side and coefficients sorted by column), then each
column in order (its bounds, integrality and cost).  Labels are left
out, so a change of label format alone moves no hash.

Regenerate the golden after a deliberate change of the posed program:

    PYTHONPATH=src python tests/test_posed_programs.py
"""

import hashlib
import json
import math
import pathlib

import pytest

from mlgdesign import build_redundant_mlg, design, solve_capacitated, solve_uncapacitated
from mlgdesign.cli import parse_problem

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden" / "posed_programs.json"
NAMES = ("t1", "five_routes", "bnb04", "comma_ids")
FORMULATIONS = ("node-link", "link-path")
MODES = ("capacitated", "single-homing", "fixed-charge", "fixed-charge-single-homing")


def posed_program(name, formulation, mode, monkeypatch):
    """Solve ``tests/data/<name>.json`` in ``mode`` (fixed charge with
    ``bnb04.fixed.json`` for ``bnb04``, else unit fixed costs) and return
    the program the design solved, as it stands after the solve."""
    instance = build_redundant_mlg(parse_problem(str(DATA / f"{name}.json")))
    posed, simplex_solve = [], design.simplex_solve

    def recorded(lp, *args, **kwargs):
        posed.append(lp)
        return simplex_solve(lp, *args, **kwargs)

    monkeypatch.setattr(design, "simplex_solve", recorded)
    single_homing = mode.endswith("single-homing")
    if mode.startswith("fixed-charge"):
        fixed = (json.loads((DATA / "bnb04.fixed.json").read_text()) if name == "bnb04"
                 else dict.fromkeys(instance.channel_edges, 1.0))
        solve_uncapacitated(instance, fixed, formulation=formulation,
                            single_homing=single_homing)
    else:
        solve_capacitated(instance, formulation=formulation, single_homing=single_homing)
    assert len(posed) == 1
    return posed[0]


def fingerprint(lp) -> dict:
    digest = hashlib.sha256()
    for con in lp.constraints:
        coeffs = sorted((j, repr(float(v))) for j, v in con.coeffs.items())
        digest.update(repr(("row", con.relation, repr(float(con.rhs)), coeffs)).encode())
    for j, var in enumerate(lp.variables):
        upper = math.inf if var.upper is None else var.upper
        digest.update(repr(("column", repr(float(var.lower)), repr(float(upper)), var.integer,
                            repr(float(lp.objective.get(j, 0.0))))).encode())
    return {"rows": len(lp.constraints), "columns": len(lp.variables),
            "sha256": digest.hexdigest()}


def case_id(name, formulation, mode):
    return f"{name}/{formulation}/{mode}"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("formulation", FORMULATIONS)
@pytest.mark.parametrize("name", NAMES)
def test_posed_program_matches_golden(name, formulation, mode, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    lp = posed_program(name, formulation, mode, monkeypatch)
    assert fingerprint(lp) == golden[case_id(name, formulation, mode)]


def _fingerprint_of(name, formulation, mode):
    with pytest.MonkeyPatch.context() as patch:
        return fingerprint(posed_program(name, formulation, mode, patch))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case_id(n, f, m): _fingerprint_of(n, f, m)
                                  for n in NAMES for f in FORMULATIONS for m in MODES},
                                 indent=1) + "\n")
