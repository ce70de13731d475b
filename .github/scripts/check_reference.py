"""Check a solved objective against the HiGHS reference optimum.

    python3 .github/scripts/check_reference.py PROBLEM SOLUTION FLAGS

PROBLEM is a problem file and SOLUTION the JSON ``mlgdesign solve
PROBLEM FLAGS -o SOLUTION`` wrote; FLAGS is one string.  The reference
(``perfbench/reference.py``) solves the mode FLAGS name: fixed charge
with unit fixed costs for ``--mode uncapacitated``, single homing for
``--single-homing``, else capacitated.  Prints both objectives, and
exits 1 when they differ by more than 1e-6 relative (absolute below 1).
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "perfbench"))

import reference  # noqa: E402


def main(problem: str, solution: str, flags: str) -> int:
    doc = json.loads(pathlib.Path(problem).read_text())
    got = json.loads(pathlib.Path(solution).read_text())["objective"]
    words = flags.split()
    mode = words[words.index("--mode") + 1] if "--mode" in words else "capacitated"
    want = reference.reference_optimum(doc, mode=mode,
                                       single_homing="--single-homing" in words).objective
    print(problem, flags, "objective", got, "reference", want)
    return int(want is None or abs(got - want) > 1e-6 * max(1.0, abs(want)))


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
