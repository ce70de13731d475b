"""The benchmark's workloads: seeded cases and the CLI commands each issues.

A case is one timed sample: a problem file and the commands run on it,
in order.  Every workload is a closed loop with one client: the next
command starts when the previous one has returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import gen


@dataclass(frozen=True)
class Command:
    """One CLI call; the runner adds the problem path and ``-o``."""

    flags: tuple[str, ...] = ()
    validate: bool = False
    mode: str = "capacitated"
    single_homing: bool = False


@dataclass(frozen=True)
class Case:
    name: str
    doc: dict
    commands: tuple[Command, ...]
    fixed_costs: Optional[dict] = None  # written to a file and passed by --fixed-costs


# A shared machine changes speed for seconds at a time.  Each pass over a
# workload's cases therefore takes only 1-2 s, so that a 25 s run holds a
# dozen passes and the per-case medians skip a slow spell.  Workloads with
# few cases use fixed instances (the seed sets their order), so that their
# times do not hinge on which few instances a seed would draw.
NODELINK_CASES = 20
NODELINK_SCALE = 0.5
BNB_SEEDS = range(1, 13)
BNB_SIZE = dict(n_sub=3, n_srv=2, n_int=2, n_ch=8, slack=1)
LADDER_SCALES = (1, 1.5, 2)
LADDER_SEED = 1
CORPUS_SEEDS = range(9000, 9100)
FORMULATIONS = ("node-link", "link-path")


def nodelink(seed: int) -> list[Case]:
    rng = random.Random(seed)
    return [Case(f"nl{i:02d}", gen.scaled_big_problem(rng.randrange(2 ** 31), NODELINK_SCALE),
                 (Command(),))
            for i in range(NODELINK_CASES)]


def linkpath_ladder(seed: int) -> list[Case]:
    """``big_problem(seed=1)`` scaled up; the seed sets the order the rungs
    run in."""
    solve = Command(flags=("--formulation", "link-path", "--k", "4"))
    cases = [Case(f"ladder{scale}x", gen.scaled_big_problem(LADDER_SEED, scale),
                  (Command(validate=True), solve))
             for scale in LADDER_SCALES]
    random.Random(seed).shuffle(cases)
    return cases


def fixed_charge_bnb(seed: int) -> list[Case]:
    """Each case solves one fixed problem four ways: fixed-charge channel
    selection and single-homing, each in both formulations.  The seed sets
    the order of the cases."""
    commands = tuple(
        [Command(flags=("--mode", "uncapacitated", "--formulation", form),
                 mode="uncapacitated") for form in FORMULATIONS]
        + [Command(flags=("--single-homing", "--formulation", form), single_homing=True)
           for form in FORMULATIONS])
    cases = []
    for s in BNB_SEEDS:
        doc = gen.big_problem(s, **BNB_SIZE)
        rng = random.Random(s)
        fixed = {ch["id"]: float(rng.randint(1, 3)) for ch in doc["channels"]}
        cases.append(Case(f"bnb{s:02d}", doc, commands, fixed_costs=fixed))
    random.Random(seed).shuffle(cases)
    return cases


def cli_corpus(seed: int) -> list[Case]:
    """The acceptance corpus; the seed sets the order the cases run in."""
    cases = [Case(f"c{s}-{form}", gen.random_problem(random.Random(s)),
                  (Command(flags=("--formulation", form)),))
             for s in CORPUS_SEEDS for form in FORMULATIONS]
    random.Random(seed).shuffle(cases)
    return cases


def warmup(cases: list[Case]) -> list[Case]:
    """Each distinct command list of the workload, on one small instance,
    so that first-call costs stay out of the timed passes."""
    doc = gen.random_problem(random.Random(CORPUS_SEEDS[0]))
    seen = {}
    for case in cases:
        key = (case.commands, case.fixed_costs is not None)
        if key not in seen:
            fixed = ({ch["id"]: 1.0 for ch in doc["channels"]}
                     if case.fixed_costs is not None else None)
            seen[key] = Case(f"warmup{len(seen)}", doc, case.commands, fixed)
    return list(seen.values())


WORKLOADS = {
    "nodelink-0.5x": nodelink,
    "linkpath-ladder": linkpath_ladder,
    "fixed-charge-bnb": fixed_charge_bnb,
    "cli-corpus": cli_corpus,
}
