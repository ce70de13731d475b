"""End-to-end acceptance checks.

Each test prints a single ``criterion N: PASS`` (or FAIL) line so the
suite can be skimmed from the pytest output with ``-s``.
"""

import contextlib
import json
import random
import time

import pytest

from mlgdesign import (InfeasibleError, build_redundant_mlg, check_capacities,
                       check_conservation, check_productivity_projection,
                       brute_force_oracle, solve_capacitated,
                       solve_uncapacitated, validate_overlay)
from mlgdesign.cli import main, parse_problem, write_problem
from helpers import big_problem, random_problem, t1_problem


@contextlib.contextmanager
def criterion(number):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL")
        raise
    print(f"criterion {number}: PASS")


@pytest.fixture(scope="module")
def corpus():
    """100 seeded instances solved by oracle and both formulations."""
    entries = []
    start = time.perf_counter()
    for seed in range(100):
        problem = random_problem(random.Random(9000 + seed))
        instance = build_redundant_mlg(problem)
        try:
            oracle = brute_force_oracle(instance)
        except InfeasibleError:
            oracle = None
        if oracle is None:
            try:
                nl = solve_capacitated(instance, formulation="node-link")
            except InfeasibleError:
                nl = None
            entries.append({"instance": instance, "oracle": None,
                            "nl": nl, "lp": None})
            continue
        nl = solve_capacitated(instance, formulation="node-link")
        lp = solve_capacitated(instance, formulation="link-path")
        entries.append({"instance": instance, "oracle": oracle,
                        "nl": nl, "lp": lp})
    elapsed = time.perf_counter() - start
    return entries, elapsed


def test_criterion_1_t1_end_to_end(t1_path, tmp_path):
    with criterion(1):
        start = time.perf_counter()
        for formulation in ("node-link", "link-path"):
            out = tmp_path / f"{formulation}.json"
            assert main(["solve", t1_path, "--formulation", formulation,
                         "-o", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert doc["objective"] == pytest.approx(14.0, abs=1e-6)
            assert [c["id"] for c in doc["selected_channels"]] == \
                ["b1", "b2", "b3", "b4"]
        homed = tmp_path / "homing.json"
        assert main(["solve", t1_path, "--single-homing",
                     "-o", str(homed)]) == 0
        doc = json.loads(homed.read_text())
        assignment = {srv: [e["subscriber"] for e in entries]
                      for srv, entries in doc["assignments"].items()
                      if entries}
        assert assignment == {"s1": ["u1"], "s2": ["u2"]}
        assert time.perf_counter() - start < 1.0


def test_criterion_2_oracle_equivalence(corpus):
    with criterion(2):
        entries, elapsed = corpus
        assert len(entries) == 100
        for entry in entries:
            if entry["oracle"] is None:
                assert entry["nl"] is None
            else:
                assert entry["nl"].objective == pytest.approx(
                    entry["oracle"].objective, abs=1e-6)
        assert elapsed < 60.0


def test_criterion_3_formulation_equivalence(corpus):
    with criterion(3):
        entries, _ = corpus
        for entry in entries:
            if entry["oracle"] is None:
                continue
            assert entry["lp"].objective == pytest.approx(
                entry["nl"].objective, abs=1e-6)


def test_criterion_4_feasibility_closure(corpus):
    with criterion(4):
        entries, _ = corpus
        for entry in entries:
            instance = entry["instance"]
            prods = [instance.server_productivity(s)
                     for s in instance.server_ids()]
            assert check_productivity_projection(
                prods, instance.problem.service_productivity).ok
            for key in ("nl", "lp"):
                solution = entry[key]
                if solution is None:
                    continue
                assert check_conservation(instance.graph,
                                          solution.flow_assignment,
                                          instance.commodities).ok
                assert check_capacities(instance.graph,
                                        solution.flow_assignment).ok
                for server, pairs in solution.assignment.items():
                    load = sum(vol for _, vol in pairs)
                    assert load <= instance.server_productivity(server) + 1e-6


def test_criterion_5_overlay_validation():
    with criterion(5):
        for seed in range(50):
            rng = random.Random(7000 + seed)
            problem = random_problem(rng)
            intact = build_redundant_mlg(problem)
            assert validate_overlay(intact.graph).ok  # no false positives
            victim = rng.choice([s.id for s in problem.servers])
            problem.channels = [c for c in problem.channels
                                if victim not in c.ends]
            broken = build_redundant_mlg(problem)
            result = validate_overlay(broken.graph)
            assert not result.ok
            reported = {e.ends for e, _ in result.violations}
            expected = {e.ends for e in broken.graph.intra_edges(2)
                        if victim in e.ends}
            assert expected <= reported


def test_criterion_6_bound_ordering():
    with criterion(6):
        checked = 0
        for seed in range(20):
            rng = random.Random(8000 + seed)
            problem = random_problem(rng)
            instance = build_redundant_mlg(problem)
            fixed = {ch: float(rng.randint(0, 3))
                     for ch in instance.channel_edges}
            for solve in (
                    lambda: solve_capacitated(instance, single_homing=True),
                    lambda: solve_uncapacitated(instance, fixed)):
                try:
                    sol = solve()
                except InfeasibleError:
                    continue
                assert sol.relaxation_objective is not None
                assert sol.objective >= sol.relaxation_objective - 1e-9
                checked += 1
        assert checked >= 10


def test_criterion_7_infeasibility_detection(tmp_path, capsys):
    with criterion(7):
        for seed in range(3):
            rng = random.Random(6000 + seed)
            problem = random_problem(rng, cap_range=(50, 60))
            # inflate one demand so total demand exceeds total productivity
            total_p = sum(s.productivity for s in problem.servers)
            problem.subscribers[0].sessions[0].volume += total_p + 1.0
            path = tmp_path / f"over{seed}.json"
            write_problem(problem, str(path))
            code = main(["solve", str(path)])
            assert code == 1
            err = capsys.readouterr().err
            assert "productivity[" in err


def test_criterion_8_scale_smoke_test():
    with criterion(8):
        problem = big_problem(seed=1)
        instance = build_redundant_mlg(problem)
        start = time.perf_counter()
        solution = solve_capacitated(instance, formulation="node-link")
        elapsed = time.perf_counter() - start
        assert solution.objective > 0
        assert elapsed < 10.0


def test_criterion_9_io_round_trip(t1_path, tmp_path):
    with criterion(9):
        fixtures = [parse_problem(t1_path), t1_problem()]
        fixtures += [random_problem(random.Random(s)) for s in range(5)]
        fixtures.append(big_problem(seed=1))
        for i, problem in enumerate(fixtures):
            first = tmp_path / f"f{i}a.json"
            second = tmp_path / f"f{i}b.json"
            write_problem(problem, str(first))
            write_problem(parse_problem(str(first)), str(second))
            assert first.read_bytes() == second.read_bytes()
