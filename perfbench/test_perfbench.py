"""Self-test of the benchmark's checker and span arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import pathlib
import random

import pytest

import gen
import reference
import spans
from mlgdesign import (InfeasibleError, brute_force_oracle, build_redundant_mlg,
                       validate_overlay)
from mlgdesign.cli import problem_from_dict

CORPUS = [gen.random_problem(random.Random(s)) for s in range(9000, 9100)]


def _oracle(doc, **kwargs):
    instance = build_redundant_mlg(problem_from_dict(doc))
    try:
        return brute_force_oracle(instance, **kwargs).objective
    except InfeasibleError:
        return None


def _highs(doc, **kwargs):
    ref = reference.reference_optimum(doc, **kwargs)
    return ref.objective if ref.status == "optimal" else None


@pytest.mark.parametrize("kwargs", [
    {},
    {"single_homing": True},
    {"mode": "uncapacitated"},
], ids=["capacitated", "single-homing", "fixed-charge"])
def test_reference_matches_brute_force_oracle_on_corpus(kwargs):
    docs = CORPUS if not kwargs else CORPUS[:30]
    outcomes = set()
    for doc in docs:
        fixed = None
        if kwargs.get("mode") == "uncapacitated":
            rng = random.Random(len(doc["channels"]))
            fixed = {ch["id"]: float(rng.randint(1, 3)) for ch in doc["channels"]}
        want = _oracle(doc, channel_fixed_costs=fixed, **kwargs)
        got = _highs(doc, fixed_costs=fixed, **kwargs)
        outcomes.add(want is None)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
    if not kwargs:
        assert outcomes == {True, False}  # the corpus has both outcomes


def test_overlay_reference_matches_validate_overlay():
    cut = dict(CORPUS[0], channels=[])
    for doc in CORPUS + [cut]:
        graph = build_redundant_mlg(problem_from_dict(doc)).graph
        assert reference.overlay_realizable(doc) == validate_overlay(graph).ok


def _span(sid, name, start, end, parent=None, **attrs):
    return spans.Span(id=sid, name=name, start=start, end=end, parent=parent, attrs=attrs)


def test_self_time_subtracts_children_once():
    tree = [_span(0, "root", 0.0, 10.0),
            _span(1, "a", 1.0, 4.0, parent=0),
            _span(2, "a1", 2.0, 3.0, parent=1),
            _span(3, "b", 5.0, 9.0, parent=0),
            _span(4, "b1", 5.0, 7.0, parent=3),
            _span(5, "b2", 6.0, 8.0, parent=3)]  # overlaps b1 by 1 s
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 2.0}


def test_layer_metrics_on_hand_built_tree():
    tree = [_span(0, "case:x", 0.0, 10.0),
            _span(1, "design.solve_uncapacitated", 0.5, 9.5, parent=0),
            _span(2, "design.formulate_node_link", 0.5, 1.5, parent=1),
            _span(3, "lp.simplex_solve", 1.5, 2.5, parent=1, rows=4, cols=6, nnz=12,
                  pivots=5, status="Optimal"),
            _span(4, "lp.branch_and_bound", 3.0, 9.0, parent=1),
            _span(5, "lp.simplex_solve", 3.0, 5.0, parent=4, rows=5, cols=6, nnz=13,
                  pivots=10, status="Optimal"),
            _span(6, "lp.simplex_solve", 6.0, 7.0, parent=4, rows=6, cols=6, nnz=14,
                  pivots=5, status="Infeasible")]
    m = spans.layer_metrics(tree)
    assert m["design.self_s"] == pytest.approx(9.0 - 1.0 - 1.0 - 6.0)
    assert m["design.formulate_s"] == pytest.approx(1.0)
    assert m["lp.simplex_s"] == pytest.approx(4.0)
    assert m["lp.bnb_self_s"] == pytest.approx(6.0 - 3.0)
    assert (m["lp.simplex_calls"], m["lp.bnb_nodes"], m["lp.bnb_nodes_infeasible"]) == (3, 2, 1)
    assert m["lp.pivots"] == 20 and m["lp.pivot_us"] == pytest.approx(2e5)
    assert (m["lp.rows"], m["lp.cols"], m["lp.nnz"]) == (6, 6, 14)
    assert m["mlg.validate_s"] == 0.0


def test_tracer_restores_the_package():
    from mlgdesign import design, lp
    before = (design.simplex_solve, lp.simplex_solve, lp.branch_and_bound)
    tracer = spans.Tracer()
    with tracer.installed():
        assert design.simplex_solve is not before[0]
        assert lp.branch_and_bound is not before[2]
    assert (design.simplex_solve, lp.simplex_solve, lp.branch_and_bound) == before


def test_reported_metrics_match_benchmark_json():
    import run
    spec = json.loads((pathlib.Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = set(spans.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.PER_LAYER_UNITS.get(k, "s") for k in layers}
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads.WORKLOADS)
