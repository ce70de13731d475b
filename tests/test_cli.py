import json
import math
import pathlib

import pytest

from mlgdesign import (DecompositionError, ProblemFormatError,
                       build_redundant_mlg, design)
from mlgdesign.cli import (export_dot, main, parse_problem, problem_from_dict,
                           write_problem)


def load_t1_doc(t1_path):
    with open(t1_path) as fh:
        return json.load(fh)


def write_json(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def exit_code(argv):
    """``main``'s exit code, also when argument parsing exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParseProblem:
    def test_t1(self, t1_path):
        problem = parse_problem(t1_path)
        assert [s.id for s in problem.subscribers] == ["u1", "u2"]
        assert [c.id for c in problem.channels] == ["b1", "b2", "b3", "b4", "b5"]
        assert problem.service_productivity == 10.0

    def test_ghost_endpoint(self, t1_path):
        doc = load_t1_doc(t1_path)
        doc["channels"][0]["ends"] = ["u1", "ghost"]
        with pytest.raises(ProblemFormatError, match="ghost"):
            problem_from_dict(doc)

    def test_negative_capacity(self, t1_path):
        doc = load_t1_doc(t1_path)
        doc["channels"][2]["capacity"] = -4.0
        with pytest.raises(ProblemFormatError, match="capacity"):
            problem_from_dict(doc)

    def test_unknown_key_rejected(self, t1_path):
        for key in ("extras", "options"):
            doc = load_t1_doc(t1_path)
            doc[key] = {}
            with pytest.raises(ProblemFormatError, match="unknown"):
                problem_from_dict(doc)

    @pytest.mark.parametrize("section, index, key, value", [
        ("subscribers", 0, "sessions", [math.nan]),
        ("subscribers", 0, "sessions", [math.inf]),
        ("subscribers", 0, "sessions", [10 ** 400]),
        ("servers", 0, "productivity", math.nan),
        ("channels", 0, "capacity", math.nan),
        ("channels", 0, "capacity", -math.inf),
        ("channels", 0, "cost", math.inf),
    ])
    def test_non_finite_number_exit(self, t1_path, tmp_path, capsys,
                                    section, index, key, value):
        doc = load_t1_doc(t1_path)
        doc[section][index][key] = value
        out = tmp_path / "sol.json"
        assert main(["solve", write_json(tmp_path, doc), "-o", str(out)]) == 2
        assert "expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFormatError):
            parse_problem(str(tmp_path / "nope.json"))

    def test_round_trip_bytes(self, t1_path, tmp_path):
        problem = parse_problem(t1_path)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_problem(problem, str(first))
        write_problem(parse_problem(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()


class TestSolveCommand:
    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    def test_t1(self, t1_path, tmp_path, formulation):
        out = tmp_path / "sol.json"
        code = main(["solve", t1_path, "--formulation", formulation,
                     "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "optimal"
        assert doc["objective"] == pytest.approx(14.0, abs=1e-6)
        assert [c["id"] for c in doc["selected_channels"]] == \
            ["b1", "b2", "b3", "b4"]
        assert doc["validation"] == {"capacities_ok": True,
                                     "conservation_ok": True}

    def test_uncapacitated_default_costs(self, t1_path, tmp_path):
        out = tmp_path / "sol.json"
        code = main(["solve", t1_path, "--mode", "uncapacitated",
                     "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == pytest.approx(18.0, abs=1e-6)

    def test_infeasible_exit(self, t1_path, tmp_path, capsys):
        doc = load_t1_doc(t1_path)
        doc["subscribers"][0]["sessions"] = [8.0]  # total demand 12 > 10
        path = tmp_path / "over.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path), "-o", str(tmp_path / "sol.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "infeasible" in err
        assert "productivity[" in err

    def test_malformed_exit(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 2

    def test_unwritable_output(self, t1_path, tmp_path):
        out = tmp_path / "missing-dir" / "sol.json"
        assert main(["solve", t1_path, "-o", str(out)]) == 3

    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    @pytest.mark.parametrize("flags, objective", [
        ((), 14.0),
        (("--single-homing",), 14.0),
        (("--mode", "uncapacitated"), 18.0),
    ])
    def test_unbounded_channel_matches_oracle(self, t1_path, tmp_path,
                                              formulation, flags, objective):
        doc = load_t1_doc(t1_path)
        doc["channels"][0]["capacity"] = math.inf  # written as Infinity
        path = write_json(tmp_path, doc)
        sol, ref = tmp_path / "sol.json", tmp_path / "ref.json"
        assert main(["solve", path, "--formulation", formulation, *flags,
                     "-o", str(sol)]) == 0
        assert main(["oracle", path, *flags, "-o", str(ref)]) == 0
        got, want = json.loads(sol.read_text()), json.loads(ref.read_text())
        assert want["objective"] == pytest.approx(objective, abs=1e-6)
        assert got["objective"] == pytest.approx(want["objective"], abs=1e-6)
        assert got["selected_channels"][0]["capacity"] == "unbounded"
        assert got["validation"] == {"capacities_ok": True,
                                     "conservation_ok": True}

    @pytest.mark.parametrize("command, flags, costs", [
        ("solve", ["--k", "0"], None),
        ("solve", ["--formulation", "link-path", "--k", "-1"], None),
        ("solve", [], {"b9": 1.0}),
        ("oracle", [], {"b9": 1.0}),
        ("solve", [], {"b1": -1.0}),
        ("oracle", [], {"b1": -1.0}),
        ("solve", [], {"b1": math.nan}),
    ])
    def test_invalid_arguments_exit(self, t1_path, tmp_path, command, flags,
                                    costs):
        argv = [command, t1_path, *flags, "-o", str(tmp_path / "sol.json")]
        if costs is not None:
            argv += ["--mode", "uncapacitated",
                     "--fixed-costs", write_json(tmp_path, costs, "costs.json")]
        assert exit_code(argv) == 2
        assert not (tmp_path / "sol.json").exists()

    def test_decomposition_failure_is_internal(self, t1_path, tmp_path,
                                               monkeypatch, capsys):
        def fail(*_args):
            raise DecompositionError("unmet demand")

        monkeypatch.setattr(design, "_decompose_node_link", fail)
        out = tmp_path / "sol.json"
        assert main(["solve", t1_path, "-o", str(out)]) == 3
        assert "internal error" in capsys.readouterr().err
        assert not out.exists()


class TestValidateCommand:
    def test_ok(self, t1_path, capsys):
        assert main(["validate", t1_path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_violations(self, t1_path, tmp_path, capsys):
        doc = load_t1_doc(t1_path)
        doc["channels"] = [c for c in doc["channels"]
                           if "s1" not in c["ends"]]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.count("violation:") == 3


class TestExportDot:
    def test_structure(self, t1_instance):
        text = export_dot(t1_instance.graph)
        assert text.count("subgraph cluster_layer_") == 3
        assert text.count(" -- ") == 2 + 5 + 5 + 8
        assert text.count("style=dashed") == 8

    def test_t1_labels_show_capacity(self, t1_instance):
        text = export_dot(t1_instance.graph)
        assert '"1:u1" -- "1:z1" [label="10"];' in text
        assert '"2:s1" -- "2:s2" [label="inf"];' in text
        assert '"3:v0" -- "2:s1" [style=dashed, label="5"];' in text

    def test_command_deterministic(self, t1_path, tmp_path):
        a = tmp_path / "a.dot"
        b = tmp_path / "b.dot"
        assert main(["export-dot", t1_path, "-o", str(a)]) == 0
        assert main(["export-dot", t1_path, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("graph mlg {")


class TestOracleCommand:
    def test_t1(self, t1_path, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["oracle", t1_path, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == pytest.approx(14.0, abs=1e-6)

    def test_limits_exit(self, t1_path, tmp_path):
        doc = load_t1_doc(t1_path)
        # push past the oracle channel ceiling with extra parallel-ish links
        doc["intermediate"].append({"id": "z2"})
        for i, pair in enumerate([["u1", "z2"], ["u2", "z2"], ["z2", "s1"],
                                  ["z2", "s2"]]):
            doc["channels"].append({"id": f"x{i}", "ends": pair,
                                    "capacity": 10.0, "cost": 1.0})
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 4


class TestSolutionSerialization:
    def test_repeat_runs_identical(self, t1_path, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["solve", t1_path, "-o", str(a)]) == 0
        assert main(["solve", t1_path, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_per_edge_flow_present(self, t1_path, tmp_path):
        out = tmp_path / "sol.json"
        main(["solve", t1_path, "-o", str(out)])
        doc = json.loads(out.read_text())
        flows = doc["per_edge_flow"]
        assert flows["L1:u1-z1"] == pytest.approx(3.0, abs=1e-6)
        assert all(v > 0 for v in flows.values())
