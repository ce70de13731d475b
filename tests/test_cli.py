import json
import math
import pathlib
import random
import re

import pytest

from helpers import big_problem, random_problem
from mlgdesign import (DecompositionError, InfeasibleError, NoRealization,
                       ProblemFormatError, build_redundant_mlg, design, realization_path,
                       render_report)
from mlgdesign.cli import (export_dot, main, parse_problem, problem_from_dict,
                           solution_to_dict, write_problem, write_solution)


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

    @pytest.mark.parametrize("field, value", [
        ("subscribers", 3.0),
        ("sessions", 3.0),
        ("servers", {"id": "s1", "productivity": 5.0}),
        ("intermediate", "z1"),
        ("channels", 5),
    ])
    def test_non_list_field_exit(self, t1_path, tmp_path, capsys, field, value):
        doc = load_t1_doc(t1_path)
        if field == "sessions":
            doc["subscribers"][0]["sessions"] = value
        else:
            doc[field] = value
        out = tmp_path / "sol.json"
        assert main(["solve", write_json(tmp_path, doc), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{field}: expected a list" in err
        assert not out.exists()

    @pytest.mark.parametrize("path, value, message", [
        (("subscribers", 1), 5, "subscribers[1]: expected an object"),
        (("subscribers", 1, "id"), "", "subscribers[1]: expected a nonempty string id"),
        (("subscribers", 1, "id"), 3, "subscribers[1]: expected a nonempty string id"),
        (("subscribers", 1, "sessions"), 4.0, "subscribers[1].sessions: expected a list"),
        (("subscribers", 1, "sessions", 0), "4", "subscribers[1].sessions[0]: expected a number"),
        (("subscribers", 1, "sessions", 0), True, "subscribers[1].sessions[0]: expected a number"),
        (("subscribers", 1, "sessions", 0), math.inf,
         "subscribers[1].sessions[0]: expected a finite number"),
        (("subscribers", 1, "sessions", 0), -1.0,
         "subscribers[1].sessions[0]: volume must be >= 0"),
        (("servers", 1), [], "servers[1]: expected an object"),
        (("servers", 1, "id"), "", "servers[1]: expected a nonempty string id"),
        (("servers", 1, "productivity"), None, "servers[1].productivity: expected a number"),
        (("servers", 1, "productivity"), math.nan,
         "servers[1].productivity: expected a finite number"),
        (("servers", 1, "productivity"), -2.0, "servers[1].productivity: must be >= 0"),
        (("service",), 1, "service: expected an object"),
        (("service", "id"), None, "service: expected a nonempty string id"),
        (("service", "productivity"), "10", "service.productivity: expected a number"),
        (("service", "productivity"), -math.inf,
         "service.productivity: expected a finite number"),
        (("intermediate", 0), "z1", "intermediate[0]: expected an object"),
        (("intermediate", 0, "id"), [], "intermediate[0]: expected a nonempty string id"),
        (("channels", 3), None, "channels[3]: expected an object"),
        (("channels", 3, "id"), "", "channels[3]: expected a nonempty string id"),
        (("channels", 3, "ends"), ["z1"], "channel b4: ends must be a pair of ids"),
        (("channels", 3, "capacity"), "10", "channel b4: capacity: expected a number"),
        (("channels", 3, "capacity"), math.nan, "channel b4: capacity: expected a finite number"),
        (("channels", 3, "capacity"), 0.0, "channel b4: capacity must be positive"),
        (("channels", 3, "cost"), False, "channel b4: cost: expected a number"),
        (("channels", 3, "cost"), 10 ** 400, "channel b4: cost: expected a finite number"),
        (("channels", 3, "cost"), -1.0, "channel b4: cost must be >= 0"),
    ])
    def test_invalid_field_message(self, t1_path, tmp_path, capsys, path, value, message):
        """Each numeric and id field made invalid in turn: exit 2 and one
        stderr line that names the field."""
        doc = load_t1_doc(t1_path)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        assert main(["validate", write_json(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"

    @pytest.mark.parametrize("value, message", [
        ("1", "fixed cost for b{1}: expected a number"),
        (math.nan, "fixed cost for b{1}: expected a finite number"),
        (-1.0, "fixed cost for b{1}: must be >= 0"),
    ])
    def test_invalid_fixed_cost_message(self, t1_path, tmp_path, capsys, value, message):
        """A channel id with braces in it is named as it is spelled."""
        doc = load_t1_doc(t1_path)
        doc["channels"][0]["id"] = "b{1}"
        costs = write_json(tmp_path, {"b{1}": value}, name="fixed.json")
        assert main(["solve", write_json(tmp_path, doc), "--mode", "uncapacitated",
                     "--fixed-costs", costs]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFormatError):
            parse_problem(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("command", ["validate", "solve", "export-dot"])
    def test_not_utf8_exit(self, t1_path, tmp_path, capsys, command):
        """A problem file that is not UTF-8 is invalid input (exit 2), and
        the message names the file."""
        path = tmp_path / "latin1.json"
        path.write_bytes(pathlib.Path(t1_path).read_bytes().replace(b'"u1"', b'"u\xff1"'))
        out = [] if command == "validate" else ["-o", str(tmp_path / "out")]
        assert main([command, str(path), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and str(path) in err and "UTF-8" in err

    def test_utf8_ids_read_in_any_locale(self, t1_path, tmp_path):
        doc = load_t1_doc(t1_path)
        doc["intermediate"][0]["id"] = "z\u00e9"
        for channel in doc["channels"]:
            channel["ends"] = ["z\u00e9" if end == "z1" else end for end in channel["ends"]]
        path = tmp_path / "utf8.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        assert "z\u00e9" in parse_problem(str(path)).intermediates

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

    @pytest.mark.parametrize("problem,argv,objective", [
        (random_problem(random.Random(9069)), ["--single-homing"], 6.0),
        (big_problem(seed=1, n_sub=12, n_srv=3, n_int=2, n_ch=26, slack=1),
         ["--single-homing", "--formulation", "link-path"], 64.0),
        (random_problem(random.Random(9083)),
         ["--mode", "uncapacitated", "--formulation", "link-path"], 8.0),
    ], ids=["corpus-9069", "big-12-26", "corpus-9083-fixed-charge"])
    def test_integral_optimum_written_exactly(self, tmp_path, problem, argv, objective):
        """Integral demands and costs give an integral optimum, written
        without the rounding noise simplex pivots leave in basic values
        (once objectives of 5.999999999999999 and 63.99999999999999, and
        route flows of 3.9999999999999996 and 1.9999999999999996)."""
        path, out = tmp_path / "problem.json", tmp_path / "sol.json"
        write_problem(problem, str(path))
        assert main(["solve", str(path), *argv, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == objective
        flows = [r["flow"] for routes in doc["routes"].values() for r in routes]
        assert flows and all(f == round(f) for f in flows)

    def test_uncapacitated_default_costs(self, t1_path, tmp_path):
        out = tmp_path / "sol.json"
        code = main(["solve", t1_path, "--mode", "uncapacitated",
                     "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == pytest.approx(18.0, abs=1e-6)

    def test_fixed_costs_not_utf8_exit(self, t1_path, tmp_path, capsys):
        costs = tmp_path / "costs.json"
        costs.write_bytes(b'{"b1": 1.0, "\xff": 2.0}')
        out = tmp_path / "sol.json"
        argv = ["solve", t1_path, "--mode", "uncapacitated", "--fixed-costs", str(costs),
                "-o", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: cannot read fixed costs ") and str(costs) in err
        assert not out.exists()

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

    def test_five_routes_at_every_k(self, t1_path, tmp_path):
        """``tests/data/five_routes.json``: one server and subscriber joined
        by five disjoint two-hop routes of capacity 1, demand 5.  Priced
        link-path reaches all five at ``--k`` 1, 4 and 5 and without it,
        in every mode, and writes the committed goldens: objective 10
        capacitated and under single homing, 20 with unit fixed costs, as
        node-link writes them."""
        data = pathlib.Path(t1_path).parent
        for mode, flags, objective in [("", (), 10.0),
                                       (".single-homing", ("--single-homing",), 10.0),
                                       (".uncapacitated", ("--mode", "uncapacitated"), 20.0)]:
            golden = data / "golden" / f"five_routes.solve{mode}.link-path.json"
            assert json.loads(golden.read_text())["objective"] == objective
            for k in (("--k", "1"), ("--k", "4"), ("--k", "5"), ()):
                out = tmp_path / "sol.json"
                assert main(["solve", str(data / "five_routes.json"), *flags, "--formulation",
                             "link-path", *k, "-o", str(out)]) == 0
                assert out.read_bytes() == golden.read_bytes()
            if mode:
                assert main(["solve", str(data / "five_routes.json"), *flags,
                             "-o", str(out)]) == 0
                assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("formulation, flags, balance_row", [
        ("node-link", (), "conservation[u1]"),
        ("node-link", ("--single-homing",), "conservation[s1,u1]"),
        ("node-link", ("--mode", "uncapacitated"), "conservation[u1]"),
        ("link-path", (), "demand[u1]"),
        ("link-path", ("--single-homing",), "demand[u1]"),
        ("link-path", ("--mode", "uncapacitated"), "demand[u1]"),
    ])
    def test_unreachable_subscriber_infeasible(self, t1_path, tmp_path, capsys,
                                               formulation, flags, balance_row):
        doc = load_t1_doc(t1_path)
        doc["channels"] = [c for c in doc["channels"] if "u1" not in c["ends"]]
        out = tmp_path / "sol.json"
        assert main(["solve", write_json(tmp_path, doc), "--formulation",
                     formulation, *flags, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert balance_row in err.split("certificate rows: ")[1].rstrip(")\n").split(", ")
        assert not out.exists()

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
        ("solve", ["--mode", "uncapacitated"], {"b9": 1.0}),
        ("oracle", ["--mode", "uncapacitated"], {"b9": 1.0}),
        ("solve", ["--mode", "uncapacitated"], {"b1": -1.0}),
        ("oracle", ["--mode", "uncapacitated"], {"b1": -1.0}),
        ("solve", ["--mode", "uncapacitated"], {"b1": math.nan}),
        ("solve", ["--single-homing"], {"b1": 1.0}),  # fixed costs, capacitated
        ("oracle", [], {"b1": 1.0}),
        ("solve", ["--k", "4"], None),  # node-link takes no --k
        ("solve", ["--formulation", "node-link", "--k", "2"], None),
    ])
    def test_invalid_arguments_exit(self, t1_path, tmp_path, command, flags,
                                    costs):
        argv = [command, t1_path, *flags, "-o", str(tmp_path / "sol.json")]
        if costs is not None:
            argv += ["--fixed-costs", write_json(tmp_path, costs, "costs.json")]
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

    def test_violation_lines_name_unrealizable_edges(self, tmp_path, capsys):
        """On corpus instances cut off from one server, the command prints
        one line per upper edge realization_path cannot realize, in layer
        and edge order."""
        for seed in range(9000, 9020):
            rng = random.Random(seed)
            problem = random_problem(rng)
            victim = rng.choice(problem.servers).id
            problem.channels = [c for c in problem.channels
                                if victim not in c.ends or rng.random() < 0.2]
            graph = build_redundant_mlg(problem).graph
            expected = []
            for edge in graph.intra_edges(2) + graph.intra_edges(3):
                try:
                    realization_path(graph, edge)
                except NoRealization:
                    expected.append(f"violation: layer {edge.layer} edge "
                                    f"({edge.ends[0]},{edge.ends[1]}): NoRealization")
            path = tmp_path / f"broken{seed}.json"
            write_problem(problem, str(path))
            assert main(["validate", str(path)]) == (2 if expected else 0)
            out = capsys.readouterr().out.splitlines()
            assert out == (expected or ["ok: overlay constraint satisfied on all layers"])


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

    def test_t1_golden_bytes(self, t1_path, tmp_path):
        """``export-dot`` on t1 writes ``tests/data/golden/t1.dot`` byte for
        byte."""
        out = tmp_path / "t1.dot"
        assert main(["export-dot", t1_path, "-o", str(out)]) == 0
        golden = pathlib.Path(t1_path).parent / "golden" / "t1.dot"
        assert out.read_bytes() == golden.read_bytes()

    def test_quotes_escaped(self, t1_path):
        """Ids with quotes and inner backslashes are written as quoted
        tokens that DOT reads back: every ``"`` in a statement opens or
        closes one, and inside one a ``"`` comes only after a backslash."""
        doc = load_t1_doc(t1_path)
        rename = {"u1": 'u"1', "z1": "z\\1", "s1": 'a"b\\c"'}
        for entry in doc["subscribers"] + doc["servers"] + doc["intermediate"]:
            entry["id"] = rename.get(entry["id"], entry["id"])
        for channel in doc["channels"]:
            channel["ends"] = [rename.get(end, end) for end in channel["ends"]]
        text = export_dot(build_redundant_mlg(problem_from_dict(doc)).graph)
        token = re.compile(r'"(?:[^"\\]|\\.)*"')
        for line in text.splitlines():
            assert '"' not in token.sub("", line), line
        assert '"1:u\\"1";' in text and '"2:a\\"b\\c\\"";' in text
        assert '"1:z\\1" -- ' in text or ' -- "1:z\\1"' in text

    def test_trailing_backslash_rejected(self, t1_path, tmp_path, capsys):
        """An id that ends in a backslash would escape its closing quote:
        ``export-dot`` exits 2, names the id and writes no file."""
        doc = load_t1_doc(t1_path)
        doc["intermediate"][0]["id"] = "z1\\"
        for channel in doc["channels"]:
            channel["ends"] = ["z1\\" if end == "z1" else end for end in channel["ends"]]
        out = tmp_path / "out.dot"
        assert main(["export-dot", write_json(tmp_path, doc), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and repr("z1\\") in err
        assert not out.exists()

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


GOLDEN = [
    ("solve.node-link", ["solve"]),
    ("solve.link-path", ["solve", "--formulation", "link-path"]),
    ("solve.single-homing", ["solve", "--single-homing"]),
    ("solve.single-homing.link-path",
     ["solve", "--single-homing", "--formulation", "link-path"]),
    ("solve.uncapacitated.node-link", ["solve", "--mode", "uncapacitated"]),
    ("solve.uncapacitated.link-path",
     ["solve", "--mode", "uncapacitated", "--formulation", "link-path"]),
    ("oracle.capacitated", ["oracle"]),
    ("oracle.single-homing", ["oracle", "--single-homing"]),
    ("oracle.uncapacitated", ["oracle", "--mode", "uncapacitated"]),
]

# ``tests/data/bnb04.json`` is ``gen.big_problem(4, n_sub=3, n_srv=2, n_int=2,
# n_ch=8, slack=1)`` and ``bnb04.fixed.json`` its fixed costs as
# ``perfbench/workloads.py`` draws them.
BNB04_MODES = ("uncapacitated", "single-homing")
FORMULATIONS = ("node-link", "link-path")


class TestSolutionSerialization:
    @pytest.mark.parametrize("name,argv", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_t1_golden_bytes(self, t1_path, tmp_path, name, argv):
        """The whole document, key and list order included, matches the
        committed ``tests/data/golden/t1.<name>.json`` byte for byte."""
        out = tmp_path / "out.json"
        assert main([argv[0], t1_path, *argv[1:], "-o", str(out)]) == 0
        golden = pathlib.Path(t1_path).parent / "golden" / f"t1.{name}.json"
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    @pytest.mark.parametrize("mode", BNB04_MODES)
    def test_bnb04_golden_bytes(self, t1_path, tmp_path, mode, formulation):
        """The integer modes on one ``fixed-charge-bnb`` instance (fixed
        charge takes 39 LP solves per formulation) write the committed
        ``tests/data/golden/bnb04.solve.<mode>.<formulation>.json`` byte
        for byte."""
        data = pathlib.Path(t1_path).parent
        flags = (["--mode", "uncapacitated", "--fixed-costs", str(data / "bnb04.fixed.json")]
                 if mode == "uncapacitated" else ["--single-homing"])
        out = tmp_path / "out.json"
        assert main(["solve", str(data / "bnb04.json"), *flags, "--formulation", formulation,
                     "-o", str(out)]) == 0
        golden = data / "golden" / f"bnb04.solve.{mode}.{formulation}.json"
        assert out.read_bytes() == golden.read_bytes()

    @staticmethod
    def written(doc, tmp_path):
        path = tmp_path / "doc.json"
        write_solution(doc, str(path))
        return path.read_text()

    @pytest.mark.parametrize("name", [g[0] for g in GOLDEN])
    def test_writer_matches_json_on_golden(self, t1_path, tmp_path, name):
        golden = pathlib.Path(t1_path).parent / "golden" / f"t1.{name}.json"
        doc = json.loads(golden.read_text())
        assert self.written(doc, tmp_path) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_writer_matches_json_on_corpus(self, tmp_path):
        """Every solution document of the acceptance corpus, in both
        formulations, is written as ``json.dumps`` spells it."""
        written = 0
        for seed in range(9000, 9100):
            instance = build_redundant_mlg(random_problem(random.Random(seed)))
            for formulation in ("node-link", "link-path"):
                try:
                    solution = design.solve_capacitated(instance, formulation=formulation)
                except InfeasibleError:
                    continue
                doc = solution_to_dict(render_report(solution, instance), solution.edge_flows)
                assert (self.written(doc, tmp_path)
                        == json.dumps(doc, sort_keys=True, indent=2) + "\n")
                written += 1
        assert written >= 150

    MADE_UP = [
        {},
        [],
        {"a": {}, "b": [], "c": [[]], "d": [{}], "e": [[1, [2.5, []]], {"x": None}]},
        {"text": "caf\u00e9 \u2013 \U0001f600 \"quoted\" back\\slash \x00\x1f\x7f\n\t\r"},
        {"caf\u00e9": 1, "\"": 2, "\\": 3, "": 4, "a\nb": 5, "Z": 6, "a": 7},
        {"numbers": [0, -0.0, 1, -17, 10 ** 30, 0.1, 1e-300, 1.5e300, -2.25, 1e16, 123456789.123]},
        {"special": [math.inf, -math.inf, math.nan], "flags": [True, False, None]},
        {"tuple": (1, "two", (3.0,)), "nested": {"deeper": {"deepest": [True]}}},
        "just a string",
        3.5,
        None,
    ]

    @pytest.mark.parametrize("doc", MADE_UP)
    def test_writer_matches_json_on_made_up(self, tmp_path, doc):
        assert self.written(doc, tmp_path) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_writer_matches_json_on_random(self, tmp_path):
        rng = random.Random(5)
        alphabet = ["a", "Z", "\u00e9", "\"", "\\", "\n", "\x01", "\u2028", "\U0001d11e", " "]

        def value(depth):
            kind = rng.randrange(9 if depth < 4 else 6)
            if kind == 0:
                return "".join(rng.choice(alphabet) for _ in range(rng.randrange(4)))
            if kind == 1:
                return rng.choice([rng.uniform(-1e6, 1e6), rng.random() * 1e-12,
                                   math.inf, -math.inf, math.nan, 0.0, -0.0])
            if kind == 2:
                return rng.randrange(-10 ** 6, 10 ** 6)
            if kind in (3, 4, 5):
                return rng.choice([True, False, None, 1.0])
            if kind in (6, 7):
                return [value(depth + 1) for _ in range(rng.randrange(4))]
            return {"".join(rng.choice(alphabet) for _ in range(rng.randrange(3))): value(depth + 1)
                    for _ in range(rng.randrange(4))}

        for _ in range(300):
            doc = {"root": value(0), "more": [value(1) for _ in range(3)]}
            assert (self.written(doc, tmp_path)
                    == json.dumps(doc, sort_keys=True, indent=2) + "\n")

    def test_writer_rejects_what_json_cannot_write(self, tmp_path):
        with pytest.raises(TypeError):
            write_solution({"x": {1, 2}}, str(tmp_path / "x.json"))
        with pytest.raises(TypeError):
            write_solution({"x": {("a",): 1}}, str(tmp_path / "x.json"))

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
