import dataclasses
import json
import math
import pathlib
import random
import re

import numpy as np
import pytest

import mlgdesign.lp as lp_module
from mlgdesign import (Channel, DecompositionError, DesignProblem, InfeasibleError,
                       LimitsExceeded, OracleLimits, Server, Session,
                       Subscriber, brute_force_oracle, build_redundant_mlg,
                       check_capacities, check_conservation, design,
                       enumerate_candidate_paths, NodeRef, formulate_link_path,
                       formulate_node_link, solve_capacitated, solve_uncapacitated)
from mlgdesign.design import (_add_hops, _channel_cost, _decompose_node_link,
                              all_candidate_paths)
from mlgdesign.cli import main, parse_problem, write_problem
from mlgdesign.lp import Basis
from mlgdesign.mlg import cheapest_paths_from
from helpers import big_problem, random_problem, scaled_big_problem, t1_problem


def commodity(instance, cid):
    return next(c for c in instance.commodities if c.id == cid)


class TestCandidatePaths:
    def test_k_one_keeps_cheapest(self, t1_instance):
        """Each server's cheapest path to the subscriber, merged in (cost,
        nodes) order: the first columns of every link-path formulation."""
        paths = enumerate_candidate_paths(t1_instance, commodity(t1_instance, "u1"))
        assert [(p.server, p.nodes) for p in paths] == [
            ("s1", ("s1", "z1", "u1")),
            ("s2", ("s2", "z1", "u1")),
        ]
        assert paths[0].channels == ("b3", "b1")
        assert paths[0].cost == pytest.approx(2.0)

    def test_disconnected_subscriber_yields_nothing(self):
        problem = t1_problem()
        problem.channels = [c for c in problem.channels if "u1" not in c.ends]
        instance = build_redundant_mlg(problem)
        paths = enumerate_candidate_paths(instance, commodity(instance, "u1"))
        assert paths == []

    @staticmethod
    def assert_first_k_of_exhaustive(instance):
        for c in instance.commodities:
            every = all_candidate_paths(instance, c)
            expected = [next(p for p in every if p.server == s) for s in instance.server_ids()
                        if any(p.server == s for p in every)]
            expected.sort(key=lambda p: (p.cost, p.nodes))
            assert enumerate_candidate_paths(instance, c) == expected

    @pytest.mark.parametrize("costs", [None, (0.0, 0.5, 1.0, 2.5)])
    def test_first_k_of_exhaustive_on_corpus(self, costs):
        """Each server's path is the first of its own in the exhaustive
        enumeration in (cost, nodes) order, merged in that order: on the
        acceptance corpus with costs as drawn and with mixed costs."""
        for seed in range(9000, 9100):
            rng = random.Random(seed)
            problem = random_problem(rng)
            if costs is not None:
                problem.channels = [dataclasses.replace(ch, cost=rng.choice(costs))
                                    for ch in problem.channels]
            self.assert_first_k_of_exhaustive(build_redundant_mlg(problem))

    def test_first_k_of_exhaustive_on_random_graphs(self):
        """The same on denser layer-1 graphs of 3-8 nodes whose costs add
        exactly in binary floating point, zero-cost channels included."""
        rng = random.Random(61)
        checked = 0
        while checked < 300:
            problem = random_problem(rng, max_subs=3, max_servers=3,
                                     max_intermediates=2, max_channels=14)
            if len(problem.subscribers) + len(problem.servers) + len(problem.intermediates) < 3:
                continue
            problem.channels = [
                dataclasses.replace(ch, cost=rng.choice((0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0)))
                for ch in problem.channels]
            self.assert_first_k_of_exhaustive(build_redundant_mlg(problem))
            checked += 1

    @staticmethod
    def count_calls(monkeypatch, name):
        """The arguments of every later call to ``design.<name>``."""
        calls = []
        original = getattr(design, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(design, name, counted)
        return calls

    def test_k1_builds_no_map(self, monkeypatch):
        """The first path per server is read off the servers' cheapest-path
        trees: given them, the list makes no search at all; without them,
        it builds one tree per server."""
        instance = build_redundant_mlg(big_problem(seed=1))
        trees = design._server_trees(instance)
        calls = self.count_calls(monkeypatch, "cheapest_paths_from")
        for c in instance.commodities:
            assert len(enumerate_candidate_paths(instance, c, trees)) == len(
                instance.server_ids())
        assert calls == []
        enumerate_candidate_paths(instance, instance.commodities[0])
        assert [args[2] for args in calls] == [[s] for s in instance.server_ids()]

    def test_integer_link_path_builds_one_tree_per_server(self, monkeypatch):
        """The link-path formulation builds one cheapest-path tree per
        server and shares it among the commodities: 5 trees at
        ``big_problem(seed=1)``, where one set per commodity made 100."""
        trees = self.count_calls(monkeypatch, "cheapest_paths_from")
        instance = build_redundant_mlg(big_problem(seed=1, slack=1))
        for single_homing in (False, True):
            trees.clear()
            design._link_path(instance, single_homing)
            assert [args[2] for args in trees] == [[s] for s in instance.server_ids()]

    @pytest.mark.parametrize("source", ["corpus", "2x", "comma_ids", "dashed_ids"])
    def test_tree_channels_match_adjacency_walk(self, source):
        """Every entry of every server's tree names the channels that
        :func:`design._candidate` reads off the adjacency for its nodes:
        on the acceptance corpus, ``big_problem(seed=1)`` at 2x, and the
        instances whose ids hold commas and dashes."""
        if source == "corpus":
            problems = [random_problem(random.Random(seed)) for seed in range(9000, 9100)]
        elif source == "2x":
            problems = [scaled_big_problem(1, 2)]
        else:
            problems = [parse_problem(str(DATA / f"{source}.json"))]
        entries = 0
        for problem in problems:
            instance = build_redundant_mlg(problem)
            adj = instance.graph.adjacency(1)
            for server, tree in design._server_trees(instance).items():
                for node, (cost, nodes, channels) in tree.items():
                    assert nodes[0] == server and nodes[-1] == node
                    walked = design._candidate(server, nodes, cost, adj)
                    assert channels == walked.channels
                    entries += 1
        assert entries >= len(problems) * 2

    def test_costs_are_left_to_right_sums(self):
        """Every candidate costs the left-to-right sum of its channels,
        as in the exhaustive enumeration, and the merged list is sorted
        by that sum, then nodes: with costs 0.1/0.2/0.3, whose sums
        depend on the order they are added in."""
        rng = random.Random(67)
        for _ in range(300):
            problem = random_problem(rng, max_subs=3, max_servers=3,
                                     max_intermediates=2, max_channels=14)
            problem.channels = [dataclasses.replace(ch, cost=rng.choice((0.1, 0.2, 0.3)))
                                for ch in problem.channels]
            instance = build_redundant_mlg(problem)
            adj = instance.graph.adjacency(1)
            for c in instance.commodities:
                paths = enumerate_candidate_paths(instance, c)
                keys = [(_add_hops(0.0, p.nodes, adj), p.nodes) for p in paths]
                assert [p.cost for p in paths] == [cost for cost, _ in keys]
                assert keys == sorted(keys)


class TestCheapestPath:
    @pytest.mark.parametrize("costs", [(1.0,), (0.0, 0.5, 1.0, 2.5)])
    def test_first_of_all_candidate_paths(self, costs):
        """On the acceptance corpus (as drawn, and with mixed channel costs)
        the search from one server, or from all at once, reaches each
        subscriber on the first path in (cost, nodes) order of the
        exhaustive enumeration from those servers."""
        for seed in range(9000, 9100):
            rng = random.Random(seed)
            problem = random_problem(rng)
            problem.channels = [dataclasses.replace(ch, cost=rng.choice(costs))
                                for ch in problem.channels]
            instance = build_redundant_mlg(problem)
            graph, servers = instance.graph, instance.server_ids()
            for c in instance.commodities:
                paths = [(p.cost, p.nodes, p.server)
                         for p in all_candidate_paths(instance, c)]
                for starts in [[s] for s in servers] + [servers]:
                    mine = [p[:2] for p in paths if p[2] in starts]
                    found = cheapest_paths_from(graph, 1, starts, lambda e: e.cost)
                    assert found.get(c.sink.id) == (mine[0] if mine else None)

    @pytest.mark.parametrize("costs", [None, (0.0, 0.5, 1.0, 2.5), (0.1, 0.2, 0.3)])
    def test_tree_matches_goal_search(self, costs):
        """From every server to every layer-1 node, the settle-every-node
        search returns the first path of an exhaustive goal search in
        (cost, nodes) order, at its left-to-right cost: on the acceptance
        corpus with costs as drawn and mixed with zero-cost channels.
        With 0.1/0.2/0.3, whose sums depend on the order they are added
        in, equal sums can round apart, so there the cost is the least to
        rounding."""
        weight = _channel_cost
        for seed in range(9000, 9100):
            rng = random.Random(seed)
            problem = random_problem(rng)
            if costs is not None:
                problem.channels = [dataclasses.replace(ch, cost=rng.choice(costs))
                                    for ch in problem.channels]
            instance = build_redundant_mlg(problem)
            graph = instance.graph
            adj = graph.adjacency(1)
            for server in instance.server_ids():
                tree = cheapest_paths_from(graph, 1, [server], weight)
                for goal in graph.nodes(1):
                    every = sorted((_add_hops(0.0, nodes, adj), nodes)
                                   for nodes in design._simple_paths(graph, server, goal))
                    if not every:
                        assert goal not in tree
                        continue
                    cost, nodes = tree[goal]
                    assert cost == _add_hops(0.0, nodes, adj)
                    if costs == (0.1, 0.2, 0.3):
                        assert cost == pytest.approx(every[0][0], rel=1e-12)
                    else:
                        assert (cost, nodes) == every[0]

    @pytest.mark.parametrize("costs", [None, (0.0, 0.5, 1.0, 2.5), (0.1, 0.2, 0.3)])
    def test_forest_merges_server_trees(self, costs):
        """From every server at once the search settles each path's
        parent before it.  When costs add exactly (as drawn, and mixed
        with zero-cost channels) each node's path is the least (cost,
        nodes) over the single-server trees.  With 0.1/0.2/0.3 equal sums
        can round apart, so there only the costs agree, to rounding.  On
        the acceptance corpus and ``big_problem`` seeds 1-3 (5 servers)."""
        weight = _channel_cost
        problems = [(random.Random(seed), random_problem(random.Random(seed)))
                    for seed in range(9000, 9100)]
        problems += [(random.Random(seed), big_problem(seed)) for seed in range(1, 4)]
        for rng, problem in problems:
            if costs is not None:
                problem.channels = [dataclasses.replace(ch, cost=rng.choice(costs))
                                    for ch in problem.channels]
            instance = build_redundant_mlg(problem)
            graph, servers = instance.graph, instance.server_ids()
            forest = cheapest_paths_from(graph, 1, servers, weight)
            merged: dict = {}
            for server in servers:
                for node, entry in cheapest_paths_from(graph, 1, [server], weight).items():
                    merged[node] = min(merged.get(node, entry), entry)
            assert forest.keys() == merged.keys()
            settled = list(forest)
            for node, (cost, nodes) in forest.items():
                if len(nodes) > 1:
                    assert settled.index(nodes[-2]) < settled.index(node)
                if costs == (0.1, 0.2, 0.3):
                    assert cost == pytest.approx(merged[node][0], rel=1e-12)
                else:
                    assert (cost, nodes) == merged[node]


class TestFormulations:
    def test_link_path_shape(self, t1_instance):
        paths = {c.id: all_candidate_paths(t1_instance, c)
                 for c in t1_instance.commodities}
        lp = formulate_link_path(t1_instance, paths).lp
        assert len(lp.variables) == 8
        names = [c.name for c in lp.constraints]
        assert sum(n.startswith("demand[") for n in names) == 2
        assert sum(n.startswith("capacity[") for n in names) == 5
        assert sum(n.startswith("productivity[") for n in names) == 2

    def test_node_link_shape(self, t1_instance):
        lp = formulate_node_link(t1_instance).lp
        # one aggregated flow: 10 directed arcs + 2 injections
        assert len(lp.variables) == 12
        names = [c.name for c in lp.constraints]
        assert sum(n.startswith("conservation[") for n in names) == 5

    def test_node_link_single_homing_shape(self, t1_instance):
        lp = formulate_node_link(t1_instance, single_homing=True).lp
        # one flow per server: 2 servers x (10 arcs + 1 injection) + 4 homing binaries
        assert len(lp.variables) == 26
        assert len(lp.integer_indices()) == 4
        names = [c.name for c in lp.constraints]
        assert sum(n.startswith("conservation[s1,") for n in names) == 5
        assert sum(n.startswith("conservation[s2,") for n in names) == 5
        assert not any(n.startswith("homing[") for n in names)
        # y[u1,s1] takes u1's demand of 3 out of s1's flow at u1's node
        col = {v.name: j for j, v in enumerate(lp.variables)}
        row = next(c for c in lp.constraints if c.name == "conservation[s1,u1]")
        assert row.rhs == 0.0
        assert row.coeffs[col["y[u1,s1]"]] == -3.0
        assert col["y[u1,s2]"] not in row.coeffs

    def test_single_homing_adds_binaries(self, t1_instance):
        lp = formulate_node_link(t1_instance, single_homing=True).lp
        assert len(lp.integer_indices()) == 4

    @staticmethod
    def formulate(instance, formulation, single_homing=False):
        if formulation == "node-link":
            return formulate_node_link(instance, single_homing=single_homing).lp
        paths = {c.id: all_candidate_paths(instance, c)
                 for c in instance.commodities}
        return formulate_link_path(instance, paths, single_homing=single_homing).lp

    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    def test_capacity_rows_read_the_graph(self, t1_instance, formulation):
        graph = t1_instance.graph
        graph.find_intra(1, "u1", "z1").capacity = math.inf
        graph.find_inter(t1_instance.service_node, NodeRef(2, "s1")).capacity = math.inf
        graph.find_inter(t1_instance.service_node, NodeRef(2, "s2")).capacity = 6.0
        lp = self.formulate(t1_instance, formulation)
        rhs = {c.name: c.rhs for c in lp.constraints
               if c.name.startswith(("capacity[", "productivity["))}
        assert rhs == {"capacity[b2]": 10.0, "capacity[b3]": 10.0,
                       "capacity[b4]": 10.0, "capacity[b5]": 10.0,
                       "productivity[s2]": 6.0}

    @pytest.mark.parametrize("formulation, balance", [
        ("node-link", "conservation"), ("link-path", "demand")])
    def test_single_homing_row_layout(self, t1_instance, formulation, balance):
        lp = self.formulate(t1_instance, formulation, single_homing=True)
        kinds = [c.name.split("[")[0] for c in lp.constraints]
        # node-link's y columns enter its conservation rows: no homing rows
        homing = ["homing"] if formulation == "link-path" else []
        assert [k for i, k in enumerate(kinds) if i == 0 or k != kinds[i - 1]] == \
            ["assign", balance, *homing, "capacity", "productivity"]


DATA = pathlib.Path(__file__).parent / "data"

# each row kind and the ids its key holds after the kind
ROW_KEYS = {"assign": ("cid",), "demand": ("cid",), "homing": ("cid", "server"),
            "conservation": ("group", "node"), "capacity": ("channel",),
            "productivity": ("server",), "coupling": ("channel",)}


class TestRowRegistry:
    """``_Formulation.rows`` finds every row by its key; a row's name is
    only a label, formatted from the key."""

    @staticmethod
    def label(key):
        """``kind[id,...]``, a ``None`` group left out, an id written as a
        JSON string when it holds one of ``,[]">`` or starts or ends with
        ``-``."""
        ids = [json.dumps(part, ensure_ascii=False) if re.search(r'[,\[\]">]|^-|-$', part)
               else part for part in key[1:] if part is not None]
        return f"{key[0]}[{','.join(ids)}]"

    @staticmethod
    def solved_forms(name, formulation, mode, monkeypatch):
        """Solve ``tests/data/<name>.json`` in ``mode`` and return the
        formulation the solve posed, with the (commodity, path, column)
        of every path :func:`design._append_path` appended to it, and how
        many of those were appended before the solve began."""
        instance = build_redundant_mlg(parse_problem(str(DATA / f"{name}.json")))
        forms, appended, posed = [], [], []
        add_row, append_path = design._add_row, design._append_path
        simplex_solve = design.simplex_solve

        def recorded_row(form, *args):
            if not any(form is seen for seen in forms):
                forms.append(form)
            add_row(form, *args)

        def recorded_path(instance, form, paths):
            first = len(form.lp.variables)
            append_path(instance, form, paths)
            appended.extend((cid, path, first + i) for i, (cid, path) in enumerate(paths))

        def recorded_solve(*args, **kwargs):
            posed.append(len(appended))
            return simplex_solve(*args, **kwargs)

        monkeypatch.setattr(design, "_add_row", recorded_row)
        monkeypatch.setattr(design, "_append_path", recorded_path)
        monkeypatch.setattr(design, "simplex_solve", recorded_solve)
        single_homing = mode in ("single-homing", "fixed-charge-single-homing")
        if mode.startswith("fixed-charge"):
            fixed = (json.loads((DATA / "bnb04.fixed.json").read_text()) if name == "bnb04"
                     else dict.fromkeys(instance.channel_edges, 1.0))
            solve_uncapacitated(instance, fixed, formulation=formulation,
                                single_homing=single_homing)
        else:
            solve_capacitated(instance, formulation=formulation, single_homing=single_homing)
        assert len(forms) == 1
        return forms[0], appended, posed[0]

    @pytest.mark.parametrize("mode", ["capacitated", "single-homing", "fixed-charge",
                                      "fixed-charge-single-homing"])
    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    @pytest.mark.parametrize("name", ["t1", "five_routes", "bnb04", "comma_ids"])
    def test_every_row_once_by_key(self, name, formulation, mode, monkeypatch):
        """Each posed row is listed once, under a key of its kind whose
        label is the row's name, also where ids hold commas
        (``comma_ids.json``: commodity ``a`` on server ``b,c`` and
        commodity ``a,b`` on server ``c``).  Each
        appended path column has coefficient 1 in exactly the rows its
        keys name that the program has."""
        form, appended, first = self.solved_forms(name, formulation, mode, monkeypatch)
        constraints = form.lp.constraints
        assert sorted(form.rows.values()) == list(range(len(constraints)))
        for key, i in form.rows.items():
            assert len(key) == 1 + len(ROW_KEYS[key[0]])
            assert constraints[i].name == self.label(key)
        assert any(key[0] == "coupling" for key in form.rows) == mode.startswith("fixed-charge")
        for cid, path, j in appended:
            keys = [("demand", cid), ("productivity", path.server),
                    ("homing", cid, path.server)]
            keys += [(kind, ch) for ch in path.channels for kind in ("capacity", "coupling")]
            assert {i: con.coeffs[j] for i, con in enumerate(constraints) if j in con.coeffs} \
                == {form.rows[key]: 1.0 for key in keys if key in form.rows}
        if name == "five_routes" and formulation == "link-path":
            assert (first, len(appended) - first) == (1, 4)  # one path is posed, four priced

    def test_comma_ids_homing_rows_read_apart(self):
        """The single-homing link-path program of ``comma_ids.json`` has a
        homing row for commodity ``a`` on server ``b,c`` and one for
        commodity ``a,b`` on server ``c``: an id holding a comma is
        quoted, so their labels read apart."""
        instance = build_redundant_mlg(parse_problem(str(DATA / "comma_ids.json")))
        form = design._link_path(instance, single_homing=True)
        constraints = form.lp.constraints
        assert constraints[form.rows["homing", "a", "b,c"]].name == 'homing[a,"b,c"]'
        assert constraints[form.rows["homing", "a,b", "c"]].name == 'homing["a,b",c]'

    @pytest.mark.parametrize("mode", ["capacitated", "single-homing", "fixed-charge",
                                      "fixed-charge-single-homing"])
    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    @pytest.mark.parametrize("name", ["comma_ids", "dashed_ids"])
    def test_labels_read_apart(self, name, formulation, mode, monkeypatch):
        """Within a posed program no two rows share a label and no two
        columns a name, so a certificate names one row or bound: ids may
        hold commas (``comma_ids.json``) and dashes (``dashed_ids.json``)."""
        form, _appended, _first = self.solved_forms(name, formulation, mode, monkeypatch)
        rows = [con.name for con in form.lp.constraints]
        columns = [var.name for var in form.lp.variables]
        assert len(set(rows)) == len(rows)
        assert len(set(columns)) == len(columns)


class TestSolveCapacitated:
    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    def test_t1_optimum(self, t1_instance, formulation):
        sol = solve_capacitated(t1_instance, formulation=formulation)
        assert sol.objective == pytest.approx(14.0, abs=1e-6)
        flows = {name: sol.edge_flows.get(t1_instance.channel_edges[name].key, 0.0)
                 for name in t1_instance.channel_edges}
        assert flows["b1"] == pytest.approx(3.0, abs=1e-6)
        assert flows["b2"] == pytest.approx(4.0, abs=1e-6)
        assert flows["b3"] + flows["b4"] == pytest.approx(7.0, abs=1e-6)
        assert flows["b5"] == pytest.approx(0.0, abs=1e-6)
        assert sol.selected_channels == ["b1", "b2", "b3", "b4"]

    def test_relaxation_recorded(self, t1_instance):
        sol = solve_capacitated(t1_instance)
        assert sol.relaxation_objective == pytest.approx(14.0, abs=1e-6)

    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    def test_single_homing_assignment(self, t1_instance, formulation):
        sol = solve_capacitated(t1_instance, formulation=formulation,
                                single_homing=True)
        assert sol.objective == pytest.approx(14.0, abs=1e-6)
        assignment = {srv: [sub for sub, _ in pairs]
                      for srv, pairs in sol.assignment.items()}
        assert assignment == {"s1": ["u1"], "s2": ["u2"]}

    def test_routes_carry_full_demand(self, t1_instance):
        sol = solve_capacitated(t1_instance)
        for c in t1_instance.commodities:
            total = sum(flow for _, flow in sol.routes[c.id])
            assert total == pytest.approx(c.demand, abs=1e-6)

    def test_over_demand_infeasible(self):
        problem = t1_problem()
        problem.subscribers[0].sessions[0].volume = 8.0  # demand 12 > capacity 10
        instance = build_redundant_mlg(problem)
        with pytest.raises(InfeasibleError) as err:
            solve_capacitated(instance)
        assert any(name.startswith("productivity[") for name in err.value.certificate)

    def test_unknown_formulation(self, t1_instance):
        with pytest.raises(ValueError):
            solve_capacitated(t1_instance, formulation="arc-path")

    @pytest.mark.parametrize("uncapacitated", [False, True])
    @pytest.mark.parametrize("formulation, k", [("bogus", 4), ("node-link", 0),
                                                ("link-path", 0), ("link-path", -3)])
    def test_drivers_check_arguments_first(self, uncapacitated, formulation, k, tmp_path,
                                           capsys):
        """Both library drivers refuse an unknown formulation before
        anything else, on an instance with no demand to route too.  They
        take no k; the CLI refuses ``--k`` below 1, or with node-link,
        before it reads the problem file, here one that does not exist."""
        if formulation != "bogus":
            mode = ["--mode", "uncapacitated"] if uncapacitated else []
            with pytest.raises(SystemExit) as exit_:
                main(["solve", str(tmp_path / "missing.json"), *mode, "--formulation",
                      formulation, "--k", str(k)])
            assert exit_.value.code == 2 and "argument --k" in capsys.readouterr().err
            return
        problem = t1_problem()
        for sub in problem.subscribers:
            sub.sessions = []
        instance = build_redundant_mlg(problem)
        assert not instance.commodities
        with pytest.raises(ValueError):
            if uncapacitated:
                solve_uncapacitated(instance, {}, formulation=formulation)
            else:
                solve_capacitated(instance, formulation=formulation)

    def test_feasibility_closure(self, t1_instance):
        sol = solve_capacitated(t1_instance)
        assert check_conservation(t1_instance.graph, sol.flow_assignment,
                                  t1_instance.commodities).ok
        assert check_capacities(t1_instance.graph, sol.flow_assignment).ok


def corpus_and_scaled_problems(scales, costs=None):
    """The acceptance corpus and ``big_problem`` seeds 1-5 at ``scales``,
    with channel costs as drawn or, given ``costs``, redrawn from them."""
    problems = [(random.Random(seed), random_problem(random.Random(seed)))
                for seed in range(9000, 9100)]
    problems += [(random.Random(seed), scaled_big_problem(seed, scale))
                 for seed in range(1, 6) for scale in scales]
    for rng, problem in problems:
        if costs is not None:
            problem.channels = [dataclasses.replace(ch, cost=rng.choice(costs))
                                for ch in problem.channels]
        yield problem


def corpus_and_scaled(scales, costs=None):
    """The problems of :func:`corpus_and_scaled_problems`, built."""
    for problem in corpus_and_scaled_problems(scales, costs):
        yield build_redundant_mlg(problem)


class TestPricedLinkPath:
    COSTS = (0.1, 0.2, 0.3, 0.5, 1.0, 2.5)

    @classmethod
    def instances(cls, redraw):
        """The acceptance corpus and ``big_problem`` seeds 1-5 at 0.5x and
        1x, with channel costs as drawn or redrawn from ``COSTS``."""
        return corpus_and_scaled((0.5, 1), cls.COSTS if redraw else None)

    @staticmethod
    def objective(solve):
        try:
            return solve().objective
        except InfeasibleError:
            return None

    @pytest.mark.parametrize("redraw", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_same_optimum_as_full_pools(self, k, redraw, tmp_path):
        """Priced link-path, solved by the CLI at ``--k`` k, reaches the
        optimum over every path (the full pools), which node-link
        computes, within 1e-9 relative, or both are infeasible, whatever
        the k: ``--k`` is accepted and has no effect."""
        problem_path, out = str(tmp_path / "problem.json"), tmp_path / "out.json"
        for problem in corpus_and_scaled_problems((0.5, 1), self.COSTS if redraw else None):
            write_problem(problem, problem_path)
            out.unlink(missing_ok=True)
            code = main(["solve", problem_path, "--formulation", "link-path", "--k", str(k),
                         "-o", str(out)])
            assert code in (0, 1)
            priced = json.loads(out.read_text())["objective"] if code == 0 else None
            full = self.objective(lambda: solve_capacitated(build_redundant_mlg(problem)))
            if full is None:
                assert priced is None
            else:
                assert priced == pytest.approx(full, rel=1e-9)

    def test_redrawn_seed5_at_1x(self):
        """The last redrawn instance, ``big_problem(5)`` at 1x, costs 57.7
        in both formulations, though the LP over only each server's first
        4 or 8 paths is infeasible."""
        instance = list(self.instances(redraw=True))[-1]
        assert len(instance.commodities) == 20
        sol = solve_capacitated(instance, formulation="link-path")
        assert sol.objective == pytest.approx(57.7, rel=1e-9)
        assert solve_capacitated(instance).objective == pytest.approx(57.7, rel=1e-9)

    def test_farkas_proof_holds_for_every_path(self, monkeypatch):
        """On every corpus instance within the oracle's limits that priced
        link-path finds infeasible, the brute-force oracle agrees, and
        the multipliers u of the last LP solved prove it for the LP over
        every path: u @ b > 0, u <= 0 on each ``<=`` row, and u @ A_p <=
        1e-9 for every path p of :func:`all_candidate_paths`, a row the
        LP lacks counting 0."""
        solved = []
        solve = design.simplex_solve

        def recorded(lp, *args, **kwargs):
            solved.append((lp, solve(lp, *args, **kwargs)))
            return solved[-1][1]

        monkeypatch.setattr(design, "simplex_solve", recorded)
        proofs = 0
        for seed in range(9000, 9100):
            instance = build_redundant_mlg(random_problem(random.Random(seed)))
            solved.clear()
            try:
                solve_capacitated(instance, formulation="link-path")
                continue
            except InfeasibleError:
                pass
            try:
                brute_force_oracle(instance)
            except LimitsExceeded:
                continue
            except InfeasibleError:
                pass
            else:
                pytest.fail(f"seed {seed}: the oracle found a design")
            lp, sol = solved[-1]
            u = dict(zip((con.name for con in lp.constraints), sol.farkas.tolist()))
            assert sum(u[con.name] * con.rhs for con in lp.constraints) > 1e-9
            assert all(u[con.name] <= 1e-9 for con in lp.constraints if con.relation == "<=")
            for c in instance.commodities:
                for p in all_candidate_paths(instance, c):
                    priced = (u[f"demand[{c.id}]"] + u.get(f"productivity[{p.server}]", 0.0)
                              + sum(u.get(f"capacity[{ch}]", 0.0) for ch in p.channels))
                    assert priced <= 1e-9
            proofs += 1
        assert proofs == 11  # every infeasible corpus instance

    def test_final_lp_small_at_2x(self, monkeypatch):
        """At ``big_problem(seed=1)`` 2x the last LP solved has at most 600
        columns; over every server's first 4 paths it has 1,591."""
        sizes = []
        solve = design.simplex_solve

        def counted(lp, *args, **kwargs):
            sol = solve(lp, *args, **kwargs)
            sizes.append(len(lp.variables))
            return sol

        monkeypatch.setattr(design, "simplex_solve", counted)
        instance = build_redundant_mlg(scaled_big_problem(1, 2))
        sol = solve_capacitated(instance, formulation="link-path")
        assert sol.objective == pytest.approx(249.0, abs=1e-6)
        assert sizes and max(sizes) <= 600

    def test_row_restricted_pivots_match_dense(self, monkeypatch):
        """The capacitated link-path LPs at ``big_problem(seed=1)`` 2x
        have more than ``SPARSE_PIVOT_ROWS`` rows, and most of their
        pivots move fewer than a quarter of them, so those update only the
        moved inverse rows.  With the update forced dense every solve takes
        the same pivots to the same objective, values and duals."""
        restricted = []
        pivot = lp_module._Tableau._pivot

        def counted(tab, row, col, direction, *args, **kwargs):
            moved = np.count_nonzero(direction) - 1  # the pivot entry is nonzero
            restricted.append(len(direction) > lp_module.SPARSE_PIVOT_ROWS
                              and 4 * moved < len(direction))
            pivot(tab, row, col, direction, *args, **kwargs)

        def solves():
            out = []
            solve = design.simplex_solve

            def recorded(*args, **kwargs):
                out.append(solve(*args, **kwargs))
                return out[-1]

            with monkeypatch.context() as patch:
                patch.setattr(design, "simplex_solve", recorded)
                solve_capacitated(instance, formulation="link-path")
            return out

        instance = build_redundant_mlg(scaled_big_problem(1, 2))
        monkeypatch.setattr(lp_module._Tableau, "_pivot", counted)
        sparse = solves()
        assert sum(restricted) > len(restricted) / 2
        monkeypatch.setattr(lp_module, "SPARSE_PIVOT_ROWS", 10 ** 9)
        dense = solves()
        assert len(sparse) == len(dense) > 0
        for a, b in zip(sparse, dense):
            assert (a.status, a.iterations, a.objective) == (b.status, b.iterations, b.objective)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.duals, b.duals)


class TestStartBasis:
    COSTS = (0.0, 0.5, 1.0, 2.5)

    @classmethod
    def instances(cls, redraw):
        """The acceptance corpus and ``big_problem`` seeds 1-5 at 0.5x, 1x
        and 2x, with channel costs as drawn or redrawn from ``COSTS``."""
        return corpus_and_scaled((0.5, 1, 2), cls.COSTS if redraw else None)

    @pytest.mark.parametrize("redraw", [False, True])
    def test_forest_start_is_exact_and_dual_feasible(self, redraw):
        """The node-link start gives each server's row its injection and
        each node the forest reaches the arc from its parent.  Its pivots
        are +-1, so the inverse is exact, and no column prices below 0."""
        for instance in self.instances(redraw):
            if not instance.commodities:
                continue
            form = formulate_node_link(instance)
            basis = Basis.of(form.lp, form.start)
            names = basis.form.var_names
            given = {names[j] for j in form.start.values()}
            assert {f"inj[{s}]" for s in instance.server_ids()} <= given
            std = basis.form
            assert np.array_equal(basis.inverse @ std.A[:, basis.columns], np.eye(std.m))
            duals = std.cost[basis.columns] @ basis.inverse
            assert (std.cost - duals @ std.A)[:std.n].min() >= -1e-9

    @staticmethod
    def started_solves(monkeypatch):
        """Solve cold, too, every program ``design`` solves from a
        ``Basis.of`` start, and stop each search at its root: returns
        (names a certificate may use, started, cold) per such solve."""
        made, pairs = [], []
        of = Basis.of

        def recorded(lp, columns):
            made.append(of(lp, columns))
            return made[-1]

        def both(lp, *args, start=None, price=None, **kwargs):
            sol = lp_module.simplex_solve(lp, *args, start=start, price=price, **kwargs)
            if any(start is basis for basis in made):
                names = ({con.name for con in lp.constraints}
                         | {f"bound[{v.name}]" for v in lp.variables})
                # cold over the program the priced solve ended with: a second
                # pricer run would append columns the returned values lack
                pairs.append((names, sol, lp_module.simplex_solve(lp, *args, **kwargs)))
            return sol

        def root_only(lp, root, **kwargs):
            raise LimitsExceeded("root only")

        monkeypatch.setattr(Basis, "of", recorded)
        monkeypatch.setattr(design, "simplex_solve", both)
        monkeypatch.setattr(design, "branch_and_bound", root_only)
        return pairs

    @pytest.mark.parametrize("redraw", [False, True])
    def test_started_solves_match_cold(self, redraw, monkeypatch):
        """Capacitated node-link, the fixed-charge node-link root (unit
        fixed costs) and the priced link-path LP, started from their
        named bases, reach the status of the cold solve, its objective
        within 1e-9 relative, and certificates that name rows and bounds
        of the program."""
        pairs = self.started_solves(monkeypatch)
        solved = 0
        for instance in self.instances(redraw):
            if not instance.commodities:
                continue
            solved += 1
            fixed = dict.fromkeys(instance.channel_edges, 1.0)
            for solve in (lambda: solve_capacitated(instance),
                          lambda: solve_uncapacitated(instance, fixed),
                          lambda: solve_capacitated(instance, formulation="link-path")):
                try:
                    solve()
                except (InfeasibleError, LimitsExceeded):
                    pass
        assert len(pairs) == 3 * solved
        for names, started, cold in pairs:
            assert started.status == cold.status
            if cold.status == "Optimal":
                assert started.objective == pytest.approx(cold.objective, rel=1e-9)
            else:
                assert started.certificate and set(started.certificate) <= names

    @pytest.mark.parametrize("formulation, most", [("node-link", 60), ("link-path", 45)])
    def test_pivots_at_2x(self, formulation, most, monkeypatch):
        """At ``big_problem(seed=1)`` 2x capacitated node-link takes 26
        pivots from the forest (156 from the logical basis) and priced
        link-path 27 over its solves (69)."""
        pivots = []
        solve = design.simplex_solve

        def counted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            pivots.append(sol.iterations)
            return sol

        monkeypatch.setattr(design, "simplex_solve", counted)
        instance = build_redundant_mlg(scaled_big_problem(1, 2))
        sol = solve_capacitated(instance, formulation=formulation)
        assert sol.objective == pytest.approx(249.0, abs=1e-6)
        assert sum(pivots) <= most

    @staticmethod
    def forced_pivot_inverse(form, columns):
        """The inverse reached from B = I by one dense pivot per given
        column, in the map's order."""
        inverse = np.eye(form.m)
        for row, col in columns.items():
            direction = inverse @ form.A[:, col]
            inverse[row] /= direction[row]
            direction[row] = 0.0
            inverse -= np.outer(direction, inverse[row])
        return inverse

    def test_named_starts_are_exact(self, monkeypatch):
        """Every start the formulations name (the node-link forest, the
        fixed-charge node-link root's forest and each commodity's
        cheapest path under pricing) on the corpus and ``big_problem``
        seeds 1-5 at 0.5x and 2x: the inverse times the basis is I
        exactly, and the inverse equals that of one forced pivot per
        column exactly."""
        made = []
        of = Basis.of

        def recorded(lp, columns):
            made.append((dict(columns), of(lp, columns)))
            return made[-1][1]

        def root_only(lp, root, **kwargs):
            raise LimitsExceeded("root only")

        monkeypatch.setattr(Basis, "of", recorded)
        monkeypatch.setattr(design, "branch_and_bound", root_only)
        for instance in corpus_and_scaled((0.5, 2)):
            fixed = dict.fromkeys(instance.channel_edges, 1.0)
            for solve in (lambda: solve_capacitated(instance),
                          lambda: solve_uncapacitated(instance, fixed),
                          lambda: solve_capacitated(instance, formulation="link-path")):
                try:
                    solve()
                except (InfeasibleError, LimitsExceeded):
                    pass
        assert len(made) > 300
        for columns, basis in made:
            std = basis.form
            assert np.array_equal(basis.inverse @ std.A[:, basis.columns], np.eye(std.m))
            assert np.array_equal(basis.inverse, self.forced_pivot_inverse(std, columns))

    def test_no_lapack(self, t1_instance, monkeypatch):
        """No solve inverts or factors a matrix by LAPACK."""
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        instance = build_redundant_mlg(scaled_big_problem(1, 2))
        for formulation in ("node-link", "link-path"):
            sol = solve_capacitated(instance, formulation=formulation)
            assert sol.objective == pytest.approx(249.0, abs=1e-6)
            fixed = dict.fromkeys(t1_instance.channel_edges, 1.0)
            sol = solve_uncapacitated(t1_instance, fixed, formulation=formulation)
            assert sol.objective == pytest.approx(18.0, abs=1e-6)


class TestSolveUncapacitated:
    def test_t1_with_unit_fixed_costs(self, t1_instance):
        fixed = {ch: 1.0 for ch in t1_instance.channel_edges}
        sol = solve_uncapacitated(t1_instance, fixed)
        assert sol.objective == pytest.approx(18.0, abs=1e-6)
        assert sol.selected_channels == ["b1", "b2", "b3", "b4"]

    def test_zero_fixed_costs_match_capacitated(self, t1_instance):
        sol = solve_uncapacitated(t1_instance, {})
        assert sol.objective == pytest.approx(14.0, abs=1e-6)

    @pytest.mark.parametrize("single_homing", [False, True])
    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    def test_zero_fixed_costs_match_capacitated_on_corpus(self, formulation, single_homing):
        """With every fixed cost 0 the fixed-charge program is the
        capacitated one plus free ``use`` columns, so on each instance of
        the acceptance corpus it reaches the capacitated optimum, or the
        same infeasibility."""

        def objective(solve, *args):
            try:
                return solve(*args, formulation=formulation,
                             single_homing=single_homing).objective
            except InfeasibleError:
                return None

        feasible = 0
        for seed in range(9000, 9100):
            instance = build_redundant_mlg(random_problem(random.Random(seed)))
            want = objective(solve_capacitated, instance)
            got = objective(solve_uncapacitated, instance,
                            dict.fromkeys(instance.channel_edges, 0.0))
            assert (got is None) == (want is None), seed
            if want is not None:
                assert abs(got - want) <= 1e-9, seed
                feasible += 1
        assert feasible == {False: 89, True: 75}[single_homing]

    def test_mandatory_channel_kept_despite_price(self, t1_instance):
        # b1 is the only channel into u1, so it stays selected at any price
        fixed = {"b1": 100.0}
        sol = solve_uncapacitated(t1_instance, fixed)
        assert "b1" in sol.selected_channels

    def test_unknown_channel_rejected(self, t1_instance):
        with pytest.raises(KeyError):
            solve_uncapacitated(t1_instance, {"zz": 1.0})

    def test_negative_fixed_cost_rejected(self, t1_instance):
        with pytest.raises(ValueError):
            solve_uncapacitated(t1_instance, {"b1": -1.0})

    @pytest.mark.parametrize("cost", [math.nan, math.inf])
    def test_non_finite_fixed_cost_rejected(self, t1_instance, cost):
        with pytest.raises(ValueError):
            solve_uncapacitated(t1_instance, {"b1": cost})

    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    def test_branch_and_bound_size(self, formulation, monkeypatch):
        """Branching up first finds the fixed-charge optimum of this
        12-subscriber, 26-channel instance in 197 LP solves in both
        formulations (node-link took 213 when its root started from the
        logical basis, not the servers' forest); down first took 3849
        and 3693.  Pruning
        nodes that only tie the incumbent proves the single-homing
        optimum in 43 and 21 solves, where exploring them took 51 and 29.
        An LP solve is a ``simplex_solve`` call or a node LP of the
        search (``LpSolution.nodes``), which no longer calls it."""
        calls = []
        original = lp_module.simplex_solve
        search = design.branch_and_bound

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        def nodes_counted(*args, **kwargs):
            sol = search(*args, **kwargs)
            calls.extend([1] * sol.nodes)
            return sol

        monkeypatch.setattr(lp_module, "simplex_solve", counted)
        monkeypatch.setattr(design, "simplex_solve", counted)
        monkeypatch.setattr(design, "branch_and_bound", nodes_counted)
        instance = build_redundant_mlg(
            big_problem(seed=1, n_sub=12, n_srv=3, n_int=2, n_ch=26, slack=1))
        fixed = {ch: 1.0 for ch in instance.channel_edges}
        sol = solve_uncapacitated(instance, fixed, formulation=formulation)
        assert sol.objective == pytest.approx(78.0, abs=1e-6)
        assert len(calls) <= 500

        calls.clear()
        sol = solve_capacitated(instance, formulation=formulation, single_homing=True)
        assert sol.objective == pytest.approx(64.0, abs=1e-6)
        assert len(calls) <= {"node-link": 45, "link-path": 25}[formulation]


def posed_fixed_charge(instance, fixed, monkeypatch, **kwargs):
    """The program ``solve_uncapacitated`` poses, and its solution."""
    programs = []
    solve = design.simplex_solve

    def captured(lp, *args, **kwargs):
        programs.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(design, "simplex_solve", captured)
    sol = solve_uncapacitated(instance, fixed, **kwargs)
    return programs[0], sol


def use_bounds(lp):
    """Channel id -> its ``use`` column's (lower, upper) as posed."""
    lower, upper = lp.bounds()
    return {v.name[4:-1]: (lower[j], upper[j]) for j, v in enumerate(lp.variables)
            if v.name.startswith("use[")}


class TestRequiredChannels:
    """A channel every route of some subscriber with demand crosses is
    posed open: ``use`` in [1, 1]."""

    @staticmethod
    def instance(extra_subscribers=(), extra_channels=(), intermediates=("z1", "z2", "z3")):
        """Servers s1 and s2 on a cycle with z1; u1 hangs off z1 by
        ``pend``; the bridge z1-z2 leads to a part with no server, where
        u2 sits on the cycle z2-u2-z3."""
        channels = [Channel("s1z1", ("s1", "z1"), 10.0), Channel("s2z1", ("s2", "z1"), 10.0),
                    Channel("s1s2", ("s1", "s2"), 10.0), Channel("pend", ("u1", "z1"), 10.0),
                    Channel("bridge", ("z1", "z2"), 10.0), Channel("z2u2", ("z2", "u2"), 10.0),
                    Channel("z2z3", ("z2", "z3"), 10.0), Channel("z3u2", ("z3", "u2"), 10.0),
                    *extra_channels]
        subscribers = [Subscriber("u1", [Session("u1", 3.0)]),
                       Subscriber("u2", [Session("u2", 2.0)]), *extra_subscribers]
        return build_redundant_mlg(DesignProblem(
            subscribers=subscribers, servers=[Server("s1", 5.0), Server("s2", 5.0)],
            service_id="v0", service_productivity=10.0, intermediates=list(intermediates),
            channels=channels))

    @pytest.mark.parametrize("single_homing", [False, True])
    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    def test_pendant_and_bridge_posed_open(self, formulation, single_homing, monkeypatch):
        instance = self.instance()
        fixed = dict.fromkeys(instance.channel_edges, 1.0)
        lp, sol = posed_fixed_charge(instance, fixed, monkeypatch, formulation=formulation,
                                     single_homing=single_homing)
        bounds = use_bounds(lp)
        assert {ch for ch, (lo, _up) in bounds.items() if lo == 1.0} == {"pend", "bridge"}
        assert bounds["pend"] == bounds["bridge"] == (1.0, 1.0)
        for ch in ("s1z1", "s2z1", "s1s2", "z2u2", "z2z3", "z3u2"):  # each on a cycle
            assert bounds[ch] == (0.0, 1.0)
        assert {"pend", "bridge"} <= set(sol.selected_channels)

    def test_unreached_subscriber_fixes_nothing(self, monkeypatch):
        """u3 and z4 form a part no server reaches: the design is
        infeasible, its channel is not required, and the certificate is
        the one posed without any required channel."""
        instance = self.instance(
            extra_subscribers=[Subscriber("u3", [Session("u3", 1.0)])],
            extra_channels=[Channel("z4u3", ("z4", "u3"), 10.0)],
            intermediates=("z1", "z2", "z3", "z4"))
        fixed = dict.fromkeys(instance.channel_edges, 1.0)
        assert design._required_channels(instance) == {"pend", "bridge"}
        with pytest.raises(InfeasibleError) as required:
            solve_uncapacitated(instance, fixed)
        monkeypatch.setattr(design, "_required_channels", lambda inst: set())
        with pytest.raises(InfeasibleError) as unrequired:
            solve_uncapacitated(instance, fixed)
        assert required.value.certificate == unrequired.value.certificate
        assert "conservation[u3]" in required.value.certificate

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_a_search_per_channel(self, seed):
        """The forest-path shortcut finds what one reachability search
        without each channel in turn finds."""
        instance = build_redundant_mlg(random_problem(random.Random(9000 + seed)) if seed % 2
                                       else big_problem(seed, n_sub=6, n_srv=2, n_int=3,
                                                        n_ch=12, slack=1))
        adj, servers = instance.graph.adjacency(1), instance.server_ids()

        def reached(banned):
            seen, stack = set(servers), list(servers)
            while stack:
                for nbr, edge in adj[stack.pop()].items():
                    if nbr not in seen and edge.key != banned:
                        seen.add(nbr)
                        stack.append(nbr)
            return seen

        sinks = {c.sink.id for c in instance.commodities} & reached(None)
        assert design._required_channels(instance) == {
            ch for ch, edge in instance.channel_edges.items()
            if not sinks <= reached(edge.key)}

    def test_t1_spokes_required(self, t1_instance):
        """u1 and u2 each hang off z1 by one channel; z1 reaches both
        servers, which are on a cycle."""
        assert design._required_channels(t1_instance) == {"b1", "b2"}


class TestIntegralObjective:
    @pytest.mark.parametrize("formulation, single_homing, flagged",
                             [("node-link", False, True), ("node-link", True, False),
                              ("link-path", False, True), ("link-path", True, False)])
    def test_flag_only_for_node_link_without_homing(self, formulation, single_homing,
                                                    flagged, t1_instance, monkeypatch):
        """Set without single homing in both formulations: priced link-path
        is exact over every path, so with ``use`` fixed it is node-link's
        min-cost flow."""
        fixed = dict.fromkeys(t1_instance.channel_edges, 2.0)
        lp, _sol = posed_fixed_charge(t1_instance, fixed, monkeypatch,
                                      formulation=formulation, single_homing=single_homing)
        assert lp.integral_objective is flagged

    @pytest.mark.parametrize("field, value", [("fixed", 0.5), ("cost", 1.5),
                                              ("capacity", 2.5)])
    def test_fractional_data_leaves_it_off(self, field, value, monkeypatch):
        problem = t1_problem()
        if field != "fixed":
            problem.channels[2] = dataclasses.replace(problem.channels[2], **{field: value})
        instance = build_redundant_mlg(problem)
        fixed = dict.fromkeys(instance.channel_edges, 1.0)
        if field == "fixed":
            fixed["b3"] = value
        lp, _sol = posed_fixed_charge(instance, fixed, monkeypatch)
        assert lp.integral_objective is False

    def test_fewer_nodes_same_design(self, monkeypatch):
        """On the 12/26 instance the prune skips node-link nodes and
        returns the design the search returns without it."""
        instance = build_redundant_mlg(
            big_problem(seed=1, n_sub=12, n_srv=3, n_int=2, n_ch=26, slack=1))
        fixed = dict.fromkeys(instance.channel_edges, 1.0)
        search = lp_module.branch_and_bound
        nodes = []

        def recorded(lp, root=None, **kwargs):
            sol = search(lp, root, **kwargs)
            nodes.append(sol.nodes)
            return sol

        def unflagged(lp, root=None, **kwargs):
            lp.integral_objective = False
            return recorded(lp, root, **kwargs)

        monkeypatch.setattr(design, "branch_and_bound", recorded)
        flagged = solve_uncapacitated(instance, fixed)
        monkeypatch.setattr(design, "branch_and_bound", unflagged)
        plain = solve_uncapacitated(instance, fixed)
        assert nodes[0] < nodes[1]
        assert flagged.objective == plain.objective
        assert flagged.selected_channels == plain.selected_channels
        assert flagged.routes == plain.routes


class TestOracle:
    def test_t1_capacitated(self, t1_instance):
        sol = brute_force_oracle(t1_instance)
        assert sol.objective == pytest.approx(14.0, abs=1e-6)

    def test_t1_uncapacitated(self, t1_instance):
        fixed = {ch: 1.0 for ch in t1_instance.channel_edges}
        sol = brute_force_oracle(t1_instance, mode="uncapacitated",
                                 channel_fixed_costs=fixed)
        assert sol.objective == pytest.approx(18.0, abs=1e-6)

    @pytest.mark.parametrize("fixed, error", [({"zz": 1.0}, KeyError),
                                              ({"b1": -5.0}, ValueError),
                                              ({"b1": math.inf}, ValueError),
                                              ({"b1": math.nan}, ValueError)])
    def test_fixed_costs_checked_as_the_solver_checks_them(self, t1_instance, fixed, error):
        """An unknown channel, a negative fixed cost and one that is not
        finite raise the error ``solve_uncapacitated`` raises."""
        for solve in (lambda: solve_uncapacitated(t1_instance, fixed),
                      lambda: brute_force_oracle(t1_instance, mode="uncapacitated",
                                                 channel_fixed_costs=fixed)):
            with pytest.raises(error):
                solve()

    def test_t1_single_homing(self, t1_instance):
        sol = brute_force_oracle(t1_instance, single_homing=True)
        assert sol.objective == pytest.approx(14.0, abs=1e-6)

    def test_uncapacitated_single_homing(self, t1_instance):
        """Channel selection and single homing at once: every subscriber
        on one server, and on corpus instances the optima HiGHS gives
        (9002 is infeasible once homed)."""
        fixed = {ch: 1.0 for ch in t1_instance.channel_edges}
        sol = brute_force_oracle(t1_instance, mode="uncapacitated",
                                 single_homing=True, channel_fixed_costs=fixed)
        homed = sorted(sub for pairs in sol.assignment.values() for sub, _vol in pairs)
        assert homed == ["u1", "u2"]  # each on exactly one server
        for seed, want in [(9002, None), (9006, 8.0), (9013, 17.0)]:
            instance = build_redundant_mlg(random_problem(random.Random(seed)))
            fixed = {ch: 1.0 for ch in instance.channel_edges}
            try:
                got = brute_force_oracle(instance, mode="uncapacitated", single_homing=True,
                                         channel_fixed_costs=fixed).objective
            except InfeasibleError:
                got = None
            assert got is None if want is None else got == pytest.approx(want, abs=1e-6)

    def test_limits_enforced(self, t1_instance):
        with pytest.raises(LimitsExceeded):
            brute_force_oracle(t1_instance,
                               limits=OracleLimits(max_channels=4))

    def test_unknown_mode(self, t1_instance):
        with pytest.raises(ValueError):
            brute_force_oracle(t1_instance, mode="fancy")


class TestAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_formulations_and_oracle_agree(self, seed):
        problem = random_problem(random.Random(2000 + seed))
        instance = build_redundant_mlg(problem)
        try:
            oracle = brute_force_oracle(instance)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_capacitated(instance)
            return
        nl = solve_capacitated(instance, formulation="node-link")
        lp = solve_capacitated(instance, formulation="link-path")
        assert nl.objective == pytest.approx(oracle.objective, abs=1e-6)
        assert lp.objective == pytest.approx(oracle.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_single_homing_agreement(self, seed):
        problem = random_problem(random.Random(3000 + seed))
        instance = build_redundant_mlg(problem)
        try:
            oracle = brute_force_oracle(instance, single_homing=True)
        except InfeasibleError:
            return
        sol = solve_capacitated(instance, single_homing=True)
        assert sol.objective == pytest.approx(oracle.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_uncapacitated_agreement(self, seed):
        rng = random.Random(4000 + seed)
        problem = random_problem(rng)
        instance = build_redundant_mlg(problem)
        fixed = {ch: float(rng.randint(0, 3)) for ch in instance.channel_edges}
        try:
            oracle = brute_force_oracle(instance, mode="uncapacitated",
                                        channel_fixed_costs=fixed)
        except InfeasibleError:
            return
        sol = solve_uncapacitated(instance, fixed)
        assert sol.objective == pytest.approx(oracle.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_deterministic_repeat(self, seed):
        problem = random_problem(random.Random(5000 + seed))
        instance = build_redundant_mlg(problem)
        try:
            a = solve_capacitated(instance)
            b = solve_capacitated(instance)
        except InfeasibleError:
            return
        assert a.routes == b.routes
        assert a.selected_channels == b.selected_channels


def assert_routes_decompose(instance, solution):
    """Each route is a simple layer-1 channel path from a server to its own
    commodity's subscriber, and route flows sum to every demand."""
    channels = {frozenset(e.ends) for e in instance.channel_edges.values()}
    servers = set(instance.server_ids())
    for c in instance.commodities:
        for nodes, _flow in solution.routes[c.id]:
            assert nodes[0] in servers
            assert nodes[-1] == c.sink.id
            assert len(set(nodes)) == len(nodes)
            assert all(frozenset(hop) in channels for hop in zip(nodes, nodes[1:]))
        total = sum(flow for _, flow in solution.routes[c.id])
        assert total == pytest.approx(c.demand, abs=1e-6)


def half_size_problem(seed):
    return big_problem(seed, n_sub=10, n_srv=2, n_int=5, n_ch=30, slack=2)


class TestDecomposition:
    @pytest.mark.parametrize("single_homing", [False, True])
    def test_corpus_routes(self, single_homing):
        solved = 0
        for seed in range(100):
            instance = build_redundant_mlg(random_problem(random.Random(9000 + seed)))
            try:
                sol = solve_capacitated(instance, single_homing=single_homing)
            except InfeasibleError:
                continue
            assert_routes_decompose(instance, sol)
            solved += 1
        assert solved >= 60

    @pytest.mark.parametrize("seed", range(4))
    def test_half_size_routes(self, seed):
        instance = build_redundant_mlg(half_size_problem(seed))
        assert_routes_decompose(instance, solve_capacitated(instance))

    def test_route_through_another_subscriber(self):
        # u2 hangs off u1, so the aggregated flow into u1 carries both
        # demands and u2's route must pass through u1
        problem = t1_problem()
        problem.channels = [Channel("b1", ("s1", "u1"), 10.0),
                            Channel("b2", ("u1", "u2"), 10.0),
                            Channel("b3", ("s2", "u1"), 10.0)]
        instance = build_redundant_mlg(problem)
        sol = solve_capacitated(instance)
        assert_routes_decompose(instance, sol)
        assert all(nodes[1] == "u1" for nodes, _ in sol.routes["u2"])

    def test_unroutable_flow_raises(self, t1_instance):
        form = formulate_node_link(t1_instance)
        values = np.zeros(len(form.lp.variables))
        inject = next(j for j, m in form.meta.items() if m[0] == "inject")
        values[inject] = 7.0  # injection with no arc flow to carry it
        with pytest.raises(DecompositionError, match="u1"):
            _decompose_node_link(t1_instance, form, values)


def disaggregated_node_link_highs(instance):
    """The per-commodity node-link LP (arc, injection and access columns
    and a demand row per commodity) built here and solved by scipy HiGHS.

    Returns the ``linprog`` result and the model's (columns, rows).
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    channels = sorted(instance.channel_edges)
    servers = instance.server_ids()
    node_row = {n: i + 1 for i, n in enumerate(instance.graph.nodes(1))}
    width = 2 * len(channels) + len(servers) + 1
    n_cols = width * len(instance.commodities)
    cost = np.zeros(n_cols)
    eq, b_eq, ub = [], [], []
    for k, c in enumerate(instance.commodities):
        col0, row0 = k * width, len(b_eq)
        b_eq += [c.demand] + [0.0] * len(node_row)
        for i, ch in enumerate(channels):
            edge = instance.channel_edges[ch]
            a, b = edge.ends
            for d, (frm, to) in enumerate(((a, b), (b, a))):
                col = col0 + 2 * i + d
                cost[col] = edge.cost
                eq += [(row0 + node_row[to], col, 1.0),
                       (row0 + node_row[frm], col, -1.0)]
                ub.append((i, col, 1.0))
        for i, s in enumerate(servers):
            col = col0 + 2 * len(channels) + i
            eq += [(row0, col, 1.0), (row0 + node_row[s], col, 1.0)]
            ub.append((len(channels) + i, col, 1.0))
        eq.append((row0 + node_row[c.sink.id], col0 + width - 1, -1.0))
    b_ub = ([instance.channel_edges[ch].capacity for ch in channels]
            + [instance.server_productivity(s) for s in servers])

    def matrix(entries, n_rows):
        rows, cols, vals = zip(*entries)
        return coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))

    res = linprog(cost, A_ub=matrix(ub, len(b_ub)), b_ub=b_ub,
                  A_eq=matrix(eq, len(b_eq)), b_eq=b_eq, bounds=(0, None),
                  method="highs")
    return res, (n_cols, len(b_eq) + len(b_ub))


class TestHighsDifferential:
    def test_big_problem_matches_disaggregated_model(self):
        instance = build_redundant_mlg(big_problem(seed=1))
        res, shape = disaggregated_node_link_highs(instance)
        assert shape == (2520, 785)
        assert res.status == 0
        sol = solve_capacitated(instance, formulation="node-link")
        assert sol.objective == pytest.approx(res.fun, abs=1e-6)
        assert sol.objective == pytest.approx(93.0, abs=1e-6)
