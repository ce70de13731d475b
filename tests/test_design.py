import dataclasses
import heapq
import math
import random

import numpy as np
import pytest

import mlgdesign.lp as lp_module
from mlgdesign import (Channel, DecompositionError, DesignProblem, InfeasibleError,
                       LimitsExceeded, MultiLayerGraph, OracleLimits, Server, Session,
                       Subscriber, brute_force_oracle, build_redundant_mlg,
                       check_capacities, check_conservation, design,
                       enumerate_candidate_paths, NodeRef, formulate_link_path,
                       formulate_node_link, solve_capacitated, solve_uncapacitated)
from mlgdesign.design import (CandidatePath, _add_hops, _channel_cost,
                              _decompose_node_link, all_candidate_paths)
from mlgdesign.lp import Basis, simplex_solve
from mlgdesign.mlg import cheapest_path, cheapest_paths_from, distances_to
from helpers import big_problem, random_problem, scaled_big_problem, t1_problem


def commodity(instance, cid):
    return next(c for c in instance.commodities if c.id == cid)


class TestCandidatePaths:
    def test_t1_two_per_server(self, t1_instance):
        paths = enumerate_candidate_paths(t1_instance, commodity(t1_instance, "u1"), 2)
        assert [(p.server, p.nodes) for p in paths] == [
            ("s1", ("s1", "z1", "u1")),
            ("s2", ("s2", "z1", "u1")),
            ("s1", ("s1", "s2", "z1", "u1")),
            ("s2", ("s2", "s1", "z1", "u1")),
        ]
        assert paths[0].channels == ("b3", "b1")
        assert paths[0].cost == pytest.approx(2.0)

    def test_k_one_keeps_cheapest(self, t1_instance):
        paths = enumerate_candidate_paths(t1_instance, commodity(t1_instance, "u1"), 1)
        assert len(paths) == 2
        assert all(len(p.nodes) == 3 for p in paths)

    def test_disconnected_subscriber_yields_nothing(self):
        problem = t1_problem()
        problem.channels = [c for c in problem.channels if "u1" not in c.ends]
        instance = build_redundant_mlg(problem)
        paths = enumerate_candidate_paths(instance, commodity(instance, "u1"), 3)
        assert paths == []

    def test_k_must_be_positive(self, t1_instance):
        with pytest.raises(ValueError):
            enumerate_candidate_paths(t1_instance, commodity(t1_instance, "u1"), 0)

    @staticmethod
    def assert_first_k_of_exhaustive(instance):
        for c in instance.commodities:
            every = all_candidate_paths(instance, c)
            for k in (1, 2, 3, 8):
                expected = [p for s in instance.server_ids()
                            for p in [p for p in every if p.server == s][:k]]
                expected.sort(key=lambda p: (p.cost, p.nodes))
                assert enumerate_candidate_paths(instance, c, k) == expected

    @pytest.mark.parametrize("costs", [None, (0.0, 0.5, 1.0, 2.5)])
    def test_first_k_of_exhaustive_on_corpus(self, costs):
        """Yen's paths per server are the first k of the exhaustive
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
    def eager_yen(instance, commodity, k):
        """Yen (1971) as first written: every root of every path found is
        spurred by an unguided ``cheapest_path``, with no bound and no
        distance map; merged over the servers like the candidate list."""
        graph, dst = instance.graph, commodity.sink.id
        adj = graph.adjacency(1)
        weight = _channel_cost
        out = []
        for server in instance.server_ids():
            first = cheapest_path(graph, 1, [server], {dst}, weight)
            if first is None:
                continue
            found, candidates, seen = [first[1]], [], {first[1]}
            while len(found) < k:
                prev = found[-1]
                for i in range(len(prev) - 1):
                    root = prev[:i + 1]
                    banned = {(p[i], p[i + 1]) for p in found if p[:i + 1] == root}
                    spur = cheapest_path(graph, 1, [root[-1]], {dst}, weight,
                                         frozenset(root[:-1]), banned)
                    if spur is None:
                        continue
                    nodes = root[:-1] + spur[1]
                    if nodes not in seen:
                        seen.add(nodes)
                        heapq.heappush(candidates, (_add_hops(0.0, nodes, adj), nodes))
                if not candidates:
                    break
                found.append(heapq.heappop(candidates)[1])
            for nodes in found:
                channels = tuple(graph.find_intra(1, a, b).name
                                 for a, b in zip(nodes, nodes[1:]))
                out.append(CandidatePath(server=server, nodes=nodes, channels=channels,
                                         cost=_add_hops(0.0, nodes, adj)))
        out.sort(key=lambda p: (p.cost, p.nodes))
        return out

    @pytest.mark.parametrize("costs", [None, (0.0, 0.5, 1.0, 2.5)])
    def test_eager_yen_on_big_problem(self, costs):
        """At ladder scale, beyond the exhaustive check's reach, the list
        equals eager Yen's element for element: on ``big_problem(seed=1)``
        with unit costs and with mixed costs."""
        problem = big_problem(seed=1)
        if costs is not None:
            rng = random.Random(5)
            problem.channels = [dataclasses.replace(ch, cost=rng.choice(costs))
                                for ch in problem.channels]
        instance = build_redundant_mlg(problem)
        for c in instance.commodities:
            for k in (1, 4, 8):
                assert enumerate_candidate_paths(instance, c, k) == self.eager_yen(
                    instance, c, k)

    @staticmethod
    def one_subscriber(intermediates, channels):
        """Server ``s`` and subscriber ``u`` over the given channels
        (id, a, b, cost)."""
        problem = DesignProblem(
            subscribers=[Subscriber("u", [Session("u", 1.0)])],
            servers=[Server("s", 1.0)], service_id="v", service_productivity=1.0,
            intermediates=intermediates,
            channels=[Channel(cid, (a, b), 1.0, cost) for cid, a, b, cost in channels])
        instance = build_redundant_mlg(problem)
        return instance, instance.commodities[0]

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

    @pytest.mark.parametrize("channels", [
        # a-b costs 0: with a-u banned, the spur from root s-a enters b,
        # whose smallest-id tight successor is a, a node of the root
        [("c1", "s", "a", 1.0), ("c2", "a", "b", 0.0), ("c3", "a", "u", 1.0)],
        # with x-u banned, the spur from root s-r-x leaves by w, whose
        # tight successor is x itself, a node of the root
        [("c1", "s", "r", 1.0), ("c2", "r", "x", 1.0), ("c3", "x", "u", 1.0),
         ("c4", "x", "w", 1.0), ("c5", "w", "r", 1.0), ("c6", "w", "q", 1.0),
         ("c7", "q", "u", 2.0)],
    ])
    def test_blocked_chains_are_searched(self, channels, monkeypatch):
        """A successor chain that meets the root or itself falls back to
        the search, and the list is still the exhaustive one's first k."""
        ids = sorted({end for _, a, b, _ in channels for end in (a, b)} - {"s", "u"})
        instance, c = self.one_subscriber(ids, channels)
        every = all_candidate_paths(instance, c)
        calls = self.count_calls(monkeypatch, "cheapest_path")
        for k in (1, 2, 3, 4, 8):
            assert enumerate_candidate_paths(instance, c, k) == every[:k]
        assert calls

    def test_k1_builds_no_map(self, monkeypatch):
        """The cheapest path per server comes from the server's cheapest-path
        tree: k = 1 builds no distance map and makes no spur search, and
        k = 4 on the same commodity does both."""
        instance = build_redundant_mlg(big_problem(seed=1))
        calls = self.count_calls(monkeypatch, "cheapest_path")
        maps = self.count_calls(monkeypatch, "distances_to")
        for c in instance.commodities:
            assert len(enumerate_candidate_paths(instance, c, 1)) == len(
                instance.server_ids())
        assert calls == maps == []
        enumerate_candidate_paths(instance, instance.commodities[0], 4)
        assert calls and len(maps) == 1

    def test_priced_link_path_builds_maps_only_for_growing_pools(self, monkeypatch):
        """Capacitated link-path builds a subscriber's distance map only when
        one of its pools takes a second path: none at k = 1, and at most
        10 for the 40 commodities of ``big_problem(seed=1)`` at 2x with
        k = 4."""
        maps = self.count_calls(monkeypatch, "distances_to")
        instance = build_redundant_mlg(big_problem(seed=1))
        solve_capacitated(instance, formulation="link-path", k=1)
        assert maps == []
        instance = build_redundant_mlg(scaled_big_problem(1, 2))
        assert len(instance.commodities) == 40
        sol = solve_capacitated(instance, formulation="link-path", k=4)
        assert sol.objective == pytest.approx(249.0, abs=1e-6)
        assert 0 < len(maps) <= 10

    def test_integer_link_path_builds_one_tree_per_server(self, monkeypatch):
        """The link-path formulation of the integer modes builds one
        cheapest-path tree per server and shares it among the commodities:
        5 trees at ``big_problem(seed=1)``, where one set per commodity
        made 100."""
        trees = self.count_calls(monkeypatch, "cheapest_paths_from")
        instance = build_redundant_mlg(big_problem(seed=1, slack=1))
        for single_homing in (False, True):
            trees.clear()
            design._build_formulation(instance, "link-path", 4, single_homing)
            assert [args[2] for args in trees] == [[s] for s in instance.server_ids()]

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
                paths = enumerate_candidate_paths(instance, c, 8)
                keys = [(_add_hops(0.0, p.nodes, adj), p.nodes) for p in paths]
                assert [p.cost for p in paths] == [cost for cost, _ in keys]
                assert keys == sorted(keys)


class TestCheapestPath:
    @pytest.mark.parametrize("costs", [(1.0,), (0.0, 0.5, 1.0, 2.5)])
    def test_first_of_all_candidate_paths(self, costs):
        """On the acceptance corpus (as drawn, and with mixed channel costs)
        the search from one server, or from all at once, returns the first
        path in (cost, nodes) order of the exhaustive enumeration; with the
        first hop of that path banned (given reversed), the first path
        that avoids it.  Both hold with and without the goal's exact
        distance map as the potential."""
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
                to_sink = distances_to(graph, 1, c.sink.id, lambda e: e.cost)
                for potential in (None, to_sink):
                    for starts in [[s] for s in servers] + [servers]:
                        mine = [p[:2] for p in paths if p[2] in starts]
                        found = cheapest_path(graph, 1, starts, {c.sink.id},
                                              lambda e: e.cost, potential=potential)
                        assert found == (mine[0] if mine else None)
                        if not mine:
                            assert not any(s in to_sink for s in starts)
                            continue
                        assert mine[0][0] == min(to_sink[s] for s in starts)
                        hop = mine[0][1][:2]
                        rest = [p for p in mine
                                if hop not in zip(p[1], p[1][1:])
                                and hop[::-1] not in zip(p[1], p[1][1:])]
                        found = cheapest_path(graph, 1, starts, {c.sink.id},
                                              lambda e: e.cost,
                                              banned_edges={hop[::-1]},
                                              potential=potential)
                        assert found == (rest[0] if rest else None)

    @staticmethod
    def diamond():
        """a-b-d costs 1+1, a-c-d costs 2+2."""
        g = MultiLayerGraph()
        g.add_layer(["a", "b", "c", "d"])
        for u, v, cost in (("a", "b", 1.0), ("b", "d", 1.0),
                           ("a", "c", 2.0), ("c", "d", 2.0)):
            g.add_intra_edge(1, u, v, cost=cost)
        return g

    def test_infinite_potential_never_entered(self):
        g = self.diamond()
        weighed = []

        def weight(edge):
            weighed.append(edge.ends)
            return edge.cost

        potential = {"a": 0.0, "b": math.inf, "c": 0.0, "d": 0.0}
        assert cheapest_path(g, 1, ["a"], {"d"}, weight,
                             potential=potential) == (4.0, ("a", "c", "d"))
        assert not any("b" in ends for ends in weighed)
        # a node missing from the map counts as infinite; so does the start
        assert cheapest_path(g, 1, ["a"], {"d"}, weight,
                             potential={"a": 0.0, "b": 0.0, "d": 0.0}) == (2.0, ("a", "b", "d"))
        assert cheapest_path(g, 1, ["a"], {"d"}, weight,
                             potential={"b": 0.0, "c": 0.0, "d": 0.0}) is None

    @pytest.mark.parametrize("costs", [None, (0.0, 0.5, 1.0, 2.5), (0.1, 0.2, 0.3)])
    def test_tree_matches_goal_search(self, costs):
        """From every server to every layer-1 node, the settle-every-node
        search returns exactly the path and cost of the goal search
        without a potential: on the acceptance corpus with costs as
        drawn, mixed with zero-cost channels, and with 0.1/0.2/0.3, whose
        sums depend on the order they are added in."""
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
                    assert tree.get(goal) == cheapest_path(graph, 1, [server], {goal},
                                                           weight)
                    if goal in tree:
                        cost, nodes = tree[goal]
                        assert cost == _add_hops(0.0, nodes, adj)

    @pytest.mark.parametrize("costs", [None, (0.0, 0.5, 1.0, 2.5), (0.1, 0.2, 0.3)])
    def test_forest_merges_server_trees(self, costs):
        """From every server at once the search returns, per node, the
        goal search's path from all servers, and settles each path's
        parent before it.  When costs add exactly (as drawn, and mixed
        with zero-cost channels) that is the least (cost, nodes) over the
        single-server trees.  With 0.1/0.2/0.3 equal sums can round
        apart, so there only the costs agree, to rounding.  On the
        acceptance corpus and ``big_problem`` seeds 1-3 (5 servers)."""
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
                assert (cost, nodes) == cheapest_path(graph, 1, servers, {node}, weight)
                if len(nodes) > 1:
                    assert settled.index(nodes[-2]) < settled.index(node)
                if costs == (0.1, 0.2, 0.3):
                    assert cost == pytest.approx(merged[node][0], rel=1e-12)
                else:
                    assert (cost, nodes) == merged[node]

    def test_distances_to(self):
        g = self.diamond()
        g.add_layer(["x"])
        assert distances_to(g, 1, "d", lambda e: e.cost) == {
            "d": 0.0, "b": 1.0, "a": 2.0, "c": 2.0}
        g.remove_intra_edge(1, "b", "d")
        assert distances_to(g, 1, "d", lambda e: e.cost) == {
            "d": 0.0, "c": 2.0, "a": 4.0, "b": 5.0}
        assert distances_to(g, 2, "x", lambda e: e.cost) == {"x": 0.0}


class TestFormulations:
    def test_link_path_shape(self, t1_instance):
        paths = {c.id: enumerate_candidate_paths(t1_instance, c, 2)
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
        paths = {c.id: enumerate_candidate_paths(instance, c, 2)
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

    def test_feasibility_closure(self, t1_instance):
        sol = solve_capacitated(t1_instance)
        assert check_conservation(t1_instance.graph, sol.flow_assignment,
                                  t1_instance.commodities).ok
        assert check_capacities(t1_instance.graph, sol.flow_assignment).ok


def corpus_and_scaled(scales, costs=None):
    """The acceptance corpus and ``big_problem`` seeds 1-5 at ``scales``,
    built, with channel costs as drawn or, given ``costs``, redrawn from
    them."""
    problems = [(random.Random(seed), random_problem(random.Random(seed)))
                for seed in range(9000, 9100)]
    problems += [(random.Random(seed), scaled_big_problem(seed, scale))
                 for seed in range(1, 6) for scale in scales]
    for rng, problem in problems:
        if costs is not None:
            problem.channels = [dataclasses.replace(ch, cost=rng.choice(costs))
                                for ch in problem.channels]
        yield build_redundant_mlg(problem)


class TestPricedLinkPath:
    COSTS = (0.1, 0.2, 0.3, 0.5, 1.0, 2.5)

    @classmethod
    def instances(cls, redraw):
        """The acceptance corpus and ``big_problem`` seeds 1-5 at 0.5x and
        1x, with channel costs as drawn or redrawn from ``COSTS``."""
        return corpus_and_scaled((0.5, 1), cls.COSTS if redraw else None)

    @pytest.mark.parametrize("redraw", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_same_optimum_as_full_pools(self, k, redraw):
        """Pools grown by the duals reach the optimum of the LP over every
        server's first k paths, within 1e-9 relative, or both are
        infeasible.  Every column priced in is one of those paths."""
        for instance in self.instances(redraw):
            paths = {c.id: enumerate_candidate_paths(instance, c, k)
                     for c in instance.commodities}
            full = simplex_solve(formulate_link_path(instance, paths).lp)
            try:
                form, priced = design._price_link_path(instance, k)
            except InfeasibleError:
                assert full.status == "Infeasible"
                continue
            assert full.status == "Optimal"
            assert priced.objective == pytest.approx(full.objective, rel=1e-9)
            for j, meta in form.meta.items():
                assert meta[2] in paths[meta[1]]

    def test_final_lp_small_at_2x(self, monkeypatch):
        """At ``big_problem(seed=1)`` 2x the last LP solved has at most 600
        columns; over every server's first 4 paths it has 1,591."""
        sizes = []
        solve = design.simplex_solve

        def counted(lp, *args, **kwargs):
            sizes.append(len(lp.variables))
            return solve(lp, *args, **kwargs)

        monkeypatch.setattr(design, "simplex_solve", counted)
        instance = build_redundant_mlg(scaled_big_problem(1, 2))
        sol = solve_capacitated(instance, formulation="link-path", k=4)
        assert sol.objective == pytest.approx(249.0, abs=1e-6)
        assert sizes and max(sizes) <= 600


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

        def both(lp, *args, start=None, **kwargs):
            sol = lp_module.simplex_solve(lp, *args, start=start, **kwargs)
            if any(start is basis for basis in made):
                names = ({con.name for con in lp.constraints}
                         | {f"bound[{v.name}]" for v in lp.variables})
                pairs.append((names, sol, lp_module.simplex_solve(lp, *args, **kwargs)))
            return sol

        def root_only(lp, root):
            raise LimitsExceeded("root only")

        monkeypatch.setattr(Basis, "of", recorded)
        monkeypatch.setattr(design, "simplex_solve", both)
        monkeypatch.setattr(design, "branch_and_bound", root_only)
        return pairs

    @pytest.mark.parametrize("redraw", [False, True])
    def test_started_solves_match_cold(self, redraw, monkeypatch):
        """Capacitated node-link, the fixed-charge node-link root (unit
        fixed costs) and the first priced link-path LP, started from their
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

        def root_only(lp, root):
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

    @pytest.mark.parametrize("formulation", ["node-link", "link-path"])
    def test_branch_and_bound_size(self, formulation, monkeypatch):
        """Branching up first finds the fixed-charge optimum of this
        12-subscriber, 26-channel instance in 197 LP solves in both
        formulations (node-link took 213 when its root started from the
        logical basis, not the servers' forest); down first took 3849
        and 3693.  Pruning
        nodes that only tie the incumbent proves the single-homing
        optimum in 43 and 21 solves, where exploring them took 51 and 29."""
        calls = []
        original = lp_module.simplex_solve

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lp_module, "simplex_solve", counted)
        monkeypatch.setattr(design, "simplex_solve", counted)
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


class TestOracle:
    def test_t1_capacitated(self, t1_instance):
        sol = brute_force_oracle(t1_instance)
        assert sol.objective == pytest.approx(14.0, abs=1e-6)

    def test_t1_uncapacitated(self, t1_instance):
        fixed = {ch: 1.0 for ch in t1_instance.channel_edges}
        sol = brute_force_oracle(t1_instance, mode="uncapacitated",
                                 channel_fixed_costs=fixed)
        assert sol.objective == pytest.approx(18.0, abs=1e-6)

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
        lp = solve_capacitated(instance, formulation="link-path", k=10)
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
