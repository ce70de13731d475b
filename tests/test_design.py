import math
import random

import numpy as np
import pytest

from mlgdesign import (Channel, DecompositionError, InfeasibleError,
                       LimitsExceeded, OracleLimits, brute_force_oracle,
                       build_redundant_mlg, check_capacities,
                       check_conservation, enumerate_candidate_paths,
                       NodeRef, formulate_link_path, formulate_node_link,
                       solve_capacitated, solve_uncapacitated)
from mlgdesign.design import _decompose_node_link
from helpers import big_problem, random_problem, t1_problem


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
        # 2 commodities x (10 arcs + 2 injections) + 4 homing binaries
        assert len(lp.variables) == 28
        names = [c.name for c in lp.constraints]
        assert sum(n.startswith("conservation[") for n in names) == 10

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
        assert [k for i, k in enumerate(kinds) if i == 0 or k != kinds[i - 1]] == \
            ["assign", balance, "homing", "capacity", "productivity"]


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
