import random

import pytest

from helpers import random_problem, t1_problem
from mlgdesign import (MultiLayerGraph, NodeRef, NoRealization, build_redundant_mlg,
                       realization_path, validate_overlay)
from mlgdesign.errors import GraphError
from mlgdesign.mlg import IntraEdge, inter_key, intra_key


def small_graph():
    g = MultiLayerGraph()
    g.add_layer(["u1", "z1", "s1", "s2", "u2"])
    return g


class TestAddLayer:
    def test_first_layer(self):
        g = small_graph()
        assert g.layer_count == 1
        assert g.nodes(1) == ["s1", "s2", "u1", "u2", "z1"]
        assert g.intra_edges(1) == []

    def test_appends_topmost(self):
        g = small_graph()
        idx = g.add_layer(["a1", "a2", "s1", "s2"])
        assert idx == 2
        assert g.layer_count == 2

    def test_duplicate_id_rejected(self):
        g = MultiLayerGraph()
        with pytest.raises(GraphError, match="duplicate"):
            g.add_layer(["x", "x"])


class TestAddIntraEdge:
    def test_basic(self):
        g = small_graph()
        edge = g.add_intra_edge(1, "u1", "z1", capacity=10.0, cost=1.0, name="b1")
        assert edge.ends == ("u1", "z1")

    def test_self_loop_rejected(self):
        g = small_graph()
        with pytest.raises(GraphError, match="self-loop"):
            g.add_intra_edge(1, "u1", "u1")

    def test_missing_node_rejected(self):
        g = small_graph()
        with pytest.raises(GraphError, match="missing"):
            g.add_intra_edge(1, "u1", "ghost")

    def test_negative_capacity_rejected(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.add_intra_edge(1, "u1", "z1", capacity=-1.0)

    def test_parallel_edge_rejected(self):
        g = small_graph()
        g.add_intra_edge(1, "u1", "z1")
        with pytest.raises(GraphError, match="parallel"):
            g.add_intra_edge(1, "z1", "u1")

    def test_nan_capacity_rejected(self):
        g = small_graph()
        with pytest.raises(GraphError, match=r"edge \(u1,z1\) at layer 1: capacity"):
            g.add_intra_edge(1, "u1", "z1", capacity=float("nan"), cost=1.0)
        assert g.intra_edges(1) == []

    def test_nan_cost_rejected(self):
        g = small_graph()
        with pytest.raises(GraphError, match=r"edge \(u1,z1\) at layer 1: cost"):
            g.add_intra_edge(1, "u1", "z1", capacity=3.0, cost=float("nan"))
        assert g.intra_edges(1) == []

    def test_infinite_cost_rejected(self):
        g = small_graph()
        with pytest.raises(GraphError, match=r"edge \(u1,z1\) at layer 1: cost"):
            g.add_intra_edge(1, "u1", "z1", cost=float("inf"))
        assert g.intra_edges(1) == []

    def test_infinite_capacity_allowed(self):
        g = small_graph()
        edge = g.add_intra_edge(1, "u1", "z1", capacity=float("inf"), cost=2.0)
        assert edge.capacity == float("inf")


class TestAddInterEdge:
    def setup_method(self):
        self.g = MultiLayerGraph()
        self.g.add_layer(["s1"])
        self.g.add_layer(["s1", "a1"])
        self.g.add_layer(["v0", "a1"])

    def test_basic(self):
        edge = self.g.add_inter_edge(NodeRef(3, "v0"), NodeRef(2, "s1"), capacity=5.0)
        assert edge.capacity == 5.0

    def test_wrong_direction_rejected(self):
        with pytest.raises(GraphError, match="exceed"):
            self.g.add_inter_edge(NodeRef(2, "a1"), NodeRef(3, "v0"))

    def test_unbounded_default(self):
        edge = self.g.add_inter_edge(NodeRef(3, "a1"), NodeRef(2, "a1"))
        assert edge.capacity == float("inf")

    def test_missing_endpoint_rejected(self):
        with pytest.raises(GraphError, match="does not exist"):
            self.g.add_inter_edge(NodeRef(3, "ghost"), NodeRef(2, "s1"))

    def test_nan_capacity_rejected(self):
        with pytest.raises(GraphError, match="inter edge .*v0.* -> .*s1.*: capacity"):
            self.g.add_inter_edge(NodeRef(3, "v0"), NodeRef(2, "s1"), capacity=float("nan"))
        assert self.g.inter_neighbors_down(NodeRef(3, "v0"), 2) == []

    def test_negative_capacity_rejected(self):
        with pytest.raises(GraphError, match="inter edge .*v0.* -> .*s1.*: capacity"):
            self.g.add_inter_edge(NodeRef(3, "v0"), NodeRef(2, "s1"), capacity=-5.0)
        assert self.g.inter_neighbors_down(NodeRef(3, "v0"), 2) == []


class TestEdgeKeys:
    @pytest.mark.parametrize("u, v", [("a", "b"), ("b", "a"), ("z1", "s10"), ("s10", "z1")])
    def test_intra_key_orders_the_ends(self, u, v):
        assert intra_key(2, u, v) == ("intra", 2, *sorted((u, v)))

    def test_key_stored_at_construction(self):
        edge = IntraEdge(layer=1, ends=("z1", "u1"), capacity=3.0)
        assert edge.key == ("intra", 1, "u1", "z1")
        assert edge == IntraEdge(layer=1, ends=("z1", "u1"), capacity=3.0)

    @pytest.mark.parametrize("problem", [t1_problem(), random_problem(random.Random(9004))],
                             ids=["t1", "corpus-9004"])
    def test_edge_by_key(self, problem):
        """Every intra and inter edge is found by its own key, and a key
        no edge has finds None."""
        graph = build_redundant_mlg(problem).graph
        edges = graph.all_intra_edges() + graph.inter_edges()
        assert len(edges) > 10
        for edge in edges:
            assert graph.edge(edge.key) is edge
        sub, srv = graph.nodes(2)[-1], graph.nodes(2)[0]
        for key in (intra_key(1, "ghost", sub), intra_key(4, srv, sub), intra_key(0, srv, sub),
                    inter_key(NodeRef(3, sub), NodeRef(1, sub)),
                    inter_key(NodeRef(2, "ghost"), NodeRef(1, sub))):
            assert graph.edge(key) is None

    def test_removed_edge_is_gone(self):
        g = small_graph()
        edge = g.add_intra_edge(1, "z1", "u1")
        assert g.edge(intra_key(1, "u1", "z1")) is edge
        g.remove_intra_edge(1, "u1", "z1")
        assert g.edge(edge.key) is None


class TestNeighbors:
    @staticmethod
    def assert_index_matches_scan(g):
        for layer in range(1, g.layer_count + 1):
            for node in g.nodes(layer):
                scan = sorted(((e.ends[1] if e.ends[0] == node else e.ends[0]), e)
                              for e in g.intra_edges(layer) if node in e.ends)
                got = g.neighbors(layer, node)
                assert [(n, id(e)) for n, e in got] == [(n, id(e)) for n, e in scan]

    def test_index_matches_edge_scan_on_corpus(self):
        for seed in range(9000, 9100):
            g = build_redundant_mlg(random_problem(random.Random(seed))).graph
            self.assert_index_matches_scan(g)
            for layer in range(1, g.layer_count + 1):
                for edge in g.intra_edges(layer)[::2]:
                    g.remove_intra_edge(layer, *reversed(edge.ends))
            self.assert_index_matches_scan(g)

    def test_unknown_node_has_no_neighbors(self):
        g = small_graph()
        g.add_intra_edge(1, "u1", "z1")
        assert g.neighbors(1, "ghost") == []
        assert [n for n, _e in g.neighbors(1, "z1")] == ["u1"]


class TestInterNeighborsDown:
    def test_index_matches_edge_scan_on_corpus(self):
        for seed in range(9000, 9100):
            g = build_redundant_mlg(random_problem(random.Random(seed))).graph
            for layer in range(1, g.layer_count + 1):
                for node in g.nodes(layer):
                    ref = NodeRef(layer, node)
                    for target in range(1, layer):
                        scan = sorted(e.lower for e in g.inter_edges()
                                      if e.upper == ref and e.lower.layer == target)
                        assert g.inter_neighbors_down(ref, target) == scan

    def test_several_lower_nodes_and_readded_edge(self):
        g = MultiLayerGraph()
        g.add_layer(["x", "y"])
        g.add_layer(["a1"])
        g.add_layer(["v0"])
        top = NodeRef(3, "v0")
        for lower in (NodeRef(1, "y"), NodeRef(2, "a1"), NodeRef(1, "x")):
            g.add_inter_edge(top, lower)
        g.add_inter_edge(top, NodeRef(1, "y"), capacity=2.0)
        assert g.inter_neighbors_down(top, 1) == [NodeRef(1, "x"), NodeRef(1, "y")]
        assert g.inter_neighbors_down(top, 2) == [NodeRef(2, "a1")]
        assert g.inter_neighbors_down(NodeRef(2, "a1"), 1) == []
        assert len(g.inter_edges()) == 3
        assert g.find_inter(top, NodeRef(1, "y")).capacity == 2.0


class TestRealizationPath:
    def test_t1_layer2_edge(self, t1_instance):
        g = t1_instance.graph
        edge = g.find_intra(2, "s1", "u1")
        path = realization_path(g, edge)
        assert path.sequence == (NodeRef(2, "s1"), NodeRef(1, "s1"),
                                 NodeRef(1, "z1"), NodeRef(1, "u1"), NodeRef(2, "u1"))
        assert [h.name for h in path.hop_edges] == ["b3", "b1"]
        assert path.via_layer == 1

    def test_isolated_server_has_no_realization(self, t1_instance):
        g = t1_instance.graph
        g.remove_intra_edge(1, "z1", "s1")
        g.remove_intra_edge(1, "s1", "s2")
        with pytest.raises(NoRealization):
            realization_path(g, g.find_intra(2, "s1", "u1"))

    def test_single_hop(self):
        g = MultiLayerGraph()
        g.add_layer(["a", "b"])
        g.add_intra_edge(1, "a", "b")
        g.add_layer(["a", "b"])
        g.add_inter_edge(NodeRef(2, "a"), NodeRef(1, "a"))
        g.add_inter_edge(NodeRef(2, "b"), NodeRef(1, "b"))
        upper = g.add_intra_edge(2, "a", "b")
        path = realization_path(g, upper)
        assert len(path.hop_edges) == 1

    def test_falls_back_to_lower_layers(self):
        # layer 3 edge with no layer-2 projection but a direct layer-1 one
        g = MultiLayerGraph()
        g.add_layer(["a", "b"])
        g.add_intra_edge(1, "a", "b")
        g.add_layer(["m"])
        g.add_layer(["a", "b"])
        g.add_inter_edge(NodeRef(3, "a"), NodeRef(1, "a"))
        g.add_inter_edge(NodeRef(3, "b"), NodeRef(1, "b"))
        top = g.add_intra_edge(3, "a", "b")
        path = realization_path(g, top)
        assert path.via_layer == 1

    def test_paths_are_simple(self, t1_instance):
        g = t1_instance.graph
        for layer in (2, 3):
            for edge in g.intra_edges(layer):
                path = realization_path(g, edge)
                assert len(set(path.sequence)) == len(path.sequence)

    def test_deterministic(self, t1):
        a = build_redundant_mlg(t1)
        b = build_redundant_mlg(t1)
        for edge_a, edge_b in zip(a.graph.intra_edges(2), b.graph.intra_edges(2)):
            pa = realization_path(a.graph, edge_a)
            pb = realization_path(b.graph, edge_b)
            assert pa.sequence == pb.sequence


class TestValidateOverlay:
    def test_single_layer_vacuous(self):
        g = small_graph()
        g.add_intra_edge(1, "u1", "z1")
        assert validate_overlay(g).ok

    def test_t1_valid(self, t1_instance):
        assert validate_overlay(t1_instance.graph).ok

    def test_isolated_server_violations(self, t1_instance):
        g = t1_instance.graph
        g.remove_intra_edge(1, "z1", "s1")
        g.remove_intra_edge(1, "s1", "s2")
        report = validate_overlay(g)
        assert not report.ok
        bad = {(e.layer, e.ends) for e, _ in report.violations}
        assert bad == {(2, ("s1", "s2")), (2, ("s1", "u1")), (2, ("s1", "u2"))}

    def test_adding_lower_edge_preserves_validity(self, t1_instance):
        g = t1_instance.graph
        assert validate_overlay(g).ok
        g.add_intra_edge(1, "u1", "u2", capacity=1.0)
        assert validate_overlay(g).ok

    def test_matches_realization_path_on_broken_corpus(self):
        """The violations are, in order, exactly the upper edges that
        realization_path cannot realize, with seeded random layer-1 and
        layer-2 edges removed from the corpus instances."""
        violations = 0
        for seed in range(9000, 9100):
            rng = random.Random(seed)
            g = build_redundant_mlg(random_problem(rng)).graph
            for layer in (1, 2):
                for edge in g.intra_edges(layer):
                    if rng.random() < 0.3:
                        g.remove_intra_edge(layer, *edge.ends)
            expected = []
            for edge in g.intra_edges(2) + g.intra_edges(3):
                try:
                    realization_path(g, edge)
                except NoRealization:
                    expected.append((edge, "NoRealization"))
            assert validate_overlay(g).violations == expected
            violations += len(expected)
        assert violations > 50

    @staticmethod
    def three_layers(layer1_edge: bool):
        """Layer-3 edge a-b above a layer 2 where a and b are apart (a-c is
        realized by a-m) and a layer 1 where they are joined through m,
        or not at all."""
        g = MultiLayerGraph()
        g.add_layer(["a", "m", "b"])
        g.add_intra_edge(1, "a", "m")
        if layer1_edge:
            g.add_intra_edge(1, "m", "b")
        g.add_layer(["a", "b", "c"])
        g.add_intra_edge(2, "a", "c")
        g.add_inter_edge(NodeRef(2, "c"), NodeRef(1, "m"))
        g.add_layer(["a", "b"])
        for node in ("a", "b"):
            g.add_inter_edge(NodeRef(3, node), NodeRef(2, node))
            g.add_inter_edge(NodeRef(3, node), NodeRef(1, node))
            g.add_inter_edge(NodeRef(2, node), NodeRef(1, node))
        return g, g.add_intra_edge(3, "a", "b")

    def test_layer3_edge_realized_only_through_layer1(self):
        g, top = self.three_layers(layer1_edge=True)
        assert validate_overlay(g).ok
        assert realization_path(g, top).via_layer == 1

    def test_layer3_edge_realized_nowhere(self):
        g, top = self.three_layers(layer1_edge=False)
        assert validate_overlay(g).violations == [(top, "NoRealization")]
        with pytest.raises(NoRealization):
            realization_path(g, top)
