import pytest

from mlgdesign import (MultiLayerGraph, NodeRef, NoRealization, build_redundant_mlg,
                       realization_path, validate_overlay)
from mlgdesign.errors import GraphError


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
