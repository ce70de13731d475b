import pytest

from mlgdesign import (Commodity, FlowAssignment, NodeRef, Session,
                       aggregate_service_flows, check_capacities,
                       check_conservation, check_productivity_projection,
                       solve_capacitated)
from mlgdesign.errors import MlgError


class TestAggregateServiceFlows:
    def test_sums_per_subscriber(self):
        totals = aggregate_service_flows([Session("u1", 2.0), Session("u1", 1.0)])
        assert totals == {"u1": 3.0}

    def test_empty(self):
        assert aggregate_service_flows([]) == {}

    def test_t1_demands(self):
        totals = aggregate_service_flows([Session("u1", 3.0), Session("u2", 4.0)])
        assert totals == {"u1": 3.0, "u2": 4.0}

    def test_negative_volume_rejected(self):
        with pytest.raises(MlgError):
            Session("u1", -1.0)


class TestProductivityProjection:
    def test_exact_match(self):
        assert check_productivity_projection([5.0, 5.0], 10.0).ok

    def test_deficit_reported(self):
        report = check_productivity_projection([5.0, 5.0], 12.0)
        assert not report.ok
        assert report.violations[0][1] == pytest.approx(-2.0)

    def test_empty_sum(self):
        assert check_productivity_projection([], 0.0).ok


def t1_route(instance, cid, server, layer1_nodes, flow):
    nodes = ([instance.service_node, NodeRef(2, server)]
             + [NodeRef(1, n) for n in layer1_nodes]
             + [NodeRef(2, cid), NodeRef(3, cid)])
    return cid, nodes, flow


class TestConservation:
    def test_telescoping_path_ok(self, t1_instance):
        flows = FlowAssignment()
        cid, nodes, f = t1_route(t1_instance, "u1", "s1", ["s1", "z1", "u1"], 3.0)
        flows.add_path(cid, nodes, f)
        commodity = next(c for c in t1_instance.commodities if c.id == "u1")
        assert check_conservation(t1_instance.graph, flows, [commodity]).ok

    def test_imbalance_detected(self, t1_instance):
        flows = FlowAssignment()
        flows.add_arc("u1", NodeRef(1, "s1"), NodeRef(1, "z1"), 3.0)
        flows.add_arc("u1", NodeRef(1, "z1"), NodeRef(1, "u1"), 2.0)
        commodity = Commodity(id="u1", source=NodeRef(1, "s1"),
                              sink=NodeRef(1, "u1"), demand=3.0)
        report = check_conservation(t1_instance.graph, flows, [commodity])
        assert not report.ok
        residuals = {(node, cid): res for node, cid, res in report.violations}
        assert abs(residuals[(NodeRef(1, "z1"), "u1")]) == pytest.approx(1.0)

    def test_no_commodities_no_flows_ok(self, t1_instance):
        assert check_conservation(t1_instance.graph, FlowAssignment(), []).ok

    def test_empty_assignment_with_demand_fails(self, t1_instance):
        report = check_conservation(t1_instance.graph, FlowAssignment(),
                                    t1_instance.commodities)
        assert not report.ok

    def test_unknown_edge_rejected(self, t1_instance):
        flows = FlowAssignment()
        flows.add_arc("u1", NodeRef(1, "u1"), NodeRef(1, "u2"), 1.0)
        with pytest.raises(MlgError, match="nonexistent"):
            check_conservation(t1_instance.graph, flows, t1_instance.commodities)


class TestCapacities:
    def test_optimal_t1_within_caps(self, t1_instance):
        solution = solve_capacitated(t1_instance)
        assert check_capacities(t1_instance.graph, solution.flow_assignment).ok

    def test_inter_edge_excess(self, t1_instance):
        flows = FlowAssignment()
        flows.add_arc("u1", t1_instance.service_node, NodeRef(2, "s1"), 5.5)
        report = check_capacities(t1_instance.graph, flows)
        assert not report.ok
        assert report.violations[0][1] == pytest.approx(0.5)

    def test_unbounded_edge_never_violates(self, t1_instance):
        flows = FlowAssignment()
        flows.add_arc("u1", NodeRef(3, "u1"), NodeRef(2, "u1"), 1e9)
        assert check_capacities(t1_instance.graph, flows).ok



def violating_assignment(instance):
    """t1 flows that break conservation at six nodes and three capacities:
    an extra layer-1 arc and an extra service injection for u1, a
    12-unit u2 route over 10-capacity channels and a backward arc."""
    service = instance.service_node
    flows = FlowAssignment()
    flows.add_path("u1", [service, (2, "s1"), (1, "s1"), (1, "z1"), (1, "u1"),
                          (2, "u1"), (3, "u1")], 3.0)
    flows.add_arc("u1", NodeRef(1, "z1"), NodeRef(1, "u2"), 2.0)
    flows.add_arc("u1", service, NodeRef(2, "s2"), 7.0)
    flows.add_path("u2", [service, (2, "s2"), (1, "s2"), (1, "z1"), (1, "u2"),
                          (2, "u2"), (3, "u2")], 12.0)
    flows.add_arc("u2", NodeRef(1, "u2"), NodeRef(1, "z1"), 1.5)
    return flows


class TestChecksByKey:
    def test_add_path_wraps_plain_tuples(self, t1_instance):
        flows = violating_assignment(t1_instance)
        assert all(isinstance(node, NodeRef)
                   for arc in flows.arcs("u1") for node in arc)

    def test_add_arc_wraps_plain_tuples(self, t1_instance):
        flows = FlowAssignment()
        flows.add_arc("u1", (1, "s1"), (1, "z1"), 2.0)
        flows.add_arc("u1", NodeRef(1, "s1"), NodeRef(1, "z1"), 1.0)
        assert flows.arcs("u1") == {(NodeRef(1, "s1"), NodeRef(1, "z1")): 3.0}
        assert check_capacities(t1_instance.graph, flows).ok

    def test_add_path_rejects_negative_flow_before_any_arc(self):
        flows = FlowAssignment()
        with pytest.raises(MlgError, match="arc flow must be >= 0"):
            flows.add_path("u1", [NodeRef(1, "a"), NodeRef(1, "b"), NodeRef(1, "c")], -1.0)
        assert flows.commodity_ids() == []

    def test_violation_lists(self, t1_instance):
        """The violations, in node order per commodity and in key order."""
        flows = violating_assignment(t1_instance)
        conservation = check_conservation(t1_instance.graph, flows,
                                          t1_instance.commodities)
        assert conservation.violations == [
            (NodeRef(1, "u2"), "u1", -2.0), (NodeRef(1, "z1"), "u1", 2.0),
            (NodeRef(2, "s2"), "u1", -7.0), (NodeRef(3, "v0"), "u1", 7.0),
            (NodeRef(1, "u2"), "u2", 1.5), (NodeRef(1, "z1"), "u2", -1.5),
            (NodeRef(3, "u2"), "u2", -8.0), (NodeRef(3, "v0"), "u2", 8.0)]
        capacities = check_capacities(t1_instance.graph, flows)
        assert capacities.violations == [
            (("inter", NodeRef(3, "v0"), NodeRef(2, "s2")), 14.0),
            (("intra", 1, "s2", "z1"), 2.0),
            (("intra", 1, "u2", "z1"), 5.5)]

    def test_edge_totals_follow_changes(self, t1_instance):
        flows = violating_assignment(t1_instance)
        before = flows.edge_totals()
        before[("intra", 1, "u2", "z1")] = 0.0  # a copy: the flows keep theirs
        assert flows.edge_totals()[("intra", 1, "u2", "z1")] == 15.5
        flows.add_arc("u2", NodeRef(1, "z1"), NodeRef(1, "u2"), 1.0)
        assert flows.edge_totals()[("intra", 1, "u2", "z1")] == 16.5

    def test_made_up_arcs_rejected_by_name(self, t1_instance):
        """Both checks name the first edge that does not exist: the
        conservation check the first such arc in commodity and arc order,
        the capacity check the least such key."""
        flows = violating_assignment(t1_instance)
        flows.add_arc("u1", NodeRef(1, "u1"), NodeRef(1, "u2"), 1.0)
        flows.add_arc("u2", NodeRef(1, "s1"), NodeRef(1, "u2"), 1.0)
        with pytest.raises(MlgError, match=r"^flow on nonexistent edge "
                           r"NodeRef\(layer=1, id='u1'\)-NodeRef\(layer=1, id='u2'\)$"):
            check_conservation(t1_instance.graph, flows, t1_instance.commodities)
        with pytest.raises(MlgError, match=r"^flow on nonexistent edge "
                           r"\('intra', 1, 's1', 'u2'\)$"):
            check_capacities(t1_instance.graph, flows)

    def test_made_up_inter_arc_rejected(self, t1_instance):
        flows = FlowAssignment()
        flows.add_arc("u1", NodeRef(3, "u1"), NodeRef(1, "u1"), 1.0)
        with pytest.raises(MlgError, match="nonexistent"):
            check_capacities(t1_instance.graph, flows)
        with pytest.raises(MlgError, match="nonexistent"):
            check_conservation(t1_instance.graph, flows, t1_instance.commodities)
