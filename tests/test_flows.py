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

