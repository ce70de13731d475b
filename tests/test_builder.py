import dataclasses
import math
import random

import pytest

from mlgdesign import (Channel, DesignProblem, EmptyServerSet, MlgError,
                       ProductivityMismatch, Server, Session, Subscriber,
                       build_redundant_mlg, derive_commodities, solve_capacitated,
                       validate_overlay)
from mlgdesign.flows import Commodity
from mlgdesign.mlg import NodeRef
from helpers import random_problem


def edge_set(graph, layer):
    return {e.ends for e in graph.intra_edges(layer)}


class TestBuildRedundantMlg:
    def test_t1_structure(self, t1_instance):
        g = t1_instance.graph
        assert g.layer_count == 3
        assert edge_set(g, 3) == {("u1", "v0"), ("u2", "v0")}
        assert edge_set(g, 2) == {("s1", "s2"), ("s1", "u1"), ("s1", "u2"),
                                  ("s2", "u1"), ("s2", "u2")}
        assert sorted(t1_instance.channel_edges) == ["b1", "b2", "b3", "b4", "b5"]
        assert [(c.id, c.demand) for c in t1_instance.commodities] == \
            [("u1", 3.0), ("u2", 4.0)]

    def test_minimal_instance(self):
        problem = DesignProblem(
            subscribers=[Subscriber("u1", [Session("u1", 1.0)])],
            servers=[Server("s1", 1.0)],
            service_id="v0", service_productivity=1.0,
            channels=[Channel("b1", ("u1", "s1"), 5.0)])
        inst = build_redundant_mlg(problem)
        assert edge_set(inst.graph, 3) == {("u1", "v0")}
        assert edge_set(inst.graph, 2) == {("s1", "u1")}
        assert len(inst.commodities) == 1

    def test_productivity_mismatch(self, t1):
        t1.service_productivity = 12.0
        with pytest.raises(ProductivityMismatch):
            build_redundant_mlg(t1)

    def test_surplus_allowed_when_relaxed(self, t1):
        t1.service_productivity = 8.0  # servers sum to 10
        inst = build_redundant_mlg(t1, allow_surplus=True)
        assert inst.graph.layer_count == 3

    def test_empty_server_set(self):
        problem = DesignProblem(
            subscribers=[Subscriber("u1", [Session("u1", 1.0)])],
            servers=[], service_id="v0", service_productivity=0.0,
            channels=[])
        with pytest.raises(EmptyServerSet):
            build_redundant_mlg(problem)

    def test_zero_demand_subscriber_keeps_star_spoke(self):
        problem = DesignProblem(
            subscribers=[Subscriber("u1", [Session("u1", 2.0)]),
                         Subscriber("u2", [])],
            servers=[Server("s1", 2.0)],
            service_id="v0", service_productivity=2.0,
            channels=[Channel("b1", ("u1", "s1"), 5.0),
                      Channel("b2", ("u2", "s1"), 5.0)])
        inst = build_redundant_mlg(problem)
        assert edge_set(inst.graph, 3) == {("u1", "v0"), ("u2", "v0")}
        assert [c.id for c in inst.commodities] == ["u1"]

    def test_service_to_server_capacity_is_productivity(self, t1_instance):
        from mlgdesign import NodeRef
        edge = t1_instance.graph.find_inter(NodeRef(3, "v0"), NodeRef(2, "s1"))
        assert edge.capacity == 5.0

    @pytest.mark.parametrize("seed", range(6))
    def test_mesh_and_star_counts(self, seed):
        problem = random_problem(random.Random(seed), max_subs=4, max_servers=3,
                                 max_intermediates=3, max_channels=10)
        inst = build_redundant_mlg(problem)
        n_sub = len(problem.subscribers)
        n_srv = len(problem.servers)
        assert len(inst.graph.intra_edges(3)) == n_sub
        assert len(inst.graph.intra_edges(2)) == \
            n_srv * (n_srv - 1) // 2 + n_srv * n_sub
        subs = {s.id for s in problem.subscribers}
        for edge in inst.graph.intra_edges(2):
            assert not set(edge.ends) <= subs  # no subscriber-subscriber links

    @pytest.mark.parametrize("seed", range(4))
    def test_connected_instances_validate(self, seed):
        problem = random_problem(random.Random(100 + seed))
        inst = build_redundant_mlg(problem)
        assert validate_overlay(inst.graph).ok

    def test_idempotent(self, t1):
        a = build_redundant_mlg(t1)
        b = build_redundant_mlg(t1)
        for layer in (1, 2, 3):
            assert edge_set(a.graph, layer) == edge_set(b.graph, layer)
        assert [e.key for e in a.graph.inter_edges()] == \
            [e.key for e in b.graph.inter_edges()]


class TestDeriveCommodities:
    def test_t1(self, t1):
        commodities = derive_commodities(t1)
        assert [(c.id, c.demand) for c in commodities] == [("u1", 3.0), ("u2", 4.0)]
        assert all(c.source.id == "v0" and c.source.layer == 3 for c in commodities)

    def test_zero_session_omitted(self):
        problem = DesignProblem(
            subscribers=[Subscriber("u1", [Session("u1", 0.0)])],
            servers=[Server("s1", 0.0)],
            service_id="v0", service_productivity=0.0, channels=[])
        assert derive_commodities(problem) == []

    def test_empty(self):
        problem = DesignProblem(subscribers=[], servers=[], service_id="v0",
                                service_productivity=0.0, channels=[])
        assert derive_commodities(problem) == []


class TestSessionOwner:
    """A session naming another subscriber would move or drop its demand
    in ``derive_commodities``; the problem rejects it instead."""

    @pytest.mark.parametrize("foreign", ["ghost", "relabelled"])
    def test_foreign_session_rejected(self, t1, foreign):
        u1 = t1.subscribers[0]
        if foreign == "ghost":
            u1.sessions.append(Session("ghost", 50.0))
        else:
            u1.sessions[0] = Session("u2", 3.0)
        for check in (t1.validate, lambda: dataclasses.replace(t1),
                      lambda: build_redundant_mlg(t1)):
            with pytest.raises(MlgError, match="u1: session names subscriber"):
                check()


class TestNonFiniteNumbers:
    """The library refuses a NaN or infinite number, as the problem file
    parser does, where it was solved as unbounded, dropped a demand or
    failed in the LP; a channel capacity of +inf stays an unbounded
    channel."""

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_channel_capacity(self, t1, value):
        t1.channels[0].capacity = value
        self.assert_rejected(t1, "channel b1: capacity")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_channel_cost(self, t1, value):
        t1.channels[0].cost = value
        self.assert_rejected(t1, "channel b1: cost")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_server_productivity(self, t1, value):
        t1.servers[0].productivity = value
        self.assert_rejected(t1, "server s1: productivity")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_service_productivity(self, t1, value):
        t1.service_productivity = value
        self.assert_rejected(t1, "service productivity")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_session_volume(self, t1, value):
        t1.subscribers[0].sessions[0].volume = value
        self.assert_rejected(t1, "subscriber u1: session volume")
        with pytest.raises(MlgError, match="session volume"):
            Session("u1", value)
        with pytest.raises(MlgError, match="session volume"):
            derive_commodities(t1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_commodity_demand(self, value):
        with pytest.raises(MlgError, match="commodity demand"):
            Commodity("u1", NodeRef(3, "v0"), NodeRef(3, "u1"), value)

    def test_unbounded_channel_allowed(self, t1):
        for ch in t1.channels:
            ch.capacity = math.inf
        assert solve_capacitated(build_redundant_mlg(t1)).objective == 14.0

    @staticmethod
    def assert_rejected(problem, what):
        for check in (problem.validate, lambda: build_redundant_mlg(problem)):
            with pytest.raises(MlgError, match=what):
                check()
