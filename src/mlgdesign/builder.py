"""Turns a design problem statement into the redundant 3-layer graph.

Layer 1 holds the physical topology (subscribers, intermediate nodes,
servers, all candidate channels).  Layer 2 holds the server/subscriber
interaction mesh.  Layer 3 is the service star.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyServerSet, MlgError, ProductivityMismatch
from .flows import Commodity, Session, aggregate_service_flows
from .mlg import IntraEdge, MultiLayerGraph, NodeRef

PRODUCTIVITY_TOL = 1e-9  # relative


@dataclass
class Subscriber:
    id: str
    sessions: list[Session] = field(default_factory=list)

    @property
    def demand(self) -> float:
        return sum(s.volume for s in self.sessions)


@dataclass
class Server:
    id: str
    productivity: float


@dataclass
class Channel:
    id: str
    ends: tuple[str, str]
    capacity: float
    cost: float = 1.0


@dataclass
class DesignProblem:
    subscribers: list[Subscriber]
    servers: list[Server]
    service_id: str
    service_productivity: float
    intermediates: list[str] = field(default_factory=list)
    channels: list[Channel] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        ids: set[str] = set()
        for nid in ([s.id for s in self.subscribers]
                    + [s.id for s in self.servers]
                    + list(self.intermediates)
                    + [self.service_id]):
            if not nid:
                raise MlgError("node id must be nonempty")
            if nid in ids:
                raise MlgError(f"duplicate node id {nid!r}")
            ids.add(nid)
        node_ids = ids - {self.service_id}
        channel_ids = set()
        for ch in self.channels:
            if ch.id in channel_ids:
                raise MlgError(f"duplicate channel id {ch.id!r}")
            channel_ids.add(ch.id)
            if ch.capacity <= 0:
                raise MlgError(f"channel {ch.id}: capacity must be positive")
            if ch.cost < 0:
                raise MlgError(f"channel {ch.id}: cost must be >= 0")
            for end in ch.ends:
                if end not in node_ids:
                    raise MlgError(f"channel {ch.id}: endpoint {end!r} does not exist")
            if ch.ends[0] == ch.ends[1]:
                raise MlgError(f"channel {ch.id}: self-loop forbidden")
        for srv in self.servers:
            if srv.productivity < 0:
                raise MlgError(f"server {srv.id}: productivity must be >= 0")
        for sub in self.subscribers:
            for session in sub.sessions:
                if session.subscriber != sub.id:
                    raise MlgError(f"subscriber {sub.id}: session names "
                                   f"subscriber {session.subscriber!r}")


@dataclass
class BuiltInstance:
    """Redundant 3-layer graph plus the commodity list derived from it."""

    problem: DesignProblem
    graph: MultiLayerGraph
    commodities: list[Commodity]
    channel_edges: dict[str, IntraEdge]

    @property
    def service_node(self) -> NodeRef:
        return NodeRef(3, self.problem.service_id)

    def server_ids(self) -> list[str]:
        return sorted(s.id for s in self.problem.servers)

    def server_productivity(self, server_id: str) -> float:
        for s in self.problem.servers:
            if s.id == server_id:
                return s.productivity
        raise KeyError(server_id)


def derive_commodities(problem: DesignProblem) -> list[Commodity]:
    """One commodity per subscriber with positive aggregated demand,
    sorted by subscriber id."""
    sessions = [s for sub in problem.subscribers for s in sub.sessions]
    demands = aggregate_service_flows(sessions)
    out = []
    source = NodeRef(3, problem.service_id)
    for sub in sorted(problem.subscribers, key=lambda s: s.id):
        demand = demands.get(sub.id, 0.0)
        if demand > 0:
            out.append(Commodity(id=sub.id, source=source, sink=NodeRef(3, sub.id),
                                 demand=demand))
    return out


def build_redundant_mlg(problem: DesignProblem,
                        allow_surplus: bool = False) -> BuiltInstance:
    """Construct the redundant 3-layer instance.

    Layer 3: service star over all subscribers.  Layer 2: complete
    server mesh plus complete server-subscriber bipartite graph, no
    subscriber-subscriber edges.  Layer 1: all candidate channels.
    With ``allow_surplus`` the productivity identity is relaxed to
    "servers sum >= service".  The problem is validated again first, so
    a problem edited after construction cannot skip its checks.
    """
    problem.validate()
    total_p = sum(s.productivity for s in problem.servers)
    service_p = problem.service_productivity
    scale = max(abs(service_p), abs(total_p), 1.0)
    deficit = total_p - service_p
    if allow_surplus:
        bad = deficit < -PRODUCTIVITY_TOL * scale
    else:
        bad = abs(deficit) > PRODUCTIVITY_TOL * scale
    if bad:
        raise ProductivityMismatch(total_p, service_p)

    commodities = derive_commodities(problem)
    if commodities and not problem.servers:
        raise EmptyServerSet("positive demand but no servers")

    subs = sorted(s.id for s in problem.subscribers)
    servers = sorted(s.id for s in problem.servers)
    productivity = {s.id: s.productivity for s in problem.servers}

    graph = MultiLayerGraph()
    graph.add_layer(subs + list(problem.intermediates) + servers)
    channel_edges: dict[str, IntraEdge] = {}
    for ch in problem.channels:
        channel_edges[ch.id] = graph.add_intra_edge(
            1, ch.ends[0], ch.ends[1], capacity=ch.capacity, cost=ch.cost, name=ch.id)

    graph.add_layer(servers + subs)
    for i, si in enumerate(servers):
        for sj in servers[i + 1:]:
            graph.add_intra_edge(2, si, sj)
        for sub in subs:
            graph.add_intra_edge(2, si, sub)

    graph.add_layer([problem.service_id] + subs)
    for sub in subs:
        graph.add_intra_edge(3, problem.service_id, sub)

    for sub in subs:
        middle = NodeRef(2, sub)
        graph.add_inter_edge(NodeRef(3, sub), middle)
        graph.add_inter_edge(middle, NodeRef(1, sub))
    service = NodeRef(3, problem.service_id)
    for srv in servers:
        middle = NodeRef(2, srv)
        graph.add_inter_edge(service, middle, capacity=productivity[srv])
        graph.add_inter_edge(middle, NodeRef(1, srv))

    return BuiltInstance(problem=problem, graph=graph,
                         commodities=commodities, channel_edges=channel_edges)
