"""Flow assignments and their conservation and capacity checks.

Flows are kept per commodity as directed arc volumes between NodeRefs
(any mix of intra- and inter-layer steps).  A path adds its flow to
each arc it crosses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import MlgError
from .mlg import MultiLayerGraph, NodeRef, inter_key, intra_key

CONSERVATION_TOL = 1e-6
PROJECTION_TOL = 1e-9


@dataclass
class Session:
    """One subscriber session and its traffic volume."""

    subscriber: str
    volume: float

    def __post_init__(self):
        if self.volume < 0:
            raise MlgError(f"session volume must be >= 0, got {self.volume}")


@dataclass(frozen=True)
class Commodity:
    """A demand volume routed from the service side to one subscriber."""

    id: str
    source: NodeRef
    sink: NodeRef
    demand: float

    def __post_init__(self):
        if self.source == self.sink:
            raise MlgError("commodity source and sink must differ")
        if self.demand <= 0:
            raise MlgError("commodity demand must be > 0")


@dataclass
class CheckReport:
    """Outcome of a feasibility check; ``violations`` are (subject, detail) pairs."""

    violations: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _arc_edge_key(a: NodeRef, b: NodeRef) -> tuple:
    if a.layer == b.layer:
        return intra_key(a.layer, a.id, b.id)
    upper, lower = (a, b) if a.layer > b.layer else (b, a)
    return inter_key(upper, lower)


class FlowAssignment:
    """Per-commodity directed arc flows."""

    def __init__(self):
        self._arcs: dict[str, dict[tuple[NodeRef, NodeRef], float]] = {}

    def add_arc(self, commodity_id: str, a: NodeRef, b: NodeRef, flow: float) -> None:
        if flow < 0:
            raise MlgError("arc flow must be >= 0")
        arcs = self._arcs.setdefault(commodity_id, {})
        arcs[(a, b)] = arcs.get((a, b), 0.0) + flow

    def add_path(self, commodity_id: str, nodes: Sequence[NodeRef], flow: float) -> None:
        nodes = tuple(NodeRef(*n) for n in nodes)
        for a, b in zip(nodes, nodes[1:]):
            self.add_arc(commodity_id, a, b, flow)

    def commodity_ids(self) -> list[str]:
        return sorted(self._arcs)

    def arcs(self, commodity_id: str) -> dict[tuple[NodeRef, NodeRef], float]:
        return dict(self._arcs.get(commodity_id, {}))

    def edge_totals(self) -> dict[tuple, float]:
        """Total flow per edge key, both directions and all commodities summed."""
        totals: dict[tuple, float] = {}
        for arcs in self._arcs.values():
            for (a, b), flow in arcs.items():
                key = _arc_edge_key(a, b)
                totals[key] = totals.get(key, 0.0) + flow
        return totals


def aggregate_service_flows(sessions: Iterable[Session]) -> dict[str, float]:
    """Per-subscriber demand: sum of that subscriber's session volumes."""
    totals: dict[str, float] = {}
    for s in sessions:
        if s.volume < 0:
            raise MlgError("session volume must be >= 0")
        totals[s.subscriber] = totals.get(s.subscriber, 0.0) + s.volume
    return totals


def check_productivity_projection(server_productivities: Sequence[float],
                                  service_productivity: float) -> CheckReport:
    """Verify the server productivities sum to the service productivity."""
    total = sum(server_productivities)
    report = CheckReport()
    diff = total - service_productivity
    if abs(diff) > PROJECTION_TOL:
        report.violations.append(("productivity", diff))
    return report


def check_conservation(graph: MultiLayerGraph, flows: FlowAssignment,
                       commodities: Sequence[Commodity]) -> CheckReport:
    """Per commodity, net flow must be +demand at the source, -demand at
    the sink and zero at every transit node."""
    report = CheckReport()
    by_id = {c.id: c for c in commodities}
    for cid in flows.commodity_ids():
        if cid not in by_id:
            raise MlgError(f"flows reference unknown commodity {cid!r}")
    for commodity in commodities:
        arcs = flows.arcs(commodity.id)
        net: dict[NodeRef, float] = {}
        for (a, b), flow in arcs.items():
            if graph.find_edge(a, b) is None:
                raise MlgError(f"flow on nonexistent edge {a}-{b}")
            net[a] = net.get(a, 0.0) + flow
            net[b] = net.get(b, 0.0) - flow
        for node in sorted(set(net) | {commodity.source, commodity.sink}):
            expected = 0.0
            if node == commodity.source:
                expected = commodity.demand
            elif node == commodity.sink:
                expected = -commodity.demand
            residual = net.get(node, 0.0) - expected
            if abs(residual) > CONSERVATION_TOL:
                report.violations.append((node, commodity.id, residual))
    return report


def check_capacities(graph: MultiLayerGraph, flows: FlowAssignment) -> CheckReport:
    """Every finite-capacity edge must carry total flow <= capacity +
    ``CONSERVATION_TOL``."""
    report = CheckReport()
    totals = flows.edge_totals()
    capacities: dict[tuple, float] = {}
    for edge in graph.all_intra_edges():
        capacities[edge.key] = edge.capacity
    for edge in graph.inter_edges():
        capacities[edge.key] = edge.capacity
    for key in sorted(totals):
        if key not in capacities:
            raise MlgError(f"flow on nonexistent edge {key}")
        cap = capacities[key]
        if cap != float("inf") and totals[key] > cap + CONSERVATION_TOL:
            report.violations.append((key, totals[key] - cap))
    return report
