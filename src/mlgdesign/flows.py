"""Flow assignments and their conservation and capacity checks.

Flows are kept per commodity as directed arc volumes between NodeRefs
(any mix of intra- and inter-layer steps).  A path adds its flow to
each arc it crosses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Sequence

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
    return inter_key(a, b) if a.layer > b.layer else inter_key(b, a)


class FlowAssignment:
    """Per-commodity directed arc flows."""

    def __init__(self):
        self._arcs: dict[str, dict[tuple[NodeRef, NodeRef], float]] = {}
        self._totals: Optional[dict[tuple, float]] = None  # edge_totals, kept until a change

    def add_arc(self, commodity_id: str, a: NodeRef, b: NodeRef, flow: float) -> None:
        """Add ``flow`` to arc a -> b; an end that is not yet a
        :class:`NodeRef` is made one."""
        self.add_path(commodity_id, (a, b), flow)

    def add_path(self, commodity_id: str, nodes: Sequence[NodeRef], flow: float) -> None:
        """Add ``flow`` to each arc of the path; a node that is not yet a
        :class:`NodeRef` is made one."""
        if flow < 0:
            raise MlgError("arc flow must be >= 0")
        refs = [n if isinstance(n, NodeRef) else NodeRef(*n) for n in nodes]
        self._totals = None
        arcs = self._arcs.setdefault(commodity_id, {})
        for arc in zip(refs, refs[1:]):
            arcs[arc] = arcs.get(arc, 0.0) + flow

    def commodity_ids(self) -> list[str]:
        return sorted(self._arcs)

    def arcs(self, commodity_id: str) -> dict[tuple[NodeRef, NodeRef], float]:
        return dict(self._arcs.get(commodity_id, {}))

    def edge_totals(self) -> dict[tuple, float]:
        """Total flow per edge key, both directions and all commodities
        summed: a new dict each call."""
        return dict(self._edge_totals())

    def _edge_totals(self) -> dict[tuple, float]:
        """:meth:`edge_totals`, summed once until the next change; not to be
        mutated."""
        if self._totals is None:
            totals: dict[tuple, float] = {}
            for arcs in self._arcs.values():
                for (a, b), flow in arcs.items():
                    key = _arc_edge_key(a, b)
                    totals[key] = totals.get(key, 0.0) + flow
            self._totals = totals
        return self._totals


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
    the sink and zero at every transit node.  Each edge that carries
    flow is looked up once, by its key (:meth:`MultiLayerGraph.edge`); a
    commodity's violations are (node, commodity id, net - expected), in
    node order."""
    report = CheckReport()
    by_id = {c.id: c for c in commodities}
    for cid in flows.commodity_ids():
        if cid not in by_id:
            raise MlgError(f"flows reference unknown commodity {cid!r}")
    edge = graph.edge
    if any(edge(key) is None for key in flows._edge_totals()):
        # name the first arc on a missing edge, in commodity and arc order
        for commodity in commodities:
            for a, b in flows._arcs.get(commodity.id, {}):
                if edge(_arc_edge_key(a, b)) is None:
                    raise MlgError(f"flow on nonexistent edge {a}-{b}")
    for commodity in commodities:
        net: dict[NodeRef, float] = {}
        for (a, b), flow in flows._arcs.get(commodity.id, {}).items():
            net[a] = net.get(a, 0.0) + flow
            net[b] = net.get(b, 0.0) - flow
        for end in (commodity.source, commodity.sink):
            net.setdefault(end, 0.0)
        violations = []
        for node, value in net.items():
            expected = 0.0
            if node == commodity.source:
                expected = commodity.demand
            elif node == commodity.sink:
                expected = -commodity.demand
            residual = value - expected
            if abs(residual) > CONSERVATION_TOL:
                violations.append((node, commodity.id, residual))
        violations.sort(key=itemgetter(0))
        report.violations += violations
    return report


def check_capacities(graph: MultiLayerGraph, flows: FlowAssignment) -> CheckReport:
    """Every finite-capacity edge must carry total flow <= capacity +
    ``CONSERVATION_TOL``.  Only the edges that carry flow are read, each
    by its key (:meth:`MultiLayerGraph.edge`); violations are (key,
    excess), in key order."""
    report = CheckReport()
    missing = []
    for key, total in flows._edge_totals().items():
        edge = graph.edge(key)
        if edge is None:
            missing.append(key)
        elif edge.capacity != math.inf and total > edge.capacity + CONSERVATION_TOL:
            report.violations.append((key, total - edge.capacity))
    if missing:
        raise MlgError(f"flow on nonexistent edge {min(missing)}")
    report.violations.sort(key=itemgetter(0))
    return report
