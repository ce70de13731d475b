"""Multi-layer graph data model and structural validation.

A multi-layer graph is an ordered stack of ordinary undirected graphs
(layers), numbered from 1 (lowest, physical) upward, plus inter-layer
edges connecting functional units across layers.  Every intra-layer
edge above layer 1 must be realizable as a path through some lower
layer; :func:`validate_overlay` checks this, :func:`realization_path`
computes the witnessing path.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .errors import GraphError, NoRealization

UNBOUNDED = math.inf


class NodeRef(NamedTuple):
    """A node identified by (layer, id); layer 1 is the lowest."""

    layer: int
    id: str


def intra_key(layer: int, u: str, v: str) -> tuple:
    a, b = sorted((u, v))
    return ("intra", layer, a, b)


def inter_key(upper: NodeRef, lower: NodeRef) -> tuple:
    return ("inter", upper, lower)


@dataclass
class IntraEdge:
    """Undirected edge within one layer."""

    layer: int
    ends: tuple[str, str]
    capacity: float = UNBOUNDED
    cost: float = 0.0
    name: Optional[str] = None

    @property
    def key(self) -> tuple:
        return intra_key(self.layer, *self.ends)

    def other(self, node_id: str) -> str:
        a, b = self.ends
        return b if node_id == a else a

    def __repr__(self):
        label = self.name or f"{self.ends[0]}-{self.ends[1]}"
        return f"IntraEdge(L{self.layer}, {label})"


@dataclass
class InterEdge:
    """Edge connecting corresponding nodes on two different layers."""

    upper: NodeRef
    lower: NodeRef
    capacity: float = UNBOUNDED

    @property
    def key(self) -> tuple:
        return inter_key(self.upper, self.lower)

    def __repr__(self):
        return f"InterEdge({self.upper}->{self.lower})"


@dataclass
class RealizationPath:
    """Lower-layer path implementing one upper-layer edge.

    ``sequence`` runs (v_i, m_1, ..., m_k, v_j) where the interior
    nodes all lie on one lower layer; ``hop_edges`` are the intra
    edges of that layer traversed between interior nodes.
    """

    for_edge: IntraEdge
    sequence: tuple[NodeRef, ...]
    hop_edges: tuple[IntraEdge, ...]
    via_layer: int


@dataclass
class ValidationReport:
    violations: list[tuple[IntraEdge, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class MultiLayerGraph:
    """Layered node/edge sets plus inter-layer edges.

    Mutated only during construction; treat as immutable once validated.
    """

    def __init__(self):
        self._layers: list[dict] = []  # per layer: {"nodes": set, "edges": {key: IntraEdge}}
        self._inter: dict[tuple, InterEdge] = {}

    # -- construction -------------------------------------------------

    @property
    def layer_count(self) -> int:
        return len(self._layers)

    def add_layer(self, nodes: Iterable[str]) -> int:
        node_list = list(nodes)
        seen = set()
        for nid in node_list:
            if not nid:
                raise GraphError("node id must be nonempty")
            if nid in seen:
                raise GraphError(f"duplicate node id {nid!r} within layer")
            seen.add(nid)
        self._layers.append({"nodes": seen, "edges": {}})
        return len(self._layers)

    def _layer(self, layer: int) -> dict:
        if not 1 <= layer <= len(self._layers):
            raise GraphError(f"layer {layer} out of range 1..{len(self._layers)}")
        return self._layers[layer - 1]

    def add_intra_edge(
        self,
        layer: int,
        u: str,
        v: str,
        capacity: float = UNBOUNDED,
        cost: float = 0.0,
        name: Optional[str] = None,
    ) -> IntraEdge:
        lay = self._layer(layer)
        if u == v:
            raise GraphError(f"self-loop ({u},{v}) forbidden")
        for nid in (u, v):
            if nid not in lay["nodes"]:
                raise GraphError(f"node {nid!r} missing from layer {layer}")
        if capacity < 0:
            raise GraphError("capacity must be >= 0")
        if cost < 0:
            raise GraphError("cost must be >= 0")
        edge = IntraEdge(layer=layer, ends=tuple(sorted((u, v))), capacity=capacity,
                         cost=cost, name=name)
        if edge.key in lay["edges"]:
            raise GraphError(f"parallel edge ({u},{v}) at layer {layer} forbidden")
        lay["edges"][edge.key] = edge
        return edge

    def remove_intra_edge(self, layer: int, u: str, v: str) -> None:
        lay = self._layer(layer)
        del lay["edges"][intra_key(layer, u, v)]

    def add_inter_edge(self, upper: NodeRef, lower: NodeRef,
                       capacity: float = UNBOUNDED) -> InterEdge:
        upper, lower = NodeRef(*upper), NodeRef(*lower)
        if upper.layer <= lower.layer:
            raise GraphError(
                f"upper layer {upper.layer} must exceed lower layer {lower.layer}")
        for ref in (upper, lower):
            if not self.has_node(ref):
                raise GraphError(f"node {ref} does not exist")
        edge = InterEdge(upper=upper, lower=lower, capacity=capacity)
        self._inter[edge.key] = edge
        return edge

    # -- queries ------------------------------------------------------

    def has_node(self, ref: NodeRef) -> bool:
        return (1 <= ref.layer <= len(self._layers)
                and ref.id in self._layers[ref.layer - 1]["nodes"])

    def nodes(self, layer: int) -> list[str]:
        return sorted(self._layer(layer)["nodes"])

    def intra_edges(self, layer: int) -> list[IntraEdge]:
        return [self._layer(layer)["edges"][k]
                for k in sorted(self._layer(layer)["edges"])]

    def all_intra_edges(self) -> list[IntraEdge]:
        out = []
        for layer in range(1, self.layer_count + 1):
            out.extend(self.intra_edges(layer))
        return out

    def inter_edges(self) -> list[InterEdge]:
        return [self._inter[k] for k in sorted(self._inter)]

    def find_intra(self, layer: int, u: str, v: str) -> Optional[IntraEdge]:
        return self._layer(layer)["edges"].get(intra_key(layer, u, v))

    def find_inter(self, a: NodeRef, b: NodeRef) -> Optional[InterEdge]:
        upper, lower = (a, b) if a.layer > b.layer else (b, a)
        return self._inter.get(inter_key(NodeRef(*upper), NodeRef(*lower)))

    def find_edge(self, a: NodeRef, b: NodeRef):
        """Resolve an arbitrary node pair to the intra or inter edge joining it."""
        if a.layer == b.layer:
            return self.find_intra(a.layer, a.id, b.id)
        return self.find_inter(a, b)

    def neighbors(self, layer: int, node_id: str) -> list[tuple[str, IntraEdge]]:
        out = []
        for edge in self._layer(layer)["edges"].values():
            if node_id in edge.ends:
                out.append((edge.other(node_id), edge))
        out.sort(key=lambda item: item[0])
        return out

    def inter_neighbors_down(self, ref: NodeRef, target_layer: int) -> list[NodeRef]:
        """Lower-layer nodes of ``target_layer`` linked to ``ref`` by inter edges."""
        out = [e.lower for e in self._inter.values()
               if e.upper == ref and e.lower.layer == target_layer]
        return sorted(out)


def realization_path(graph: MultiLayerGraph, edge: IntraEdge) -> RealizationPath:
    """Shortest lower-layer path implementing ``edge``.

    Searches layer l-1 first, then successively lower layers.  Among
    paths in the chosen layer the one with fewest hop edges wins, ties
    broken by lexicographically smallest node-id sequence.
    """
    layer = edge.layer
    if layer <= 1:
        raise GraphError("layer-1 edges need no realization")
    u_ref = NodeRef(layer, edge.ends[0])
    v_ref = NodeRef(layer, edge.ends[1])
    for lower in range(layer - 1, 0, -1):
        starts = [n.id for n in graph.inter_neighbors_down(u_ref, lower)]
        goals = {n.id for n in graph.inter_neighbors_down(v_ref, lower)}
        if not starts or not goals:
            continue
        found = _best_path(graph, lower, starts, goals)
        if found is None:
            continue
        interior, hops = found
        sequence = (u_ref, *interior, v_ref)
        return RealizationPath(for_edge=edge, sequence=sequence,
                               hop_edges=tuple(hops), via_layer=lower)
    raise NoRealization(edge)


def _best_path(graph, layer, starts, goals):
    """Fewest-hop path in one layer from any start to any goal.

    Uses a heap keyed by (hops, node-id sequence) so the first path
    popped at a goal is also the lexicographic tie-break winner.
    """
    heap = [(0, (s,)) for s in sorted(starts)]
    heapq.heapify(heap)
    best_seen: dict[str, tuple] = {}
    while heap:
        hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in best_seen and best_seen[node] <= (hops, path):
            continue
        best_seen[node] = (hops, path)
        if node in goals:
            refs = tuple(NodeRef(layer, n) for n in path)
            edges = [graph.find_intra(layer, a, b) for a, b in zip(path, path[1:])]
            return refs, edges
        for nbr, _edge in graph.neighbors(layer, node):
            if nbr in path:  # keep paths simple
                continue
            heapq.heappush(heap, (hops + 1, path + (nbr,)))
    return None


def validate_overlay(graph: MultiLayerGraph) -> ValidationReport:
    """Check the realizability constraint on every edge above layer 1."""
    report = ValidationReport()
    for layer in range(2, graph.layer_count + 1):
        for edge in graph.intra_edges(layer):
            try:
                realization_path(graph, edge)
            except NoRealization:
                report.violations.append((edge, "NoRealization"))
    return report
