"""Multi-layer graph data model and structural validation.

A multi-layer graph is an ordered stack of ordinary undirected graphs
(layers), numbered from 1 (lowest, physical) upward, plus inter-layer
edges connecting functional units across layers.  Every intra-layer
edge above layer 1 must be realizable as a path through some lower
layer; :func:`validate_overlay` checks this from each lower layer's
connected components, :func:`realization_path` computes the witnessing
path.  :func:`cheapest_paths_from` is the one path search over a
layer's adjacency index: from one start or several, it settles every
node it reaches, a cheapest-path tree or a forest rooted at the starts.
Realization reads its witness off one such search, and the design
solver prices its link-path columns with one per server.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .errors import GraphError, NoRealization

UNBOUNDED = math.inf


class NodeRef(NamedTuple):
    """A node identified by (layer, id); layer 1 is the lowest."""

    layer: int
    id: str


def intra_key(layer: int, u: str, v: str) -> tuple:
    return ("intra", layer, u, v) if u <= v else ("intra", layer, v, u)


def inter_key(upper: NodeRef, lower: NodeRef) -> tuple:
    return ("inter", upper, lower)


@dataclass
class IntraEdge:
    """Undirected edge within one layer.  Its ``key`` (see
    :func:`intra_key`) is computed once, at construction, so ``layer``
    and ``ends`` are not to be changed afterwards."""

    layer: int
    ends: tuple[str, str]
    capacity: float = UNBOUNDED
    cost: float = 0.0
    name: Optional[str] = None
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.key = intra_key(self.layer, *self.ends)

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
        # per layer: {"nodes": set, "edges": {key: IntraEdge},
        #             "adj": {node: {neighbour: IntraEdge}}}
        self._layers: list[dict] = []
        self._inter: dict[tuple, InterEdge] = {}
        self._down: dict[NodeRef, set[NodeRef]] = {}  # upper node -> lower nodes

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
        self._layers.append({"nodes": seen, "edges": {},
                             "adj": {nid: {} for nid in seen}})
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
        nodes = lay["nodes"]
        if u not in nodes or v not in nodes:
            missing = u if u not in nodes else v
            raise GraphError(f"node {missing!r} missing from layer {layer}")
        if not capacity >= 0:  # NaN fails every comparison
            raise GraphError(f"edge ({u},{v}) at layer {layer}: capacity must be >= 0, "
                             f"not {capacity}")
        if not 0 <= cost < math.inf:
            raise GraphError(f"edge ({u},{v}) at layer {layer}: cost must be finite and "
                             f"nonnegative, not {cost}")
        edge = IntraEdge(layer, (u, v) if u <= v else (v, u), capacity, cost, name)
        edges, adj = lay["edges"], lay["adj"]
        if edge.key in edges:
            raise GraphError(f"parallel edge ({u},{v}) at layer {layer} forbidden")
        edges[edge.key] = edge
        adj[u][v] = adj[v][u] = edge
        return edge

    def remove_intra_edge(self, layer: int, u: str, v: str) -> None:
        lay = self._layer(layer)
        del lay["edges"][intra_key(layer, u, v)]
        del lay["adj"][u][v], lay["adj"][v][u]

    def add_inter_edge(self, upper: NodeRef, lower: NodeRef,
                       capacity: float = UNBOUNDED) -> InterEdge:
        if not isinstance(upper, NodeRef):
            upper = NodeRef(*upper)
        if not isinstance(lower, NodeRef):
            lower = NodeRef(*lower)
        if upper.layer <= lower.layer:
            raise GraphError(
                f"upper layer {upper.layer} must exceed lower layer {lower.layer}")
        for ref in (upper, lower):
            if not self.has_node(ref):
                raise GraphError(f"node {ref} does not exist")
        if not capacity >= 0:  # NaN fails every comparison
            raise GraphError(f"inter edge {upper} -> {lower}: capacity must be >= 0, "
                             f"not {capacity}")
        edge = InterEdge(upper, lower, capacity)
        self._inter[inter_key(upper, lower)] = edge
        self._down.setdefault(upper, set()).add(lower)
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

    def edge(self, key: tuple):
        """The intra or inter edge whose ``key`` this is, or None: one
        read of the layer's edge index or of the inter-edge index."""
        if key[0] == "intra":
            layer = key[1]
            return (self._layers[layer - 1]["edges"].get(key)
                    if 1 <= layer <= len(self._layers) else None)
        return self._inter.get(key)

    def adjacency(self, layer: int) -> Mapping[str, Mapping[str, IntraEdge]]:
        """The layer's adjacency index, node -> neighbour -> edge; read only."""
        return self._layer(layer)["adj"]

    def neighbors(self, layer: int, node_id: str) -> list[tuple[str, IntraEdge]]:
        """(neighbour id, edge) pairs of ``node_id``, sorted by neighbour."""
        return sorted(self._layer(layer)["adj"].get(node_id, {}).items())

    def inter_neighbors_down(self, ref: NodeRef, target_layer: int) -> list[NodeRef]:
        """Lower-layer nodes of ``target_layer`` linked to ``ref`` by inter edges."""
        return sorted(n for n in self._down.get(ref, ()) if n.layer == target_layer)


def realization_path(graph: MultiLayerGraph, edge: IntraEdge) -> RealizationPath:
    """Shortest lower-layer path implementing ``edge``.

    Searches layer l-1 first, then successively lower layers.  Among
    paths in the chosen layer the one with fewest hop edges wins, ties
    broken by lexicographically smallest node-id sequence: the least
    (hops, nodes) over the nodes below the far end, read off one
    :func:`cheapest_paths_from` from the nodes below the near end.
    """
    layer = edge.layer
    if layer <= 1:
        raise GraphError("layer-1 edges need no realization")
    u_ref = NodeRef(layer, edge.ends[0])
    v_ref = NodeRef(layer, edge.ends[1])
    for lower in range(layer - 1, 0, -1):
        starts = [n.id for n in graph.inter_neighbors_down(u_ref, lower)]
        tree = cheapest_paths_from(graph, lower, starts, lambda _edge: 1)
        found = min((tree[n.id] for n in graph.inter_neighbors_down(v_ref, lower)
                     if n.id in tree), default=None)
        if found is None:
            continue
        path = found[1]
        hops = tuple(graph.find_intra(lower, a, b) for a, b in zip(path, path[1:]))
        sequence = (u_ref, *(NodeRef(lower, n) for n in path), v_ref)
        return RealizationPath(sequence=sequence, hop_edges=hops, via_layer=lower)
    raise NoRealization(edge)


def cheapest_paths_from(graph: MultiLayerGraph, layer: int, starts: Iterable[str],
                        weight: Callable[[IntraEdge], float]
                        ) -> dict[str, tuple[float, tuple[str, ...]]]:
    """Cheapest path from any start to every node of one layer it
    reaches: node -> ``(cost, nodes)``, costs summed left to right, in
    the order the nodes are settled.  Each path's parent (its second
    last node) is settled before it, so the paths form a forest rooted
    at the starts.

    Entries are keyed by (cost, node-id sequence), so each node's path is
    the cheapest, ties broken by the lexicographically smallest sequence.
    That holds exactly when lengths add exactly in binary floating point
    (integers, halves, ...); with lengths such as 0.1/0.2/0.3, sums equal
    in real arithmetic can round apart, so such ties can fall either way.
    A key never falls below its parent's, so a node's first pop settles
    it and no entry is pushed toward a settled node.  A key is pushed
    toward a node only when it is less than every key pushed toward it
    before: a larger one could never settle it.  A start that a
    zero-cost path from a smaller start reaches is settled on that path.
    A start that is not a node of the layer raises :class:`GraphError`.
    """
    adj = graph.adjacency(layer)
    heap, pushed = [], {}  # pushed: node -> the least key pushed toward it
    for s in sorted(starts):
        if s not in adj:
            raise GraphError(f"start {s!r} is not a node of layer {layer}")
        pushed[s] = key = 0.0, (s,)
        heap.append(key)
    best: dict[str, tuple[float, tuple[str, ...]]] = {}
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in best:
            continue
        best[node] = cost, path
        for nbr, edge in adj[node].items():
            if nbr not in best:
                key = cost + weight(edge), path + (nbr,)
                least = pushed.get(nbr)
                if least is None or key < least:
                    pushed[nbr] = key
                    heapq.heappush(heap, key)
    return best


def _component_labels(graph: MultiLayerGraph, layer: int) -> dict[str, str]:
    """Node -> one node of its connected component within one layer."""
    adj = graph.adjacency(layer)
    label: dict[str, str] = {}
    for root in adj:
        if root in label:
            continue
        label[root] = root
        stack = [root]
        while stack:
            for nbr in adj[stack.pop()]:
                if nbr not in label:
                    label[nbr] = root
                    stack.append(nbr)
    return label


def validate_overlay(graph: MultiLayerGraph) -> ValidationReport:
    """Check the realizability constraint on every edge above layer 1.

    An upper edge is realizable when, on some lower layer, a node below
    one end shares a connected component with a node below the other:
    exactly when :func:`realization_path` finds a witness.  Components
    are labelled once per layer, so no path is searched, and each upper
    node's components below it are gathered once per layer it lies in.
    """
    report = ValidationReport()
    labels = [_component_labels(graph, lower) for lower in range(1, graph.layer_count)]
    for layer in range(2, graph.layer_count + 1):
        # per lower layer, each node of this layer's components below it
        below = [{node: {label[n.id]
                         for n in graph.inter_neighbors_down(NodeRef(layer, node), lower)}
                  for node in graph.nodes(layer)}
                 for lower, label in enumerate(labels[:layer - 1], 1)]
        for edge in graph.intra_edges(layer):
            u, v = edge.ends
            for components in below:
                if not components[u].isdisjoint(components[v]):
                    break
            else:
                report.violations.append((edge, "NoRealization"))
    return report
