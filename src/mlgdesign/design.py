"""Network-design optimization over a built 3-layer instance.

Two interchangeable formulations of the multicommodity routing problem
(per-arc "node-link" and per-candidate-path "link-path"), capacitated
and uncapacitated drivers on top of the in-package simplex / branch and
bound, and an independent brute-force oracle backed by exhaustive path
enumeration plus scipy's LP solver.

Without single homing the node-link model aggregates every commodity
into one min-cost flow.  That is exact: all commodities leave from the
same servers and differ only in the sink that absorbs their demand, so
any aggregate flow decomposes into server-to-sink paths, each credited
to the commodity of the sink it ends at.  Single homing keeps one such
flow per server: the commodities homed on a server share it as their
one source, and each subscriber's ``y`` binaries say how much of its
demand each server's flow delivers.

Where a formulation knows a dual-feasible basis, its root LP starts
there rather than at the logical basis: the dual simplex then only
repairs the rows that basis leaves out of bounds.  Node-link without
single homing starts from the servers' cheapest-path forest (see
:func:`formulate_node_link`), priced link-path from each commodity's
cheapest path (see :func:`_price_link_path`).  The model and its
optimum are the same; only which of several equal-cost optima is
returned can differ.  Single homing and the integer link-path roots
start from the logical basis, whose optimum steers branch and bound.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

from .builder import BuiltInstance
from .errors import DecompositionError, InfeasibleError, LimitsExceeded
from .flows import CONSERVATION_TOL, Commodity, FlowAssignment
from .lp import Basis, LinearProgram, branch_and_bound, simplex_solve
from .mlg import (IntraEdge, MultiLayerGraph, NodeRef, cheapest_path, cheapest_paths_from,
                  distances_to, intra_key)

FLOW_EPS = 1e-9


@dataclass(frozen=True)
class CandidatePath:
    """Layer-1 simple path from a serving node to a subscriber."""

    server: str
    nodes: tuple[str, ...]
    channels: tuple[str, ...]
    cost: float


@dataclass
class DesignSolution:
    """Interpreted optimum: flows, routes, topology and assignment."""

    objective: float
    routes: dict[str, list[tuple[tuple[str, ...], float]]]
    assignment: dict[str, list[tuple[str, float]]]
    edge_flows: dict[tuple, float]
    selected_channels: list[str]
    flow_assignment: FlowAssignment
    relaxation_objective: Optional[float] = None


# ---------------------------------------------------------------------------
# candidate path enumeration (Yen's k shortest loopless paths)
# ---------------------------------------------------------------------------

_channel_cost = attrgetter("cost")
_Adjacency = Mapping[str, Mapping[str, IntraEdge]]  # node -> neighbour -> channel


def _k_shortest_paths(graph: MultiLayerGraph, first: tuple[float, tuple[str, ...]],
                      ranked: _Ranking):
    """Yen's cheapest simple paths (Yen, 1971) from ``first[1][0]`` to
    ``ranked.dst``, yielded as (cost, nodes) in (cost, nodes) order,
    with Lawler's rule, lazy spurs and spurs read off the exact distance
    map ``ranked.to_dst``.  ``first`` is the cheapest such path as
    :func:`mlgdesign.mlg.cheapest_path` returns it.  A caller takes the
    first k; nothing past the last path taken is searched, and nothing
    of ``ranked`` is read before the first spur.

    ``ranked[x]`` lists x's neighbours v by (hop cost + ``to_dst[v]``,
    v).  A path costs the left-to-right sum of its hops, as
    :func:`_add_hops` adds them: the root's sum, then each spur hop in
    turn.

    The list is exactly Yen's:

    - **Lawler's rule** (Lawler, 1972).  A spur root with its banned
      next hops stands for the paths not found yet that start with the
      root and leave it by another hop.  These sets partition the paths
      not found yet, so no path is queued twice.  A path that left its
      parent at index d is spurred from indices >= d only: a root before
      d has the same bans as when the parent was spurred, so its spur
      could only repeat a path already found or queued.  The first path
      left its (empty) parent at index 0; the partition holds for any
      cheapest first path.
    - **Lazy spurs.**  A root enters the queue with a lower bound: its
      cost plus the least hop cost + ``to_dst`` over its allowed first
      hops.  Its spur is searched only when that bound reaches the top
      of the queue.  A bound sorts before a path of equal cost, so every
      path that precedes another in (cost, nodes) order is queued before
      that one is popped.
    - **Read-off.**  The head of ``ranked[x]`` is x's smallest-id tight
      successor y, tight meaning hop cost + ``to_dst[y] == to_dst[x]``.
      A spur takes its root's best allowed first hop, then the heads
      down to ``dst``.  Every hop of that chain is tight and the
      smallest-id such hop, so when the chain meets neither the root nor
      itself it is the cheapest spur with the smallest node sequence:
      the path :func:`mlgdesign.mlg.cheapest_path` returns.  When it
      does meet one (a banned node, or a loop of zero-cost channels),
      ``cheapest_path`` searches the spur, guided by ``to_dst``; bans
      only lengthen paths, so the map stays a consistent potential.
    """
    adj, dst = graph.adjacency(1), ranked.dst
    # (bound, 0, root, root cost, bans, first hop) stands for an unsearched
    # spur; (cost, 1, path, root cost, bans, root index) for a found one
    queue = [(first[0], 1, first[1], 0.0, frozenset(), 0)]
    while queue:
        cost, is_path, nodes, root_cost, bans, extra = heapq.heappop(queue)
        if not is_path:
            spur = _read_spur(nodes, extra, dst, ranked)
            if spur is None:
                x = nodes[-1]
                searched = cheapest_path(graph, 1, [x], {dst}, _channel_cost,
                                         frozenset(nodes[:-1]), {(x, b) for b in bans},
                                         ranked.to_dst)
                if searched is None:
                    continue
                spur = searched[1]
            heapq.heappush(queue, (_add_hops(root_cost, spur, adj), 1,
                                   nodes[:-1] + spur, root_cost, bans, len(nodes) - 1))
            continue
        yield cost, nodes
        d = extra
        on_root = set(nodes[:d])
        for i in range(d, len(nodes) - 1):
            x, nxt = nodes[i], nodes[i + 1]
            banned = bans | {nxt} if i == d else frozenset((nxt,))
            for bound, v in ranked[x]:
                if v not in banned and v not in on_root:
                    heapq.heappush(queue, (root_cost + bound, 0, nodes[:i + 1],
                                           root_cost, banned, v))
                    break
            on_root.add(x)
            root_cost += adj[x][nxt].cost


class _Ranking(dict):
    """Layer-1 node x -> x's neighbours v ranked by (hop cost +
    ``to_dst[v]``, v), where ``to_dst`` is the exact distance map to
    ``dst`` (one reverse Dijkstra, :func:`mlgdesign.mlg.distances_to`).
    The map is built on the first read, and each node's list on its own
    first read, so a subscriber none of whose pools grows costs neither.
    """

    def __init__(self, graph: MultiLayerGraph, dst: str):
        super().__init__()
        self.graph, self.dst = graph, dst
        self.to_dst: Optional[dict[str, float]] = None

    def __missing__(self, x: str) -> list[tuple[float, str]]:
        if self.to_dst is None:
            self.to_dst = distances_to(self.graph, 1, self.dst, _channel_cost)
        to_dst = self.to_dst
        ranked = self[x] = sorted((edge.cost + to_dst[v], v)
                                  for v, edge in self.graph.adjacency(1)[x].items())
        return ranked


def _read_spur(root: tuple[str, ...], first_hop: str, dst: str,
               ranked: _Ranking) -> Optional[tuple[str, ...]]:
    """The root's last node, ``first_hop``, then each node's smallest-id
    tight successor down to ``dst``; None if that meets the root or
    itself."""
    spur = [root[-1], first_hop]
    on_path = set(root)
    node = first_hop
    while node != dst:
        on_path.add(node)
        node = ranked[node][0][1]
        if node in on_path:
            return None
        spur.append(node)
    return tuple(spur)


def _add_hops(cost: float, nodes, adj: _Adjacency) -> float:
    for a, b in zip(nodes, nodes[1:]):
        cost += adj[a][b].cost
    return cost


def _candidate(server: str, nodes: tuple[str, ...], cost: float,
               adj: _Adjacency) -> CandidatePath:
    channels = tuple(edge.name or "-".join(edge.ends)
                     for edge in (adj[a][b] for a, b in zip(nodes, nodes[1:])))
    return CandidatePath(server=server, nodes=nodes, channels=channels, cost=cost)


def enumerate_candidate_paths(instance: BuiltInstance, commodity: Commodity,
                              k: int, trees: Optional[dict[str, dict[str, tuple]]] = None
                              ) -> list[CandidatePath]:
    """Up to k loop-free cheapest layer-1 paths per server, merged and
    sorted by (cost, node sequence).  A path's cost is its left-to-right
    sum, as in :func:`all_candidate_paths`.

    Per server these are the first k paths of :func:`all_candidate_paths`
    in that order, when channel costs add exactly in binary floating
    point (integers, halves, ...).  With costs such as 0.1/0.2/0.3, path
    costs equal in real arithmetic can round apart, so which of such
    tied paths make the first k can fall either way (see
    :func:`mlgdesign.mlg.cheapest_path`).

    ``trees`` is :func:`_server_trees` of the instance, built here when
    not given; a caller enumerating every commodity builds it once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if trees is None:
        trees = _server_trees(instance)
    out = [p for paths in _paths_by_server(instance, commodity, trees).values()
           for p in itertools.islice(paths, k)]
    out.sort(key=lambda p: (p.cost, p.nodes))
    return out


def _server_trees(instance: BuiltInstance) -> dict[str, dict[str, tuple]]:
    """Per server, its cheapest layer-1 path to every node it reaches
    (:func:`mlgdesign.mlg.cheapest_paths_from`): the first path of each
    of its pools, for every commodity at once."""
    return {server: cheapest_paths_from(instance.graph, 1, [server], _channel_cost)
            for server in instance.server_ids()}


def _paths_by_server(instance: BuiltInstance, commodity: Commodity,
                     trees: dict[str, dict[str, tuple]]):
    """Per server that reaches the commodity's subscriber, an iterator
    over its Yen paths there as :class:`CandidatePath`, in (cost, nodes)
    order.

    The first path comes from the server's tree in ``trees`` (see
    :func:`_server_trees`).  The servers share one :class:`_Ranking` of
    the subscriber, which is built only when some server's iterator is
    asked for a second path.  Layer 1's adjacency index gives each
    path's cost and channel names.
    """
    subscriber = commodity.sink.id
    adj = instance.graph.adjacency(1)
    ranked = _Ranking(instance.graph, subscriber)

    def paths(server):
        for cost, nodes in _k_shortest_paths(instance.graph, trees[server][subscriber],
                                             ranked):
            yield _candidate(server, nodes, cost, adj)

    return {server: paths(server) for server in instance.server_ids()
            if subscriber in trees[server]}


def all_candidate_paths(instance: BuiltInstance,
                        commodity: Commodity) -> list[CandidatePath]:
    """Every simple server-to-subscriber path (exhaustive DFS)."""
    subscriber = commodity.sink.id
    adj = instance.graph.adjacency(1)
    out = []
    for server in instance.server_ids():
        for nodes in _simple_paths(instance.graph, server, subscriber):
            out.append(_candidate(server, nodes, _add_hops(0.0, nodes, adj), adj))
    out.sort(key=lambda p: (p.cost, p.nodes))
    return out


def _simple_paths(graph: MultiLayerGraph, src: str, dst: str):
    paths = []

    def walk(path):
        node = path[-1]
        if node == dst:
            paths.append(tuple(path))
            return
        for nbr, _edge in graph.neighbors(1, node):
            if nbr not in path:
                path.append(nbr)
                walk(path)
                path.pop()

    walk([src])
    return paths


# ---------------------------------------------------------------------------
# formulations
# ---------------------------------------------------------------------------

@dataclass
class _Formulation:
    lp: LinearProgram
    # (instance, form, values) -> per-commodity layer-1 route flows
    read_routes: Callable
    # var index -> role tuple: ("arc", group, channel, from, to), ("inject",
    # group, server), ("assign", cid, server) or ("path", cid, CandidatePath);
    # a node-link group is its server under single homing, else None
    meta: dict[int, tuple] = field(default_factory=dict)
    channel_rows_vars: dict[str, list[int]] = field(default_factory=dict)
    # row -> column of a dual-feasible start basis (lp.Basis.of); empty
    # when the root LP starts from the logical basis
    start: dict[int, int] = field(default_factory=dict)


def formulate_link_path(instance: BuiltInstance,
                        paths: dict[str, list[CandidatePath]],
                        single_homing: bool = False) -> _Formulation:
    """Per-path flow columns and one demand row per commodity.  Under
    single homing, ``homing[c,s]`` caps what commodity c draws from
    server s at ``d_c * y[c,s]``.  The rows both formulations share come
    from :func:`_add_shared_rows`."""
    form = _Formulation(lp=LinearProgram(), read_routes=_routes_from_path_vars,
                        channel_rows_vars={c: [] for c in instance.channel_edges})
    balance_rows: list[tuple[dict[int, float], str, float, str]] = []
    homing_rows: list[tuple[dict[int, float], str, float, str]] = []
    from_server: list[dict[str, list[int]]] = []
    y_rows: dict[tuple[str, str], dict[int, float]] = {}
    for commodity in instance.commodities:
        out: dict[str, list[int]] = {s: [] for s in instance.server_ids()}
        for idx, path in enumerate(paths.get(commodity.id, [])):
            j = form.lp.add_var(f"x[{commodity.id},{idx}]")
            form.meta[j] = ("path", commodity.id, path)
            form.lp.objective[j] = path.cost
            for ch in path.channels:
                form.channel_rows_vars[ch].append(j)
            out[path.server].append(j)
        row = dict.fromkeys(itertools.chain(*out.values()), 1.0)
        balance_rows.append((row, "=", commodity.demand, f"demand[{commodity.id}]"))
        from_server.append(out)
        if single_homing:
            for server, cols in out.items():
                if cols:
                    y_rows[commodity.id, server] = dict.fromkeys(cols, 1.0)
                    homing_rows.append((y_rows[commodity.id, server], "<=", 0.0,
                                        f"homing[{commodity.id},{server}]"))
    _add_shared_rows(instance, form, balance_rows + homing_rows, from_server,
                     single_homing, y_rows)
    return form


def formulate_node_link(instance: BuiltInstance,
                        single_homing: bool = False) -> _Formulation:
    """Directed arc and server-injection columns per flow group, and one
    conservation row per layer-1 node and group; the rows both
    formulations share come from :func:`_add_shared_rows`.

    Without single homing one group holds every commodity: they share
    the servers as sources, so the aggregate model (2E arcs + S
    injections) is an exact single-commodity min-cost flow, each
    subscriber's demand on the right-hand side of its row.

    With single homing each server is a group (2E arcs + its injection).
    The commodities homed on one server share that one source and
    differ only in their sinks, so their flows form one single-source
    flow, exact for the same reason (Ahuja, Magnanti & Orlin, *Network
    Flows*, 1993, ch. 3).  Subscriber c's row in server s's group
    carries ``-d_c * y[c,s]`` and a zero right-hand side, so ``y`` enters
    the balance directly and needs no ``homing`` row: S(2E+1) + KS
    columns, not K(2E+S) + KS.

    Without single homing the root LP starts from the forest basis of
    the servers' cheapest-path forest (:func:`mlgdesign.mlg.cheapest_paths_from`
    from every server): each server's row has its injection, each node
    the forest reaches the arc from its parent, every other row its
    logical.  The duals are then the forest's distances d, so arc a->b
    prices at cost + d(a) - d(b) >= 0: the start is dual feasible, and
    the dual simplex only repairs the ``capacity`` and ``productivity``
    rows (Ahuja, Magnanti & Orlin, 1993, ch. 11, on tree bases).
    Columns and rows appended later keep their logicals and leave it
    dual feasible when their costs are >= 0.
    """
    channels = sorted(instance.channel_edges)
    form = _Formulation(lp=LinearProgram(), read_routes=_decompose_node_link,
                        channel_rows_vars={c: [] for c in channels})
    add_var, cost, meta = form.lp.add_var, form.lp.objective, form.meta
    balance_rows: list[tuple[dict[int, float], str, float, str]] = []
    from_server: list[dict[str, list[int]]] = []
    y_rows: dict[tuple[str, str], dict[int, float]] = {}
    demand = {c.sink.id: c.demand for c in instance.commodities}
    arcs: dict[tuple[str, str], int] = {}  # (from, to) -> column, in the last group
    for group in instance.server_ids() if single_homing else [None]:
        tag = f"{group}," if single_homing else ""
        balance: dict[str, dict[int, float]] = {n: {} for n in instance.graph.nodes(1)}
        for ch_id in channels:
            edge = instance.channel_edges[ch_id]
            a, b = edge.ends
            uses = form.channel_rows_vars[ch_id]
            for frm, to in ((a, b), (b, a)):
                j = add_var(f"f[{tag}{ch_id},{frm}->{to}]")
                meta[j] = ("arc", group, ch_id, frm, to)
                cost[j] = edge.cost
                uses.append(j)
                balance[to][j] = 1.0
                balance[frm][j] = -1.0
                arcs[frm, to] = j
        out: dict[str, list[int]] = {}
        for server in [group] if single_homing else instance.server_ids():
            j = add_var(f"inj[{server}]")
            meta[j] = ("inject", group, server)
            out[server] = [j]
            balance[server][j] = 1.0
        from_server.append(out)
        if single_homing:
            y_rows.update(((c.id, group), balance[c.sink.id])
                          for c in instance.commodities)
        rhs = {} if single_homing else demand
        kept = [node for node, row in balance.items() if row or node in demand]
        balance_rows += [(balance[node], "=", rhs.get(node, 0.0),
                          f"conservation[{tag}{node}]") for node in kept]
    _add_shared_rows(instance, form, balance_rows, from_server, single_homing, y_rows)
    if not single_homing:
        # one group, so no assign rows: its conservation rows come first,
        # and ``out`` maps each server to its injection column
        row = {node: i for i, node in enumerate(kept)}
        form.start = {row[server]: cols[0] for server, cols in out.items()}
        forest = cheapest_paths_from(instance.graph, 1, out, _channel_cost)
        form.start.update((row[node], arcs[path[-2], node])
                          for node, (_cost, path) in forest.items() if node not in out)
    return form


def _add_shared_rows(instance: BuiltInstance, form: _Formulation,
                     rows: list[tuple[dict[int, float], str, float, str]],
                     from_server: list[dict[str, list[int]]],
                     single_homing: bool,
                     y_rows: dict[tuple[str, str], dict[int, float]]) -> None:
    """Under single homing the ``y`` binaries with their ``assign`` rows;
    then the formulation's own ``rows``; then one capacity row per
    finite-capacity MLG arc the columns use: the layer-1 channels
    (``capacity[ch]``) and the ``3:service -> 2:server`` edges
    (``productivity[s]``).

    ``y[c,s]`` joins the row ``y_rows[c, s]``, if there is one, with
    coefficient ``-d_c``.  ``from_server`` holds, per flow group, the
    columns whose flow leaves each server.
    """
    lp = form.lp
    servers = instance.server_ids()
    if single_homing:
        for commodity in instance.commodities:
            assign_row: dict[int, float] = {}
            for server in servers:
                j = lp.add_var(f"y[{commodity.id},{server}]", upper=1.0, integer=True)
                form.meta[j] = ("assign", commodity.id, server)
                assign_row[j] = 1.0
                if (commodity.id, server) in y_rows:
                    y_rows[commodity.id, server][j] = -commodity.demand
            lp.add_constraint(assign_row, "=", 1.0, name=f"assign[{commodity.id}]")
    # the formulation's rows follow the assign rows, which need the y columns
    for coeffs, relation, rhs, name in rows:
        lp.add_constraint(coeffs, relation, rhs, name=name)

    arcs = [(f"capacity[{ch}]", form.channel_rows_vars[ch], instance.channel_edges[ch])
            for ch in sorted(form.channel_rows_vars)]
    arcs += [(f"productivity[{s}]", [j for out in from_server for j in out.get(s, ())],
              instance.graph.find_inter(instance.service_node, NodeRef(2, s)))
             for s in servers]
    for name, cols, edge in arcs:
        if cols and math.isfinite(edge.capacity):
            lp.add_constraint(dict.fromkeys(cols, 1.0), "<=", edge.capacity, name=name)


# ---------------------------------------------------------------------------
# solution assembly
# ---------------------------------------------------------------------------

def _assemble_solution(instance: BuiltInstance,
                       route_flows: dict[str, list[tuple[tuple[str, ...], float]]],
                       selected: Optional[list[str]] = None,
                       fixed_cost_part: float = 0.0,
                       relaxation_objective: Optional[float] = None) -> DesignSolution:
    """Build a DesignSolution from per-commodity layer-1 route flows.

    Each route is lifted through the multi-layer graph on its own:
    service to server, the layer-1 hops, then the subscriber's inter
    edges up to layer 3; its flow also lands on the layer-2
    server-subscriber edge and the layer-3 star edge it realizes.  One
    upper edge can be realized by several routes (a subscriber split
    over two servers), so the lift is per route, not per upper edge.
    """
    service = instance.service_node
    flow_assignment = FlowAssignment()
    assignment: dict[str, list[tuple[str, float]]] = {
        s: [] for s in instance.server_ids()}
    per_server_sub: dict[tuple[str, str], float] = {}
    objective = fixed_cost_part
    adj = instance.graph.adjacency(1)

    for commodity in instance.commodities:
        for nodes, flow in route_flows.get(commodity.id, []):
            if flow <= FLOW_EPS:
                continue
            server, subscriber = nodes[0], nodes[-1]
            flow_assignment.add_path(
                commodity.id, [service, NodeRef(2, server), *[NodeRef(1, n) for n in nodes],
                               NodeRef(2, subscriber), NodeRef(3, subscriber)], flow)
            per_server_sub[(server, subscriber)] = (
                per_server_sub.get((server, subscriber), 0.0) + flow)
            objective += flow * _add_hops(0.0, nodes, adj)

    edge_flows = flow_assignment.edge_totals()
    # derived layer-2 / layer-3 annotations (not independently optimized)
    for (server, subscriber), vol in per_server_sub.items():
        for key in (intra_key(2, server, subscriber),
                    intra_key(3, service.id, subscriber)):
            edge_flows[key] = edge_flows.get(key, 0.0) + vol

    for (server, subscriber), vol in sorted(per_server_sub.items()):
        assignment[server].append((subscriber, vol))

    if selected is None:
        selected = []
        for ch_id, edge in sorted(instance.channel_edges.items()):
            if edge_flows.get(edge.key, 0.0) > FLOW_EPS:
                selected.append(ch_id)

    routes = {cid: sorted(((n, f) for n, f in lst if f > FLOW_EPS))
              for cid, lst in route_flows.items()}
    return DesignSolution(objective=objective, routes=routes,
                          assignment=assignment, edge_flows=edge_flows,
                          selected_channels=sorted(selected),
                          flow_assignment=flow_assignment,
                          relaxation_objective=relaxation_objective)


def _decompose_node_link(instance: BuiltInstance, form: _Formulation,
                         values: np.ndarray
                         ) -> dict[str, list[tuple[tuple[str, ...], float]]]:
    """Path decomposition of each flow group's arc flows.

    A group's demand at a subscriber is the commodity's demand, or under
    single homing ``d_c * y[c,s]`` in server s's group.  Opposing flow
    on a channel cancels first.  Each walk starts at the first server
    with injection left, follows positive arcs (removing any cycle it
    closes) and stops at the first node with unmet demand in the group,
    whose commodity owns the path.  Each extraction, cycle cancel or
    dead end zeroes an arc, injection or demand, which bounds the loop;
    partial routes raise ``DecompositionError``.
    """
    routes: dict[str, list[tuple[tuple[str, ...], float]]] = {
        c.id: [] for c in instance.commodities}
    commodities = {c.id: c for c in instance.commodities}
    owner = {c.sink.id: c.id for c in instance.commodities}
    flows: dict[Optional[str], tuple[dict, dict]] = {}
    homed: dict[str, dict[str, float]] = {}  # server -> sink -> d_c * y[c,s]
    values = values.tolist()
    for j, meta in form.meta.items():
        if values[j] <= FLOW_EPS:
            continue
        if meta[0] == "arc":
            arcs = flows.setdefault(meta[1], ({}, {}))[0]
            arcs[meta[3:]] = arcs.get(meta[3:], 0.0) + values[j]
        elif meta[0] == "inject":
            flows.setdefault(meta[1], ({}, {}))[1][meta[2]] = values[j]
        elif meta[0] == "assign":
            c = commodities[meta[1]]
            homed.setdefault(meta[2], {})[c.sink.id] = c.demand * values[j]

    for group, (arcs, inject) in flows.items():
        for frm, to in list(arcs):
            if (to, frm) in arcs:
                cancel = min(arcs[(frm, to)], arcs[(to, frm)])
                arcs[(frm, to)] -= cancel
                arcs[(to, frm)] -= cancel
        heads: dict[str, list[str]] = {}
        for frm, to in sorted(arcs):
            heads.setdefault(frm, []).append(to)
        need = ({c.sink.id: c.demand for c in instance.commodities} if group is None
                else homed.get(group, {}))
        sources = sorted(inject)
        for _ in range(len(arcs) + len(inject) + len(need) + 1):
            start = next((s for s in sources if inject[s] > FLOW_EPS), None)
            if start is None:
                break
            path = [start]
            while need.get(path[-1], 0.0) <= FLOW_EPS:
                node = path[-1]
                nxt = next((to for to in heads.get(node, ())
                            if arcs[(node, to)] > FLOW_EPS), None)
                if nxt is None or nxt in path:
                    break
                path.append(nxt)
            else:
                hops = list(zip(path, path[1:]))
                sink = path[-1]
                flow = min([inject[start], need[sink]] + [arcs[h] for h in hops])
                for h in hops:
                    arcs[h] -= flow
                inject[start] -= flow
                need[sink] -= flow
                routes[owner[sink]].append((tuple(path), flow))
                continue
            if nxt is None:
                inject[start] = 0.0  # dead end: residue at numerical noise level
                continue
            cycle = path[path.index(nxt):] + [nxt]
            hops = list(zip(cycle, cycle[1:]))
            relief = min(arcs[h] for h in hops)
            for h in hops:
                arcs[h] -= relief
        unmet = sorted(owner[n] for n, v in need.items() if v > CONSERVATION_TOL)
        if start is not None or unmet:
            raise DecompositionError(
                f"flows did not decompose into complete routes; unmet: {unmet}")
    return routes


def _routes_from_path_vars(instance: BuiltInstance, form: _Formulation,
                           values: np.ndarray
                           ) -> dict[str, list[tuple[tuple[str, ...], float]]]:
    routes: dict[str, list[tuple[tuple[str, ...], float]]] = {}
    for j, meta in form.meta.items():
        if meta[0] == "path" and values[j] > FLOW_EPS:
            _, cid, path = meta
            routes.setdefault(cid, []).append((path.nodes, float(values[j])))
    return routes


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def solve_capacitated(instance: BuiltInstance, formulation: str = "node-link",
                      k: int = 4, single_homing: bool = False) -> DesignSolution:
    """Minimize total carried flow cost under channel and server capacities.

    Link-path without single homing prices its candidates (see
    :func:`_price_link_path`): the same optimum as over the first k
    paths per server, which it enumerates only as far as needed."""
    if not instance.commodities:
        return _assemble_solution(instance, {})
    if formulation == "link-path" and not single_homing:
        form, sol = _price_link_path(instance, k)
        routes, relaxed = form.read_routes(instance, form, sol.values), sol.objective
    else:
        form = _build_formulation(instance, formulation, k, single_homing)
        _sol, relaxed, routes = _solve(instance, form)
    return _assemble_solution(instance, routes, relaxation_objective=relaxed)


def _price_link_path(instance: BuiltInstance, k: int):
    """The capacitated link-path LP over at most k Yen paths per
    (commodity, server) pool, each pool grown only while its next path
    could enter (Ford & Fulkerson, 1958, on path generation): (form,
    optimal solution).  Raises ``InfeasibleError`` when the full LP is
    infeasible.

    Each pool starts with its first path, read off its server's
    cheapest-path tree; one tree per server serves every commodity, and
    a subscriber's distance map is built only when one of its pools
    takes a second path (see :func:`_paths_by_server`).  A path outside
    the pool of (c, s) enters ``demand[c]``, ``productivity[s]`` and
    ``capacity`` rows.  A ``capacity`` row's dual is <= 0, so the path's
    reduced cost is at least its cost less ``sigma_c + rho_s``, the
    duals of the first two.  Yen yields paths by nondecreasing cost, so after each
    optimal solve a pool with fewer than k paths takes next paths while
    its last costs less than ``sigma_c + rho_s - 1e-9``.  The new paths
    are appended as columns, with a ``capacity`` row for each channel
    new to the LP, and the LP is re-solved from its last basis.  When no
    pool grows, no path of the full LP has a negative reduced cost.

    The first solve starts with each commodity's cheapest path basic in
    its ``demand`` row, every other row on its logical.  Then sigma_c is
    that path's cost and every other path of c prices at its cost less
    sigma_c >= 0, so the start is dual feasible.

    A commodity whose first paths cannot carry its demand on their own
    (each carries at most its server's productivity and its least
    channel capacity) starts with complete pools.  If a solve is still
    infeasible, every pool is completed and the solve continues from
    the infeasible basis; a verdict then is the full LP's.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    productivity = {s: instance.graph.find_inter(instance.service_node, NodeRef(2, s)).capacity
                    for s in instance.server_ids()}
    trees = _server_trees(instance)
    pools: dict[tuple[str, str], tuple[list[CandidatePath], Iterator[CandidatePath]]] = {}
    initial: dict[str, list[CandidatePath]] = {}
    for c in instance.commodities:
        mine = []
        for server, paths in _paths_by_server(instance, c, trees).items():
            pools[c.id, server] = ([next(paths)], paths)
            mine.append(pools[c.id, server])
        carry = sum(min(productivity[pool[0].server],
                        *(instance.channel_edges[ch].capacity for ch in pool[0].channels))
                    for pool, _ in mine)
        if carry < c.demand:
            for pool, paths in mine:
                _grow(pool, paths, k, math.inf)
        initial[c.id] = sorted((p for pool, _ in mine for p in pool),
                               key=lambda p: (p.cost, p.nodes))

    form = formulate_link_path(instance, initial)
    lp = form.lp
    rows = {con.name: i for i, con in enumerate(lp.constraints)}
    demand_rows = {cid: rows[f"demand[{cid}]"] for cid in initial}
    productivity_rows = {s: rows[f"productivity[{s}]"] for s in productivity
                         if f"productivity[{s}]" in rows}
    count = {cid: len(paths) for cid, paths in initial.items()}
    # a demand row's lowest column is its commodity's cheapest path, the
    # first of ``initial[c]``, which is sorted by (cost, nodes)
    sol = simplex_solve(lp, start=Basis.of(lp, {i: min(lp.constraints[i].coeffs)
                                                 for i in demand_rows.values()
                                                 if lp.constraints[i].coeffs}))
    completed = False
    while sol.status == "Optimal" or not completed:
        completed = completed or sol.status != "Optimal"
        sigma, rho = dict.fromkeys(demand_rows, math.inf), {}
        if sol.status == "Optimal":
            duals = sol.duals.tolist()
            sigma = {cid: duals[i] for cid, i in demand_rows.items()}
            rho = {s: duals[i] for s, i in productivity_rows.items()}
        new = []
        for (cid, server), (pool, paths) in pools.items():
            limit = sigma[cid] + rho.get(server, 0.0) - 1e-9
            new += [(cid, p) for p in _grow(pool, paths, k, limit)]
        if not new:
            break
        for cid, path in new:
            _append_path(instance, form, rows, f"x[{cid},{count[cid]}]", cid, path)
            count[cid] += 1
        sol = simplex_solve(lp, start=sol.basis)
    if sol.status != "Optimal":
        raise InfeasibleError(certificate=sol.certificate)
    return form, sol


def _append_path(instance: BuiltInstance, form: _Formulation, rows: dict[str, int],
                 name: str, cid: str, path: CandidatePath) -> None:
    """Append ``path`` as a column of the link-path LP, with a
    ``capacity`` row for each finite channel new to it; ``rows`` maps
    row names to indices and gains the new rows."""
    lp = form.lp
    j = lp.add_var(name)
    form.meta[j] = ("path", cid, path)
    lp.objective[j] = path.cost
    for ch in path.channels:
        form.channel_rows_vars[ch].append(j)
        capacity = instance.channel_edges[ch].capacity
        if f"capacity[{ch}]" not in rows and math.isfinite(capacity):
            rows[f"capacity[{ch}]"] = len(lp.constraints)
            lp.add_constraint({}, "<=", capacity, name=f"capacity[{ch}]")
    for row in (f"demand[{cid}]", f"productivity[{path.server}]",
                *(f"capacity[{ch}]" for ch in path.channels)):
        if row in rows:
            lp.constraints[rows[row]].coeffs[j] = 1.0


def _grow(pool: list[CandidatePath], paths: Iterator[CandidatePath], k: int,
          limit: float) -> list[CandidatePath]:
    """Take next paths into ``pool`` while it holds fewer than k and its
    last costs less than ``limit``; returns those taken."""
    taken = []
    while len(pool) < k and pool[-1].cost < limit:
        path = next(paths, None)
        if path is None:
            break
        pool.append(path)
        taken.append(path)
    return taken


def solve_uncapacitated(instance: BuiltInstance,
                        channel_fixed_costs: dict[str, float],
                        formulation: str = "node-link", k: int = 4,
                        single_homing: bool = False) -> DesignSolution:
    """Select channels (binary per-channel decision with fixed cost) and
    route flows over the selected subset."""
    for ch_id, fc in channel_fixed_costs.items():
        if ch_id not in instance.channel_edges:
            raise KeyError(f"unknown channel {ch_id!r} in fixed costs")
        if fc < 0:
            raise ValueError("fixed costs must be >= 0")
    if not instance.commodities:
        return _assemble_solution(instance, {})
    form = _build_formulation(instance, formulation, k, single_homing)
    big_m = sum(c.demand for c in instance.commodities)
    select_vars: dict[str, int] = {}
    for ch_id in sorted(instance.channel_edges):
        j = form.lp.add_var(f"use[{ch_id}]", upper=1.0, integer=True)
        select_vars[ch_id] = j
        form.lp.objective[j] = float(channel_fixed_costs.get(ch_id, 0.0))
        coeffs = dict.fromkeys(form.channel_rows_vars[ch_id], 1.0)
        coeffs[j] = -big_m
        form.lp.add_constraint(coeffs, "<=", 0.0, name=f"coupling[{ch_id}]")

    sol, relaxed, routes = _solve(instance, form)
    selected = [ch for ch, j in sorted(select_vars.items()) if sol.values[j] > 0.5]
    fixed_part = sum(float(channel_fixed_costs.get(ch, 0.0)) for ch in selected)
    return _assemble_solution(instance, routes, selected=selected,
                              fixed_cost_part=fixed_part,
                              relaxation_objective=relaxed)


def _build_formulation(instance, formulation, k, single_homing) -> _Formulation:
    if formulation == "node-link":
        return formulate_node_link(instance, single_homing=single_homing)
    if formulation == "link-path":
        trees = _server_trees(instance)
        paths = {c.id: enumerate_candidate_paths(instance, c, k, trees=trees)
                 for c in instance.commodities}
        return formulate_link_path(instance, paths, single_homing=single_homing)
    raise ValueError(f"unknown formulation {formulation!r}")


def _solve(instance: BuiltInstance, form: _Formulation):
    """Root LP, branch and bound from that root when the LP has integer
    columns, then routes: (solution, root relaxation objective, routes).
    A root or search that ends other than optimal raises
    ``InfeasibleError``.  The root starts from ``form.start``, if the
    formulation names one."""
    start = Basis.of(form.lp, form.start) if form.start else None
    relax = simplex_solve(form.lp, start=start)
    if relax.status != "Optimal":
        raise InfeasibleError(certificate=relax.certificate)
    sol = relax
    if form.lp.integer_indices():
        sol = branch_and_bound(form.lp, root=relax)
        if sol.status != "Optimal":
            raise InfeasibleError(certificate=sol.certificate)
    return sol, relax.objective, form.read_routes(instance, form, sol.values)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleLimits:
    max_commodities: int = 3
    max_channels: int = 8
    max_layer1_nodes: int = 8


def brute_force_oracle(instance: BuiltInstance, mode: str = "capacitated",
                       single_homing: bool = False,
                       channel_fixed_costs: Optional[dict[str, float]] = None,
                       limits: OracleLimits = OracleLimits()) -> DesignSolution:
    """Exact optimum by exhaustive enumeration; independent of the
    simplex path (scipy solves the per-configuration path LPs).

    One path LP per configuration: a channel subset (every subset in
    uncapacitated mode, whose fixed costs it adds; only the full set
    when capacitated) times a server per subscriber (under single
    homing; otherwise any server).  Ties within 1e-9 go to the smallest
    (subset, servers)."""
    if mode not in ("capacitated", "uncapacitated"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    if (len(instance.commodities) > limits.max_commodities
            or len(instance.channel_edges) > limits.max_channels
            or len(instance.graph.nodes(1)) > limits.max_layer1_nodes):
        raise LimitsExceeded("instance exceeds oracle limits")
    if not instance.commodities:
        return _assemble_solution(instance, {})

    all_paths = {c.id: all_candidate_paths(instance, c)
                 for c in instance.commodities}
    channels = tuple(sorted(instance.channel_edges))
    uncapacitated = mode == "uncapacitated"
    fixed = (channel_fixed_costs or {}) if uncapacitated else {}
    subsets = ([s for r in range(len(channels) + 1)
                for s in itertools.combinations(channels, r)]
               if uncapacitated else [channels])
    combos = (list(itertools.product(instance.server_ids(), repeat=len(all_paths)))
              if single_homing else [None])
    best = None
    for subset in subsets:
        allowed = set(subset)
        for combo in combos:
            restricted = {
                cid: [p for p in ps if set(p.channels) <= allowed
                      and (combo is None or p.server == combo[i])]
                for i, (cid, ps) in enumerate(all_paths.items())}
            if not all(restricted.values()):
                continue
            result = _oracle_lp(instance, restricted)
            if result is None:
                continue
            flow_obj, routes = result
            total = flow_obj + sum(float(fixed.get(ch, 0.0)) for ch in subset)
            if best is None or total < best[0] - 1e-9 or (
                    total <= best[0] + 1e-9 and (subset, combo) < best[1]):
                best = (total, (subset, combo), routes, flow_obj)
    if best is None:
        raise InfeasibleError(message="oracle: no feasible design")
    total, (subset, _combo), routes, flow_obj = best
    return _assemble_solution(instance, routes,
                              selected=list(subset) if uncapacitated else None,
                              fixed_cost_part=total - flow_obj)


def _oracle_lp(instance: BuiltInstance,
               paths: dict[str, list[CandidatePath]]):
    """Min-cost path-flow LP over the given candidate paths (scipy HiGHS)."""
    from scipy.optimize import linprog

    var_index: list[tuple[str, CandidatePath]] = []
    for cid in sorted(paths):
        for p in paths[cid]:
            var_index.append((cid, p))
    n = len(var_index)
    if n == 0:
        return None
    c = np.array([p.cost for _cid, p in var_index])
    commodities = {cm.id: cm for cm in instance.commodities}
    a_eq, b_eq = [], []
    for cid in sorted(paths):
        row = np.array([1.0 if v[0] == cid else 0.0 for v in var_index])
        a_eq.append(row)
        b_eq.append(commodities[cid].demand)
    a_ub, b_ub = [], []
    for ch_id, edge in sorted(instance.channel_edges.items()):
        if not math.isfinite(edge.capacity):
            continue
        row = np.array([float(v[1].channels.count(ch_id)) for v in var_index])
        if row.any():
            a_ub.append(row)
            b_ub.append(edge.capacity)
    for server in instance.server_ids():
        row = np.array([1.0 if v[1].server == server else 0.0 for v in var_index])
        if row.any():
            a_ub.append(row)
            b_ub.append(instance.server_productivity(server))
    res = linprog(c, A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    if not res.success:
        return None
    routes: dict[str, list[tuple[tuple[str, ...], float]]] = {}
    for (cid, p), x in zip(var_index, res.x):
        if x > FLOW_EPS:
            routes.setdefault(cid, []).append((p.nodes, float(x)))
    return float(res.fun), routes
