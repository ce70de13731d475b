"""Network-design optimization over a built 3-layer instance.

Two interchangeable formulations of the multicommodity routing problem
(per-arc "node-link" and per-candidate-path "link-path"), capacitated
and uncapacitated drivers on top of the in-package simplex / branch and
bound, and an independent brute-force oracle backed by exhaustive path
enumeration plus scipy's LP solver.

Link-path is exact over every layer-1 path in every mode.  It starts
from each server's cheapest path to each subscriber
(:func:`enumerate_candidate_paths`), and one pricer
(:class:`_PathPricer`) grows it with one reduced-cost search per
server: column generation at the root (:func:`_price_link_path`), and
in fixed charge and single homing branch and price, at every
branch-and-bound node whose LP decides that node (Barnhart et al.,
"Branch-and-price", *Oper. Res.* 46, 1998).

Without single homing the node-link model aggregates every commodity
into one min-cost flow.  That is exact: all commodities leave from the
same servers and differ only in the sink that absorbs their demand, so
any aggregate flow decomposes into server-to-sink paths, each credited
to the commodity of the sink it ends at.  Single homing keeps one such
flow per server: the commodities homed on a server share it as their
one source, and each subscriber's ``y`` binaries say how much of its
demand each server's flow delivers.

Fixed charge adds one ``use`` binary per channel to either
formulation.  A channel that every layer-1 route of some subscriber
crosses is posed open (``use`` in [1, 1]), and either formulation
without single homing tells branch and bound when its objective is
integral on every integer point (see :func:`solve_uncapacitated`).

Where a formulation knows a dual-feasible basis, its root LP starts
there rather than at the logical basis: the dual simplex then only
repairs the rows that basis leaves out of bounds.  Node-link without
single homing starts from the servers' cheapest-path forest (see
:func:`formulate_node_link`), capacitated link-path from each
commodity's cheapest path (see :func:`solve_capacitated`).  The model and its
optimum are the same; only which of several equal-cost optima is
returned can differ.  Single homing and the integer link-path roots
start from the logical basis, whose optimum steers branch and bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Mapping, Optional

import numpy as np

from .builder import BuiltInstance
from .errors import DecompositionError, InfeasibleError, LimitsExceeded
from .flows import CONSERVATION_TOL, Commodity, FlowAssignment
from .lp import Basis, LinearProgram, LpSolution, branch_and_bound, simplex_solve
from .mlg import IntraEdge, MultiLayerGraph, NodeRef, cheapest_paths_from, intra_key

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
# candidate paths
# ---------------------------------------------------------------------------

_channel_cost = attrgetter("cost")
_Adjacency = Mapping[str, Mapping[str, IntraEdge]]  # node -> neighbour -> channel


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
                              trees: Optional[dict[str, dict[str, tuple]]] = None
                              ) -> list[CandidatePath]:
    """Each server's cheapest layer-1 path to the commodity's subscriber,
    sorted by (cost, node sequence): the first columns of every link-path
    formulation, which pricing then grows (see :class:`_PathPricer`).  A
    path's cost is its left-to-right sum, as in
    :func:`all_candidate_paths`, and with costs that add exactly in binary
    floating point (integers, halves, ...) each server's path is the first
    of that server's in :func:`all_candidate_paths`.

    The paths are read off ``trees`` (:func:`_server_trees` of the
    instance, built here when not given; a caller enumerating every
    commodity builds it once)."""
    if trees is None:
        trees = _server_trees(instance)
    subscriber = commodity.sink.id
    adj = instance.graph.adjacency(1)
    out = [_candidate(server, trees[server][subscriber][1], trees[server][subscriber][0], adj)
           for server in instance.server_ids() if subscriber in trees[server]]
    out.sort(key=lambda p: (p.cost, p.nodes))
    return out


def _server_trees(instance: BuiltInstance) -> dict[str, dict[str, tuple]]:
    """Per server, its cheapest layer-1 path to every node it reaches
    (:func:`mlgdesign.mlg.cheapest_paths_from`): its first path to every
    subscriber at once."""
    return {server: cheapest_paths_from(instance.graph, 1, [server], _channel_cost)
            for server in instance.server_ids()}


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
    # group, server), ("assign", cid, server), ("path", cid, CandidatePath)
    # or ("use", channel); a node-link group is its server under single
    # homing, else None
    meta: dict[int, tuple] = field(default_factory=dict)
    channel_rows_vars: dict[str, list[int]] = field(default_factory=dict)
    # row -> column of a dual-feasible start basis (lp.Basis.of); empty
    # when the root LP starts from the logical basis
    start: dict[int, int] = field(default_factory=dict)
    # link-path: each server's cheapest-path tree (_server_trees), from
    # which the first columns came; its columns are priced (_PathPricer)
    trees: Optional[dict[str, dict[str, tuple]]] = None


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
                      single_homing: bool = False) -> DesignSolution:
    """Minimize total carried flow cost under channel and server capacities.

    Link-path prices its columns over every layer-1 path (see
    :class:`_PathPricer`), at the root and, under single homing, at the
    branch-and-bound nodes too."""
    _check_args(formulation)
    if not instance.commodities:
        return _assemble_solution(instance, {})
    if formulation == "node-link":
        form = formulate_node_link(instance, single_homing=single_homing)
    else:
        form = _link_path(instance, single_homing)
        if not single_homing:  # each commodity's cheapest path basic in its demand row
            form.start = {i: min(con.coeffs) for i, con in enumerate(form.lp.constraints)
                          if con.name.startswith("demand[") and con.coeffs}
    _sol, relaxed, routes = _solve(instance, form)
    return _assemble_solution(instance, routes, relaxation_objective=relaxed)


def _check_args(formulation: str) -> None:
    if formulation not in ("node-link", "link-path"):
        raise ValueError(f"unknown formulation {formulation!r}")


def _link_path(instance: BuiltInstance, single_homing: bool) -> _Formulation:
    """The link-path formulation over each server's cheapest path to each
    subscriber (:func:`enumerate_candidate_paths`), to be priced."""
    trees = _server_trees(instance)
    paths = {c.id: enumerate_candidate_paths(instance, c, trees)
             for c in instance.commodities}
    form = formulate_link_path(instance, paths, single_homing=single_homing)
    form.trees = trees
    return form


class _PathPricer:
    """Prices the columns of a link-path formulation over every layer-1
    path (Ford & Fulkerson, 1958), as ``price`` of
    :func:`mlgdesign.lp.branch_and_bound` and of the root loop
    :func:`_price_link_path`: a call reads an LP solve of the program and
    appends the paths that price in.

    A path of commodity c from server s has coefficient 1 in
    ``demand[c]``, ``productivity[s]``, ``homing[c,s]`` and, for each of
    its channels, ``capacity[e]`` and ``coupling[e]``, where those rows
    exist.  After an optimal solve its reduced cost is its length under
    w(e) = cost_e - pi_capacity[e] - pi_coupling[e], less sigma_c + rho_s
    + eta_{c,s}, the duals of the other three rows, a missing row counting
    0.  The duals of the ``<=`` rows are <= 0, so w(e) >= cost_e, and one
    search per server (:func:`mlgdesign.mlg.cheapest_paths_from`) finds
    its cheapest path to every subscriber; that path enters when
    ``sigma_c + rho_s + eta_{c,s} - length > 1e-9``.  After an infeasible
    solve the same formula, with cost_e scaled by 0, prices the
    multipliers of the proof (``LpSolution.farkas``): only such a column
    can mend it (Farkas pricing; Desaulniers, Desrosiers & Solomon
    (eds.), *Column Generation*, 2005).  Since w(e) >= scale * cost_e, a
    server is searched only when its plain cheapest path's bound lets a
    path enter.

    At a branch-and-bound node, a channel whose ``use`` column has upper
    bound 0 is banned (w(e) = +inf), and so is server s for commodity c
    when ``y[c,s]`` has upper bound 0: their coupling and homing rows
    hold such a path at 0 there.  Entering paths are appended in
    commodity, then server order (:func:`_append_path`), and no path
    enters twice.  When none enters, no path prices in, so the solve is
    that of the program over every path."""

    def __init__(self, instance: BuiltInstance, form: _Formulation):
        self.instance, self.form = instance, form
        trees, servers = form.trees, instance.server_ids()
        self.rows = rows = {con.name: i for i, con in enumerate(form.lp.constraints)}
        self.seen = {(meta[1], meta[2].nodes) for meta in form.meta.values()
                     if meta[0] == "path"}
        edges = instance.channel_edges
        self.keys = [edge.key for edge in edges.values()]
        self.cost = [edge.cost for edge in edges.values()]
        # row indices, -1 for a row the program lacks: the multipliers get
        # a 0 appended for it
        self.coupling = [rows.get(f"coupling[{ch}]", -1) for ch in edges]
        use = {meta[1]: j for j, meta in form.meta.items() if meta[0] == "use"}
        self.use = np.array([use[ch] for ch in edges], dtype=int) if use else None
        assign = {meta[1:]: j for j, meta in form.meta.items() if meta[0] == "assign"}
        # each commodity and server a path can join, with its rows and the
        # cost of the server's tree path, which bounds every path's length
        self.pairs = [(c, s, rows[f"demand[{c.id}]"], rows.get(f"productivity[{s}]", -1),
                       rows.get(f"homing[{c.id},{s}]", -1), trees[s][c.sink.id][0])
                      for c in instance.commodities for s in servers if c.sink.id in trees[s]]
        self.assign = (np.array([assign[c.id, s] for c, s, *_ in self.pairs], dtype=int)
                       if assign else None)
        self._capacity_rows()

    def _capacity_rows(self) -> None:
        self.capacity = [self.rows.get(f"capacity[{ch}]", -1)
                         for ch in self.instance.channel_edges]

    def __call__(self, kind: str, multipliers: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray) -> bool:
        instance, rows = self.instance, self.rows
        scale = 1.0 if kind == "optimal" else 0.0
        y = multipliers.tolist()
        y.append(0.0)
        homed = None if self.assign is None else (upper[self.assign] > 0).tolist()
        # w(e) >= scale * cost_e, so no path is shorter than its tree path
        open_ = [(c, s, gain) for k, (c, s, demand, productivity, homing, tree)
                 in enumerate(self.pairs)
                 if (gain := y[demand] + y[productivity] + y[homing]) - scale * tree > 1e-9
                 and (homed is None or homed[k])]
        if not open_:
            return False
        length = [scale * cost - y[capacity] - y[coupling]
                  for cost, capacity, coupling in zip(self.cost, self.capacity, self.coupling)]
        if self.use is not None:
            length = [math.inf if up <= 0 else w
                      for w, up in zip(length, upper[self.use].tolist())]
        weight = dict(zip(self.keys, length))
        graph, adj = instance.graph, instance.graph.adjacency(1)
        priced: dict[str, dict[str, tuple]] = {}  # server -> its tree, searched when needed
        new = []
        for c, s, gain in open_:
            if s not in priced:
                priced[s] = cheapest_paths_from(graph, 1, [s], lambda e: weight[e.key])
            reduced, nodes = priced[s][c.sink.id]
            if gain - reduced > 1e-9 and (c.id, nodes) not in self.seen:
                self.seen.add((c.id, nodes))
                new.append((c.id, _candidate(s, nodes, _add_hops(0.0, nodes, adj), adj)))
        for cid, path in new:
            _append_path(instance, self.form, rows, cid, path)
        if new:
            self._capacity_rows()
        return bool(new)


def _price_link_path(lp: LinearProgram, price: _PathPricer,
                     start: Optional[Basis]) -> LpSolution:
    """The root LP of a link-path formulation over every layer-1 path,
    solved by column generation: the LP from ``start``, then, while
    ``price`` appends paths, again from its last basis.  When none enters,
    the optimum, or the infeasibility verdict and its certificate, are
    those of the program over every path."""
    sol = simplex_solve(lp, start=start)
    while sol.basis is not None:
        optimal = sol.status == "Optimal"
        if not price("optimal" if optimal else "infeasible",
                     sol.duals if optimal else sol.farkas, *lp.bounds()):
            break
        sol = simplex_solve(lp, start=sol.basis)
    return sol


def _append_path(instance: BuiltInstance, form: _Formulation, rows: dict[str, int],
                 cid: str, path: CandidatePath) -> None:
    """Append ``path`` as commodity ``cid``'s next column ``x[cid,i]`` of
    the link-path LP, with a ``capacity`` row for each finite channel
    new to it; ``rows`` maps row names to indices and gains the new
    rows."""
    lp = form.lp
    j = lp.add_var(f"x[{cid},{len(lp.constraints[rows[f'demand[{cid}]']].coeffs)}]")
    form.meta[j] = ("path", cid, path)
    lp.objective[j] = path.cost
    for ch in path.channels:
        form.channel_rows_vars[ch].append(j)
        capacity = instance.channel_edges[ch].capacity
        if f"capacity[{ch}]" not in rows and math.isfinite(capacity):
            rows[f"capacity[{ch}]"] = len(lp.constraints)
            lp.add_constraint({}, "<=", capacity, name=f"capacity[{ch}]")
    for row in (f"demand[{cid}]", f"productivity[{path.server}]",
                f"homing[{cid},{path.server}]",
                *(f"{kind}[{ch}]" for ch in path.channels for kind in ("capacity", "coupling"))):
        if row in rows:
            lp.constraints[rows[row]].coeffs[j] = 1.0


def solve_uncapacitated(instance: BuiltInstance,
                        channel_fixed_costs: dict[str, float],
                        formulation: str = "node-link",
                        single_homing: bool = False) -> DesignSolution:
    """Select channels (binary per-channel decision with fixed cost) and
    route flows over the selected subset.

    Two exact reductions shrink the search.  A channel every design
    needs (:func:`_required_channels`) carries flow in every feasible
    design, so its coupling row forces ``use`` to 1 there: ``use`` is
    posed in [1, 1], which removes no feasible point.  Without single
    homing, once every ``use`` is fixed, node-link is a min-cost flow,
    and so is link-path: pricing makes it exact over every path, whose
    flows decompose into that flow's.  So with integer data
    (:func:`_integral_data`) every integer point's best routing costs an
    integer (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, the
    integrality property) and the program says so
    (``LinearProgram.integral_objective``); branch and bound prunes on
    it only at nodes it has priced.  Under single homing the servers'
    flows share channels, so it does not hold there."""
    _check_args(formulation)
    for ch_id, fc in channel_fixed_costs.items():
        if ch_id not in instance.channel_edges:
            raise KeyError(f"unknown channel {ch_id!r} in fixed costs")
        if not 0 <= fc < math.inf:
            raise ValueError("fixed costs must be finite and >= 0")
    if not instance.commodities:
        return _assemble_solution(instance, {})
    if formulation == "node-link":
        form = formulate_node_link(instance, single_homing=single_homing)
    else:
        form = _link_path(instance, single_homing)
    form.lp.integral_objective = (not single_homing
                                  and _integral_data(instance, channel_fixed_costs))
    big_m = sum(c.demand for c in instance.commodities)
    required = _required_channels(instance)
    select_vars: dict[str, int] = {}
    for ch_id in sorted(instance.channel_edges):
        j = form.lp.add_var(f"use[{ch_id}]", upper=1.0, integer=True,
                            lower=float(ch_id in required))
        select_vars[ch_id] = j
        form.meta[j] = ("use", ch_id)
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


def _required_channels(instance: BuiltInstance) -> set[str]:
    """The channels whose removal cuts some subscriber with demand off
    from every server in layer 1: all of its routes cross them.  A
    subscriber that no server reaches makes none required, so a design
    infeasible by connectivity fails as it would without them.  Only a
    channel on a subscriber's path in the servers' reachability forest
    can cut it off, so only those are searched again, each with one
    reachability search from all servers."""
    adj, servers = instance.graph.adjacency(1), instance.server_ids()

    def reached(banned: Optional[tuple] = None) -> dict[str, Optional[tuple]]:
        """Each node the servers reach without channel ``banned`` (a
        key), with the channel and node it was first reached from."""
        via: dict[str, Optional[tuple]] = dict.fromkeys(servers)
        stack = list(servers)
        while stack:
            node = stack.pop()
            for nbr, edge in adj[node].items():
                if nbr not in via and edge.key != banned:
                    via[nbr] = (edge.key, node)
                    stack.append(nbr)
        return via

    forest = reached()
    sinks = {c.sink.id for c in instance.commodities if c.demand > 0} & forest.keys()
    on_paths: set[tuple] = set()
    for node in sinks:
        while (hop := forest[node]) is not None and hop[0] not in on_paths:
            on_paths.add(hop[0])
            node = hop[1]
    return {ch for ch, edge in instance.channel_edges.items()
            if edge.key in on_paths and not sinks <= reached(edge.key).keys()}


def _integral_data(instance: BuiltInstance, channel_fixed_costs: Mapping[str, float]) -> bool:
    """Whether every channel cost, finite capacity and fixed cost, every
    demand and every server productivity is an integer."""
    edges = instance.channel_edges.values()
    numbers = itertools.chain(
        (e.cost for e in edges), (e.capacity for e in edges), channel_fixed_costs.values(),
        (c.demand for c in instance.commodities),
        (instance.server_productivity(s) for s in instance.server_ids()))
    return all(float(v).is_integer() for v in numbers if v != math.inf)


def _solve(instance: BuiltInstance, form: _Formulation):
    """Root LP, branch and bound from that root when the LP has integer
    columns, then routes: (solution, root relaxation objective, routes).
    A root or search that ends other than optimal raises
    ``InfeasibleError``.  The root starts from ``form.start``, if the
    formulation names one.  A link-path formulation is priced
    (:class:`_PathPricer`) at the root and at the search's nodes."""
    start = Basis.of(form.lp, form.start) if form.start else None
    price = None if form.trees is None else _PathPricer(instance, form)
    relax = (simplex_solve(form.lp, start=start) if price is None
             else _price_link_path(form.lp, price, start))
    if relax.status != "Optimal":
        raise InfeasibleError(certificate=relax.certificate)
    sol = relax
    if form.lp.integer_indices():
        sol = (branch_and_bound(form.lp, root=relax) if price is None
               else branch_and_bound(form.lp, root=relax, price=price))
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
