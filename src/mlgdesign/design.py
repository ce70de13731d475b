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
to the commodity of the sink it ends at.  Single homing couples each
commodity to its own server choice and keeps one flow per commodity.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .builder import BuiltInstance
from .errors import (DecompositionError, InfeasibleError, LimitsExceeded,
                     UncoveredCommodity)
from .flows import CONSERVATION_TOL, Commodity, FlowAssignment
from .lp import LinearProgram, LpSolution, branch_and_bound, simplex_solve
from .mlg import NodeRef

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
    instance: BuiltInstance
    relaxation_objective: Optional[float] = None


# ---------------------------------------------------------------------------
# candidate path enumeration (Yen's k shortest loopless paths)
# ---------------------------------------------------------------------------

def _layer1_adjacency(instance: BuiltInstance) -> dict[str, list[tuple[str, float, str]]]:
    adj: dict[str, list[tuple[str, float, str]]] = {
        n: [] for n in instance.graph.nodes(1)}
    for edge in instance.graph.intra_edges(1):
        a, b = edge.ends
        name = edge.name or f"{a}-{b}"
        adj[a].append((b, edge.cost, name))
        adj[b].append((a, edge.cost, name))
    for lst in adj.values():
        lst.sort()
    return adj


def _shortest_path(adj, src, dst, banned_nodes=frozenset(), banned_edges=frozenset()):
    """Cheapest simple path; ties broken by smallest node sequence.

    Returns (cost, nodes) or None.  ``banned_edges`` holds (from, to)
    pairs in either orientation.
    """
    heap = [(0.0, (src,))]
    best: dict[str, tuple] = {}
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in best and best[node] <= (cost, path):
            continue
        best[node] = (cost, path)
        if node == dst:
            return cost, path
        for nbr, w, _name in adj.get(node, ()):
            if nbr in banned_nodes or nbr in path:
                continue
            if (node, nbr) in banned_edges or (nbr, node) in banned_edges:
                continue
            heapq.heappush(heap, (cost + w, path + (nbr,)))
    return None


def _k_shortest_paths(adj, src, dst, k):
    first = _shortest_path(adj, src, dst)
    if first is None:
        return []
    found = [first]
    candidates: list[tuple] = []
    seen = {first[1]}
    while len(found) < k:
        _, prev = found[-1]
        for i in range(len(prev) - 1):
            root = prev[:i + 1]
            root_cost = _path_cost(adj, root)
            banned_edges = set()
            for _, p in found:
                if p[:i + 1] == root and len(p) > i + 1:
                    banned_edges.add((p[i], p[i + 1]))
            banned_nodes = frozenset(root[:-1])
            spur = _shortest_path(adj, root[-1], dst, banned_nodes,
                                  frozenset(banned_edges))
            if spur is None:
                continue
            total = (root_cost + spur[0], root[:-1] + spur[1])
            if total[1] not in seen:
                seen.add(total[1])
                heapq.heappush(candidates, total)
        if not candidates:
            break
        found.append(heapq.heappop(candidates))
    return found


def _path_cost(adj, nodes) -> float:
    cost = 0.0
    for a, b in zip(nodes, nodes[1:]):
        for nbr, w, _name in adj[a]:
            if nbr == b:
                cost += w
                break
    return cost


def _path_channels(instance: BuiltInstance, nodes) -> tuple[str, ...]:
    out = []
    for a, b in zip(nodes, nodes[1:]):
        edge = instance.graph.find_intra(1, a, b)
        out.append(edge.name or f"{edge.ends[0]}-{edge.ends[1]}")
    return tuple(out)


def enumerate_candidate_paths(instance: BuiltInstance, commodity: Commodity,
                              k: int) -> list[CandidatePath]:
    """Up to k loop-free cheapest layer-1 paths per server, merged and
    sorted by (cost, node sequence)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    adj = _layer1_adjacency(instance)
    subscriber = commodity.sink.id
    out = []
    for server in instance.server_ids():
        for cost, nodes in _k_shortest_paths(adj, server, subscriber, k):
            out.append(CandidatePath(server=server, nodes=nodes,
                                     channels=_path_channels(instance, nodes),
                                     cost=cost))
    out.sort(key=lambda p: (p.cost, p.nodes))
    return out


def all_candidate_paths(instance: BuiltInstance,
                        commodity: Commodity) -> list[CandidatePath]:
    """Every simple server-to-subscriber path (exhaustive DFS)."""
    adj = _layer1_adjacency(instance)
    subscriber = commodity.sink.id
    out = []
    for server in instance.server_ids():
        for nodes in _simple_paths(adj, server, subscriber):
            out.append(CandidatePath(server=server, nodes=nodes,
                                     channels=_path_channels(instance, nodes),
                                     cost=_path_cost(adj, nodes)))
    out.sort(key=lambda p: (p.cost, p.nodes))
    return out


def _simple_paths(adj, src, dst):
    paths = []

    def walk(path):
        node = path[-1]
        if node == dst:
            paths.append(tuple(path))
            return
        for nbr, _w, _name in adj.get(node, ()):
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
    # group, server), ("assign", cid, server) or ("path", cid, CandidatePath)
    meta: dict[int, tuple] = field(default_factory=dict)
    channel_rows_vars: dict[str, list[int]] = field(default_factory=dict)


def formulate_link_path(instance: BuiltInstance,
                        paths: dict[str, list[CandidatePath]],
                        single_homing: bool = False) -> _Formulation:
    """Per-path flow columns and one demand row per commodity; the rows
    both formulations share come from :func:`_add_shared_rows`."""
    form = _Formulation(lp=LinearProgram(), read_routes=_routes_from_path_vars,
                        channel_rows_vars={c: [] for c in instance.channel_edges})
    balance_rows: list[tuple[dict[int, float], str, float, str]] = []
    from_server: list[dict[str, list[int]]] = []
    for commodity in instance.commodities:
        plist = paths.get(commodity.id, [])
        if not plist:
            raise UncoveredCommodity(f"commodity {commodity.id} has no candidate path")
        out: dict[str, list[int]] = {s: [] for s in instance.server_ids()}
        for idx, path in enumerate(plist):
            j = form.lp.add_var(f"x[{commodity.id},{idx}]")
            form.meta[j] = ("path", commodity.id, path)
            form.lp.objective[j] = path.cost
            for ch in path.channels:
                form.channel_rows_vars[ch].append(j)
            out[path.server].append(j)
        row = dict.fromkeys(itertools.chain(*out.values()), 1.0)
        balance_rows.append((row, "=", commodity.demand, f"demand[{commodity.id}]"))
        from_server.append(out)
    _add_shared_rows(instance, form, balance_rows, from_server, single_homing)
    return form


def formulate_node_link(instance: BuiltInstance,
                        single_homing: bool = False) -> _Formulation:
    """Directed arc and server-injection columns per commodity group, and
    one conservation row per layer-1 node with the group's demand there;
    the rows both formulations share come from :func:`_add_shared_rows`.

    Without single homing one group holds every commodity: they share
    the servers as sources, so the aggregate model (2E arcs + S
    injections) is an exact single-commodity min-cost flow.  With single
    homing each commodity is its own group, tied to one server by its
    ``y``/``homing`` rows.
    """
    channels = sorted(instance.channel_edges)
    form = _Formulation(lp=LinearProgram(), read_routes=_decompose_node_link,
                        channel_rows_vars={c: [] for c in channels})
    balance_rows: list[tuple[dict[int, float], str, float, str]] = []
    from_server: list[dict[str, list[int]]] = []
    groups = ([(c,) for c in instance.commodities] if single_homing
              else [tuple(instance.commodities)])
    for group in groups:
        tag = f"{group[0].id}," if single_homing else ""
        balance: dict[str, dict[int, float]] = {n: {} for n in instance.graph.nodes(1)}
        for ch_id in channels:
            edge = instance.channel_edges[ch_id]
            a, b = edge.ends
            for frm, to in ((a, b), (b, a)):
                j = form.lp.add_var(f"f[{tag}{ch_id},{frm}->{to}]")
                form.meta[j] = ("arc", group, ch_id, frm, to)
                form.lp.objective[j] = edge.cost
                form.channel_rows_vars[ch_id].append(j)
                balance[to][j] = 1.0
                balance[frm][j] = -1.0
        out: dict[str, list[int]] = {}
        for server in instance.server_ids():
            j = form.lp.add_var(f"inj[{tag}{server}]")
            form.meta[j] = ("inject", group, server)
            out[server] = [j]
            balance[server][j] = 1.0
        from_server.append(out)
        demand = {c.sink.id: c.demand for c in group}
        balance_rows += [(row, "=", demand.get(node, 0.0), f"conservation[{tag}{node}]")
                         for node, row in balance.items() if row or node in demand]
    _add_shared_rows(instance, form, balance_rows, from_server, single_homing)
    return form


def _add_shared_rows(instance: BuiltInstance, form: _Formulation,
                     balance_rows: list[tuple[dict[int, float], str, float, str]],
                     from_server: list[dict[str, list[int]]],
                     single_homing: bool) -> None:
    """The ``y`` binaries with their ``assign``/``homing`` rows, then the
    balance rows, then one capacity row per finite-capacity MLG arc the
    columns use: the layer-1 channels (``capacity[ch]``) and the
    ``3:service -> 2:server`` edges (``productivity[s]``).

    ``from_server`` holds, per commodity group, the columns whose flow
    leaves each server; under single homing a group is one commodity.
    """
    lp = form.lp
    servers = instance.server_ids()
    homing_rows = []
    if single_homing:
        for commodity, out in zip(instance.commodities, from_server):
            assign_row: dict[int, float] = {}
            for server in servers:
                j = lp.add_var(f"y[{commodity.id},{server}]", upper=1.0, integer=True)
                form.meta[j] = ("assign", commodity.id, server)
                assign_row[j] = 1.0
                if out[server]:
                    coeffs = dict.fromkeys(out[server], 1.0)
                    coeffs[j] = -commodity.demand
                    homing_rows.append((coeffs, "<=", 0.0,
                                        f"homing[{commodity.id},{server}]"))
            lp.add_constraint(assign_row, "=", 1.0, name=f"assign[{commodity.id}]")
    # balance rows follow the assign rows, which need the y columns
    for coeffs, relation, rhs, name in balance_rows + homing_rows:
        lp.add_constraint(coeffs, relation, rhs, name=name)

    arcs = [(f"capacity[{ch}]", form.channel_rows_vars[ch], instance.channel_edges[ch])
            for ch in sorted(form.channel_rows_vars)]
    arcs += [(f"productivity[{s}]", [j for out in from_server for j in out[s]],
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
    """Build a DesignSolution from per-commodity layer-1 route flows."""
    adj = _layer1_adjacency(instance)
    service = instance.service_node
    flow_assignment = FlowAssignment()
    assignment: dict[str, list[tuple[str, float]]] = {
        s: [] for s in instance.server_ids()}
    per_server_sub: dict[tuple[str, str], float] = {}
    edge_flows: dict[tuple, float] = {}
    objective = fixed_cost_part

    for commodity in instance.commodities:
        for nodes, flow in route_flows.get(commodity.id, []):
            if flow <= FLOW_EPS:
                continue
            server, subscriber = nodes[0], nodes[-1]
            full = [service, NodeRef(2, server)]
            full.extend(NodeRef(1, n) for n in nodes)
            full.extend([NodeRef(2, subscriber), NodeRef(3, subscriber)])
            flow_assignment.add_path(commodity.id, full, flow)
            per_server_sub[(server, subscriber)] = (
                per_server_sub.get((server, subscriber), 0.0) + flow)
            objective += flow * _path_cost(adj, nodes)

    edge_flows.update(flow_assignment.edge_totals())
    # derived layer-2 / layer-3 annotations (not independently optimized)
    for (server, subscriber), vol in per_server_sub.items():
        edge = instance.graph.find_intra(2, server, subscriber)
        edge_flows[edge.key] = edge_flows.get(edge.key, 0.0) + vol
        star = instance.graph.find_intra(3, instance.problem.service_id, subscriber)
        edge_flows[star.key] = edge_flows.get(star.key, 0.0) + vol

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
                          flow_assignment=flow_assignment, instance=instance,
                          relaxation_objective=relaxation_objective)


def _decompose_node_link(instance: BuiltInstance, form: _Formulation,
                         values: np.ndarray
                         ) -> dict[str, list[tuple[tuple[str, ...], float]]]:
    """Path decomposition of each commodity group's arc flows.

    Opposing flow on a channel cancels first.  Each walk starts at the
    first server with injection left, follows positive arcs (removing
    any cycle it closes) and stops at the first node with unmet demand
    in the group, whose commodity owns the path.  Each extraction,
    cycle cancel or dead end zeroes an arc, injection or demand, which
    bounds the loop; partial routes raise ``DecompositionError``.
    """
    routes: dict[str, list[tuple[tuple[str, ...], float]]] = {
        c.id: [] for c in instance.commodities}
    flows: dict[tuple, tuple[dict, dict]] = {}
    for j, meta in form.meta.items():
        if meta[0] in ("arc", "inject") and values[j] > FLOW_EPS:
            arcs, inject = flows.setdefault(meta[1], ({}, {}))
            if meta[0] == "arc":
                arcs[meta[3:]] = arcs.get(meta[3:], 0.0) + float(values[j])
            else:
                inject[meta[2]] = float(values[j])

    for group, (arcs, inject) in flows.items():
        for frm, to in list(arcs):
            if (to, frm) in arcs:
                cancel = min(arcs[(frm, to)], arcs[(to, frm)])
                arcs[(frm, to)] -= cancel
                arcs[(to, frm)] -= cancel
        heads: dict[str, list[str]] = {}
        for frm, to in sorted(arcs):
            heads.setdefault(frm, []).append(to)
        need = {c.sink.id: c.demand for c in group}
        owner = {c.sink.id: c.id for c in group}
        for _ in range(len(arcs) + len(inject) + len(need) + 1):
            start = next((s for s in sorted(inject) if inject[s] > FLOW_EPS), None)
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


def _homing_tie_key(instance: BuiltInstance, form: _Formulation):
    """Tie-break incumbents by the assignment vector (server per
    subscriber, subscribers in id order)."""
    slots: dict[str, list[tuple[str, int]]] = {}
    for j, meta in form.meta.items():
        if meta[0] == "assign":
            _, cid, server = meta
            slots.setdefault(cid, []).append((server, j))
    order = sorted(slots)

    def key(values: np.ndarray) -> tuple:
        vec = []
        for cid in order:
            chosen = sorted(s for s, j in slots[cid] if values[j] > 0.5)
            vec.append(tuple(chosen))
        return tuple(vec)

    return key


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _empty_solution(instance: BuiltInstance) -> DesignSolution:
    return _assemble_solution(instance, {})


def solve_capacitated(instance: BuiltInstance, formulation: str = "node-link",
                      k: int = 4, single_homing: bool = False) -> DesignSolution:
    """Minimize total carried flow cost under channel and server capacities."""
    if not instance.commodities:
        return _empty_solution(instance)
    form = _build_formulation(instance, formulation, k, single_homing)
    _sol, relaxed, routes = _solve(instance, form, _homing_tie_key(instance, form))
    return _assemble_solution(instance, routes, relaxation_objective=relaxed)


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
        return _empty_solution(instance)
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
        paths = {c.id: enumerate_candidate_paths(instance, c, k)
                 for c in instance.commodities}
        return formulate_link_path(instance, paths, single_homing=single_homing)
    raise ValueError(f"unknown formulation {formulation!r}")


def _solve(instance: BuiltInstance, form: _Formulation, tie_key=None):
    """Root LP, branch and bound when the LP has integer columns, then
    routes: (solution, root relaxation objective, routes).  A root or
    search that ends other than optimal raises ``InfeasibleError``."""
    relax = simplex_solve(form.lp)
    if relax.status != "Optimal":
        raise InfeasibleError(certificate=relax.certificate)
    sol = relax
    if form.lp.integer_indices():
        sol = branch_and_bound(form.lp, tie_key=tie_key)
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
    simplex path (scipy solves the per-configuration path LPs)."""
    if (len(instance.commodities) > limits.max_commodities
            or len(instance.channel_edges) > limits.max_channels
            or len(instance.graph.nodes(1)) > limits.max_layer1_nodes):
        raise LimitsExceeded("instance exceeds oracle limits")
    if not instance.commodities:
        return _empty_solution(instance)

    all_paths = {c.id: all_candidate_paths(instance, c)
                 for c in instance.commodities}

    if mode == "capacitated" and not single_homing:
        result = _oracle_lp(instance, all_paths)
        if result is None:
            raise InfeasibleError(message="oracle: no feasible routing")
        objective, routes = result
        return _assemble_solution(instance, routes)

    if mode == "capacitated" and single_homing:
        best = None
        cids = [c.id for c in instance.commodities]
        for combo in itertools.product(instance.server_ids(), repeat=len(cids)):
            restricted = {
                cid: [p for p in all_paths[cid] if p.server == combo[i]]
                for i, cid in enumerate(cids)}
            if any(not ps for ps in restricted.values()):
                continue
            result = _oracle_lp(instance, restricted)
            if result is None:
                continue
            objective, routes = result
            key = (objective, combo)
            if best is None or objective < best[0][0] - 1e-9 or (
                    objective <= best[0][0] + 1e-9 and combo < best[0][1]):
                best = (key, routes)
        if best is None:
            raise InfeasibleError(message="oracle: no feasible assignment")
        return _assemble_solution(instance, best[1])

    if mode == "uncapacitated":
        fixed = channel_fixed_costs or {}
        channels = sorted(instance.channel_edges)
        best = None
        for r in range(len(channels) + 1):
            for subset in itertools.combinations(channels, r):
                allowed = set(subset)
                restricted = {
                    cid: [p for p in ps if set(p.channels) <= allowed]
                    for cid, ps in all_paths.items()}
                if any(not ps for ps in restricted.values()):
                    continue
                result = _oracle_lp(instance, restricted)
                if result is None:
                    continue
                flow_obj, routes = result
                total = flow_obj + sum(float(fixed.get(ch, 0.0)) for ch in subset)
                if best is None or total < best[0] - 1e-9 or (
                        total <= best[0] + 1e-9 and subset < best[1]):
                    best = (total, subset, routes, flow_obj)
        if best is None:
            raise InfeasibleError(message="oracle: no feasible channel subset")
        _total, subset, routes, flow_obj = best
        return _assemble_solution(instance, routes, selected=list(subset),
                                  fixed_cost_part=best[0] - flow_obj)

    raise ValueError(f"unknown oracle mode {mode!r}")


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
