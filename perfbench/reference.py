"""Independent reference optima, solved with scipy's HiGHS.

The models are built from the problem document alone; nothing here
imports the package under test.  Without single-homing every commodity
has the same sources (the servers), so the capacitated and fixed-charge
problems are exact as one aggregated min-cost flow.  Single-homing needs
one flow per subscriber, since each picks its own server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

MILP_OPTIONS = {"mip_rel_gap": 0.0, "presolve": True}


@dataclass(frozen=True)
class Reference:
    status: str  # "optimal" | "infeasible"
    objective: Optional[float] = None


class _Model:
    def __init__(self):
        self.cost: list[float] = []
        self.integer: list[int] = []
        self.upper: list[float] = []
        self.rows: list[tuple[dict[int, float], float, float]] = []

    def var(self, cost: float, integer: bool = False, upper: float = np.inf) -> int:
        self.cost.append(cost)
        self.integer.append(int(integer))
        self.upper.append(upper)
        return len(self.cost) - 1

    def row(self, coeffs: dict[int, float], lo: float, hi: float) -> None:
        self.rows.append((coeffs, lo, hi))

    def solve(self) -> Reference:
        data, ri, ci = [], [], []
        for i, (coeffs, _lo, _hi) in enumerate(self.rows):
            for j, a in coeffs.items():
                ri.append(i)
                ci.append(j)
                data.append(a)
        a = coo_matrix((data, (ri, ci)), shape=(len(self.rows), len(self.cost))).tocsr()
        constraints = LinearConstraint(a, [r[1] for r in self.rows], [r[2] for r in self.rows])
        cost = np.array(self.cost)
        integer = np.array(self.integer)
        lower, upper = np.zeros(len(cost)), np.array(self.upper)
        res = milp(cost, constraints=constraints, integrality=integer,
                   bounds=Bounds(lower, upper), options=MILP_OPTIONS)
        if res.status == 0 and integer.any():
            # HiGHS accepts integers within 1e-6; fix them at their rounded
            # values and re-solve the LP, so the objective is exact
            fixed = np.where(integer == 1, np.round(res.x), 0.0)
            lower = np.where(integer == 1, fixed, lower)
            upper = np.where(integer == 1, fixed, upper)
            res = milp(cost, constraints=constraints, bounds=Bounds(lower, upper),
                       options=MILP_OPTIONS)
            if res.status != 0:
                raise RuntimeError(f"HiGHS re-solve with integers fixed failed: {res.message}")
        if res.status == 0:
            return Reference("optimal", float(res.fun))
        if res.status == 2:
            return Reference("infeasible")
        raise RuntimeError(f"HiGHS reference solve ended with status {res.status}: "
                           f"{res.message}")


def reference_optimum(doc: dict, mode: str = "capacitated", single_homing: bool = False,
                      fixed_costs: Optional[dict[str, float]] = None) -> Reference:
    """Optimum of the design problem ``doc`` as the CLI poses it.

    ``mode`` is "capacitated" or "uncapacitated"; the latter adds one
    binary selection variable per channel, charged ``fixed_costs[id]``
    (1.0 for every channel when ``fixed_costs`` is None).
    """
    demand = {s["id"]: float(sum(s["sessions"])) for s in doc["subscribers"]}
    sinks = sorted(u for u, d in demand.items() if d > 0)
    servers = {s["id"]: float(s["productivity"]) for s in doc["servers"]}
    nodes = ([s["id"] for s in doc["subscribers"]] + [z["id"] for z in doc.get("intermediate", [])]
             + list(servers))
    if not sinks:
        return Reference("optimal", 0.0)
    if not servers:
        return Reference("infeasible")
    # a commodity group is a map sink -> demand sharing one flow
    groups = [{u: demand[u]} for u in sinks] if single_homing else [
        {u: demand[u] for u in sinks}]
    total = sum(demand[u] for u in sinks)

    m = _Model()
    channel_cols: dict[str, list[int]] = {}
    injects = []
    for group in groups:
        balance: dict[str, dict[int, float]] = {v: {} for v in nodes}
        for ch in doc["channels"]:
            a, b = ch["ends"]
            for frm, to in ((a, b), (b, a)):
                j = m.var(float(ch.get("cost", 1.0)))
                balance[to][j] = 1.0
                balance[frm][j] = -1.0
                channel_cols.setdefault(ch["id"], []).append(j)
        inject = {}
        for s in servers:
            inject[s] = m.var(0.0)
            balance[s][inject[s]] = 1.0
        for v in nodes:
            m.row(balance[v], group.get(v, 0.0), group.get(v, 0.0))
        if single_homing:
            (sink, d), = group.items()
            pick = {}
            for s in servers:
                pick[s] = m.var(0.0, integer=True, upper=1.0)
                m.row({inject[s]: 1.0, pick[s]: -d}, -np.inf, 0.0)
            m.row({j: 1.0 for j in pick.values()}, 1.0, 1.0)
        injects.append(inject)
    for s, p in servers.items():
        m.row({inj[s]: 1.0 for inj in injects}, -np.inf, p)
    for ch in doc["channels"]:
        cols = {j: 1.0 for j in channel_cols[ch["id"]]}
        m.row(cols, -np.inf, float(ch["capacity"]))
        if mode == "uncapacitated":
            fixed = 1.0 if fixed_costs is None else float(fixed_costs.get(ch["id"], 0.0))
            use = m.var(fixed, integer=True, upper=1.0)
            m.row({**cols, use: -total}, -np.inf, 0.0)
    return m.solve()


def overlay_realizable(doc: dict) -> bool:
    """Whether ``validate`` should pass.  Layer 2 joins every server to
    every server and subscriber, and layer 3 joins the service to every
    subscriber through the servers; so each of those edges has a layer-1
    realization exactly when all servers and subscribers share one
    connected component of the channel graph and, if there is a
    subscriber, there is a server."""
    ends = [s["id"] for s in doc["servers"]] + [s["id"] for s in doc["subscribers"]]
    if doc["subscribers"] and not doc["servers"]:
        return False
    if not ends:
        return True
    adj: dict[str, list[str]] = {}
    for ch in doc["channels"]:
        a, b = ch["ends"]
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {ends[0]}
    stack = [ends[0]]
    while stack:
        for nbr in adj.get(stack.pop(), ()):
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return all(e in seen for e in ends)
