"""Problem/solution file formats, DOT export, and the command-line driver.

Problem files are JSON documents with top-level keys ``subscribers``,
``servers``, ``service``, ``channels`` and optional ``intermediate``;
unknown keys are rejected.  Every number must be finite, except that a
channel capacity may be ``Infinity`` (unbounded).  Exit codes:
0 success, 1 infeasible, 2 invalid input (including bad command-line
arguments), 3 internal/IO failure, 4 oracle limits exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Optional

from . import builder, design, mlg, report
from .errors import (DecompositionError, InfeasibleError, LimitsExceeded,
                     MlgError, ProblemFormatError)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID_INPUT = 2
EXIT_INTERNAL = 3
EXIT_LIMITS = 4


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where}: expected an object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ProblemFormatError(
            f"{where}: unknown key(s) {', '.join(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        raise ProblemFormatError(
            f"{where}: missing key(s) {', '.join(sorted(missing))}")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(f"{where}: expected a number")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge integers
        raise ProblemFormatError(f"{where}: expected a finite number")
    return float(value)


def _as_id(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ProblemFormatError(f"{where}: expected a nonempty string id")
    return value


def parse_problem(path: str) -> builder.DesignProblem:
    """Load and validate a problem file; raises ProblemFormatError with a
    field-precise message on any schema violation."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                                 f"column {exc.colno}: {exc.msg}") from exc
    return problem_from_dict(doc)


def problem_from_dict(doc: dict) -> builder.DesignProblem:
    _require_keys(doc, "top level",
                  {"subscribers", "servers", "service", "channels"},
                  {"intermediate"})

    subscribers = []
    for i, entry in enumerate(doc["subscribers"]):
        where = f"subscribers[{i}]"
        _require_keys(entry, where, {"id", "sessions"})
        sid = _as_id(entry["id"], where)
        sessions = []
        for j, vol in enumerate(entry["sessions"]):
            v = _as_number(vol, f"{where}.sessions[{j}]")
            if v < 0:
                raise ProblemFormatError(
                    f"{where}.sessions[{j}]: volume must be >= 0")
            sessions.append(builder.Session(subscriber=sid, volume=v))
        subscribers.append(builder.Subscriber(id=sid, sessions=sessions))

    servers = []
    for i, entry in enumerate(doc["servers"]):
        where = f"servers[{i}]"
        _require_keys(entry, where, {"id", "productivity"})
        p = _as_number(entry["productivity"], f"{where}.productivity")
        if p < 0:
            raise ProblemFormatError(f"{where}.productivity: must be >= 0")
        servers.append(builder.Server(id=_as_id(entry["id"], where), productivity=p))

    _require_keys(doc["service"], "service", {"id", "productivity"})
    service_id = _as_id(doc["service"]["id"], "service")
    service_p = _as_number(doc["service"]["productivity"], "service.productivity")

    intermediates = []
    for i, entry in enumerate(doc.get("intermediate", [])):
        where = f"intermediate[{i}]"
        _require_keys(entry, where, {"id"})
        intermediates.append(_as_id(entry["id"], where))

    channels = []
    for i, entry in enumerate(doc["channels"]):
        where = f"channels[{i}]"
        _require_keys(entry, where, {"id", "ends", "capacity"}, {"cost"})
        cid = _as_id(entry["id"], where)
        ends = entry["ends"]
        if (not isinstance(ends, list) or len(ends) != 2
                or not all(isinstance(e, str) for e in ends)):
            raise ProblemFormatError(f"channel {cid}: ends must be a pair of ids")
        capacity = entry["capacity"]
        if capacity != math.inf:  # Infinity: an unbounded channel
            capacity = _as_number(capacity, f"channel {cid}: capacity")
        if capacity <= 0:
            raise ProblemFormatError(f"channel {cid}: capacity must be positive")
        cost = _as_number(entry.get("cost", 1.0), f"channel {cid}: cost")
        if cost < 0:
            raise ProblemFormatError(f"channel {cid}: cost must be >= 0")
        channels.append(builder.Channel(id=cid, ends=(ends[0], ends[1]),
                                        capacity=capacity, cost=cost))

    try:
        return builder.DesignProblem(
            subscribers=subscribers, servers=servers, service_id=service_id,
            service_productivity=service_p, intermediates=intermediates,
            channels=channels)
    except MlgError as exc:
        raise ProblemFormatError(str(exc)) from exc


def problem_to_dict(problem: builder.DesignProblem) -> dict:
    return {
        "subscribers": [{"id": s.id, "sessions": [x.volume for x in s.sessions]}
                        for s in sorted(problem.subscribers, key=lambda s: s.id)],
        "servers": [{"id": s.id, "productivity": s.productivity}
                    for s in sorted(problem.servers, key=lambda s: s.id)],
        "service": {"id": problem.service_id,
                    "productivity": problem.service_productivity},
        "intermediate": [{"id": z} for z in sorted(problem.intermediates)],
        "channels": [{"id": c.id, "ends": sorted(c.ends), "capacity": c.capacity,
                      "cost": c.cost}
                     for c in sorted(problem.channels, key=lambda c: c.id)],
    }


def write_problem(problem: builder.DesignProblem, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# solution files
# ---------------------------------------------------------------------------

def _edge_key_str(key: tuple) -> str:
    if key[0] == "intra":
        _tag, layer, a, b = key
        return f"L{layer}:{a}-{b}"
    _tag, upper, lower = key
    return f"L{upper.layer}:{upper.id}->L{lower.layer}:{lower.id}"


def solution_to_dict(rep: report.ProjectReport, status: str = "optimal",
                     per_edge_flow: Optional[dict] = None) -> dict:
    doc: dict[str, Any] = {
        "status": status,
        "objective": rep.objective,
        "selected_channels": [
            {"id": c.channel, "flow": c.flow,
             "capacity": c.capacity if math.isfinite(c.capacity) else "unbounded",
             "utilization": c.utilization}
            for c in rep.selected_channels],
        "assignments": {server: [{"subscriber": sub, "volume": vol}
                                 for sub, vol in pairs]
                        for server, pairs in sorted(rep.assignments.items())},
        "routes": {cid: [{"nodes": list(nodes), "flow": flow}
                         for nodes, flow in lst]
                   for cid, lst in sorted(rep.routes.items())},
        "validation": dict(sorted(rep.validation.items())),
    }
    if per_edge_flow is not None:
        doc["per_edge_flow"] = {
            _edge_key_str(k): v for k, v in sorted(
                per_edge_flow.items(), key=lambda kv: _edge_key_str(kv[0]))
            if v > design.FLOW_EPS}
    return doc


def write_solution(doc: dict, path: Optional[str]) -> None:
    """Deterministic serialization: sorted keys, stable list order."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _fmt_cap(value: float) -> str:
    return "inf" if not math.isfinite(value) else f"{value:g}"


def export_dot(graph: mlg.MultiLayerGraph, path: Optional[str] = None) -> str:
    """Graphviz document: one cluster per layer, intra edges solid,
    inter edges dashed, labels capacity (``inf`` when unbounded)."""
    lines = ["graph mlg {"]
    for layer in range(1, graph.layer_count + 1):
        lines.append(f'  subgraph cluster_layer_{layer} {{')
        lines.append(f'    label="layer_{layer}";')
        for node in graph.nodes(layer):
            lines.append(f'    "{layer}:{node}";')
        for edge in graph.intra_edges(layer):
            a, b = edge.ends
            lines.append(
                f'    "{layer}:{a}" -- "{layer}:{b}" '
                f'[label="{_fmt_cap(edge.capacity)}"];')
        lines.append("  }")
    for edge in graph.inter_edges():
        u, l = edge.upper, edge.lower
        lines.append(
            f'  "{u.layer}:{u.id}" -- "{l.layer}:{l.id}" '
            f'[style=dashed, label="{_fmt_cap(edge.capacity)}"];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# command-line driver
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlgdesign",
        description="Multi-layer graph design of overlay telecom networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="build the instance and check overlay realizability")
    p_val.add_argument("problem")
    p_val.add_argument("--allow-productivity-surplus", action="store_true")

    p_solve = sub.add_parser("solve", help="solve the design problem")
    p_solve.add_argument("problem")
    p_solve.add_argument("--mode", choices=["capacitated", "uncapacitated"],
                         default="capacitated")
    p_solve.add_argument("--formulation", choices=["node-link", "link-path"],
                         default="node-link")
    p_solve.add_argument("--k", type=int, default=4,
                         help="candidate paths per server (link-path)")
    p_solve.add_argument("--single-homing", action="store_true")
    p_solve.add_argument("--fixed-costs", metavar="FILE",
                         help="JSON map channel id -> fixed cost (uncapacitated)")
    p_solve.add_argument("--allow-productivity-surplus", action="store_true")
    p_solve.add_argument("-o", "--output", default=None)

    p_dot = sub.add_parser("export-dot", help="write the built instance as Graphviz DOT")
    p_dot.add_argument("problem")
    p_dot.add_argument("--allow-productivity-surplus", action="store_true")
    p_dot.add_argument("-o", "--output", required=True)

    p_oracle = sub.add_parser("oracle", help="brute-force reference solve (small instances)")
    p_oracle.add_argument("problem")
    p_oracle.add_argument("--mode", choices=["capacitated", "uncapacitated"],
                          default="capacitated")
    p_oracle.add_argument("--single-homing", action="store_true")
    p_oracle.add_argument("--fixed-costs", metavar="FILE")
    p_oracle.add_argument("--allow-productivity-surplus", action="store_true")
    p_oracle.add_argument("-o", "--output", default=None)
    return parser


def _load_instance(args) -> builder.BuiltInstance:
    problem = parse_problem(args.problem)
    return builder.build_redundant_mlg(
        problem, allow_surplus=getattr(args, "allow_productivity_surplus", False))


def _load_fixed_costs(path: Optional[str], instance) -> dict[str, float]:
    if path is None:
        return {ch: 1.0 for ch in instance.channel_edges}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemFormatError(f"cannot read fixed costs {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("fixed costs file must be a JSON object")
    out = {}
    for ch, value in doc.items():
        if ch not in instance.channel_edges:
            raise ProblemFormatError(f"fixed costs: unknown channel {ch!r}")
        out[ch] = _as_number(value, f"fixed cost for {ch}")
        if out[ch] < 0:
            raise ProblemFormatError(f"fixed cost for {ch}: must be >= 0")
    return out


def _cmd_validate(args) -> int:
    instance = _load_instance(args)
    result = mlg.validate_overlay(instance.graph)
    if result.ok:
        print("ok: overlay constraint satisfied on all layers")
        return EXIT_OK
    for edge, reason in result.violations:
        print(f"violation: layer {edge.layer} edge "
              f"({edge.ends[0]},{edge.ends[1]}): {reason}")
    return EXIT_INVALID_INPUT


def _cmd_solve(args) -> int:
    instance = _load_instance(args)
    if args.mode == "uncapacitated":
        fixed = _load_fixed_costs(args.fixed_costs, instance)
        solution = design.solve_uncapacitated(
            instance, fixed, formulation=args.formulation, k=args.k,
            single_homing=args.single_homing)
    else:
        solution = design.solve_capacitated(
            instance, formulation=args.formulation, k=args.k,
            single_homing=args.single_homing)
    rep = report.render_report(solution, instance)
    doc = solution_to_dict(rep, per_edge_flow=solution.edge_flows)
    write_solution(doc, args.output)
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    instance = _load_instance(args)
    export_dot(instance.graph, args.output)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = _load_instance(args)
    fixed = None
    if args.mode == "uncapacitated":
        fixed = _load_fixed_costs(args.fixed_costs, instance)
    solution = design.brute_force_oracle(
        instance, mode=args.mode, single_homing=args.single_homing,
        channel_fixed_costs=fixed)
    rep = report.render_report(solution, instance)
    write_solution(solution_to_dict(rep, per_edge_flow=solution.edge_flows),
                   args.output)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.k < 1:
        parser.error(f"argument --k: must be >= 1, got {args.k}")
    handlers = {"validate": _cmd_validate, "solve": _cmd_solve,
                "export-dot": _cmd_export_dot, "oracle": _cmd_oracle}
    try:
        return handlers[args.command](args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except LimitsExceeded as exc:
        print(f"limits exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMITS
    except DecompositionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ProblemFormatError, MlgError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
