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
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional

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

def _keys(required: set[str], optional: set[str] = frozenset()) -> tuple[frozenset, frozenset]:
    """(required keys, allowed keys) of one kind of object in a problem file."""
    return frozenset(required), frozenset(required) | frozenset(optional)


_TOP_KEYS = _keys({"subscribers", "servers", "service", "channels"}, {"intermediate"})
_SUBSCRIBER_KEYS = _keys({"id", "sessions"})
_SERVER_KEYS = _keys({"id", "productivity"})
_INTERMEDIATE_KEYS = _keys({"id"})
_CHANNEL_KEYS = _keys({"id", "ends", "capacity"}, {"cost"})


# Each check names the field it reads as ``where.format(*args)``, built only
# when it raises: a valid file formats no location string.

def _require_keys(obj: dict, keys: tuple[frozenset, frozenset], where: str, *args):
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where.format(*args)}: expected an object")
    required, allowed = keys
    present = obj.keys()
    if present == required or present == allowed:
        return
    unknown = present - allowed
    if unknown:
        raise ProblemFormatError(
            f"{where.format(*args)}: unknown key(s) {', '.join(sorted(unknown))}")
    missing = required - present
    if missing:
        raise ProblemFormatError(
            f"{where.format(*args)}: missing key(s) {', '.join(sorted(missing))}")


def _as_number(value, where: str, *args) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(f"{where.format(*args)}: expected a number")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge integers
        raise ProblemFormatError(f"{where.format(*args)}: expected a finite number")
    return float(value)


def _as_list(value, where: str, *args) -> list:
    if not isinstance(value, list):
        raise ProblemFormatError(f"{where.format(*args)}: expected a list")
    return value


def _as_id(value, where: str, *args) -> str:
    if not isinstance(value, str) or not value:
        raise ProblemFormatError(f"{where.format(*args)}: expected a nonempty string id")
    return value


def parse_problem(path: str) -> builder.DesignProblem:
    """Load and validate a problem file; raises ProblemFormatError with a
    field-precise message on any schema violation."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                                 f"column {exc.colno}: {exc.msg}") from exc
    return problem_from_dict(doc)


def problem_from_dict(doc: dict) -> builder.DesignProblem:
    _require_keys(doc, _TOP_KEYS, "top level")

    subscribers = []
    for i, entry in enumerate(_as_list(doc["subscribers"], "subscribers")):
        _require_keys(entry, _SUBSCRIBER_KEYS, "subscribers[{}]", i)
        sid = _as_id(entry["id"], "subscribers[{}]", i)
        sessions = []
        for j, vol in enumerate(_as_list(entry["sessions"], "subscribers[{}].sessions", i)):
            v = _as_number(vol, "subscribers[{}].sessions[{}]", i, j)
            if v < 0:
                raise ProblemFormatError(
                    f"subscribers[{i}].sessions[{j}]: volume must be >= 0")
            sessions.append(builder.Session(subscriber=sid, volume=v))
        subscribers.append(builder.Subscriber(id=sid, sessions=sessions))

    servers = []
    for i, entry in enumerate(_as_list(doc["servers"], "servers")):
        _require_keys(entry, _SERVER_KEYS, "servers[{}]", i)
        p = _as_number(entry["productivity"], "servers[{}].productivity", i)
        if p < 0:
            raise ProblemFormatError(f"servers[{i}].productivity: must be >= 0")
        servers.append(builder.Server(id=_as_id(entry["id"], "servers[{}]", i),
                                      productivity=p))

    _require_keys(doc["service"], _SERVER_KEYS, "service")
    service_id = _as_id(doc["service"]["id"], "service")
    service_p = _as_number(doc["service"]["productivity"], "service.productivity")

    intermediates = []
    for i, entry in enumerate(_as_list(doc.get("intermediate", []), "intermediate")):
        _require_keys(entry, _INTERMEDIATE_KEYS, "intermediate[{}]", i)
        intermediates.append(_as_id(entry["id"], "intermediate[{}]", i))

    channels = []
    for i, entry in enumerate(_as_list(doc["channels"], "channels")):
        _require_keys(entry, _CHANNEL_KEYS, "channels[{}]", i)
        cid = _as_id(entry["id"], "channels[{}]", i)
        ends = entry["ends"]
        if (not isinstance(ends, list) or len(ends) != 2
                or not isinstance(ends[0], str) or not isinstance(ends[1], str)):
            raise ProblemFormatError(f"channel {cid}: ends must be a pair of ids")
        capacity = entry["capacity"]
        if capacity != math.inf:  # Infinity: an unbounded channel
            capacity = _as_number(capacity, "channel {}: capacity", cid)
        if capacity <= 0:
            raise ProblemFormatError(f"channel {cid}: capacity must be positive")
        cost = _as_number(entry.get("cost", 1.0), "channel {}: cost", cid)
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


def solution_to_dict(rep: report.ProjectReport, per_edge_flow: dict) -> dict:
    """The solution document: the report plus every edge flow above
    ``FLOW_EPS``.  Every other outcome of a solve raises before a
    document is made, so the status is always ``"optimal"``."""
    return {
        "status": "optimal",
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
        "per_edge_flow": {
            name: v for name, v in sorted(
                ((_edge_key_str(k), v) for k, v in per_edge_flow.items()),
                key=itemgetter(0))
            if v > design.FLOW_EPS},
    }


def _json_text(value, indent: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` byte for byte, for a
    value that starts on a line indented by ``indent``: dicts with string
    keys (another key raises ``TypeError``), lists, tuples, strings,
    numbers, bools and None.  Strings and finite floats, the bulk of a
    solution document, are spelled inside the container loops, with no
    call of their own."""
    cls = type(value)
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is float and value - value == 0.0:  # finite
        return float.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        parts = []
        for key, item in sorted(value.items()):
            cls = type(item)
            if cls is str:
                text = encode_basestring_ascii(item)
            elif cls is float and item - item == 0.0:
                text = float.__repr__(item)
            else:
                text = _json_text(item, inner)
            parts.append(encode_basestring_ascii(key) + ": " + text)
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        parts = []
        for item in value:
            cls = type(item)
            if cls is str:
                parts.append(encode_basestring_ascii(item))
            elif cls is float and item - item == 0.0:
                parts.append(float.__repr__(item))
            else:
                parts.append(_json_text(item, inner))
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_solution(doc: dict, path: Optional[str]) -> None:
    """Deterministic serialization: sorted keys, stable list order.  The
    text is ``json.dumps(doc, sort_keys=True, indent=2)`` byte for byte,
    plus a newline, written in one pass by :func:`_json_text` (``json``
    takes its pure-Python encoder whenever it indents)."""
    text = _json_text(doc, "") + "\n"
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


def _dot_node(layer: int, node: str) -> str:
    """The quoted DOT id ``"<layer>:<node>"``, each ``"`` escaped as ``\\"``."""
    if node.endswith("\\"):
        raise ProblemFormatError(f"node id {node!r} ends in a backslash, which would "
                                 "escape the closing quote of its DOT id")
    return '"' + f"{layer}:{node}".replace('"', '\\"') + '"'


def export_dot(graph: mlg.MultiLayerGraph, path: Optional[str] = None) -> str:
    """Graphviz document: one cluster per layer, intra edges solid,
    inter edges dashed, labels capacity (``inf`` when unbounded).

    Each node is the quoted id ``"<layer>:<node id>"``.  A ``"`` in a node
    id is written ``\\"``, DOT's one escape inside quoted ids; every other
    character is written as it is.  An id that ends in a backslash cannot
    be written, since that backslash would escape the closing quote: it
    raises ``ProblemFormatError``, and no file is written."""
    lines = ["graph mlg {"]
    for layer in range(1, graph.layer_count + 1):
        lines.append(f'  subgraph cluster_layer_{layer} {{')
        lines.append(f'    label="layer_{layer}";')
        for node in graph.nodes(layer):
            lines.append(f'    {_dot_node(layer, node)};')
        for edge in graph.intra_edges(layer):
            a, b = edge.ends
            lines.append(
                f'    {_dot_node(layer, a)} -- {_dot_node(layer, b)} '
                f'[label="{_fmt_cap(edge.capacity)}"];')
        lines.append("  }")
    for edge in graph.inter_edges():
        u, l = edge.upper, edge.lower
        lines.append(
            f'  {_dot_node(u.layer, u.id)} -- {_dot_node(l.layer, l.id)} '
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

@functools.cache  # built on first use, not at import, and reused by every call
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
    p_solve.add_argument("--k", type=int, default=None,
                         help="accepted for compatibility and has no effect: link-path "
                              "prices every layer-1 path (link-path only; >= 1)")
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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProblemFormatError(f"cannot read fixed costs {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("fixed costs file must be a JSON object")
    out = {}
    for ch, value in doc.items():
        if ch not in instance.channel_edges:
            raise ProblemFormatError(f"fixed costs: unknown channel {ch!r}")
        out[ch] = _as_number(value, "fixed cost for {}", ch)
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
            instance, fixed, formulation=args.formulation,
            single_homing=args.single_homing)
    else:
        solution = design.solve_capacitated(
            instance, formulation=args.formulation,
            single_homing=args.single_homing)
    return _write_report(solution, instance, args.output)


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
    return _write_report(solution, instance, args.output)


def _write_report(solution: design.DesignSolution, instance: builder.BuiltInstance,
                  output: Optional[str]) -> int:
    rep = report.render_report(solution, instance)
    write_solution(solution_to_dict(rep, solution.edge_flows), output)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        if args.k is not None and args.formulation != "link-path":
            parser.error("argument --k: only with --formulation link-path")
        if args.k is not None and args.k < 1:
            parser.error(f"argument --k: must be >= 1, got {args.k}")
    if getattr(args, "fixed_costs", None) is not None and args.mode != "uncapacitated":
        parser.error("argument --fixed-costs: only with --mode uncapacitated")
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
