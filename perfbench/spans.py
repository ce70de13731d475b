"""Per-layer spans, recorded from outside the package.

``Tracer.installed()`` replaces each public function listed in ``TARGETS``
at the module attribute where its callers look it up (``design`` calls
its own imported ``simplex_solve``, ``branch_and_bound`` calls the one in
``lp``, the CLI calls ``report.render_report``, and so on) and puts the
originals back on exit.  Nothing under ``src/`` is edited.  Counts come
only from public arguments and return values: the ``LinearProgram``
passed to ``simplex_solve``, the ``LpSolution`` it returns, and the
length of the path list ``enumerate_candidate_paths`` returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    trace: int = 0  # id of the root span, shared by every span of one case
    attrs: dict = field(default_factory=dict)


def _lp_attrs(args, kwargs, result) -> dict:
    lp = args[0] if args else kwargs["lp"]
    return {"rows": len(lp.constraints), "cols": len(lp.variables),
            "nnz": sum(len(con.coeffs) for con in lp.constraints),
            "pivots": result.iterations, "status": result.status}


def _paths_attrs(args, kwargs, result) -> dict:
    return {"paths": len(result)}


# (module, attribute looked up by callers, span name, counter)
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("cli", "parse_problem", "cli.parse_problem", None),
    ("builder", "build_redundant_mlg", "builder.build_redundant_mlg", None),
    ("mlg", "validate_overlay", "mlg.validate_overlay", None),
    ("design", "solve_capacitated", "design.solve_capacitated", None),
    ("design", "solve_uncapacitated", "design.solve_uncapacitated", None),
    ("design", "enumerate_candidate_paths", "design.enumerate_candidate_paths", _paths_attrs),
    ("design", "formulate_node_link", "design.formulate_node_link", None),
    ("design", "formulate_link_path", "design.formulate_link_path", None),
    ("design", "simplex_solve", "lp.simplex_solve", _lp_attrs),
    ("lp", "simplex_solve", "lp.simplex_solve", _lp_attrs),
    ("design", "branch_and_bound", "lp.branch_and_bound", None),
    ("lp", "branch_and_bound", "lp.branch_and_bound", None),
    ("report", "render_report", "report.render_report", None),
    ("report", "check_conservation", "flows.check_conservation", None),
    ("report", "check_capacities", "flows.check_capacities", None),
    ("cli", "solution_to_dict", "cli.solution_to_dict", None),
    ("cli", "write_solution", "cli.write_solution", None),
]


class Tracer:
    """Spans kept in memory, nested by call order on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        span = Span(id=sid, name=name, start=time.perf_counter(),
                    parent=parent.id if parent else None,
                    trace=parent.trace if parent else sid)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.remove(span)

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(s)
            if counter is not None:
                s.attrs.update(counter(args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(f"mlgdesign.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# self time of these spans adds to each per-layer time metric
TIME_METRICS = {
    "lp.simplex_s": ("lp.simplex_solve",),
    "lp.bnb_self_s": ("lp.branch_and_bound",),
    "design.enumerate_s": ("design.enumerate_candidate_paths",),
    "mlg.validate_s": ("mlg.validate_overlay",),
    "design.formulate_s": ("design.formulate_node_link", "design.formulate_link_path"),
    "design.self_s": ("design.solve_capacitated", "design.solve_uncapacitated"),
    "cli.parse_s": ("cli.parse_problem",),
    "builder.build_s": ("builder.build_redundant_mlg",),
    "report.render_s": ("report.render_report",),
    "flows.check_s": ("flows.check_conservation", "flows.check_capacities"),
    "cli.write_s": ("cli.solution_to_dict", "cli.write_solution"),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over ``spans``: self times in seconds, counts, the
    largest LP posed, and the mean time per simplex pivot."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {metric: float(sum(own[s.id] for n in names for s in by_name.get(n, ())))
           for metric, names in TIME_METRICS.items()}
    simplex = by_name.get("lp.simplex_solve", [])
    bnb_ids = {s.id for s in by_name.get("lp.branch_and_bound", ())}
    nodes = [s for s in simplex if s.parent in bnb_ids]
    out["lp.simplex_calls"] = len(simplex)
    out["lp.pivots"] = sum(s.attrs.get("pivots", 0) for s in simplex)
    out["lp.pivot_us"] = (1e6 * out["lp.simplex_s"] / out["lp.pivots"]
                          if out["lp.pivots"] else 0.0)
    for key in ("rows", "cols", "nnz"):
        out[f"lp.{key}"] = max((s.attrs.get(key, 0) for s in simplex), default=0)
    out["lp.bnb_nodes"] = len(nodes)
    out["lp.bnb_nodes_infeasible"] = sum(1 for s in nodes if s.attrs.get("status") == "Infeasible")
    out["design.paths"] = sum(s.attrs.get("paths", 0)
                              for s in by_name.get("design.enumerate_candidate_paths", ()))
    return out
