"""Interprets an optimal design solution as a project solution report:
selected channels with utilizations, subscriber-to-server assignment,
routes, and a revalidation summary.  Channels, assignment and routes are
read from the :class:`DesignSolution` as it was assembled."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .builder import BuiltInstance
from .design import DesignSolution
from .flows import check_capacities, check_conservation


@dataclass
class ChannelUse:
    channel: str
    flow: float
    capacity: float

    @property
    def utilization(self) -> float:
        if not math.isfinite(self.capacity) or self.capacity == 0:
            return 0.0
        return self.flow / self.capacity


@dataclass
class ProjectReport:
    objective: float
    selected_channels: list[ChannelUse]
    assignments: dict[str, list[tuple[str, float]]]
    routes: dict[str, list[tuple[tuple[str, ...], float]]]
    validation: dict[str, bool] = field(default_factory=dict)


def render_report(solution: DesignSolution, instance: BuiltInstance) -> ProjectReport:
    channels = []
    for ch_id in solution.selected_channels:
        edge = instance.channel_edges[ch_id]
        channels.append(ChannelUse(channel=ch_id,
                                   flow=solution.edge_flows.get(edge.key, 0.0),
                                   capacity=edge.capacity))
    conservation = check_conservation(instance.graph, solution.flow_assignment,
                                      instance.commodities)
    capacities = check_capacities(instance.graph, solution.flow_assignment)
    return ProjectReport(
        objective=solution.objective,
        selected_channels=channels,
        assignments=solution.assignment,
        routes=solution.routes,
        validation={"conservation_ok": conservation.ok,
                    "capacities_ok": capacities.ok},
    )
