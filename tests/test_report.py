import math

import pytest

from mlgdesign import ChannelUse, render_report, solve_capacitated


@pytest.fixture
def t1_solution(t1_instance):
    return solve_capacitated(t1_instance)


class TestChannelUse:
    def test_utilization(self):
        assert ChannelUse("b1", 3.0, 10.0).utilization == pytest.approx(0.3)

    def test_unbounded_capacity(self):
        assert ChannelUse("b1", 3.0, math.inf).utilization == 0.0

    def test_zero_capacity(self):
        assert ChannelUse("b1", 0.0, 0.0).utilization == 0.0


class TestRenderReport:
    def test_t1_report(self, t1_solution, t1_instance):
        report = render_report(t1_solution, t1_instance)
        assert report.objective == pytest.approx(14.0, abs=1e-6)
        use = {c.channel: c.utilization for c in report.selected_channels}
        assert use["b1"] == pytest.approx(0.3, abs=1e-6)
        assert use["b2"] == pytest.approx(0.4, abs=1e-6)
        assert report.validation == {"conservation_ok": True,
                                     "capacities_ok": True}

    def test_routes_round_trip(self, t1_solution, t1_instance):
        report = render_report(t1_solution, t1_instance)
        assert report.routes == t1_solution.routes
        again = render_report(t1_solution, t1_instance)
        assert again.routes == report.routes
        assert [c.channel for c in again.selected_channels] == \
            [c.channel for c in report.selected_channels]
