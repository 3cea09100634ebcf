"""The SLO engine: declarative objectives, multi-window burn-rate alerts,
exemplar links, and merge-order-independent window verdicts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.collector import TraceCollector
from repro.observability.metrics import MetricsRegistry, RedSeries
from repro.observability.slo import (
    SLO,
    BurnRatePair,
    SloEngine,
    default_pairs,
    default_slos,
)
from repro.transport.clock import SimClock


def _engine(collector=None, **kwargs):
    clock = SimClock()
    metrics = MetricsRegistry()
    engine = SloEngine(clock, metrics, collector=collector, **kwargs)
    return clock, metrics, engine


AVAIL = SLO(
    "submit-availability", service="Job", method="submit",
    objective="availability", window=12.0, budget=0.1,
)
LAT = SLO(
    "submit-latency", service="Job", method="submit",
    objective="latency", threshold=4.096, window=12.0, budget=0.1,
)


class TestSloDefinition:
    def test_window_and_budget_are_required(self):
        with pytest.raises(TypeError):
            SLO("x", service="S", method="m")  # no window/budget

    def test_validation(self):
        with pytest.raises(ValueError):
            SLO("x", service="S", method="m", objective="vibes",
                window=1.0, budget=0.1)
        with pytest.raises(ValueError):
            SLO("x", service="S", method="m", window=0.0, budget=0.1)
        with pytest.raises(ValueError):
            SLO("x", service="S", method="m", window=1.0, budget=1.5)

    def test_target_is_the_complement_of_the_budget(self):
        assert AVAIL.target == pytest.approx(0.9)

    def test_default_pairs_scale_with_the_window(self):
        fast_page, slow_ticket = default_pairs(12.0)
        assert fast_page == BurnRatePair(slow=4.0, fast=1.0, factor=6.0)
        assert slow_ticket == BurnRatePair(slow=12.0, fast=3.0, factor=2.0)

    def test_duplicate_definition_is_rejected(self):
        _, _, engine = _engine()
        engine.define(AVAIL)
        with pytest.raises(ValueError):
            engine.define(AVAIL)

    def test_default_slos_cover_the_submission_path(self):
        slos = default_slos()
        assert {s.objective for s in slos} == {"availability", "latency"}
        assert all(s.window > 0 and 0 < s.budget < 1 for s in slos)


class TestBurnRateAlerting:
    def _tick(self, clock, engine, series, good=0, bad=0):
        clock.advance(1.0)
        for _ in range(good):
            series.record(0.001, False)
        for _ in range(bad):
            series.record(0.001, True)
        return engine.evaluate()

    def test_alert_fires_when_both_windows_burn(self):
        clock, metrics, engine = _engine()
        engine.define(AVAIL)
        series = metrics.series("Job", "submit", "server")
        active = self._tick(clock, engine, series, good=1)
        assert active == []
        active = self._tick(clock, engine, series, bad=3)
        assert len(active) == 1
        alert = active[0]
        assert alert["slo"] == "submit-availability"
        assert alert["slow_burn"] >= alert["factor"]
        assert alert["fast_burn"] >= alert["factor"]
        assert engine.alert_log[-1]["state"] == "firing"

    def test_alert_resolves_when_the_fast_window_drains(self):
        clock, metrics, engine = _engine()
        engine.define(AVAIL)
        series = metrics.series("Job", "submit", "server")
        self._tick(clock, engine, series, bad=3)
        assert engine.active
        while engine.active:
            self._tick(clock, engine, series, good=2)
        log = engine.alerts(active_only=False)
        assert [entry["state"] for entry in log] == ["firing", "resolved"]
        assert log[1]["duration"] > 0

    def test_a_healthy_service_never_alerts(self):
        clock, metrics, engine = _engine()
        engine.define(AVAIL)
        series = metrics.series("Job", "submit", "server")
        for _ in range(20):
            assert self._tick(clock, engine, series, good=5) == []
        assert engine.alert_log == []

    def test_min_requests_gates_the_windows(self):
        clock, metrics, engine = _engine(min_requests=10)
        engine.define(AVAIL)
        series = metrics.series("Job", "submit", "server")
        # 3 bad requests is a 100% error rate, but too few to page on
        assert self._tick(clock, engine, series, bad=3) == []

    def test_latency_objective_counts_slow_requests_as_bad(self):
        clock, metrics, engine = _engine()
        engine.define(LAT)
        series = metrics.series("Job", "submit", "server")
        clock.advance(1.0)
        for _ in range(2):
            series.record(10.0, False)  # slow but successful
        active = engine.evaluate()
        assert len(active) == 1
        assert active[0]["objective"] == "latency"

    def test_window_totals_slide(self):
        clock, metrics, engine = _engine()
        engine.define(AVAIL)
        series = metrics.series("Job", "submit", "server")
        self._tick(clock, engine, series, good=4)
        assert engine.window_totals("submit-availability", 12.0) == (4, 0)
        for _ in range(13):
            self._tick(clock, engine, series)
        assert engine.window_totals("submit-availability", 12.0) == (0, 0)

    def test_burn_rate_of_exactly_budget_is_one(self):
        clock, metrics, engine = _engine()
        engine.define(AVAIL)
        series = metrics.series("Job", "submit", "server")
        self._tick(clock, engine, series, good=9, bad=1)  # 10% = the budget
        assert engine.burn_rate("submit-availability", 12.0) == pytest.approx(1.0)


class TestExemplars:
    def _span(self, trace_id, *, error="", duration=0.001, start=0.0):
        return {
            "trace_id": trace_id, "span_id": f"s{trace_id[:8]}",
            "parent_id": "", "name": "submit", "kind": "server",
            "service": "Job", "host": "h", "start": start,
            "end": start + duration,
            "error": error, "attributes": {}, "events": [],
        }

    def test_fired_alert_links_matching_error_traces(self):
        collector = TraceCollector()
        clock, metrics, engine = _engine(collector=collector)
        engine.define(AVAIL)
        series = metrics.series("Job", "submit", "server")
        collector.export(self._span("a" * 32, error="Portal.Invalid"))
        collector.export(self._span("b" * 32))  # healthy: not an exemplar
        clock.advance(1.0)
        series.record(0.001, True)
        active = engine.evaluate()
        assert active[0]["exemplars"] == ["a" * 32]
        assert engine.exemplars_for("submit-availability") == ["a" * 32]

    def test_latency_exemplars_are_the_slow_traces(self):
        collector = TraceCollector()
        clock, metrics, engine = _engine(collector=collector)
        engine.define(LAT)
        collector.export(self._span("c" * 32, duration=9.0))
        # starts when the slow span ends: host h's clock never runs back
        collector.export(self._span("d" * 32, duration=0.001, start=9.0))
        assert engine.exemplars_for("submit-latency") == ["c" * 32]

    def test_exemplars_are_bounded_and_newest_first(self):
        collector = TraceCollector()
        clock, metrics, engine = _engine(collector=collector, max_exemplars=2)
        engine.define(AVAIL)
        for i in range(5):
            collector.export(self._span(f"{i:032x}", error="Portal.Invalid"))
        assert engine.exemplars_for("submit-availability") == [
            f"{4:032x}", f"{3:032x}"
        ]


class TestViews:
    def test_summary_rows_are_sorted_and_complete(self):
        clock, metrics, engine = _engine()
        engine.define(LAT)
        engine.define(AVAIL)
        series = metrics.series("Job", "submit", "server")
        clock.advance(1.0)
        series.record(0.001, False)
        engine.evaluate()
        rows = engine.slo_summary()
        assert [r["slo"] for r in rows] == [
            "submit-availability", "submit-latency"
        ]
        row = rows[0]
        assert row["state"] == "ok" and row["requests"] == 1
        assert row["target"] == pytest.approx(0.9)
        assert row["good_fraction"] == pytest.approx(1.0)


# -- merge-order independence (the ISSUE's hypothesis property) ---------------

samples = st.lists(
    st.tuples(
        st.floats(min_value=1e-4, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


@given(data=samples, order=st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_merge_order_never_changes_slo_verdicts(data, order):
    """Shard the same traffic arbitrarily, merge the shards in any order:
    every SLO verdict — burn rates, firing pair, summary — is identical."""
    shards = [RedSeries() for _ in range(4)]
    for index, (duration, error) in enumerate(data):
        shards[index % 4].record(duration, error)

    def verdicts(shard_order) -> tuple:
        merged = RedSeries()
        for shard in shard_order:
            merged.merge(shard)
        clock = SimClock()
        metrics = MetricsRegistry()
        metrics.red[("Job", "submit", "server")] = merged
        engine = SloEngine(clock, metrics)
        engine.define(AVAIL)
        engine.define(LAT)
        clock.advance(1.0)
        engine.evaluate()
        return (
            engine.burn_rate("submit-availability", 12.0),
            engine.burn_rate("submit-latency", 12.0),
            engine.firing_pair("submit-availability"),
            engine.firing_pair("submit-latency"),
            tuple(tuple(sorted(row.items())) for row in engine.slo_summary()),
        )

    shuffled = list(shards)
    order.shuffle(shuffled)
    assert verdicts(shards) == verdicts(shuffled)
