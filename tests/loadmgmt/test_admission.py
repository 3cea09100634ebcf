"""Admission-controller tests: the three gates, retry hints, disabled-mode
accounting, and weight-proportional fair shares under sustained overload."""

import pytest

from repro.faults import ServerBusyError
from repro.loadmgmt import AdmissionController, LaneConfig
from repro.resilience import events
from repro.resilience.events import ResilienceLog
from repro.transport.clock import SimClock


def test_bulkhead_refuses_when_full_and_release_frees_a_slot():
    clock = SimClock()
    controller = AdmissionController(clock, capacity=100.0, max_concurrent=1)
    ticket = controller.admit("alice")
    with pytest.raises(ServerBusyError) as excinfo:
        controller.admit("bob")
    assert excinfo.value.detail["reason"] == "bulkhead"
    assert excinfo.value.retryable
    controller.release(ticket)
    controller.release(ticket)  # idempotent
    assert controller.in_flight == 0
    controller.admit("bob")


def test_queue_gate_sheds_beyond_max_wait_with_a_retry_hint():
    clock = SimClock()
    # capacity 1/s -> each admitted request charges 1 virtual second
    controller = AdmissionController(clock, capacity=1.0, max_wait=2.0)
    waits = [controller.admit("u").queue_wait for _ in range(3)]
    assert waits == [pytest.approx(0.0), pytest.approx(1.0), pytest.approx(2.0)]
    with pytest.raises(ServerBusyError) as excinfo:
        controller.admit("u")
    err = excinfo.value
    assert err.detail["reason"] == "queue"
    # the computed wait would be 3s, 1s over budget
    assert err.retry_after == pytest.approx(1.0)
    # the refused request's charge was withdrawn: the same arrival retried
    # after the hint is admitted
    clock.advance(1.001)
    controller.admit("u")


def test_retry_hint_is_never_below_one_service_time():
    clock = SimClock()
    controller = AdmissionController(
        clock, capacity=10.0, rate=1.0, burst=1.0, max_wait=50.0
    )
    controller.admit("u")
    with pytest.raises(ServerBusyError) as excinfo:
        controller.admit("u")
    assert excinfo.value.detail["reason"] == "rate"
    assert excinfo.value.retry_after >= 1.0 / 10.0


def test_backlog_drains_at_capacity():
    clock = SimClock()
    controller = AdmissionController(clock, capacity=2.0, max_wait=10.0)
    for _ in range(6):
        controller.admit("u")
    assert controller.backlog_wait() == pytest.approx(3.0)
    clock.advance(1.5)
    assert controller.backlog_wait() == pytest.approx(1.5)
    clock.advance(10.0)
    assert controller.backlog_wait() == pytest.approx(0.0)


def test_disabled_controller_accounts_but_never_sheds():
    clock = SimClock()
    controller = AdmissionController(
        clock, capacity=1.0, max_wait=0.5, max_concurrent=1, enabled=False
    )
    tickets = [controller.admit("u") for _ in range(5)]
    assert controller.shed == 0
    assert controller.arrived == controller.admitted == 5
    # the capacity model still runs: waits grow past max_wait honestly
    assert tickets[-1].queue_wait == pytest.approx(4.0)
    assert controller.in_flight == 5  # bulkhead ignored but tracked


def test_shed_and_queue_wait_events_reach_the_resilience_log():
    clock = SimClock()
    log = ResilienceLog()
    controller = AdmissionController(
        clock, capacity=1.0, max_wait=1.0, service="Echo", log=log
    )
    controller.admit("alice")
    controller.admit("alice")  # waits 1s -> QUEUE_WAIT event
    with pytest.raises(ServerBusyError):
        controller.admit("alice")
    codes = [event.code for event in log.events]
    assert events.QUEUE_WAIT in codes
    assert events.BUSY in codes
    busy = next(e for e in log.events if e.code == events.BUSY)
    assert busy.service == "Echo"
    assert busy.detail["principal"] == "alice"
    assert float(busy.detail["retryAfter"]) > 0


def test_overload_shares_track_lane_weights():
    """Three principals hammering at 9x capacity: admitted counts split by
    weight (3:2:1), and goodput stays pinned at the modelled capacity."""
    clock = SimClock()
    controller = AdmissionController(
        clock,
        capacity=10.0,
        max_wait=2.0,
        lanes={
            "alice": LaneConfig(weight=3.0),
            "bob": LaneConfig(weight=2.0),
            "carol": LaneConfig(weight=1.0),
        },
    )
    duration = 50.0
    step = 1.0 / 30.0  # each principal offers 30/s vs capacity 10/s
    while clock.now < duration:
        for principal in ("alice", "bob", "carol"):
            try:
                controller.release(controller.admit(principal))
            except ServerBusyError:
                pass
        clock.advance(step)
    stats = controller.lane_stats
    total = sum(s.admitted for s in stats.values())
    assert total / duration == pytest.approx(controller.capacity, rel=0.1)
    for principal, weight in (("alice", 3.0), ("bob", 2.0), ("carol", 1.0)):
        share = stats[principal].admitted / total
        assert share == pytest.approx(weight / 6.0, rel=0.15), principal


def test_parameter_validation():
    with pytest.raises(ValueError):
        AdmissionController(SimClock(), capacity=0.0)
    with pytest.raises(ValueError):
        AdmissionController(SimClock(), capacity=1.0, max_wait=0.0)
    with pytest.raises(ValueError):
        AdmissionController(SimClock(), capacity=1.0, max_concurrent=0)


def test_lane_rows_and_summary_shapes():
    clock = SimClock()
    controller = AdmissionController(clock, capacity=5.0, service="Echo")
    controller.admit("alice")
    with_wait = controller.admit("alice")
    rows = controller.lane_rows()
    assert [row["lane"] for row in rows] == ["alice"]
    assert rows[0]["service"] == "Echo"
    assert rows[0]["admitted"] == 2
    assert rows[0]["max_wait"] == pytest.approx(with_wait.queue_wait)
    summary = controller.summary()
    assert summary["arrived"] == 2 and summary["shed"] == 0
    assert summary["enabled"] is True
