"""The chaos monkey's unified event queue: seeded total order, injectable
primitives, deterministic same-tick tie-breaking, effects that end."""

from __future__ import annotations

import json
import random

from repro.resilience.chaos import ChaosHarness, ChaosMonkey
from repro.resilience.events import ResilienceLog
from repro.simtest.nemesis import (
    BreakerFlapNemesis,
    CrashNemesis,
    FlapNemesis,
    LatencySpikeNemesis,
    NemesisEvent,
    compose,
)
from repro.transport.http import HttpRequest, HttpResponse, Url
from repro.transport.network import VirtualNetwork

HOSTS = ["a.example.org", "b.example.org", "c.example.org"]

#: p_take_down 0.04, p_fault_burst 0.08, p_latency_spike 0.06 and p_flap
#: 0.02 per host over three hosts, as gap ranges (see test_chaos.py)
MIX = compose(
    CrashNemesis(tuple(HOSTS), every=(4.17, 12.5), outage=(2.0, 15.0)),
    BreakerFlapNemesis(tuple(HOSTS), every=(2.08, 6.25), size=(1, 3)),
    LatencySpikeNemesis(tuple(HOSTS), every=(2.78, 8.33), magnitude=(0.5, 3.0)),
    FlapNemesis(tuple(HOSTS), every=(8.33, 25.0), phases=(1.0, 4.0),
                duration=(2.0, 15.0)),
)


def _echo(request: HttpRequest) -> HttpResponse:
    return HttpResponse(200, body=request.body)


def _monkey(seed: int, **kwargs):
    network = VirtualNetwork(seed=seed)
    for host in HOSTS:
        network.register(host, _echo)
    log = ResilienceLog()
    return network, ChaosMonkey(network, HOSTS, log=log, **kwargs), log


def _run_schedule(seed: int, steps: int = 40):
    """Drive the monkey through the mix's schedule for *seed*; returns the
    full pending-event trace (captured at each step) as canonical JSON."""
    network, monkey, log = _monkey(
        seed, regions={"iu": (HOSTS[0],), "sdsc": (HOSTS[1], HOSTS[2])}
    )
    trace = []

    def step(index: int) -> None:
        trace.append([
            [due, event_id, action, repr(payload)]
            for due, event_id, action, payload in monkey.pending_events()
        ])
        network.clock.advance(1.0)

    ChaosHarness(monkey).run(step, MIX.schedule(seed, steps), steps)
    trace.append([[r.code, r.message] for r in log.events])
    return json.dumps(trace, sort_keys=True)


def test_same_seed_same_schedule_byte_identical():
    """The pending-event queue — ids, due times, actions, application
    order — is byte-identical for the same seed."""
    assert _run_schedule(11) == _run_schedule(11)


def test_different_seeds_produce_different_schedules():
    assert _run_schedule(11) != _run_schedule(12)


def test_event_ids_give_same_tick_events_a_total_order():
    network, monkey, _ = _monkey(0)
    # three effects all due at the same virtual instant
    monkey.inject_take_down(HOSTS[0], 5.0)
    monkey.inject_take_down(HOSTS[1], 5.0)
    monkey.inject_take_down(HOSTS[2], 5.0)
    pending = monkey.pending_events()
    assert [event_id for _, event_id, _, _ in pending] == [1, 2, 3]
    dues = {due for due, _, _, _ in pending}
    assert len(dues) == 1  # genuinely the same tick: only ids break the tie


def test_apply_due_applies_in_id_order_at_the_same_tick():
    network, monkey, log = _monkey(0)
    monkey.inject_take_down(HOSTS[2], 3.0)
    monkey.inject_take_down(HOSTS[0], 3.0)
    network.clock.advance(10.0)
    monkey.apply_due()
    repairs = [r for r in log.events if r.code == "Chaos.Repair"]
    hosts = [r.detail["host"] for r in repairs]
    # scheduling order (ids 1, 2), not alphabetical or insertion-sorted
    assert hosts == [HOSTS[2], HOSTS[0]]
    assert network.is_up(HOSTS[0]) and network.is_up(HOSTS[2])


def test_primitives_feed_the_same_queue():
    network, monkey, _ = _monkey(
        0, regions={"iu": (HOSTS[0],), "sdsc": (HOSTS[1],)},
    )
    monkey.inject_take_down(HOSTS[0], 2.0)
    monkey.inject_partition("iu", "sdsc", "full", 4.0)
    monkey.inject_latency_spike(HOSTS[1], 0.5, 3.0)
    monkey.inject_disk_full(HOSTS[2], 1.0)
    assert network.active_partitions()
    assert network.disk(HOSTS[2]).full
    actions = [action for _, _, action, _ in monkey.pending_events()]
    assert actions == ["free-disk", "repair", "end-spike", "heal-partition"]
    network.clock.advance(5.0)
    monkey.apply_due()
    assert monkey.pending_events() == []
    assert not network.active_partitions()
    assert not network.disk(HOSTS[2]).full


def _request_seconds(network: VirtualNetwork, host: str) -> float:
    started = network.clock.now
    network.send(HttpRequest("GET", Url(host, "/")), new_connection=False)
    return network.clock.now - started


def test_latency_spike_ends_after_its_duration():
    network, monkey, _ = _monkey(0)
    host = HOSTS[0]
    baseline = _request_seconds(network, host)
    nemesis = LatencySpikeNemesis((host,), every=(1.0, 2.0))
    [(t, kind, args)] = nemesis.generate(random.Random(3), 2)
    low, high = LatencySpikeNemesis.duration
    assert low <= args["duration"] <= high
    monkey.apply(NemesisEvent(t=t, id=1, kind=kind, args=args))
    assert _request_seconds(network, host) >= baseline + args["magnitude"]
    network.clock.advance(args["duration"])
    monkey.apply_due()
    assert _request_seconds(network, host) < baseline + args["magnitude"]
    assert monkey.pending_events() == []
