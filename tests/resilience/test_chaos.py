"""Chaos runs replay their nemesis schedule deterministically and are mostly
absorbed by the resilience layer.  The acceptance criterion: two runs of
the same schedule produce *identical* ErrorReport streams.

Each mix's nemesis gaps keep the fault rates of the per-host, per-step
probabilities it replaces: a probability ``p`` over ``h`` hosts is a mean
gap of ``m = 1 / (p * h)`` iterations, drawn uniformly from
``(m / 2, 3 * m / 2)`` (rounded to two decimals).  A partition was drawn once per step, at most one
cut at a time: its gap starts at the longest cut and adds ``1 / p`` on
average, ``(longest, longest + 2 / p)``.
"""

from __future__ import annotations

import pytest

from repro.resilience.breaker import CircuitBreakerPolicy
from repro.resilience.chaos import (
    PARTITION,
    PARTITION_HEAL,
    ChaosHarness,
    ChaosMonkey,
)
from repro.resilience.events import ResilienceLog
from repro.resilience.failover import FailoverClient
from repro.resilience.policy import RetryPolicy
from repro.services.batchscript import (
    BSG_NAMESPACE,
    IuBatchScriptGenerator,
    SdscBatchScriptGenerator,
    deploy_batch_script_generator,
)
from repro.simtest import nemesis as nem
from repro.simtest.nemesis import (
    BreakerFlapNemesis,
    CrashNemesis,
    FlapNemesis,
    LatencySpikeNemesis,
    NemesisEvent,
    NemesisSchedule,
    PartitionNemesis,
    compose,
)
from repro.transport.network import VirtualNetwork

HOSTS = ("bsg.iu.edu", "bsg.sdsc.edu")

#: p_take_down 0.04, p_fault_burst 0.08, p_latency_spike 0.06 and p_flap
#: 0.02 per host, over both hosts
DEFAULT_MIX = compose(
    CrashNemesis(HOSTS, every=(6.25, 18.75), outage=(2.0, 15.0)),
    BreakerFlapNemesis(HOSTS, every=(3.125, 9.375), size=(1, 3)),
    LatencySpikeNemesis(HOSTS, every=(4.17, 12.5), magnitude=(0.5, 3.0)),
    FlapNemesis(HOSTS, every=(12.5, 37.5), phases=(1.0, 4.0),
                duration=(2.0, 15.0)),
)


def run_chaos(seed: int, iterations: int, mix=DEFAULT_MIX, *, schedule=None,
              regions=None):
    """One complete, self-contained chaos run (fresh network every time)
    under *schedule*, by default *mix*'s schedule for *seed*."""
    network = VirtualNetwork(seed=seed)
    endpoints = [
        deploy_batch_script_generator(network, IuBatchScriptGenerator(),
                                      HOSTS[0])[0],
        deploy_batch_script_generator(network, SdscBatchScriptGenerator(),
                                      HOSTS[1])[0],
    ]
    log = ResilienceLog()
    client = FailoverClient(
        network, endpoints, BSG_NAMESPACE,
        sticky=False, rounds=3,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.1, jitter=0.1),
        # the threshold sits above the largest fault burst (3), so the
        # breaker only trips on real outages, and the short cooldown lets
        # probes rediscover repaired hosts quickly
        breaker_policy=CircuitBreakerPolicy(failure_threshold=5, cooldown=2.0),
        resilience_log=log,
        retry_seed=seed,
    )
    monkey = ChaosMonkey(network, list(HOSTS), log=log, regions=regions)

    def workload(index: int) -> None:
        if index % 3 == 0:
            client.call("listSchedulers")
        elif index % 3 == 1:
            client.call("supportsScheduler", "LSF")
        else:
            client.call("supportsScheduler", "PBS")

    if schedule is None:
        schedule = mix.schedule(seed, iterations)
    return ChaosHarness(monkey).run(workload, schedule, iterations)


def test_fixed_seed_is_deterministic():
    first = run_chaos(seed=42, iterations=60)
    second = run_chaos(seed=42, iterations=60)
    # the full event streams — injected faults, retries, breaker
    # transitions, failovers, client errors — are identical
    assert first.events == second.events
    assert first.successes == second.successes
    assert first.client_errors == second.client_errors
    assert first.faults_injected == second.faults_injected
    assert first.faults_injected > 0  # the schedule actually did something


def test_different_seeds_diverge():
    assert run_chaos(seed=1, iterations=60).events != run_chaos(
        seed=2, iterations=60
    ).events


def test_schedule_read_back_from_json_replays_the_same_event_stream():
    """A soak's schedule is a complete repro: written out as
    ``repro.simtest.schedule/v1`` JSON and read back, it replays to the
    identical resilience event stream."""
    schedule = DEFAULT_MIX.schedule(77, 120)
    copy = NemesisSchedule.from_json(schedule.to_json())
    assert copy == schedule
    first = run_chaos(seed=77, iterations=120, schedule=schedule)
    replay = run_chaos(seed=77, iterations=120, schedule=copy)
    assert first.faults_injected > 0
    assert replay.events == first.events
    assert replay.client_errors == first.client_errors


def test_legacy_schedules_replay_unchanged_without_regions():
    """A schedule without partition events replays byte-identically, and
    giving the monkey regions to cut changes nothing about it."""
    first = run_chaos(seed=77, iterations=120)
    second = run_chaos(seed=77, iterations=120,
                       regions={"iu": (HOSTS[0],), "sdsc": (HOSTS[1],)})
    assert first.faults_injected > 0
    assert first.events == second.events
    assert PARTITION not in [e["code"] for e in first.events]


def test_resilience_absorbs_single_provider_outages():
    # short, mostly non-overlapping outages: everything a failover pair
    # *can* absorb, it must absorb (p_take_down 0.02, p_fault_burst 0.06,
    # p_latency_spike 0.06 per host, no flapping)
    mix = compose(
        CrashNemesis(HOSTS, every=(12.5, 37.5), outage=(1.0, 3.0)),
        BreakerFlapNemesis(HOSTS, every=(4.17, 12.5), size=(1, 2)),
        LatencySpikeNemesis(HOSTS, every=(4.17, 12.5), magnitude=(0.5, 3.0)),
    )
    report = run_chaos(seed=7, iterations=80, mix=mix)
    assert report.faults_injected > 0
    # failover + retries absorb single-provider outages; only overlapping
    # outages of both providers can surface to the client
    assert report.success_rate >= 0.9


@pytest.mark.tier2_chaos
def test_long_chaos_run_is_deterministic_and_survivable():
    # p_take_down 0.06, p_fault_burst 0.12, p_latency_spike 0.08 and
    # p_flap 0.02 per host, over both hosts
    mix = compose(
        CrashNemesis(HOSTS, every=(4.17, 12.5), outage=(1.0, 4.0)),
        BreakerFlapNemesis(HOSTS, every=(2.08, 6.25), size=(1, 3)),
        LatencySpikeNemesis(HOSTS, every=(3.125, 9.375), magnitude=(0.5, 3.0)),
        FlapNemesis(HOSTS, every=(12.5, 37.5), phases=(2.0, 1.0),
                    duration=(1.0, 4.0)),
    )

    def long_run(seed: int):
        network = VirtualNetwork(seed=seed)
        endpoints = [
            deploy_batch_script_generator(network, IuBatchScriptGenerator(),
                                          HOSTS[0])[0],
            deploy_batch_script_generator(network, SdscBatchScriptGenerator(),
                                          HOSTS[1])[0],
        ]
        log = ResilienceLog()
        client = FailoverClient(
            network, endpoints, BSG_NAMESPACE,
            sticky=False, rounds=3,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.1),
            breaker_policy=CircuitBreakerPolicy(failure_threshold=5,
                                                cooldown=2.0),
            resilience_log=log, retry_seed=seed,
        )
        monkey = ChaosMonkey(network, list(HOSTS), log=log)
        return ChaosHarness(monkey).run(
            lambda i: client.call("listSchedulers"),
            mix.schedule(seed, 500), 500,
        )

    first = long_run(1234)
    second = long_run(1234)
    assert first.events == second.events
    # this schedule includes overlapping outages of both providers — those
    # requests are legitimately lost; the layer still serves the majority
    assert first.success_rate >= 0.5
    assert len(first.events) > 50


def test_region_partitions_are_drawn_and_healed():
    network = VirtualNetwork(seed=5)
    log = ResilienceLog()
    for host in ("a.iu", "b.sdsc"):
        network.register(host, lambda r: None)
    monkey = ChaosMonkey(
        network, ["a.iu", "b.sdsc"], log=log,
        regions={"iu": ("a.iu",), "sdsc": ("b.sdsc",)},
    )
    # p_partition 0.5 per step, cuts of 1-2 s
    schedule = compose(
        PartitionNemesis(("iu", "sdsc"), every=(2.0, 6.0), duration=(1.0, 2.0))
    ).schedule(5, 30)
    ChaosHarness(monkey).run(
        lambda i: network.clock.advance(1.0), schedule, 30
    )
    codes = [e.code for e in log.events]
    assert monkey.partitions_injected >= 1
    assert codes.count(PARTITION) == monkey.partitions_injected
    assert codes.count(PARTITION_HEAL) == codes.count(PARTITION)
    assert not network.active_partitions()


def test_heal_all_clears_partitions_and_armed_charges():
    network = VirtualNetwork(seed=9)
    network.register("a.iu", lambda r: None)
    network.register("b.sdsc", lambda r: None)
    monkey = ChaosMonkey(
        network, ["a.iu", "b.sdsc"],
        regions={"iu": ("a.iu",), "sdsc": ("b.sdsc",)},
    )
    monkey.apply(NemesisEvent(
        t=1.0, id=1, kind=nem.PARTITION,
        args={"a": "iu", "b": "sdsc", "mode": "full", "duration": 5.0,
              "loss": 0.75},
    ))
    assert network.active_partitions()
    network.fail_next("a.iu", times=2)
    monkey.heal_all()
    assert not network.active_partitions()
    assert network.pending_failures("a.iu") == 0


def test_restart_rebuilders_run_after_repair():
    network = VirtualNetwork(seed=2)
    network.register("svc.iu", lambda r: None)
    rebuilt = []
    monkey = ChaosMonkey(
        network, ["svc.iu"],
        rebuilders={"svc.iu": lambda: rebuilt.append("svc.iu")},
    )

    def crash(event_id: int) -> NemesisEvent:
        return NemesisEvent(
            t=float(event_id), id=event_id, kind=nem.CRASH,
            args={"host": "svc.iu", "outage": 1.0},
        )

    monkey.apply(crash(1))
    assert not network.is_up("svc.iu")
    network.clock.advance(1.5)
    monkey.apply_due()  # repairs + rebuilds
    monkey.apply(crash(2))  # ... and the next crash cuts it down again
    assert rebuilt == ["svc.iu"]
    assert monkey.restarts_performed == 1
    assert not network.is_up("svc.iu")
    monkey.heal_all()
    assert network.is_up("svc.iu")
    assert rebuilt == ["svc.iu", "svc.iu"]
