"""The disaster drill: partitions and crashes mid-write, then convergence.

A seeded nemesis schedule drives region partitions (full, one-way,
partial), host crashes with rebuild-from-nothing restarts, fault bursts,
and latency spikes through a :class:`ChaosMonkey` against a three-region
topology while a workload keeps writing to the registry and the quorum
context store.  The acceptance
criteria, asserted per run:

- **deterministic convergence** — after the heal, every region holds
  byte-identical registry state and identical context snapshots, and the
  same seed reproduces the same final digest and event stream;
- **zero lost acknowledged context writes** — every op the coordinator
  acknowledged is present on every replica after the heal;
- **bounded, surfaced staleness** — reads served from behind the op log
  are explicitly marked and counted, never silent;
- **availability** — the replicated portal keeps serving through faults
  that make the single-region control case visibly unavailable.

The short drill runs in tier 1; the multi-seed soak and the
``BENCH_replication.json`` verdict run under ``tier2_partition``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.faults import QuorumLostError
from repro.replication import MultiRegionReplication
from repro.resilience.chaos import (
    PARTITION,
    PARTITION_HEAL,
    ChaosHarness,
    ChaosMonkey,
)
from repro.resilience.events import STALE_READ, ResilienceLog
from repro.simtest.nemesis import (
    BreakerFlapNemesis,
    CrashNemesis,
    LatencySpikeNemesis,
    PartitionNemesis,
    compose,
)
from repro.transport.network import VirtualNetwork

REGIONS = ("iu", "ncsa", "sdsc")
SOAK_SEEDS = (3, 11, 29)

MAX_HEAL_ROUNDS = 10


def _gaps(p: float, hosts: int) -> tuple[float, float]:
    """The nemesis gap range of a per-host, per-step probability *p*: a
    mean gap of ``1 / (p * hosts)`` iterations (see
    tests/resilience/test_chaos.py)."""
    mean = 1.0 / (p * hosts)
    return (round(mean / 2, 2), round(3 * mean / 2, 2))


def drill_schedule(seed: int, topo: MultiRegionReplication, iterations: int):
    """The drill's faults: p_take_down 0.06, p_fault_burst 0.04 and
    p_latency_spike 0.05 per host, and p_partition 0.25 per step with cuts
    of 2-8 s.  A cut's gap never undercuts the longest cut, so one
    split-brain at a time keeps each run analysable."""
    hosts = tuple(topo.hosts())
    return compose(
        PartitionNemesis(
            tuple(topo.region_groups()), every=(8.0, 16.0), duration=(2.0, 8.0)
        ),
        CrashNemesis(hosts, every=_gaps(0.06, len(hosts)), outage=(2.0, 8.0)),
        BreakerFlapNemesis(hosts, every=_gaps(0.04, len(hosts)), size=(1, 2)),
        LatencySpikeNemesis(
            hosts, every=_gaps(0.05, len(hosts)), magnitude=(0.5, 3.0)
        ),
    ).schedule(seed, iterations)


def run_drill(seed: int, *, regions=REGIONS, iterations: int = 60) -> dict:
    """One complete drill; returns the measurements the assertions need."""
    network = VirtualNetwork(seed=seed)
    log = ResilienceLog()
    topo = MultiRegionReplication.build(
        network, regions, seed=seed, log=log, staleness_bound=30.0
    )
    monkey = ChaosMonkey(
        network,
        topo.hosts(),
        log=log,
        rebuilders=topo.rebuilders(),
        regions=topo.region_groups(),
    )
    rng = random.Random(seed)
    acked: list[int] = []
    max_read_lag = 0

    def write_with_retry(path: str) -> int:
        """A quorum write with the retry the error contract promises.

        ``QuorumLostError`` is retryable: the op stays in the coordinator's
        log, so the client waits a beat and re-drives delivery instead of
        re-submitting (a resubmit would be a *new* op).  Only a retry that
        still cannot reach quorum counts as client-visible downtime.
        """
        try:
            return topo.context.create(path)
        except QuorumLostError:
            network.clock.advance(1.0)
            topo.context.sync_all()
            seq = topo.context.seq
            acks = sum(1 for n in topo.context.acked.values() if n >= seq)
            if acks < topo.context.quorum:
                raise
            return seq

    def workload(index: int) -> None:
        # one op per virtual second: outage and partition durations (2-8 s)
        # then span a handful of iterations instead of the whole run
        network.clock.advance(1.0)
        region = rng.choice(sorted(topo.regions))
        topo.nodes[region].registry.register_service(
            f"svc/{region}/job{index}", {"step": str(index)}
        )
        if index % 3 == 0:
            topo.run_anti_entropy()
        # the context write is the availability probe: a QuorumLostError
        # that survives the retry escapes to the harness as downtime
        seq = write_with_retry(f"/drill/op{index:04d}")
        acked.append(seq)
        answer = topo.context.read_node(f"/drill/op{index:04d}")
        nonlocal max_read_lag
        max_read_lag = max(max_read_lag, answer["lag"])

    report = ChaosHarness(monkey).run(
        workload, drill_schedule(seed, topo, iterations), iterations
    )

    # -- the heal: bring everything back, measure time to convergence --------
    heal_started = network.clock.now
    rounds = 0
    while not topo.converged() and rounds < MAX_HEAL_ROUNDS:
        topo.run_anti_entropy()
        rounds += 1
    topo.context.sync_all()
    recovery_time = network.clock.now - heal_started

    exports = {r: node.registry.export_state() for r, node in topo.nodes.items()}
    snapshots = topo.context.snapshots()
    return {
        "seed": seed,
        "iterations": iterations,
        "success_rate": report.success_rate,
        "client_errors": list(report.client_errors),
        "faults_injected": report.faults_injected,
        "partitions_injected": monkey.partitions_injected,
        "restarts": monkey.restarts_performed,
        "converged": topo.converged(),
        "heal_rounds": rounds,
        "recovery_time_s": round(recovery_time, 6),
        "exports": exports,
        "digest": topo.nodes[regions[0]].registry.state_digest(),
        "snapshots": snapshots,
        "local_snapshot": topo.context.local.snapshot(),
        "acked_writes": len(acked),
        "acked_seqs": acked,
        "oplog_len": topo.context.seq,
        "replica_seqs": {r: s["seq"] for r, s in snapshots.items()},
        "hint_backlog": topo.context.hint_backlog(),
        "stale_reads": topo.context.stale_reads_served,
        "max_read_lag": max_read_lag,
        "event_codes": [e.code for e in log.events],
        "rows": topo.replication_rows(),
    }


def assert_drill_invariants(result: dict) -> None:
    regions = sorted(result["exports"])
    # deterministic convergence: byte-identical registry state everywhere
    assert result["converged"], "registry failed to converge after the heal"
    assert len(set(result["exports"].values())) == 1
    # zero lost acknowledged context writes: every replica applied the full
    # op log, and its state equals the coordinator's validating copy
    assert set(result["replica_seqs"]) == set(regions)
    for region in regions:
        assert result["replica_seqs"][region] == result["oplog_len"]
        assert (
            repr(result["snapshots"][region]["state"])
            == repr(result["local_snapshot"])
        )
    assert result["hint_backlog"] == {r: 0 for r in regions}
    assert max(result["acked_seqs"], default=0) <= result["oplog_len"]
    # staleness is bounded and surfaced, never silent
    stale_events = result["event_codes"].count(STALE_READ)
    assert stale_events >= result["stale_reads"]
    assert result["max_read_lag"] <= result["oplog_len"]


def test_drill_survives_partitions_and_crashes():
    result = run_drill(seed=11, iterations=40)
    assert_drill_invariants(result)
    # the schedule actually exercised the failure modes under test
    assert result["partitions_injected"] >= 1
    assert result["faults_injected"] >= 3
    assert PARTITION in result["event_codes"]
    assert PARTITION_HEAL in result["event_codes"]


def test_drill_is_deterministic_per_seed():
    first = run_drill(seed=11, iterations=40)
    second = run_drill(seed=11, iterations=40)
    assert first["digest"] == second["digest"]
    assert first["event_codes"] == second["event_codes"]
    assert first["client_errors"] == second["client_errors"]
    assert first["recovery_time_s"] == second["recovery_time_s"]
    assert first["exports"] == second["exports"]


def test_control_without_replication_loses_availability():
    """The ablation: one region, same faults, visibly worse availability."""
    replicated = run_drill(seed=11, iterations=40)
    control = run_drill(seed=11, iterations=40, regions=("iu",))
    assert control["success_rate"] < replicated["success_rate"]
    assert control["client_errors"].count("Portal.QuorumLost") > len(
        replicated["client_errors"]
    )


@pytest.mark.tier2_partition
def test_partition_drill_soak_and_benchmark():
    """The full drill across seeds; the verdict lands in
    ``BENCH_replication.json`` for the CI artifact."""
    runs = []
    for seed in SOAK_SEEDS:
        result = run_drill(seed=seed, iterations=120)
        assert_drill_invariants(result)
        rerun = run_drill(seed=seed, iterations=120)
        assert rerun["digest"] == result["digest"]
        assert rerun["event_codes"] == result["event_codes"]
        runs.append(result)
    assert any(r["partitions_injected"] for r in runs)
    assert any(r["restarts"] for r in runs)

    controls = [
        run_drill(seed=seed, iterations=120, regions=("iu",))
        for seed in SOAK_SEEDS
    ]
    mean = lambda rs: sum(r["success_rate"] for r in rs) / len(rs)
    assert mean(controls) < mean(runs)

    out = Path(__file__).resolve().parents[2] / "BENCH_replication.json"
    out.write_text(json.dumps({
        "benchmark": "multi-region partition disaster drill",
        "command": "PYTHONPATH=src python -m pytest -q -m tier2_partition "
                   "tests/replication/",
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "seeds": list(SOAK_SEEDS),
        "regions": list(REGIONS),
        "iterations": 120,
        "replicated": [
            {
                "seed": r["seed"],
                "success_rate": round(r["success_rate"], 4),
                "quorum_losses": r["client_errors"].count("Portal.QuorumLost"),
                "faults_injected": r["faults_injected"],
                "partitions": r["partitions_injected"],
                "restarts": r["restarts"],
                "recovery_time_s": r["recovery_time_s"],
                "heal_rounds": r["heal_rounds"],
                "acked_writes": r["acked_writes"],
                "lost_acked_writes": 0,
                "stale_reads": r["stale_reads"],
                "max_read_lag_ops": r["max_read_lag"],
                "converged": r["converged"],
            }
            for r in runs
        ],
        "control_single_region": [
            {
                "seed": control["seed"],
                "success_rate": round(control["success_rate"], 4),
                "quorum_losses": control["client_errors"].count(
                    "Portal.QuorumLost"
                ),
            }
            for control in controls
        ],
        "deterministic": True,
    }, indent=2) + "\n")
