"""Tier-2 soak: a seeded nemesis schedule against the durable stack.

The monkey repeatedly kills and restarts the Globusrun host (restarts go
through the journal-replay rebuilder), between fault bursts, latency
spikes and flapping; the workload keeps submitting keyed
batches through a retrying client.  At the end, reconciliation must leave no
orphans, every journal must verify, and the checker must find no lifecycle
violations — at-least-once delivery with exactly-once execution.
"""

import pytest

from repro.durability.check import check_records
from repro.durability.journal import Journal
from repro.durability.reconciler import ReconcilerService
from repro.grid.jobs import JobSpec
from repro.grid.resources import build_testbed
from repro.resilience.chaos import ChaosHarness, ChaosMonkey
from repro.resilience.events import ResilienceLog
from repro.resilience.policy import RetryPolicy
from repro.services.jobsubmit import (
    GLOBUSRUN_NAMESPACE,
    deploy_globusrun,
    jobs_to_xml,
)
from repro.simtest.nemesis import (
    BreakerFlapNemesis,
    CrashNemesis,
    FlapNemesis,
    LatencySpikeNemesis,
    compose,
)
from repro.soap.client import SoapClient
from repro.transport.network import VirtualNetwork

IDENTITY = "/O=G/CN=portal"
GLOBUSRUN_HOST = "globusrun.sdsc.edu"

#: p_take_down 0.25, p_fault_burst 0.08, p_latency_spike 0.06 and p_flap
#: 0.02 on the one host, as gap ranges (see tests/resilience/test_chaos.py)
SOAK_MIX = compose(
    CrashNemesis((GLOBUSRUN_HOST,), every=(2.0, 6.0), outage=(1.0, 5.0)),
    BreakerFlapNemesis((GLOBUSRUN_HOST,), every=(6.25, 18.75), size=(1, 3)),
    LatencySpikeNemesis((GLOBUSRUN_HOST,), every=(8.33, 25.0),
                        magnitude=(0.5, 3.0)),
    FlapNemesis((GLOBUSRUN_HOST,), every=(25.0, 75.0), phases=(1.0, 4.0),
                duration=(1.0, 5.0)),
)


@pytest.mark.tier2_recovery
@pytest.mark.parametrize("seed", [3, 11])
def test_crash_restart_soak(seed):
    from repro.security.gsi import SimpleCA

    network = VirtualNetwork(seed=seed)
    ca = SimpleCA()
    log = ResilienceLog()
    testbed = build_testbed(network, ca, durable=True)
    cred = ca.issue_credential(IDENTITY, lifetime=10**8, now=0.0)
    proxy = cred.sign_proxy(lifetime=10**7, now=0.0)
    for resource in testbed.values():
        resource.gatekeeper.add_gridmap_entry(IDENTITY, "portal")

    state = {}

    def rebuild():
        state["impl"], state["url"] = deploy_globusrun(
            network, testbed, proxy, durable=True
        )

    rebuild()
    monkey = ChaosMonkey(
        network,
        [GLOBUSRUN_HOST],
        log=log,
        rebuilders={GLOBUSRUN_HOST: rebuild},
    )

    def workload(index: int) -> None:
        xml = jobs_to_xml([
            ("modi4.iu.edu",
             JobSpec(name=f"job-{index}", executable="echo",
                     arguments=[str(index)])),
        ])
        if index % 5 == 4:
            # the process dies mid-batch (after the job, before the
            # resolve record): the client's keyed retry must not rerun it
            state["impl"].crash_after_jobs = 1
        client = SoapClient(
            network, state["url"], GLOBUSRUN_NAMESPACE, source="portal",
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.5),
        )
        client.call("run_xml", xml, idempotency_key=f"soak-{seed}-{index}")

    report = ChaosHarness(monkey).run(
        workload, SOAK_MIX.schedule(seed, 30), iterations=30
    )
    assert report.iterations == 30

    # drain whatever the crashes orphaned
    reconciler = ReconcilerService(network, resilience_log=log)
    reconciler.watch(
        GLOBUSRUN_HOST, "globusrun", state["url"], GLOBUSRUN_NAMESPACE
    )
    for row in reconciler.reconcile():
        assert row["status"] == "reconciled"
    assert reconciler.scan() == []

    # every journal verifies and satisfies the lifecycle invariants
    problems = []
    for host in list(testbed) + [GLOBUSRUN_HOST]:
        for name in network.disk(host).log_names():
            journal = Journal(network.disk(host), name)
            journal.verify()
            problems += check_records(list(journal.records()), f"{host}:{name}")
    assert problems == []

    # exactly-once execution: every accepted batch resolved, and the grid
    # ran at most one scheduler job per accepted batch job
    globusrun = Journal(network.disk(GLOBUSRUN_HOST), "globusrun")
    accepted = {r.data["batch"] for r in globusrun.by_kind("batch-accept")}
    resolved = {r.data["batch"] for r in globusrun.by_kind("batch-resolve")}
    assert accepted == resolved
    submits = sum(
        len(Journal(network.disk(host), "scheduler").by_kind("job-submit"))
        for host in testbed
    )
    assert submits == len(accepted)
