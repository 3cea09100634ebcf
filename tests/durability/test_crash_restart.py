"""The end-to-end crash-restart scenario (the PR's acceptance test).

A fixed-seed run: the Globusrun host dies mid-``run_xml`` after exactly one
job has completed, the host is brought back, the service is re-deployed over
its surviving disk, and the reconciler drives the orphaned batch to a
terminal state.  The journals then prove that no accepted job was lost and
no job ran twice.
"""

import pytest

from repro.durability.journal import Journal
from repro.durability.reconciler import (
    ORPHAN,
    RECONCILED,
    RECOVERED,
    deploy_reconciler,
    record_recovery,
)
from repro.grid.jobs import JobSpec
from repro.grid.resources import build_testbed
from repro.resilience.chaos import RESTART, ChaosMonkey
from repro.resilience.events import ResilienceLog
from repro.services.jobsubmit import (
    GLOBUSRUN_NAMESPACE,
    deploy_globusrun,
    jobs_to_xml,
)
from repro.services.monitoring import deploy_monitoring
from repro.simtest.nemesis import CrashNemesis, compose
from repro.soap.client import SoapClient
from repro.transport.network import TransportError, VirtualNetwork
from repro.xmlutil.element import parse_xml

from tests.durability.conftest import IDENTITY

GLOBUSRUN_HOST = "globusrun.sdsc.edu"

JOBS = [
    ("modi4.iu.edu", "alpha"),
    ("blue.sdsc.edu", "beta"),
    ("modi4.iu.edu", "gamma"),
]


def _jobs_xml():
    return jobs_to_xml(
        [(host, JobSpec(name=name, executable="echo", arguments=[name]))
         for host, name in JOBS]
    )


def _run_scenario(seed: int):
    """One full deterministic crash-restart run; returns its observables."""
    network = VirtualNetwork(seed=seed)
    from repro.security.gsi import SimpleCA

    ca = SimpleCA()
    log = ResilienceLog()
    testbed = build_testbed(network, ca, durable=True)
    cred = ca.issue_credential(IDENTITY, lifetime=10**6, now=network.clock.now)
    proxy = cred.sign_proxy(lifetime=10**5, now=network.clock.now)
    for resource in testbed.values():
        resource.gatekeeper.add_gridmap_entry(IDENTITY, "portal")
    impl, url = deploy_globusrun(network, testbed, proxy, durable=True)
    client = SoapClient(network, url, GLOBUSRUN_NAMESPACE, source="portal")

    # the process dies after the first job of the batch completes
    impl.crash_after_jobs = 1
    with pytest.raises(TransportError):
        client.call("run_xml", _jobs_xml(), idempotency_key="workflow-001")

    # the crash took the host with it; later the operator restarts it
    network.take_down(GLOBUSRUN_HOST)
    network.clock.advance(30.0)
    network.bring_up(GLOBUSRUN_HOST)
    impl2, url2 = deploy_globusrun(network, testbed, proxy, durable=True)
    record_recovery(log, "globusrun", GLOBUSRUN_HOST, len(impl2.snapshot()["accepted"]))

    reconciler, _rec_url = deploy_reconciler(network, resilience_log=log)
    reconciler.watch(GLOBUSRUN_HOST, "globusrun", url2, GLOBUSRUN_NAMESPACE)
    orphans = reconciler.scan()
    outcome = reconciler.reconcile()

    monitoring, _mon_url = deploy_monitoring(
        network, testbed, resilience_log=log
    )
    return {
        "network": network,
        "testbed": testbed,
        "impl2": impl2,
        "client2": SoapClient(network, url2, GLOBUSRUN_NAMESPACE, source="portal"),
        "log": log,
        "monitoring": monitoring,
        "orphans": orphans,
        "outcome": outcome,
    }


def test_no_job_lost_and_none_run_twice():
    run = _run_scenario(seed=0)
    network, testbed = run["network"], run["testbed"]

    # the orphan was found and re-driven to a terminal state
    assert [o["batch"] for o in run["orphans"]] == ["batch-000001"]
    assert run["outcome"][0]["status"] == "reconciled"

    # a client retrying the original submission gets the completed results:
    # the idempotency key maps to the originally accepted batch
    results = run["client2"].call(
        "run_xml", _jobs_xml(), idempotency_key="workflow-001"
    )
    rows = parse_xml(results).findall("result")
    assert [r.get("name") for r in rows] == ["alpha", "beta", "gamma"]
    assert all(r.get("status") == "ok" for r in rows)

    # no accepted job was lost: every job reached a scheduler and finished
    submits = {}
    for host in ("modi4.iu.edu", "blue.sdsc.edu"):
        journal = Journal(network.disk(host), "scheduler")
        journal.verify()
        submits[host] = journal.by_kind("job-submit")
        finishes = {r.data["job"] for r in journal.by_kind("job-finish")}
        assert {r.data["job"] for r in submits[host]} <= finishes
    # ... and no job ran twice: 3 accepted jobs -> exactly 3 submissions
    # grid-wide, even though the first job was attempted both before the
    # crash and during reconciliation (the gatekeeper deduplicated it)
    assert len(submits["modi4.iu.edu"]) + len(submits["blue.sdsc.edu"]) == 3
    assert testbed["modi4.iu.edu"].gatekeeper.idempotency.duplicates_served >= 1

    # the recovery is visible through monitoring
    summary = {
        row["code"]: row["count"]
        for row in run["monitoring"].recovery_summary()
    }
    assert summary[ORPHAN] == 1
    assert summary[RECONCILED] == 1
    assert summary[RECOVERED] == 1


def test_scenario_is_deterministic():
    first = _run_scenario(seed=0)
    second = _run_scenario(seed=0)
    assert first["orphans"] == second["orphans"]
    assert first["outcome"] == second["outcome"]
    codes_a = [e.code for e in first["log"].events]
    codes_b = [e.code for e in second["log"].events]
    assert codes_a == codes_b
    dump_a = Journal(first["network"].disk(GLOBUSRUN_HOST), "globusrun").dump()
    dump_b = Journal(second["network"].disk(GLOBUSRUN_HOST), "globusrun").dump()
    assert dump_a == dump_b


def test_chaos_monkey_restarts_via_rebuilder(network, ca):
    """A repair with a registered rebuilder re-deploys from the journal."""
    testbed = build_testbed(network, ca, durable=True)
    cred = ca.issue_credential(IDENTITY, lifetime=10**6, now=network.clock.now)
    proxy = cred.sign_proxy(lifetime=10**5, now=network.clock.now)
    for resource in testbed.values():
        resource.gatekeeper.add_gridmap_entry(IDENTITY, "portal")
    deployed = {}

    def rebuild():
        deployed["impl"], deployed["url"] = deploy_globusrun(
            network, testbed, proxy, durable=True
        )

    rebuild()
    log = ResilienceLog()
    monkey = ChaosMonkey(
        network,
        [GLOBUSRUN_HOST],
        log=log,
        rebuilders={GLOBUSRUN_HOST: rebuild},
    )
    # p_take_down 1.0 on one host is a crash every step; apply the first
    crash = compose(
        CrashNemesis((GLOBUSRUN_HOST,), every=(0.5, 1.5), outage=(1.0, 2.0))
    ).schedule(7, 2).events[0]
    monkey.apply(crash)  # takes the host down
    assert not network.is_up(GLOBUSRUN_HOST)
    network.clock.advance(5.0)
    monkey.apply_due()  # repair fires the rebuilder
    assert monkey.restarts_performed == 1
    assert RESTART in [e.code for e in log.events]
    client = SoapClient(
        network, deployed["url"], GLOBUSRUN_NAMESPACE, source="ui"
    )
    assert client.call("list_contacts") == sorted(testbed)
