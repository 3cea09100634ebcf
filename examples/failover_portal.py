#!/usr/bin/env python
"""Interoperability as availability: surviving a provider outage.

IU and SDSC each run an implementation of the agreed batch-script
interface (§3.4).  This walkthrough builds the full portal, resolves
*every* provider of that interface from the UDDI registry, and then kills
the IU host mid-benchmark: the failover client rotates to SDSC, the
circuit breaker stops wasting wire time on the corpse, and the user never
sees an error.  Every resilience event lands in the monitoring service and
the portal's resilience portlet.  A seeded nemesis schedule, replayed
twice through the chaos harness, closes the show.

Run:  python examples/failover_portal.py
"""

from repro.portal import PortalDeployment, UserInterfaceServer
from repro.resilience.breaker import CircuitBreakerPolicy
from repro.resilience.chaos import ChaosHarness, ChaosMonkey
from repro.services.monitoring import MONITORING_NAMESPACE
from repro.simtest.nemesis import (
    BreakerFlapNemesis,
    CrashNemesis,
    LatencySpikeNemesis,
    compose,
)
from repro.soap.client import SoapClient


def main() -> None:
    deployment = PortalDeployment.build()
    network = deployment.network
    ui = UserInterfaceServer(deployment)

    print("== resolve all providers of the common interface from UDDI ==")
    bsg = ui.failover_client(sticky=False)  # round-robin across providers
    for endpoint in bsg.endpoints:
        print(f"   provider: {endpoint}")

    print("\n== steady state: both providers share the load ==")
    for _ in range(6):
        bsg.call("supportsScheduler", "LSF")
    for host in ("bsg.iu.edu", "bsg.sdsc.edu"):
        print(f"   {host}: {network.stats.per_host_requests[host]} requests")

    print("\n== IU dies mid-run ==")
    network.take_down("bsg.iu.edu")
    at_death = network.stats.snapshot()
    completed = sum(
        1 for _ in range(30) if bsg.call("listSchedulers") is not None
    )
    since = network.stats.delta(at_death)
    print(f"   requests completed    : {completed}/30 (no client-visible errors)")
    print(f"   dead-host attempts    : {since.per_host_requests.get('bsg.iu.edu', 0)}"
          f"  (breaker is {bsg.breaker_state(bsg.endpoints[0])})")
    print(f"   survivor served       : {since.per_host_requests['bsg.sdsc.edu']}")

    print("\n== the event stream, via the monitoring service ==")
    monitoring = SoapClient(
        network, deployment.endpoints["monitoring"], MONITORING_NAMESPACE,
        source=ui.host,
    )
    for row in monitoring.call("resilience_summary"):
        print(f"   {int(row['count']):4d}  {row['code']}")

    print("\n== and as a portlet ==")
    portlet = ui.add_resilience_portlet(tail=3)
    ui.container.set_layout("alice", [portlet.name])
    page = ui.container.render_page("alice")
    print("   portlet title:", portlet.title)
    print("   rendered:", "Resilience" in page and "event stream included")

    print("\n== seeded chaos: the same schedule twice, identical streams ==")
    providers = ("bsg.iu.edu", "bsg.sdsc.edu")
    # short outages relative to the workload's request rate, so the
    # schedule mostly leaves one provider alive at any moment
    schedule = compose(
        CrashNemesis(providers, every=(8.33, 25.0), outage=(0.5, 2.0)),
        BreakerFlapNemesis(providers, every=(3.125, 9.375), size=(1, 2)),
        LatencySpikeNemesis(providers, every=(4.17, 12.5), magnitude=(0.5, 3.0)),
    ).schedule(2002, 40)
    print(f"   scheduled events      : {len(schedule)}")

    def one_run():
        d = PortalDeployment.build()
        u = UserInterfaceServer(d)
        # a cooldown sized to the outage lengths, so repaired providers
        # are rediscovered within the run
        client = u.failover_client(
            sticky=False,
            breaker_policy=CircuitBreakerPolicy(failure_threshold=3,
                                                cooldown=1.0),
        )
        monkey = ChaosMonkey(d.network, list(providers), log=d.resilience)

        def paced_request(i: int) -> None:
            # a quarter second of user think-time between portal requests,
            # so outages and breaker cooldowns elapse at a realistic rate
            d.network.clock.advance(0.25)
            client.call("supportsScheduler", "NQS")

        return ChaosHarness(monkey).run(paced_request, schedule, 40)

    first, second = one_run(), one_run()
    print(f"   success rate          : {first.success_rate:.2f}")
    print(f"   faults injected       : {first.faults_injected}")
    print(f"   identical event streams: {first.events == second.events}")


if __name__ == "__main__":
    main()
