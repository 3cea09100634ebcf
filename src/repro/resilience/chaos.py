"""Fault injection over the virtual network, driven by nemesis schedules.

The ROADMAP asks for a portal that gracefully handles "as many scenarios as
you can imagine"; this module makes them happen on a schedule.  A
:class:`ChaosMonkey` interprets nemesis events — hosts crashed and
repaired, transport-failure bursts, latency spikes, flapping, region
partitions, full disks, clock stalls — against the
:class:`~repro.transport.network.VirtualNetwork`, and a
:class:`ChaosHarness` interleaves one schedule of them with a workload.
:mod:`repro.simtest.nemesis` writes the schedules (seeded, composable,
replayable ``repro.simtest.schedule/v1`` documents) in the event kinds
defined here, so this package never imports the rig built on top of it.
Everything runs on the virtual clock, so a schedule replays to identical
:class:`~repro.faults.ErrorReport` streams, which is what makes resilience
regressions diffable.

Every deferred effect — a repair, a partition heal, the end of a latency
spike, the end of a full disk — lives in one pending-event queue ordered
by ``(due time, event id)``: ids come from one counter in scheduling
order, so two effects due at the same virtual tick always apply in the
same total order.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.faults import PortalError
from repro.resilience.events import ResilienceLog
from repro.transport.network import TransportError, VirtualNetwork

TAKE_DOWN = "Chaos.TakeDown"
REPAIR = "Chaos.Repair"
RESTART = "Chaos.Restart"
FAULT_BURST = "Chaos.FaultBurst"
LATENCY_SPIKE = "Chaos.LatencySpike"
FLAP = "Chaos.Flap"
PARTITION = "Chaos.Partition"
PARTITION_HEAL = "Chaos.PartitionHeal"
DISK_FULL = "Chaos.DiskFull"

# -- the nemesis event kinds ChaosMonkey.apply interprets --------------------
CRASH_KIND = "crash"
PARTITION_KIND = "partition"
FLAP_KIND = "flap"
BREAKER_FLAP_KIND = "breaker-flap"
LATENCY_SPIKE_KIND = "latency-spike"
DISK_FULL_KIND = "disk-full"
CLOCK_STALL_KIND = "clock-stall"

#: each kind -> the arguments :meth:`ChaosMonkey.apply` reads from its
#: events, each with its converter, so a schedule reader can refuse an
#: event before it is applied
KIND_ARGS = {
    CRASH_KIND: {"host": str, "outage": float},
    PARTITION_KIND: {
        "a": str, "b": str, "mode": str, "duration": float, "loss": float,
    },
    FLAP_KIND: {"host": str, "up": float, "down": float, "duration": float},
    BREAKER_FLAP_KIND: {"host": str, "size": int},
    LATENCY_SPIKE_KIND: {"host": str, "magnitude": float, "duration": float},
    DISK_FULL_KIND: {"host": str, "duration": float},
    CLOCK_STALL_KIND: {"seconds": float},
}
KINDS = tuple(KIND_ARGS)
#: the faults of a host's network presence: a host the monkey holds down
#: (its repair still pending) takes none of them until it is back
HOST_FAULT_KINDS = (CRASH_KIND, FLAP_KIND, BREAKER_FLAP_KIND, LATENCY_SPIKE_KIND)


class ChaosMonkey:
    """Injects faults into the network and undoes them when they fall due.

    :meth:`apply` interprets one nemesis event through the ``inject_*``
    primitives; :meth:`apply_due` applies the deferred effects due by now;
    :meth:`heal_all` applies every one of them at once.
    """

    def __init__(
        self,
        network: VirtualNetwork,
        hosts: list[str],
        *,
        log: ResilienceLog | None = None,
        rebuilders: dict[str, Callable[[], Any]] | None = None,
        regions: dict[str, tuple[str, ...]] | None = None,
    ):
        self.network = network
        self.clock = network.clock
        self.hosts = sorted(set(hosts))
        # not `log or ...`: an empty ResilienceLog has len 0 and is falsy
        self.log = log if log is not None else ResilienceLog()
        self.faults_injected = 0
        #: host -> callable that re-deploys the host's services after a
        #: repair (the crash-restart path: process state is gone, the host
        #: disk survived, so a durable rebuilder replays its journals)
        self.rebuilders = dict(rebuilders or {})
        self.restarts_performed = 0
        #: region name -> the hosts (and client sources) living in it, the
        #: sides a partition event cuts apart
        self.regions = {
            name: tuple(members) for name, members in (regions or {}).items()
        }
        self.partitions_injected = 0
        #: the deferred-effect queue: (due time, event id, action, payload)
        self._pending: list[tuple[float, int, str, Any]] = []
        self._event_ids = itertools.count(1)

    def _record(self, code: str, message: str, host: str, **detail: Any) -> None:
        self.log.record(
            code,
            message,
            service="chaos",
            detail={"host": host, "t": f"{self.clock.now:.6f}",
                    **{k: str(v) for k, v in detail.items()}},
        )

    def _schedule(self, due: float, action: str, payload: Any) -> None:
        self._pending.append((due, next(self._event_ids), action, payload))

    def pending_events(self) -> list[tuple[float, int, str, Any]]:
        """The deferred effects still queued, in application order."""
        return sorted(self._pending)

    def _holds_down(self, host: str) -> bool:
        """Whether *host* is crashed or flapping with its repair pending."""
        return any(
            action == "repair" and payload == host
            for _, _, action, payload in self._pending
        )

    # -- the one interpreter of a nemesis event ------------------------------

    def apply(self, event: Any) -> None:
        """Inject one nemesis event: its ``kind`` is one of :data:`KINDS`
        and its ``args`` hold the draws the nemesis made for it (see
        :class:`repro.simtest.nemesis.NemesisEvent`)."""
        kind = event.kind
        if kind not in KIND_ARGS:
            raise ValueError(f"unknown nemesis event kind {kind!r}")
        args = {
            name: convert(event.args[name])
            for name, convert in KIND_ARGS[kind].items()
        }
        if kind in HOST_FAULT_KINDS and self._holds_down(args["host"]):
            return
        if kind == CRASH_KIND:
            self.inject_take_down(args["host"], args["outage"])
        elif kind == PARTITION_KIND:
            self.inject_partition(
                args["a"], args["b"], args["mode"], args["duration"],
                loss=args["loss"],
            )
        elif kind == FLAP_KIND:
            self.inject_flap(
                args["host"], args["up"], args["down"], args["duration"]
            )
        elif kind == BREAKER_FLAP_KIND:
            self.inject_fault_burst(args["host"], args["size"])
        elif kind == LATENCY_SPIKE_KIND:
            self.inject_latency_spike(
                args["host"], args["magnitude"], args["duration"]
            )
        elif kind == DISK_FULL_KIND:
            self.inject_disk_full(args["host"], args["duration"])
        elif kind == CLOCK_STALL_KIND:
            self.clock.advance(args["seconds"])

    # -- the fault primitives ------------------------------------------------

    def inject_take_down(self, host: str, duration: float) -> None:
        """Kill *host* now; schedule its repair (and durable rebuild)."""
        self.network.take_down(host)
        self._schedule(self.clock.now + duration, "repair", host)
        self.faults_injected += 1
        self._record(
            TAKE_DOWN, f"{host} down for {duration:.3f}s", host,
            duration=f"{duration:.6f}",
        )

    def inject_fault_burst(self, host: str, size: int) -> bool:
        """Arm *size* transport failures at *host*; returns whether armed.

        Bursts never stack on unconsumed charges: a circuit breaker diverts
        traffic away from a faulty host, and piled-up charges would turn a
        blip into a permanent outage no probe can ever clear.
        """
        if self.network.pending_failures(host) != 0:
            return False
        self.network.fail_next(host, times=size)
        self.faults_injected += 1
        self._record(
            FAULT_BURST, f"{size} injected failures at {host}", host, size=size,
        )
        return True

    def inject_latency_spike(
        self, host: str, magnitude: float, duration: float
    ) -> None:
        """Add *magnitude* virtual seconds to every request hitting *host*
        until the spike ends *duration* seconds from now."""
        self.network.set_latency_spike(host, 1.0, magnitude)
        self._schedule(self.clock.now + duration, "end-spike", host)
        self.faults_injected += 1
        self._record(
            LATENCY_SPIKE, f"+{magnitude:.3f}s latency at {host}", host,
            magnitude=f"{magnitude:.6f}", duration=f"{duration:.6f}",
        )

    def inject_flap(
        self, host: str, up_for: float, down_for: float, duration: float
    ) -> None:
        """Make *host* flap up/down until a repair ends the episode."""
        self.network.set_flapping(host, up_for, down_for)
        self._schedule(self.clock.now + duration, "repair", host)
        self.faults_injected += 1
        self._record(
            FLAP,
            f"{host} flapping {up_for}/{down_for}s for {duration:.3f}s",
            host,
            duration=f"{duration:.6f}",
        )

    def inject_disk_full(self, host: str, duration: float) -> None:
        """Refuse journal appends on *host*'s disk until space frees up."""
        self.network.disk(host).set_full(True)
        self._schedule(self.clock.now + duration, "free-disk", host)
        self.faults_injected += 1
        self._record(
            DISK_FULL, f"{host} disk full for {duration:.3f}s", host,
            duration=f"{duration:.6f}",
        )

    def inject_partition(
        self,
        region_a: str,
        region_b: str,
        mode: str,
        duration: float,
        *,
        loss: float = 0.75,
    ) -> int:
        """Cut regions *region_a* and *region_b* apart; schedule the heal.

        ``mode`` is one of ``full`` / ``oneway`` / ``partial`` (see
        :class:`~repro.transport.network.PartitionSpec`); *loss* is a
        partial cut's per-attempt drop probability.  Returns the network
        partition id.
        """
        side_a = set(self.regions[region_a])
        side_b = set(self.regions[region_b])
        if mode == "oneway":
            partition_id = self.network.partition_oneway(side_a, side_b)
        elif mode == "partial":
            partition_id = self.network.partition_partial(side_a, side_b, loss)
        else:
            partition_id = self.network.partition(side_a, side_b)
        label = f"{region_a}|{region_b}"
        self._schedule(
            self.clock.now + duration, "heal-partition", (partition_id, label)
        )
        self.faults_injected += 1
        self.partitions_injected += 1
        self._record(
            PARTITION,
            f"{mode} partition {label} for {duration:.3f}s",
            label,
            mode=mode,
            duration=f"{duration:.6f}",
            partition=partition_id,
        )
        return partition_id

    # -- applying deferred effects -------------------------------------------

    def apply_due(self, now: float | None = None) -> None:
        """Apply every deferred effect due by *now* in ``(due, id)`` order."""
        if now is None:
            now = self.clock.now
        due = sorted(event for event in self._pending if event[0] <= now)
        self._pending = [event for event in self._pending if event[0] > now]
        for _due, _event_id, action, payload in due:
            if action == "repair":
                self.network.bring_up(payload)
                self._record(REPAIR, f"{payload} repaired", payload)
                self._restart(payload)
            elif action == "heal-partition":
                partition_id, label = payload
                self.network.heal_partition(partition_id)
                self._record(
                    PARTITION_HEAL, f"partition {label} healed", label,
                    partition=partition_id,
                )
            elif action == "end-spike":
                self.network.set_latency_spike(payload, 0.0, 0.0)
            else:  # "free-disk"
                self.network.disk(payload).set_full(False)

    def _restart(self, host: str) -> None:
        """Re-deploy a repaired host's services from its surviving disk."""
        rebuilder = self.rebuilders.get(host)
        if rebuilder is None:
            return
        rebuilder()
        self.restarts_performed += 1
        self._record(RESTART, f"{host} services rebuilt from journal", host)

    def heal_all(self) -> None:
        """Apply every pending effect now and disarm leftover failure
        charges (end-of-run cleanup)."""
        self.apply_due(math.inf)
        for host in self.hosts:
            self.network.clear_failures(host)


@dataclass
class ChaosReport:
    """Outcome of one harness run."""

    iterations: int = 0
    successes: int = 0
    client_errors: list[str] = field(default_factory=list)
    faults_injected: int = 0
    events: list[dict] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.successes / self.iterations if self.iterations else 0.0


class ChaosHarness:
    """Runs a workload under a nemesis schedule, collecting the event stream.

    Before iteration ``i`` the monkey applies the deferred effects due by
    now, then every scheduled event with ``t <= i``: a schedule's times
    count iterations, its durations are virtual seconds.  The workload is
    any callable taking the iteration index; client-visible errors (portal
    errors and transport failures that escape the workload's own
    resilience) are recorded, not raised — the report says how well the
    resilience layer absorbed the schedule.
    """

    def __init__(self, monkey: ChaosMonkey):
        self.monkey = monkey
        self.log = monkey.log

    def run(
        self, workload: Callable[[int], Any], schedule: Any, iterations: int
    ) -> ChaosReport:
        """Drive *workload* for *iterations* under *schedule* (a
        :class:`repro.simtest.nemesis.NemesisSchedule`), then heal."""
        report = ChaosReport(iterations=iterations)
        events = collections.deque(schedule.events)
        for index in range(iterations):
            self.monkey.apply_due()
            while events and events[0].t <= index:
                self.monkey.apply(events.popleft())
            try:
                workload(index)
            except (PortalError, TransportError) as err:
                code = (
                    err.code if isinstance(err, PortalError)
                    else type(err).__name__
                )
                report.client_errors.append(code)
                self.log.record(
                    "Chaos.ClientError",
                    f"workload iteration {index} failed: {code}",
                    service="chaos",
                    operation=f"iteration-{index}",
                    detail={"error": code},
                )
            else:
                report.successes += 1
        self.monkey.heal_all()
        report.faults_injected = self.monkey.faults_injected
        report.events = self.log.to_dicts()
        return report
