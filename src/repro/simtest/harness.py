"""The deterministic simulation harness: one seeded run of the whole portal.

:class:`SimulationRun` stands up the full :class:`PortalDeployment`
(observability on, durable journals, two replicated regions), drives a
realistic portal workload — job submissions with idempotency keys,
metascheduler placements under deadlines, quorum context writes, registry
mutations, anti-entropy gossip — while a :class:`NemesisSchedule` injects
faults, and checks every registered invariant oracle after every tick.

Everything is derived from one seed: the virtual network, the retry
jitter, the nemesis schedule, the observability id generator.  Two runs
with the same seed and schedule produce byte-identical
:class:`RunResult` digests — which is what makes a failing seed a *repro*
and lets :mod:`repro.simtest.shrink` bisect schedules meaningfully.

A *canary* deliberately re-introduces a known bug class (e.g. acking a
batch before its journal record is durable) so the sweep can prove the
oracles actually catch what they claim to.
"""

from __future__ import annotations

import collections
import hashlib
import json
from dataclasses import dataclass, field

from repro.faults import PortalError
from repro.grid.jobs import JobSpec
from repro.loadmgmt.metascheduler import METASCHEDULER_NAMESPACE
from repro.observability import Observability, default_slos
from repro.portal.uiserver import PortalDeployment
from repro.resilience.chaos import ChaosMonkey
from repro.resilience.policy import RetryPolicy, set_hop_listener
from repro.services.jobsubmit import (
    GLOBUSRUN_NAMESPACE,
    deploy_globusrun,
    jobs_to_xml,
)
from repro.simtest import nemesis as nem
from repro.simtest.nemesis import (
    BreakerFlapNemesis,
    ClockStallNemesis,
    CrashNemesis,
    DiskFullNemesis,
    FlapNemesis,
    LatencySpikeNemesis,
    MidWriteCrashNemesis,
    NemesisSchedule,
    PartitionNemesis,
    compose,
)
from repro.simtest.oracles import Oracle, Violation, registered_oracles
from repro.soap.client import SoapClient
from repro.soap.message import SoapFaultError
from repro.transport.network import ServiceCrash, TransportError, VirtualNetwork

RESULT_SCHEMA = "repro.simtest.result/v1"

GLOBUSRUN_HOST = "globusrun.sdsc.edu"
REGIONS = ("iu", "sdsc")
DEFAULT_TICKS = 30
MAX_HEAL_ROUNDS = 12
#: trace-collector ring bound (spans) — 200-seed sweeps must not grow
#: memory without bound, and the bound must be generous enough that a
#: normal run never evicts (eviction order is deterministic regardless)
COLLECTOR_CAPACITY = 4096

#: errors the workload absorbs — the *system* may degrade under faults;
#: only the oracles decide whether an invariant actually broke
WORKLOAD_ERRORS = (PortalError, SoapFaultError, TransportError, ConnectionError)


# ---------------------------------------------------------------------------
# canaries: deliberately re-introduced bug classes the oracles must catch
# ---------------------------------------------------------------------------


class _UnflushedJournal:
    """The ack-before-fsync bug, as a journal: appends are buffered in
    process memory and never reach the host disk.

    The running process sees its own writes (``records()`` includes the
    buffer), so everything *looks* healthy — until a crash, when the fresh
    incarnation replays only what the disk actually holds and every batch
    acked from the buffer is gone.
    """

    def __init__(self, inner):
        self.disk = inner.disk
        self.name = inner.name
        self.clock = inner.clock
        self._inner = inner
        self._buffered: list = []

    def append(self, kind: str, **data):
        from repro.durability.journal import (
            GENESIS_CRC,
            JournalRecord,
            _crc,
        )
        from repro.faults import ResourceExhaustedError

        if getattr(self.disk, "full", False):
            raise ResourceExhaustedError(
                f"disk on {self.disk.host!r} is full; "
                f"cannot append to journal {self.name!r}",
                {"host": self.disk.host, "journal": self.name},
            )
        log = list(self._inner.records()) + self._buffered
        prev_crc = log[-1].crc if log else GENESIS_CRC
        record = JournalRecord(
            seq=len(log) + 1,
            kind=kind,
            data=data,
            t=self.clock.now if self.clock is not None else 0.0,
        )
        record = JournalRecord(
            seq=record.seq, kind=record.kind, data=record.data, t=record.t,
            crc=_crc(record.payload(prev_crc)),
        )
        self._buffered.append(record)  # never hits the disk
        return record

    def records(self):
        return tuple(self._inner.records()) + tuple(self._buffered)

    def __len__(self):
        return len(self.records())


def _canary_ack_before_fsync(world: "SimWorld") -> None:
    """Swap the globusrun journal for the buffering impostor (re-applied
    after every restart, as a real regression would be)."""
    service = world.deployment.globusrun
    if service.journal is not None and not isinstance(
        service.journal, _UnflushedJournal
    ):
        service.journal = _UnflushedJournal(service.journal)


CANARIES = {
    "ack-before-fsync": _canary_ack_before_fsync,
}


# ---------------------------------------------------------------------------
# the simulated world
# ---------------------------------------------------------------------------


@dataclass
class SimWorld:
    """Everything an oracle may inspect: the omniscient observer's view."""

    network: VirtualNetwork
    deployment: PortalDeployment
    monkey: ChaosMonkey
    #: batch ids the globusrun endpoint acknowledged to a client
    acked_batches: list = field(default_factory=list)
    #: context op seqs the quorum coordinator acknowledged
    acked_context: list = field(default_factory=list)
    #: every dispatched SOAP hop's (enclosing, inbound) deadline pair
    hop_records: list = field(default_factory=list)
    #: every ProvenanceStore a workflow run produced (one per journal)
    workflow_stores: list = field(default_factory=list)
    #: (store, sealed record address) for every stage completion the
    #: executor acknowledged in a WorkflowResult
    acked_stage_records: list = field(default_factory=list)
    workflows_run: int = 0
    workflow_stages_ok: int = 0
    workflow_stages_failed: int = 0
    restarts: int = 0
    client_errors: int = 0
    phase: str = "build"
    _clients: list = field(default_factory=list)
    _hop_cursor: int = 0
    _resolved: set = field(default_factory=set)

    @property
    def clock(self):
        return self.network.clock

    @property
    def collector(self):
        obs = self.deployment.observability
        return obs.collector if obs is not None else None

    @property
    def slo_engine(self):
        obs = self.deployment.observability
        return obs.slo if obs is not None else None

    @property
    def context_store(self):
        replication = self.deployment.replication
        return replication.context if replication is not None else None

    def clients(self) -> list:
        return list(self._clients)

    def new_hop_records(self) -> list:
        """Hop records added since the last call (a consuming cursor, so
        tick oracles never re-flag an already-reported hop)."""
        fresh = self.hop_records[self._hop_cursor:]
        self._hop_cursor = len(self.hop_records)
        return fresh

    def spans_near(self, limit: int = 3) -> list:
        """The most recent trace spans — attached to violation reports so
        a failure comes with the telemetry describing it."""
        collector = self.collector
        if collector is None:
            return []
        return [
            {
                "name": span.get("name", ""),
                "service": span.get("service", ""),
                "start": span.get("start", 0.0),
                "end": span.get("end", 0.0),
            }
            for span in collector.spans()[-limit:]
        ]

    def restart(self, host: str) -> None:
        """Supervisor semantics: the process died, bounce it from disk."""
        rebuilder = self.deployment.rebuilders.get(host)
        if rebuilder is None:
            return
        if self.network.is_up(host):
            self.network.take_down(host)
        self.network.bring_up(host)
        rebuilder()
        self.restarts += 1


# ---------------------------------------------------------------------------
# run result
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """One seeded run's verdict, canonically serializable."""

    seed: str
    ticks: int
    schedule: NemesisSchedule
    violations: list
    stats: dict

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        body = {
            "schema": RESULT_SCHEMA,
            "seed": self.seed,
            "ticks": self.ticks,
            "verdict": "pass" if self.passed else "fail",
            "events": len(self.schedule),
            "violations": [v.to_dict() for v in self.violations],
            "stats": {key: self.stats[key] for key in sorted(self.stats)},
        }
        body["digest"] = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()
        ).hexdigest()
        return body


# ---------------------------------------------------------------------------
# the default nemesis battery
# ---------------------------------------------------------------------------


def default_composition(regions: tuple[str, ...] = REGIONS):
    """The standard adversity mix for a portal deployment."""
    replica_hosts = tuple(f"replica.{region}.portal.org" for region in regions)
    crashable = (GLOBUSRUN_HOST,) + replica_hosts
    return compose(
        PartitionNemesis(regions),
        CrashNemesis(crashable),
        MidWriteCrashNemesis(GLOBUSRUN_HOST),
        FlapNemesis(replica_hosts),
        BreakerFlapNemesis((GLOBUSRUN_HOST,)),
        LatencySpikeNemesis(crashable),
        DiskFullNemesis((GLOBUSRUN_HOST,)),
        ClockStallNemesis(),
    )


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class SimulationRun:
    """One deterministic simulation: seed in, verdict out."""

    def __init__(
        self,
        seed,
        *,
        ticks: int = DEFAULT_TICKS,
        schedule: NemesisSchedule | None = None,
        canary: str = "",
        oracles: list[Oracle] | None = None,
        stop_on_violation: bool = False,
    ):
        self.seed = str(seed)
        self.ticks = ticks
        self.schedule = (
            schedule
            if schedule is not None
            else default_composition().schedule(self.seed, ticks)
        )
        if canary and canary not in CANARIES:
            raise ValueError(
                f"unknown canary {canary!r}; have {sorted(CANARIES)}"
            )
        self.canary = canary
        self.oracles = oracles if oracles is not None else registered_oracles()
        #: shrink probes set this: stop at the first violation instead of
        #: collecting the full picture, since only fail/pass matters there
        self.stop_on_violation = stop_on_violation

    # -- world assembly -------------------------------------------------------

    def _seed_int(self, label: str) -> int:
        digest = hashlib.sha256(f"{self.seed}/{label}".encode()).hexdigest()
        return int(digest[:12], 16)

    def _build_world(self) -> SimWorld:
        network = VirtualNetwork(seed=self._seed_int("network"))
        deployment = PortalDeployment.build(
            network,
            observe=True,
            observe_seed=self._seed_int("observe"),
            sampling=True,
            collector_capacity=COLLECTOR_CAPACITY,
            slos=default_slos(),
            regions=REGIONS,
            replication_seed=self._seed_int("replication"),
            durable=True,
        )
        replication = deployment.replication
        monkey = ChaosMonkey(
            network,
            [GLOBUSRUN_HOST] + list(replication.hosts()),
            log=deployment.resilience,
            regions=replication.region_groups(),
        )
        world = SimWorld(network=network, deployment=deployment, monkey=monkey)
        # wrap every rebuilder so a chaos repair re-applies the canary and
        # counts as a restart — a regression ships in the binary, so it
        # comes back with every fresh process
        for host, rebuilder in sorted(deployment.rebuilders.items()):
            def wrapped(original=rebuilder):
                original()
                world.restarts += 1
                self._apply_canary(world)
            monkey.rebuilders[host] = wrapped
            deployment.rebuilders[host] = wrapped
        self._apply_canary(world)
        self._build_clients(world)
        return world

    def _apply_canary(self, world: SimWorld) -> None:
        if self.canary:
            CANARIES[self.canary](world)

    def _build_clients(self, world: SimWorld) -> None:
        endpoints = world.deployment.endpoints
        submit = SoapClient(
            world.network,
            endpoints["globusrun"],
            GLOBUSRUN_NAMESPACE,
            source="ui.gridportal.org",
            retry_policy=RetryPolicy(max_attempts=3),
            retry_seed=self._seed_int("submit-retry"),
            service_name="globusrun",
        )
        meta = SoapClient(
            world.network,
            endpoints["metascheduler"],
            METASCHEDULER_NAMESPACE,
            source="ui.gridportal.org",
            retry_policy=RetryPolicy(max_attempts=2),
            retry_seed=self._seed_int("meta-retry"),
            service_name="metascheduler",
        )
        # deliberately retry-free: the crash-mid-write driver must *see*
        # the ServiceCrash so it can play supervisor and bounce the host
        plain = SoapClient(
            world.network,
            endpoints["globusrun"],
            GLOBUSRUN_NAMESPACE,
            source="ui.gridportal.org",
            service_name="globusrun-plain",
        )
        world._clients = [submit, meta, plain]
        self._submit, self._meta, self._plain = submit, meta, plain
        from repro.shell.runtime import WorkflowRuntime

        self._wf_runtime = WorkflowRuntime.from_deployment(world.deployment)

    # -- the one event kind the monkey cannot apply ----------------------------

    def _crash_mid_write(self, world: SimWorld, host: str) -> None:
        """Kill the globusrun process in the middle of resolving a batch,
        then play supervisor: restart it from its surviving disk."""
        service = world.deployment.globusrun
        pending = [
            batch for batch in world.acked_batches
            if batch not in world._resolved
        ]
        if not pending:
            try:
                batch = self._plain.call(
                    "submit_async", self._jobs_xml(world, "midwrite", 2),
                    idempotency_key=f"mid-{self.seed}-{world.clock.now:.0f}",
                )
                world.acked_batches.append(batch)
                pending = [batch]
            except WORKLOAD_ERRORS:
                world.client_errors += 1
                return
        service.crash_after_jobs = 1
        try:
            self._plain.call("result", pending[0])
            world._resolved.add(pending[0])
        except ServiceCrash:
            world.restart(host)
        except WORKLOAD_ERRORS:
            world.client_errors += 1
        finally:
            service.crash_after_jobs = None

    # -- workload -------------------------------------------------------------

    def _jobs_xml(self, world: SimWorld, name: str, count: int = 1) -> str:
        contacts = sorted(world.deployment.testbed)
        contact = contacts[len(world.acked_batches) % len(contacts)]
        return jobs_to_xml([
            (contact, JobSpec(
                name=f"{name}-{i}", executable="echo", arguments=[name],
            ))
            for i in range(count)
        ])

    def _workload(self, world: SimWorld, tick: int) -> None:
        replication = world.deployment.replication
        store = world.context_store
        # registry churn: alternate which region takes the write, so
        # anti-entropy always has something to reconcile
        region = REGIONS[tick % len(REGIONS)]
        replication.nodes[region].registry.soap_register(
            f"/services/sim/{self.seed}/{tick}",
            {"tick": str(tick), "region": region},
        )
        if tick % 2 == 0 and store is not None:
            try:
                seq = store.create(f"/sim/{self.seed}/ctx-{tick}")
                world.acked_context.append(seq)
            except WORKLOAD_ERRORS:
                world.client_errors += 1
        if tick % 2 == 1:
            try:
                batch = self._submit.call(
                    "submit_async", self._jobs_xml(world, f"t{tick}"),
                    timeout=20.0,
                    idempotency_key=f"sim-{self.seed}-{tick}",
                )
                world.acked_batches.append(batch)
            except WORKLOAD_ERRORS:
                world.client_errors += 1
        if tick % 4 == 0:
            # the metascheduler path: a deadline-carrying hop that fans out
            # into nested placement + submission hops — the budget oracle's
            # natural prey
            try:
                self._meta.call(
                    "run_xml", self._jobs_xml(world, f"meta{tick}"),
                    timeout=30.0,
                )
            except WORKLOAD_ERRORS:
                world.client_errors += 1
        if tick % 3 == 0:
            pending = [
                batch for batch in world.acked_batches
                if batch not in world._resolved
            ]
            if pending:
                try:
                    self._submit.call("result", pending[0], timeout=20.0)
                    world._resolved.add(pending[0])
                except WORKLOAD_ERRORS:
                    world.client_errors += 1
        if tick % 3 == 2:
            replication.run_anti_entropy(1)
        if tick % 6 == 3:
            # a three-stage pipeline through the workflow engine: placement
            # -> durable submission -> SRB collect, journaled on the UI
            # host's disk; the workflow-provenance oracle audits its stores
            self._run_workflow(world, tick)
        # one SLO evaluation per tick: snapshot the RED counters into a
        # time bucket and transition burn-rate alerts, so the slo-burn
        # oracle checks alert state at the tick that changed it
        engine = world.slo_engine
        if engine is not None:
            engine.evaluate()

    def _run_workflow(self, world: SimWorld, tick: int) -> None:
        """One seeded pipeline run through :mod:`repro.shell`.

        A :class:`ServiceCrash` surfacing mid-DAG kills the executor;
        the harness plays supervisor — bounce the host, open a *new*
        executor over the same journal, and let recovery re-drive only
        the unfinished stages.
        """
        from repro.durability.journal import Journal
        from repro.shell import (
            GlobusrunStage,
            MetaScheduleStage,
            SrbPutStage,
            Workflow,
            WorkflowExecutor,
            const,
            ref,
        )

        jobs = jobs_to_xml([
            ("", JobSpec(
                name=f"wf{tick}", executable="echo", arguments=[f"wf-{tick}"],
            ))
        ])
        workflow = Workflow("sim-pipeline", [
            MetaScheduleStage("place", inputs={"jobs": const(jobs)}),
            GlobusrunStage("run", inputs={"jobs": ref("place", "placed")}),
            SrbPutStage(
                "collect",
                path=f"/home/portal/sim-wf-{tick}.out",
                inputs={"results": ref("run", "results")},
            ),
        ])
        disk = world.network.disk("ui.gridportal.org")
        load = world.deployment.load
        admission = load.controllers.get("Globusrun") if load else None

        def attempt():
            journal = Journal(disk, f"wf-sim-{tick}", clock=world.clock)
            executor = WorkflowExecutor(
                workflow,
                self._wf_runtime,
                journal=journal,
                run_id=f"sim-{self.seed}-wf-{tick}",
                seed=self._seed_int(f"wf-{tick}"),
                admission=admission,
                max_width=2,
            )
            return executor, executor.run()

        try:
            executor, result = attempt()
        except ServiceCrash:
            world.restart(GLOBUSRUN_HOST)
            try:
                executor, result = attempt()  # resume from the journal
            except (ServiceCrash, *WORKLOAD_ERRORS):
                world.client_errors += 1
                return
        except WORKLOAD_ERRORS:
            world.client_errors += 1
            return
        world.workflow_stores.append(executor.store)
        world.workflows_run += 1
        world.workflow_stages_ok += len(result.completed)
        world.workflow_stages_failed += len(result.failed)
        for stage in sorted(result.completed):
            world.acked_stage_records.append(
                (executor.store, result.completed[stage])
            )

    # -- oracle plumbing ------------------------------------------------------

    def _check(self, world, phase: str, violations, seen) -> None:
        for oracle in self.oracles:
            if phase not in oracle.when:
                continue
            for violation in oracle.check(world):
                key = (violation.oracle, violation.message)
                if key in seen:
                    continue
                seen.add(key)
                violations.append(violation)

    # -- heal -----------------------------------------------------------------

    def _heal(self, world: SimWorld) -> None:
        world.phase = "heal"
        world.monkey.heal_all()
        replication = world.deployment.replication
        rounds = 0
        while not replication.converged() and rounds < MAX_HEAL_ROUNDS:
            replication.run_anti_entropy(1)
            world.clock.advance(1.0)
            rounds += 1
        store = world.context_store
        if store is not None:
            store.sync_all()
        engine = world.slo_engine
        if engine is not None:
            # drain the burn-rate windows on the healed clock: with the
            # faults gone and no new bad requests, every alert's fast
            # window must empty within a few rounds — "alerts clear after
            # heal" is an invariant the slo-burn oracle holds us to
            engine.evaluate()
            rounds = 0
            while engine.active and rounds < MAX_HEAL_ROUNDS:
                world.clock.advance(1.0)
                engine.evaluate()
                rounds += 1

    # -- entry point ----------------------------------------------------------

    def run(self) -> RunResult:
        world = self._build_world()
        violations: list[Violation] = []
        seen: set = set()
        set_hop_listener(world.hop_records.append)
        try:
            world.phase = "run"
            events = collections.deque(self.schedule.events)
            for tick in range(1, self.ticks + 1):
                world.clock.advance(1.0)
                while events and events[0].t <= tick:
                    event = events.popleft()
                    if event.kind == nem.CRASH_MID_WRITE:
                        self._crash_mid_write(world, event.args["host"])
                    else:
                        world.monkey.apply(event)
                world.monkey.apply_due()
                self._workload(world, tick)
                self._check(world, "tick", violations, seen)
                if violations and self.stop_on_violation:
                    break
            if not (violations and self.stop_on_violation):
                self._heal(world)
                world.phase = "final"
                self._check(world, "final", violations, seen)
        finally:
            set_hop_listener(None)
            Observability.uninstall(world.network)
        obs = world.deployment.observability
        engine = obs.slo if obs is not None else None
        sampler = obs.sampler if obs is not None else None
        stats = {
            "faults_injected": world.monkey.faults_injected,
            "partitions_injected": world.monkey.partitions_injected,
            "restarts": world.restarts,
            "client_errors": world.client_errors,
            "acked_batches": len(world.acked_batches),
            "acked_context": len(world.acked_context),
            "workflows_run": world.workflows_run,
            "workflow_stages_ok": world.workflow_stages_ok,
            "workflow_stages_failed": world.workflow_stages_failed,
            "acked_stage_records": len(world.acked_stage_records),
            "hops_observed": len(world.hop_records),
            "slo_alerts_fired": sum(
                1 for entry in (engine.alert_log if engine else ())
                if entry["state"] == "firing"
            ),
            "slo_alerts_active": len(engine.active) if engine else 0,
            # the sampler was flushed by uninstall, so the ledger is final
            "traces_kept": sampler.kept_traces if sampler else 0,
            "traces_dropped": sampler.dropped_traces if sampler else 0,
            "final_clock": round(world.clock.now, 6),
        }
        return RunResult(
            seed=self.seed,
            ticks=self.ticks,
            schedule=self.schedule,
            violations=violations,
            stats=stats,
        )


# kept importable for deployment-level tests that bounce globusrun directly
__all__ = [
    "CANARIES",
    "DEFAULT_TICKS",
    "GLOBUSRUN_HOST",
    "RESULT_SCHEMA",
    "RunResult",
    "SimWorld",
    "SimulationRun",
    "default_composition",
    "deploy_globusrun",
]
