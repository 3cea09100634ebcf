"""The job-monitoring core service.

§5.4: a portal aggregates "interfaces to core services such as file
transfer or job monitoring that may interest a user", and the application
descriptor schema (:mod:`repro.appws.schemas`) lists ``monitoring`` among
the bindable core services.  This module provides that service: a SOAP face
over the grid testbed's schedulers offering qstat-style views, per-job
status, and grid-wide load — plus a ready-made portlet rendering it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.faults import ResourceNotFoundError
from repro.grid.resources import ComputeResource
from repro.portlets.base import Markup, Portlet, Row, _esc, html_table
from repro.soap.client import SoapClient
from repro.soap.server import SoapService
from repro.transport.network import VirtualNetwork
from repro.transport.server import HttpServer

MONITORING_NAMESPACE = "urn:gce:job-monitoring"


class JobMonitoringService:
    """Aggregated, read-only views over every testbed scheduler, plus the
    portal-wide resilience event stream (retries, breaker trips, failovers
    — see :mod:`repro.resilience.events`)."""

    def __init__(
        self,
        resources: dict[str, ComputeResource],
        resilience_log=None,
        network: VirtualNetwork | None = None,
        observability=None,
        load=None,
        replication=None,
    ):
        self.resources = resources
        self.resilience_log = resilience_log
        #: lets the recovery views inventory journals on host disks
        self.network = network
        #: explicit bundle, falling back to the network's ambient one
        self.observability = observability
        #: a :class:`repro.loadmgmt.LoadRegistry` of admission controllers
        self.load = load
        #: a :class:`repro.replication.MultiRegionReplication` topology
        self.replication = replication
        self.queries_served = 0

    def _obs(self):
        if self.observability is not None:
            return self.observability
        return getattr(self.network, "observability", None)

    def _resource(self, host: str) -> ComputeResource:
        resource = self.resources.get(host)
        if resource is None:
            raise ResourceNotFoundError(
                f"monitoring knows no resource {host!r}", {"host": host}
            )
        return resource

    # -- exposed methods ----------------------------------------------------------

    def hosts(self) -> list[str]:
        """The monitored compute resources."""
        return sorted(self.resources)

    def grid_load(self) -> list[dict[str, Any]]:
        """One row per resource: queuing system, cpu counts, queue depth."""
        self.queries_served += 1
        rows: list[dict[str, Any]] = []
        for host in sorted(self.resources):
            resource = self.resources[host]
            scheduler = resource.scheduler
            records = scheduler.jobs()
            rows.append({
                "host": host,
                "system": resource.queuing_system,
                "cpus": scheduler.cpus,
                "free_cpus": scheduler.free_cpus,
                "running": sum(1 for r in records if r.state.value == "running"),
                "queued": sum(1 for r in records if r.state.value == "queued"),
                "completed": scheduler.completed_count,
            })
        return rows

    def qstat(self, host: str) -> list[dict[str, Any]]:
        """The scheduler's full job table for one resource."""
        self.queries_served += 1
        return self._resource(host).scheduler.qstat()

    def job_status(self, host: str, job_id: str) -> dict[str, Any]:
        """One job's summary row (faults if unknown)."""
        self.queries_served += 1
        return self._resource(host).scheduler.job(job_id).summary()

    def user_jobs(self, logname: str) -> list[dict[str, Any]]:
        """Every job across the grid whose LOGNAME matches *logname*."""
        self.queries_served += 1
        rows: list[dict[str, Any]] = []
        for host in sorted(self.resources):
            for record in self.resources[host].scheduler.jobs():
                if record.spec.environment.get("LOGNAME") == logname:
                    rows.append(record.summary())
        return rows

    def resilience_events(self, limit: int = 0) -> list[dict[str, Any]]:
        """The portal's resilience event stream, most recent last.

        ``limit`` > 0 returns only the trailing *limit* events.
        """
        self.queries_served += 1
        if self.resilience_log is None:
            return []
        events = self.resilience_log.to_dicts()
        return events[-int(limit):] if limit and int(limit) > 0 else events

    def resilience_summary(self) -> list[dict[str, Any]]:
        """Event counts grouped by code (the portlet's headline numbers)."""
        self.queries_served += 1
        if self.resilience_log is None:
            return []
        counts: dict[str, int] = {}
        for event in self.resilience_log.events:
            counts[event.code] = counts.get(event.code, 0) + 1
        return [
            {"code": code, "count": counts[code]} for code in sorted(counts)
        ]

    # -- load-management views (see repro.loadmgmt) --------------------------------

    def load_lanes(self) -> list[dict[str, Any]]:
        """One row per (service, principal lane): weight, priority, arrival
        and shed counts, queue-wait stats — the fair-share ledger."""
        self.queries_served += 1
        if self.load is None:
            return []
        return self.load.lane_rows()

    def load_summary(self) -> list[dict[str, Any]]:
        """One headline row per admission-controlled service."""
        self.queries_served += 1
        if self.load is None:
            return []
        return self.load.summaries()

    def queue_load(self) -> list[dict[str, Any]]:
        """One row per scheduler queue across the grid: depth, running,
        completed, and trailing drain rate."""
        self.queries_served += 1
        rows: list[dict[str, Any]] = []
        for host in sorted(self.resources):
            rows.extend(self.resources[host].scheduler.queue_stats())
        return rows

    # -- replication views (see repro.replication) ---------------------------------

    def replication_summary(self) -> list[dict[str, Any]]:
        """One row per region: replication lag, hint backlog, last heal.

        Lag and backlog are sampled live from the topology, and mirrored
        into gauges (``replication_lag``, ``hint_backlog``) when the
        observability layer is installed — a level, not a flow, so the
        freshest value wins, like the queue-depth gauges above.
        """
        self.queries_served += 1
        if self.replication is None:
            return []
        last_heal = self._last_partition_heal()
        rows = self.replication.replication_rows()
        obs = self._obs()
        for row in rows:
            row["last_heal_t"] = last_heal
            if obs is not None:
                obs.metrics.set_gauge(
                    "replication_lag", row["region"], max(row["lag_s"], 0.0)
                )
                obs.metrics.set_gauge(
                    "hint_backlog", row["region"], row["hint_backlog"]
                )
        return rows

    def _last_partition_heal(self) -> float:
        """Virtual time of the most recent partition heal, or -1.0."""
        if self.resilience_log is None:
            return -1.0
        last = -1.0
        for event in self.resilience_log.events:
            if event.code == "Chaos.PartitionHeal":
                try:
                    last = max(last, float(event.detail.get("t", -1.0)))
                except (TypeError, ValueError):
                    continue
        return last

    # -- recovery views (see repro.durability) -------------------------------------

    def journals(self) -> list[dict[str, Any]]:
        """One row per durable journal on any host disk: host, journal name,
        record count — the operator's inventory of recoverable state."""
        self.queries_served += 1
        if self.network is None:
            return []
        from repro.durability.journal import Journal

        rows: list[dict[str, Any]] = []
        for host in sorted(self.network.hosts()):
            disk = self.network.disk(host)
            for name in sorted(disk.log_names()):
                journal = Journal(disk, name)
                rows.append({
                    "host": host,
                    "journal": name,
                    "records": len(journal),
                })
        return rows

    def recovery_summary(self) -> list[dict[str, Any]]:
        """Counts of durability events (orphans found, reconciled, recovery
        replays) from the resilience stream."""
        self.queries_served += 1
        if self.resilience_log is None:
            return []
        counts: dict[str, int] = {}
        for event in self.resilience_log.events:
            if event.code.startswith("Durability."):
                counts[event.code] = counts.get(event.code, 0) + 1
        return [
            {"code": code, "count": counts[code]} for code in sorted(counts)
        ]

    # -- observability views (see repro.observability) -----------------------------

    def traces(self, limit: int = 0) -> list[dict[str, Any]]:
        """One summary row per collected trace, oldest first.

        ``limit`` > 0 returns only the trailing *limit* traces.
        """
        self.queries_served += 1
        obs = self._obs()
        if obs is None:
            return []
        rows = obs.collector.traces()
        return rows[-int(limit):] if limit and int(limit) > 0 else rows

    def trace_tree(self, trace_id: str) -> list[dict[str, Any]]:
        """One trace's spans, depth-annotated in tree order."""
        self.queries_served += 1
        obs = self._obs()
        if obs is None:
            return []
        return obs.collector.tree(trace_id)

    def metrics_summary(self) -> dict[str, list[dict[str, Any]]]:
        """RED rows, gauges, and event counters.

        Queue-depth gauges are sampled from the schedulers at read time —
        depth is a level, not a flow, so the freshest value wins.
        """
        self.queries_served += 1
        obs = self._obs()
        if obs is None:
            return {"red": [], "gauges": [], "events": []}
        for host in sorted(self.resources):
            scheduler = self.resources[host].scheduler
            queued = sum(
                1 for r in scheduler.jobs() if r.state.value == "queued"
            )
            obs.metrics.set_gauge("queue_depth", host, queued)
            for row in scheduler.queue_stats():
                label = f"{row['host']}/{row['queue']}"
                obs.metrics.set_gauge("queue_depth", label, row["depth"])
                obs.metrics.set_gauge(
                    "queue_drain_rate", label, row["drain_rate"]
                )
        return obs.metrics.summary()

    def slowest_operations(self, limit: int = 10) -> list[dict[str, Any]]:
        """Server-side operations ranked slowest-first by mean latency."""
        self.queries_served += 1
        obs = self._obs()
        if obs is None:
            return []
        return obs.metrics.slowest(limit)

    def slo_summary(self) -> list[dict[str, Any]]:
        """One row per defined SLO: window totals, burn rate, alert state."""
        self.queries_served += 1
        obs = self._obs()
        if obs is None:
            return []
        return obs.slo.slo_summary()

    def slo_alerts(self, active_only: bool = True) -> list[dict[str, Any]]:
        """Firing burn-rate alerts with exemplar trace links — or, with
        ``active_only`` false, the full firing/resolved transition log."""
        self.queries_served += 1
        obs = self._obs()
        if obs is None:
            return []
        return obs.slo.alerts(bool(active_only))

    def sampling_summary(self) -> dict[str, Any]:
        """The tail sampler's retention ledger (kept/dropped, per-policy).

        An empty dict means sampling is off and the collector holds the
        full span population.
        """
        self.queries_served += 1
        obs = self._obs()
        if obs is None or obs.sampler is None:
            return {}
        return obs.sampler.accounting()


def deploy_monitoring(
    network: VirtualNetwork,
    resources: dict[str, ComputeResource],
    host: str = "monitor.gridportal.org",
    *,
    resilience_log=None,
    observability=None,
    load=None,
    replication=None,
) -> tuple[JobMonitoringService, str]:
    """Stand up the monitoring service; returns (impl, endpoint URL).

    The monitoring endpoint itself is never traced: it *is* the
    observability plane, and dashboard refreshes must not pollute the
    traces and RED series they display.
    """
    impl = JobMonitoringService(
        resources,
        resilience_log=resilience_log,
        network=network,
        observability=observability,
        load=load,
        replication=replication,
    )
    server = HttpServer(host, network)
    soap = SoapService("JobMonitoring", MONITORING_NAMESPACE)
    soap.traced = False
    soap.expose(impl.hosts)
    soap.expose(impl.grid_load)
    soap.expose(impl.qstat)
    soap.expose(impl.job_status)
    soap.expose(impl.user_jobs)
    soap.expose(impl.resilience_events)
    soap.expose(impl.resilience_summary)
    soap.expose(impl.load_lanes)
    soap.expose(impl.load_summary)
    soap.expose(impl.queue_load)
    soap.expose(impl.replication_summary)
    soap.expose(impl.journals)
    soap.expose(impl.recovery_summary)
    soap.expose(impl.traces)
    soap.expose(impl.trace_tree)
    soap.expose(impl.metrics_summary)
    soap.expose(impl.slowest_operations)
    soap.expose(impl.slo_summary)
    soap.expose(impl.slo_alerts)
    soap.expose(impl.sampling_summary)
    return impl, soap.mount(server, "/monitor")


class MonitoringPortlet(Portlet):
    """A dashboard window over the job-monitoring service.

    Its client is untraced, so dashboard refreshes never pollute the traces
    and RED series they display.
    """

    def __init__(
        self,
        network: VirtualNetwork,
        endpoint: str,
        *,
        name: str,
        title: str,
        source: str,
    ):
        super().__init__(name, title)
        self._client = SoapClient(
            network, endpoint, MONITORING_NAMESPACE, source=source, traced=False
        )


class GridLoadPortlet(MonitoringPortlet):
    """A local portlet rendering the monitoring service's grid-load view —
    the HotPage-style machine-status window."""

    def __init__(
        self,
        network: VirtualNetwork,
        endpoint: str,
        *,
        name: str = "grid-load",
        title: str = "Grid load",
        source: str = "portal",
    ):
        super().__init__(network, endpoint, name=name, title=title, source=source)

    def render(self, container_base: str) -> str:
        return html_table(
            "grid-load",
            ("host", "system", "free/total cpus", "running", "queued"),
            [
                (row["host"], row["system"], f"{row['free_cpus']}/{row['cpus']}",
                 row["running"], row["queued"])
                for row in self._client.call("grid_load")
            ],
        )


class ResilienceEventsPortlet(MonitoringPortlet):
    """The resilience window: headline counts by event code plus the tail of
    the retry/breaker-trip/failover stream, fetched over SOAP from the
    monitoring service."""

    def __init__(
        self,
        network: VirtualNetwork,
        endpoint: str,
        *,
        name: str = "resilience",
        title: str = "Resilience events",
        source: str = "portal",
        tail: int = 20,
    ):
        super().__init__(network, endpoint, name=name, title=title, source=source)
        self.tail = tail

    def render(self, container_base: str) -> str:
        summary = self._client.call("resilience_summary")
        events = self._client.call("resilience_events", self.tail)
        return html_table(
            "resilience-summary",
            ("event", "count"),
            map(itemgetter("code", "count"), summary),
        ) + html_table(
            "resilience-events",
            ("code", "service", "operation", "message"),
            map(itemgetter("code", "service", "operation", "message"), events),
        )


class TraceViewPortlet(MonitoringPortlet):
    """The span-waterfall window: one trace's tree with per-span timing
    bars, fetched over SOAP from the monitoring service.

    Renders the trace named by ``trace_id`` or, by default, the most
    recently collected one.
    """

    def __init__(
        self,
        network: VirtualNetwork,
        endpoint: str,
        *,
        name: str = "trace-view",
        title: str = "Trace view",
        source: str = "portal",
        trace_id: str = "",
    ):
        super().__init__(network, endpoint, name=name, title=title, source=source)
        self.trace_id = trace_id

    def render(self, container_base: str) -> str:
        trace_id = self.trace_id
        if not trace_id:
            summaries = self._client.call("traces", 1)
            if not summaries:
                return '<p class="trace-view">no traces collected</p>'
            trace_id = summaries[0]["trace_id"]
        rows = self._client.call("trace_tree", trace_id)
        if not rows:
            return (
                f'<p class="trace-view">no spans for trace '
                f"{_esc(trace_id)}</p>"
            )
        t0 = min(r["start"] for r in rows)
        t1 = max(r["end"] for r in rows)
        width = max(t1 - t0, 1e-9)
        spans = []
        for row in rows:
            offset = 100.0 * (row["start"] - t0) / width
            length = max(100.0 * (row["end"] - row["start"]) / width, 0.5)
            label = "&nbsp;" * 2 * int(row["depth"]) + _esc(row["name"])
            bar = (
                f'<div class="bar" style="margin-left:{offset:.1f}%;'
                f'width:{length:.1f}%"></div>'
            )
            spans.append(Row("span-error" if row["error"] else "span-ok", (
                Markup(label), row["service"],
                f"{(row['end'] - row['start']) * 1000:.2f}",
                ", ".join(e["name"] for e in row["events"]), Markup(bar),
            )))
        return html_table(
            "trace-view",
            ("span", "service", "ms", "events", "waterfall"),
            spans,
            attrs={"data-trace": trace_id},
        )


class ReplicationPortlet(MonitoringPortlet):
    """The multi-region window: per-region replication lag, hint backlog,
    store digests, and the last partition-heal time, fetched over SOAP from
    the monitoring service.  Every cell is escaped — region names and
    digests come back from remote services and are untrusted like any
    other service output."""

    def __init__(
        self,
        network: VirtualNetwork,
        endpoint: str,
        *,
        name: str = "replication",
        title: str = "Replication status",
        source: str = "portal",
    ):
        super().__init__(network, endpoint, name=name, title=title, source=source)

    def render(self, container_base: str) -> str:
        rows = self._client.call("replication_summary")
        if not rows:
            return '<p class="replication">no replication topology</p>'
        regions = []
        for row in rows:
            lag = row["lag_s"]
            heal = row.get("last_heal_t", -1.0)
            regions.append((
                row["region"], row["host"], row["entries"], row["digest"],
                f"{lag:.3f}" if lag >= 0 else "never", row["hint_backlog"],
                row["context_seq"], f"{heal:.3f}" if heal >= 0 else "-",
            ))
        return html_table(
            "replication",
            ("region", "host", "entries", "digest", "lag s", "hint backlog",
             "context seq", "last heal"),
            regions,
        )


class SLOPortlet(MonitoringPortlet):
    """The promises window: one row per objective with its burn rate and
    alert state, then the firing alerts with their exemplar trace links
    (each exemplar renders as a ``trace_tree`` query URL against the
    monitoring endpoint, so the on-call click lands on the waterfall)."""

    def __init__(
        self,
        network: VirtualNetwork,
        endpoint: str,
        *,
        name: str = "slo",
        title: str = "Service-level objectives",
        source: str = "portal",
    ):
        super().__init__(network, endpoint, name=name, title=title, source=source)
        self.endpoint = endpoint

    def render(self, container_base: str) -> str:
        rows = self._client.call("slo_summary")
        if not rows:
            return '<p class="slo">no objectives defined</p>'
        out = html_table(
            "slo-summary",
            ("slo", "operation", "objective", "target", "good", "burn",
             "state"),
            [
                Row(f"slo-{row['state']}", (
                    row["slo"], f"{row['service']}.{row['method']}",
                    row["objective"], row["target"], row["good_fraction"],
                    row["burn_rate"], row["state"],
                ))
                for row in rows
            ],
        )
        alerts = self._client.call("slo_alerts")
        if not alerts:
            return out
        firing = []
        for alert in alerts:
            links = " ".join(
                f'<a href="{_esc(self.endpoint)}?method=trace_tree'
                f'&amp;trace_id={_esc(trace_id)}">{_esc(trace_id[:8])}</a>'
                for trace_id in alert["exemplars"]
            )
            firing.append((
                alert["slo"], alert["since"],
                f"{alert['slow_burn']}/{alert['fast_burn']}",
                Markup(links or "-"),
            ))
        return out + html_table(
            "slo-alerts",
            ("alert", "since", "burn slow/fast", "exemplars"),
            firing,
        )


class MetricsPortlet(MonitoringPortlet):
    """The RED table: request/error counts and latency percentiles per
    service method, plus the gauge table (breaker states, queue depths)."""

    def __init__(
        self,
        network: VirtualNetwork,
        endpoint: str,
        *,
        name: str = "metrics",
        title: str = "Service metrics",
        source: str = "portal",
    ):
        super().__init__(network, endpoint, name=name, title=title, source=source)

    def render(self, container_base: str) -> str:
        summary = self._client.call("metrics_summary")
        red = itemgetter(
            "service", "method", "side", "requests", "errors", "mean_ms",
            "p95_ms",
        )
        return html_table(
            "red-metrics",
            ("service", "method", "side", "requests", "errors", "mean ms",
             "p95 ms"),
            map(red, summary["red"]),
        ) + html_table(
            "gauges",
            ("gauge", "label", "value"),
            map(itemgetter("gauge", "label", "value"), summary["gauges"]),
        )
