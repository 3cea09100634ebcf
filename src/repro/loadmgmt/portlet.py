"""The load-management portlet.

The operator's window into the admission pipeline and the metascheduler:
per-principal lane occupancy (weights, sheds, queue waits) from the
monitoring service, plus the placement-decision tail and target table from
the metascheduler.  Like every monitoring-plane portlet it talks untraced
SOAP so dashboard refreshes never pollute the traces they display.
"""

from __future__ import annotations

from repro.loadmgmt.metascheduler import METASCHEDULER_NAMESPACE
from repro.portlets.base import Row, html_table
from repro.services.monitoring import MonitoringPortlet
from repro.soap.client import SoapClient
from repro.transport.network import VirtualNetwork


class LoadPortlet(MonitoringPortlet):
    """Lane occupancy, per-queue load, and metascheduler placements.

    ``monitor_endpoint`` serves the ``load_lanes``/``load_summary``/
    ``queue_load`` views; ``metascheduler_endpoint`` (optional) serves
    ``placements``/``targets``.  Either half renders independently so the
    portlet degrades gracefully when only one plane is deployed.
    """

    def __init__(
        self,
        network: VirtualNetwork,
        monitor_endpoint: str,
        metascheduler_endpoint: str = "",
        *,
        name: str = "load",
        title: str = "Load management",
        source: str = "portal",
        tail: int = 10,
    ):
        super().__init__(
            network, monitor_endpoint, name=name, title=title, source=source
        )
        self.tail = tail
        self._metascheduler = None
        if metascheduler_endpoint:
            self._metascheduler = SoapClient(
                network,
                metascheduler_endpoint,
                METASCHEDULER_NAMESPACE,
                source=source,
                traced=False,
            )

    # -- sections ------------------------------------------------------------------

    def _render_lanes(self) -> str:
        lanes = self._client.call("load_lanes")
        if not lanes:
            return '<p class="load-lanes">no admission-controlled services</p>'
        return html_table(
            "load-lanes",
            ("service", "lane", "weight", "priority", "arrived", "admitted",
             "shed", "queued", "mean wait s", "max wait s"),
            [
                (row["service"], row["lane"], row["weight"], row["priority"],
                 row["arrived"], row["admitted"], row["shed"], row["queued"],
                 f"{row['mean_wait']:.3f}", f"{row['max_wait']:.3f}")
                for row in lanes
            ],
        )

    def _render_queues(self) -> str:
        rows = self._client.call("queue_load")
        if not rows:
            return ""
        return html_table(
            "queue-load",
            ("host", "queue", "depth", "running", "completed", "drain /s"),
            [
                (row["host"], row["queue"], row["depth"], row["running"],
                 row["completed"], f"{row['drain_rate']:.4f}")
                for row in rows
            ],
        )

    def _render_placements(self) -> str:
        if self._metascheduler is None:
            return ""
        decisions = self._metascheduler.call("placements", self.tail)
        targets = self._metascheduler.call("targets")
        out = html_table(
            "placement-targets",
            ("contact", "system", "cpus", "breaker", "excluded", "p95 s"),
            [
                Row("target-excluded" if row["excluded"] else "target-ok", (
                    row["contact"], row["queuing_system"], row["cpus"],
                    row["breaker"], row["excluded"], f"{row['p95']:.3f}",
                ))
                for row in targets
            ],
        )
        if not decisions:
            return out + '<p class="placement-decisions">no placements yet</p>'
        return out + html_table(
            "placement-decisions",
            ("at", "job", "executable", "contact", "queue", "policy", "depth"),
            [
                (f"{row['at']:.3f}", row["job"], row["executable"],
                 row["contact"], row["queue"], row["policy"], row["depth"])
                for row in decisions
            ],
        )

    def render(self, container_base: str) -> str:
        return (
            self._render_lanes()
            + self._render_queues()
            + self._render_placements()
        )
