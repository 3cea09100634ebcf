"""Dashboard portlet markup, byte for byte.

Each dashboard portlet renders canned monitoring and metascheduler answers
served over SOAP.  Every text field carries the five characters HTML
escaping must handle, so a cell that skips escaping, or markup that gets
escaped twice, changes the bytes.  The expected strings pin the exact
markup: table classes, header rows, row classes, number formats, links,
and the empty-state fragments.
"""

import pytest

from repro.loadmgmt.metascheduler import METASCHEDULER_NAMESPACE
from repro.loadmgmt.portlet import LoadPortlet
from repro.services.monitoring import (
    MONITORING_NAMESPACE,
    GridLoadPortlet,
    MetricsPortlet,
    ReplicationPortlet,
    ResilienceEventsPortlet,
    SLOPortlet,
    TraceViewPortlet,
)
from repro.soap.server import SoapService
from repro.transport.server import HttpServer

#: every character html.escape(quote=True) rewrites
H = "<i>\"a&b'</i>"
TRACE = 'f00d"<x>&\'0123'


class _Monitor:
    """Canned answers for the monitoring views the portlets read."""

    def __init__(self, full: bool):
        self.full = full

    def grid_load(self):
        return [
            {"host": H, "system": "PBS", "cpus": 8, "free_cpus": 3,
             "running": 5, "queued": 2, "completed": 1},
            {"host": "b.edu", "system": H, "cpus": 4, "free_cpus": 4,
             "running": 0, "queued": 0, "completed": 0},
        ] if self.full else []

    def resilience_summary(self):
        return [{"code": H, "count": 2}] if self.full else []

    def resilience_events(self, limit=0):
        return [
            {"code": "Resilience.Retry", "service": H, "operation": "op&co",
             "message": f"retry {limit} {H}"},
        ] if self.full else []

    def traces(self, limit=0):
        return [{"trace_id": TRACE}] if self.full else []

    def trace_tree(self, trace_id):
        if not self.full or trace_id not in (TRACE, "pinned<>"):
            return []
        return [
            {"name": f"call {H}", "service": H, "start": 1.0, "end": 1.5,
             "depth": 0, "error": False, "events": []},
            {"name": "shout & co", "service": "Echo", "start": 1.1,
             "end": 1.4, "depth": 1, "error": True,
             "events": [{"name": H}, {"name": "breaker"}]},
            {"name": "server", "service": "Echo", "start": 1.2, "end": 1.2,
             "depth": 2, "error": False, "events": []},
        ]

    def replication_summary(self):
        return [
            {"region": H, "host": "east.org", "entries": 3, "digest": H,
             "lag_s": 0.25, "hint_backlog": 1, "context_seq": 7,
             "last_heal_t": 12.5},
            {"region": "west", "host": H, "entries": 0, "digest": "",
             "lag_s": -1.0, "hint_backlog": 0, "context_seq": 0,
             "last_heal_t": -1.0},
            {"region": "north", "host": "n.org", "entries": 1, "digest": "d",
             "lag_s": 0.0, "hint_backlog": 2, "context_seq": 1},
        ] if self.full else []

    def slo_summary(self):
        return [
            {"slo": H, "service": "Job", "method": H,
             "objective": "availability", "target": 0.99,
             "good_fraction": 0.5, "burn_rate": 50.0, "state": H},
            {"slo": "latency", "service": "Echo", "method": "shout",
             "objective": "latency", "target": 0.9, "good_fraction": 1.0,
             "burn_rate": 0.0, "state": "ok"},
        ] if self.full else []

    def slo_alerts(self, active_only=True):
        return [
            {"slo": H, "since": 3.5, "slow_burn": 2.0, "fast_burn": 14.4,
             "exemplars": [TRACE, "fedcba9876543210"]},
            {"slo": "latency", "since": 1.0, "slow_burn": 1.0,
             "fast_burn": 1.0, "exemplars": []},
        ] if self.full else []

    def metrics_summary(self):
        if not self.full:
            return {"red": [], "gauges": [], "events": []}
        return {
            "red": [
                {"service": H, "method": "shout", "side": "server",
                 "requests": 3, "errors": 1, "mean_ms": 1.25,
                 "p95_ms": 2.5},
            ],
            "gauges": [{"gauge": "queue_depth", "label": H, "value": 2.0}],
            "events": [],
        }

    def load_lanes(self):
        return [
            {"service": "Globusrun", "lane": H, "weight": 1.0,
             "priority": 0, "arrived": 4, "admitted": 3, "shed": 1,
             "queued": 0, "mean_wait": 0.125, "max_wait": 0.5},
        ] if self.full else []

    def queue_load(self):
        return [
            {"host": H, "queue": "batch", "depth": 2, "running": 1,
             "completed": 5, "drain_rate": 0.0125},
        ] if self.full else []


class _Metascheduler:
    """Canned placement-target and decision answers."""

    def __init__(self, full: bool):
        self.full = full

    def targets(self):
        return [
            {"contact": H, "queuing_system": "PBS", "cpus": 8,
             "breaker": "closed", "excluded": False, "p95": 0.5},
            {"contact": "c2.org", "queuing_system": H, "cpus": 2,
             "breaker": "open", "excluded": True, "p95": 1.0 / 3},
        ]

    def placements(self, limit=0):
        return [
            {"at": 3.25, "job": H, "executable": "/bin/<sh>",
             "contact": "c1.org", "queue": H, "policy": "least-loaded",
             "depth": limit},
        ] if self.full else []


def _mount(network, name, namespace, impl, host):
    service = SoapService(name, namespace)
    service.expose_object(impl)
    return service.mount(HttpServer(host, network), "/svc")


@pytest.fixture(params=["full", "empty"])
def dashboard(request, network):
    full = request.param == "full"
    monitor = _mount(network, "JobMonitoring", MONITORING_NAMESPACE,
                     _Monitor(full), "monitor.example.org")
    meta = _mount(network, "MetaScheduler", METASCHEDULER_NAMESPACE,
                  _Metascheduler(full), "meta.example.org")
    return request.param, network, monitor, meta


PORTLETS = {
    "grid-load": lambda n, m, s: GridLoadPortlet(n, m),
    "resilience": lambda n, m, s: ResilienceEventsPortlet(n, m, tail=4),
    "trace-view": lambda n, m, s: TraceViewPortlet(n, m),
    "trace-view-pinned": lambda n, m, s: TraceViewPortlet(
        n, m, trace_id="pinned<>"),
    "replication": lambda n, m, s: ReplicationPortlet(n, m),
    "slo": lambda n, m, s: SLOPortlet(n, m),
    "metrics": lambda n, m, s: MetricsPortlet(n, m),
    "load": lambda n, m, s: LoadPortlet(n, m, s, tail=6),
    "load-monitor-only": lambda n, m, s: LoadPortlet(n, m),
}

EXPECTED = {
    ('grid-load', 'full'): (
        '<table class="grid-load"><tr><th>host</th><th>system</th>'
        '<th>free/total cpus</th><th>running</th><th>queued</th></tr>'
        '<tr><td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>PBS</td>'
        '<td>3/8</td><td>5</td><td>2</td></tr>'
        '<tr><td>b.edu</td><td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td>'
        '<td>4/4</td><td>0</td><td>0</td></tr>'
        '</table>'
    ),
    ('grid-load', 'empty'): (
        '<table class="grid-load"><tr><th>host</th><th>system</th>'
        '<th>free/total cpus</th><th>running</th><th>queued</th></tr>'
        '</table>'
    ),
    ('load', 'full'): (
        '<table class="load-lanes"><tr><th>service</th><th>lane</th>'
        '<th>weight</th><th>priority</th><th>arrived</th><th>admitted</th>'
        '<th>shed</th><th>queued</th><th>mean wait s</th>'
        '<th>max wait s</th></tr>'
        '<tr><td>Globusrun</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>1.0</td>'
        '<td>0</td><td>4</td><td>3</td><td>1</td><td>0</td><td>0.125</td>'
        '<td>0.500</td></tr>'
        '</table>'
        '<table class="queue-load"><tr><th>host</th><th>queue</th>'
        '<th>depth</th><th>running</th><th>completed</th><th>drain /s</th>'
        '</tr>'
        '<tr><td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>batch</td>'
        '<td>2</td><td>1</td><td>5</td><td>0.0125</td></tr>'
        '</table>'
        '<table class="placement-targets"><tr><th>contact</th>'
        '<th>system</th><th>cpus</th><th>breaker</th><th>excluded</th>'
        '<th>p95 s</th></tr>'
        '<tr class="target-ok">'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>PBS</td>'
        '<td>8</td><td>closed</td><td>False</td><td>0.500</td></tr>'
        '<tr class="target-excluded"><td>c2.org</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>2</td>'
        '<td>open</td><td>True</td><td>0.333</td></tr>'
        '</table>'
        '<table class="placement-decisions"><tr><th>at</th><th>job</th>'
        '<th>executable</th><th>contact</th><th>queue</th><th>policy</th>'
        '<th>depth</th></tr>'
        '<tr><td>3.250</td><td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td>'
        '<td>/bin/&lt;sh&gt;</td><td>c1.org</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td>'
        '<td>least-loaded</td><td>6</td></tr>'
        '</table>'
    ),
    ('load', 'empty'): (
        '<p class="load-lanes">no admission-controlled services</p>'
        '<table class="placement-targets"><tr><th>contact</th>'
        '<th>system</th><th>cpus</th><th>breaker</th><th>excluded</th>'
        '<th>p95 s</th></tr>'
        '<tr class="target-ok">'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>PBS</td>'
        '<td>8</td><td>closed</td><td>False</td><td>0.500</td></tr>'
        '<tr class="target-excluded"><td>c2.org</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>2</td>'
        '<td>open</td><td>True</td><td>0.333</td></tr>'
        '</table>'
        '<p class="placement-decisions">no placements yet</p>'
    ),
    ('load-monitor-only', 'full'): (
        '<table class="load-lanes"><tr><th>service</th><th>lane</th>'
        '<th>weight</th><th>priority</th><th>arrived</th><th>admitted</th>'
        '<th>shed</th><th>queued</th><th>mean wait s</th>'
        '<th>max wait s</th></tr>'
        '<tr><td>Globusrun</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>1.0</td>'
        '<td>0</td><td>4</td><td>3</td><td>1</td><td>0</td><td>0.125</td>'
        '<td>0.500</td></tr>'
        '</table>'
        '<table class="queue-load"><tr><th>host</th><th>queue</th>'
        '<th>depth</th><th>running</th><th>completed</th><th>drain /s</th>'
        '</tr>'
        '<tr><td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>batch</td>'
        '<td>2</td><td>1</td><td>5</td><td>0.0125</td></tr>'
        '</table>'
    ),
    ('load-monitor-only', 'empty'): (
        '<p class="load-lanes">no admission-controlled services</p>'
    ),
    ('metrics', 'full'): (
        '<table class="red-metrics"><tr><th>service</th><th>method</th>'
        '<th>side</th><th>requests</th><th>errors</th><th>mean ms</th>'
        '<th>p95 ms</th></tr>'
        '<tr><td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>shout</td>'
        '<td>server</td><td>3</td><td>1</td><td>1.25</td><td>2.5</td></tr>'
        '</table>'
        '<table class="gauges"><tr><th>gauge</th><th>label</th>'
        '<th>value</th></tr>'
        '<tr><td>queue_depth</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>2.0</td></tr>'
        '</table>'
    ),
    ('metrics', 'empty'): (
        '<table class="red-metrics"><tr><th>service</th><th>method</th>'
        '<th>side</th><th>requests</th><th>errors</th><th>mean ms</th>'
        '<th>p95 ms</th></tr>'
        '</table>'
        '<table class="gauges"><tr><th>gauge</th><th>label</th>'
        '<th>value</th></tr>'
        '</table>'
    ),
    ('replication', 'full'): (
        '<table class="replication"><tr><th>region</th><th>host</th>'
        '<th>entries</th><th>digest</th><th>lag s</th><th>hint backlog</th>'
        '<th>context seq</th><th>last heal</th></tr>'
        '<tr><td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td>'
        '<td>east.org</td><td>3</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>0.250</td>'
        '<td>1</td><td>7</td><td>12.500</td></tr>'
        '<tr><td>west</td><td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td>'
        '<td>0</td><td></td><td>never</td><td>0</td><td>0</td><td>-</td>'
        '</tr>'
        '<tr><td>north</td><td>n.org</td><td>1</td><td>d</td><td>0.000</td>'
        '<td>2</td><td>1</td><td>-</td></tr>'
        '</table>'
    ),
    ('replication', 'empty'): (
        '<p class="replication">no replication topology</p>'
    ),
    ('resilience', 'full'): (
        '<table class="resilience-summary"><tr><th>event</th><th>count</th>'
        '</tr>'
        '<tr><td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>2</td></tr>'
        '</table>'
        '<table class="resilience-events"><tr><th>code</th><th>service</th>'
        '<th>operation</th><th>message</th></tr>'
        '<tr><td>Resilience.Retry</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>op&amp;co</td>'
        '<td>retry 4 &lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td></tr>'
        '</table>'
    ),
    ('resilience', 'empty'): (
        '<table class="resilience-summary"><tr><th>event</th><th>count</th>'
        '</tr>'
        '</table>'
        '<table class="resilience-events"><tr><th>code</th><th>service</th>'
        '<th>operation</th><th>message</th></tr>'
        '</table>'
    ),
    ('slo', 'full'): (
        '<table class="slo-summary"><tr><th>slo</th><th>operation</th>'
        '<th>objective</th><th>target</th><th>good</th><th>burn</th>'
        '<th>state</th></tr>'
        '<tr class="slo-&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;">'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td>'
        '<td>Job.&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td>'
        '<td>availability</td><td>0.99</td><td>0.5</td><td>50.0</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td></tr>'
        '<tr class="slo-ok"><td>latency</td><td>Echo.shout</td>'
        '<td>latency</td><td>0.9</td><td>1.0</td><td>0.0</td><td>ok</td>'
        '</tr>'
        '</table>'
        '<table class="slo-alerts"><tr><th>alert</th><th>since</th>'
        '<th>burn slow/fast</th><th>exemplars</th></tr>'
        '<tr><td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>3.5</td>'
        '<td>2.0/14.4</td>'
        '<td><a href="http://monitor.example.org/svc?method=trace_tree&amp;'
        'trace_id=f00d&quot;&lt;x&gt;&amp;&#x27;0123">'
        'f00d&quot;&lt;x&gt;</a>'
        ' <a href="http://monitor.example.org/svc?method=trace_tree&amp;'
        'trace_id=fedcba9876543210">fedcba98</a></td></tr>'
        '<tr><td>latency</td><td>1.0</td><td>1.0/1.0</td><td>-</td></tr>'
        '</table>'
    ),
    ('slo', 'empty'): (
        '<p class="slo">no objectives defined</p>'
    ),
    ('trace-view', 'full'): (
        '<table class="trace-view" data-trace="f00d&quot;&lt;x&gt;&amp;&#x27;0123">'
        '<tr><th>span</th><th>service</th><th>ms</th><th>events</th>'
        '<th>waterfall</th></tr>'
        '<tr class="span-ok">'
        '<td>call &lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>500.00</td>'
        '<td></td><td><div class="bar" style="margin-left:0.0%;'
        'width:100.0%"></div></td></tr>'
        '<tr class="span-error"><td>&nbsp;&nbsp;shout &amp; co</td>'
        '<td>Echo</td><td>300.00</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;, breaker</td>'
        '<td><div class="bar" style="margin-left:20.0%;width:60.0%">'
        '</div></td></tr>'
        '<tr class="span-ok"><td>&nbsp;&nbsp;&nbsp;&nbsp;server</td>'
        '<td>Echo</td><td>0.00</td><td></td>'
        '<td><div class="bar" style="margin-left:40.0%;width:0.5%">'
        '</div></td></tr>'
        '</table>'
    ),
    ('trace-view', 'empty'): (
        '<p class="trace-view">no traces collected</p>'
    ),
    ('trace-view-pinned', 'full'): (
        '<table class="trace-view" data-trace="pinned&lt;&gt;">'
        '<tr><th>span</th><th>service</th><th>ms</th><th>events</th>'
        '<th>waterfall</th></tr>'
        '<tr class="span-ok">'
        '<td>call &lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;</td><td>500.00</td>'
        '<td></td><td><div class="bar" style="margin-left:0.0%;'
        'width:100.0%"></div></td></tr>'
        '<tr class="span-error"><td>&nbsp;&nbsp;shout &amp; co</td>'
        '<td>Echo</td><td>300.00</td>'
        '<td>&lt;i&gt;&quot;a&amp;b&#x27;&lt;/i&gt;, breaker</td>'
        '<td><div class="bar" style="margin-left:20.0%;width:60.0%">'
        '</div></td></tr>'
        '<tr class="span-ok"><td>&nbsp;&nbsp;&nbsp;&nbsp;server</td>'
        '<td>Echo</td><td>0.00</td><td></td>'
        '<td><div class="bar" style="margin-left:40.0%;width:0.5%">'
        '</div></td></tr>'
        '</table>'
    ),
    ('trace-view-pinned', 'empty'): (
        '<p class="trace-view">no spans for trace pinned&lt;&gt;</p>'
    ),
}


@pytest.mark.parametrize("portlet", sorted(PORTLETS))
def test_rendered_html_is_pinned(dashboard, portlet):
    state, network, monitor, meta = dashboard
    html = PORTLETS[portlet](network, monitor, meta).render("/portal")
    assert html == EXPECTED[portlet, state]
