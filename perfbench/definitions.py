"""What each per-layer metric measures, and what a change to it should move.

``BENCHMARK.json`` names every metric with its unit and direction; this
module records what that file has no room for.  For a self time, *measured
at* is generated from the entry points :mod:`layertrace` wraps; for a
count, it names the counter read.  *Should move* names the end-to-end
metric, and the workload, on which a change to that layer should show.

Per-layer times come from a traced window, host-scaled as the wall-clock
times are (see ``run.py``); every count comes from the
deterministic pass (the first two cycles of ops on a freshly built stack,
which the same seed repeats exactly).
"""

from __future__ import annotations

from layertrace import ENTRY_POINTS, split_entry

_ECHO, _BULK, _SHELL, _SAML = "soap-echo", "srb-bulk", "portal-shell", "saml-signed"

#: count metric -> what it reads
COUNTED_AT: dict[str, str] = {
    "soap.calls": "SoapClient.call count",
    "transport.requests": "WireStats.requests, GRAM included",
    "transport.connections": "WireStats.connections",
    "xmlutil.parse.calls": "parse_xml count",
    "xmlutil.parse.chars": "characters passed to parse_xml",
    "xmlutil.serialize.chars": "characters XmlElement.serialize returned",
    "soap.server.faults": "HTTP 500 fault envelopes from handle_http",
    "security.verify_calls": "AuthenticationService.verifications",
    "security.cache_hit_ratio": "AssertionCache hits / lookups",
    "security.cache_entries": "AssertionCache entries at pass end",
    "loadmgmt.refused": "ServerBusy refusals (controller sheds)",
    "loadmgmt.queue_wait_ms": "modelled queue wait per admission",
    "resilience.retries": "SoapClient.retries_performed, all clients",
    "observability.spans": "spans finished (Tracer.end calls)",
    "observability.kept_ratio": "kept / decided traces",
    "grid.jobs_retained": "job records across all schedulers at pass end",
    "bench.unattributed_share": "share of traced op time in no layer span",
    "bench.trace_overhead": "traced / untraced op_us_p50",
    "bench.drift": "last-quarter / first-quarter host-scaled median op time, untraced",
}

#: per-layer metric -> the end-to-end metric, and the workload, it should move
SHOULD_MOVE: dict[str, str] = {
    "xmlutil.parse.self_us":
        f"op_us_p50, ops_per_s on {_ECHO} and {_SAML}; op_us_p99 on {_BULK}",
    "xmlutil.serialize.self_us": f"op_us_p50 on {_ECHO}, {_BULK}",
    "soap.message.self_us": f"op_us_p50 on {_ECHO}",
    "soap.encoding.self_us": f"op_us_p50 on {_SHELL} (structs and arrays)",
    "soap.client.self_us": f"op_us_p50 on {_ECHO}",
    "soap.server.self_us": f"op_us_p50 on {_ECHO}, {_SHELL}",
    "transport.self_us": f"op_us_p50 on {_ECHO}, {_BULK}",
    "services.self_us": f"op_us_p50 on {_SHELL}, {_BULK}",
    "grid.self_us": f"op_us_p99 on {_SHELL}",
    "security.self_us": f"op_us_p50 on {_SAML}",
    "loadmgmt.self_us": f"op_us_p50 on {_SHELL}",
    "observability.self_us": f"op_us_p50 on {_SHELL}",
    "portal.self_us": f"op_us_p50 on {_SHELL}",
    "soap.calls": "vtime_ms_per_op on all (2 on saml-signed)",
    "transport.requests": f"vtime_ms_per_op on {_SHELL}",
    "transport.connections": "vtime_ms_per_op on all (60 ms each)",
    "xmlutil.parse.calls": f"op_us_p50 on {_SAML} (6)",
    "xmlutil.parse.chars": f"op_us_p99 on {_BULK}",
    "xmlutil.serialize.chars": f"wire_bytes_per_op on {_BULK}",
    "soap.server.faults": f"fail_ratio on {_SHELL} (expected faults)",
    "security.verify_calls": f"vtime_ms_per_op, op_us_p50 on {_SAML}",
    "security.cache_hit_ratio": f"vtime_ms_per_op on {_SAML} (0 today)",
    "security.cache_entries": f"peak_rss_mb on {_SAML} (never evicted today)",
    "loadmgmt.refused": f"fail_ratio on {_SHELL}",
    "loadmgmt.queue_wait_ms": f"vtime_ms_per_op on {_SHELL}",
    "resilience.retries": "vtime_ms_per_op on all (0 today)",
    "observability.spans": f"op_us_p50 on {_SHELL}",
    "observability.kept_ratio": f"peak_rss_mb on {_SHELL}",
    "grid.jobs_retained": f"op_us_p99 on {_SHELL}",
    "bench.unattributed_share": "checks the benchmark itself (at most 0.05)",
    "bench.trace_overhead": "checks the benchmark itself",
    "bench.drift":
        "checks the benchmark itself: per-op cost must not grow with run length",
}


def measured_at(metric: str) -> str:
    """Where a per-layer metric is measured."""
    layer = metric.removesuffix(".self_us")
    if layer == metric:
        return COUNTED_AT[metric]
    places = []
    for entry in ENTRY_POINTS[layer]:
        kind, module, qualname = split_entry(entry)
        places.append({"route": f"{qualname} (route tables)",
                       "exposed": f"exposed methods of {module}"}.get(kind, qualname))
    return ", ".join(places)
