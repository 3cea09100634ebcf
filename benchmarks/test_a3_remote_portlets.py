"""Ablation A3 — remote UI aggregation: HTML scraping vs WSRP.

§5.4 builds WebFormPortlet (proxy the remote page, rewrite its URLs); §6
points at WSRP as the standards-track alternative.  This ablation puts the
same wizard-generated editor behind both mechanisms and compares the
per-render wire cost and the interaction path.

Measured shape (an honest surprise): WSRP is *not* byte-cheaper — the
markup travels inside a SOAP string (one CDATA section, its shorter wire
form), and the envelope around it inflates it past the raw page the
scraper fetches.
What WSRP buys instead is structural: no client-side HTML parsing and URL
rewriting (the producer renders against the consumer's base directly), and
per-user portlet state lives on the producer.  Both support form
interaction.  This is the classic SOAP tax the paper's string-heavy
interfaces keep running into (compare C1).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_table
from repro.appws.schemas import combined_schema
from repro.portlets.webform import WebFormPortlet
from repro.portlets.wsrp import (
    WsrpConsumerPortlet,
    WsrpProducer,
    deploy_wsrp_producer,
)
from repro.portlets.base import Portlet
from repro.transport.server import HttpServer
from repro.wizard.generator import SchemaWizard


class _ProducerEditorPortlet(Portlet):
    """Producer-side portlet rendering the wizard form *locally* — no HTTP
    hop between the portlet and the webapp because they share the host."""

    def __init__(self, user: str, wizard: SchemaWizard):
        super().__init__("editor", "Editor")
        self.user = user
        self.wizard = wizard

    def render(self, container_base: str) -> str:
        return self.wizard.render_page(
            "queue", action=f"{container_base}&portlet=editor&target=save",
            base=container_base,
        )


@pytest.fixture(scope="module")
def a3(deployment):
    network = deployment.network

    # the scraping path: a wizard webapp on apps.a3, proxied by WebFormPortlet
    apps_server = HttpServer("apps.a3", network)
    wizard = SchemaWizard(network, source_host="apps.a3")
    wizard.load(combined_schema())
    webapp = wizard.deploy(apps_server, "editor", "queue")
    scraping = WebFormPortlet("editor", webapp.url(), network,
                              container_host="portal.a3")

    # the WSRP path: the same editor rendered producer-side
    producer = WsrpProducer()
    producer.register_portlet(
        "editor", lambda user: _ProducerEditorPortlet(user, wizard), "Editor"
    )
    endpoint = deploy_wsrp_producer(network, producer, "producer.a3")
    wsrp = WsrpConsumerPortlet("editor", network, endpoint, "editor", "alice",
                               consumer_host="portal.a3")

    def measure(portlet, repeat=5):
        portlet.render("/portal?user=alice")  # warm
        before = network.stats.snapshot()
        start = network.clock.now
        for _ in range(repeat):
            if isinstance(portlet, WebFormPortlet):
                portlet.fetch()  # scraping refetches the page
            fragment = portlet.render("/portal?user=alice")
        delta = network.stats.delta(before)
        return (
            delta.bytes_received / repeat,
            delta.requests / repeat,
            (network.clock.now - start) / repeat * 1000,
            fragment,
        )

    rows = []
    stats = {}
    for label, portlet in (("WebFormPortlet (scrape+rewrite)", scraping),
                           ("WSRP (remote render)", wsrp)):
        rx, requests, vtime, fragment = measure(portlet)
        assert 'name="queue.queuingSystem"' in fragment
        stats[label] = (rx, requests, vtime)
        rows.append([label, rx, requests, vtime])
    record_table(
        "A3 (ablation) — per-render cost: HTML scraping vs WSRP",
        ["mechanism", "rx_bytes/render", "requests/render", "vtime_ms/render"],
        rows,
    )
    # the SOAP tax: WSRP's markup-in-envelope costs MORE bytes than
    # fetching the raw page
    wsrp_bytes = stats["WSRP (remote render)"][0]
    scrape_bytes = stats["WebFormPortlet (scrape+rewrite)"][0]
    assert scrape_bytes < wsrp_bytes < scrape_bytes * 2.5
    # both cost one request per render
    assert stats["WSRP (remote render)"][1] == 1.0
    assert stats["WebFormPortlet (scrape+rewrite)"][1] == 1.0

    return {"scraping": scraping, "wsrp": wsrp}


def test_a3_scraping_render(benchmark, a3):
    portlet = a3["scraping"]

    def render():
        portlet.fetch()
        portlet.render("/portal?user=alice")

    benchmark(render)


def test_a3_wsrp_render(benchmark, a3):
    benchmark(lambda: a3["wsrp"].render("/portal?user=alice"))
