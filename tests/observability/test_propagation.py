"""Satellite: trace propagation across the paper's composed-service chain.

One portal request crosses four hosts — portal → batch job web service →
Globusrun web service → GRAM gatekeeper — over two protocols (SOAP, then
GRAM's JSON over HTTP), with the trace context in the same ``Traceparent``
HTTP header on every hop.  Every hop must record the *same* trace id and
link to the correct parent, or the trace tells a broken story.
"""

import pytest

from repro.grid.resources import build_testbed
from repro.services.jobsubmit import (
    BATCHJOB_NAMESPACE,
    deploy_batchjob,
    deploy_globusrun,
)
from repro.soap.client import SoapClient

IDENTITY = "/O=G/CN=portal"


@pytest.fixture
def chain(network, ca, obs):
    """The full submission chain, traced; returns the portal-side client."""
    testbed = build_testbed(network, ca)
    cred = ca.issue_credential(IDENTITY, lifetime=10**6, now=0.0)
    proxy = cred.sign_proxy(lifetime=10**5, now=0.0)
    for resource in testbed.values():
        resource.gatekeeper.add_gridmap_entry(IDENTITY, "portal")
    _, globusrun_url = deploy_globusrun(network, testbed, proxy)
    _, batch_url = deploy_batchjob(network, globusrun_url)
    return SoapClient(
        network, batch_url, BATCHJOB_NAMESPACE, source="portal.npaci.edu"
    )


def test_one_trace_across_four_hosts(chain, obs):
    result = chain.call(
        "submit_batch", "blue.sdsc.edu", "echo traced count=1 walltime=60"
    )
    assert "traced" in result

    spans = obs.collector.spans()
    assert len({s["trace_id"] for s in spans}) == 1, "a single distributed trace"

    by_name = {s["name"]: s for s in spans}
    expected = {
        "call submit_batch",   # portal: logical client call
        "submit_batch",        # attempt + server (same name, two kinds)
        "call run",            # batch job service: client call to Globusrun
        "run",
        "gram.submit",         # Globusrun: GRAM protocol client hop
        "gatekeeper.submit",   # the gatekeeper, over GRAM's JSON protocol
    }
    assert expected <= set(by_name)

    # parent/child links, outermost in: each server span's parent is the
    # calling side's attempt span, each nested client call parents on the
    # enclosing server span
    def one(name, kind):
        (span,) = [s for s in spans if s["name"] == name and s["kind"] == kind]
        return span

    logical = one("call submit_batch", "client")
    attempt = [
        s for s in spans if s["name"] == "submit_batch" and s["kind"] == "client"
    ][0]
    batch_server = one("submit_batch", "server")
    run_logical = one("call run", "client")
    run_server = one("run", "server")
    gram_hop = one("gram.submit", "client")
    gatekeeper = one("gatekeeper.submit", "server")

    assert logical["parent_id"] == ""
    assert attempt["parent_id"] == logical["span_id"]
    assert batch_server["parent_id"] == attempt["span_id"]
    assert run_logical["parent_id"] == batch_server["span_id"]
    assert run_server["parent_id"] != run_logical["span_id"]  # via the attempt
    assert gram_hop["parent_id"] == run_server["span_id"]
    assert gatekeeper["parent_id"] == gram_hop["span_id"]

    # hosts along the chain, as the paper's architecture names them
    assert batch_server["host"] == "batchjob.sdsc.edu"
    assert run_server["host"] == "globusrun.sdsc.edu"
    assert gatekeeper["host"] == "blue.sdsc.edu"
    assert gatekeeper["service"] == "Gatekeeper"


def test_chain_spans_nest_within_their_parents(chain, obs):
    chain.call("submit_batch", "blue.sdsc.edu", "echo nested walltime=60")
    spans = obs.collector.spans()
    by_id = {s["span_id"]: s for s in spans}
    for span in spans:
        if not span["parent_id"]:
            continue
        parent = by_id[span["parent_id"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_tree_depth_follows_the_architecture(chain, obs):
    chain.call("submit_batch", "blue.sdsc.edu", "echo deep walltime=60")
    trace_id = obs.collector.trace_ids()[0]
    depth = {
        (row["name"], row["kind"]): row["depth"]
        for row in obs.collector.tree(trace_id)
    }
    assert depth[("call submit_batch", "client")] == 0
    assert depth[("submit_batch", "server")] == 2
    assert depth[("run", "server")] == 5
    assert depth[("gatekeeper.submit", "server")] == 7
