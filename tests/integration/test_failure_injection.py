"""Failure injection across the stack: hosts going down mid-protocol."""

import pytest

from repro.faults import PortalError, ServiceUnavailableError
from repro.services.jobsubmit import GLOBUSRUN_NAMESPACE
from repro.soap.client import SoapClient
from repro.transport.network import TransportError


def test_globusrun_unreachable_host(deployment):
    client = SoapClient(
        deployment.network, deployment.endpoints["globusrun"],
        GLOBUSRUN_NAMESPACE, source="ui.fail",
    )
    deployment.network.take_down("globusrun.sdsc.edu")
    try:
        with pytest.raises(TransportError):
            client.call("list_contacts")
    finally:
        deployment.network.bring_up("globusrun.sdsc.edu")
    # service recovers after the host comes back
    assert "modi4.iu.edu" in client.call("list_contacts")


def test_backend_resource_down_mid_service(deployment):
    """The web service host is up, but its grid backend is unreachable: the
    failure surfaces as a retryable ``Portal.ServiceUnavailable`` fault, not
    a hang, a silent success or an unclassified upstream fault."""
    client = SoapClient(
        deployment.network, deployment.endpoints["globusrun"],
        GLOBUSRUN_NAMESPACE, source="ui.fail",
    )
    deployment.network.take_down("t3e.sdsc.edu")
    try:
        with pytest.raises(ServiceUnavailableError) as exc_info:
            client.call("run", "t3e.sdsc.edu", "echo", "x", 1, "", 60)
        assert exc_info.value.code == "Portal.ServiceUnavailable"
        assert exc_info.value.retryable
        assert "t3e.sdsc.edu" in exc_info.value.message
    finally:
        deployment.network.bring_up("t3e.sdsc.edu")


def test_transient_failure_then_retry(deployment):
    client = SoapClient(
        deployment.network, deployment.endpoints["discovery"],
        "urn:gce:container-discovery", source="ui.fail",
    )
    deployment.network.fail_next("discovery.gridforum.org", times=1)
    with pytest.raises(TransportError):
        client.call("children", "")
    # a straightforward retry succeeds
    assert isinstance(client.call("children", ""), list)


def test_auth_service_down_blocks_protected_calls_only(deployment):
    """If the Authentication Service is down, the atomic step fails closed:
    protected calls error rather than silently skipping verification."""
    from repro.security.authservice import AssertionInterceptor
    from repro.services.batchscript import BSG_NAMESPACE, SdscBatchScriptGenerator
    from repro.soap.server import SoapService
    from repro.transport.server import HttpServer

    impl = SdscBatchScriptGenerator()
    server = HttpServer("failclosed.sdsc.edu", deployment.network)
    soap = SoapService("FailClosed", BSG_NAMESPACE)
    soap.expose(impl.listSchedulers)
    soap.add_interceptor(
        AssertionInterceptor(
            deployment.network, deployment.endpoints["auth"],
            spp_host="failclosed.sdsc.edu", clock=deployment.network.clock,
        )
    )
    url = soap.mount(server, "/bsg")

    from repro.security.authservice import ClientSecuritySession

    session = ClientSecuritySession(
        deployment.network, deployment.kdc, deployment.endpoints["auth"],
        ui_host="ui.failclosed",
    )
    session.login("alice", "alpine")
    client = session.secure(
        SoapClient(deployment.network, url, BSG_NAMESPACE, source="ui.failclosed")
    )
    assert client.call("listSchedulers") == ["LSF", "NQS"]
    deployment.network.take_down("auth.gridportal.org")
    try:
        with pytest.raises(Exception) as exc_info:
            client.call("listSchedulers")
        assert not isinstance(exc_info.value, AssertionError)
    finally:
        deployment.network.bring_up("auth.gridportal.org")
    assert client.call("listSchedulers") == ["LSF", "NQS"]
