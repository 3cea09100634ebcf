import json

import pytest

from repro.faults import (
    AuthenticationError,
    AuthorizationError,
    JobError,
    PortalError,
    ResourceNotFoundError,
    ServiceUnavailableError,
)
from repro.grid.gram import GramClient, rsl_for, serialize_chain, deserialize_chain
from repro.grid.jobs import JobSpec
from repro.grid.resources import build_testbed, deploy_resource


IDENTITY = "/O=G/CN=alice"


@pytest.fixture
def grid(network, ca):
    testbed = build_testbed(network, ca)
    cred = ca.issue_credential(IDENTITY, lifetime=10**6, now=0.0)
    proxy = cred.sign_proxy(lifetime=10**5, now=0.0)
    for resource in testbed.values():
        resource.gatekeeper.add_gridmap_entry(IDENTITY, "alice")
    return testbed, GramClient(network, proxy, source="client"), cred


def test_submit_status_output(network, grid):
    testbed, client, _cred = grid
    rsl = rsl_for(JobSpec(name="t", executable="echo", arguments=["grid hi"],
                          wallclock_limit=60))
    job_id = client.submit("modi4.iu.edu", rsl)
    # the wire round trip itself advances virtual time, so a short job may
    # already have completed by the time status is queried
    assert client.status("modi4.iu.edu", job_id)["state"] in ("running", "done")
    testbed["modi4.iu.edu"].scheduler.run_until_complete()
    output = client.output("modi4.iu.edu", job_id)
    assert output["stdout"] == "grid hi\n"


def test_output_before_completion_is_error(network, grid):
    testbed, client, _cred = grid
    rsl = rsl_for(JobSpec(executable="sleep", arguments=["100"],
                          wallclock_limit=600))
    job_id = client.submit("blue.sdsc.edu", rsl)
    with pytest.raises(JobError):
        client.output("blue.sdsc.edu", job_id)


def test_cancel(network, grid):
    testbed, client, _cred = grid
    rsl = rsl_for(JobSpec(executable="sleep", arguments=["100"],
                          wallclock_limit=600))
    job_id = client.submit("t3e.sdsc.edu", rsl)
    assert client.cancel("t3e.sdsc.edu", job_id)
    assert client.status("t3e.sdsc.edu", job_id)["state"] == "cancelled"


def test_unauthorized_identity_rejected(network, ca, grid):
    _testbed, _client, _cred = grid
    outsider = ca.issue_credential("/O=G/CN=mallory", lifetime=10**4, now=0.0)
    bad = GramClient(network, outsider.sign_proxy(lifetime=100, now=0.0))
    rsl = rsl_for(JobSpec(executable="echo", wallclock_limit=60))
    with pytest.raises(AuthorizationError):
        bad.submit("modi4.iu.edu", rsl)


def test_expired_proxy_rejected(network, ca, grid):
    testbed, _client, cred = grid
    short = cred.sign_proxy(lifetime=1.0, now=0.0)
    client = GramClient(network, short)
    network.clock.advance(100.0)
    with pytest.raises(AuthenticationError):
        client.submit("modi4.iu.edu", rsl_for(JobSpec(executable="echo",
                                                      wallclock_limit=60)))


def test_unknown_job_is_not_found(network, grid):
    _testbed, client, _cred = grid
    with pytest.raises(PortalError) as exc_info:
        client.status("modi4.iu.edu", "999.modi4.iu.edu")
    assert exc_info.value.code == "Portal.ResourceNotFound"


def test_chain_serialization_roundtrip(ca):
    cred = ca.issue_credential("/O=G/CN=x", lifetime=100.0, now=0.0)
    proxy = cred.sign_proxy(lifetime=50.0, now=0.0)
    rebuilt = deserialize_chain(serialize_chain(proxy))
    assert rebuilt.subject == proxy.subject
    assert ca.verify_chain(rebuilt, now=1.0) == "/O=G/CN=x"


def test_testbed_has_all_four_queuing_systems(network, ca):
    testbed = build_testbed(network, ca)
    systems = {r.queuing_system for r in testbed.values()}
    assert systems == {"PBS", "LSF", "NQS", "GRD"}


def test_local_user_mapped_into_environment(network, grid):
    testbed, client, _cred = grid
    rsl = rsl_for(JobSpec(executable="echo", arguments=["x"], wallclock_limit=60))
    job_id = client.submit("octopus.iu.edu", rsl)
    record = testbed["octopus.iu.edu"].scheduler.job(job_id)
    assert record.spec.environment["LOGNAME"] == "alice"


def test_non_json_error_body_is_a_retryable_fault(network, grid):
    """A bare HTML 502 from a proxy boundary must not decode-crash."""
    from repro.transport.http import HttpResponse

    _testbed, client, _cred = grid
    network.register(
        "lb.example.org",
        lambda request: HttpResponse(502, body="<html>Bad Gateway</html>"),
    )
    rsl = rsl_for(JobSpec(executable="echo", wallclock_limit=60))
    with pytest.raises(ServiceUnavailableError) as exc_info:
        client.submit("lb.example.org", rsl)
    assert exc_info.value.retryable
    assert "non-JSON" in exc_info.value.message
    assert "502" in exc_info.value.message


def test_malformed_success_body_is_a_retryable_fault(network, grid):
    from repro.transport.http import HttpResponse

    _testbed, client, _cred = grid
    network.register(
        "flaky.example.org", lambda request: HttpResponse(200, body="OK")
    )
    with pytest.raises(ServiceUnavailableError) as exc_info:
        client.status("flaky.example.org", "1.flaky.example.org")
    assert exc_info.value.retryable
    assert "malformed success body" in exc_info.value.message


def _submit_body(**overrides):
    return {"op": "submit", "rsl": "&(executable=echo)", **overrides}


@pytest.mark.parametrize(
    ("body", "status", "code"),
    [
        ([], 400, "Portal.InvalidRequest"),
        (5, 400, "Portal.InvalidRequest"),
        ("x", 400, "Portal.InvalidRequest"),
        (_submit_body(rsl=5), 400, "Portal.InvalidRequest"),
        (_submit_body(rsl=["x"]), 400, "Portal.InvalidRequest"),
        (_submit_body(key=["k"]), 400, "Portal.InvalidRequest"),
        ({"op": "status", "job": ["1"]}, 400, "Portal.InvalidRequest"),
        (_submit_body(proxy=7), 403, "Portal.Authentication"),
        (_submit_body(proxy=[1]), 403, "Portal.Authentication"),
        (_submit_body(proxy="abc"), 403, "Portal.Authentication"),
    ],
    ids=repr,
)
def test_mistyped_body_gets_a_classified_fault(network, grid, body, status, code):
    """A request that can never succeed is refused with a JSON error body
    carrying a ``Portal.*`` code — never the server boundary's text-body
    500, which the GRAM client would retry as ``ServiceUnavailable``."""
    from repro.transport.client import HttpClient

    response = HttpClient(network, "client").post(
        "http://modi4.iu.edu/jobmanager", json.dumps(body)
    )
    assert response.status == status
    assert json.loads(response.body)["error"] == code


def test_deadline_rides_the_payload_and_is_checked_before_dispatch(network, grid):
    from repro.transport.client import HttpClient

    testbed, client, _cred = grid
    http = HttpClient(network, "client")
    chain = serialize_chain(client.proxy)
    expired = http.post(
        "http://modi4.iu.edu/jobmanager",
        json.dumps(_submit_body(proxy=chain, deadline=-1.0)),
    )
    assert expired.status == 503
    assert json.loads(expired.body)["error"] == "Portal.DeadlineExceeded"
    assert testbed["modi4.iu.edu"].gatekeeper.submissions == 0
    # budget metadata that does not parse is ignored, never fatal
    unparsed = http.post(
        "http://modi4.iu.edu/jobmanager",
        json.dumps(_submit_body(proxy=chain, deadline="soon")),
    )
    assert unparsed.status == 200
    assert testbed["modi4.iu.edu"].gatekeeper.submissions == 1
