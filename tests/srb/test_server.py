import pytest

from repro.faults import (
    AuthenticationError,
    AuthorizationError,
    ResourceExhaustedError,
    ResourceNotFoundError,
)
from repro.srb.server import SrbServer
from repro.srb.storage import StorageResource
from repro.transport.clock import SimClock


ALICE = "/O=G/CN=alice"
BOB = "/O=G/CN=bob"


@pytest.fixture
def srb(ca):
    server = SrbServer(ca, SimClock())
    server.add_resource(StorageResource("disk", capacity_bytes=1000), default=True)
    server.add_resource(StorageResource("tape", capacity_bytes=1000))
    server.register_user(ALICE, "alice")
    server.register_user(BOB, "bob")
    return server


def _session(ca, srb, identity=ALICE):
    cred = ca.issue_credential(identity, lifetime=1000.0, now=0.0)
    return srb.connect(cred.sign_proxy(lifetime=500.0, now=0.0))


def test_connect_requires_registration(ca, srb):
    stranger = ca.issue_credential("/O=G/CN=eve", lifetime=100.0, now=0.0)
    with pytest.raises(AuthorizationError):
        srb.connect(stranger.sign_proxy(lifetime=10.0, now=0.0))


def test_connect_rejects_expired_proxy(ca, srb):
    cred = ca.issue_credential(ALICE, lifetime=1000.0, now=0.0)
    proxy = cred.sign_proxy(lifetime=1.0, now=0.0)
    srb.clock.advance(10.0)
    with pytest.raises(AuthenticationError):
        srb.connect(proxy)


def test_put_get_rm(ca, srb):
    session = _session(ca, srb)
    srb.put(session, "/home/alice/f", b"content")
    assert srb.get(session, "/home/alice/f") == b"content"
    srb.rm(session, "/home/alice/f")
    with pytest.raises(ResourceNotFoundError):
        srb.get(session, "/home/alice/f")
    # physical storage was reclaimed
    assert srb.resources["disk"].used_bytes == 0


def test_unjournaled_put_builds_no_record(ca, srb, monkeypatch):
    # the record's base64 copy of the data is built only when written
    def no_record(data):
        raise AssertionError("encoded a journal record with no journal")

    monkeypatch.setattr("repro.srb.server.base64.b64encode", no_record)
    session = _session(ca, srb)
    srb.put(session, "/home/alice/f", b"content")
    assert srb.get(session, "/home/alice/f") == b"content"


def test_overwrite_replaces(ca, srb):
    session = _session(ca, srb)
    srb.put(session, "/home/alice/f", b"v1")
    srb.put(session, "/home/alice/f", b"version2")
    assert srb.get(session, "/home/alice/f") == b"version2"
    assert srb.resources["disk"].used_bytes == len(b"version2")


def test_acl_blocks_other_users(ca, srb):
    alice = _session(ca, srb)
    bob = _session(ca, srb, BOB)
    srb.put(alice, "/home/alice/private", b"x")
    with pytest.raises(AuthorizationError):
        srb.get(bob, "/home/alice/private")
    with pytest.raises(AuthorizationError):
        srb.put(bob, "/home/alice/intruder", b"y")


def test_chmod_grants_read_then_revoke(ca, srb):
    alice = _session(ca, srb)
    bob = _session(ca, srb, BOB)
    srb.put(alice, "/home/alice/shared", b"data")
    srb.chmod(alice, "/home/alice", "bob", "r")
    assert srb.get(bob, "/home/alice/shared") == b"data"
    with pytest.raises(AuthorizationError):
        srb.put(bob, "/home/alice/write-denied", b"z")
    srb.chmod(alice, "/home/alice", "bob", "none")
    with pytest.raises(AuthorizationError):
        srb.get(bob, "/home/alice/shared")


def test_disk_full_is_the_canonical_error(ca, srb):
    session = _session(ca, srb)
    with pytest.raises(ResourceExhaustedError):
        srb.put(session, "/home/alice/big", b"x" * 2000)


def test_replication_and_failover(ca, srb):
    session = _session(ca, srb)
    srb.put(session, "/home/alice/f", b"replicated")
    obj = srb.replicate(session, "/home/alice/f", "tape")
    assert len(obj.replicas) == 2
    # idempotent
    assert len(srb.replicate(session, "/home/alice/f", "tape").replicas) == 2
    # losing the primary replica still allows reads from tape
    primary_blob = obj.replicas[0][1]
    srb.resources["disk"].delete(primary_blob)
    assert srb.get(session, "/home/alice/f") == b"replicated"


def test_metadata_roundtrip_and_query(ca, srb):
    session = _session(ca, srb)
    srb.put(session, "/home/alice/in.dat", b"1", metadata={"kind": "input"})
    srb.set_metadata(session, "/home/alice/in.dat", {"code": "gaussian"})
    hits = srb.query_metadata(session, {"kind": "input"}, "/home/alice")
    assert hits == ["/home/alice/in.dat"]


def test_rmdir_force_reclaims_everything(ca, srb):
    session = _session(ca, srb)
    srb.mkdir(session, "/home/alice/tree/deep")
    srb.put(session, "/home/alice/tree/a", b"aa")
    srb.put(session, "/home/alice/tree/deep/b", b"bb")
    srb.rmdir(session, "/home/alice/tree", force=True)
    assert srb.resources["disk"].used_bytes == 0


def test_closed_session_rejected(ca, srb):
    session = _session(ca, srb)
    srb.disconnect(session)
    with pytest.raises(AuthenticationError):
        srb.ls(session, "/home/alice")
