from repro.durability.journal import Journal
from repro.srb.server import SrbServer
from repro.srb.storage import StorageResource

ALICE = "/O=G/CN=alice"
BOB = "/O=G/CN=bob"
HOST = "srb.sdsc.edu"


def _server(network, ca, journal=None):
    server = SrbServer(ca, network.clock, journal=journal)
    server.add_resource(StorageResource("disk", capacity_bytes=10_000), default=True)
    server.add_resource(StorageResource("tape", capacity_bytes=10_000))
    return server


def _session(ca, server, identity=ALICE):
    cred = ca.issue_credential(identity, lifetime=10**6, now=0.0)
    return server.connect(cred.sign_proxy(lifetime=10**5, now=0.0))


def test_replay_rebuilds_catalogue_and_blobs(network, ca):
    journal = Journal(network.disk(HOST), "srb", clock=network.clock)
    server = _server(network, ca, journal=journal)
    server.register_user(ALICE, "alice")
    server.register_user(BOB, "bob")
    session = _session(ca, server)
    server.mkdir(session, "/home/alice/results")
    server.put(session, "/home/alice/results/out.dat", b"payload-1")
    server.put(session, "/home/alice/results/tmp.dat", b"scratch")
    server.chmod(session, "/home/alice/results", "bob", "r")
    server.rm(session, "/home/alice/results/tmp.dat")
    # overwrite journals an rm + a fresh put (and resets metadata/replicas)
    server.put(session, "/home/alice/results/out.dat", b"payload-2")
    server.replicate(session, "/home/alice/results/out.dat", "tape")
    server.set_metadata(
        session, "/home/alice/results/out.dat", {"run": "42"}
    )

    # crash: fresh server + fresh (empty) storage over the surviving journal
    rebuilt = _server(network, ca)
    applied = rebuilt.replay(Journal(network.disk(HOST), "srb"))
    assert applied > 0
    assert rebuilt.snapshot() == server.snapshot()

    session2 = _session(ca, rebuilt)
    assert rebuilt.get(session2, "/home/alice/results/out.dat") == b"payload-2"
    obj = rebuilt.mcat.data_object("/home/alice/results/out.dat")
    assert obj.metadata == {"run": "42"}
    assert not rebuilt.mcat.exists("/home/alice/results/tmp.dat")
    # ACL grants replayed too: bob can read alice's results collection
    bob = _session(ca, rebuilt, BOB)
    assert rebuilt.ls(bob, "/home/alice/results")


def test_replicas_survive_replay(network, ca):
    journal = Journal(network.disk(HOST), "srb", clock=network.clock)
    server = _server(network, ca, journal=journal)
    server.register_user(ALICE, "alice")
    session = _session(ca, server)
    server.put(session, "/home/alice/data", b"abc")
    server.replicate(session, "/home/alice/data", "tape")

    rebuilt = _server(network, ca)
    rebuilt.replay(Journal(network.disk(HOST), "srb"))
    obj = rebuilt.mcat.data_object("/home/alice/data")
    assert sorted(res for res, _ in obj.replicas) == ["disk", "tape"]
    # losing the primary replica still leaves the data readable
    primary = next(bid for res, bid in obj.replicas if res == "disk")
    rebuilt.resources["disk"].delete(primary)
    session2 = _session(ca, rebuilt)
    assert rebuilt.get(session2, "/home/alice/data") == b"abc"


def test_rmdir_force_replays_cleanly(network, ca):
    journal = Journal(network.disk(HOST), "srb", clock=network.clock)
    server = _server(network, ca, journal=journal)
    server.register_user(ALICE, "alice")
    session = _session(ca, server)
    server.mkdir(session, "/home/alice/tree/deep")
    server.put(session, "/home/alice/tree/a.dat", b"a")
    server.put(session, "/home/alice/tree/deep/b.dat", b"b")
    server.rmdir(session, "/home/alice/tree", force=True)

    rebuilt = _server(network, ca)
    rebuilt.replay(Journal(network.disk(HOST), "srb"))
    assert rebuilt.snapshot() == server.snapshot()
    assert not rebuilt.mcat.exists("/home/alice/tree")


def test_put_journals_the_data_it_stored(network, ca):
    journal = Journal(network.disk(HOST), "srb", clock=network.clock)
    server = _server(network, ca, journal=journal)
    server.register_user(ALICE, "alice")
    session = _session(ca, server)
    server.put(session, "/home/alice/out.dat", b"\x00payload", metadata={"k": "v"})
    (record,) = journal.by_kind("put")
    assert record.data == {
        "path": "/home/alice/out.dat",
        "data": "AHBheWxvYWQ=",
        "resource": "disk",
        "metadata": {"k": "v"},
        "user": "alice",
    }
