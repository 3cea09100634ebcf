"""The SRB server: GSI sessions, permissions, and the core operations."""

from __future__ import annotations

import base64
import itertools

from repro.faults import (
    AuthorizationError,
    AuthenticationError,
    InvalidRequestError,
    ResourceNotFoundError,
)
from repro.security.gsi import GsiError, ProxyCertificate, SimpleCA
from repro.srb.catalog import Collection, DataObject, Mcat
from repro.srb.storage import StorageResource
from repro.transport.clock import SimClock


class SrbSession:
    """An authenticated connection to the SRB server."""

    def __init__(self, server: "SrbServer", user: str, session_id: str):
        self.server = server
        self.user = user
        self.session_id = session_id
        self.open = True


class SrbServer:
    """The broker: MCAT + storage resources + access control.

    Users connect with a GSI proxy; the grid identity maps to an SRB user.
    Collections carry ACLs (owner always has ``rw``); home collections are
    created on registration, mirroring ``/home/<user>.<domain>`` in real SRB.
    """

    def __init__(
        self,
        ca: SimpleCA,
        clock: SimClock | None = None,
        *,
        zone: str = "reproZone",
        journal=None,
    ):
        self.ca = ca
        self.clock = clock or SimClock()
        self.zone = zone
        self.mcat = Mcat()
        self.resources: dict[str, StorageResource] = {}
        self.default_resource = ""
        self._identity_map: dict[str, str] = {}
        self._sessions: dict[str, SrbSession] = {}
        self._session_ids = itertools.count(1)
        self.mcat.make_collection("/home", "srbAdmin")
        #: optional write-ahead journal for catalogue mutations (see
        #: :mod:`repro.durability`); sessions and GSI state are deliberately
        #: *not* journalled — they are soft state a client re-establishes
        self.journal = journal
        self._replaying = False

    # -- administration -----------------------------------------------------------

    def add_resource(self, resource: StorageResource, *, default: bool = False) -> None:
        self.resources[resource.name] = resource
        if default or not self.default_resource:
            self.default_resource = resource.name

    def register_user(self, identity: str, srb_user: str) -> None:
        """Map a grid identity to an SRB user and create the home collection."""
        self._identity_map[identity] = srb_user
        home = self.mcat.make_collection(f"/home/{srb_user}", srb_user)
        home.acl[srb_user] = "rw"
        self._journal("user", identity=identity, srb_user=srb_user)

    # -- sessions ---------------------------------------------------------------------

    def connect(self, proxy: ProxyCertificate) -> SrbSession:
        """GSI-authenticate and open a session."""
        try:
            identity = self.ca.verify_chain(proxy, now=self.clock.now)
        except GsiError as exc:
            raise AuthenticationError(f"SRB GSI authentication failed: {exc}") from exc
        srb_user = self._identity_map.get(identity)
        if srb_user is None:
            raise AuthorizationError(
                f"grid identity {identity!r} is not a registered SRB user",
                {"identity": identity},
            )
        session = SrbSession(self, srb_user, f"srb-{next(self._session_ids):06d}")
        self._sessions[session.session_id] = session
        return session

    def disconnect(self, session: SrbSession) -> None:
        session.open = False
        self._sessions.pop(session.session_id, None)

    # -- access control ---------------------------------------------------------------

    def _check(self, session: SrbSession, collection: Collection, need: str) -> None:
        if not session.open:
            raise AuthenticationError("SRB session is closed")
        user = session.user
        if collection.owner == user or user == "srbAdmin":
            return
        granted = collection.acl.get(user, "")
        if need == "r" and granted in ("r", "rw"):
            return
        if need == "rw" and granted == "rw":
            return
        raise AuthorizationError(
            f"user {user!r} lacks {need!r} on collection {collection.name!r}",
            {"user": user, "need": need},
        )

    def chmod(
        self, session: SrbSession, path: str, user: str, access: str
    ) -> None:
        """Grant ``r``/``rw``/``none`` on a collection to another user."""
        collection = self.mcat.collection(path)
        self._check(session, collection, "rw")
        if access == "none":
            collection.acl.pop(user, None)
        elif access in ("r", "rw"):
            collection.acl[user] = access
        else:
            raise InvalidRequestError(f"unknown access level {access!r}")
        self._journal(
            "chmod", path=path, user=user, access=access, actor=session.user
        )

    # -- core operations ------------------------------------------------------------------

    def mkdir(self, session: SrbSession, path: str) -> None:
        # intermediate collections are created as needed; write permission is
        # required on the deepest ancestor that already exists
        parts = path.strip("/").split("/")
        anchor = self.mcat.root
        for index in range(len(parts) - 1, -1, -1):
            try:
                anchor = self.mcat.collection("/".join(parts[:index]))
                break
            except ResourceNotFoundError:
                continue
        self._check(session, anchor, "rw")
        self.mcat.make_collection(path, session.user)
        self._journal("mkdir", path=path, user=session.user)

    def ls(self, session: SrbSession, path: str) -> list[dict[str, object]]:
        collection = self.mcat.collection(path)
        self._check(session, collection, "r")
        return self.mcat.listing(path)

    def put(
        self,
        session: SrbSession,
        path: str,
        data: bytes,
        *,
        resource: str = "",
        metadata: dict[str, str] | None = None,
    ) -> DataObject:
        parent, _name = self.mcat.parent_and_name(path)
        self._check(session, parent, "rw")
        res_name = resource or self.default_resource
        res = self.resources.get(res_name)
        if res is None:
            raise ResourceNotFoundError(
                f"no storage resource {res_name!r}", {"resource": res_name}
            )
        if self.mcat.exists(path):
            self.rm(session, path)
        blob_id = res.write(data)
        obj = DataObject(
            name="",
            size=len(data),
            owner=session.user,
            created=self.clock.now,
            modified=self.clock.now,
            replicas=[(res_name, blob_id)],
            metadata=dict(metadata or {}),
        )
        self.mcat.put_object(path, obj)
        # the record holds a base64 copy of the data: build it only to write it
        if self._journaling:
            self._journal(
                "put",
                path=path,
                data=base64.b64encode(data).decode("ascii"),
                resource=res_name,
                metadata=dict(metadata or {}),
                user=session.user,
            )
        return obj

    def get(self, session: SrbSession, path: str) -> bytes:
        parent, _name = self.mcat.parent_and_name(path)
        self._check(session, parent, "r")
        obj = self.mcat.data_object(path)
        for res_name, blob_id in obj.replicas:
            res = self.resources.get(res_name)
            if res is not None and blob_id in res:
                return res.read(blob_id)
        raise ResourceNotFoundError(
            f"no live replica of {path!r}", {"path": path}
        )

    def rm(self, session: SrbSession, path: str) -> None:
        parent, _name = self.mcat.parent_and_name(path)
        self._check(session, parent, "rw")
        obj = self.mcat.remove_object(path)
        for res_name, blob_id in obj.replicas:
            res = self.resources.get(res_name)
            if res is not None and blob_id in res:
                res.delete(blob_id)
        self._journal("rm", path=path, user=session.user)

    def rmdir(self, session: SrbSession, path: str, *, force: bool = False) -> None:
        collection = self.mcat.collection(path)
        self._check(session, collection, "rw")
        if force:
            for row in list(self.mcat.listing(path)):
                child = f"{path.rstrip('/')}/{str(row['name']).rstrip('/')}"
                if row["type"] == "collection":
                    self.rmdir(session, child, force=True)
                else:
                    self.rm(session, child)
        self.mcat.remove_collection(path, force=force)
        self._journal("rmdir", path=path, force=force, user=session.user)

    def replicate(self, session: SrbSession, path: str, resource: str) -> DataObject:
        """Create an additional replica on another storage resource."""
        parent, _name = self.mcat.parent_and_name(path)
        self._check(session, parent, "rw")
        obj = self.mcat.data_object(path)
        if obj.replica_on(resource) is not None:
            return obj
        res = self.resources.get(resource)
        if res is None:
            raise ResourceNotFoundError(
                f"no storage resource {resource!r}", {"resource": resource}
            )
        data = self.get(session, path)
        obj.replicas.append((resource, res.write(data)))
        obj.modified = self.clock.now
        self._journal("replicate", path=path, resource=resource, user=session.user)
        return obj

    def set_metadata(
        self, session: SrbSession, path: str, metadata: dict[str, str]
    ) -> None:
        parent, _name = self.mcat.parent_and_name(path)
        self._check(session, parent, "rw")
        obj = self.mcat.data_object(path)
        obj.metadata.update(metadata)
        obj.modified = self.clock.now
        self._journal(
            "meta", path=path, metadata=dict(metadata), user=session.user
        )

    def query_metadata(
        self, session: SrbSession, where: dict[str, str], path: str = "/"
    ) -> list[str]:
        collection = self.mcat.collection(path)
        self._check(session, collection, "r")
        return [p for p, _obj in self.mcat.find_by_metadata(where, path)]

    # -- durability (the Recoverable protocol) -------------------------------------

    @property
    def _journaling(self) -> bool:
        return self.journal is not None and not self._replaying

    def _journal(self, kind: str, **data) -> None:
        if self._journaling:
            self.journal.append(kind, **data)

    def snapshot(self) -> dict:
        """A JSON-safe summary of the catalogue (users, tree, replicas)."""
        objects: dict[str, dict] = {}
        collections: list[str] = []

        def visit(node: Collection, prefix: str) -> None:
            for name, child in sorted(node.collections.items()):
                child_path = f"{prefix}/{name}"
                collections.append(child_path)
                visit(child, child_path)
            for name, obj in sorted(node.objects.items()):
                objects[f"{prefix}/{name}"] = {
                    "size": obj.size,
                    "owner": obj.owner,
                    "replicas": [list(r) for r in obj.replicas],
                    "metadata": dict(obj.metadata),
                }

        visit(self.mcat.root, "")
        return {
            "zone": self.zone,
            "users": dict(self._identity_map),
            "collections": collections,
            "objects": objects,
        }

    def replay(self, journal) -> int:
        """Rebuild the catalogue and storage blobs from a surviving journal.

        Each record re-runs the original operation as the user who issued
        it (a synthetic session — GSI re-authentication is soft state, not
        journal state), so ACL checks replay exactly as they first ran.
        Storage resources must be attached before calling this.
        """
        self.journal = journal
        self._replaying = True
        applied = 0
        try:
            for record in journal.records():
                data = record.data
                session = SrbSession(
                    self, str(data.get("user", "srbAdmin")), "replay"
                )
                if record.kind == "user":
                    self.register_user(data["identity"], data["srb_user"])
                elif record.kind == "chmod":
                    actor = SrbSession(self, str(data["actor"]), "replay")
                    self.chmod(actor, data["path"], data["user"], data["access"])
                elif record.kind == "mkdir":
                    self.mkdir(session, data["path"])
                elif record.kind == "put":
                    self.put(
                        session,
                        data["path"],
                        base64.b64decode(data["data"]),
                        resource=data.get("resource", ""),
                        metadata=data.get("metadata") or {},
                    )
                elif record.kind == "rm":
                    if self.mcat.exists(data["path"]):
                        self.rm(session, data["path"])
                elif record.kind == "rmdir":
                    # children fell to their own rm/rmdir records already
                    self.rmdir(session, data["path"], force=bool(data.get("force")))
                elif record.kind == "replicate":
                    self.replicate(session, data["path"], data["resource"])
                elif record.kind == "meta":
                    self.set_metadata(session, data["path"], data["metadata"] or {})
                else:
                    continue
                applied += 1
        finally:
            self._replaying = False
        return applied
