"""The context (session) management service (§3.3).

Gateway "implements a service for capturing and organizing the user's
session (or context) for archival purposes ... We organize context in a
container structure that can be mapped to a directory structure such as the
Unix file system ... separate contexts for each user, and subdivide the user
contexts into problem contexts, which are further divided into session
contexts."

Two deployment styles, because the paper critiques its own service:

- :class:`ContextManagerService` — the faithful monolith.  "Also notable is
  that this service contained over 60 methods ... To implement this
  properly, the service will have to be broken up into more reasonable
  parts."  It also reproduces the placeholder-context workaround: "we were
  forced to create placeholder contexts in our SOAP wrappers" for stateless
  (HotPage-style) callers.
- :class:`UserContextService` / :class:`PropertyService` /
  :class:`SessionArchiveService` — the decomposition the paper calls for.

Experiment C4 compares the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.faults import ContextError
from repro.soap.server import SoapService
from repro.transport.clock import SimClock
from repro.transport.network import VirtualNetwork
from repro.transport.server import HttpServer
from repro.xmlutil.element import XmlElement, parse_xml

CONTEXT_NAMESPACE = "urn:iu:context-manager"
USERCTX_NAMESPACE = "urn:gce:user-context"
PROPERTY_NAMESPACE = "urn:gce:context-property"
ARCHIVE_NAMESPACE = "urn:gce:session-archive"


@dataclass
class ContextNode:
    """A node in the context tree."""

    name: str
    created: float = 0.0
    modified: float = 0.0
    placeholder: bool = False
    descriptor: str = ""
    properties: dict[str, str] = field(default_factory=dict)
    children: dict[str, "ContextNode"] = field(default_factory=dict)

    def to_xml(self) -> XmlElement:
        node = XmlElement("context", {"name": self.name})
        if self.placeholder:
            node.set("placeholder", "true")
        for key, value in sorted(self.properties.items()):
            node.child("property", text=value).set("key", key)
        if self.descriptor:
            node.child("descriptor", text=self.descriptor)
        for name in sorted(self.children):
            node.append(self.children[name].to_xml())
        return node

    @staticmethod
    def from_xml(source: str | XmlElement, *, now: float = 0.0) -> "ContextNode":
        el = parse_xml(source) if isinstance(source, str) else source
        if el.tag.local != "context":
            raise ContextError(f"not a context element: {el.tag}")
        node = ContextNode(
            name=el.get("name", "") or "",
            created=now,
            modified=now,
            placeholder=(el.get("placeholder") == "true"),
            descriptor=el.findtext("descriptor"),
        )
        for prop in el.findall("property"):
            node.properties[prop.get("key", "") or ""] = prop.text
        for child in el.findall("context"):
            sub = ContextNode.from_xml(child, now=now)
            node.children[sub.name] = sub
        return node


class ContextStore:
    """The shared tree: user -> problem -> session, plus archives.

    Every mutation funnels through this class, which is what makes the
    store journal-able: with a ``journal`` attached, each successful
    mutation appends one ``ctx-*`` record, and a fresh store can
    :meth:`replay` the log to rebuild the exact tree a crashed incarnation
    held (timestamps excepted — they are process state, not durable state).
    """

    def __init__(self, clock: SimClock | None = None, *, journal=None):
        self.clock = clock or SimClock()
        self.root = ContextNode("", created=self.clock.now, modified=self.clock.now)
        self.archives: dict[str, ContextNode] = {}
        self._placeholder_ids = itertools.count(1)
        self.journal = journal
        self._replaying = False

    def _journal(self, kind: str, **data) -> None:
        if self.journal is not None and not self._replaying:
            self.journal.append(kind, **data)

    # -- generic node algebra -----------------------------------------------------

    def node(self, path: str) -> ContextNode:
        current = self.root
        for part in self._parts(path):
            child = current.children.get(part)
            if child is None:
                raise ContextError(f"no context {path!r}", {"path": path})
            current = child
        return current

    def exists(self, path: str) -> bool:
        try:
            self.node(path)
            return True
        except ContextError:
            return False

    def create(self, path: str, *, placeholder: bool = False) -> ContextNode:
        current = self.root
        now = self.clock.now
        for part in self._parts(path):
            if part not in current.children:
                current.children[part] = ContextNode(
                    part, created=now, modified=now, placeholder=placeholder
                )
            current = current.children[part]
        self._journal("ctx-create", path=path, placeholder=placeholder)
        return current

    def remove(self, path: str) -> None:
        parts = self._parts(path)
        if not parts:
            raise ContextError("cannot remove the root context")
        parent = self.node("/".join(parts[:-1]))
        if parts[-1] not in parent.children:
            raise ContextError(f"no context {path!r}", {"path": path})
        del parent.children[parts[-1]]
        parent.modified = self.clock.now
        self._journal("ctx-remove", path=path)

    def rename(self, path: str, new_name: str) -> None:
        parts = self._parts(path)
        if not parts:
            raise ContextError("cannot rename the root context")
        parent = self.node("/".join(parts[:-1]))
        if new_name in parent.children:
            raise ContextError(f"context {new_name!r} already exists")
        node = parent.children.pop(parts[-1], None)
        if node is None:
            raise ContextError(f"no context {path!r}", {"path": path})
        node.name = new_name
        node.modified = self.clock.now
        parent.children[new_name] = node
        self._journal("ctx-rename", path=path, new=new_name)

    def copy(self, src: str, dst: str) -> None:
        node = self.node(src)
        clone = ContextNode.from_xml(node.to_xml(), now=self.clock.now)
        parts = self._parts(dst)
        parent = self.create("/".join(parts[:-1])) if parts[:-1] else self.root
        clone.name = parts[-1]
        parent.children[parts[-1]] = clone
        self._journal("ctx-copy", src=src, dst=dst)

    def move(self, src: str, dst: str) -> None:
        self.copy(src, dst)
        self.remove(src)

    # -- journaled leaf mutations (properties, descriptors, archives) -------

    def touch(self, path: str) -> None:
        self.node(path).modified = self.clock.now

    def set_property(self, path: str, key: str, value: str) -> None:
        node = self.node(path)
        node.properties[key] = value
        node.modified = self.clock.now
        self._journal("ctx-prop-set", path=path, key=key, value=value)

    def remove_property(self, path: str, key: str) -> bool:
        node = self.node(path)
        removed = node.properties.pop(key, None) is not None
        if removed:
            node.modified = self.clock.now
            self._journal("ctx-prop-del", path=path, key=key)
        return removed

    def clear_properties(self, path: str) -> None:
        node = self.node(path)
        node.properties.clear()
        node.modified = self.clock.now
        self._journal("ctx-prop-clear", path=path)

    def set_descriptor(self, path: str, descriptor: str) -> None:
        node = self.node(path)
        node.descriptor = descriptor
        node.modified = self.clock.now
        self._journal("ctx-desc", path=path, descriptor=descriptor)

    def archive(self, path: str, *, key: str = "") -> str:
        node = self.node(path)
        key = key or f"{path.strip('/')}@{self.clock.now:.3f}"
        self.archives[key] = ContextNode.from_xml(node.to_xml(), now=self.clock.now)
        self._journal("ctx-archive", key=key, xml=node.to_xml().serialize())
        return key

    def restore(self, archive_key: str, path: str) -> None:
        snapshot = self.archives.get(archive_key)
        if snapshot is None:
            raise ContextError(f"no archive {archive_key!r}")
        parts = self._parts(path)
        clone = ContextNode.from_xml(snapshot.to_xml(), now=self.clock.now)
        clone.name = parts[-1]
        parent = self.create("/".join(parts[:-1])) if parts[:-1] else self.root
        parent.children[parts[-1]] = clone
        self._journal("ctx-restore", key=archive_key, path=path)

    def remove_archive(self, archive_key: str) -> None:
        if archive_key not in self.archives:
            raise ContextError(f"no archive {archive_key!r}")
        del self.archives[archive_key]
        self._journal("ctx-archive-del", key=archive_key)

    def import_node(self, parent_path: str, xml: str) -> str:
        node = ContextNode.from_xml(xml, now=self.clock.now)
        parent = self.create(parent_path)
        parent.children[node.name] = node
        self._journal("ctx-import", parent=parent_path, xml=xml)
        return f"{parent_path.strip('/')}/{node.name}"

    # -- durability (the Recoverable protocol) -------------------------------

    def snapshot(self) -> dict:
        """Comparable durable state: the serialized tree plus archives
        (timestamps excluded — they are not journaled)."""
        return {
            "tree": self.root.to_xml().serialize(),
            "archives": {
                key: node.to_xml().serialize()
                for key, node in sorted(self.archives.items())
            },
        }

    def replay(self, journal) -> int:
        """Rebuild the tree from a previous incarnation's journal."""
        self.journal = journal
        self._replaying = True
        applied = 0
        max_placeholder = 0
        try:
            for record in journal.records():
                kind, data = record.kind, record.data
                if kind == "ctx-create":
                    self.create(
                        data["path"], placeholder=bool(data.get("placeholder"))
                    )
                    parts = self._parts(data["path"])
                    if (
                        parts
                        and parts[0] == "__placeholder__"
                        and parts[-1].startswith("session-")
                        and parts[-1][len("session-"):].isdigit()
                    ):
                        max_placeholder = max(
                            max_placeholder, int(parts[-1][len("session-"):])
                        )
                elif kind == "ctx-remove":
                    self.remove(data["path"])
                elif kind == "ctx-rename":
                    self.rename(data["path"], data["new"])
                elif kind == "ctx-copy":
                    self.copy(data["src"], data["dst"])
                elif kind == "ctx-prop-set":
                    self.set_property(data["path"], data["key"], data["value"])
                elif kind == "ctx-prop-del":
                    self.remove_property(data["path"], data["key"])
                elif kind == "ctx-prop-clear":
                    self.clear_properties(data["path"])
                elif kind == "ctx-desc":
                    self.set_descriptor(data["path"], data["descriptor"])
                elif kind == "ctx-archive":
                    self.archives[data["key"]] = ContextNode.from_xml(
                        data["xml"], now=record.t
                    )
                elif kind == "ctx-restore":
                    self.restore(data["key"], data["path"])
                elif kind == "ctx-archive-del":
                    self.archives.pop(data["key"], None)
                elif kind == "ctx-import":
                    self.import_node(data["parent"], data["xml"])
                else:
                    continue
                applied += 1
            self._placeholder_ids = itertools.count(max_placeholder + 1)
        finally:
            self._replaying = False
        return applied

    @staticmethod
    def _parts(path: str) -> list[str]:
        return [p for p in path.strip("/").split("/") if p]


class ContextManagerService:
    """The faithful 60+-method Gateway context manager monolith.

    Method naming follows the original's level-specific style — one family
    of methods per hierarchy level — which is exactly why the interface
    ballooned.  Paths: user / user+problem / user+problem+session.
    """

    def __init__(self, store: ContextStore | None = None, clock: SimClock | None = None):
        self.store = store or ContextStore(clock)
        self.calls = 0

    def _touch(self, path: str) -> None:
        self.store.touch(path)

    # ---- user contexts -------------------------------------------------------

    def createUserContext(self, user: str) -> str:
        """Create a top-level context for a portal user."""
        self.calls += 1
        self.store.create(user)
        return user

    def removeUserContext(self, user: str) -> bool:
        self.calls += 1
        self.store.remove(user)
        return True

    def hasUserContext(self, user: str) -> bool:
        self.calls += 1
        return self.store.exists(user)

    def listUserContexts(self) -> list[str]:
        self.calls += 1
        return sorted(self.store.root.children)

    def renameUserContext(self, user: str, new_name: str) -> bool:
        self.calls += 1
        self.store.rename(user, new_name)
        return True

    def getUserCreated(self, user: str) -> float:
        self.calls += 1
        return self.store.node(user).created

    def getUserModified(self, user: str) -> float:
        self.calls += 1
        return self.store.node(user).modified

    def touchUser(self, user: str) -> bool:
        self.calls += 1
        self._touch(user)
        return True

    def countProblems(self, user: str) -> int:
        self.calls += 1
        return len(self.store.node(user).children)

    def exportUserXml(self, user: str) -> str:
        self.calls += 1
        return self.store.node(user).to_xml().serialize()

    # ---- problem contexts --------------------------------------------------------

    def createProblemContext(self, user: str, problem: str) -> str:
        """Create a problem context under a user."""
        self.calls += 1
        if not self.store.exists(user):
            raise ContextError(f"no user context {user!r}")
        self.store.create(f"{user}/{problem}")
        return f"{user}/{problem}"

    def removeProblemContext(self, user: str, problem: str) -> bool:
        self.calls += 1
        self.store.remove(f"{user}/{problem}")
        return True

    def hasProblemContext(self, user: str, problem: str) -> bool:
        self.calls += 1
        return self.store.exists(f"{user}/{problem}")

    def listProblemContexts(self, user: str) -> list[str]:
        self.calls += 1
        return sorted(self.store.node(user).children)

    def renameProblemContext(self, user: str, problem: str, new_name: str) -> bool:
        self.calls += 1
        self.store.rename(f"{user}/{problem}", new_name)
        return True

    def getProblemCreated(self, user: str, problem: str) -> float:
        self.calls += 1
        return self.store.node(f"{user}/{problem}").created

    def getProblemModified(self, user: str, problem: str) -> float:
        self.calls += 1
        return self.store.node(f"{user}/{problem}").modified

    def touchProblem(self, user: str, problem: str) -> bool:
        self.calls += 1
        self._touch(f"{user}/{problem}")
        return True

    def countSessions(self, user: str, problem: str) -> int:
        self.calls += 1
        return len(self.store.node(f"{user}/{problem}").children)

    def copyProblemContext(self, user: str, problem: str, new_name: str) -> bool:
        self.calls += 1
        self.store.copy(f"{user}/{problem}", f"{user}/{new_name}")
        return True

    # ---- session contexts -----------------------------------------------------------

    def createSessionContext(self, user: str, problem: str, session: str) -> str:
        """Create a session context under a problem."""
        self.calls += 1
        if not self.store.exists(f"{user}/{problem}"):
            raise ContextError(f"no problem context {user}/{problem}")
        self.store.create(f"{user}/{problem}/{session}")
        return f"{user}/{problem}/{session}"

    def removeSessionContext(self, user: str, problem: str, session: str) -> bool:
        self.calls += 1
        self.store.remove(f"{user}/{problem}/{session}")
        return True

    def hasSessionContext(self, user: str, problem: str, session: str) -> bool:
        self.calls += 1
        return self.store.exists(f"{user}/{problem}/{session}")

    def listSessionContexts(self, user: str, problem: str) -> list[str]:
        self.calls += 1
        return sorted(self.store.node(f"{user}/{problem}").children)

    def renameSessionContext(
        self, user: str, problem: str, session: str, new_name: str
    ) -> bool:
        self.calls += 1
        self.store.rename(f"{user}/{problem}/{session}", new_name)
        return True

    def getSessionCreated(self, user: str, problem: str, session: str) -> float:
        self.calls += 1
        return self.store.node(f"{user}/{problem}/{session}").created

    def getSessionModified(self, user: str, problem: str, session: str) -> float:
        self.calls += 1
        return self.store.node(f"{user}/{problem}/{session}").modified

    def touchSession(self, user: str, problem: str, session: str) -> bool:
        self.calls += 1
        self._touch(f"{user}/{problem}/{session}")
        return True

    def copySessionContext(
        self, user: str, problem: str, session: str, new_name: str
    ) -> bool:
        self.calls += 1
        self.store.copy(
            f"{user}/{problem}/{session}", f"{user}/{problem}/{new_name}"
        )
        return True

    def moveSessionContext(
        self, user: str, problem: str, session: str, new_problem: str
    ) -> bool:
        self.calls += 1
        self.store.move(
            f"{user}/{problem}/{session}", f"{user}/{new_problem}/{session}"
        )
        return True

    def getSessionDescriptor(self, user: str, problem: str, session: str) -> str:
        """The application-instance descriptor XML archived in the session."""
        self.calls += 1
        return self.store.node(f"{user}/{problem}/{session}").descriptor

    def setSessionDescriptor(
        self, user: str, problem: str, session: str, descriptor: str
    ) -> bool:
        self.calls += 1
        self.store.set_descriptor(f"{user}/{problem}/{session}", descriptor)
        return True

    # ---- properties, one family per level --------------------------------------------

    def setUserProperty(self, user: str, key: str, value: str) -> bool:
        self.calls += 1
        self.store.set_property(user, key, value)
        return True

    def getUserProperty(self, user: str, key: str) -> str:
        self.calls += 1
        return self.store.node(user).properties.get(key, "")

    def hasUserProperty(self, user: str, key: str) -> bool:
        self.calls += 1
        return key in self.store.node(user).properties

    def removeUserProperty(self, user: str, key: str) -> bool:
        self.calls += 1
        return self.store.remove_property(user, key)

    def listUserProperties(self, user: str) -> list[str]:
        self.calls += 1
        return sorted(self.store.node(user).properties)

    def clearUserProperties(self, user: str) -> bool:
        self.calls += 1
        self.store.clear_properties(user)
        return True

    def setProblemProperty(self, user: str, problem: str, key: str, value: str) -> bool:
        self.calls += 1
        self.store.set_property(f"{user}/{problem}", key, value)
        return True

    def getProblemProperty(self, user: str, problem: str, key: str) -> str:
        self.calls += 1
        return self.store.node(f"{user}/{problem}").properties.get(key, "")

    def hasProblemProperty(self, user: str, problem: str, key: str) -> bool:
        self.calls += 1
        return key in self.store.node(f"{user}/{problem}").properties

    def removeProblemProperty(self, user: str, problem: str, key: str) -> bool:
        self.calls += 1
        return self.store.remove_property(f"{user}/{problem}", key)

    def listProblemProperties(self, user: str, problem: str) -> list[str]:
        self.calls += 1
        return sorted(self.store.node(f"{user}/{problem}").properties)

    def clearProblemProperties(self, user: str, problem: str) -> bool:
        self.calls += 1
        self.store.clear_properties(f"{user}/{problem}")
        return True

    def setSessionProperty(
        self, user: str, problem: str, session: str, key: str, value: str
    ) -> bool:
        self.calls += 1
        self.store.set_property(f"{user}/{problem}/{session}", key, value)
        return True

    def getSessionProperty(
        self, user: str, problem: str, session: str, key: str
    ) -> str:
        self.calls += 1
        return self.store.node(f"{user}/{problem}/{session}").properties.get(key, "")

    def hasSessionProperty(
        self, user: str, problem: str, session: str, key: str
    ) -> bool:
        self.calls += 1
        return key in self.store.node(f"{user}/{problem}/{session}").properties

    def removeSessionProperty(
        self, user: str, problem: str, session: str, key: str
    ) -> bool:
        self.calls += 1
        return self.store.remove_property(f"{user}/{problem}/{session}", key)

    def listSessionProperties(self, user: str, problem: str, session: str) -> list[str]:
        self.calls += 1
        return sorted(self.store.node(f"{user}/{problem}/{session}").properties)

    def clearSessionProperties(self, user: str, problem: str, session: str) -> bool:
        self.calls += 1
        self.store.clear_properties(f"{user}/{problem}/{session}")
        return True

    # ---- archival ----------------------------------------------------------------------

    def archiveSession(self, user: str, problem: str, session: str) -> str:
        """Snapshot a session for later recovery; returns the archive key."""
        self.calls += 1
        return self.store.archive(f"{user}/{problem}/{session}")

    def restoreSession(self, archive_key: str, user: str, problem: str, session: str) -> bool:
        """Recover an archived session into the live tree (users 'can recover
        and edit old sessions later')."""
        self.calls += 1
        self.store.restore(archive_key, f"{user}/{problem}/{session}")
        return True

    def listArchivedSessions(self, user: str) -> list[str]:
        self.calls += 1
        return sorted(k for k in self.store.archives if k.startswith(user + "/"))

    def removeArchivedSession(self, archive_key: str) -> bool:
        self.calls += 1
        self.store.remove_archive(archive_key)
        return True

    def exportSessionXml(self, user: str, problem: str, session: str) -> str:
        self.calls += 1
        return self.store.node(f"{user}/{problem}/{session}").to_xml().serialize()

    def importSessionXml(self, user: str, problem: str, xml: str) -> str:
        self.calls += 1
        return self.store.import_node(f"{user}/{problem}", xml)

    def getArchiveCount(self) -> int:
        self.calls += 1
        return len(self.store.archives)

    def purgeArchive(self, user: str) -> int:
        self.calls += 1
        keys = [k for k in self.store.archives if k.startswith(user + "/")]
        for key in keys:
            self.store.remove_archive(key)
        return len(keys)

    # ---- placeholder contexts (the HotPage workaround) -------------------------------------

    def createPlaceholderContext(self) -> str:
        """The §3 workaround: "we needed to create artificial contexts
        (sessions) for HotPage users".  Creates a throwaway
        user/problem/session path for a stateless caller."""
        self.calls += 1
        n = next(self.store._placeholder_ids)
        path = f"__placeholder__/anonymous/session-{n:06d}"
        self.store.create(path, placeholder=True)
        return path

    def isPlaceholder(self, path: str) -> bool:
        self.calls += 1
        return self.store.node(path).placeholder

    def removePlaceholder(self, path: str) -> bool:
        self.calls += 1
        if not self.store.node(path).placeholder:
            raise ContextError(f"{path!r} is not a placeholder context")
        self.store.remove(path)
        return True

    def placeholderCount(self) -> int:
        self.calls += 1
        root = self.store.root.children.get("__placeholder__")
        if root is None:
            return 0
        # a sum is order-independent, so insertion-order iteration is harmless here
        return sum(len(problem.children) for problem in root.children.values())  # repro: ignore[REP104]

    # ---- module contexts (service implementations live in contexts too) ----------------------

    def registerModule(self, name: str, descriptor: str) -> bool:
        """Gateway modules (service implementations) also exist in contexts."""
        self.calls += 1
        self.store.create(f"__modules__/{name}")
        self.store.set_descriptor(f"__modules__/{name}", descriptor)
        return True

    def unregisterModule(self, name: str) -> bool:
        self.calls += 1
        self.store.remove(f"__modules__/{name}")
        return True

    def listModules(self) -> list[str]:
        self.calls += 1
        modules = self.store.root.children.get("__modules__")
        return sorted(modules.children) if modules else []

    def hasModule(self, name: str) -> bool:
        self.calls += 1
        return self.store.exists(f"__modules__/{name}")

    def getModuleProperty(self, name: str, key: str) -> str:
        self.calls += 1
        return self.store.node(f"__modules__/{name}").properties.get(key, "")

    def setModuleProperty(self, name: str, key: str, value: str) -> bool:
        self.calls += 1
        self.store.set_property(f"__modules__/{name}", key, value)
        return True


# ---------------------------------------------------------------------------
# The decomposition the paper recommends
# ---------------------------------------------------------------------------


class UserContextService:
    """Hierarchy CRUD on generic paths — one small interface."""

    def __init__(self, store: ContextStore):
        self.store = store

    def create(self, path: str) -> str:
        """Create a context (and intermediate levels) at *path*."""
        self.store.create(path)
        return path

    def remove(self, path: str) -> bool:
        self.store.remove(path)
        return True

    def exists(self, path: str) -> bool:
        return self.store.exists(path)

    def list(self, path: str) -> list[str]:
        return sorted(self.store.node(path).children)

    def rename(self, path: str, new_name: str) -> bool:
        self.store.rename(path, new_name)
        return True

    def info(self, path: str) -> dict[str, Any]:
        node = self.store.node(path)
        return {
            "name": node.name,
            "created": node.created,
            "modified": node.modified,
            "children": len(node.children),
        }


class PropertyService:
    """Key/value properties on any context path."""

    def __init__(self, store: ContextStore):
        self.store = store

    def set(self, path: str, key: str, value: str) -> bool:
        self.store.set_property(path, key, value)
        return True

    def get(self, path: str, key: str) -> str:
        return self.store.node(path).properties.get(key, "")

    def remove(self, path: str, key: str) -> bool:
        return self.store.remove_property(path, key)

    def list(self, path: str) -> list[str]:
        return sorted(self.store.node(path).properties)


class SessionArchiveService:
    """Archival/recovery of session subtrees."""

    def __init__(self, store: ContextStore):
        self.store = store

    def archive(self, path: str) -> str:
        return self.store.archive(path)

    def restore(self, archive_key: str, path: str) -> bool:
        self.store.restore(archive_key, path)
        return True

    def list(self, prefix: str) -> list[str]:
        return sorted(k for k in self.store.archives if k.startswith(prefix))

    def export_xml(self, path: str) -> str:
        return self.store.node(path).to_xml().serialize()

    def import_xml(self, parent_path: str, xml: str) -> str:
        return self.store.import_node(parent_path, xml)


def deploy_context_manager(
    network: VirtualNetwork,
    host: str = "gateway.iu.edu",
    *,
    store: ContextStore | None = None,
    server: HttpServer | None = None,
    durable: bool = False,
) -> tuple[ContextManagerService, str]:
    """Deploy the monolith; returns (impl, endpoint URL).

    With ``durable=True`` every context mutation is journalled to the
    host's disk; deploying again on the same host replays the journal, so
    a crash loses no committed context state.
    """
    if durable and store is None:
        from repro.durability.journal import Journal

        journal = Journal(network.disk(host), "context", clock=network.clock)
        store = ContextStore(network.clock)
        if len(journal):
            store.replay(journal)
        else:
            store.journal = journal
    impl = ContextManagerService(store, network.clock)
    server = server or HttpServer(host, network)
    soap = SoapService("ContextManager", CONTEXT_NAMESPACE)
    soap.expose_object(impl)
    return impl, soap.mount(server, "/context")


def deploy_decomposed_context_services(
    network: VirtualNetwork,
    host: str = "contexts.iu.edu",
    *,
    store: ContextStore | None = None,
) -> dict[str, str]:
    """Deploy the three decomposed services on one host; returns
    service-name -> endpoint URL."""
    store = store or ContextStore(network.clock)
    server = HttpServer(host, network)
    endpoints: dict[str, str] = {}
    for name, namespace, impl, path in (
        ("user-context", USERCTX_NAMESPACE, UserContextService(store), "/user-context"),
        ("property", PROPERTY_NAMESPACE, PropertyService(store), "/property"),
        ("session-archive", ARCHIVE_NAMESPACE, SessionArchiveService(store), "/archive"),
    ):
        soap = SoapService(name, namespace)
        soap.expose_object(impl)
        endpoints[name] = soap.mount(server, path)
    return endpoints
