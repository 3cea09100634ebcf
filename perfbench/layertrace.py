"""Outside-in layer spans: wrap each layer's public entry points, time them.

The benchmark measures the program from the outside.  :class:`LayerTrace`
replaces the entry points listed in :data:`ENTRY_POINTS` with wrappers that
record a ``perf_counter_ns`` span per call: ``(span id, parent span id,
layer, start, end, op id)``.  Spans stay in memory until the run ends.

A layer's *self time* is its span time minus the time of its child spans.
The benchmark wraps every timed op in a span of its own (layer
:data:`OP`), so the op span's self time is the part of an op that falls in
no layer span: the unattributed remainder.  Self times of all layers plus
that remainder add up exactly to the traced op time.

A call into a layer from inside a span of the *same* layer records no span
of its own; its time stays in the enclosing span (``VirtualNetwork.send``
inside ``HttpClient.request`` is still transport).  Calls made while no op
is open record nothing, so output checks never leak into the trace.

Some call sites bind a name early, so each wrapper goes where the callers
look the name up:

- module functions (``parse_xml``, ``encode_value``, ``decode_value``) are
  replaced in *every* loaded ``repro`` module that holds them — e.g.
  ``repro.soap.message`` imports ``parse_xml`` at module level;
- methods are replaced on their class;
- ``handle_http`` is captured as a bound method when a service is
  mounted, so it is replaced in each ``HttpServer`` route table;
- exposed service methods are bound methods held by each
  ``SoapService``'s method registry, so they are replaced there.

An entry point whose module a workload never loads is skipped.  One whose
module is loaded but that is not found there raises :class:`LookupError`,
so that an entry point moved or renamed by a change fails the run instead
of silently handing its time to its caller.

:meth:`LayerTrace.uninstall` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: the layer name of the benchmark's own per-op span
OP = "op"

#: layer -> the entry points wrapped for it, each ``module:qualname``.
#: ``route:`` entries are ``handle_http`` methods, wrapped in the route
#: tables that hold them bound; an ``exposed:`` entry names a package, and
#: the exposed methods of SOAP services that it defines are wrapped in
#: their method registries.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "xmlutil.parse": ("repro.xmlutil.element:parse_xml",),
    "xmlutil.serialize": ("repro.xmlutil.element:XmlElement.serialize",),
    "soap.message": (
        "repro.soap.message:SoapEnvelope.parse",
        "repro.soap.message:SoapFault.to_xml",
        "repro.soap.message:SoapFault.from_xml",
    ),
    "soap.encoding": (
        "repro.soap.encoding:encode_value",
        "repro.soap.encoding:decode_value",
    ),
    "soap.client": ("repro.soap.client:SoapClient.call",),
    "soap.server": (
        "route:repro.soap.server:SoapService.handle_http",
        "repro.soap.server:SoapService.dispatch",
    ),
    "transport": (
        "repro.transport.client:HttpClient.request",
        "repro.transport.network:VirtualNetwork.send",
        "repro.transport.server:HttpServer.__call__",
    ),
    "services": ("exposed:repro.services", "exposed:repro.appws"),
    "grid": ("route:repro.grid.gram:Gatekeeper.handle_http",),
    "security": (
        "repro.security.authservice:AssertionInterceptor.__call__",
        "repro.security.authservice:ClientSecuritySession.make_assertion",
        "exposed:repro.security",
    ),
    "loadmgmt": (
        "repro.loadmgmt.admission:AdmissionController.admit",
        "repro.loadmgmt.admission:AdmissionController.release",
    ),
    "observability": (
        "repro.observability.tracer:Tracer.start",
        "repro.observability.tracer:Tracer.end",
        "repro.observability.sampling:TailSampler.offer",
    ),
    "portal": ("repro.portal.shell:PortalShell.run",),
}


def split_entry(entry: str) -> tuple[str, str, str]:
    """``[route:|exposed:]module[:qualname]`` -> (kind, module, qualname)."""
    kind = ""
    for prefix in ("route:", "exposed:"):
        if entry.startswith(prefix):
            kind, entry = prefix[:-1], entry[len(prefix):]
    module, _, qualname = entry.partition(":")
    return kind, module, qualname


def entries(kind: str) -> list[tuple[str, str, str, str]]:
    """(layer, entry, module, qualname) of every entry point of *kind*
    ('' for plain ones) whose module is loaded."""
    found = []
    for layer, layer_entries in ENTRY_POINTS.items():
        for entry in layer_entries:
            entry_kind, module, qualname = split_entry(entry)
            if entry_kind == kind and module in sys.modules:
                found.append((layer, entry, module, qualname))
    return found


def resolve(module: str, qualname: str) -> tuple[Any, str]:
    """The object that holds *qualname* in the loaded *module* as its own
    attribute, and the attribute's name."""
    owner: Any = sys.modules[module]
    *path, name = qualname.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        vars(owner)[name]
    except (AttributeError, KeyError, TypeError):
        raise LookupError(f"entry point {module}:{qualname} not found") from None
    return owner, name


class LayerTrace:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: finished spans: (span id, parent id, layer, start ns, end ns, op id)
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        #: calls per wrapped entry point, same-layer re-entries included
        self.calls: Counter[str] = Counter()
        #: characters parsed and serialized
        self.chars: Counter[str] = Counter()
        #: fault envelopes returned by SOAP endpoints
        self.faults = 0
        self.op_id = 0
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._restore: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(
        self, layer: str, entry: str, func: Callable, note: Callable | None = None
    ) -> Callable:
        trace = self
        clock = time.perf_counter_ns
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[entry] += 1
            stack = trace._stack
            if not stack or stack[-1][1] == layer:
                result = func(*args, **kwargs)
            else:
                span_id = trace._next_id
                trace._next_id = span_id + 1
                parent = stack[-1][0]
                stack.append((span_id, layer))
                start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    trace.spans.append(
                        (span_id, parent, layer, start, end, trace.op_id)
                    )
            if note is not None:
                note(args, result)
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def run_op(self, op: Callable[[], Any]) -> Any:
        """Run one op inside its own root span."""
        self.op_id += 1
        span_id = self._next_id
        self._next_id = span_id + 1
        self._stack.append((span_id, OP))
        start = time.perf_counter_ns()
        try:
            return op()
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, 0, OP, start, end, self.op_id))

    # -- counting hooks -----------------------------------------------------------

    def _note_parse(self, args, result) -> None:
        if args and isinstance(args[0], str):
            self.chars["parse"] += len(args[0])

    def _note_serialize(self, args, result) -> None:
        self.chars["serialize"] += len(result)

    def _note_response(self, args, result) -> None:
        if result.status == 500:
            self.faults += 1

    # -- install / uninstall -----------------------------------------------------

    def install(self, network) -> None:
        """Wrap every module and class entry point, then :meth:`attach` to
        *network*."""
        notes = {"xmlutil.parse": self._note_parse,
                 "xmlutil.serialize": self._note_serialize}
        for layer, entry, module, qualname in entries(""):
            owner, name = resolve(module, qualname)
            if isinstance(owner, type):
                self._patch_method(layer, entry, owner, name, notes.get(layer))
            else:
                self._patch_function(layer, entry, owner, name, notes.get(layer))
        self.attach(network)

    def attach(self, network) -> None:
        """Wrap the bound methods captured when *network*'s services were
        deployed: ``handle_http`` in each route table and the exposed
        methods in each SOAP service's registry."""
        from repro.soap.server import SoapService
        from repro.transport.server import HttpServer

        routes = {}  # handle_http function -> (layer, entry)
        for layer, entry, module, qualname in entries("route"):
            owner, name = resolve(module, qualname)
            routes[vars(owner)[name]] = (layer, entry)
        for host in network.hosts():
            server = network._hosts[host]  # no public accessor for handlers
            if not isinstance(server, HttpServer):
                continue
            table = server._routes  # where mount() keeps the bound methods
            for path, handler in list(table.items()):
                if getattr(handler, "__func__", None) not in routes:
                    continue
                layer, entry = routes[handler.__func__]
                note = self._note_response if layer == "soap.server" else None
                self._replace(table, path, self._wrap(layer, entry, handler, note))
                if isinstance(handler.__self__, SoapService):
                    self._patch_exposed(handler.__self__)

    def uninstall(self) -> None:
        """Put every original entry point back (last patched, first restored)."""
        while self._restore:
            self._restore.pop()()

    def _replace(self, table: dict, key: Any, value: Any) -> None:
        original = table[key]
        table[key] = value
        self._restore.append(lambda: table.__setitem__(key, original))

    def _setattr(self, owner: Any, name: str, value: Any) -> None:
        # a class's own attribute, not one a subclass lookup would find
        original = vars(owner)[name]
        setattr(owner, name, value)
        self._restore.append(lambda: setattr(owner, name, original))

    def _patch_function(self, layer: str, entry: str, module, name: str,
                        note: Callable | None) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(layer, entry, original, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._setattr(mod, attr, wrapper)

    def _patch_method(self, layer: str, entry: str, cls: type, name: str,
                      note: Callable | None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(self._wrap(layer, entry, raw.__func__, note))
        else:
            new = self._wrap(layer, entry, raw, note)
        self._setattr(cls, name, new)

    def _patch_exposed(self, service) -> None:
        packages = [(split_entry(entry)[1], layer)
                    for layer, layer_entries in ENTRY_POINTS.items()
                    for entry in layer_entries if entry.startswith("exposed:")]
        for exposed in service.methods.values():
            module = getattr(exposed.func, "__module__", "") or ""
            for package, layer in packages:
                if module == package or module.startswith(package + "."):
                    entry = f"exposed:{module}:{exposed.name}"
                    self._setattr(exposed, "func",
                                  self._wrap(layer, entry, exposed.func))
                    break

    # -- aggregation ------------------------------------------------------------------

    def self_times_ns(self, scale: dict[int, float] | None = None) -> dict[str, float]:
        """Layer -> total self time, ns, over all ops, or over the ops in
        *scale* (op id -> factor), each op's times multiplied by its factor;
        the :data:`OP` entry is the unattributed remainder."""
        spans = [s for s in self.spans if scale is None or s[5] in scale]
        child_time: dict[int, int] = defaultdict(int)
        for _sid, parent, _layer, start, end, _op in spans:
            if parent:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(int)
        for sid, _parent, layer, start, end, op in spans:
            own = (end - start) - child_time.get(sid, 0)
            totals[layer] += own if scale is None else own * scale[op]
        return dict(totals)

    def op_times_ns(self) -> list[int]:
        """Traced op durations, in op order."""
        return [end - start for _s, _p, layer, start, end, _op in self.spans
                if layer == OP]

    def write(self, path) -> None:
        """Write the spans out, one JSON array per line, gzip-compressed."""
        import gzip
        import json

        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write('["span","parent","layer","start_ns","end_ns","op"]\n')
            for span in sorted(self.spans):
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
