"""REP9xx — propagation: contracts that hold *across* call boundaries.

The portal is a chain of cooperating services; what must stay correct is
what flows between calls — classified faults, deadline/trace/principal
context, deterministic values, handle ownership.  PR 5's per-file rules
stopped at module boundaries; this family runs on the whole-program call
graph (:mod:`repro.analysis.graph`) and checks the flows end to end:

- **REP901** — the fault taxonomy on every dispatch path.  A raise
  reachable from SOAP dispatch, in the service or in any helper it calls,
  must be classified: a ``PortalError`` subclass (by name, by import from
  :mod:`repro.faults`, or by resolution), or one of
  :data:`~repro.analysis.checkers.faults.ALLOWED_RAISES`.  An exception
  factory (``raise self._deadline_error(...)``) is judged by the return
  annotation of the callee the call graph resolves.  A cross-module call
  site wrapped in ``try/except`` does not propagate reachability —
  wrapping foreign errors at the boundary is the discipline, and the
  wrapper takes the blame for what it re-raises.

- **REP902** — context propagation on outbound calls.  A
  dispatch-reachable function that issues outbound traffic on behalf of
  the inbound request must thread the request's context: raw
  ``HttpClient.post`` egress outside the SOAP/transport encoder layers
  must consult the inbound deadline (``current_inbound_deadline``), and
  constructing a ``SoapClient(..., traced=False)`` on a dispatch path
  severs the trace tree mid-request.

- **REP903** — determinism taint.  Wall-clock and unseeded-random values
  must not flow — through assignments, helper returns, or parameters,
  across modules — into durable records: journal appends, provenance
  blobs, replication versions.  (REP101–REP103 ban the sources outright;
  this rule catches the flow even where a source enters through a
  helper in another module.)

- **REP904** — cross-call resource hygiene.  A span/ticket handle
  acquired in one function and *returned* transfers ownership: every
  caller must release it crash-safely (``finally``, or the except+tail
  pair), release it through a delegate that does, or pass ownership on.
  REP501 checks the acquiring function; this rule checks the callers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.astutil import dotted_name, resolve_call_path
from repro.analysis.checkers.determinism import DATETIME_CALLS, TIME_CALLS
from repro.analysis.checkers.faults import (
    ALLOWED_RAISES,
    FAULT_MODULE,
    FAULT_ROOT,
)
from repro.analysis.core import Checker, Finding, Project, register_checker
from repro.analysis.graph.dataflow import Dataflow, reachable

#: modules whose raw HTTP use IS the encoder layer (they attach the
#: context headers everyone else must go through)
EGRESS_EXEMPT_PREFIXES = ("repro.soap", "repro.transport")

#: referencing any of these names marks a function as threading the
#: inbound budget into its egress payload by hand
DEADLINE_THREADERS = {"current_inbound_deadline", "deadline_payload"}

#: durable-record sinks: method name -> required receiver-name fragment
SINK_METHODS = {
    "append": "journal",
    "put_blob": "",
}

#: handle kinds and the release verb each owner owes
ACQUIRE_RELEASE = {"span": "end", "ticket": "release"}


def _full_filter(edge) -> bool:
    """Edges the interprocedural passes follow: everything except
    constructors (``__init__``-time raises are deployment-time), and
    except guarded *cross-module* call sites (wrap-at-the-boundary)."""
    if edge.kind == "ctor":
        return False
    if edge.guarded and edge.cross_module:
        return False
    return True


@register_checker
class PropagationChecker(Checker):
    name = "propagation"
    description = (
        "whole-program propagation: classified faults, request context, "
        "deterministic values, and handle ownership hold across call and "
        "module boundaries"
    )
    codes = {
        "REP901": "raise of an unclassified exception reachable from SOAP dispatch",
        "REP902": (
            "dispatch-reachable outbound call drops the inbound "
            "deadline/trace context"
        ),
        "REP903": (
            "wall-clock or unseeded-random value flows into a journal, "
            "provenance, or replication-version record"
        ),
        "REP904": (
            "handle acquired through a call is not released crash-safely "
            "by its new owner"
        ),
    }

    def check(self, project: Project) -> Iterable[Finding]:
        graph = project.graph()
        calls = graph.calls
        by_module = {
            m.module_name: m
            for m in project.parsed()
            if graph.modules.modules.get(m.module_name) == m.rel
        }
        full = reachable(
            calls,
            calls.dispatch_roots,
            follow_guarded=True,
            edge_filter=_full_filter,
        )
        yield from self._check_faults(project, calls, by_module, full)
        yield from self._check_context(calls, by_module, full)
        yield from _TaintAnalysis(calls).findings(by_module, self.name)
        yield from _OwnershipAnalysis(calls).findings(by_module, self.name)

    # -- REP901: the fault taxonomy on every dispatch path ---------------------

    def _check_faults(
        self, project, calls, by_module, full
    ) -> Iterable[Finding]:
        taxonomy = _Taxonomy(project, calls)
        for node_id in sorted(full):
            node = calls.nodes[node_id]
            module = by_module.get(node.module)
            if module is None:
                continue
            func = calls.funcs[node_id]
            symbol = f"{node.cls}.{node.name}" if node.cls else node.name
            for raise_node in calls.index_of(node_id).walk(func, ast.Raise):
                verdict = taxonomy.verdict(node_id, raise_node)
                if verdict is None:
                    continue
                yield module.finding(
                    "REP901",
                    f"{symbol} raises {verdict} on a SOAP-dispatch path — "
                    "classify it as a PortalError subclass (or wrap the call "
                    "at the service boundary) so the fault crosses the wire "
                    "with a Portal.* code",
                    raise_node,
                    checker=self.name,
                    symbol=symbol,
                )

    # -- REP902: context propagation on outbound calls -------------------------

    def _check_context(self, calls, by_module, full) -> Iterable[Finding]:
        symbols = calls.symbols
        for node_id in sorted(full):
            node = calls.nodes[node_id]
            module = by_module.get(node.module)
            if module is None:
                continue
            func = calls.funcs[node_id]
            symbol = f"{node.cls}.{node.name}" if node.cls else node.name
            exempt = node.module.startswith(EGRESS_EXEMPT_PREFIXES)
            index = calls.index_of(node_id)
            threads_deadline = _references_any(index, func, DEADLINE_THREADERS)
            for call in index.walk(func, ast.Call):
                if self._is_untraced_client(symbols, node.module, call):
                    yield module.finding(
                        "REP902",
                        f"{symbol} builds a SoapClient with traced=False on "
                        "a dispatch path — the outbound hop drops the "
                        "request's trace context, severing the span tree "
                        "mid-request",
                        call,
                        checker=self.name,
                        symbol=symbol,
                    )
                    continue
                if exempt or threads_deadline:
                    continue
                target = call.func
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "post"
                    and self._receiver_is_http(calls, node, target.value)
                ):
                    yield module.finding(
                        "REP902",
                        f"{symbol} posts over raw HTTP on a dispatch path "
                        "without threading the inbound context — attach the "
                        "deadline budget (current_inbound_deadline) to the "
                        "egress payload and the trace context as a "
                        "Traceparent header, or go through the SOAP client",
                        call,
                        checker=self.name,
                        symbol=symbol,
                    )

    @staticmethod
    def _is_untraced_client(symbols, module, call: ast.Call) -> bool:
        dotted = dotted_name(call.func)
        if not dotted:
            return False
        resolved = symbols.resolve(module, dotted)
        if resolved is None or resolved.name != "SoapClient":
            return False
        for keyword in call.keywords:
            if keyword.arg == "traced" and isinstance(keyword.value, ast.Constant):
                return keyword.value.value is False
        return False

    @staticmethod
    def _receiver_is_http(calls, node, receiver) -> bool:
        """True when the ``.post`` receiver resolves to an ``HttpClient``
        through the call graph's receiver typing, or by the ``_http``
        naming idiom when typing comes up empty."""
        owner = None
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and node.cls
        ):
            owner = calls._attr_classes(node.module, node.cls).get(receiver.attr)
        elif isinstance(receiver, ast.Name):
            owner = calls._local_classes(node.id).get(receiver.id)
        if owner is not None:
            return owner.name == "HttpClient"
        tail = dotted_name(receiver).split(".")[-1]
        return tail in {"http", "_http"}


def _references_any(index, func, names: set[str]) -> bool:
    for node in index.walk(func, ast.Name, ast.Attribute):
        if isinstance(node, ast.Name) and node.id in names:
            return True
        if isinstance(node, ast.Attribute) and node.attr in names:
            return True
    return False


class _Taxonomy:
    """REP901's one decision: is a raise on a dispatch path classified?"""

    def __init__(self, project: Project, calls):
        symbols = calls.symbols
        self.calls = calls
        #: by-name closure: sees ``class DemoError(PortalError)`` even when
        #: :mod:`repro.faults` itself is outside the run
        self.names = project.subclasses_of({FAULT_ROOT}) | ALLOWED_RAISES
        roots = {key for key in symbols.classes if key[1] == FAULT_ROOT}
        self.classes = symbols.subclasses_of(roots)
        self._fault_imports: dict[str, set[str]] = {}

    def classified(self, module: str, name: str) -> bool:
        """Whether exception *name*, as written in *module*, is classified."""
        imported = self._fault_imports.get(module)
        if imported is None:
            # local names bound to ``repro.faults`` members: portal errors
            # even when the class is defined outside the run
            imported = self._fault_imports[module] = {
                local
                for local, origin in self.calls.symbols.imports[module].items()
                if origin.startswith(FAULT_MODULE + ".")
            }
        for part in name.split("."):
            if part in self.names or part in imported:
                return True
        resolved = self.calls.symbols.resolve(module, name)
        return (
            resolved is not None
            and resolved.kind == "class"
            and (
                (resolved.module, resolved.name) in self.classes
                or resolved.module.startswith(FAULT_MODULE)
            )
        )

    def verdict(self, node_id: str, raise_node: ast.Raise) -> str | None:
        """What *raise_node* raises when that is unclassified; ``None`` when
        it is classified or out of static reach."""
        exc = raise_node.exc
        if exc is None:
            return None  # bare re-raise
        call = exc if isinstance(exc, ast.Call) else None
        name = dotted_name(exc.func if call is not None else exc)
        if not name:
            return None  # dynamic construction: out of static reach
        if self.classified(self.calls.nodes[node_id].module, name):
            return None
        callee = (
            _line_callee(self.calls, node_id, call, exact=True)
            if call is not None
            else None
        )
        if callee is not None:
            # ``raise self._deadline_error(...)``: an exception factory,
            # judged by its callee's return annotation
            returns = self.calls.funcs[callee].returns
            returned = (
                str(returns.value)
                if isinstance(returns, ast.Constant)
                else dotted_name(returns)
            )
            if self.classified(self.calls.nodes[callee].module, returned):
                return None
            return (
                f"{name}() (a factory whose return annotation is not a "
                "classified exception)"
            )
        head = name.partition(".")[0]
        if head[0].islower() and head != "self":
            return None  # a variable being re-raised (``raise err``)
        return name


def _line_callee(calls, node_id: str, call: ast.Call, *, exact=False):
    """The id of the callee behind *call*, or ``None``.

    Edges carry line numbers, not columns, so two calls on one line are
    ambiguous by line alone — prefer the edge whose callee's function
    name matches the call target, else (unless *exact*) the first line
    match."""
    target = None
    fallback = None
    for edge in calls.edges_by_line.get(node_id, {}).get(call.lineno, ()):
        if edge.kind == "ctor":
            continue
        if target is None:
            target = dotted_name(call.func).split(".")[-1]
        if edge.callee.split(":", 1)[-1].split(".")[-1] == target:
            return edge.callee
        if fallback is None and not exact:
            fallback = edge.callee
    return fallback


def _edge_summary(calls, node_id: str, call: ast.Call, summaries):
    """The settled summary of the callee behind *call*."""
    callee = _line_callee(calls, node_id, call)
    return summaries.get(callee) if callee is not None else None


# -- REP903: determinism taint -------------------------------------------------

#: taint label meaning "carries a nondeterministic value"; parameters
#: carry their own name as a label so flows can be attributed to callers
_SRC = "<src>"


def _is_source_call(call: ast.Call, aliases: dict[str, str]) -> bool:
    path = resolve_call_path(call.func, aliases)
    if not path:
        return False
    if path in TIME_CALLS or path in DATETIME_CALLS:
        return True
    if path == "random.Random":
        return not call.args and not call.keywords  # unseeded
    if path.startswith("random.") and path.count(".") == 1:
        return path.split(".", 1)[1] != "Random"
    return False


def _sink_of(call: ast.Call, symbols, module: str) -> str | None:
    """A human-readable label when *call* writes a durable record."""
    target = call.func
    if isinstance(target, ast.Attribute):
        pattern = SINK_METHODS.get(target.attr)
        if pattern is not None:
            receiver = dotted_name(target.value)
            if pattern in receiver.lower():
                return f"{receiver}.{target.attr}(...)"
    dotted = dotted_name(target)
    if dotted:
        resolved = symbols.resolve(module, dotted)
        if (
            resolved is not None
            and resolved.kind == "class"
            and resolved.name == "Version"
            and "replication" in resolved.module
        ):
            return "a replication Version(...)"
    return None


@dataclass(frozen=True)
class _TaintSummary:
    #: the function's return value carries a nondeterministic value
    returns_taint: bool = False
    #: parameter indexes whose value reaches a durable sink inside
    param_sinks: frozenset = frozenset()


class _TaintAnalysis:
    """Forward taint: sources -> variables -> helper returns/params ->
    durable sinks.  Summaries run to fixpoint over the call graph, then
    one final sweep with the settled summaries emits the findings."""

    def __init__(self, calls):
        self.calls = calls
        self._flows: dict[str, list[ast.stmt]] = {}
        self.summaries = Dataflow(
            calls, self._transfer, initial=lambda _n: _TaintSummary()
        ).run()

    def findings(self, by_module, checker: str) -> Iterable[Finding]:
        for node_id in sorted(self.calls.nodes):
            node = self.calls.nodes[node_id]
            module = by_module.get(node.module)
            if module is None:
                continue
            symbol = f"{node.cls}.{node.name}" if node.cls else node.name
            seen: set[tuple] = set()
            for call, sink, via in self._sink_flows(node_id):
                key = (call.lineno, call.col_offset, sink, via)
                if key in seen:
                    continue
                seen.add(key)
                suffix = " via a helper parameter" if via else ""
                yield module.finding(
                    "REP903",
                    f"{symbol} writes a wall-clock or unseeded-random "
                    f"value into {sink}{suffix} — durable records must be "
                    "pure functions of (virtual clock, seeds) or recovery "
                    "replay diverges",
                    call,
                    checker=checker,
                    symbol=symbol,
                )

    # -- per-function abstract interpretation ----------------------------------

    @staticmethod
    def _params(func) -> list[str]:
        args = [a.arg for a in func.args.args if a.arg != "self"]
        return args + [a.arg for a in func.args.kwonlyargs]

    def _taint_env(self, node_id: str, summaries):
        """Returns ``taint_of``, an expression -> label-set evaluator over
        the settled variable environment.  Two sweeps over the statement
        tree approximate loops; the house style assigns before use, so
        two keep the pass linear and sufficient."""
        node = self.calls.nodes[node_id]
        func = self.calls.funcs[node_id]
        index = self.calls.index_of(node_id)
        aliases = self.calls.symbols.imports.get(node.module, {})
        params = self._params(func)
        env: dict[str, set[str]] = {p: {p} for p in params}
        returns: set[str] = set()

        def taint_of(expr) -> set[str]:
            labels: set[str] = set()
            for sub in index.walk(expr, ast.Name, ast.Call):
                if isinstance(sub, ast.Name) and sub.id in env:
                    labels |= env[sub.id]
                elif isinstance(sub, ast.Call):
                    if _is_source_call(sub, aliases):
                        labels.add(_SRC)
                    else:
                        callee = self._callee_summary(node_id, sub, summaries)
                        if callee is not None and callee.returns_taint:
                            labels.add(_SRC)
            return labels

        flow = self._flow(node_id)
        for _sweep in range(2):
            for stmt in flow:
                if isinstance(stmt, ast.Assign):
                    labels = taint_of(stmt.value)
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            env[target.id] = env.get(target.id, set()) | labels
                elif isinstance(stmt, ast.Return):
                    returns.update(taint_of(stmt.value))
                else:
                    env[stmt.target.id] = env.get(
                        stmt.target.id, set()
                    ) | taint_of(stmt.value)
        return taint_of, returns

    def _flow(self, node_id: str) -> list[ast.stmt]:
        """The statements that move taint — assignments to names and
        valued returns, nested ``def``/``class`` bodies excluded — in
        source order (computed once per function)."""
        flow = self._flows.get(node_id)
        if flow is not None:
            return flow
        flow = []

        def collect(stmts) -> None:
            for stmt in stmts:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                moves = (
                    isinstance(stmt, ast.Assign)
                    or (isinstance(stmt, ast.Return) and stmt.value is not None)
                    or (
                        isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
                        and stmt.value is not None
                        and isinstance(stmt.target, ast.Name)
                    )
                )
                if moves:
                    flow.append(stmt)
                else:
                    collect(
                        [
                            child
                            for child in ast.iter_child_nodes(stmt)
                            if isinstance(child, ast.stmt)
                        ]
                    )

        collect(self.calls.funcs[node_id].body)
        self._flows[node_id] = flow
        return flow

    def _transfer(self, node_id: str, summaries) -> _TaintSummary:
        taint_of, returns = self._taint_env(node_id, summaries)
        node = self.calls.nodes[node_id]
        func = self.calls.funcs[node_id]
        params = self._params(func)
        param_sinks: set[int] = set()
        for call in self.calls.index_of(node_id).walk(func, ast.Call):
            sink = _sink_of(call, self.calls.symbols, node.module)
            callee = self._callee_summary(node_id, call, summaries)
            indirect = (
                callee.param_sinks if callee is not None else frozenset()
            )
            if sink is None and not indirect:
                continue
            exprs = list(call.args) + [kw.value for kw in call.keywords]
            for index, expr in enumerate(exprs):
                if sink is None and index not in indirect:
                    continue
                for label in taint_of(expr):
                    if label != _SRC and label in params:
                        param_sinks.add(params.index(label))
        return _TaintSummary(
            returns_taint=_SRC in returns,
            param_sinks=frozenset(param_sinks),
        )

    def _sink_flows(self, node_id: str):
        """(call, sink label, via-helper?) triples for tainted writes,
        evaluated against the settled summaries."""
        taint_of, _returns = self._taint_env(node_id, self.summaries)
        node = self.calls.nodes[node_id]
        func = self.calls.funcs[node_id]
        for call in self.calls.index_of(node_id).walk(func, ast.Call):
            exprs = list(call.args) + [kw.value for kw in call.keywords]
            sink = _sink_of(call, self.calls.symbols, node.module)
            if sink is not None:
                if any(_SRC in taint_of(expr) for expr in exprs):
                    yield call, sink, False
                continue
            callee = self._callee_summary(node_id, call, self.summaries)
            if callee is None or not callee.param_sinks:
                continue
            for index, expr in enumerate(call.args):
                if index in callee.param_sinks and _SRC in taint_of(expr):
                    helper = dotted_name(call.func) or "a helper"
                    yield call, f"a durable record through {helper}()", True
                    break

    def _callee_summary(self, node_id, call, summaries):
        return _edge_summary(self.calls, node_id, call, summaries)


# -- REP904: cross-call handle ownership ---------------------------------------


def _direct_acquire_kind(call: ast.Call) -> str | None:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "start" and "tracer" in dotted_name(func.value):
        return "span"
    if func.attr == "admit":
        return "ticket"
    return None


@dataclass(frozen=True)
class _OwnershipSummary:
    #: handle kind this function hands to its caller, or ""
    returns_kind: str = ""
    #: parameter indexes the function releases crash-safely
    releases_params: frozenset = frozenset()


class _OwnershipAnalysis:
    """Cross-call handle ownership: who acquires, who must release."""

    def __init__(self, calls):
        self.calls = calls
        self._contexts: dict[str, dict[ast.Call, set[str]]] = {}
        self._releases: dict[str, frozenset] = {}
        self.summaries = Dataflow(
            calls, self._transfer, initial=lambda _n: _OwnershipSummary()
        ).run()

    def findings(self, by_module, checker: str) -> Iterable[Finding]:
        for node_id in sorted(self.calls.nodes):
            node = self.calls.nodes[node_id]
            module = by_module.get(node.module)
            if module is None:
                continue
            yield from self._check_caller(node_id, module, checker)

    @staticmethod
    def _params(func) -> list[str]:
        args = [a.arg for a in func.args.args if a.arg != "self"]
        return args + [a.arg for a in func.args.kwonlyargs]

    def _callee_summary(self, node_id, call, summaries):
        return _edge_summary(self.calls, node_id, call, summaries)

    def _acquire_kind(self, node_id, call, summaries) -> str | None:
        kind = _direct_acquire_kind(call)
        if kind is not None:
            return kind
        callee = self._callee_summary(node_id, call, summaries)
        if callee is not None and callee.returns_kind:
            return callee.returns_kind
        return None

    def _call_contexts(self, node_id: str) -> dict[ast.Call, set[str]]:
        """Every call in the function with the contexts it runs in
        (computed once per function)."""
        contexts = self._contexts.get(node_id)
        if contexts is None:
            contexts = _call_contexts(
                self.calls.index_of(node_id), self.calls.funcs[node_id]
            )
            self._contexts[node_id] = contexts
        return contexts

    def _transfer(self, node_id: str, summaries) -> _OwnershipSummary:
        func = self.calls.funcs[node_id]
        returns_kind = ""
        acquired_vars: dict[str, str] = {}
        index = self.calls.index_of(node_id)
        for stmt in index.walk(func, ast.Assign, ast.Return):
            if isinstance(stmt, ast.Assign):
                if not isinstance(stmt.value, ast.Call):
                    continue
                kind = self._acquire_kind(node_id, stmt.value, summaries)
                if kind is not None:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            acquired_vars[target.id] = kind
            elif stmt.value is not None:
                if isinstance(stmt.value, ast.Call):
                    kind = self._acquire_kind(node_id, stmt.value, summaries)
                    if kind:
                        returns_kind = kind
                elif isinstance(stmt.value, ast.Name):
                    kind = acquired_vars.get(stmt.value.id)
                    if kind:
                        returns_kind = kind
        releases = self._releases.get(node_id)
        if releases is None:
            released = _release_contexts(self._call_contexts(node_id))
            releases = frozenset(
                number
                for number, param in enumerate(self._params(func))
                if _crash_safe(released.get(param, set()))
            )
            self._releases[node_id] = releases
        return _OwnershipSummary(
            returns_kind=returns_kind, releases_params=releases
        )

    def _check_caller(self, node_id: str, module, checker) -> Iterable[Finding]:
        node = self.calls.nodes[node_id]
        func = self.calls.funcs[node_id]
        index = self.calls.index_of(node_id)
        symbol = f"{node.cls}.{node.name}" if node.cls else node.name
        # handles acquired *via calls* — REP501 owns direct acquires
        acquired: dict[str, tuple[str, str, ast.stmt]] = {}
        for stmt in index.walk(func, ast.Assign):
            if not (
                isinstance(stmt.value, ast.Call)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                continue
            if _direct_acquire_kind(stmt.value) is not None:
                continue
            callee = self._callee_summary(node_id, stmt.value, self.summaries)
            if callee is not None and callee.returns_kind:
                acquired.setdefault(
                    stmt.targets[0].id,
                    (
                        callee.returns_kind,
                        dotted_name(stmt.value.func) or "a call",
                        stmt,
                    ),
                )
        if not acquired:
            return
        contexts_of = self._call_contexts(node_id)
        released = _release_contexts(contexts_of)
        for var, (kind, origin, stmt) in sorted(acquired.items()):
            if self._is_transferred(index, func, var):
                continue
            contexts = released.get(var, set()) | self._delegated_release_contexts(
                node_id, contexts_of, var
            )
            if _crash_safe(contexts):
                continue
            yield module.finding(
                "REP904",
                f"{symbol} receives a {kind} handle from {origin}() but "
                "never releases it crash-safely — ownership crossed the "
                f"call, so this function owes the "
                f"{ACQUIRE_RELEASE.get(kind, 'release')}: add a finally "
                "(or except+tail pair), or hand the handle on",
                stmt,
                checker=checker,
                symbol=symbol,
            )

    @staticmethod
    def _is_transferred(index, func, var: str) -> bool:
        for stmt in index.walk(
            func, ast.Return, ast.Assign, ast.Yield, ast.YieldFrom
        ):
            if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Name):
                if stmt.value.id == var:
                    return True
            elif isinstance(stmt, ast.Assign):
                if isinstance(stmt.value, ast.Name) and stmt.value.id == var:
                    if any(
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        for t in stmt.targets
                    ):
                        return True
            elif isinstance(stmt, (ast.Yield, ast.YieldFrom)):
                value = getattr(stmt, "value", None)
                if isinstance(value, ast.Name) and value.id == var:
                    return True
        return False

    def _delegated_release_contexts(
        self, node_id, contexts_of: dict[ast.Call, set[str]], var: str
    ) -> set[str]:
        """Contexts in which *var* is passed to a callee that releases
        the corresponding parameter crash-safely."""
        contexts: set[str] = set()
        for call, call_contexts in contexts_of.items():
            callee = self._callee_summary(node_id, call, self.summaries)
            if callee is None or not callee.releases_params:
                continue
            for number, arg in enumerate(call.args):
                if (
                    isinstance(arg, ast.Name)
                    and arg.id == var
                    and number in callee.releases_params
                ):
                    contexts |= call_contexts
        return contexts


def _crash_safe(contexts: set[str]) -> bool:
    return "finally" in contexts or {"except", "normal"} <= contexts


def _call_contexts(index, func) -> dict[ast.Call, set[str]]:
    """Each call in *func* -> the contexts (normal/except/finally) it runs
    in: the contexts of every enclosing statement, where a ``try``'s
    handlers run in ``except`` and its ``finally`` in ``finally``.
    Nested ``def``/``class`` bodies are not the function's own code."""
    contexts: dict[ast.Call, set[str]] = {}

    def visit(body, context) -> None:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.Try):
                visit(stmt.body, context)
                for handler in stmt.handlers:
                    visit(handler.body, "except")
                visit(stmt.orelse, context)
                visit(stmt.finalbody, "finally")
                continue
            for call in index.walk(stmt, ast.Call):
                contexts.setdefault(call, set()).add(context)
            visit(
                [c for c in ast.iter_child_nodes(stmt) if isinstance(c, ast.stmt)],
                context,
            )

    visit(func.body, "normal")
    return contexts


def _release_contexts(contexts_of: dict[ast.Call, set[str]]) -> dict[str, set[str]]:
    """Variable -> contexts in which it is released via
    ``<recv>.end(var)`` / ``<recv>.release(var)`` / ``var.release()``."""
    released: dict[str, set[str]] = {}
    release_attrs = set(ACQUIRE_RELEASE.values())
    for call, contexts in contexts_of.items():
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in release_attrs
        ):
            continue
        candidates = [a.id for a in call.args if isinstance(a, ast.Name)]
        if isinstance(call.func.value, ast.Name):
            candidates.append(call.func.value.id)
        for var in candidates:
            released.setdefault(var, set()).update(contexts)
    return released
