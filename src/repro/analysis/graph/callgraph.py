"""The project call graph: who can call whom, across modules.

Nodes are module-level functions and directly-defined methods.  Edges are
resolved from the idioms the codebase uses to wire services together:

- ``self.helper()``                       (through resolved base classes)
- ``helper()`` / ``alias.helper()``       (local, imported, or re-exported)
- ``self._client.call()``                 (instance attributes bound to a
                                          class in any method of the class,
                                          ``self._x = Cls(...)``, including
                                          ``self._x[k] = Cls(...)`` pools)
- ``client.call()``                       (locals bound by construction or
                                          by parameter annotation)

Constructor calls (``ClassName(...)``) become ``ctor`` edges to
``__init__`` so dataflow passes can follow object creation, but
reachability passes exclude them by default: ``__init__``-time validation
raises are deployment-time, not request-time.

Every edge records whether the *call site* is guarded by an enclosing
``try`` with an ``except`` handler — the wrap-at-the-boundary discipline
the fault rule (REP901) honours: a guarded cross-module call does not
propagate dispatch reachability, because the caller classifies whatever
comes out of it.  Edges also carry their line, and REP901 judges an
exception factory (``raise self._error(...)``) by the return annotation
of the callee an edge on the raise's line resolves to.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutil import AstIndex, dotted_name
from repro.analysis.graph.symbols import Symbol, SymbolTable


@dataclass(frozen=True)
class FunctionNode:
    """One call-graph node: a function or method, identified by
    ``module:Class.method`` / ``module:function``."""

    module: str
    cls: str  # "" for module-level functions
    name: str
    rel: str  # repo-relative path of the defining file

    @property
    def id(self) -> str:
        qual = f"{self.cls}.{self.name}" if self.cls else self.name
        return f"{self.module}:{qual}"


@dataclass(frozen=True)
class CallEdge:
    caller: str
    callee: str
    kind: str  # "self" | "name" | "module" | "attr" | "ctor"
    cross_module: bool
    guarded: bool
    line: int


@dataclass
class CallGraph:
    symbols: SymbolTable
    nodes: dict[str, FunctionNode] = field(default_factory=dict)
    #: node id -> its FunctionDef (kept off the frozen node for hashing)
    funcs: dict[str, ast.FunctionDef] = field(default_factory=dict)
    edges_from: dict[str, list[CallEdge]] = field(default_factory=dict)
    #: node id -> line -> the node's edges from that line, in edge order
    edges_by_line: dict[str, dict[int, list[CallEdge]]] = field(
        default_factory=dict
    )
    #: ids of every SOAP-dispatchable method: the roots the REP9xx
    #: reachability passes grow from
    dispatch_roots: list[str] = field(default_factory=list)
    _attr_cache: dict[tuple[str, str], dict[str, Symbol]] = field(
        default_factory=dict
    )
    _locals_cache: dict[str, dict[str, Symbol]] = field(default_factory=dict)

    # -- construction ----------------------------------------------------------

    @staticmethod
    def build(project, symbols: SymbolTable) -> "CallGraph":
        graph = CallGraph(symbols=symbols)
        for module in project.parsed():
            mod = module.module_name
            if not mod or symbols.graph.modules.get(mod) != module.rel:
                continue
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    graph._add_node(mod, "", stmt, module.rel)
                elif isinstance(stmt, ast.ClassDef):
                    for item in stmt.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            graph._add_node(mod, stmt.name, item, module.rel)
        for node_id in sorted(graph.nodes):
            edges = graph.edges_from[node_id] = graph._resolve_edges(node_id)
            by_line: dict[int, list[CallEdge]] = {}
            for edge in edges:
                by_line.setdefault(edge.line, []).append(edge)
            graph.edges_by_line[node_id] = by_line
        graph.dispatch_roots = graph._dispatch_roots(project)
        return graph

    def index_of(self, node_id: str) -> AstIndex:
        """The AST index of the module defining node *node_id*."""
        return self.symbols.indexes[self.nodes[node_id].module]

    def _add_node(self, module: str, cls: str, func, rel: str) -> None:
        node = FunctionNode(module=module, cls=cls, name=func.name, rel=rel)
        if node.id not in self.nodes:
            self.nodes[node.id] = node
            self.funcs[node.id] = func

    # -- receiver typing -------------------------------------------------------

    def _attr_classes(self, module: str, cls: str) -> dict[str, Symbol]:
        """``self.<attr>`` -> class symbol, from assignments anywhere in the
        class (``self._x = Cls(...)``, ``self._x[k] = Cls(...)``,
        ``self._x: Cls = ...``, conditional-expression arms included)."""
        cached = self._attr_cache.get((module, cls))
        if cached is not None:
            return cached
        node = self.symbols.classes.get((module, cls))
        if node is None:
            self._attr_cache[(module, cls)] = {}
            return {}
        out: dict[str, Symbol] = {}
        index = self.symbols.indexes[module]
        for sub in index.walk(node, ast.Assign, ast.AnnAssign):
            target = value = None
            if isinstance(sub, ast.Assign) and len(sub.targets) >= 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target = sub.target
                ann = self._class_of_annotation(module, sub.annotation)
                if ann is not None and isinstance(target, ast.Attribute):
                    if _is_self(target.value):
                        out.setdefault(target.attr, ann)
                value = sub.value
            if target is None:
                continue
            if isinstance(target, ast.Subscript):
                target = target.value
            if not (isinstance(target, ast.Attribute) and _is_self(target.value)):
                continue
            symbol = self._class_of_value(module, value)
            if symbol is not None:
                out.setdefault(target.attr, symbol)
        self._attr_cache[(module, cls)] = out
        return out

    def _local_classes(self, node_id: str) -> dict[str, Symbol]:
        """Local variable -> class symbol in node *node_id*: annotated
        parameters plus ``x = Cls(...)`` bindings."""
        cached = self._locals_cache.get(node_id)
        if cached is not None:
            return cached
        module = self.nodes[node_id].module
        func = self.funcs[node_id]
        out: dict[str, Symbol] = {}
        for arg in list(func.args.args) + list(func.args.kwonlyargs):
            if arg.annotation is not None:
                symbol = self._class_of_annotation(module, arg.annotation)
                if symbol is not None:
                    out.setdefault(arg.arg, symbol)
        for sub in self.index_of(node_id).walk(func, ast.Assign):
            symbol = self._class_of_value(module, sub.value)
            if symbol is None:
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = symbol
        self._locals_cache[node_id] = out
        return out

    def _class_of_value(self, module: str, value) -> Symbol | None:
        if isinstance(value, ast.IfExp):
            return (
                self._class_of_value(module, value.body)
                or self._class_of_value(module, value.orelse)
            )
        if not isinstance(value, ast.Call):
            return None
        dotted = dotted_name(value.func)
        if not dotted:
            return None
        symbol = self.symbols.resolve(module, dotted)
        if symbol is not None and symbol.kind == "class":
            return symbol
        return None

    def _class_of_annotation(self, module: str, ann) -> Symbol | None:
        if isinstance(ann, ast.BinOp):  # ``Cls | None``
            return (
                self._class_of_annotation(module, ann.left)
                or self._class_of_annotation(module, ann.right)
            )
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            symbol = self.symbols.resolve(module, ann.value.split("|")[0].strip())
        else:
            dotted = dotted_name(ann)
            symbol = self.symbols.resolve(module, dotted) if dotted else None
        if symbol is not None and symbol.kind == "class":
            return symbol
        return None

    # -- edge resolution -------------------------------------------------------

    def _resolve_edges(self, node_id: str) -> list[CallEdge]:
        node = self.nodes[node_id]
        func = self.funcs[node_id]
        locals_map = self._local_classes(node_id)
        attr_map = self._attr_classes(node.module, node.cls) if node.cls else {}
        edges: list[CallEdge] = []
        for call, guarded in _calls_with_guards(self.index_of(node_id), func):
            edge = self._resolve_call(node, call, locals_map, attr_map, guarded)
            if edge is not None:
                edges.append(edge)
        return sorted(
            set(edges), key=lambda e: (e.callee, e.kind, e.line, e.guarded)
        )

    def _resolve_call(
        self,
        node: FunctionNode,
        call: ast.Call,
        locals_map: dict[str, Symbol],
        attr_map: dict[str, Symbol],
        guarded: bool,
    ) -> CallEdge | None:
        target = call.func
        # self.m(...) and self._attr.m(...) / self._attr[k].m(...)
        if isinstance(target, ast.Attribute):
            receiver = target.value
            if isinstance(receiver, ast.Subscript):
                receiver = receiver.value
            if _is_self(receiver):
                resolved = self.symbols.mro_method(
                    node.module, node.cls, target.attr
                )
                return self._method_edge(node, resolved, "self", guarded, call)
            if (
                isinstance(receiver, ast.Attribute)
                and _is_self(receiver.value)
                and receiver.attr in attr_map
            ):
                owner = attr_map[receiver.attr]
                resolved = self.symbols.mro_method(
                    owner.module, owner.name, target.attr
                )
                return self._method_edge(node, resolved, "attr", guarded, call)
            if isinstance(receiver, ast.Name) and receiver.id in locals_map:
                owner = locals_map[receiver.id]
                resolved = self.symbols.mro_method(
                    owner.module, owner.name, target.attr
                )
                return self._method_edge(node, resolved, "attr", guarded, call)
        dotted = dotted_name(target)
        if not dotted:
            return None
        symbol = self.symbols.resolve(node.module, dotted)
        if symbol is None:
            return None
        if symbol.kind == "func":
            callee = FunctionNode(
                module=symbol.module,
                cls="",
                name=symbol.name,
                rel=self.symbols.graph.modules.get(symbol.module, ""),
            )
            if callee.id not in self.nodes:
                return None
            kind = "name" if "." not in dotted else "module"
            return CallEdge(
                caller=node.id,
                callee=callee.id,
                kind=kind,
                cross_module=symbol.module != node.module,
                guarded=guarded,
                line=call.lineno,
            )
        if symbol.kind == "class":
            resolved = self.symbols.mro_method(
                symbol.module, symbol.name, "__init__"
            )
            return self._method_edge(node, resolved, "ctor", guarded, call)
        return None

    def _method_edge(
        self, node: FunctionNode, resolved, kind: str, guarded: bool, call
    ) -> CallEdge | None:
        if resolved is None:
            return None
        module, cls, _func = resolved
        callee = FunctionNode(
            module=module,
            cls=cls,
            name=_func.name,
            rel=self.symbols.graph.modules.get(module, ""),
        )
        if callee.id not in self.nodes:
            return None
        return CallEdge(
            caller=node.id,
            callee=callee.id,
            kind=kind,
            cross_module=module != node.module,
            guarded=guarded,
            line=call.lineno,
        )

    # -- dispatch roots --------------------------------------------------------

    def _dispatch_roots(self, project) -> list[str]:
        roots: set[str] = set()
        for module in project.parsed():
            mod = module.module_name
            if not mod:
                continue
            for exposure in module.index.exposures:
                symbol = self.symbols.resolve(mod, exposure.class_name)
                if symbol is None or symbol.kind != "class":
                    continue
                methods = set(exposure.methods)
                if exposure.expose_all:
                    methods |= self._public_methods(symbol)
                for method in methods:
                    resolved = self.symbols.mro_method(
                        symbol.module, symbol.name, method
                    )
                    if resolved is not None:
                        owner_mod, owner_cls, func = resolved
                        roots.add(
                            FunctionNode(
                                module=owner_mod,
                                cls=owner_cls,
                                name=func.name,
                                rel=self.symbols.graph.modules.get(owner_mod, ""),
                            ).id
                        )
        return sorted(roots & set(self.nodes))

    def _public_methods(self, symbol: Symbol) -> set[str]:
        out: set[str] = set()
        queue = [(symbol.module, symbol.name)]
        visited: set[tuple[str, str]] = set()
        while queue:
            current = queue.pop(0)
            if current in visited:
                continue
            visited.add(current)
            node = self.symbols.classes.get(current)
            if node is None:
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        out.add(item.name)
            queue.extend(
                (b.module, b.name)
                for b in self.symbols.class_bases(current[0], current[1])
            )
        return out


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _calls_with_guards(index: AstIndex, func) -> list[tuple[ast.Call, bool]]:
    """Every Call in *func* (nested defs included — their bodies execute,
    or not, under the enclosing function's authority) with a flag for
    whether an enclosing ``try`` has an ``except`` handler around it."""
    out: list[tuple[ast.Call, bool]] = []

    def collect(node, guarded: bool) -> None:
        if node is None:
            return
        for sub in index.walk(node, ast.Call):
            out.append((sub, guarded))

    def visit(stmts: list[ast.stmt], guarded: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.ClassDef):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(stmt.body, guarded)
            elif isinstance(stmt, ast.Try):
                visit(stmt.body, guarded or bool(stmt.handlers))
                for handler in stmt.handlers:
                    visit(handler.body, guarded)
                # orelse/finally raises are NOT caught by this try's handlers
                visit(stmt.orelse, guarded)
                visit(stmt.finalbody, guarded)
            elif isinstance(stmt, (ast.If, ast.While)):
                collect(stmt.test, guarded)
                visit(stmt.body, guarded)
                visit(stmt.orelse, guarded)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                collect(stmt.iter, guarded)
                visit(stmt.body, guarded)
                visit(stmt.orelse, guarded)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    collect(item.context_expr, guarded)
                visit(stmt.body, guarded)
            else:
                collect(stmt, guarded)

    visit(func.body, False)
    return out
