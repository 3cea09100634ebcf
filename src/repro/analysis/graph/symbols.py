"""The project symbol table: names resolved to their defining module.

Resolution chases the idioms this codebase actually uses — ``from``
imports, module aliases, re-exports in ``__init__`` modules, and
module-level ``Alias = Original`` assignment aliases — with a visited
set so import cycles terminate.  Anything dynamic resolves to ``None``
and callers stay silent, per the linter's no-guessing policy.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutil import AstIndex, dotted_name
from repro.analysis.graph.modgraph import ModuleGraph


@dataclass(frozen=True)
class Symbol:
    """One resolved project symbol."""

    kind: str  # "class" | "func" | "module"
    module: str  # dotted module name of the *defining* module
    name: str  # symbol name within the module ("" for kind=module)

    @property
    def qualified(self) -> str:
        return f"{self.module}:{self.name}" if self.name else self.module


@dataclass
class SymbolTable:
    graph: ModuleGraph
    #: (module, name) -> ast.ClassDef for every module-level class
    classes: dict[tuple[str, str], ast.ClassDef] = field(default_factory=dict)
    #: (module, name) -> ast.FunctionDef for every module-level function
    functions: dict[tuple[str, str], ast.FunctionDef] = field(default_factory=dict)
    #: module -> {local name -> dotted import origin}
    imports: dict[str, dict[str, str]] = field(default_factory=dict)
    #: (module, alias) -> aliased local name (``Alias = Original``)
    assigns: dict[tuple[str, str], str] = field(default_factory=dict)
    #: module -> the AST index of its defining file
    indexes: dict[str, AstIndex] = field(default_factory=dict)

    @staticmethod
    def build(project, graph: ModuleGraph) -> "SymbolTable":
        table = SymbolTable(graph=graph)
        for module in project.parsed():
            name = module.module_name
            if not name or graph.modules.get(name) != module.rel:
                continue  # duplicate module name: first definition won
            table.indexes[name] = module.index
            table.imports[name] = module.index.import_origins
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    table.classes.setdefault((name, node.name), node)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    table.functions.setdefault((name, node.name), node)
                elif isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Name
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            table.assigns.setdefault(
                                (name, target.id), node.value.id
                            )
        return table

    # -- resolution ------------------------------------------------------------

    def resolve(self, module: str, dotted: str) -> Symbol | None:
        """Resolve *dotted* as seen from *module* to its defining symbol.

        Handles ``Name``, ``alias.Name`` (module aliases), re-exports
        (``from impl import Name`` in a package ``__init__``), and
        assignment aliases, to any chase depth, cycle-safe.
        """
        return self._resolve(module, dotted, frozenset())

    def _resolve(
        self, module: str, dotted: str, seen: frozenset[tuple[str, str]]
    ) -> Symbol | None:
        if not dotted or (module, dotted) in seen:
            return None
        seen = seen | {(module, dotted)}
        head, _, rest = dotted.partition(".")

        if not rest:
            if (module, head) in self.classes:
                return Symbol("class", module, head)
            if (module, head) in self.functions:
                return Symbol("func", module, head)
            alias = self.assigns.get((module, head))
            if alias is not None:
                return self._resolve(module, alias, seen)
        origin = self.imports.get(module, {}).get(head)
        if origin is None:
            if not rest and head in self.graph.modules:
                return Symbol("module", head, "")
            return None
        return self._resolve_origin(origin, rest, seen)

    def _resolve_origin(
        self, origin: str, rest: str, seen: frozenset[tuple[str, str]]
    ) -> Symbol | None:
        """Resolve an import origin (``repro.a.b`` or ``repro.a.b.Name``)
        plus a trailing attribute path *rest*."""
        target_module = self.graph.resolve_module(origin)
        if target_module is None:
            return None
        leftover = origin[len(target_module):].lstrip(".")
        path = ".".join(p for p in (leftover, rest) if p)
        if not path:
            return Symbol("module", target_module, "")
        key = (target_module, path.partition(".")[0])
        if (target_module, path) not in seen and (
            key in self.classes
            or key in self.functions
            or key in self.assigns
            or path.partition(".")[0] in self.imports.get(target_module, {})
        ):
            return self._resolve(target_module, path, seen)
        # ``module.sub.Name`` where ``sub`` is a submodule, not a symbol.
        # The fallback must *extend* target_module: longest-prefix
        # resolution would otherwise hand back target_module itself (or a
        # sibling) for an unresolvable path, which reads as a hit.
        deeper = self.graph.resolve_module(f"{target_module}.{path}")
        if deeper is not None and deeper.startswith(f"{target_module}."):
            return Symbol("module", deeper, "")
        head2, _, rest2 = path.partition(".")
        sub = self.graph.resolve_module(f"{target_module}.{head2}")
        if sub is not None and sub.startswith(f"{target_module}.") and rest2:
            return self._resolve(sub, rest2, seen)
        return None

    # -- class hierarchy -------------------------------------------------------

    def class_bases(self, module: str, name: str) -> list[Symbol]:
        """The resolved project base classes of (*module*, *name*)."""
        node = self.classes.get((module, name))
        if node is None:
            return []
        out: list[Symbol] = []
        for base in node.bases:
            dotted = dotted_name(base)
            if not dotted:
                continue
            symbol = self._resolve(module, dotted, frozenset())
            if symbol is not None and symbol.kind == "class":
                out.append(symbol)
        return out

    def mro_method(
        self, module: str, cls: str, method: str
    ) -> tuple[str, str, ast.FunctionDef] | None:
        """Resolve *method* on class (*module*, *cls*) walking resolved
        bases breadth-first; returns (module, class, FunctionDef)."""
        queue: list[tuple[str, str]] = [(module, cls)]
        visited: set[tuple[str, str]] = set()
        while queue:
            current = queue.pop(0)
            if current in visited:
                continue
            visited.add(current)
            node = self.classes.get(current)
            if node is None:
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == method
                ):
                    return current[0], current[1], item
            queue.extend(
                (base.module, base.name)
                for base in self.class_bases(current[0], current[1])
            )
        return None

    def subclasses_of(self, roots: set[tuple[str, str]]) -> set[tuple[str, str]]:
        """Transitive closure of (module, class) keys inheriting from any
        of *roots* through *resolved* bases, roots included."""
        known = set(roots)
        changed = True
        while changed:
            changed = False
            for (module, name) in self.classes:
                if (module, name) in known:
                    continue
                for base in self.class_bases(module, name):
                    if (base.module, base.name) in known:
                        known.add((module, name))
                        changed = True
                        break
        return known

