"""REP4xx — SOAP header discipline: declared, sent, and consumed.

The portal's cross-cutting concerns all travel as SOAP headers (deadline
propagation, idempotency keys, principals for fair queuing, trace
context).  A header is a protocol element: it must be *declared* in the
shared registry (``repro.headers``) so tooling and operators can
enumerate the vocabulary, it must have an *encoder* (something builds the
``XmlElement``), and it must have a *consumer* (something matches the tag
on receipt).  A header failing any leg is either dead weight on every
message or an undocumented side channel.

The house idiom being checked::

    X_HEADER = QName(NS, "Name")           # declaration
    register_header(X_HEADER, ...)         # registration (REP401)
    XmlElement(X_HEADER, ...)              # encoder    (REP402)
    if entry.tag == X_HEADER: ...          # consumer   (REP403)

Encoder and consumer are resolved *project-wide* through the symbol
table: the deadline header is declared next to the resilience policy,
encoded by the SOAP client, and consumed by the SOAP server — three
modules, one header.  A use site reaches the declaration through a
``from`` import, a module alias, or a re-export, exactly like any other
symbol.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import AstIndex, dotted_name
from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    register_checker,
)

HEADER_SUFFIX = "_HEADER"
QNAME_CONSTRUCTORS = {"QName", "qname"}
REGISTER_FUNCS = {"register_header"}
ELEMENT_CONSTRUCTORS = {"XmlElement"}

#: the registry module itself declares no headers of its own
EXEMPT_MODULES = {"repro.headers"}


@register_checker
class HeaderDisciplineChecker(Checker):
    name = "headers"
    description = (
        "every SOAP header constant is registered, has an encoder, and has "
        "a consumer (resolved project-wide)"
    )
    codes = {
        "REP401": "header QName constant not registered via register_header()",
        "REP402": "registered header has no XmlElement encoder anywhere in the project",
        "REP403": "registered header has no tag-match consumer anywhere in the project",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        graph = project.graph()
        modules = graph.modules
        symbols = graph.symbols

        # declarations: (defining module, NAME) -> (SourceModule, node)
        decls: dict[tuple[str, str], tuple] = {}
        for module in project.parsed():
            if module.module_name in EXEMPT_MODULES:
                continue
            if modules.modules.get(module.module_name) != module.rel:
                continue
            for name, node in self._header_constants(module.tree).items():
                decls[(module.module_name, name)] = (module, node)

        registered: set[tuple[str, str]] = set()
        encoded: set[tuple[str, str]] = set()
        consumed: set[tuple[str, str]] = set()
        for module in project.parsed():
            mod = module.module_name
            if not mod or modules.modules.get(mod) != module.rel:
                continue
            imports = symbols.imports.get(mod, {})
            for token in self._tokens_passed_to(module.index, REGISTER_FUNCS):
                key = self._resolve_token(mod, token, decls, imports, modules)
                if key is not None:
                    registered.add(key)
            for token in self._tokens_passed_to(
                module.index, ELEMENT_CONSTRUCTORS
            ):
                key = self._resolve_token(mod, token, decls, imports, modules)
                if key is not None:
                    encoded.add(key)
            for token in self._tokens_compared(module.index):
                key = self._resolve_token(mod, token, decls, imports, modules)
                if key is not None:
                    consumed.add(key)

        for mod, name in sorted(decls):
            module, node = decls[(mod, name)]
            if (mod, name) not in registered:
                yield module.finding(
                    "REP401",
                    f"header constant {name} is not registered — call "
                    f"register_header({name}, ...) so the header vocabulary "
                    "stays enumerable",
                    node,
                    checker=self.name,
                    symbol=name,
                )
                continue  # unregistered: encoder/consumer checks would pile on
            if (mod, name) not in encoded:
                yield module.finding(
                    "REP402",
                    f"registered header {name} has no encoder — no "
                    f"XmlElement({name}, ...) construction anywhere in the "
                    "project, so nothing can ever send it",
                    node,
                    checker=self.name,
                    symbol=name,
                )
            if (mod, name) not in consumed:
                yield module.finding(
                    "REP403",
                    f"registered header {name} has no consumer — nothing in "
                    "the project matches entry.tag against it, so senders "
                    "pay for a header nobody reads",
                    node,
                    checker=self.name,
                    symbol=name,
                )

    # -- use-site resolution ---------------------------------------------------

    @staticmethod
    def _resolve_token(
        mod: str,
        dotted: str,
        decls: dict,
        imports: dict[str, str],
        modules,
    ) -> tuple[str, str] | None:
        """Resolve a use-site token (``X_HEADER`` or ``alias.X_HEADER``)
        to the declaring ``(module, NAME)`` key.  Unresolvable tokens with
        a *unique* project-wide declaration still match — uses through
        receivers the symbol table cannot type (``self.policy.X_HEADER``)
        should not demote a real encoder to a false REP402."""
        head, _, rest = dotted.partition(".")
        name = dotted.split(".")[-1]
        if not name.endswith(HEADER_SUFFIX):
            return None
        if not rest:
            if (mod, head) in decls:
                return (mod, head)
            origin = imports.get(head)
            if origin is not None:
                owner = modules.resolve_module(origin)
                if owner is not None:
                    leftover = origin[len(owner):].lstrip(".")
                    if leftover and (owner, leftover) in decls:
                        return (owner, leftover)
        else:
            prefix = dotted[: len(dotted) - len(name) - 1]
            origin = imports.get(head)
            base = None
            if origin is not None:
                mid = prefix[len(head):].lstrip(".")
                base = modules.resolve_module(
                    origin + ("." + mid if mid else "")
                )
            if base is None:
                base = modules.resolve_module(prefix)
            if base is not None and (base, name) in decls:
                return (base, name)
        matches = [key for key in decls if key[1] == name]
        if len(matches) == 1:
            return matches[0]
        return None

    # -- syntax collectors -----------------------------------------------------

    @staticmethod
    def _header_constants(tree: ast.Module) -> dict[str, ast.Assign]:
        """Module-level ``X_HEADER = QName(...)`` declarations."""
        out: dict[str, ast.Assign] = {}
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            ctor = dotted_name(node.value.func).split(".")[-1]
            if ctor not in QNAME_CONSTRUCTORS:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id.endswith(HEADER_SUFFIX)
                    and not target.id.startswith("_")
                ):
                    out[target.id] = node
        return out

    @staticmethod
    def _tokens_passed_to(index: AstIndex, funcs: set[str]) -> set[str]:
        """Dotted tokens appearing as arguments to calls of *funcs*."""
        found: set[str] = set()
        for node in index.walk(index.tree, ast.Call):
            callee = dotted_name(node.func).split(".")[-1]
            if callee not in funcs:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                token = dotted_name(arg)
                if token:
                    found.add(token)
        return found

    @staticmethod
    def _tokens_compared(index: AstIndex) -> set[str]:
        """Dotted tokens on either side of an ``==``/``!=`` comparison
        (the decode idiom: ``entry.tag == X_HEADER``)."""
        found: set[str] = set()
        for node in index.walk(index.tree, ast.Compare):
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for side in [node.left, *node.comparators]:
                token = dotted_name(side)
                if token:
                    found.add(token)
        return found
