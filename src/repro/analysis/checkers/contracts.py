"""REP3xx — WSDL contract drift: implementations must match the agreement.

The paper's core experiment (§3.4) is two groups implementing one agreed
interface separately and staying interoperable.  That only works while
the implementations actually present the same operation surface.  These
rules diff, statically:

- overrides against the method they override (REP301) — a subclass that
  changes a parameter list has silently forked the port type;
- declared ``*_interface_wsdl`` operation literals against the classes in
  the same module that implement them (REP302) — the WSDL is the
  agreement, the class is the implementation, and they drift
  independently;
- sibling implementations of one exposed port type against each other
  (REP303) — two services publishing the same interface must accept the
  same required arguments.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import (
    AstIndex,
    base_names,
    dotted_name,
    public_methods,
    signature_of,
)
from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    register_checker,
)

INTERFACE_FACTORY_SUFFIX = "_interface_wsdl"


def resolve_method(
    project: Project, cls_name: str, method: str
) -> tuple[str, ast.FunctionDef] | None:
    """Find *method* on *cls_name* or the nearest base defining it."""
    index = project.class_index()
    queue, visited = [cls_name], set()
    while queue:
        current = queue.pop(0)
        if current in visited or current not in index:
            continue
        visited.add(current)
        _module, node = index[current]
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == method:
                return current, item
        queue.extend(base_names(node))
    return None


def effective_surface(project: Project, cls_name: str) -> dict[str, str]:
    """Public method name -> owning class, walking bases (nearest wins)."""
    index = project.class_index()
    surface: dict[str, str] = {}
    queue, visited = [cls_name], set()
    while queue:
        current = queue.pop(0)
        if current in visited or current not in index:
            continue
        visited.add(current)
        _module, node = index[current]
        for name in public_methods(node):
            surface.setdefault(name, current)
        queue.extend(base_names(node))
    return surface


@register_checker
class ContractDriftChecker(Checker):
    name = "contracts"
    description = (
        "implementations of one WSDL port type present one operation surface"
    )
    codes = {
        "REP301": "override changes the parameter list of an inherited operation",
        "REP302": "class drifts from the *_interface_wsdl operations it implements",
        "REP303": "sibling implementations of an exposed port type disagree",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        exposed_roots = self._exposed_roots(project)
        exception_classes = project.subclasses_of({"PortalError", "Exception"})
        yield from self._check_overrides(project, exposed_roots, exception_classes)
        yield from self._check_interface_wsdl(project)
        yield from self._check_siblings(project, exposed_roots, exception_classes)

    @staticmethod
    def _exposed_roots(project: Project) -> list:
        roots = []
        index = project.class_index()
        for module in project.parsed():
            for exposure in module.index.exposures:
                if exposure.class_name in index:
                    roots.append(exposure)
        return roots

    # -- REP301: override drift -------------------------------------------------

    def _check_overrides(
        self, project: Project, exposed_roots, exception_classes: set[str]
    ) -> Iterable[Finding]:
        index = project.class_index()
        in_scope: set[str] = set()
        for exposure in exposed_roots:
            in_scope |= project.subclasses_of({exposure.class_name})
        in_scope -= exception_classes
        for cls_name in sorted(in_scope):
            module, node = index[cls_name]
            for meth_name, func in sorted(public_methods(node).items()):
                base_def = None
                for base in base_names(node):
                    base_def = resolve_method(project, base, meth_name)
                    if base_def is not None:
                        break
                if base_def is None:
                    continue
                base_owner, base_func = base_def
                ours, theirs = signature_of(func), signature_of(base_func)
                symbol = f"{cls_name}.{meth_name}"
                if ours.params != theirs.params:
                    yield module.finding(
                        "REP301",
                        f"{symbol} takes ({', '.join(ours.params)}) but "
                        f"overrides {base_owner}.{meth_name}"
                        f"({', '.join(theirs.params)}) — the port type's "
                        "operation surface must not fork in a subclass",
                        func,
                        checker=self.name,
                        symbol=symbol,
                    )
                    continue
                drift = [
                    f"{p}: {a!r} vs {b!r}"
                    for p, a, b in zip(
                        ours.params, ours.annotations, theirs.annotations
                    )
                    if a and b and a != b
                ]
                if drift:
                    yield module.finding(
                        "REP301",
                        f"{symbol} re-annotates parameters of "
                        f"{base_owner}.{meth_name}: {'; '.join(drift)}",
                        func,
                        checker=self.name,
                        symbol=symbol,
                    )

    # -- REP302: declared WSDL vs implementation --------------------------------

    def _check_interface_wsdl(self, project: Project) -> Iterable[Finding]:
        for module in project.parsed():
            declared = self._declared_operations(module.index)
            if not declared:
                continue
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                surface = effective_surface(project, node.name)
                implemented = sorted(set(declared) & set(surface))
                if not implemented:
                    continue
                for op_name in implemented:
                    resolved = resolve_method(project, node.name, op_name)
                    if resolved is None:
                        continue
                    owner, func = resolved
                    if owner != node.name:
                        continue  # inherited: reported once, on the definer
                    sig = signature_of(func)
                    required = sig.arity - sig.defaults
                    n_parts = declared[op_name]
                    if not (required <= n_parts <= sig.arity):
                        yield module.finding(
                            "REP302",
                            f"{node.name}.{op_name} takes "
                            f"{required}..{sig.arity} arguments but the "
                            f"interface WSDL declares {n_parts} input "
                            "part(s) — implementation drifted from the "
                            "agreed contract",
                            func,
                            checker=self.name,
                            symbol=f"{node.name}.{op_name}",
                        )
                missing = sorted(set(declared) - set(surface))
                if missing and len(implemented) * 2 > len(declared):
                    yield module.finding(
                        "REP302",
                        f"{node.name} implements "
                        f"{len(implemented)}/{len(declared)} declared "
                        f"operations but is missing: {', '.join(missing)}",
                        node,
                        checker=self.name,
                        symbol=node.name,
                    )

    @staticmethod
    def _declared_operations(index: AstIndex) -> dict[str, int]:
        """Operation name -> declared input-part count, from WsdlOperation
        literals inside ``*_interface_wsdl`` factory functions."""
        declared: dict[str, int] = {}
        for func in index.tree.body:
            if not isinstance(func, ast.FunctionDef):
                continue
            if not func.name.endswith(INTERFACE_FACTORY_SUFFIX):
                continue
            for node in index.walk(func, ast.Call):
                callee = dotted_name(node.func).split(".")[-1]
                if callee != "WsdlOperation" or len(node.args) < 3:
                    continue
                name_arg, parts_arg = node.args[0], node.args[2]
                if not (
                    isinstance(name_arg, ast.Constant)
                    and isinstance(name_arg.value, str)
                ):
                    continue
                if isinstance(parts_arg, (ast.List, ast.Tuple)):
                    declared[name_arg.value] = len(parts_arg.elts)
        return declared

    # -- REP303: sibling implementations ----------------------------------------

    def _check_siblings(
        self, project: Project, exposed_roots, exception_classes: set[str]
    ) -> Iterable[Finding]:
        index = project.class_index()
        seen_roots: set[str] = set()
        for exposure in exposed_roots:
            root = exposure.class_name
            if root in seen_roots or root in exception_classes:
                continue
            seen_roots.add(root)
            family = sorted(
                project.subclasses_of({root}) - {root} - exception_classes
            )
            if not family:
                continue
            ops = (
                sorted(exposure.methods)
                if exposure.methods
                else sorted(effective_surface(project, root))
            )
            root_required = {}
            for op in ops:
                resolved = resolve_method(project, root, op)
                if resolved is None:
                    continue
                sig = signature_of(resolved[1])
                root_required[op] = sig.arity - sig.defaults
            for member in family:
                module, node = index[member]
                for op, want in sorted(root_required.items()):
                    resolved = resolve_method(project, member, op)
                    if resolved is None or resolved[0] != member:
                        continue  # inherited verbatim: trivially consistent
                    sig = signature_of(resolved[1])
                    got = sig.arity - sig.defaults
                    if got != want:
                        yield module.finding(
                            "REP303",
                            f"{member}.{op} requires {got} argument(s) but "
                            f"the {root} port type requires {want} — "
                            "sibling implementations must accept the same "
                            "calls",
                            resolved[1],
                            checker=self.name,
                            symbol=f"{member}.{op}",
                        )
