"""Shared AST utilities for the checkers.

Static resolution here is deliberately humble: it resolves what this
codebase's idioms make resolvable (module aliases, ``from`` imports, local
``name = ClassName(...)`` bindings, parameter annotations) and stays silent
otherwise.  A linter that guesses produces noise; one that resolves the
house idiom precisely produces signal.

Every walk a checker makes goes through one :class:`AstIndex` per module,
built by a single traversal of its tree.
"""

from __future__ import annotations

import ast
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property


class AstIndex:
    """Every node of one module's tree, bucketed by node type.

    One depth-first traversal numbers the nodes in preorder, so the
    subtree under any node is one contiguous range of numbers and each
    type's bucket is a sorted list of them.  :meth:`walk` answers
    "the nodes of these types under this node" with a bisection per type
    instead of a fresh ``ast.walk``, and returns them in ``ast.walk``'s
    own breadth-first order: order within a depth is preorder, so sorting
    the range by (depth, preorder number) reproduces it.  Each answer
    is kept: checkers ask about the same functions and expressions again
    and again (the dataflow fixpoints re-evaluate every function on each
    sweep).

    The index also holds the per-module facts several consumers share:
    import origins and SOAP exposures.
    """

    def __init__(self, tree: ast.Module, module_name: str = ""):
        self.tree = tree
        self.module_name = module_name
        nodes: list[ast.AST] = []
        parents: list[int] = []
        depths: list[int] = []
        pre: dict[ast.AST, int] = {}
        by_type: dict[type, list[int]] = {}
        stack = [(tree, -1, 0)]
        while stack:
            node, parent, depth = stack.pop()
            number = len(nodes)
            nodes.append(node)
            parents.append(parent)
            depths.append(depth)
            pre[node] = number
            bucket = by_type.get(type(node))
            if bucket is None:
                by_type[type(node)] = [number]
            else:
                bucket.append(number)
            # ``ast.iter_child_nodes``, inlined: children in field order,
            # pushed reversed so they pop in order
            children = []
            for name in node._fields:
                value = getattr(node, name, None)
                if isinstance(value, ast.AST):
                    children.append((value, number, depth + 1))
                elif isinstance(value, list):
                    children.extend(
                        (item, number, depth + 1)
                        for item in value
                        if isinstance(item, ast.AST)
                    )
            children.reverse()
            stack += children
        sizes = [1] * len(nodes)
        for number in range(len(nodes) - 1, 0, -1):
            sizes[parents[number]] += sizes[number]
        stride = len(nodes)
        self._nodes = nodes
        self._pre = pre
        self._last = [number + size - 1 for number, size in enumerate(sizes)]
        self._rank = [depth * stride + number for number, depth in enumerate(depths)]
        self._by_type = by_type
        self._kept: dict[tuple, tuple] = {}

    def walk(self, node: ast.AST, *types: type) -> tuple:
        """The nodes of exactly *types* that ``ast.walk(node)`` yields
        (*node* included), in the same order."""
        key = (node, types)
        kept = self._kept.get(key)
        if kept is not None:
            return kept
        first = self._pre[node]
        last = self._last[first]
        numbers: list[int] = []
        for kind in types:
            bucket = self._by_type.get(kind)
            if bucket:
                numbers += bucket[
                    bisect_left(bucket, first):bisect_right(bucket, last)
                ]
        if len(numbers) > 1:
            numbers.sort(key=self._rank.__getitem__)
        found = tuple([self._nodes[number] for number in numbers])
        self._kept[key] = found
        return found

    @cached_property
    def import_origins(self) -> dict[str, str]:
        """Map local names to the dotted origin they were imported as.

        ``import time as t`` -> ``{"t": "time"}``;
        ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``.
        Function-local imports count too (the codebase imports lazily a
        lot).  Relative imports resolve against the module's own dotted
        name, so ``from . import x`` and ``from ..pkg import y`` name
        absolute project paths (``from .helpers import x`` inside
        ``fixtures.demo.svc`` targets ``fixtures.demo.helpers.x``).
        """
        name = self.module_name
        package = name.rsplit(".", 1)[0] if "." in name else ""
        aliases: dict[str, str] = {}
        for node in self.walk(self.tree, ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    aliases[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                continue
            base = node.module or ""
            if node.level > 0:
                anchor = package
                for _ in range(node.level - 1):
                    anchor = anchor.rsplit(".", 1)[0] if "." in anchor else ""
                base = f"{anchor}.{node.module}" if node.module and anchor else (
                    node.module or anchor
                )
                if not base:
                    continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
        return aliases

    @cached_property
    def exposures(self) -> list["Exposure"]:
        """Every SOAP exposure in the module.

        Recognizes the house idioms::

            soap.expose(impl.method)            # impl = ClassName(...) or impl: ClassName
            soap.expose(impl.method, "name")
            soap.expose_object(impl)            # all public methods
            soap.expose_object(ClassName(...))  # all public methods

        Returns one :class:`Exposure` per receiver class, methods merged.
        """
        by_class: dict[str, Exposure] = {}
        for func in self.walk(self.tree, ast.FunctionDef):
            bindings = self._local_bindings(func)
            for node in self.walk(func, ast.Call):
                if not isinstance(node.func, ast.Attribute):
                    continue
                kind = node.func.attr
                if kind not in ("expose", "expose_object") or not node.args:
                    continue
                target = node.args[0]
                if kind == "expose":
                    if not isinstance(target, ast.Attribute):
                        continue  # module-level function exposure: no class
                    receiver = target.value
                    if not isinstance(receiver, ast.Name):
                        continue
                    cls = bindings.get(receiver.id)
                    if cls is None:
                        continue
                    exp = by_class.setdefault(
                        cls, Exposure(class_name=cls, line=node.lineno)
                    )
                    exp.methods.add(target.attr)
                else:
                    cls = None
                    if isinstance(target, ast.Name):
                        cls = bindings.get(target.id)
                    elif isinstance(target, ast.Call):
                        name = dotted_name(target.func).split(".")[-1]
                        if name and name[0].isupper():
                            cls = name
                    if cls is None:
                        continue
                    exp = by_class.setdefault(
                        cls, Exposure(class_name=cls, line=node.lineno)
                    )
                    exp.expose_all = True
        return [by_class[name] for name in sorted(by_class)]

    def _local_bindings(self, func: ast.FunctionDef) -> dict[str, str]:
        """``name = ClassName(...)`` bindings plus annotated parameters,
        giving a local variable -> class-name map for exposure
        resolution."""
        bindings: dict[str, str] = {}
        for arg in list(func.args.args) + list(func.args.kwonlyargs):
            if arg.annotation is not None:
                ann = arg.annotation
                if isinstance(ann, (ast.Name, ast.Attribute)):
                    name = dotted_name(ann).split(".")[-1]
                    if name:
                        bindings[arg.arg] = name
        for node in self.walk(func, ast.Assign):
            if isinstance(node.value, ast.Call):
                target_cls = dotted_name(node.value.func).split(".")[-1]
                if not target_cls or not target_cls[0].isupper():
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = target_cls
        return bindings


def dotted_name(node: ast.AST) -> str:
    """The dotted path of a Name/Attribute chain (``a.b.c``), or ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def resolve_call_path(func: ast.AST, aliases: dict[str, str]) -> str:
    """The fully-qualified dotted path of a call target, resolving the
    leading name through the module's import aliases.

    ``t.time()`` with ``import time as t`` resolves to ``time.time``;
    ``sleep()`` with ``from time import sleep`` resolves to ``time.sleep``.
    Unresolvable roots (locals, attributes of objects) return the raw
    dotted path, which callers match conservatively.
    """
    path = dotted_name(func)
    if not path:
        return ""
    root, _, rest = path.partition(".")
    origin = aliases.get(root)
    if origin is None:
        return path
    return f"{origin}.{rest}" if rest else origin


@dataclass
class Signature:
    """A method's operation surface: ordered parameter names (self
    excluded), per-parameter annotation source (or ``""``), and how many
    parameters carry defaults."""

    params: list[str]
    annotations: list[str]
    defaults: int

    @property
    def arity(self) -> int:
        return len(self.params)


def signature_of(func: ast.FunctionDef) -> Signature:
    args = [a for a in func.args.args if a.arg != "self"]
    params = [a.arg for a in args]
    annotations = [
        ast.unparse(a.annotation) if a.annotation is not None else "" for a in args
    ]
    return Signature(
        params=params,
        annotations=annotations,
        defaults=len(func.args.defaults),
    )


def public_methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    """Directly defined public (non-underscore) methods of a class,
    properties excluded (they are attributes, not operations)."""
    out: dict[str, ast.FunctionDef] = {}
    for item in node.body:
        if not isinstance(item, ast.FunctionDef):
            continue
        if item.name.startswith("_"):
            continue
        if any(
            (isinstance(d, ast.Name) and d.id == "property")
            or (isinstance(d, ast.Attribute) and d.attr in ("setter", "getter"))
            for d in item.decorator_list
        ):
            continue
        out[item.name] = item
    return out


def base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


@dataclass
class Exposure:
    """One SOAP exposure: a class (resolved by name) and which of its
    methods are dispatchable.  ``methods`` empty means *all public*
    (``expose_object``)."""

    class_name: str
    methods: set[str] = field(default_factory=set)
    expose_all: bool = False
    line: int = 0

