"""REP1xx — determinism: the simulation runs on virtual time and seeds.

Every behaviour in this reproduction must be a pure function of (code,
seeds): the chaos, recovery, trace, and overload suites all assert
byte-identical reruns.  Wall-clock reads, real sleeps, unseeded
randomness, and registry iteration in insertion order are the four ways
nondeterminism has historically leaked into systems like this one.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.astutil import resolve_call_path
from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    SourceModule,
    register_checker,
)

#: wall-clock and sleep functions (virtual time lives on SimClock)
TIME_CALLS = {
    "time.time",
    "time.time_ns",
    "time.sleep",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
}

#: ambient-date constructors (never meaningful inside the simulation)
DATETIME_CALLS = {
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}

#: names on the ``random`` module that are fine to touch: the seeded
#: generator class itself (constructed *with* a seed — checked separately)
RANDOM_ALLOWED_ATTRS = {"Random"}

#: mapping-valued attributes that act as discovery/provider registries;
#: iterating them in insertion order makes results depend on registration
#: order, which differs between providers
REGISTRY_NAME_RE = re.compile(
    r"(?:^|_)(children|metadata|registry|registries|businesses|services"
    r"|tmodels|providers|bindings|lanes|contacts)$"
)

DICT_VIEWS = {"values", "items", "keys"}

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

#: the node types the checker inspects
_SCANNED = (ast.Call, ast.For, ast.AsyncFor, *_COMPREHENSIONS)


@register_checker
class DeterminismChecker(Checker):
    name = "determinism"
    description = (
        "virtual-clock time, seeded randomness, and order-stable registry "
        "iteration"
    )
    codes = {
        "REP101": "wall-clock/sleep call (use SimClock)",
        "REP102": "ambient datetime construction (use SimClock)",
        "REP103": "unseeded randomness (use a seeded random.Random)",
        "REP104": "insertion-order iteration over a registry mapping (wrap in sorted())",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.parsed():
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterable[Finding]:
        index = module.index
        aliases = index.import_origins
        for node in index.walk(module.tree, *_SCANNED):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, aliases)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(module, node.iter)
            elif isinstance(node, _COMPREHENSIONS):
                for comp in node.generators:
                    yield from self._check_iteration(module, comp.iter)

    def _check_call(
        self, module: SourceModule, node: ast.Call, aliases: dict[str, str]
    ) -> Iterable[Finding]:
        path = resolve_call_path(node.func, aliases)
        if not path:
            return
        if path in TIME_CALLS:
            yield module.finding(
                "REP101",
                f"call to {path}() — real time is banned; advance the "
                "shared SimClock instead",
                node,
                checker=self.name,
            )
        elif path in DATETIME_CALLS:
            yield module.finding(
                "REP102",
                f"call to {path}() — ambient dates are banned; derive "
                "times from the SimClock",
                node,
                checker=self.name,
            )
        elif path == "random.Random":
            if not node.args and not node.keywords:
                yield module.finding(
                    "REP103",
                    "random.Random() constructed without a seed — "
                    "pass an explicit seed",
                    node,
                    checker=self.name,
                )
        elif path.startswith("random.") and path.count(".") == 1:
            attr = path.split(".", 1)[1]
            if attr not in RANDOM_ALLOWED_ATTRS:
                yield module.finding(
                    "REP103",
                    f"call to {path}() uses the shared unseeded generator — "
                    "draw from a seeded random.Random instance",
                    node,
                    checker=self.name,
                )

    def _check_iteration(
        self, module: SourceModule, iter_node: ast.AST
    ) -> Iterable[Finding]:
        # Only an explicit dict view (.values()/.items()/.keys()) proves the
        # thing iterated is a mapping; the same attribute names also hold
        # ordered lists (XmlElement.children, BusinessService.bindings),
        # whose iteration is document order and perfectly deterministic.
        target = iter_node
        if not (
            isinstance(target, ast.Call)
            and isinstance(target.func, ast.Attribute)
            and target.func.attr in DICT_VIEWS
            and not target.args
        ):
            return
        view = f".{target.func.attr}()"
        name = self._registry_name(target.func.value)
        if name is None:
            return
        yield module.finding(
            "REP104",
            f"iteration over registry mapping {name}{view} depends on "
            "insertion order — wrap in sorted()",
            iter_node,
            checker=self.name,
        )

    @staticmethod
    def _registry_name(node: ast.AST) -> str | None:
        """The display name when *node* is a bare/attribute reference to a
        registry-patterned mapping (``sorted(...)`` wrappers never reach
        here: the iter expression is then the sorted() call)."""
        if isinstance(node, ast.Attribute):
            if REGISTRY_NAME_RE.search(node.attr):
                base = node.value
                prefix = f"{base.id}." if isinstance(base, ast.Name) else "…."
                return prefix + node.attr
        elif isinstance(node, ast.Name) and REGISTRY_NAME_RE.search(node.id):
            return node.id
        return None
