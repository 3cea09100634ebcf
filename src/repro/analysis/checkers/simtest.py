"""REP6xx — simulation-testing oracles: registered.

The simtest harness only runs the invariant oracles it finds in the
registry; an ``Oracle`` subclass someone forgets to decorate with
``@register_oracle`` silently checks nothing.

An oracle is also replayed byte-identically from a seed, so its verdicts
must be pure functions of the simulated world.  The determinism rules
(REP101-REP103) already flag every wall-clock read and unseeded random
draw in every module, oracles included, so this family adds none.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Checker, Finding, Project, register_checker

#: the registry decorator an oracle must carry (bare name or attribute:
#: ``@register_oracle`` / ``@oracles.register_oracle``)
REGISTRY_DECORATOR = "register_oracle"

#: root of the oracle hierarchy (matched by name, like subclasses_of does)
ORACLE_ROOT = "Oracle"


def _carries_registry_decorator(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == REGISTRY_DECORATOR:
            return True
        if isinstance(target, ast.Attribute) and target.attr == REGISTRY_DECORATOR:
            return True
    return False


@register_checker
class SimtestOracleChecker(Checker):
    name = "simtest"
    description = "invariant oracles registered with the simtest registry"
    codes = {
        "REP601": "concrete Oracle subclass not decorated with @register_oracle",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        index = project.class_index()
        oracle_names = project.subclasses_of({ORACLE_ROOT}) - {ORACLE_ROOT}
        # a subclass that other oracles inherit from is an abstract stem
        # (like Oracle itself), not a checkable invariant: only leaves run
        stems = set()
        for name in oracle_names:
            _module, node = index[name]
            for base in node.bases:
                base_name = base.id if isinstance(base, ast.Name) else (
                    base.attr if isinstance(base, ast.Attribute) else ""
                )
                if base_name in oracle_names:
                    stems.add(base_name)
        for name in sorted(oracle_names):
            module, node = index[name]
            if name not in stems and not _carries_registry_decorator(node):
                yield module.finding(
                    "REP601",
                    f"oracle {name} is never registered — the harness only "
                    "runs oracles the @register_oracle registry knows about",
                    node,
                    checker=self.name,
                    symbol=name,
                )
