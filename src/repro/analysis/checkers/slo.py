"""REP7xx — SLOs: fully-declared objectives.

The tail sampler's contract is that two same-seed runs keep byte-identical
trace sets, so any randomness a :class:`SamplingPolicy` uses must flow from
an explicit seed.  The determinism rule REP103 already flags every
unseeded draw in every module, sampling policies included, so this family
adds no rule of its own for it.

An SLO without a window and a budget is a slogan, not an objective: burn
rate is *budget spend per window*, so omitting either leaves the alerting
math undefined.  The ``SLO`` dataclass enforces both at runtime via
keyword-only fields; REP702 moves the failure to lint time, where it names
the call site instead of whichever deployment first constructs it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import resolve_call_path
from repro.analysis.core import Checker, Finding, Project, register_checker

#: the objective dataclass REP702 audits construction of
SLO_CLASS = "SLO"

#: the keyword-only fields every SLO definition must spell out
REQUIRED_SLO_KEYWORDS = ("window", "budget")


@register_checker
class SloSamplingChecker(Checker):
    name = "slo"
    description = "SLO definitions declare both window and budget"
    codes = {
        "REP702": "SLO definition missing an explicit window= or budget=",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.parsed():
            aliases = module.index.import_origins
            for node in module.index.walk(module.tree, ast.Call):
                path = resolve_call_path(node.func, aliases)
                if not path:
                    continue
                if path != SLO_CLASS and not path.endswith(f".{SLO_CLASS}"):
                    continue
                keywords = {kw.arg for kw in node.keywords}
                # a **splat may carry them; the dataclass still enforces
                if None in keywords:
                    continue
                missing = [
                    field for field in REQUIRED_SLO_KEYWORDS
                    if field not in keywords
                ]
                if missing:
                    yield module.finding(
                        "REP702",
                        "SLO definition omits "
                        + " and ".join(f"{field}=" for field in missing)
                        + " — burn rate is budget spend per window, so an "
                        "objective without both is unalertable",
                        node,
                        checker=self.name,
                        symbol=SLO_CLASS,
                    )
