"""Static analysis for the portal reproduction: the contract linter.

The paper's central claim is interoperability through shared contracts: two
independently implemented services stay compatible only because their
interfaces agree (§3, §6).  This package enforces the invariants that keep
the reproduction correct as it grows, as machine-checked rules rather than
convention:

- **determinism** (REP1xx) — everything runs on the shared
  :class:`~repro.transport.clock.SimClock` and seeded ``random.Random``
  instances; wall-clock reads, sleeps, and unseeded randomness are banned,
  as is insertion-order iteration over discovery registries.
- **fault taxonomy** (REP2xx, REP901) — every error a SOAP-dispatched
  method can raise, in the service or in any helper it calls, must belong
  to the common ``Portal.*`` vocabulary (:mod:`repro.faults`), each
  member with an explicit fault code and retryable classification.
- **contract drift** (REP3xx) — implementations of the same port type must
  expose the same operation surface, and a statically declared interface
  WSDL must match the classes that implement it.
- **header discipline** (REP4xx) — every SOAP header that crosses the wire
  must be registered in :mod:`repro.headers` with both an encoder
  (sender side) and a decoder (consumer side) beside the declaration.
- **resource hygiene** (REP5xx) — spans, admission tickets, and journals
  are handles; acquiring one without a crash-safe release path is flagged.

Run it as ``python -m repro.analysis [--format text|json] [paths]``.
Every run analyzes the whole tree: each module's AST is walked once into
an index (:class:`~repro.analysis.astutil.AstIndex`) that every checker
queries.  A finding is waived only inline, on its own line
(``# repro: ignore[CODE]``), and a waiver that matches nothing is itself
reported.
"""

from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    Severity,
    SourceModule,
    all_checkers,
    get_checker,
    register_checker,
)
from repro.analysis.runner import AnalysisResult, analyze_paths, analyze_sources

__all__ = [
    "AnalysisResult",
    "Checker",
    "Finding",
    "Project",
    "Severity",
    "SourceModule",
    "all_checkers",
    "analyze_paths",
    "analyze_sources",
    "get_checker",
    "register_checker",
]
