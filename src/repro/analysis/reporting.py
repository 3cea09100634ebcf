"""Rendering: human text and the ``repro.analysis.report`` JSON artifact.

The JSON artifact is the trendable interface for CI: a stable schema
(``repro.analysis.report/v2``) carrying every finding with its
fingerprint and per-code counts, so future PRs can diff finding counts
across runs.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.analysis.core import Severity
from repro.analysis.runner import AnalysisResult

REPORT_SCHEMA = "repro.analysis.report/v2"


def render_text(result: AnalysisResult) -> str:
    lines: list[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.code} [{finding.severity}] {finding.message}"
        )
    if result.suppressed:
        lines.append(f"inline-suppressed: {len(result.suppressed)} finding(s)")
    errors = sum(1 for f in result.findings if f.severity == Severity.ERROR)
    warnings = sum(1 for f in result.findings if f.severity == Severity.WARNING)
    lines.append(
        f"{result.files_scanned} file(s) scanned, "
        f"{len(result.findings)} finding(s) ({errors} error, {warnings} warning)"
    )
    return "\n".join(lines)


def render_json(result: AnalysisResult, *, paths: list[str], exit_code: int) -> str:
    by_code = Counter(f.code for f in result.findings)
    by_severity = Counter(f.severity for f in result.findings)
    payload = {
        "tool": "repro.analysis",
        "schema": REPORT_SCHEMA,
        # sorted: the report is a function of the analyzed tree, not of
        # the order the paths were typed in
        "paths": sorted(paths),
        "files": result.files_scanned,
        "checkers": [
            {
                "name": checker.name,
                "description": checker.description,
                "codes": dict(checker.codes),
            }
            for checker in result.checkers
        ],
        "findings": [f.to_dict() for f in result.findings],
        "counts": {
            "new": len(result.findings),
            "suppressed": len(result.suppressed),
            "by_code": dict(sorted(by_code.items())),
            "by_severity": dict(sorted(by_severity.items())),
        },
        "exit_code": exit_code,
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def exit_code_for(result: AnalysisResult) -> int:
    """0 when every finding is suppressed inline; 1 on any finding
    (warnings included: a warning the author neither fixed nor
    suppressed is still drift)."""
    return 1 if result.findings else 0


def list_checkers_text(checkers) -> str:
    lines = []
    for checker in checkers:
        lines.append(f"{checker.name}: {checker.description}")
        for code, rule in sorted(checker.codes.items()):
            lines.append(f"  {code}  {rule}")
    return "\n".join(lines)
