"""Collect sources, run checkers, apply suppressions.

The runner is deterministic end to end: files are discovered in sorted
order, checkers run in registration order, and findings are sorted by
location — two runs over the same tree produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.core import (
    FRAMEWORK_CODES,
    PARSE_ERROR,
    UNUSED_SUPPRESSION,
    Checker,
    Finding,
    Project,
    Severity,
    SourceModule,
    all_checkers,
)

SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def collect_files(paths: list[Path]) -> list[Path]:
    """Every ``.py`` file under *paths* (files accepted verbatim), sorted."""
    out: set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            out.add(path.resolve())
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in SKIP_DIRS for part in candidate.parts):
                    out.add(candidate.resolve())
    return sorted(out)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class AnalysisResult:
    """Everything one run produced."""

    findings: list[Finding]
    files_scanned: int
    checkers: list[Checker]
    #: findings dropped by inline suppressions (kept for reporting)
    suppressed: list[Finding] = field(default_factory=list)

    def codes_in_use(self) -> dict[str, str]:
        table = dict(FRAMEWORK_CODES)
        for checker in self.checkers:
            table.update(checker.codes)
        return table


def analyze_sources(
    modules: list[SourceModule],
    *,
    checkers: list[Checker] | None = None,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> AnalysisResult:
    """Run *checkers* (default: all registered) over already-loaded modules."""
    active = checkers if checkers is not None else all_checkers()
    project = Project(modules=modules)

    raw: list[Finding] = []
    for module in modules:
        if module.tree is None:
            raw.append(
                module.finding(
                    PARSE_ERROR,
                    "file failed to parse as Python",
                    checker="framework",
                )
            )
    for checker in active:
        for finding in checker.check(project):
            raw.append(finding)

    if select:
        raw = [f for f in raw if f.code in select]
    if ignore:
        raw = [f for f in raw if f.code not in ignore]

    kept, suppressed, used = _apply_suppressions(raw, modules)
    kept.extend(_unused_suppressions(modules, used, select, ignore))
    kept.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return AnalysisResult(
        findings=kept,
        files_scanned=len(modules),
        checkers=active,
        suppressed=suppressed,
    )


def _apply_suppressions(
    findings: list[Finding], modules: list[SourceModule]
) -> tuple[list[Finding], list[Finding], set[tuple[str, int]]]:
    by_rel = {m.rel: m for m in modules}
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    used: set[tuple[str, int]] = set()
    for finding in findings:
        module = by_rel.get(finding.path)
        codes = (
            module.suppressions.get(finding.line) if module is not None else None
        )
        if codes is not None and (not codes or finding.code in codes):
            suppressed.append(finding)
            used.add((finding.path, finding.line))
        else:
            kept.append(finding)
    return kept, suppressed, used


def _unused_suppressions(
    modules: list[SourceModule],
    used: set[tuple[str, int]],
    select: set[str] | None,
    ignore: set[str] | None,
) -> list[Finding]:
    """A suppression that matches nothing is itself a finding: it documents
    a violation that no longer exists (or never did)."""
    if select and UNUSED_SUPPRESSION not in select:
        return []
    if ignore and UNUSED_SUPPRESSION in ignore:
        return []
    out: list[Finding] = []
    for module in modules:
        for line, codes in sorted(module.suppressions.items()):
            if (module.rel, line) in used:
                continue
            label = ",".join(sorted(codes)) if codes else "*"
            out.append(
                module.finding(
                    UNUSED_SUPPRESSION,
                    f"suppression 'repro: ignore[{label}]' matches no finding",
                    line=line,
                    checker="framework",
                    severity=Severity.WARNING,
                )
            )
    return out


def load_modules(paths: list[Path], *, root: Path | None = None) -> list[SourceModule]:
    root = (root or Path.cwd()).resolve()
    files = collect_files([p.resolve() for p in paths])
    modules = []
    for file in files:
        text = file.read_text(encoding="utf-8")
        modules.append(SourceModule.from_text(text, file, _relpath(file, root)))
    return modules


def analyze_paths(
    paths: list[Path],
    *,
    root: Path | None = None,
    checkers: list[Checker] | None = None,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> AnalysisResult:
    """Load every Python file under *paths* and analyze them as one project."""
    return analyze_sources(
        load_modules(paths, root=root),
        checkers=checkers,
        select=select,
        ignore=ignore,
    )
