"""Core model of the analysis framework: findings, modules, checkers.

Everything here is pure stdlib (``ast`` + dataclasses): the analyzer never
imports the code under analysis, so it can lint a tree that does not even
import cleanly, and the CLI stays dependency-free for CI.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.astutil import AstIndex

#: framework-level codes (emitted by the runner, not by checkers)
UNUSED_SUPPRESSION = "REP001"
PARSE_ERROR = "REP002"

FRAMEWORK_CODES = {
    UNUSED_SUPPRESSION: "inline suppression matches no finding",
    PARSE_ERROR: "file failed to parse",
}


class Severity:
    """Finding severities (plain strings so they serialize trivially)."""

    ERROR = "error"
    WARNING = "warning"

    ORDER = {ERROR: 0, WARNING: 1}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a coded, located, suppressible fact about the code."""

    code: str
    message: str
    path: str  # repo-relative posix path
    line: int
    col: int = 0
    severity: str = Severity.ERROR
    checker: str = ""
    symbol: str = ""  # enclosing class/function, when known

    def fingerprint(self) -> str:
        """Line-independent identity, reported with every finding: the
        same finding keeps its fingerprint when its line moves, so two
        reports can be matched finding by finding; a changed message
        makes it a different finding."""
        raw = f"{self.path}::{self.code}::{self.message}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code, self.message)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "checker": self.checker,
            "symbol": self.symbol,
            "fingerprint": self.fingerprint(),
        }


#: matches the ``repro: ignore`` / ``repro: ignore[REP101, REP104]`` comment marker
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)


def parse_suppressions(text: str) -> dict[int, set[str]]:
    """Extract inline suppressions: {line -> set of codes} (empty set =
    blanket ``# repro: ignore`` suppressing every code on that line).

    Only genuine ``#`` comments count — the marker appearing inside a
    string or docstring (as it does in this very module) is prose, not a
    suppression, so the scan tokenizes rather than greps.  Tokenizing is
    slow, so only text that holds the marker's ``repro:`` is tokenized.
    """
    out: dict[int, set[str]] = {}
    if "repro:" not in text:
        return out
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return out  # unparseable files already surface as REP002
    for lineno, comment in comments:
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = set()
        else:
            out[lineno] = {c.strip() for c in codes.split(",") if c.strip()}
    return out


@dataclass
class SourceModule:
    """One parsed source file plus everything checkers need around it."""

    path: Path  # absolute
    rel: str  # repo-relative posix path (finding identity)
    text: str
    tree: ast.Module | None  # None when the file failed to parse
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: dotted module name when derivable (``src/repro/x/y.py`` -> ``repro.x.y``)
    module_name: str = ""

    @staticmethod
    def from_text(text: str, path: Path, rel: str) -> "SourceModule":
        try:
            tree = ast.parse(text)
        except SyntaxError:
            tree = None
        return SourceModule(
            path=path,
            rel=rel,
            text=text,
            tree=tree,
            suppressions=parse_suppressions(text),
            module_name=_module_name(rel),
        )

    @cached_property
    def index(self) -> AstIndex:
        """The one walk of :attr:`tree` every checker queries (parsed
        modules only)."""
        return AstIndex(self.tree, self.module_name)

    def finding(
        self,
        code: str,
        message: str,
        node: ast.AST | None = None,
        *,
        severity: str = Severity.ERROR,
        checker: str = "",
        symbol: str = "",
        line: int = 0,
        col: int = 0,
    ) -> Finding:
        if node is not None:
            line = getattr(node, "lineno", line)
            col = getattr(node, "col_offset", col)
        return Finding(
            code=code,
            message=message,
            path=self.rel,
            line=line,
            col=col,
            severity=severity,
            checker=checker,
            symbol=symbol,
        )


def _module_name(rel: str) -> str:
    parts = Path(rel).with_suffix("").parts
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class Project:
    """The full analyzed set: cross-module checkers see everything at once."""

    modules: list[SourceModule]
    _class_index: dict[str, tuple[SourceModule, ast.ClassDef]] | None = None
    _graph: object | None = None

    def graph(self):
        """The whole-program :class:`~repro.analysis.graph.ProjectGraph`
        (module graph, symbol table, call graph), built once per run and
        shared by every graph-aware checker."""
        if self._graph is None:
            from repro.analysis.graph import ProjectGraph

            self._graph = ProjectGraph(self)
        return self._graph

    def parsed(self) -> Iterator[SourceModule]:
        for module in self.modules:
            if module.tree is not None:
                yield module

    def class_index(self) -> dict[str, tuple[SourceModule, ast.ClassDef]]:
        """Project-wide class name -> (module, ClassDef).  Names are assumed
        unique across the tree (true for this codebase); on a collision the
        first definition wins deterministically (module order)."""
        if self._class_index is None:
            index: dict[str, tuple[SourceModule, ast.ClassDef]] = {}
            for module in self.parsed():
                for node in module.index.walk(module.tree, ast.ClassDef):
                    index.setdefault(node.name, (module, node))
            self._class_index = index
        return self._class_index

    def subclasses_of(self, roots: set[str]) -> set[str]:
        """Transitive closure of class names inheriting (by name) from any
        of *roots*, roots included."""
        index = self.class_index()
        known = set(roots)
        changed = True
        while changed:
            changed = False
            for name, (_module, node) in index.items():
                if name in known:
                    continue
                for base in node.bases:
                    base_name = base.id if isinstance(base, ast.Name) else (
                        base.attr if isinstance(base, ast.Attribute) else ""
                    )
                    if base_name in known:
                        known.add(name)
                        changed = True
                        break
        return known


class Checker:
    """Base class for one family of rules.

    Subclasses set ``name``, ``description`` and ``codes`` (code ->
    one-line rule description) and implement :meth:`check` over the whole
    project; per-module rules simply iterate ``project.modules``.
    """

    name: str = ""
    description: str = ""
    codes: dict[str, str] = {}

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Checker] = {}


def register_checker(checker_cls: type[Checker]) -> type[Checker]:
    """Class decorator registering a checker under its ``name``."""
    instance = checker_cls()
    if not instance.name:
        raise ValueError(f"checker {checker_cls.__name__} has no name")
    if instance.name in _REGISTRY:
        raise ValueError(f"duplicate checker name {instance.name!r}")
    _REGISTRY[instance.name] = instance
    return checker_cls


def all_checkers() -> list[Checker]:
    """Every registered checker, in registration order (stable: the
    checkers package imports its modules in a fixed order)."""
    import repro.analysis.checkers  # noqa: F401  (registration side effect)

    return list(_REGISTRY.values())


def get_checker(name: str) -> Checker:
    import repro.analysis.checkers  # noqa: F401

    if name not in _REGISTRY:
        raise KeyError(f"no checker named {name!r}")
    return _REGISTRY[name]
