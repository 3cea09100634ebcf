"""The whole-program project model: import graph, symbols, calls, dataflow.

PR 5's linter stopped at module boundaries — its fault-taxonomy closure
followed ``self.`` and same-module calls only, because that was all a
per-file AST pass could see.  The portal's correctness, though, lives in
what flows *between* services: deadline budgets, trace context,
principals, idempotency keys.  This subpackage gives checkers the three
structures a whole-program rule needs, all built from the same parsed
:class:`~repro.analysis.core.Project` (still pure stdlib, still never
importing the code under analysis):

- :mod:`~repro.analysis.graph.modgraph` — the project's modules by
  dotted name, which resolution needs to tell a module from a symbol;
- :mod:`~repro.analysis.graph.symbols` — a project symbol table that
  resolves names through import aliases, re-exports, and module-level
  assignment aliases to their defining module;
- :mod:`~repro.analysis.graph.callgraph` — a call graph over ``self.``
  calls (through base classes), module-level functions, instance
  attributes bound in ``__init__``, and cross-module calls;
- :mod:`~repro.analysis.graph.dataflow` — a small deterministic
  worklist framework for fixpoint summaries (taint, ownership) over the
  call graph.

Everything iterates in sorted order: two runs over the same tree build
byte-identical graphs, which is what keeps whole-program reports
reproducible.
"""

from repro.analysis.graph.callgraph import CallEdge, CallGraph, FunctionNode
from repro.analysis.graph.dataflow import Dataflow, reachable
from repro.analysis.graph.modgraph import ModuleGraph
from repro.analysis.graph.symbols import Symbol, SymbolTable

__all__ = [
    "CallEdge",
    "CallGraph",
    "Dataflow",
    "FunctionNode",
    "ModuleGraph",
    "ProjectGraph",
    "Symbol",
    "SymbolTable",
    "reachable",
]


class ProjectGraph:
    """The lazily-built bundle of whole-program structures for one
    :class:`~repro.analysis.core.Project`.

    Checkers reach it through ``project.graph()``; the three layers are
    built once per analysis run and shared by every graph-aware checker,
    so the cost of whole-program resolution is paid once, not per rule.
    """

    def __init__(self, project):
        self.project = project
        self._modules: ModuleGraph | None = None
        self._symbols: SymbolTable | None = None
        self._calls: CallGraph | None = None

    @property
    def modules(self) -> ModuleGraph:
        if self._modules is None:
            self._modules = ModuleGraph.build(self.project)
        return self._modules

    @property
    def symbols(self) -> SymbolTable:
        if self._symbols is None:
            self._symbols = SymbolTable.build(self.project, self.modules)
        return self._symbols

    @property
    def calls(self) -> CallGraph:
        if self._calls is None:
            self._calls = CallGraph.build(self.project, self.symbols)
        return self._calls
