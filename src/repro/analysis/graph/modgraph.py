"""The project's modules by dotted name.

Name resolution needs to know whether ``repro.a.b`` in an import origin
is a module or a symbol inside ``repro.a``; :meth:`ModuleGraph.resolve_module`
answers with the longest project module that prefixes it.  The import
origins themselves come from each module's
:attr:`~repro.analysis.astutil.AstIndex.import_origins`, with relative
imports resolved against the module's own dotted name, so fixture
packages analyzed from an arbitrary root resolve the same way the real
tree does.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ModuleGraph:
    """The project's module names, each mapped to its defining file."""

    #: dotted module name -> repo-relative path of the defining file
    modules: dict[str, str] = field(default_factory=dict)

    @staticmethod
    def build(project) -> "ModuleGraph":
        graph = ModuleGraph()
        for module in project.parsed():
            if module.module_name:
                graph.modules.setdefault(module.module_name, module.rel)
        return graph

    def resolve_module(self, origin: str) -> str | None:
        """The longest project module that prefixes *origin* (an import
        origin may point at a symbol inside a module: ``repro.a.b.Name``
        resolves to module ``repro.a.b``)."""
        candidate = origin
        while candidate:
            if candidate in self.modules:
                return candidate
            if "." not in candidate:
                return None
            candidate = candidate.rsplit(".", 1)[0]
        return None
