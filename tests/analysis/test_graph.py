"""The whole-program graph: symbol resolution and calls.

Everything here runs on tiny in-memory projects, so each test isolates
one resolution idiom — aliased imports, re-exports, assignment aliases,
method resolution through cross-module bases, and cycles.
"""

import ast

from repro.analysis.checkers.propagation import _edge_summary
from repro.analysis.core import Project
from repro.analysis.graph.dataflow import reachable

from tests.analysis.conftest import modules_from


def graph_of(sources):
    return Project(modules=modules_from(sources)).graph()


# -- module resolution ---------------------------------------------------------


def test_relative_imports_resolve_against_the_package():
    g = graph_of({
        "pkg/__init__.py": "",
        "pkg/svc.py": "from .helpers import h\nfrom . import helpers as hp\n",
        "pkg/helpers.py": "def h():\n    return 1\n",
    })
    for dotted in ("h", "hp.h"):
        symbol = g.symbols.resolve("pkg.svc", dotted)
        assert symbol is not None
        assert (symbol.kind, symbol.module, symbol.name) == (
            "func", "pkg.helpers", "h",
        )


# -- symbol table --------------------------------------------------------------


def test_resolve_through_module_alias():
    g = graph_of({
        "pkg/__init__.py": "",
        "pkg/impl.py": "class Widget:\n    pass\n",
        "pkg/use.py": "import pkg.impl as im\n",
    })
    symbol = g.symbols.resolve("pkg.use", "im.Widget")
    assert symbol is not None
    assert (symbol.kind, symbol.module, symbol.name) == (
        "class", "pkg.impl", "Widget",
    )


def test_resolve_through_package_reexport():
    g = graph_of({
        "pkg/__init__.py": "from pkg.impl import Widget\n",
        "pkg/impl.py": "class Widget:\n    pass\n",
        "use.py": "from pkg import Widget\n",
    })
    symbol = g.symbols.resolve("use", "Widget")
    assert symbol is not None
    assert (symbol.module, symbol.name) == ("pkg.impl", "Widget")


def test_resolve_through_assignment_alias():
    g = graph_of({
        "mod.py": "class Original:\n    pass\n\n\nAlias = Original\n",
    })
    symbol = g.symbols.resolve("mod", "Alias")
    assert symbol is not None
    assert (symbol.kind, symbol.name) == ("class", "Original")


def test_resolution_cycle_is_safe():
    g = graph_of({
        "cyc/__init__.py": "",
        "cyc/a.py": "from cyc.b import Thing\n",
        "cyc/b.py": "from cyc.a import Thing\n",
    })
    assert g.symbols.resolve("cyc.a", "Thing") is None


def test_mro_method_walks_cross_module_bases():
    g = graph_of({
        "lib/__init__.py": "",
        "lib/base.py": (
            "class Base:\n"
            "    def op(self):\n"
            "        return self.step()\n"
            "    def step(self):\n"
            "        return 1\n"
        ),
        "lib/child.py": (
            "from lib.base import Base\n\n\n"
            "class Child(Base):\n"
            "    def step(self):\n"
            "        return 2\n"
        ),
    })
    owner = g.symbols.mro_method("lib.child", "Child", "op")
    assert owner is not None and owner[:2] == ("lib.base", "Base")
    override = g.symbols.mro_method("lib.child", "Child", "step")
    assert override is not None and override[:2] == ("lib.child", "Child")
    assert ("lib.child", "Child") in g.symbols.subclasses_of(
        {("lib.base", "Base")}
    )


# -- call graph ----------------------------------------------------------------

DEPLOYED_SERVICE = {
    "app/__init__.py": "",
    "app/helpers.py": "def helper():\n    raise KeyError('x')\n",
    "app/svc.py": (
        "from app.helpers import helper\n\n\n"
        "class Svc:\n"
        "    def op(self):\n"
        "        return self._inner()\n\n"
        "    def _inner(self):\n"
        "        return helper()\n\n"
        "    def shielded(self):\n"
        "        try:\n"
        "            return helper()\n"
        "        except KeyError:\n"
        "            return None\n\n\n"
        "def deploy(soap):\n"
        "    impl = Svc()\n"
        "    soap.expose(impl.op)\n"
        "    soap.expose(impl.shielded)\n"
    ),
}


def test_dispatch_roots_from_exposures():
    project = Project(modules=modules_from(DEPLOYED_SERVICE))
    roots = project.graph().calls.dispatch_roots
    assert "app.svc:Svc.op" in roots
    assert "app.svc:Svc.shielded" in roots
    assert "app.svc:Svc._inner" not in roots


def test_call_edges_carry_kind_module_and_guard():
    project = Project(modules=modules_from(DEPLOYED_SERVICE))
    calls = project.graph().calls
    edges = {
        (e.caller, e.callee, e.kind, e.cross_module, e.guarded)
        for node_edges in calls.edges_from.values()
        for e in node_edges
    }
    assert ("app.svc:Svc.op", "app.svc:Svc._inner", "self", False, False) in edges
    assert (
        "app.svc:Svc._inner", "app.helpers:helper", "name", True, False
    ) in edges
    assert (
        "app.svc:Svc.shielded", "app.helpers:helper", "name", True, True
    ) in edges


def test_guarded_cross_module_edges_stop_reachability():
    project = Project(modules=modules_from(DEPLOYED_SERVICE))
    calls = project.graph().calls

    def unguarded_cross(edge):
        return not (edge.guarded and edge.cross_module)

    via_shielded = reachable(
        calls, ["app.svc:Svc.shielded"],
        follow_guarded=True, edge_filter=unguarded_cross,
    )
    assert "app.helpers:helper" not in via_shielded
    via_op = reachable(
        calls, ["app.svc:Svc.op"],
        follow_guarded=True, edge_filter=unguarded_cross,
    )
    assert "app.helpers:helper" in via_op


def test_edges_by_line_keep_edge_order_and_the_name_match_wins():
    g = graph_of({
        "pkg/__init__.py": "",
        "pkg/m.py": (
            "def first():\n    return 1\n\n\n"
            "def second():\n    return 2\n\n\n"
            "def both():\n    return first() + second()\n"
        ),
    })
    calls = g.calls
    for node_id, edges in calls.edges_from.items():
        by_line = calls.edges_by_line[node_id]
        assert by_line == {
            line: [e for e in edges if e.line == line]
            for line in {e.line for e in edges}
        }
    assert [e.callee for e in calls.edges_by_line["pkg.m:both"][10]] == [
        "pkg.m:first", "pkg.m:second",
    ]
    # two calls on one line: each finds its own callee's summary
    summaries = {"pkg.m:first": "F", "pkg.m:second": "S"}
    found = {
        call.func.id: _edge_summary(calls, "pkg.m:both", call, summaries)
        for call in ast.walk(calls.funcs["pkg.m:both"])
        if isinstance(call, ast.Call)
    }
    assert found == {"first": "F", "second": "S"}
