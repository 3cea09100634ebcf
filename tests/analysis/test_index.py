"""The AST index answers every walk exactly as ``ast.walk`` would.

Checkers depend on walk order, not just on walk contents: the first
exposure seen fixes an ``Exposure``'s line, the last ``x = Cls(...)``
binding wins in exposure resolution, and findings that tie on location
keep discovery order.  So the index must yield, for the module and for
every class and function, exactly the nodes ``ast.walk`` yields, in the
same order, whatever node types are asked for together.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.runner import load_modules

REPO_ROOT = Path(__file__).parents[2]
FIXTURE_DEMO = Path(__file__).parent / "fixtures" / "demo"

SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _check_scope(index, scope) -> None:
    expected = tuple(ast.walk(scope))
    kinds = list(dict.fromkeys(type(node) for node in expected))
    # every type at once: the whole walk, in order
    assert index.walk(scope, *kinds) == expected
    for kind in kinds:
        assert index.walk(scope, kind) == tuple(
            node for node in expected if type(node) is kind
        )


@pytest.mark.parametrize(
    "tree", [REPO_ROOT / "src" / "repro", FIXTURE_DEMO], ids=["src", "demo"]
)
def test_index_walks_match_ast_walk_for_every_scope(tree):
    modules = [m for m in load_modules([tree], root=REPO_ROOT) if m.tree]
    assert modules
    scopes = 0
    for module in modules:
        index = module.index
        for scope in ast.walk(module.tree):
            if isinstance(scope, SCOPES):
                _check_scope(index, scope)
                scopes += 1
    assert scopes > len(modules)


def test_index_walks_match_ast_walk_under_every_node():
    """Sub-expression walks (call arguments, statement bodies) are
    served from the same index."""
    for module in load_modules([FIXTURE_DEMO], root=REPO_ROOT):
        for node in ast.walk(module.tree):
            _check_scope(module.index, node)

