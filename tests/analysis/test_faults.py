"""The fault taxonomy: REP202/REP203 on the vocabulary, REP901 on every
raise a SOAP dispatch can reach."""

import textwrap

import pytest

from repro.analysis.checkers.faults import FaultTaxonomyChecker
from repro.analysis.checkers.propagation import PropagationChecker

from tests.analysis.conftest import codes

CHECKER = [FaultTaxonomyChecker()]
RULE = [FaultTaxonomyChecker(), PropagationChecker()]


def test_stdlib_raise_reachable_from_expose(analyze):
    result = analyze({
        "svc.py": """\
            class Svc:
                def op(self, x):
                    if not x:
                        raise ValueError("boom")
                    return x


            def deploy(soap):
                impl = Svc()
                soap.expose(impl.op)
        """
    }, checkers=RULE)
    assert codes(result) == ["REP901"]
    assert result.findings[0].symbol == "Svc.op"


def test_raise_in_helper_reached_through_self_call(analyze):
    result = analyze({
        "svc.py": """\
            class Svc:
                def op(self, x):
                    return self._inner(x)

                def _inner(self, x):
                    raise KeyError(x)


            def deploy(soap):
                impl = Svc()
                soap.expose(impl.op)
        """
    }, checkers=RULE)
    assert codes(result) == ["REP901"]
    assert result.findings[0].symbol == "Svc._inner"


def test_expose_object_covers_every_public_method(analyze):
    result = analyze({
        "svc.py": """\
            class Svc:
                def visible(self):
                    raise RuntimeError("escapes")


            def deploy(soap):
                soap.expose_object(Svc())
        """
    }, checkers=RULE)
    assert codes(result) == ["REP901"]


def test_portal_error_raise_is_clean(analyze):
    result = analyze({
        "svc.py": """\
            from repro.faults import InvalidRequestError


            class Svc:
                def op(self, x):
                    if not x:
                        raise InvalidRequestError("x required")
                    raise  # bare re-raise is fine
                    err = InvalidRequestError("kept")
                    raise err  # variable re-raise is out of static reach


            def deploy(soap):
                impl = Svc()
                soap.expose(impl.op)
        """
    }, checkers=RULE)
    assert codes(result) == []


def test_unexposed_class_raises_freely(analyze):
    result = analyze({
        "lib.py": """\
            class Helper:
                def op(self):
                    raise ValueError("internal")
        """
    }, checkers=RULE)
    assert codes(result) == []


def test_subclass_without_code_and_retryable(analyze):
    result = analyze({
        "errors.py": """\
            from repro.faults import PortalError


            class VagueError(PortalError):
                pass


            class HalfError(PortalError):
                code = "Portal.Half"


            class FullError(PortalError):
                code = "Portal.Full"
                retryable = True
        """
    }, checkers=CHECKER)
    assert codes(result) == ["REP202", "REP203", "REP203"]
    assert [f.symbol for f in result.findings] == [
        "VagueError", "VagueError", "HalfError",
    ]


# -- one rule, wherever the raise sits ------------------------------------------

#: case -> (module prelude, the helper methods holding the raise, the codes
#: expected).  Each case runs with the raise in the exposed service itself
#: and in a helper class of another module; the verdict is the same.
RAISE_CASES = {
    "transport-error": (
        "from repro.transport.network import TransportError",
        """\
        def fail(self):
            raise TransportError("backend down")
        """,
        [],
    ),
    "unannotated-function-factory": (
        "def _boom():\n    return RuntimeError('boom')",
        """\
        def fail(self):
            raise _boom()
        """,
        ["REP901"],
    ),
    "unannotated-method-factory": (
        "",
        """\
        def _mk(self):
            return KeyError("k")

        def fail(self):
            raise self._mk()
        """,
        ["REP901"],
    ),
    "annotated-method-factory": (
        "from repro.faults import InvalidRequestError",
        """\
        def _ok(self) -> InvalidRequestError:
            return InvalidRequestError("bad")

        def fail(self):
            raise self._ok()
        """,
        [],
    ),
    "annotated-function-factory": (
        "from repro.faults import InvalidRequestError\n\n\n"
        "def _typed() -> InvalidRequestError:\n"
        "    return InvalidRequestError('bad')",
        """\
        def fail(self):
            raise _typed()
        """,
        [],
    ),
    "stdlib-error": (
        "",
        """\
        def fail(self):
            raise KeyError("k")
        """,
        ["REP901"],
    ),
}

DEPLOY = """

def deploy(soap):
    impl = Svc()
    soap.expose(impl.op)
"""


def _placed(prelude: str, methods: str, placement: str) -> dict[str, str]:
    """The sources of one case: the raising methods on the exposed class
    (``self.fail()``), or on a helper class of another module the service
    holds (``self.helper.fail()``)."""
    body = textwrap.indent(textwrap.dedent(methods), "    ")
    if placement == "same-module":
        return {"pkg/__init__.py": "", "pkg/svc.py": (
            f"{prelude}\n\n\nclass Svc:\n    def op(self):\n"
            f"        return self.fail()\n\n{body}{DEPLOY}"
        )}
    return {
        "pkg/__init__.py": "",
        "pkg/helpers.py": f"{prelude}\n\n\nclass Helper:\n{body}",
        "pkg/svc.py": (
            "from pkg.helpers import Helper\n\n\nclass Svc:\n"
            "    def __init__(self):\n        self.helper = Helper()\n\n"
            "    def op(self):\n        return self.helper.fail()\n" + DEPLOY
        ),
    }


@pytest.mark.parametrize("placement", ["same-module", "cross-module"])
@pytest.mark.parametrize("case", sorted(RAISE_CASES))
def test_one_verdict_per_raise_wherever_it_sits(analyze, case, placement):
    prelude, methods, expected = RAISE_CASES[case]
    result = analyze(_placed(prelude, methods, placement), checkers=RULE)
    assert codes(result) == expected
    assert all(f.symbol.endswith(".fail") for f in result.findings)


def test_factory_message_names_the_missing_annotation(analyze):
    prelude, methods, _ = RAISE_CASES["unannotated-method-factory"]
    result = analyze(_placed(prelude, methods, "cross-module"), checkers=RULE)
    [finding] = result.findings
    assert finding.path == "pkg/helpers.py"
    assert "self._mk()" in finding.message
    assert "return annotation" in finding.message
