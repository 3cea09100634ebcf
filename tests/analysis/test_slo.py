"""SloSamplingChecker: REP702."""

from repro.analysis.checkers.slo import SloSamplingChecker

from tests.analysis.conftest import codes

CHECKER = [SloSamplingChecker()]


def test_slo_missing_window_and_budget(analyze):
    result = analyze({
        "mod.py": """\
    from repro.observability.slo import SLO

    VAGUE = SLO("x", service="Job", method="submit")
        """
    }, checkers=CHECKER)
    assert codes(result) == ["REP702"]
    finding = result.findings[0]
    assert "window=" in finding.message and "budget=" in finding.message


def test_slo_missing_only_budget(analyze):
    result = analyze({
        "mod.py": """\
    from repro.observability.slo import SLO

    HALF = SLO("x", service="Job", method="submit", window=12.0)
        """
    }, checkers=CHECKER)
    assert codes(result) == ["REP702"]
    message = result.findings[0].message
    assert "omits budget=" in message
    assert "window=" not in message


def test_fully_declared_slo_is_clean(analyze):
    result = analyze({
        "mod.py": """\
    from repro.observability.slo import SLO

    FULL = SLO("x", service="Job", method="submit",
               objective="availability", window=12.0, budget=0.1)
        """
    }, checkers=CHECKER)
    assert codes(result) == []


def test_attribute_form_slo_call_is_checked(analyze):
    result = analyze({
        "mod.py": """\
    from repro.observability import slo

    VAGUE = slo.SLO("x", service="Job", method="submit")
        """
    }, checkers=CHECKER)
    assert codes(result) == ["REP702"]


def test_double_splat_is_given_the_benefit_of_the_doubt(analyze):
    # **kwargs may carry window/budget; the dataclass still enforces at
    # runtime, so the lint stays quiet rather than guessing
    result = analyze({
        "mod.py": """\
    from repro.observability.slo import SLO

    def build(**kwargs):
        return SLO("x", service="Job", method="submit", **kwargs)
        """
    }, checkers=CHECKER)
    assert codes(result) == []
