"""Framework behaviour: fingerprints, suppressions, parse errors."""

from pathlib import Path

from repro.analysis.core import (
    Finding,
    Severity,
    SourceModule,
    all_checkers,
    get_checker,
    parse_suppressions,
)

from tests.analysis.conftest import codes


def _finding(line: int, message: str = "m") -> Finding:
    return Finding(
        code="REP101",
        message=message,
        path="pkg/mod.py",
        line=line,
        col=0,
        severity=Severity.ERROR,
        checker="determinism",
    )


def test_fingerprint_is_line_independent():
    assert _finding(3).fingerprint() == _finding(300).fingerprint()


def test_fingerprint_distinguishes_message_and_path():
    assert _finding(3, "a").fingerprint() != _finding(3, "b").fingerprint()
    other = Finding(
        code="REP101", message="m", path="pkg/other.py", line=3, col=0,
        severity=Severity.ERROR, checker="determinism",
    )
    assert _finding(3).fingerprint() != other.fingerprint()


def test_parse_suppressions_blanket_and_codes():
    text = (
        "x = 1  # repro: ignore\n"
        "y = 2  # repro: ignore[REP101]\n"
        "z = 3  # repro: ignore[REP101, REP104] - justification prose\n"
        "plain = 4  # ordinary comment\n"
    )
    sup = parse_suppressions(text)
    assert sup == {1: set(), 2: {"REP101"}, 3: {"REP101", "REP104"}}


def test_suppression_in_string_or_docstring_is_prose():
    text = (
        '"""Docs mention repro: ignore[REP101] without meaning it."""\n'
        'MARKER = "# repro: ignore[REP104]"\n'
    )
    assert parse_suppressions(text) == {}


def test_suppression_drops_finding_on_same_line_only(analyze):
    result = analyze({
        "mod.py": """\
            import time


            def a():
                return time.time()  # repro: ignore[REP101]


            def b():
                return time.time()
        """
    })
    assert codes(result) == ["REP101"]
    assert result.findings[0].line == 9
    assert [f.code for f in result.suppressed] == ["REP101"]


def test_blanket_suppression_covers_any_code(analyze):
    result = analyze({
        "mod.py": """\
            import time


            def a():
                return time.time()  # repro: ignore
        """
    })
    assert codes(result) == []
    assert len(result.suppressed) == 1


def test_unused_suppression_is_rep001_warning(analyze):
    result = analyze({
        "mod.py": """\
            def a():
                return 1  # repro: ignore[REP104]
        """
    })
    assert codes(result) == ["REP001"]
    assert result.findings[0].severity == Severity.WARNING


def test_unparseable_file_is_rep002(analyze):
    result = analyze({"broken.py": "def broken(:\n"})
    assert codes(result) == ["REP002"]


def test_select_and_ignore_filter_codes(analyze):
    sources = {
        "mod.py": """\
            import time
            from datetime import datetime


            def a():
                return time.time(), datetime.now()
        """
    }
    only_time = analyze(sources, select={"REP101"})
    assert codes(only_time) == ["REP101"]
    no_time = analyze(sources, ignore={"REP101"})
    assert codes(no_time) == ["REP102"]


def test_registry_exposes_all_nine_checkers():
    names = [c.name for c in all_checkers()]
    assert names == [
        "determinism", "faults", "contracts", "headers", "hygiene",
        "simtest", "slo", "workflow", "propagation",
    ]
    assert get_checker("faults").codes.keys() == {"REP202", "REP203"}
    assert get_checker("propagation").codes.keys() == {
        "REP901", "REP902", "REP903", "REP904",
    }


def test_module_name_derivation():
    mod = SourceModule.from_text("x = 1\n", Path("/r/src/repro/headers.py"),
                                 "src/repro/headers.py")
    assert mod.module_name == "repro.headers"
