"""The ``python -m repro.analysis`` command line, end to end."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cli import main
from repro.analysis.reporting import exit_code_for, render_json
from repro.analysis.runner import analyze_paths

HERE = Path(__file__).parent
REPO_ROOT = HERE.parents[1]

#: every code the demo fixture package seeds (REP002 is exercised on a
#: temp file: a committed syntax error would break linting of the tests)
FIXTURE_CODES = {
    "REP001", "REP101", "REP102", "REP103", "REP104",
    "REP202", "REP203",
    "REP301", "REP302", "REP303",
    "REP401", "REP402", "REP403",
    "REP501", "REP502",
    "REP601",
    "REP702",
    "REP801", "REP802",
    "REP901", "REP902", "REP903", "REP904",
}


@pytest.fixture
def in_fixture_dir(monkeypatch):
    monkeypatch.chdir(HERE)


def _report(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


def test_fixture_package_trips_every_checker(in_fixture_dir, capsys):
    code = main(["fixtures/demo", "--format", "json"])
    report = _report(capsys)
    assert code == 1
    assert report["exit_code"] == 1
    assert report["schema"] == "repro.analysis.report/v2"
    assert {f["code"] for f in report["findings"]} == FIXTURE_CODES
    assert report["counts"]["new"] == len(report["findings"])
    assert report["counts"]["suppressed"] == 1  # the earned REP101 suppression


def test_rep002_on_unparseable_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
    code = main(["broken.py", "--format", "json"])
    report = _report(capsys)
    assert code == 1
    assert [f["code"] for f in report["findings"]] == ["REP002"]


def test_select_and_ignore(in_fixture_dir, capsys):
    main(["fixtures/demo", "--format", "json",
          "--select", "REP901"])
    report = _report(capsys)
    assert {f["code"] for f in report["findings"]} == {"REP901"}

    main(["fixtures/demo", "--format", "json",
          "--ignore", "REP901,REP202,REP203"])
    report = _report(capsys)
    assert not {"REP901", "REP202", "REP203"} & {
        f["code"] for f in report["findings"]
    }


def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["no/such/path"]) == 2
    assert main([]) == 2  # no paths, and no ./src/repro to default to
    capsys.readouterr()


def test_output_writes_json_artifact(in_fixture_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["fixtures/demo", "--format", "json",
          "--output", str(out)])
    on_disk = json.loads(out.read_text(encoding="utf-8"))
    assert on_disk == _report(capsys)


def test_golden_report_shape(in_fixture_dir, capsys):
    """The JSON artifact matches the committed golden report exactly."""
    main(["fixtures/demo", "--format", "json"])
    report = _report(capsys)
    golden = json.loads(
        (HERE / "golden_report.json").read_text(encoding="utf-8")
    )
    assert report == golden


DEMO_DIR = HERE / "fixtures" / "demo"
DEMO_FILES = sorted(p.name for p in DEMO_DIR.glob("*.py"))


def _rendered(names) -> str:
    result = analyze_paths([DEMO_DIR / name for name in names], root=HERE)
    return render_json(result, paths=list(names), exit_code=exit_code_for(result))


@pytest.fixture(scope="module")
def demo_reference() -> str:
    return _rendered(DEMO_FILES)


@settings(max_examples=12, deadline=None)
@given(order=st.permutations(DEMO_FILES))
def test_report_is_a_pure_function_of_the_tree(demo_reference, order):
    """The rendered JSON report is a function of the analyzed tree, not
    of the order its files were named in."""
    assert _rendered(order) == demo_reference


def test_self_host_src_repro_is_clean(monkeypatch, capsys):
    """The analyzer passes over the tree that ships it; the only waivers
    are justified inline suppressions."""
    monkeypatch.chdir(REPO_ROOT)
    code = main(["src/repro", "--format", "json"])
    report = _report(capsys)
    assert code == 0, [f["summary"] if "summary" in f else f
                       for f in report["findings"]]
    assert report["findings"] == []
