"""The ``python -m repro.analysis`` command line, end to end."""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

HERE = Path(__file__).parent
REPO_ROOT = HERE.parents[1]

#: every code the demo fixture package seeds (REP002 is exercised on a
#: temp file: a committed syntax error would break linting of the tests)
FIXTURE_CODES = {
    "REP001", "REP101", "REP102", "REP103", "REP104",
    "REP201", "REP202", "REP203",
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
    code = main(["fixtures/demo", "--no-baseline", "--format", "json"])
    report = _report(capsys)
    assert code == 1
    assert report["exit_code"] == 1
    assert report["schema"] == "repro.analysis.report/v1"
    assert {f["code"] for f in report["findings"]} == FIXTURE_CODES
    assert report["counts"]["new"] == len(report["findings"])
    assert report["counts"]["suppressed"] == 1  # the earned REP101 suppression


def test_write_baseline_then_clean_run(in_fixture_dir, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(["fixtures/demo", "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    assert baseline.exists()

    code = main(["fixtures/demo", "--baseline", str(baseline),
                 "--format", "json"])
    report = _report(capsys)
    assert code == 0
    assert report["findings"] == []
    # +8: codes the fixture seeds more than once (three REP101 incl. the
    # oracle's wall clock and the pipeline helper's own, four REP103 incl.
    # the oracle's and the sampling policy's draws, two each of REP201,
    # REP601 and REP903)
    assert report["counts"]["baselined"] == len(FIXTURE_CODES) + 8


def test_ratchet_reports_stale_and_shrinks(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "a.py").write_text(
        "import time\n\n\ndef f():\n    return time.time()\n",
        encoding="utf-8",
    )
    (src / "b.py").write_text(
        "from datetime import datetime\n\n\ndef g():\n"
        "    return datetime.now()\n",
        encoding="utf-8",
    )
    assert main(["pkg", "--write-baseline"]) == 0
    assert main(["pkg"]) == 0

    # fix one violation: its baseline entry goes stale, the build stays green
    (src / "b.py").write_text("def g():\n    return 0\n", encoding="utf-8")
    capsys.readouterr()  # drop the text output of the runs above
    code = main(["pkg", "--format", "json"])
    report = _report(capsys)
    assert code == 0
    assert report["counts"]["stale_baseline"] == 1
    assert report["baseline"]["stale"][0]["code"] == "REP102"

    # the ratchet: rewriting drops the fixed entry
    assert main(["pkg", "--write-baseline"]) == 0
    entries = json.loads(
        (tmp_path / "analysis-baseline.json").read_text(encoding="utf-8")
    )["entries"]
    assert [e["code"] for e in entries] == ["REP101"]

    # a brand-new violation still fails
    (src / "b.py").write_text(
        "import time\n\n\ndef g():\n    return time.sleep(1)\n",
        encoding="utf-8",
    )
    assert main(["pkg"]) == 1


def test_rep002_on_unparseable_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
    code = main(["broken.py", "--no-baseline", "--format", "json"])
    report = _report(capsys)
    assert code == 1
    assert [f["code"] for f in report["findings"]] == ["REP002"]


def test_select_and_ignore(in_fixture_dir, capsys):
    main(["fixtures/demo", "--no-baseline", "--format", "json",
          "--select", "REP201"])
    report = _report(capsys)
    assert {f["code"] for f in report["findings"]} == {"REP201"}

    main(["fixtures/demo", "--no-baseline", "--format", "json",
          "--ignore", "REP201,REP202,REP203"])
    report = _report(capsys)
    assert not {"REP201", "REP202", "REP203"} & {
        f["code"] for f in report["findings"]
    }


def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["no/such/path"]) == 2
    assert main([".", "--baseline", "absent.json"]) == 2
    capsys.readouterr()


def test_output_writes_json_artifact(in_fixture_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["fixtures/demo", "--no-baseline", "--format", "json",
          "--output", str(out)])
    on_disk = json.loads(out.read_text(encoding="utf-8"))
    assert on_disk == _report(capsys)


def test_golden_report_shape(in_fixture_dir, capsys):
    """The JSON artifact matches the committed golden report exactly."""
    main(["fixtures/demo", "--no-baseline", "--format", "json"])
    report = _report(capsys)
    golden = json.loads(
        (HERE / "golden_report.json").read_text(encoding="utf-8")
    )
    assert report == golden


def test_self_host_src_repro_is_clean(monkeypatch, capsys):
    """The analyzer passes over the tree that ships it (the committed
    baseline holds only justified exceptions, currently none)."""
    monkeypatch.chdir(REPO_ROOT)
    code = main(["src/repro", "--format", "json"])
    report = _report(capsys)
    assert code == 0, [f["summary"] if "summary" in f else f
                       for f in report["findings"]]
    assert report["findings"] == []
