"""The ``python -m repro.simtest`` command line."""

import json

from repro.simtest.__main__ import main
from repro.simtest.explorer import REPORT_SCHEMA


def test_single_seed_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--seed", "0", "--quiet", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == REPORT_SCHEMA
    assert report["verdict"] == "pass"
    assert report["seeds"] == 1
    assert report["results"][0]["seed"] == "0"


def test_report_is_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["--seed", "4", "--quiet", "--out", str(a)]) == 0
    assert main(["--seed", "4", "--quiet", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_failing_canary_exits_nonzero_and_writes_artifacts(tmp_path):
    out = tmp_path / "report.json"
    artifacts = tmp_path / "artifacts"
    code = main([
        "--seed", "1", "--canary", "ack-before-fsync", "--quiet",
        "--out", str(out), "--artifacts", str(artifacts),
    ])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "fail"
    shrunk_files = sorted(artifacts.glob("seed-*-shrunk.json"))
    assert shrunk_files
    shrunk = json.loads(shrunk_files[0].read_text())
    assert shrunk["schema"] == "repro.simtest.schedule/v1"
    assert len(shrunk["events"]) <= 5


def test_schedule_replay_round_trips_through_the_cli(tmp_path):
    # fail once to get a shrunk schedule, then replay it explicitly
    artifacts = tmp_path / "artifacts"
    main([
        "--seed", "1", "--canary", "ack-before-fsync", "--quiet",
        "--out", str(tmp_path / "first.json"), "--artifacts", str(artifacts),
    ])
    shrunk_file = sorted(artifacts.glob("seed-*-shrunk.json"))[0]
    out = tmp_path / "replay.json"
    code = main([
        "--seed", "1", "--canary", "ack-before-fsync", "--quiet",
        "--schedule", str(shrunk_file), "--out", str(out),
    ])
    assert code == 1  # the minimal schedule still reproduces the violation
    report = json.loads(out.read_text())
    assert report["results"][0]["verdict"] == "fail"


def test_schedule_flag_requires_exactly_one_seed(tmp_path, capsys):
    schedule = tmp_path / "s.json"
    schedule.write_text('{"schema": "repro.simtest.schedule/v1", "events": []}')
    code = main([
        "--seed", "1", "--seed", "2", "--schedule", str(schedule), "--quiet",
    ])
    assert code == 2


def _replay(tmp_path, capsys, document: str):
    """Replay *document* as a schedule file: (exit status, stderr lines)."""
    schedule = tmp_path / "schedule.json"
    schedule.write_text(document)
    code = main(["--seed", "1", "--schedule", str(schedule), "--quiet"])
    lines = capsys.readouterr().err.splitlines()
    return code, lines, str(schedule)


def _document(*events: dict, schema: str = "repro.simtest.schedule/v1") -> str:
    return json.dumps({"schema": schema, "seed": "1", "events": list(events)})


def test_crash_event_without_its_outage_is_a_usage_error(tmp_path, capsys):
    event = {"t": 2.0, "id": 1, "kind": "crash",
             "args": {"host": "globusrun.sdsc.edu"}}
    code, lines, path = _replay(tmp_path, capsys, _document(event))
    assert code == 2
    assert len(lines) == 1
    assert lines[0].startswith(path + ": ")
    assert "t=2 #1 crash host=globusrun.sdsc.edu" in lines[0]
    assert "outage" in lines[0]


def test_latency_spike_without_a_duration_is_a_usage_error(tmp_path, capsys):
    # the form spikes had before they gained a duration
    event = {"t": 3.0, "id": 4, "kind": "latency-spike",
             "args": {"host": "globusrun.sdsc.edu", "magnitude": 1.5}}
    code, lines, path = _replay(tmp_path, capsys, _document(event))
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(path + ": ")
    assert "#4 latency-spike" in lines[0] and "duration" in lines[0]


def test_unknown_event_kind_is_a_usage_error(tmp_path, capsys):
    event = {"t": 1.0, "id": 2, "kind": "meteor", "args": {}}
    code, lines, path = _replay(tmp_path, capsys, _document(event))
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(path + ": ")
    assert "#2 meteor" in lines[0] and "unknown kind" in lines[0]


def test_wrong_schema_is_a_usage_error(tmp_path, capsys):
    code, lines, path = _replay(
        tmp_path, capsys, _document(schema="repro.simtest.schedule/v0"))
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(path + ": ")
    assert "repro.simtest.schedule/v0" in lines[0]


def test_schedule_that_is_not_json_is_a_usage_error(tmp_path, capsys):
    code, lines, path = _replay(tmp_path, capsys, '{"schema": ')
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(path + ": not JSON")


def test_event_without_its_time_is_a_usage_error(tmp_path, capsys):
    event = {"id": 3, "kind": "clock-stall", "args": {"seconds": 1.0}}
    code, lines, path = _replay(tmp_path, capsys, _document(event))
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(path + ": event 0")
