"""``benchmarks/ratchet.py``: one CI ratchet for the committed baselines.

The ``"benchmark"`` field picks the comparison.  Each case pins the
verdict, the message and the exit code on either side of a tolerance.
"""

import json
from pathlib import Path

import pytest

from benchmarks.ratchet import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def _o1(traced: float, sampled: float) -> dict:
    """A tracing-overhead report: what tracing adds to a call, in us."""
    return {
        "benchmark": "o1_tracing_overhead",
        "overhead_us_per_call": traced,
        "sampled_overhead_us_per_call": sampled,
    }


def _a1(ratio: float, ceiling: float = 4.0) -> dict:
    return {
        "benchmark": "a1_analysis_speed",
        "cold_over_parse": ratio,
        "max_cold_over_parse": ceiling,
    }


@pytest.fixture
def ratchet(tmp_path, capsys):
    """ratchet(baseline, current) -> (exit code, stdout, stderr)."""

    def run(baseline: dict, current: dict):
        paths = []
        for name, report in (("base.json", baseline), ("cur.json", current)):
            path = tmp_path / name
            path.write_text(json.dumps(report), encoding="utf-8")
            paths.append(str(path))
        code = main(["ratchet.py", *paths])
        out, err = capsys.readouterr()
        return code, out, err

    return run


@pytest.mark.parametrize(
    "committed", ["BENCH_observability.json", "BENCH_analysis.json"]
)
def test_committed_baseline_holds_against_itself(committed, ratchet):
    report = json.loads((REPO_ROOT / committed).read_text(encoding="utf-8"))
    code, out, err = ratchet(report, report)
    assert (code, err) == (0, "")
    assert out.startswith("ratchet holds: ")


def test_tracing_overhead_just_inside_tolerance(ratchet):
    assert ratchet(_o1(10.0, 20.0), _o1(11.4, 22.8)) == (
        0,
        "ratchet holds: traced 11.4 us, sampled 22.8 us per call "
        "(tolerance 1.15x vs baseline)\n",
        "",
    )


def test_tracing_overhead_just_outside_tolerance(ratchet):
    assert ratchet(_o1(10.0, 20.0), _o1(11.6, 23.2)) == (
        1,
        "",
        "RATCHET FAIL: sampled tracing overhead regressed: 23.2 us per "
        "call vs 20.0 us at baseline (tolerance 1.15x)\n"
        "RATCHET FAIL: traced tracing overhead regressed: 11.6 us per "
        "call vs 10.0 us at baseline (tolerance 1.15x)\n",
    )


def test_zero_overhead_baseline_is_not_ratcheted(ratchet):
    code, _out, err = ratchet(_o1(0.0, 20.0), _o1(50.0, 20.0))
    assert (code, err) == (0, "")


def test_analysis_speedup_just_inside_tolerance(ratchet):
    assert ratchet(_a1(2.0), _a1(2.5)) == (
        0,
        "ratchet holds: analysis 2.50x the loading time (baseline 2.00x, "
        "tolerance 1.25x)\n",
        "",
    )


def test_analysis_speedup_just_outside_tolerance(ratchet):
    assert ratchet(_a1(2.0), _a1(2.55)) == (
        1,
        "",
        "RATCHET FAIL: analysis regressed: 2.55x the loading time vs 2.00x "
        "at baseline (tolerance 1.25x)\n",
    )


def test_analysis_speedup_floor(ratchet):
    """The speed floor is a ceiling on analysis time per loading time."""
    assert ratchet(_a1(3.5), _a1(4.0))[0] == 0  # on the ceiling holds
    assert ratchet(_a1(3.5), _a1(4.05)) == (
        1,
        "",
        "RATCHET FAIL: analysis takes 4.05x the loading time, over the hard "
        "ceiling 4x\n",
    )


def test_unknown_or_mismatched_benchmark_is_a_usage_error(ratchet):
    assert ratchet(_a1(4.0), _o1(1.0, 1.0))[0] == 2
    unknown = {"benchmark": "w1_workflow"}
    assert ratchet(unknown, unknown)[0] == 2


def test_wrong_argument_count_prints_usage(capsys):
    assert main(["ratchet.py", "only-one.json"]) == 2
    assert "Usage::" in capsys.readouterr().err
