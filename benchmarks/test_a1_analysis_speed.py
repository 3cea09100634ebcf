"""Experiment A1 — whole-program analysis speed, measured against parsing.

The analyzer has one run mode: load every file (read it, parse it, and
tokenize the few that carry a suppression marker), then run every
checker over the loaded modules, each of which walks its module's tree
once into the index every checker and graph builder queries.  This
benchmark times the two halves over the real ``src/repro`` tree in one
process, interleaved, best of three each, and records
``cold_over_parse``: analysis seconds per loading second.  The ratio
travels between machines, because a slower host slows both halves
alike; ``benchmarks/ratchet.py`` fails CI when it regresses against the
committed ``BENCH_analysis.json``.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from pathlib import Path

from benchmarks.conftest import record_table
from repro.analysis.runner import analyze_sources, load_modules

REPO_ROOT = Path(__file__).parent.parent
TREE = REPO_ROOT / "src" / "repro"

#: the command that writes ``BENCH_analysis.json`` (run from the repo root)
COMMAND = (
    "PYTHONPATH=src python -m pytest -q --benchmark-disable "
    "benchmarks/test_a1_analysis_speed.py"
)

#: analysis may cost at most this many loading times.  Checkers that
#: re-walk each module's tree (about 18 whole-module walks per module)
#: read ~7 here; one indexed walk per module reads ~2.
MAX_COLD_OVER_PARSE = 4.0

RUNS = 3


def test_analysis_speed_cold_over_parse():
    parse_times: list[float] = []
    cold_times: list[float] = []
    reports: set[str] = set()
    for _ in range(RUNS):
        # each half starts from a collected heap, so neither pays for
        # collecting what an earlier run left behind
        gc.collect()
        start = time.perf_counter()
        modules = load_modules([TREE], root=REPO_ROOT)
        parse_times.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        result = analyze_sources(modules)
        cold_times.append(time.perf_counter() - start)
        reports.add(
            json.dumps([f.to_dict() for f in result.findings + result.suppressed])
        )
        files, findings = result.files_scanned, len(result.findings)
        del modules, result

    # every run finds the same: the findings are a function of the tree
    assert len(reports) == 1

    parse_s, cold_s = min(parse_times), min(cold_times)
    verdict = {
        "files": files,
        "findings": findings,
        "parse_s": round(parse_s, 4),
        "cold_s": round(cold_s, 4),
        "cold_us_per_file": round(cold_s / files * 1e6, 1),
        "cold_over_parse": round(cold_s / parse_s, 3),
    }
    assert verdict["cold_over_parse"] <= MAX_COLD_OVER_PARSE, verdict

    record_table(
        "A1  whole-program analysis against loading (src/repro, best of 3)",
        ["files", "parse s", "cold s", "cold µs/file", "cold/parse"],
        [[files, verdict["parse_s"], verdict["cold_s"],
          verdict["cold_us_per_file"], verdict["cold_over_parse"]]],
    )

    out = REPO_ROOT / "BENCH_analysis.json"
    out.write_text(json.dumps({
        "benchmark": "a1_analysis_speed",
        "tree": "src/repro",
        "command": COMMAND,
        "python": platform.python_version(),
        "max_cold_over_parse": MAX_COLD_OVER_PARSE,
        **verdict,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
