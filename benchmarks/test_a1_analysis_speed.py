"""Experiment A1 — whole-program analysis speed, cold vs warm cache.

The analyzer's cost story has two regimes: a cold run pays for parsing,
graph construction, and every interprocedural fixpoint; a warm run over
an unchanged tree proves all per-file digests valid and reassembles the
report from ``.analysis-cache/`` without running a single checker.  This
benchmark measures both over the real ``src/repro`` tree, checks the
reports are byte-identical, and records cold µs/file, files/sec, and the
warm speedup in ``BENCH_analysis.json`` so cache regressions are
diffable across PRs (``benchmarks/ratchet.py`` fails CI on a regression).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.conftest import record_table
from repro.analysis.reporting import (
    exit_code_for,
    render_json,
    split_without_baseline,
)
from repro.analysis.runner import analyze_paths_cached

REPO_ROOT = Path(__file__).parent.parent
TREE = REPO_ROOT / "src" / "repro"

#: the cache's reason to exist: a warm full-tree pass must beat cold by
#: at least this factor
MIN_WARM_SPEEDUP = 3.0


def _timed_run(cache_dir: Path, **kwargs):
    start = time.perf_counter()
    result, stats = analyze_paths_cached(
        [TREE], root=REPO_ROOT, cache_dir=cache_dir, **kwargs
    )
    return result, stats, time.perf_counter() - start


def _rendered(result) -> str:
    split = split_without_baseline(result.findings)
    return render_json(
        result, split, None, paths=["src/repro"], exit_code=exit_code_for(split)
    )


def test_analysis_speed_cold_vs_warm(tmp_path):
    cache_dir = tmp_path / "analysis-cache"

    cold_result, cold_stats, cold_s = _timed_run(cache_dir)
    assert cold_stats.misses == cold_result.files_scanned
    assert cold_stats.wrote

    warm_result, warm_stats, warm_s = _timed_run(cache_dir)
    assert warm_stats.fast_path
    assert warm_stats.hits == warm_result.files_scanned

    # the cache must never change what the analyzer reports
    assert _rendered(warm_result) == _rendered(cold_result)

    files = cold_result.files_scanned
    speedup = cold_s / warm_s
    verdict = {
        "files": files,
        "findings": len(cold_result.findings),
        "cold_s": round(cold_s, 4),
        "cold_us_per_file": round(cold_s / files * 1e6, 1),
        "cold_files_per_s": round(files / cold_s, 2),
        "warm_s": round(warm_s, 4),
        "warm_us_per_file": round(warm_s / files * 1e6, 1),
        "warm_files_per_s": round(files / warm_s, 2),
        "warm_speedup": round(speedup, 2),
    }
    assert speedup >= MIN_WARM_SPEEDUP, verdict

    record_table(
        "A1  whole-program analysis: cold vs warm cache (src/repro)",
        ["files", "cold s", "cold µs/file", "warm s", "warm µs/file", "speedup"],
        [[files, verdict["cold_s"], verdict["cold_us_per_file"],
          verdict["warm_s"], verdict["warm_us_per_file"],
          verdict["warm_speedup"]]],
    )

    out = REPO_ROOT / "BENCH_analysis.json"
    out.write_text(json.dumps({
        "benchmark": "a1_analysis_speed",
        "tree": "src/repro",
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        **verdict,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
