"""CI ratchet for the committed benchmark baselines.

Compares a fresh ``BENCH_*.json`` against the committed baseline and fails
(exit 1) when the figure that benchmark guards regressed more than its
tolerance.  The ``"benchmark"`` field of the files picks the comparison.
Absolute timings differ machine to machine (a CI runner is not the machine
that committed the baseline), so no compared figure is a raw wall-clock
time:

- ``o1_tracing_overhead``: what tracing adds to a call, traced and
  tail-sampled, in *host-scaled* microseconds (wall-clock time scaled by a
  calibration loop timed beside it, so it reads as time on a reference
  host).  Tracing's own cost is what the hot-path work guards; a ratio to
  the untraced call would read every cheaper untraced call as a tracing
  regression.
- ``a1_analysis_speed``: ``cold_over_parse`` — analysis seconds per
  second of loading the same tree — since the checkers must stay cheap
  next to parsing.  The report's own ``max_cold_over_parse`` is a hard
  ceiling.

Usage::

    python benchmarks/ratchet.py BASELINE.json CURRENT.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: a regression is a tracing overhead more than 15% over baseline
OVERHEAD_TOLERANCE = 1.15

#: a regression is an analysis-to-loading ratio more than 25% over baseline
ANALYSIS_TOLERANCE = 1.25


def overheads(report: dict) -> dict[str, float]:
    """Host-scaled microseconds tracing adds to a call, per mode."""
    return {
        "traced": report["overhead_us_per_call"],
        "sampled": report["sampled_overhead_us_per_call"],
    }


def tracing_overhead(baseline: dict, current: dict) -> tuple[list[str], str]:
    """(regression messages, verdict when none) for the o1 benchmark."""
    base = overheads(baseline)
    cur = overheads(current)
    failures = []
    for mode in sorted(base):
        if base[mode] <= 0:  # degenerate baseline: nothing to ratchet against
            continue
        if cur[mode] > base[mode] * OVERHEAD_TOLERANCE:
            failures.append(
                f"{mode} tracing overhead regressed: {cur[mode]:.1f} us per "
                f"call vs {base[mode]:.1f} us at baseline "
                f"(tolerance {OVERHEAD_TOLERANCE:g}x)"
            )
    holds = (
        f"traced {cur['traced']:.1f} us, sampled {cur['sampled']:.1f} us per "
        f"call (tolerance {OVERHEAD_TOLERANCE:g}x vs baseline)"
    )
    return failures, holds


def analysis_speed(baseline: dict, current: dict) -> tuple[list[str], str]:
    """(regression messages, verdict when none) for the a1 benchmark."""
    base = baseline["cold_over_parse"]
    cur = current["cold_over_parse"]
    failures = []
    if base > 0 and cur > base * ANALYSIS_TOLERANCE:
        failures.append(
            f"analysis regressed: {cur:.2f}x the loading time vs {base:.2f}x "
            f"at baseline (tolerance {ANALYSIS_TOLERANCE:g}x)"
        )
    ceiling = current.get("max_cold_over_parse", float("inf"))
    if cur > ceiling:
        failures.append(
            f"analysis takes {cur:.2f}x the loading time, over the hard "
            f"ceiling {ceiling:g}x"
        )
    holds = (
        f"analysis {cur:.2f}x the loading time (baseline {base:.2f}x, "
        f"tolerance {ANALYSIS_TOLERANCE:g}x)"
    )
    return failures, holds


#: the ``"benchmark"`` field -> its comparison
RATCHETS = {
    "o1_tracing_overhead": tracing_overhead,
    "a1_analysis_speed": analysis_speed,
}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    current = json.loads(Path(argv[2]).read_text(encoding="utf-8"))
    name = current.get("benchmark")
    if name not in RATCHETS or baseline.get("benchmark") != name:
        print(
            f"no ratchet compares baseline {baseline.get('benchmark')!r} "
            f"with current {name!r}; known: {', '.join(sorted(RATCHETS))}",
            file=sys.stderr,
        )
        return 2
    failures, holds = RATCHETS[name](baseline, current)
    for line in failures:
        print(f"RATCHET FAIL: {line}", file=sys.stderr)
    if not failures:
        print(f"ratchet holds: {holds}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
