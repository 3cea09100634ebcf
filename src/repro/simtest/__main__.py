"""``python -m repro.simtest`` — the seed-sweep command line.

Examples::

    python -m repro.simtest --seeds 200
    python -m repro.simtest --seed 17 --ticks 40
    python -m repro.simtest --seeds 50 --canary ack-before-fsync \\
        --out report.json --artifacts artifacts/
    python -m repro.simtest --seed 17 --schedule shrunk.json

Exit status 0 when every seed passed every oracle, 1 when an oracle fired,
2 on a usage error: a malformed command line, or a ``--schedule`` file
that cannot be read, is not JSON, or holds an event the run could not
apply (one line on stderr names the file and the event).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.simtest.explorer import report_json, sweep
from repro.simtest.harness import CANARIES, DEFAULT_TICKS, SimulationRun
from repro.simtest.nemesis import NemesisSchedule


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simtest",
        description=(
            "Deterministic simulation sweep: seeded nemesis schedules, "
            "system-wide invariant oracles, failing-seed shrinking."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=0, metavar="N",
        help="sweep seeds 0..N-1",
    )
    parser.add_argument(
        "--seed", action="append", default=[], metavar="S",
        help="run one specific seed (repeatable)",
    )
    parser.add_argument(
        "--ticks", type=int, default=DEFAULT_TICKS,
        help=f"virtual ticks per run (default {DEFAULT_TICKS})",
    )
    parser.add_argument(
        "--schedule", metavar="FILE",
        help="replay an explicit schedule JSON instead of generating one "
             "(requires exactly one --seed)",
    )
    parser.add_argument(
        "--canary", default="", choices=[""] + sorted(CANARIES),
        help="re-introduce a known bug class the oracles must catch",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging failing schedules",
    )
    parser.add_argument(
        "--max-probes", type=int, default=200,
        help="re-run budget per shrink (default 200)",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="write the report JSON here (default: stdout)",
    )
    parser.add_argument(
        "--artifacts", metavar="DIR",
        help="write each failing seed's shrunk schedule JSON into DIR",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-seed progress lines on stderr",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    seeds: list = list(args.seed)
    if args.seeds:
        seeds.extend(range(args.seeds))
    if not seeds:
        seeds = list(range(20))

    schedule = None
    if args.schedule:
        if len(seeds) != 1:
            print(
                "--schedule replays one run; give exactly one --seed",
                file=sys.stderr,
            )
            return 2
        try:
            schedule = NemesisSchedule.from_json(
                Path(args.schedule).read_text()
            )
        except (OSError, ValueError) as err:
            print(f"{args.schedule}: {err}", file=sys.stderr)
            return 2

    progress = None
    if not args.quiet:
        progress = lambda line: print(line, file=sys.stderr)  # noqa: E731

    if schedule is not None:
        result = SimulationRun(
            seeds[0], ticks=args.ticks, schedule=schedule,
            canary=args.canary,
        ).run()
        report = {
            "schema": "repro.simtest.report/v1",
            "ticks": args.ticks,
            "canary": args.canary,
            "seeds": 1,
            "failures": 0 if result.passed else 1,
            "verdict": "pass" if result.passed else "fail",
            "results": [result.to_dict()],
        }
    else:
        report = sweep(
            seeds,
            ticks=args.ticks,
            canary=args.canary,
            shrink=not args.no_shrink,
            max_probes=args.max_probes,
            progress=progress,
        )

    text = report_json(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)

    if args.artifacts:
        artifacts = Path(args.artifacts)
        artifacts.mkdir(parents=True, exist_ok=True)
        for entry in report["results"]:
            shrunk = entry.get("shrunk_schedule")
            if shrunk is not None:
                path = artifacts / f"seed-{entry['seed']}-shrunk.json"
                path.write_text(
                    json.dumps(shrunk, sort_keys=True, indent=2) + "\n"
                )

    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
