"""The ``python -m repro.analysis`` command line."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.core import all_checkers
from repro.analysis.reporting import (
    exit_code_for,
    list_checkers_text,
    render_json,
    render_text,
)
from repro.analysis.runner import analyze_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Contract and determinism linter for the portal reproduction: "
            "checks the invariants that keep independently implemented "
            "services interoperable."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json emits the repro.analysis.report artifact)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the JSON report to FILE, whatever --format says",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated finding codes to keep (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated finding codes to drop",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="print the checker catalog and exit",
    )
    return parser


def _codes(raw: str | None) -> set[str] | None:
    if not raw:
        return None
    return {code.strip() for code in raw.split(",") if code.strip()}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_checkers:
        print(list_checkers_text(all_checkers()))
        return 0

    paths = [Path(p) for p in args.paths]
    if not paths:
        default = Path("src/repro")
        if not default.is_dir():
            print(
                "error: no paths given and ./src/repro does not exist",
                file=sys.stderr,
            )
            return 2
        paths = [default]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: path(s) do not exist: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    result = analyze_paths(
        paths, select=_codes(args.select), ignore=_codes(args.ignore)
    )
    code = exit_code_for(result)
    as_json = render_json(
        result, paths=[str(p) for p in paths], exit_code=code
    )
    sys.stdout.write(as_json if args.format == "json" else render_text(result) + "\n")
    if args.output:
        Path(args.output).write_text(as_json, encoding="utf-8")
    return code
