"""Compare two run directories file by file.

    python scripts/compare_runs.py RUN_A RUN_B

Prints one "identical PATH" or "differs PATH" row per file of either run;
a file that only one run has differs. When ``trace.jsonl`` differs, one
indented row per event type follows it, counting the events that differ
among those of that type: events are paired by line, and an event without
a partner differs. ``manifest.json`` is compared without its
``started_utc`` and ``finished_utc`` stamps. Exits 0 when every file is
identical and 1 otherwise. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from itertools import zip_longest
from pathlib import Path

CLOCK_FIELDS = ("started_utc", "finished_utc")


def run_files(run: Path) -> set[str]:
    return {path.relative_to(run).as_posix() for path in run.rglob("*") if path.is_file()}


def manifest_without_clock(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    for field in CLOCK_FIELDS:
        manifest.pop(field, None)
    return manifest


def trace_rows(a: Path, b: Path) -> list[str]:
    """One row per event type: how many of its events differ, of how many in either trace."""
    seen, differ = Counter(), Counter()
    for line_a, line_b in zip_longest(a.read_text().splitlines(), b.read_text().splitlines()):
        kind = json.loads(line_a if line_a is not None else line_b).get("event", "?")
        seen[kind] += 1
        differ[kind] += line_a != line_b
    return [f"  {kind}: {differ[kind]} of {seen[kind]} events differ" for kind in sorted(seen)]


def compare(run_a: Path, run_b: Path) -> tuple[bool, list[str]]:
    """(whether the runs are identical, the report rows)."""
    files_a, files_b = run_files(run_a), run_files(run_b)
    rows, same_everywhere = [], True
    for name in sorted(files_a | files_b):
        a, b = run_a / name, run_b / name
        if name not in files_a or name not in files_b:
            same, where = False, f" (only in {run_a if name in files_a else run_b})"
        elif name == "manifest.json":
            same, where = manifest_without_clock(a) == manifest_without_clock(b), ""
        else:
            same, where = a.read_bytes() == b.read_bytes(), ""
        rows.append(f"{'identical' if same else 'differs'} {name}{where}")
        if not same and not where and name == "trace.jsonl":
            rows += trace_rows(a, b)
        same_everywhere &= same
    return same_everywhere, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two run directories file by file.")
    parser.add_argument("run_a", type=Path)
    parser.add_argument("run_b", type=Path)
    args = parser.parse_args(argv)
    for run in (args.run_a, args.run_b):
        if not run.is_dir():
            parser.error(f"{run} is not a directory")
    same, rows = compare(args.run_a, args.run_b)
    print("\n".join(rows))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
