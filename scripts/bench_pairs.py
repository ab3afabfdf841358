"""Benchmark two checkouts in alternating pairs and compare their end-to-end metrics.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload NAME --seeds FIRST LAST

PARENT and CHANGE are source checkouts. For each seed S from FIRST to LAST,
the benchmark command of CHANGE/BENCHMARK.json runs once from the root of
each checkout as ``COMMAND --workload NAME --seed S --seconds RUN_SECONDS
--trace 0``. The parent runs first on even seeds and the change on odd
ones, so a drift of the host does not favour one side. RUN_SECONDS and the
end-to-end metrics, each with its ``better`` direction and its relative
``bound``, are read from CHANGE/BENCHMARK.json. As each run finishes, one
line on stderr gives its seed, its side and its end-to-end values, such as
``seed 90 parent wall_s=3.4 ... peak_rss_mb=55.1``, so a metric that
jumps between two levels shows in the runs and not only in the medians.

Prints one row per end-to-end metric: the two medians, the parent's
interquartile range (``statistics.quantiles``, method "inclusive"), and how
many pairs the change won and lost, a tie counting for neither. The row
ends in "worse beyond bound" when the change's median is worse than the
parent's by more than the bound times the parent's median, and in "gain"
when the change won at least nine tenths of the pairs and its median is
better than the parent's by more than the parent's interquartile range:
the rule a claimed gain is held to. Exits 1 as soon
as a run's last line is not a result, or a run is not correct or failed
any evaluation, and 0 otherwise. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


class RunFailed(Exception):
    """A benchmark run gave no usable result."""


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds) -> dict:
    """The end-to-end metric values of one benchmark run in `checkout`."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    where = f"{checkout} seed {seed}"
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    except (IndexError, ValueError, TypeError, KeyError):
        raise RunFailed(f"{where}: the last line is not a result (exit {proc.returncode}): {proc.stderr.strip()}") from None
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(f"{where}: correct {result.get('correct')}, failed {result.get('failed')} evaluations")
    return metrics


def summary_row(metric: dict, parent: list[float], change: list[float]) -> str:
    """Medians, the parent's IQR, the pairs won and lost, and whether the change is worse beyond the bound or a gain."""
    sign = 1 if metric["better"] == "lower" else -1  # sign * (change - parent) > 0: the change is worse
    worse = [sign * (c - p) for p, c in zip(parent, change)]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, method="inclusive") if len(parent) > 1 else (p_med,) * 3
    won, shift = sum(w < 0 for w in worse), sign * (c_med - p_med)
    row = f"{metric['name']} parent {p_med!r} change {c_med!r} parent_iqr {q3 - q1!r} won {won} lost {sum(w > 0 for w in worse)}"
    if shift > metric["bound"] * abs(p_med):
        return row + " worse beyond bound"
    return row + (" gain" if 10 * won >= 9 * len(worse) and -shift > q3 - q1 else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    first, last = args.seeds
    if last < first:
        parser.error(f"--seeds {first} {last}: LAST is below FIRST")
    values = {"parent": [], "change": []}
    try:
        for seed in range(first, last + 1):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(getattr(args, side), bench["command"], args.workload, seed, bench["run_seconds"])
                values[side].append(run)
                shown = " ".join(f"{metric['name']}={run[metric['name']]!r}" for metric in bench["end_to_end"])
                print(f"seed {seed} {side} {shown}", file=sys.stderr, flush=True)
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} pairs {last - first + 1} seeds {first}-{last}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        print(summary_row(metric, [run[name] for run in values["parent"]], [run[name] for run in values["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
