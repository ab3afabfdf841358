"""Run a fixed list of pnas commands in two checkouts and compare what they write.

    python3 scripts/compare_checkouts.py PARENT CHANGE

PARENT and CHANGE are source checkouts. Each command of COMMANDS runs as
``python -m pnas ARGS --out DIR`` from the root of each checkout, with
``PYTHONPATH=CHECKOUT/src`` and DIR a fresh temporary directory; a
``build``, which writes one file, gets ``--out DIR/graph.json``. A command
is "identical" when it exits 0 on both sides, prints the same stdout apart
from its ``out`` line, and leaves run directories that ``compare`` of
compare_runs.py finds identical. Prints one "identical CMD" or "differs
CMD" row per command, each difference followed by indented rows: the exit
codes and stderr tails, or a stdout note and compare's rows. Exits 0 when
every command is identical and 1 otherwise. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from compare_runs import compare  # noqa: E402

SEARCH_B5 = ["search", "-B", "5", "-K", "64", "--predictor", "mlp-ens", "--sigma", "0.01"]
HARNESS_LSTM = ["harness", "--predictors", "rnn,mlp-ens", "-K", "64", "-R", "1000", "-B", "5", "-T", "1", "--sigma", "0.01"]
# the worker path is relative to the checkout, so both manifests record the same argv
ECHO_WORKER = "python3 scripts/echo_worker.py --sigma 0.01"

COMMANDS = (
    *(SEARCH_B5 + ["--seed", str(seed)] for seed in range(4)),
    *(HARNESS_LSTM + ["--seed", str(seed)] for seed in range(2)),
    ["search", "-B", "3", "-K", "16", "--predictor", "rnn", "--seed", "0"],
    ["search", "-B", "3", "-K", "16", "--predictor", "rnn-ens", "--seed", "1"],
    # its level-3 refit trains on 1-, 2- and 3-block groups, so the LSTM's buffers grow mid-pass
    ["search", "-B", "4", "-K", "64", "--predictor", "rnn", "--seed", "2"],
    ["search", "-B", "4", "-K", "32", "--predictor", "mlp", "--seed", "0"],
    ["search", "-B", "5", "-K", "64", "--predictor", "perfect", "--seed", "0"],
    # the default search: the paper's beam, B=5 and K=256 with mlp-ens
    ["search", "--sigma", "0.01", "--seed", "0"],
    ["search", "--strategy", "random", "-B", "5", "--count", "100", "--evaluator", "external", "--worker-cmd", ECHO_WORKER, "--seed", "0"],
    # graphs under other plans than the searches' default: PNASNet-5 at N=3, F=48, and an ImageNet-style stem
    ["build", "--cell", "5|0,1,0,6;1,2,1,6;1,0,1,1;1,0,4,4;0,0,1,4", "-N", "3", "-F", "48"],
    ["build", "--cell", "3|0,1,0,4;1,7,2,6;2,4,3,3", "--hw", "224", "--stem", "conv3x3_stride2"],
    # stages at 36, 18 and 9: the only listed build whose last stage has an odd size
    ["build", "--cell", "3|0,1,0,4;1,7,2,6;2,4,3,3", "--hw", "36", "-N", "1"],
)


def run(checkout: Path, args: list[str], out: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    if args[0] == "build":  # so compare sees the graph in the run directory, not an empty run
        out.mkdir()
        out = out / "graph.json"
    argv = [sys.executable, "-m", "pnas", *args, "--out", str(out)]
    return subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, check=False)


def differences(parent: Path, change: Path, args: list[str], scratch: Path) -> list[str]:
    """Rows saying how the command's runs in the two checkouts differ; none when they are identical."""
    outs = {"parent": scratch / "parent", "change": scratch / "change"}
    procs = {side: run(checkout, args, outs[side]) for side, checkout in (("parent", parent), ("change", change))}
    failed = [f"  {side} exited {proc.returncode}: {proc.stderr.strip()[-300:]}" for side, proc in procs.items() if proc.returncode]
    if failed:
        return failed
    printed = [[line for line in proc.stdout.splitlines() if not line.startswith("out ")] for proc in procs.values()]
    same, rows = compare(outs["parent"], outs["change"])
    return (["  stdout differs"] if printed[0] != printed[1] else []) + ([] if same else ["  " + row for row in rows])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "src").is_dir():
            parser.error(f"{checkout} has no src directory")
    status = 0
    for command in COMMANDS:
        with tempfile.TemporaryDirectory(prefix="compare-checkouts-") as scratch:
            rows = differences(args.parent, args.change, command, Path(scratch))
        print(f"{'differs' if rows else 'identical'} pnas {shlex.join(command)}", *rows, sep="\n", flush=True)
        status |= bool(rows)
    return status


if __name__ == "__main__":
    sys.exit(main())
