#!/usr/bin/env python3
"""Benchmark of the `pnas` command: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload search-b5 --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout. Each round runs the user-facing
command (`python -m pnas ...`, with `src/` on PYTHONPATH) in a fresh child
process, timed from outside, and checks its outputs; rounds repeat until
`--seconds` have passed. With `--trace 1` a traced run of the same command
follows the untraced rounds and the per-layer metrics are reported instead
of the end-to-end ones. The last line of standard output is one JSON
object: correct, attempted, failed (model evaluations) and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402

BLAS_THREADS = 1  # at or below nproc; results also depend on it, so traced and untraced runs share it
SIGMA = 0.01
SETUP_PROBES = 7
CHILD_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("top25_acc", "accuracy"),
    ("rho_ext_mean", "rho"),
)


class Workload:
    """One `pnas` command line, the evaluations it requests, and its checks."""

    def __init__(self, name, argv, evaluations, check, quality, companion=None, captured_check=None):
        self.name = name
        self.argv = argv  # seed -> arguments after `python -m pnas`, without --out
        self.evaluations = evaluations
        self.check = check  # (out dir, seed) -> failures
        self.quality = quality  # (out dir, seed) -> (top25_acc, rho_ext_mean)
        self.companion = companion  # (bench, seed, last round's out dir) -> failures; once per run
        self.captured_check = captured_check  # (traced out dir, scored, spearman calls) -> failures


def _events(out):
    with open(os.path.join(out, "trace.jsonl"), "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _report(out):
    with open(os.path.join(out, "report.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# search-b5 ------------------------------------------------------------------
SEARCH_B, SEARCH_K = 5, 64
SEARCH_EVALS = sum(checks.budget(SEARCH_B, SEARCH_K))


def _search_argv(seed):
    return ["search", "-B", str(SEARCH_B), "-K", str(SEARCH_K), "--predictor", "mlp-ens", "--sigma", str(SIGMA), "--seed", str(seed)]


def _search_quality(out, seed):
    events = _events(out)
    return checks.top_mean(checks.eval_values(events)), checks.beam_rho(events, SEARCH_B)


def _search_companion(bench, seed, searched):
    out = bench.fresh_dir("random-baseline")
    argv = ["search", "--strategy", "random", "--count", str(SEARCH_EVALS), "-B", str(SEARCH_B), "--sigma", str(SIGMA), "--seed", str(seed)]
    bench.pnas(argv + ["--out", out])
    return checks.check_beats_random(_events(searched), _events(out))


# harness-lstm ---------------------------------------------------------------
HARNESS_KINDS, HARNESS_K, HARNESS_R, HARNESS_B, HARNESS_T = ("rnn", "mlp-ens"), 64, 1000, 5, 1


def _harness_argv(seed):
    return [
        "harness", "--predictors", ",".join(HARNESS_KINDS), "-K", str(HARNESS_K), "-R", str(HARNESS_R),
        "-B", str(HARNESS_B), "-T", str(HARNESS_T), "--sigma", str(SIGMA), "--seed", str(seed),
    ]  # fmt: skip


def _harness_quality(out, seed):
    report = _report(out)
    rhos = [v for values in report["extrapolate"].values() for v in values]
    pools = [checks.parse_key(key) for key in checks.one_block_keys()]
    for b in range(2, HARNESS_B + 1):
        pools += [checks.parse_key(key) for key in checks.harness_pool_keys(seed, b, HARNESS_R)]
    eval_seed = checks.derive_seed(seed, "eval")
    top = checks.top_mean([checks.oracle_noisy(cell, eval_seed, SIGMA) for cell in pools])
    return top, sum(rhos) / len(rhos)


def _harness_companion(bench, seed, harnessed):
    out = bench.fresh_dir("perfect")
    bench.pnas(["harness", "--perfect", "-T", "2", "-K", "8", "-R", "15", "-B", "2", "--seed", str(seed), "--out", out])
    return checks.check_perfect(_report(out))


# random-external ------------------------------------------------------------
RANDOM_B, RANDOM_COUNT = 5, 100


def _random_argv(seed):
    worker = f"{shlex.quote(sys.executable)} scripts/echo_worker.py --sigma {SIGMA}"
    return [
        "search", "--strategy", "random", "-B", str(RANDOM_B), "--count", str(RANDOM_COUNT),
        "--evaluator", "external", "--worker-cmd", worker, "--seed", str(seed),
    ]  # fmt: skip


def _random_quality(out, seed):
    evs = [ev for ev in _events(out) if ev.get("event") == "eval"]
    values = [ev["value"] for ev in evs]
    truth = [checks.oracle_score(checks.parse_key(ev["cell_key"])) for ev in evs]
    return checks.top_mean(values), checks.spearman(values, truth)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-b5",
            _search_argv,
            SEARCH_EVALS,
            lambda out, seed: checks.check_search(_events(out), SEARCH_B, SEARCH_K, SIGMA, seed),
            _search_quality,
            _search_companion,
            lambda out, scored, calls: checks.check_beam_topk(_events(out), scored, SEARCH_K),
        ),
        Workload(
            "harness-lstm",
            _harness_argv,
            len(checks.one_block_keys()) + (HARNESS_B - 1) * HARNESS_R,
            lambda out, seed: checks.check_harness(_report(out), HARNESS_KINDS, HARNESS_B, HARNESS_T),
            _harness_quality,
            _harness_companion,
            lambda out, scored, calls: checks.check_rho_recompute(calls, _report(out), HARNESS_KINDS, HARNESS_B, HARNESS_T),
        ),
        Workload(
            "random-external",
            _random_argv,
            RANDOM_COUNT,
            lambda out, seed: checks.check_random_external(_events(out), RANDOM_B, RANDOM_COUNT, SIGMA, seed),
            _random_quality,
        ),
    )
}


class BenchError(RuntimeError):
    """The benchmark could not run: no source tree, or a child failed."""


class Bench:
    """Runs children from the checkout root, inside one scratch directory."""

    def __init__(self, root: str, workdir: str, deadline: float) -> None:
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self._dirs = 0
        src = os.path.join(root, "src")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""),
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
            PYTHONHASHSEED="0",
        )

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        return os.path.join(self.workdir, f"{self._dirs:03d}-{label}")

    def spawn(self, argv: list[str]) -> tuple[float, float, float]:
        """Run one child to exit: (wall s, user+sys CPU s, peak RSS MB), descendants included."""
        timeout = min(CHILD_LIMIT_S, self.deadline - time.monotonic())
        log = os.path.join(self.workdir, "child.log")
        with open(log, "w", encoding="utf-8") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(timeout, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(log, "r", encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"{shlex.join(argv)} exited {proc.returncode}:\n{tail}")
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def pnas(self, argv: list[str]) -> tuple[float, float, float]:
        return self.spawn([sys.executable, "-m", "pnas", *argv])


def host_line() -> str:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas_info = config["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']}-{blas_info['version']}"
    except (TypeError, KeyError):
        pass
    python = ".".join(map(str, sys.version_info[:3]))
    return f"host nproc={os.cpu_count()} python={python} numpy={np.__version__} blas={blas} blas_threads={BLAS_THREADS}"


def run(args) -> tuple[bool, int, int, dict]:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pnas", "__init__.py")):
        raise BenchError(f"{root} holds no pnas source tree (src/pnas); run from the root of a checkout")
    sys.path.insert(0, os.path.join(root, "src"))  # the in-process backend check imports the checkout's package
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(root, ".perfbench-runs", f"{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    bench = Bench(root, workdir, time.monotonic() + CHILD_LIMIT_S)
    failures: list[str] = []

    setup = [bench.pnas(["--version"])[0] for _ in range(SETUP_PROBES)]

    rounds = []  # (wall, cpu, rss, top25, rho)
    attempted = failed = 0
    started = time.monotonic()
    while not rounds or time.monotonic() - started < args.seconds:
        out = bench.fresh_dir("round")
        wall, cpu, rss = bench.pnas(workload.argv(args.seed) + ["--out", out])
        round_failures = workload.check(out, args.seed)
        attempted += workload.evaluations
        failed += workload.evaluations if round_failures else 0
        failures += round_failures
        rounds.append((wall, cpu, rss, *workload.quality(out, args.seed)))
    companion_failures = workload.companion(bench, args.seed, out) if workload.companion else []
    if companion_failures:
        failures += companion_failures
        failed = attempted  # a run-level check failed, so no round of the run counts as passed

    median = lambda i: statistics.median(r[i] for r in rounds)  # noqa: E731
    print(host_line())
    print(f"workload {workload.name} seed {args.seed} rounds {len(rounds)} setup_probes {SETUP_PROBES}")
    print("command python -m pnas " + shlex.join(workload.argv(args.seed)))

    if args.trace:
        traced = bench.fresh_dir("traced")
        os.makedirs(traced)
        wall, _, _ = bench.spawn(
            [sys.executable, os.path.join(HERE, "tracer.py"), traced, "--", *workload.argv(args.seed), "--out", traced]
        )
        traced_failures = workload.check(traced, args.seed)
        traced_failures += identical_outputs(out, traced)
        if workload.captured_check is not None:
            traced_failures += workload.captured_check(traced, *tracer.load_captures(traced))
        attempted += workload.evaluations
        failed += workload.evaluations if traced_failures else 0
        failures += traced_failures
        trace_file = os.path.join(traced, "trace.jsonl")
        values = tracer.layer_metrics(
            os.path.join(traced, "spans.json"), os.path.getsize(trace_file) if os.path.exists(trace_file) else 0
        )
        values["bench.trace_overhead_s"] = wall - median(0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracer.PER_LAYER}
    else:
        values = {
            "wall_s": median(0),
            "setup_s": statistics.median(setup),
            "cpu_s": median(1),
            "peak_rss_mb": median(2),
            "top25_acc": median(3),
            "rho_ext_mean": median(4),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"attempted {attempted} failed {failed}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if not failures:
        shutil.rmtree(workdir, ignore_errors=True)
    return not failures, attempted, failed, metrics


def identical_outputs(untraced: str, traced: str) -> list[str]:
    """A traced run must leave the same deterministic outputs as an untraced one."""
    names = ["trace.jsonl"] if os.path.exists(os.path.join(untraced, "trace.jsonl")) else ["report.json", "summary.csv"]
    failures = []
    for name in names:
        with open(os.path.join(untraced, name), "rb") as a, open(os.path.join(traced, name), "rb") as b:
            if a.read() != b.read():
                failures.append(f"traced {name} differs from the untraced run's")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        correct, attempted, failed, metrics = run(args)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
