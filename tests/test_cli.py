"""Command-line entry points, exit codes, and run-directory artifacts."""

import argparse
import fcntl
import importlib
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pnas
from pnas.cells import CellKeyError, one_block_cells
from pnas.cli import ConfigError, build_parser, exit_code, load_config_file, main
from pnas.evaluators import (
    EvalRequest,
    EvaluatorError,
    SyntheticOracle,
    SyntheticOracleConfig,
    TableLookupError,
    TableParseError,
    write_table,
)
from pnas.harness import HarnessConfig
from pnas.predictors import _BLAS_PINNED
from pnas.search import EXAMPLES_PER_EPOCH, SearchConfig, plan_budget
from pnas.traceio import read_trace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_exact_numbers(capsys):
    code, out, _ = run(capsys, "count", "-B", "5", "-K", "256")
    assert code == 0
    lines = out.splitlines()
    assert "level 1: raw_blocks 256 unique_blocks 136" in lines
    assert "level 5: raw_blocks 2304 unique_blocks 1176" in lines
    assert "space_raw 556627761561600" in lines
    assert "space_unique 20773767168000" in lines
    assert "budget_per_level 136 256 256 256 256" in lines
    assert "m1 1160" in lines


def test_main_restores_the_sigterm_handler_it_installs(capsys):
    before = signal.getsignal(signal.SIGTERM)
    code, _, _ = run(capsys, "count", "-B", "1")
    assert code == 0
    assert signal.getsignal(signal.SIGTERM) is before


def test_count_rejects_bad_level(capsys):
    code, _, err = run(capsys, "count", "-B", "0")
    assert code == 1
    assert "error:" in err

    code, out, err = run(capsys, "count", "-B", "5", "-K", "0")
    assert code == 1
    assert "beam_size must be >= 1, got 0" in err
    assert out == ""  # checked before anything is printed


def test_build_writes_graph(tmp_path, capsys):
    out = tmp_path / "graph.json"
    code, stdout, _ = run(
        capsys, "build", "--cell", "1|0,4,1,4", "-N", "1", "-F", "8", "--out", str(out)
    )
    assert code == 0
    assert "params 2538" in stdout
    assert "mult_adds 225600" in stdout
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["cell_key"] == "1|0,4,1,4"
    assert doc["plan"]["f"] == 8


def test_build_bad_key_names_segment(capsys):
    code, _, err = run(capsys, "build", "--cell", "1|0,4")
    assert code == 1
    assert "segment '0,4' needs 4 comma-separated fields" in err


def test_build_bad_plan_is_config_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "build", "--cell", "1|0,4,1,4", "--hw", "2",
        "--out", str(tmp_path / "g.json"),
    )
    assert code == 1
    assert "cells need an input size divisible by 4 to halve it twice; input_hw 2 gives 2" in err

    code, out, err = run(capsys, "build", "--cell", "1|0,4,1,4", "-N", "0", "--out", str(tmp_path / "g.json"))
    assert code == 1
    assert "cell repeat count N must be >= 1, got 0" in err
    assert out == "" and not (tmp_path / "g.json").exists()


def test_build_out_is_directory_is_config_error(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--cell", "1|0,4,1,4", "--out", str(tmp_path))
    assert code == 1
    assert f"cannot write graph JSON to {tmp_path}" in err


def test_search_out_is_file_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    code, _, err = run(capsys, "search", "-B", "1", "-K", "4", "--out", str(blocker))
    assert code == 1
    assert f"cannot create run directory {blocker}" in err


def test_negative_sigma_is_config_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "search", "-B", "1", "-K", "4", "--sigma", "-1",
        "--out", str(tmp_path / "a"),
    )
    assert code == 1 and "noise sigma must be >= 0" in err

    code, _, err = run(
        capsys, "harness", "-T", "1", "-K", "8", "-R", "20", "-B", "2",
        "--predictors", "mlp", "--sigma", "-0.5", "--out", str(tmp_path / "b"),
    )
    assert code == 1 and "noise sigma must be >= 0" in err
    assert not (tmp_path / "b").exists()

    for sigma in ("nan", "inf"):
        out_dir = tmp_path / f"search-{sigma}"
        code, _, err = run(capsys, "search", "-B", "2", "-K", "4", "--sigma", sigma, "--out", str(out_dir))
        assert code == 1 and "noise sigma must be >= 0" in err
        assert not out_dir.exists()

        out_dir = tmp_path / f"harness-{sigma}"
        code, _, err = run(
            capsys, "harness", "-T", "1", "-K", "8", "-R", "20", "-B", "2",
            "--predictors", "mlp", "--sigma", sigma, "--out", str(out_dir),
        )
        assert code == 1 and "noise sigma must be >= 0" in err
        assert not out_dir.exists()


def test_search_dry_run(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, stdout, _ = run(
        capsys, "search", "-B", "3", "-K", "16", "--out", str(out_dir), "--dry-run"
    )
    assert code == 0
    assert "budget_per_level 136 16 16" in stdout
    assert "m1 168" in stdout
    assert f"cost {168 * 20 * EXAMPLES_PER_EPOCH}" in stdout
    assert not out_dir.exists()  # dry runs touch nothing


def test_search_dry_run_random_matches_budget(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "search", "--strategy", "random", "-B", "4", "-K", "32",
        "--out", str(tmp_path / "r"), "--dry-run",
    )
    assert code == 0
    assert f"m1 {sum(plan_budget(4, 32))}" in stdout


def test_search_run_directory_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, stdout, _ = run(
        capsys, "search", "-B", "2", "-K", "8", "--predictor", "mlp",
        "--seed", "3", "--out", str(out_dir),
    )
    assert code == 0
    assert "best_cell 2|" in stdout

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["command"] == "search"
    assert manifest["config"]["beam_size"] == 8
    assert manifest["seeds"]["master"] == 3
    assert manifest["finished_utc"] is not None
    assert manifest["versions"]["blas_pinned"] is _BLAS_PINNED
    assert "error" not in manifest and "exit_code" not in manifest

    events = read_trace(str(out_dir / "trace.jsonl"))
    kinds = [ev["event"] for ev in events]
    assert kinds.count("eval") == 136 + 8
    assert kinds.count("fit") == 1  # after level 1; nothing reads a model fitted after the last level
    assert kinds.count("expand") == 1
    assert kinds.count("select") == 8

    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "models,top1,top5,top25"
    assert len(summary) == 1 + 136 + 8

    best = (out_dir / "best_cells.csv").read_text().splitlines()
    assert best[0] == "level,cell_key,accuracy"
    assert len(best) == 3
    assert (out_dir / "graphs" / "best_b1.json").exists()
    assert (out_dir / "graphs" / "best_b2.json").exists()
    assert_unlocked(out_dir)  # released on success


def test_search_reruns_are_byte_identical(tmp_path, capsys):
    args = ["search", "-B", "2", "-K", "4", "--predictor", "mlp", "--seed", "7"]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out_dir in dirs:
        code, _, _ = run(capsys, *args, "--out", str(out_dir))
        assert code == 0
    for name in ("trace.jsonl", "summary.csv", "best_cells.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    graphs = sorted(p.name for p in (dirs[0] / "graphs").iterdir())
    for name in graphs:
        assert (dirs[0] / "graphs" / name).read_bytes() == (
            dirs[1] / "graphs" / name
        ).read_bytes()


def run_files(out_dir):
    return sorted(path.relative_to(out_dir).as_posix() for path in out_dir.rglob("*") if path.is_file())


def test_a_run_in_a_used_directory_leaves_only_its_own_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, "search", "-B", "3", "-K", "4", "--predictor", "mlp", "--out", str(out_dir))
    assert code == 0
    # what a run killed inside traceio.replacing leaves behind
    (out_dir / "summary.csv.4242.tmp").write_text("x\n")
    (out_dir / "graphs" / "best_b3.json.4242.tmp").write_text("x\n")
    code, _, _ = run(capsys, "search", "--strategy", "random", "-B", "2", "--count", "5", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "best_cells.csv").read_text().splitlines()[1].startswith("2,")
    assert run_files(out_dir) == [
        "best_cells.csv", "graphs/best_b2.json", "manifest.json", "summary.csv", "trace.jsonl",
    ]

    out_dir = tmp_path / "failed"
    args = ["search", "-B", "2", "-K", "4", "--predictor", "mlp", "--out", str(out_dir)]
    assert run(capsys, *args)[0] == 0
    code, _, _ = run(capsys, *args, "--evaluator", "external", "--worker-cmd", "false")
    assert code == 2
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "failed"
    assert (out_dir / "trace.jsonl").read_text() == ""
    assert run_files(out_dir) == ["manifest.json", "trace.jsonl"]

    out_dir = tmp_path / "harness"
    assert run(capsys, "search", "-B", "2", "-K", "4", "--predictor", "mlp", "--out", str(out_dir))[0] == 0
    code, _, _ = run(
        capsys, "harness", "-T", "1", "-K", "8", "-R", "20", "-B", "2", "--predictors", "mlp", "--out", str(out_dir),
    )
    assert code == 0
    assert run_files(out_dir) == ["manifest.json", "report.json", "summary.csv"]


def test_a_run_in_a_used_directory_matches_one_in_a_fresh_directory(tmp_path, capsys):
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    assert run(capsys, "search", "-B", "3", "-K", "4", "--predictor", "mlp", "--out", str(used))[0] == 0
    for out_dir in (used, fresh):
        code, _, _ = run(capsys, "search", "--strategy", "random", "-B", "2", "--count", "5", "--out", str(out_dir))
        assert code == 0
    compare = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
    result = subprocess.run(
        [sys.executable, str(compare), str(used), str(fresh)], capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_a_run_keeps_the_users_own_files(tmp_path, capsys):
    out_dir = tmp_path / "run"
    (out_dir / "graphs").mkdir(parents=True)
    (out_dir / "notes.txt").write_text("mine\n")
    (out_dir / "summary.csv.bak").write_text("mine\n")
    (out_dir / "graphs" / "sketch.json").write_text("{}\n")
    for _ in range(2):
        assert run(capsys, "search", "-B", "2", "-K", "4", "--predictor", "mlp", "--out", str(out_dir))[0] == 0
    assert (out_dir / "notes.txt").read_text() == "mine\n"
    assert (out_dir / "summary.csv.bak").read_text() == "mine\n"
    assert (out_dir / "graphs" / "sketch.json").read_text() == "{}\n"


def test_search_random_strategy(tmp_path, capsys):
    out_dir = tmp_path / "rand"
    code, _, _ = run(
        capsys, "search", "--strategy", "random", "--count", "5", "-B", "3",
        "--seed", "1", "--out", str(out_dir),
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["strategy"] == "random"
    assert manifest["count"] == 5
    events = read_trace(str(out_dir / "trace.jsonl"))
    assert [ev["event"] for ev in events] == ["eval"] * 5


def test_search_negative_count(tmp_path, capsys):
    code, _, err = run(
        capsys, "search", "--strategy", "random", "--count", "-2",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "--count must be >= 0" in err

    out_dir = tmp_path / "k0"
    code, out, err = run(capsys, "search", "-B", "2", "-K", "0", "--out", str(out_dir))
    assert code == 1
    assert "beam_size must be >= 1, got 0" in err
    assert out == "" and not out_dir.exists()


def test_search_count_needs_random_strategy(tmp_path, capsys):
    for extra in (["--dry-run"], ["--out", str(tmp_path / "x")]):
        code, out, err = run(capsys, "search", "-B", "2", "-K", "4", "--count", "5", *extra)
        assert code == 1
        assert "--count is for --strategy random only" in err
        assert out == ""  # checked before the budget is printed
    assert not (tmp_path / "x").exists()


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9  # overridden by the flag\nbeam_size=4\nblocks=2\npredictor=mlp\n")
    out_dir = tmp_path / "run"
    code, _, _ = run(
        capsys, "search", "--config", str(cfg), "--seed", "11", "--out", str(out_dir)
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seeds"]["master"] == 11  # flag beats file
    assert manifest["config"]["beam_size"] == 4  # file beats default
    assert manifest["config"]["b_max"] == 2


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("beem_size=4\n")
    code, _, err = run(capsys, "search", "--config", str(bad_key), "--dry-run")
    assert code == 1 and "unknown config key 'beem_size'" in err

    bad_value = tmp_path / "bad2.cfg"
    bad_value.write_text("beam_size=lots\n")
    code, _, err = run(capsys, "search", "--config", str(bad_value), "--dry-run")
    assert code == 1 and "cannot parse 'lots'" in err

    bad_line = tmp_path / "bad3.cfg"
    bad_line.write_text("beam_size\n")
    code, _, err = run(capsys, "search", "--config", str(bad_line), "--dry-run")
    assert code == 1 and "expected key=value" in err

    code, _, err = run(capsys, "search", "--config", str(tmp_path / "nope.cfg"), "--dry-run")
    assert code == 1 and "cannot read config file" in err

    bad_backend = tmp_path / "bad4.cfg"
    bad_backend.write_text("evaluator=slurm\n")
    code, _, err = run(capsys, "search", "--config", str(bad_backend), "--dry-run")
    assert code == 1 and "evaluator must be one of" in err


def test_config_file_values_are_checked_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strategy=greedy\n")
    code, _, err = run(capsys, "search", "--config", str(cfg), "--dry-run")
    assert code == 1 and "strategy must be one of ('pnas', 'random'), got 'greedy'" in err

    cfg.write_text("strategy=random\ncount=7\n")
    code, stdout, _ = run(capsys, "search", "--config", str(cfg), "--dry-run")
    assert code == 0 and "m1 7" in stdout.splitlines()

    cfg.write_text("perfect=1\n")  # a switch, not a setting
    code, _, err = run(capsys, "harness", "--config", str(cfg))
    assert code == 1 and "unknown config key 'perfect'" in err


def subcommand(name):
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices[name]


def test_flag_defaults_are_the_config_defaults():
    search, config = build_parser().parse_args(["search"]), SearchConfig()
    assert (search.blocks, search.beam_size, search.epochs, search.filters) == (
        config.b_max, config.beam_size, config.epochs, config.filters
    )
    assert (search.cell_repeats, search.predictor, search.seed) == (
        config.cell_repeats, config.predictor, config.seed
    )
    assert search.sigma == SyntheticOracleConfig().noise_sigma

    harness, config = build_parser().parse_args(["harness"]), HarnessConfig()
    assert (harness.trials, harness.sample_size, harness.pool_size) == (
        config.trials, config.sample_size, config.pool_size
    )
    assert (harness.blocks, harness.seed) == (config.b_max, config.seed)
    assert tuple(harness.predictors.split(",")) == config.kinds
    assert harness.sigma == SyntheticOracleConfig().noise_sigma


def test_config_file_keys():
    assert sorted(subcommand("search").config_actions()) == sorted([
        "strategy", "blocks", "beam_size", "epochs", "filters", "cell_repeats", "count",
        "predictor", "evaluator", "table", "worker_cmd", "sigma", "seed", "out",
    ])
    assert sorted(subcommand("harness").config_actions()) == sorted([
        "predictors", "trials", "sample_size", "pool_size", "blocks", "sigma", "seed", "out",
    ])
    assert subcommand("count").config_actions() == {}
    assert subcommand("build").config_actions() == {}


def test_load_config_file_strips_comments(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# full-line comment\nseed=5 # trailing\n\nout=runs/x\n")
    assert load_config_file(str(cfg)) == {"seed": "5", "out": "runs/x"}


def assert_unlocked(path):
    """The run directory's lock was released: another open of it can take the lock at once."""
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    finally:
        os.close(fd)


def test_locked_run_directory(tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    fd = os.open(out_dir, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # as a running search holds it
        code, _, err = run(capsys, "search", "-B", "2", "-K", "4", "--out", str(out_dir))
    finally:
        os.close(fd)
    assert code == 1
    assert "locked by another run" in err
    assert not (out_dir / "manifest.json").exists()


HOLD_RUN_DIR = """
import sys, time
from pnas.cli import _run_dir

with _run_dir(sys.argv[1], {}):
    print("locked", flush=True)
    time.sleep(600)
"""


def test_lock_of_a_killed_run_is_free(tmp_path, capsys):
    out_dir = tmp_path / "run"
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLD_RUN_DIR, str(out_dir)], stdout=subprocess.PIPE, text=True, env=source_env()
    )
    try:
        assert holder.stdout.readline() == "locked\n"
        code, _, err = run(capsys, "search", "-B", "1", "-K", "4", "--out", str(out_dir))
        assert code == 1
        assert "locked by another run" in err
    finally:
        holder.kill()  # SIGKILL: the run gets no chance to release anything
        holder.wait(timeout=60)
        holder.stdout.close()
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "running"
    code, _, _ = run(capsys, "search", "-B", "1", "-K", "4", "--out", str(out_dir))
    assert code == 0
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "completed"
    assert_unlocked(out_dir)


HOLD_RUN_DIR_IN_WORKERS = """
import sys, time
import numpy as np
import pnas.predictors
from pnas.cli import _run_dir
from pnas.predictors import fork_map

pnas.predictors._free_cpus = lambda: 2

def job(j):
    time.sleep(2)
    return np.zeros(100_000)  # more than a pipe holds: the send blocks until someone reads

with _run_dir(sys.argv[1], {}):
    print("locked", flush=True)
    fork_map(job, range(2))
"""


def test_workers_of_a_killed_run_let_its_lock_go(tmp_path):
    # the forked workers inherit the lock; once their parent is gone, sending
    # their results must fail and end them rather than block forever
    out_dir = tmp_path / "run"
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLD_RUN_DIR_IN_WORKERS, str(out_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=source_env(),
    )
    try:
        assert holder.stdout.readline() == "locked\n"
        time.sleep(0.5)  # the workers are forked and sleeping
    finally:
        holder.kill()
        holder.wait(timeout=60)
        holder.stdout.close()
    deadline = time.monotonic() + 20
    while True:
        try:
            assert_unlocked(out_dir)
            break
        except BlockingIOError:
            assert time.monotonic() < deadline, "the killed run's workers still hold its lock"
            time.sleep(0.1)


HOLD_RUN_DIR_IN_LONG_JOBS = HOLD_RUN_DIR_IN_WORKERS.replace("time.sleep(2)", "time.sleep(60)")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the parent-death signal is Linux only")
def test_workers_of_a_killed_run_die_with_it(tmp_path):
    # the kernel kills the workers with their parent, so the lock goes free
    # long before the job under way could end and find no reader
    out_dir = tmp_path / "run"
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLD_RUN_DIR_IN_LONG_JOBS, str(out_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=source_env(),
    )
    try:
        assert holder.stdout.readline() == "locked\n"
        time.sleep(0.5)  # the workers are forked and sleeping
    finally:
        holder.kill()
        holder.wait(timeout=60)
        holder.stdout.close()
    deadline = time.monotonic() + 5
    while True:
        try:
            assert_unlocked(out_dir)
            break
        except BlockingIOError:
            assert time.monotonic() < deadline, "the killed run's workers outlived it"
            time.sleep(0.1)


def test_leftover_lock_file_naming_a_live_pid_does_not_block(tmp_path, capsys):
    # a pid-file lock from an older version; its pid is alive again, as pid 1
    # is when a container restarts on the same run directory
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / ".lock").write_text(f"{os.getpid()}\n")
    code, _, _ = run(capsys, "search", "-B", "1", "-K", "4", "--out", str(out_dir))
    assert code == 0
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "completed"
    assert_unlocked(out_dir)


def test_tabular_backend_happy_and_missing(tmp_path, capsys):
    table = tmp_path / "bench.csv"
    oracle = SyntheticOracle()
    records = oracle.evaluate(EvalRequest(cells=tuple(one_block_cells()), seed=0))
    write_table(str(table), records)

    ok_dir = tmp_path / "ok"
    code, _, _ = run(
        capsys, "search", "-B", "1", "--evaluator", "tabular", "--table", str(table),
        "--out", str(ok_dir), "--seed", "0",
    )
    assert code == 0
    manifest = json.loads((ok_dir / "manifest.json").read_text())
    assert manifest["evaluator"] == {"backend": "tabular", "table": str(table)}

    # a 2-block search needs cells the table lacks: evaluator error, manifest failed
    miss_dir = tmp_path / "miss"
    code, _, err = run(
        capsys, "search", "-B", "2", "-K", "4", "--predictor", "mlp",
        "--evaluator", "tabular", "--table", str(table), "--out", str(miss_dir),
    )
    assert code == 2
    assert "no entry for cell" in err
    manifest = json.loads((miss_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "TableLookupError"
    assert f"evaluator error: {manifest['error']['message']}" in err
    assert manifest["exit_code"] == 2
    assert_unlocked(miss_dir)  # released on failure too


def test_perfect_predictor_needs_the_synthetic_evaluator(tmp_path, capsys):
    table = tmp_path / "bench.csv"
    write_table(str(table), SyntheticOracle().evaluate(EvalRequest(cells=tuple(one_block_cells()), seed=0)))
    backends = {"tabular": ["--table", str(table)], "external": ["--worker-cmd", shlex.quote(sys.executable)]}
    for backend, options in backends.items():
        out_dir = tmp_path / backend
        code, _, err = run(
            capsys, "search", "-B", "1", "--predictor", "perfect", "--evaluator", backend, *options,
            "--out", str(out_dir),
        )
        assert code == 1 and "--predictor perfect" in err and "needs --evaluator synthetic" in err
        assert not out_dir.exists()

    # the random strategy builds no surrogate, so any evaluator serves it
    code, _, _ = run(
        capsys, "search", "--strategy", "random", "--count", "5", "-B", "1", "--predictor", "perfect",
        "--evaluator", "tabular", "--table", str(table), "--out", str(tmp_path / "random"),
    )
    assert code == 0


def test_tabular_backend_config_errors(tmp_path, capsys):
    code, _, err = run(capsys, "search", "--evaluator", "tabular", "--out", str(tmp_path / "a"))
    assert code == 1 and "needs --table" in err

    code, _, err = run(
        capsys, "search", "--evaluator", "tabular", "--table", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "b"),
    )
    assert code == 1 and "cannot read table" in err
    assert not (tmp_path / "b").exists()  # bad evaluator options never touch the out dir

    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header,row\n")
    code, _, err = run(
        capsys, "search", "--evaluator", "tabular", "--table", str(bad),
        "--out", str(tmp_path / "c"),
    )
    assert code == 1 and "missing cell_key,seed,accuracy header" in err

    # a row keyed off the canonical spelling could never be looked up, so the run never starts
    bad.write_text("cell_key,seed,accuracy\n1|1,0,0,0,0,0.5\n")
    code, _, err = run(capsys, "search", "-B", "1", "--evaluator", "tabular", "--table", str(bad), "--out", str(tmp_path / "d"))
    assert code == 1 and "cell key '1|1,0,0,0' is not canonical; write it as '1|0,0,1,0'" in err
    assert not (tmp_path / "d").exists()


def test_external_backend_crash_exits_2(tmp_path, capsys):
    crasher = f"{sys.executable} -c \"import sys; sys.exit(1)\""
    code, _, err = run(
        capsys, "search", "-B", "1", "--evaluator", "external",
        "--worker-cmd", crasher, "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "unanswered" in err


def test_external_protocol_error_exits_2(tmp_path, capsys):
    worker = f"{sys.executable} -c \"import json; print(json.dumps({{'id': [0], 'accuracy': 0.5}}))\""
    code, _, err = run(
        capsys, "search", "-B", "1", "--evaluator", "external",
        "--worker-cmd", worker, "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "id is not an integer" in err


ERROR_WORKER = """\
import json, sys
for line in sys.stdin:
    request = json.loads(line)
    if request.get("done"):
        break
    print(json.dumps({"id": request["id"], "error": "oom"}), flush=True)
"""


@pytest.mark.parametrize(
    "argv, evals",
    [
        (["-B", "2", "-K", "8"], 136),
        (["--strategy", "random", "-B", "2", "--count", "3"], 3),
    ],
)
def test_run_without_successful_evaluation_exits_2(tmp_path, capsys, argv, evals):
    worker = tmp_path / "oom_worker.py"
    worker.write_text(ERROR_WORKER)
    out_dir = tmp_path / "run"
    code, _, err = run(
        capsys, "search", *argv, "--evaluator", "external",
        "--worker-cmd", f"{shlex.quote(sys.executable)} {shlex.quote(str(worker))}",
        "--out", str(out_dir),
    )
    assert code == 2
    level = 1 if "random" not in argv else 2
    assert f"evaluator error: level {level}: none of its {evals} evaluations succeeded" in err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == {
        "type": "NoSuccessfulEvaluationError",
        "message": f"level {level}: none of its {evals} evaluations succeeded",
    }
    assert manifest["exit_code"] == 2
    events = read_trace(str(out_dir / "trace.jsonl"))
    assert [ev["event"] for ev in events] == ["eval"] * evals
    assert all(ev["error"] == "oom" and ev["value"] is None for ev in events)
    assert_unlocked(out_dir)


def processes():
    """{pid: (parent pid, argv)} of every process this one can see, read from /proc."""
    table = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                ppid = int((entry / "stat").read_text().rsplit(")", 1)[1].split()[1])
                argv = (entry / "cmdline").read_bytes().decode().split("\0")[:-1]
            except (OSError, IndexError):
                continue  # it exited while being read
            table[int(entry.name)] = (ppid, argv)
    return table


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the process table from /proc")
def test_sigterm_ends_the_run_as_failed_and_kills_its_worker(tmp_path):
    out_dir = tmp_path / "run"
    worker_argv = ["sleep", "60"]
    argv = [
        sys.executable, "-m", "pnas", "search", "--strategy", "random", "-B", "2", "--count", "3",
        "--evaluator", "external", "--worker-cmd", shlex.join(worker_argv), "--out", str(out_dir),
    ]
    with open(tmp_path / "stderr.txt", "w") as stderr:
        search = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=stderr, env=source_env())
    workers = []

    def live_workers():
        table = processes()
        return [pid for pid in workers if pid in table and table[pid][1] == worker_argv]

    try:
        deadline = time.monotonic() + 60
        while not workers:
            assert search.poll() is None, (tmp_path / "stderr.txt").read_text()
            assert time.monotonic() < deadline, "the search started no worker"
            time.sleep(0.05)
            workers = [pid for pid, (ppid, cmd) in processes().items() if ppid == search.pid and cmd == worker_argv]
        search.send_signal(signal.SIGTERM)
        code = search.wait(timeout=10)
        left = live_workers()
    finally:
        if search.poll() is None:
            search.kill()
            search.wait()
        for pid in live_workers():
            os.kill(pid, signal.SIGKILL)  # do not leave an orphaned worker behind
    assert code == 143, (tmp_path / "stderr.txt").read_text()
    assert left == [], "the worker outlived its run"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["exit_code"] == 143
    assert manifest["error"]["type"] == "SystemExit"
    assert_unlocked(out_dir)


def test_external_backend_needs_worker_cmd(tmp_path, capsys):
    code, _, err = run(
        capsys, "search", "--evaluator", "external", "--out", str(tmp_path / "x")
    )
    assert code == 1 and "needs --worker-cmd" in err


def test_harness_run(tmp_path, capsys):
    out_dir = tmp_path / "harness"
    code, stdout, _ = run(
        capsys, "harness", "--predictors", "mlp", "-T", "1", "-K", "10",
        "-R", "20", "-B", "2", "--seed", "0", "--out", str(out_dir),
    )
    assert code == 0
    assert stdout.splitlines()[0].startswith("mlp rho_fit_1=")

    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "predictor,rho_fit_1,rho_extrapolate_2"
    assert len(summary) == 2

    report = json.loads((out_dir / "report.json").read_text())
    assert report["kinds"] == ["mlp"]
    assert len(report["fit"]["mlp/1"]) == 1
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["config"]["pool_size"] == 20


def test_harness_perfect_mode(tmp_path, capsys):
    out_dir = tmp_path / "perfect"
    code, _, _ = run(
        capsys, "harness", "--perfect", "-T", "2", "-K", "8", "-R", "15",
        "-B", "2", "--out", str(out_dir),
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["kinds"] == ["perfect"]
    assert report["fit"]["perfect/1"] == [1.0, 1.0]
    assert report["extrapolate"]["perfect/1"] == [1.0, 1.0]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["evaluator"] == {"backend": "synthetic", "sigma": 0.0}


def test_harness_perfect_takes_no_predictors_or_sigma(tmp_path, capsys):
    out_dir = tmp_path / "x"
    for extra in (["--predictors", "mlp,rnn"], ["--sigma", "0.05"], ["--predictors", "perfect", "--sigma", "0"]):
        code, out, err = run(
            capsys, "harness", "--perfect", *extra, "-T", "1", "-K", "8", "-R", "15", "-B", "2", "--out", str(out_dir)
        )
        assert code == 1 and "--perfect" in err and "neither --predictors nor --sigma" in err
        assert out == "" and not out_dir.exists()


def test_harness_rejects_a_repeated_kind(tmp_path, capsys):
    out_dir = tmp_path / "x"
    code, out, err = run(
        capsys, "harness", "--predictors", "mlp,mlp", "-T", "1", "-K", "8", "-R", "20", "-B", "2", "--out", str(out_dir)
    )
    assert code == 1 and "predictor kinds must be distinct" in err
    assert out == "" and not out_dir.exists()


def test_harness_sample_exceeds_pool(tmp_path, capsys):
    code, _, err = run(
        capsys, "harness", "-K", "50", "-R", "20", "--out", str(tmp_path / "x")
    )
    assert code == 1
    assert "exceeds pool_size" in err


def test_harness_needs_two_samples_before_any_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args):
        raise AssertionError("fitted a predictor")

    monkeypatch.setattr("pnas.predictors.Predictor.fit", no_fit)
    out_dir = tmp_path / "x"
    code, _, err = run(
        capsys, "harness", "--predictors", "mlp", "-T", "1", "-K", "1", "-R", "20", "-B", "2", "--out", str(out_dir)
    )
    assert code == 1
    assert "sample_size must be >= 2 (a rank correlation needs two points), got 1" in err
    assert not out_dir.exists()


def test_harness_pool_beyond_the_two_block_space_exits_before_any_draw(tmp_path, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a pool")

    monkeypatch.setattr("pnas.harness.distinct_random_cells", no_draw)
    out_dir = tmp_path / "x"
    code, _, err = run(
        capsys, "harness", "--predictors", "mlp", "-T", "1", "-K", "2", "-R", "40801", "-B", "2", "--out", str(out_dir)
    )
    assert code == 1
    assert "pool_size must be <= 40800 (the unique two-block cells), got 40801" in err
    assert not out_dir.exists()


def test_exit_code_is_the_one_main_returns():
    assert exit_code(ConfigError("x")) == exit_code(CellKeyError("x")) == exit_code(TableParseError("x")) == 1
    assert exit_code(EvaluatorError("x")) == exit_code(TableLookupError("x")) == 2
    assert exit_code(RuntimeError("x")) == exit_code(ValueError("x")) == 3
    assert exit_code(SystemExit(143)) == 143  # SIGTERM, through the handler main installs
    assert exit_code(KeyboardInterrupt()) is None  # main does not catch it


def test_unknown_flag_and_missing_command(capsys):
    code, _, err = run(capsys, "count", "--frobnicate")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys)
    assert code == 1


def test_console_script_smoke(tmp_path):
    # The child imports the same package as this suite, from any cwd and
    # without an installed ``pnas`` script.
    env = dict(os.environ)
    src = str(Path(pnas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def pnas_cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "pnas", *argv], capture_output=True, text=True,
            check=False, cwd=tmp_path, env=env,
        )

    result = pnas_cli("count", "-B", "2")
    assert result.returncode == 0
    assert "space_unique 40800" in result.stdout
    assert result.stderr == ""

    version = pnas_cli("--version")
    assert version.returncode == 0
    assert version.stdout.strip().startswith("pnas ")
    assert version.stderr == ""


def source_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(pnas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def modules_after(imports):
    """pnas.__version__ and the sorted modules loaded by a fresh interpreter after `imports`."""
    code = f"import {imports}, sys; print(pnas.__version__, *sorted(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=source_env())
    return result.stdout.split()


def test_evaluator_imports_stay_light():
    # An external worker imports cells and evaluators; the package must not
    # pull the surrogate, search or CLI modules in behind them.
    version, *modules = modules_after("pnas.cells, pnas.evaluators")
    assert version == "0.1.0"
    assert not {"pnas.predictors", "pnas.search", "pnas.harness", "pnas.cli"} & set(modules)


def test_cli_import_loads_no_process_machinery():
    # ensemble_fit imports multiprocessing when it refits; commands that never
    # refit (--version, count, an external random search) must not pay for it.
    _, *modules = modules_after("pnas.cli")
    assert not {"multiprocessing", "concurrent.futures"} & set(modules)


DYING_FIT = """
import os, sys
import pnas.predictors
from pnas.cli import main

pnas.predictors._free_cpus = lambda: 2
fit = pnas.predictors.Predictor.fit

def dying(self, cells, accuracies, level):
    if level >= 2:
        os._exit(7)
    return fit(self, cells, accuracies, level)

pnas.predictors.Predictor.fit = dying
sys.exit(main(sys.argv[1:]))
"""


def test_dead_fit_worker_exits_3_and_keeps_finished_levels(tmp_path):
    out_dir = tmp_path / "run"
    argv = ["search", "-B", "3", "-K", "8", "--predictor", "mlp-ens", "--out", str(out_dir)]
    started = time.monotonic()
    result = subprocess.run([sys.executable, "-c", DYING_FIT, *argv], capture_output=True, text=True, timeout=120, env=source_env())
    assert time.monotonic() - started < 60
    assert result.returncode == 3, result.stderr
    assert "ensemble fit worker exited with code 7" in result.stderr
    events = read_trace(str(out_dir / "trace.jsonl"))
    assert [ev["level"] for ev in events if ev["event"] == "fit"] == [1]
    assert [ev["level"] for ev in events if ev["event"] == "eval"] == [1] * 136 + [2] * 8
    assert_unlocked(out_dir)
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "failed"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["error"]["type"] == "RuntimeError"
    assert "ensemble fit worker exited with code 7" in manifest["error"]["message"]
    assert manifest["exit_code"] == 3


@pytest.mark.skipif(not _BLAS_PINNED, reason="no known BLAS thread setter: BLAS follows the thread variables")
def test_search_trace_does_not_depend_on_blas_thread_variables(tmp_path):
    traces = []
    for threads in (None, "1", "2"):
        env = {k: v for k, v in source_env().items() if not k.endswith("_NUM_THREADS")}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out_dir = tmp_path / f"run-{threads}"
        argv = ["search", "-B", "3", "-K", "16", "--predictor", "mlp-ens", "--out", str(out_dir)]
        subprocess.run([sys.executable, "-m", "pnas", *argv], capture_output=True, timeout=120, env=env, check=True)
        traces.append((out_dir / "trace.jsonl").read_bytes())
    assert traces[0] == traces[1] == traces[2]


def test_dead_harness_worker_exits_3(tmp_path):
    out_dir = tmp_path / "run"
    argv = ["harness", "--predictors", "mlp", "-T", "1", "-K", "8", "-R", "15", "-B", "3", "--out", str(out_dir)]
    started = time.monotonic()
    result = subprocess.run([sys.executable, "-c", DYING_FIT, *argv], capture_output=True, text=True, timeout=120, env=source_env())
    assert time.monotonic() - started < 60
    assert result.returncode == 3, result.stderr
    assert "a harness worker exited with code 7" in result.stderr
    assert_unlocked(out_dir)
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "failed"


def test_console_script_entry_point_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pnas"]
    module_name, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main


@pytest.mark.skipif(shutil.which("pnas") is None, reason="no installed pnas script on PATH")
def test_installed_console_script_version(tmp_path):
    version = subprocess.run(
        ["pnas", "--version"], capture_output=True, text=True, check=False, cwd=tmp_path
    )
    assert version.returncode == 0
    assert version.stdout.strip().startswith("pnas ")
