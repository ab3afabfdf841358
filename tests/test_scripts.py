"""The scripts in scripts/ run against the package as it stands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pnas

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_compare_search_smoke(tmp_path):
    env = dict(os.environ)
    src = str(Path(pnas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = tmp_path / "compare.csv"
    result = subprocess.run(
        [
            sys.executable, str(SCRIPTS / "compare_search.py"),
            "-B", "2", "-K", "4", "--trials", "2", "--predictor", "mlp", "--out", str(out),
        ],
        capture_output=True, text=True, check=False, cwd=tmp_path, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert out.read_text().splitlines()[0] == (
        "strategy,models,top1_mean,top1_stderr,top5_mean,top5_stderr,top25_mean,top25_stderr"
    )


def test_code_lines_total_is_the_sum_of_its_modules():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py"), str(Path(pnas.__file__).parent)],
        capture_output=True, text=True, check=True,
    )
    rows = [line.split(" ", 1) for line in result.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert {Path(path).name for _, path in modules} >= {"__init__.py", "search.py", "predictors.py"}
    assert int(total) == sum(int(count) for count, _ in modules) > 0


def test_compare_runs_tells_reruns_from_an_edited_copy(tmp_path):
    env = dict(os.environ)
    src = str(Path(pnas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=False, cwd=tmp_path, env=env)

    for name in ("a", "b"):
        search = run("-m", "pnas", "search", "-B", "2", "-K", "4", "--predictor", "mlp", "--out", name)
        assert search.returncode == 0, search.stderr
    same = run(str(SCRIPTS / "compare_runs.py"), "a", "b")
    assert same.returncode == 0, same.stdout + same.stderr
    rows = same.stdout.splitlines()
    assert "identical trace.jsonl" in rows and "identical manifest.json" in rows
    assert all(row.startswith("identical ") for row in rows)

    trace = tmp_path / "b" / "trace.jsonl"
    lines = trace.read_text().splitlines(keepends=True)
    first_predict = next(i for i, line in enumerate(lines) if '"event":"predict"' in line)
    lines[first_predict] = lines[first_predict].replace('"value":0.', '"value":1.', 1)
    assert lines[first_predict] != trace.read_text().splitlines(keepends=True)[first_predict]
    trace.write_text("".join(lines))
    (tmp_path / "b" / "extra.txt").write_text("x\n")
    edited = run(str(SCRIPTS / "compare_runs.py"), "a", "b")
    assert edited.returncode == 1
    rows = edited.stdout.splitlines()
    assert "differs trace.jsonl" in rows and "identical summary.csv" in rows
    assert "differs extra.txt (only in b)" in rows
    n_predict = sum('"event":"predict"' in line for line in lines)
    assert f"  predict: 1 of {n_predict} events differ" in rows
    assert any(row.startswith("  eval: 0 of ") for row in rows)


BENCH_STUB = """
import json, os, sys
side = os.path.basename(os.getcwd())
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(os.path.join("..", "calls.log"), "a") as log:
    log.write(f"{side} {seed} {' '.join(sys.argv[1:])}\\n")
change = side == "change"
wall = seed - 80 - (1 if change else 0) + (20 if change and seed == 93 else 0)
values = {"wall_s": wall, "cpu_s": 5.0, "peak_rss_mb": 110.0 if change else 100.0, "top25_acc": 0.95 if change else 0.9}
print("workload stub")
print(json.dumps({"correct": CORRECT, "attempted": 4, "failed": 0, "metrics": {k: {"value": v} for k, v in values.items()}}))
"""


def test_bench_pairs_alternates_and_compares_canned_results(tmp_path):
    metrics = [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "cpu_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
        {"name": "top25_acc", "better": "higher", "bound": 0.02},
    ]
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(BENCH_STUB.replace("CORRECT", "True"))
    bench = {"command": [sys.executable, "perfbench/run.py"], "run_seconds": 7, "end_to_end": metrics}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(bench))

    def pairs():
        argv = [str(SCRIPTS / "bench_pairs.py"), "parent", "change", "--workload", "w", "--seeds", "90", "93"]
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True, check=False, cwd=tmp_path)

    result = pairs()
    assert result.returncode == 0, result.stderr
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert [call.split()[:2] for call in calls] == [
        ["parent", "90"], ["change", "90"], ["change", "91"], ["parent", "91"],
        ["parent", "92"], ["change", "92"], ["change", "93"], ["parent", "93"],
    ]
    assert calls[0].split()[2:] == ["--workload", "w", "--seed", "90", "--seconds", "7", "--trace", "0"]
    # parent wall_s 10-13, change 9, 10, 11 and 32: quartiles 10.75 and 12.25 by the inclusive method
    # wall_s won 3 of 4, short of nine tenths, so only top25_acc (4 of 4, by more than its IQR of 0) is a gain
    assert result.stdout.splitlines() == [
        "workload w pairs 4 seeds 90-93",
        "wall_s parent 11.5 change 10.5 parent_iqr 1.5 won 3 lost 1",
        "cpu_s parent 5.0 change 5.0 parent_iqr 0.0 won 0 lost 0",
        "peak_rss_mb parent 100.0 change 110.0 parent_iqr 0.0 won 0 lost 4 worse beyond bound",
        "top25_acc parent 0.9 change 0.95 parent_iqr 0.0 won 4 lost 0 gain",
    ]
    # one stderr line per run, in run order, with its end-to-end values
    runs = [line for line in result.stderr.splitlines() if line.startswith("seed ")]
    assert [run.split()[:3] for run in runs] == [["seed", *call.split()[1::-1]] for call in calls]
    assert runs[0] == "seed 90 parent wall_s=10 cpu_s=5.0 peak_rss_mb=100.0 top25_acc=0.9"
    assert runs[6] == "seed 93 change wall_s=32 cpu_s=5.0 peak_rss_mb=110.0 top25_acc=0.95"

    (tmp_path / "change" / "perfbench" / "run.py").write_text(BENCH_STUB.replace("CORRECT", "False"))
    result = pairs()
    assert result.returncode == 1 and result.stdout == ""
    assert "correct False" in result.stderr
    (tmp_path / "change" / "perfbench" / "run.py").write_text("print('benchmark error')\n")
    result = pairs()
    assert result.returncode == 1 and "the last line is not a result" in result.stderr


CHECKOUT_STUB = """
import json, os, sys
if os.environ["PYTHONPATH"] != os.path.join(os.getcwd(), "src"):
    sys.exit(3)
args = sys.argv[1:]
out = args[args.index("--out") + 1]
if args[0] != "build":  # a build names the file it writes, in a directory that exists
    os.makedirs(out)
side = os.path.basename(os.getcwd())
if side == "change" and "perfect" in args:
    print("stub error", file=sys.stderr)
    sys.exit(2)
trace = "rnn-ens from change" if side == "change" and "rnn-ens" in args else " ".join(args[: args.index("--out")])
with open(out if args[0] == "build" else os.path.join(out, "trace.jsonl"), "w") as fh:
    fh.write(json.dumps({"event": "stub", "args": trace}) + "\\n")
print("best_accuracy 0.9")
print(f"out {out}")
"""


def test_compare_checkouts_flags_other_traces_and_failed_commands(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "pnas").mkdir(parents=True)
        (tmp_path / side / "src" / "pnas" / "__main__.py").write_text(CHECKOUT_STUB)

    def compare(*sides):
        argv = [str(SCRIPTS / "compare_checkouts.py"), *sides]
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True, check=False, cwd=tmp_path)

    same = compare("parent", "parent")
    assert same.returncode == 0, same.stdout + same.stderr
    commands = same.stdout.splitlines()
    assert len(commands) == 16 and all(row.startswith("identical pnas ") for row in commands)
    assert "identical pnas search -B 5 -K 64 --predictor mlp-ens --sigma 0.01 --seed 3" in commands
    assert any(row.endswith("--worker-cmd 'python3 scripts/echo_worker.py --sigma 0.01' --seed 0") for row in commands)

    result = compare("parent", "change")
    assert result.returncode == 1
    rows = result.stdout.splitlines()
    differs = [i for i, row in enumerate(rows) if row.startswith("differs ")]
    assert [rows[i] for i in differs] == [
        "differs pnas search -B 3 -K 16 --predictor rnn-ens --seed 1",
        "differs pnas search -B 5 -K 64 --predictor perfect --seed 0",
    ]
    assert rows[differs[0] + 1 : differs[0] + 3] == ["  differs trace.jsonl", "    stub: 1 of 1 events differ"]
    assert rows[differs[1] + 1] == "  change exited 2: stub error"
    assert sum(row.startswith("identical pnas ") for row in rows) == 14
