"""The scripts in scripts/ run against the package as it stands."""

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
