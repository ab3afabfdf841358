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
