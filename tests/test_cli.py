"""Command-line entry points, exit codes, and run-directory artifacts."""

import importlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pnas
from pnas.cells import one_block_cells
from pnas.cli import load_config_file, main
from pnas.evaluators import SyntheticOracle, write_table
from pnas.search import EXAMPLES_PER_EPOCH, plan_budget
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


def test_count_rejects_bad_level(capsys):
    code, _, err = run(capsys, "count", "-B", "0")
    assert code == 1
    assert "error:" in err


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
    assert "spatial size underflow" in err


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

    events = read_trace(str(out_dir / "trace.jsonl"))
    kinds = [ev["event"] for ev in events]
    assert kinds.count("eval") == 136 + 8
    assert kinds.count("fit") == 2
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
    assert not (out_dir / ".lock").exists()  # released on success


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
    assert "--count must be positive" in err


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


def test_load_config_file_strips_comments(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# full-line comment\nseed=5 # trailing\n\nout=runs/x\n")
    assert load_config_file(str(cfg)) == {"seed": "5", "out": "runs/x"}


def test_locked_run_directory(tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / ".lock").write_text(f"{os.getpid()}\n")  # a pid known to be alive
    code, _, err = run(
        capsys, "search", "-B", "2", "-K", "4", "--out", str(out_dir)
    )
    assert code == 1
    assert "locked by another run" in err


def test_lock_of_a_dead_run_is_reclaimed(tmp_path, capsys):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=60)  # reaped, so its pid names no process
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / ".lock").write_text(f"{child.pid}\n")
    (out_dir / ".lock.reclaim").write_text("")  # another run is reclaiming it
    code, _, err = run(capsys, "search", "-B", "1", "-K", "4", "--out", str(out_dir))
    assert code == 1
    assert "locked by another run" in err
    (out_dir / ".lock.reclaim").unlink()
    code, _, _ = run(capsys, "search", "-B", "1", "-K", "4", "--out", str(out_dir))
    assert code == 0
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "completed"
    assert not (out_dir / ".lock").exists()
    assert not (out_dir / ".lock.reclaim").exists()


def test_empty_lock_is_kept(tmp_path, capsys):
    # its run may have created the lock and not yet written its pid
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / ".lock").write_text("")
    code, _, err = run(capsys, "search", "-B", "1", "-K", "4", "--out", str(out_dir))
    assert code == 1
    assert "locked by another run" in err
    assert (out_dir / ".lock").read_text() == ""
    assert not (out_dir / ".lock.reclaim").exists()


def test_tabular_backend_happy_and_missing(tmp_path, capsys):
    table = tmp_path / "bench.csv"
    oracle = SyntheticOracle()
    from pnas.evaluators import EvalRequest

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
    assert not (miss_dir / ".lock").exists()  # released on failure too


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
    events = read_trace(str(out_dir / "trace.jsonl"))
    assert [ev["event"] for ev in events] == ["eval"] * evals
    assert all(ev["error"] == "oom" and ev["value"] is None for ev in events)
    assert not (out_dir / ".lock").exists()


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


def test_harness_sample_exceeds_pool(tmp_path, capsys):
    code, _, err = run(
        capsys, "harness", "-K", "50", "-R", "20", "--out", str(tmp_path / "x")
    )
    assert code == 1
    assert "exceeds pool_size" in err


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


def test_evaluator_imports_stay_light():
    # An external worker imports cells and evaluators; the package must not
    # pull the surrogate, search or CLI modules in behind them.
    env = dict(os.environ)
    src = str(Path(pnas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import pnas.cells, pnas.evaluators, sys; print(pnas.__version__, *sorted(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    version, *modules = result.stdout.split()
    assert version == "0.1.0"
    assert not {"pnas.predictors", "pnas.search", "pnas.harness", "pnas.cli"} & set(modules)


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
