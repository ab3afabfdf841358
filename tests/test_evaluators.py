"""Synthetic, tabular, and subprocess evaluation backends."""

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pnas.cells import BlockSpec, cell_key, one_block_cells, parse_cell_key
from pnas.evaluators import (
    EvalRecord,
    EvalRequest,
    ExternalEvaluator,
    SyntheticOracle,
    SyntheticOracleConfig,
    TableLookupError,
    TableParseError,
    TabularEvaluator,
    WORKER_RETRIES,
    WorkerProtocolError,
    WorkerTransportError,
    cell_features,
    write_table,
)

ECHO_WORKER = str(Path(__file__).resolve().parents[1] / "scripts" / "echo_worker.py")

CELLS = (
    parse_cell_key("1|0,4,1,4"),
    parse_cell_key("1|0,1,0,6"),
    parse_cell_key("2|0,2,1,2;1,0,2,0"),
)


def make_request(cells=CELLS, **kw):
    return EvalRequest(cells=tuple(cells), **kw)


def test_request_validation():
    with pytest.raises(ValueError, match="at least one cell"):
        EvalRequest(cells=())
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        make_request(epochs=0)
    with pytest.raises(ValueError, match="canonical"):
        make_request(cells=(parse_cell_key("1|1,4,0,4"),))


def test_record_validation():
    rec = EvalRecord("1|0,4,1,4", 0.5, seed=0)
    assert rec.ok
    failed = EvalRecord("1|0,4,1,4", None, 0, error="diverged")
    assert not failed.ok
    with pytest.raises(ValueError, match="outside"):
        EvalRecord("1|0,4,1,4", 1.5, 0)
    with pytest.raises(ValueError, match="outside"):
        EvalRecord("1|0,4,1,4", None, 0)
    with pytest.raises(ValueError, match="cannot carry"):
        EvalRecord("1|0,4,1,4", 0.5, 0, error="diverged")


def test_cell_features_hand_case():
    cell = (BlockSpec(0, 1, 0, 6), BlockSpec(2, 2, 1, 1))
    feats = cell_features(cell)
    assert feats.tolist() == [1, 2, 0, 0, 0, 0, 1, 0, 2, 3, 1]


def test_oracle_sigma_zero_is_pure_score():
    oracle = SyntheticOracle(SyntheticOracleConfig(noise_sigma=0.0))
    for cell in CELLS:
        assert oracle.noisy_accuracy(cell, seed=5) == oracle.score(cell)


def test_oracle_noise_depends_on_seed_and_cell():
    oracle = SyntheticOracle()
    key = cell_key(CELLS[0])
    assert oracle.noise(key, 1) != oracle.noise(key, 2)
    assert oracle.noise(key, 1) == oracle.noise(key, 1)
    assert oracle.noise(key, 1) != oracle.noise(cell_key(CELLS[1]), 1)


def test_oracle_deterministic_across_instances():
    a = SyntheticOracle().evaluate(make_request(seed=9))
    b = SyntheticOracle().evaluate(make_request(seed=9))
    strip = lambda recs: [(r.cell_key, r.accuracy, r.seed) for r in recs]
    assert strip(a) == strip(b)


def test_oracle_records_in_request_order():
    records = SyntheticOracle().evaluate(make_request())
    keys = [r.cell_key for r in records]
    assert keys == [cell_key(c) for c in CELLS] != sorted(keys)
    assert all(r.ok and 0.0 <= r.accuracy <= 1.0 for r in records)


def test_oracle_level_one_mean_calibration():
    oracle = SyntheticOracle()
    scores = [oracle.score(c) for c in one_block_cells()]
    assert abs(np.mean(scores) - 0.86) < 0.01


def test_oracle_config_validation():
    with pytest.raises(ValueError, match="sigma"):
        SyntheticOracleConfig(noise_sigma=-1.0)


# --- tabular backend ---


def oracle_table(tmp_path, seeds=(0, 1)):
    oracle = SyntheticOracle()
    records = []
    for seed in seeds:
        records.extend(oracle.evaluate(make_request(seed=seed)))
    path = tmp_path / "bench.csv"
    rows = write_table(str(path), records)
    assert rows == len(CELLS) * len(seeds)
    return path


def test_tabular_round_trip(tmp_path):
    path = oracle_table(tmp_path)
    table = TabularEvaluator.from_csv(str(path))
    want = SyntheticOracle().evaluate(make_request(seed=0))
    got = table.evaluate(make_request(seed=0))
    assert [(r.cell_key, r.accuracy) for r in got] == [
        (r.cell_key, r.accuracy) for r in want
    ]


def test_tabular_seed_indexes_stored_rows(tmp_path):
    table = TabularEvaluator.from_csv(str(oracle_table(tmp_path, seeds=(0, 1))))
    acc0 = table.evaluate(make_request(seed=0))[0].accuracy
    acc1 = table.evaluate(make_request(seed=1))[0].accuracy
    acc2 = table.evaluate(make_request(seed=2))[0].accuracy
    assert acc0 != acc1  # two stored rows
    assert acc2 == acc0  # wraps around: 2 % 2 == 0


def test_tabular_missing_cell_is_atomic(tmp_path):
    table = TabularEvaluator.from_csv(str(oracle_table(tmp_path)))
    extra = make_request(cells=CELLS + (parse_cell_key("1|0,0,1,0"),))
    with pytest.raises(TableLookupError, match="no entry for cell '1|0,0,1,0'"):
        table.evaluate(extra)


def test_write_table_dedups_and_sorts(tmp_path):
    rec = lambda key, seed, acc: EvalRecord(key, acc, seed)
    path = tmp_path / "t.csv"
    n = write_table(
        str(path),
        [
            rec("1|0,4,1,4", 0, 0.5),
            rec("1|0,4,1,4", 0, 0.9),  # duplicate (key, seed): first wins
            rec("1|0,0,1,0", 1, 0.7),
            EvalRecord("1|0,1,1,1", None, 0, error="x"),
        ],
    )
    assert n == 2
    lines = path.read_text().splitlines()
    assert lines == ["cell_key,seed,accuracy", "1|0,0,1,0,1,0.7", "1|0,4,1,4,0,0.5"]


@pytest.mark.parametrize(
    "body, needle",
    [
        ("oops,header,here\n", "missing cell_key,seed,accuracy header"),
        ("\n1|0,4,1,4,0,0.5\n", ":2: missing cell_key,seed,accuracy header"),
        ("cell_key,seed,accuracy\nonly,two\n", "expected 3 columns"),
        ("cell_key,seed,accuracy\nbad-key,0,0.5\n", "missing '|' separator"),
        ("cell_key,seed,accuracy\n1|0,4,1,4,0\n", "needs 4 comma-separated fields"),
        ("cell_key,seed,accuracy\n1|0,4,1,4,0,high\n", ":2:"),
        ("cell_key,seed,accuracy\n1|0,4,1,4,0,1.5\n", "outside [0, 1]"),
        ("", "empty"),
    ],
)
def test_tabular_parse_errors(tmp_path, body, needle):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(TableParseError) as err:
        TabularEvaluator.from_csv(str(path))
    assert needle in str(err.value)


def test_tabular_skips_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    for body in (
        "cell_key,seed,accuracy\n\n1|0,4,1,4,0,0.5\n\n",
        "\ncell_key,seed,accuracy\n1|0,4,1,4,0,0.5\n",  # blank line before the header
    ):
        path.write_text(body)
        table = TabularEvaluator.from_csv(str(path))
        assert table.rows == {"1|0,4,1,4": [(0, 0.5)]}


# --- subprocess backend ---


def inline_worker(code: str) -> list[str]:
    return [sys.executable, "-c", code]


def test_external_matches_synthetic():
    ext = ExternalEvaluator([sys.executable, ECHO_WORKER, "--sigma", "0.01"])
    got = ext.evaluate(make_request(seed=4))
    want = SyntheticOracle().evaluate(make_request(seed=4))
    assert [(r.cell_key, r.accuracy) for r in got] == [
        (r.cell_key, r.accuracy) for r in want
    ]


def test_external_accepts_out_of_order_responses():
    worker = inline_worker(
        "import json, sys\n"
        "reqs = []\n"
        "for line in sys.stdin:\n"
        "    msg = json.loads(line)\n"
        "    if msg.get('done'): break\n"
        "    reqs.append(msg)\n"
        "for msg in reversed(reqs):\n"
        "    print(json.dumps({'id': msg['id'], 'accuracy': int(msg['cell'][-1]) / 10}), flush=True)\n"
    )
    records = ExternalEvaluator(worker).evaluate(make_request())
    assert [(r.cell_key, r.accuracy) for r in records] == [
        (cell_key(c), int(cell_key(c)[-1]) / 10) for c in CELLS
    ]


def test_external_error_response_becomes_record():
    worker = inline_worker(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    msg = json.loads(line)\n"
        "    if msg.get('done'): break\n"
        "    print(json.dumps({'id': msg['id'], 'error': 'diverged'}), flush=True)\n"
    )
    records = ExternalEvaluator(worker).evaluate(make_request())
    assert all(r.error == "diverged" and r.accuracy is None for r in records)


def test_external_out_of_range_accuracy_becomes_record():
    worker = inline_worker(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    msg = json.loads(line)\n"
        "    if msg.get('done'): break\n"
        "    print(json.dumps({'id': msg['id'], 'accuracy': 1.5}), flush=True)\n"
    )
    records = ExternalEvaluator(worker).evaluate(make_request())
    assert all("outside [0, 1]" in r.error for r in records)


def test_external_malformed_line_raises():
    worker = inline_worker("print('not json at all')")
    with pytest.raises(WorkerProtocolError, match="non-JSON line"):
        ExternalEvaluator(worker).evaluate(make_request())


def test_external_protocol_error_kills_a_live_worker(tmp_path):
    pid_file = tmp_path / "worker.pid"
    worker = inline_worker(
        "import os, pathlib, time\n"
        f"pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\n"
        "print('garbage', flush=True)\n"
        "time.sleep(60)\n"
    )
    started = time.monotonic()
    with pytest.raises(WorkerProtocolError, match="non-JSON line"):
        ExternalEvaluator(worker).evaluate(make_request())
    assert time.monotonic() - started < 10
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)  # killed and reaped


def test_external_unknown_id_raises():
    worker = inline_worker("import json; print(json.dumps({'id': 999, 'accuracy': 0.5}))")
    with pytest.raises(WorkerProtocolError, match="unknown or duplicate id"):
        ExternalEvaluator(worker).evaluate(make_request())


@pytest.mark.parametrize("bad_id", ["[1]", "True", "1.0"])
def test_external_non_integer_id_raises(bad_id):
    # id 1 is pending, so an id that merely equals it must still be refused
    worker = inline_worker(f"import json; print(json.dumps({{'id': {bad_id}, 'accuracy': 0.5}}))")
    with pytest.raises(WorkerProtocolError, match="id is not an integer"):
        ExternalEvaluator(worker).evaluate(make_request())


def test_external_non_numeric_accuracy_raises():
    worker = inline_worker(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    msg = json.loads(line)\n"
        "    if msg.get('done'): break\n"
        "    print(json.dumps({'id': msg['id'], 'accuracy': 'high'}), flush=True)\n"
    )
    with pytest.raises(WorkerProtocolError, match="not a number"):
        ExternalEvaluator(worker).evaluate(make_request())


def test_external_respawns_after_partial_crash():
    # worker dies without answering every 2nd request; the client must
    # respawn it and resend only what is still pending
    ext = ExternalEvaluator(
        [sys.executable, ECHO_WORKER, "--sigma", "0", "--drop-every", "2"]
    )
    got = ext.evaluate(make_request(seed=0))
    oracle = SyntheticOracle(SyntheticOracleConfig(noise_sigma=0.0))
    assert [(r.cell_key, r.accuracy) for r in got] == [(cell_key(c), oracle.score(c)) for c in CELLS]


DUPLICATE_KEYS = ["1|0,4,1,4", "1|0,1,0,6", "1|0,4,1,4"]


@pytest.mark.parametrize("backend", ["synthetic", "tabular", "external"])
def test_records_follow_request_order_with_a_repeated_cell(tmp_path, backend):
    request = make_request(cells=[parse_cell_key(key) for key in DUPLICATE_KEYS], seed=3)
    if backend == "synthetic":
        evaluator = SyntheticOracle()
    elif backend == "tabular":
        evaluator = TabularEvaluator.from_csv(str(oracle_table(tmp_path, seeds=(3,))))
    else:
        # the worker dies at every 2nd request, so the repeated key is resent
        evaluator = ExternalEvaluator([sys.executable, ECHO_WORKER, "--drop-every", "2"])
    records = evaluator.evaluate(request)
    assert [r.cell_key for r in records] == DUPLICATE_KEYS
    assert records[0].accuracy == records[2].accuracy != records[1].accuracy
    want = SyntheticOracle().evaluate(request)
    assert [r.accuracy for r in records] == [r.accuracy for r in want]


def test_external_persistent_crash_exhausts_retries():
    ext = ExternalEvaluator(inline_worker("import sys; sys.exit(1)"))
    with pytest.raises(WorkerTransportError, match=f"unanswered after {WORKER_RETRIES} retries"):
        ext.evaluate(make_request())


def test_external_constructor_validation():
    with pytest.raises(ValueError, match="non-empty"):
        ExternalEvaluator([])


def test_external_missing_binary():
    with pytest.raises(WorkerTransportError, match="cannot start worker"):
        ExternalEvaluator(["/no/such/binary"]).evaluate(make_request())
