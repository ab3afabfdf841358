"""JSON-lines traces and CSV/JSON summaries."""

import json
import os

import pytest

from pnas.traceio import (
    TraceWriter,
    read_trace,
    write_json,
    write_summary_csv,
)


def test_writer_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    events = [
        {"event": "eval", "level": 1, "cell_key": "1|0,4,1,4", "value": 0.5, "seed": 3},
        {"event": "fit", "level": 1, "cell_key": None, "value": "abc", "seed": 9},
    ]
    with TraceWriter(str(path)) as writer:
        for ev in events:
            writer.emit(ev)
    assert read_trace(str(path)) == events


def test_writer_is_canonical_and_flushed(tmp_path):
    path = tmp_path / "trace.jsonl"
    writer = TraceWriter(str(path))
    writer.emit({"b": 2, "a": 1})
    # visible on disk before close, keys sorted, compact separators
    assert path.read_text() == '{"a":1,"b":2}\n'
    writer.close()


def test_read_trace_rejects_bad_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"ok":1}\nnot json\n')
    with pytest.raises(ValueError, match="trace.jsonl:2: not valid JSON"):
        read_trace(str(path))


def test_read_trace_drops_torn_last_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"ok":1}\n{"ok":')  # a crash mid-write
    assert read_trace(str(path)) == [{"ok": 1}]


def test_read_trace_rejects_bad_earlier_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('not json\n{"ok":1}')
    with pytest.raises(ValueError, match="trace.jsonl:1: not valid JSON"):
        read_trace(str(path))


def test_read_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('\n{"ok":1}\n\n')
    assert read_trace(str(path)) == [{"ok": 1}]


def test_summary_csv_unions_late_columns(tmp_path):
    path = tmp_path / "summary.csv"
    rows = [
        {"models": 1, "top1": 0.5},
        {"models": 2, "top1": 0.6, "top2": 0.55},
    ]
    write_summary_csv(str(path), rows)
    assert path.read_text() == "models,top1,top2\n1,0.5,\n2,0.6,0.55\n"


def test_summary_csv_explicit_field_order(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(str(path), [{"a": 1, "b": 2}], field_order=["b", "a"])
    assert path.read_text() == "b,a\n2,1\n"


def test_summary_csv_floats_round_trip(tmp_path):
    path = tmp_path / "summary.csv"
    value = 0.1 + 0.2  # 0.30000000000000004
    write_summary_csv(str(path), [{"x": value}])
    text = path.read_text().splitlines()[1]
    assert float(text) == value


def test_summary_csv_needs_rows(tmp_path):
    with pytest.raises(ValueError, match="at least one row"):
        write_summary_csv(str(tmp_path / "s.csv"), [])


def test_write_json_stable(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"b": 1, "a": [1, 2]})
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [1, 2], "b": 1}
    assert text.index('"a"') < text.index('"b"')


def test_write_json_failure_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    write_json(str(path), {"status": "running"})
    before = path.read_bytes()

    def torn_dump(payload, fh, **kwargs):
        fh.write('{"status": "comp')
        raise KeyboardInterrupt  # a kill in the middle of the write

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(KeyboardInterrupt):
        write_json(str(path), {"status": "completed"})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["manifest.json"]


def test_write_json_onto_a_directory_leaves_no_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        write_json(str(target), {"a": 1})
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []
