"""Trace and summary persistence.

Traces are JSON-lines: one event dict per line, keys sorted, compact
separators, flushed per line. Serialization is canonical, so two runs
with the same configuration produce byte-identical files, and a crash
loses at most the line being written. JSON documents (manifests,
reports, graphs) replace their earlier version atomically.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import suppress
from typing import Sequence


class TraceWriter:
    """Append-only JSON-lines writer; the single serialization point of a run."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8", newline="\n")

    def emit(self, event: dict) -> None:
        self._fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: str) -> list[dict]:
    """Events in file order.

    A last line without its newline that does not parse is the torn write
    of a crashed run and is dropped; any other bad line raises ValueError.
    """
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                events.append(json.loads(text))
            except json.JSONDecodeError as exc:
                if not line.endswith("\n"):
                    break
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
    return events


def write_summary_csv(path: str, rows: Sequence[dict], field_order: Sequence[str] | None = None) -> None:
    """Dict rows to CSV; column order is the first row's key order unless given."""
    if not rows:
        raise ValueError("summary needs at least one row")
    if field_order is not None:
        fields = list(field_order)
    else:
        fields = []  # rows may grow columns (top-M points appear once M models exist)
        for row in rows:
            fields.extend(key for key in row if key not in fields)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n", extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _plain(row.get(key)) for key in fields})


def _plain(value):
    if isinstance(value, float):
        return repr(value)  # shortest round-trip form
    return value


def write_json(path: str, payload: dict) -> None:
    """Write `payload` as indented JSON with sorted keys, replacing `path` atomically.

    The document goes to a temporary file next to `path`, which then
    replaces it, so a process killed mid-write leaves the earlier file
    whole. On any error the temporary file is removed.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
