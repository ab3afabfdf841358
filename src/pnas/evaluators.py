"""Pluggable cell evaluators: synthetic oracle, tabular lookup, external worker.

Every backend maps an EvalRequest to one EvalRecord per requested cell,
in request order, so a caller pairs each cell it sent with its record by
position; a cell requested twice gets two equal records. Records are pure
functions of (request, backend configuration): repeated calls reproduce
identical accuracies, which is what makes traces replayable and backends
interchangeable.

The synthetic oracle has fixed weights: a cell scores
sigmoid(``ORACLE_BIAS`` + ``ORACLE_WEIGHTS`` . ``cell_features(cell)``),
plus seeded noise whose standard deviation, ``noise_sigma``, is its only
setting.

The external backend speaks line-delimited JSON over a worker subprocess's
stdin/stdout:

    request   {"id": int, "cell": "<cell key>", "epochs": int,
               "n": int, "f": int, "seed": int}
    response  {"id": int, "accuracy": float}
              or {"id": int, "error": "<message>"}

The client writes a batch's requests, then ``{"done": true}``, to a
temporary file that becomes the worker's stdin, so the worker may answer
while it reads; a conforming worker exits 0 after the last line.
Responses may arrive in any order and are re-associated by id. A response
whose accuracy falls outside [0, 1], or an explicit error response,
poisons only that record; a crashed worker is restarted and the
unanswered requests are resent, at most ``WORKER_RETRIES`` (2) times.
"""

from __future__ import annotations

import json
import subprocess
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .cells import CellSpec, Operator, cell_key, is_canonical, parse_cell_key, validate_cell
from .network import StackPlan
from .seeding import derive_seed


class EvaluatorError(RuntimeError):
    """Base class for evaluation-backend failures."""


class TableLookupError(EvaluatorError, LookupError):
    """A requested cell key is absent from the loaded benchmark table."""


class TableParseError(EvaluatorError, ValueError):
    """A benchmark table file is malformed."""


class WorkerTransportError(EvaluatorError):
    """The external worker died or stopped answering within the retry budget."""


class WorkerProtocolError(EvaluatorError):
    """The external worker sent something outside the line-JSON protocol."""


@dataclass(frozen=True)
class EvalRequest:
    """A batch of canonical cells to score under one training recipe."""

    cells: tuple[CellSpec, ...]
    epochs: int = 20
    plan: StackPlan = field(default_factory=StackPlan)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("evaluation request needs at least one cell")
        if self.epochs < 1:
            raise ValueError(f"proxy epochs must be >= 1, got {self.epochs}")
        for cell in self.cells:
            validate_cell(cell)
            if not is_canonical(cell):
                raise ValueError(f"evaluation requires canonical cells, got {cell_key(cell)}")


@dataclass(frozen=True)
class EvalRecord:
    """One measured (or failed) cell evaluation."""

    cell_key: str
    accuracy: float | None
    seed: int
    error: str | None = None

    def __post_init__(self) -> None:
        if self.error is None:
            if self.accuracy is None or not 0.0 <= self.accuracy <= 1.0:
                raise ValueError(f"accuracy {self.accuracy!r} outside [0, 1] for {self.cell_key}")
        elif self.accuracy is not None:
            raise ValueError("an error record cannot carry an accuracy")

    @property
    def ok(self) -> bool:
        return self.error is None


# Weights of the `cell_features` vector: the 8 operator utilities, then the
# depth, input-diversity and pooling terms. They were calibrated so that the
# level-1 mean sits near the historical one-block accuracy prior (~0.86)
# while deeper cells keep a wide, learnable spread: separable convolutions
# help, identity is filler, pooling is mildly harmful on top of its own low
# utility.
ORACLE_WEIGHTS = np.array([0.12, 0.15, 0.17, 0.08, -0.08, -0.04, -0.03, 0.02, 0.03, 0.03, -0.02])
ORACLE_BIAS = 1.69


@dataclass(frozen=True)
class SyntheticOracleConfig:
    noise_sigma: float = 0.01

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")


def cell_features(cell: CellSpec) -> np.ndarray:
    """Feature vector: 8 operator counts, depth, distinct inputs, pooling count."""
    counts = np.zeros(len(Operator))
    depths: list[int] = []
    inputs_used: set[int] = set()
    for block in cell:
        counts[block.o1] += 1
        counts[block.o2] += 1
        inputs_used.update((block.i1, block.i2))
        parent = 0
        for i in (block.i1, block.i2):
            parent = max(parent, 0 if i < 2 else depths[i - 2])
        depths.append(parent + 1)
    pools = counts[Operator.AVGPOOL3X3] + counts[Operator.MAXPOOL3X3]
    return np.concatenate([counts, [max(depths), len(inputs_used), pools]])


def _sigmoid(z: float) -> float:
    return float(1.0 / (1.0 + np.exp(-z)))


class SyntheticOracle:
    """Closed-form stand-in for proxy training: sigmoid(ORACLE_BIAS + ORACLE_WEIGHTS . features) + noise.

    The noise-free score is a deterministic function of the canonical cell;
    the noise term is a deterministic function of (cell_key, request seed),
    so any two processes agree on every accuracy.
    """

    def __init__(self, config: SyntheticOracleConfig | None = None) -> None:
        self.config = config or SyntheticOracleConfig()

    def score(self, cell: CellSpec) -> float:
        """Noise-free accuracy in (0, 1)."""
        return _sigmoid(ORACLE_BIAS + float(ORACLE_WEIGHTS @ cell_features(cell)))

    def noise(self, key: str, seed: int) -> float:
        if self.config.noise_sigma == 0.0:
            return 0.0
        rng = np.random.default_rng(derive_seed(seed, "noise", key))
        return float(rng.normal(0.0, self.config.noise_sigma))

    def noisy_accuracy(self, cell: CellSpec, seed: int, key: str | None = None) -> float:
        """Score plus noise, clipped to [0, 1]; `key` is the cell's key when the caller has built it."""
        return min(max(self.score(cell) + self.noise(key or cell_key(cell), seed), 0.0), 1.0)

    def evaluate(self, request: EvalRequest) -> list[EvalRecord]:
        seed = request.seed
        keys = [cell_key(cell) for cell in request.cells]
        return [EvalRecord(key, self.noisy_accuracy(cell, seed, key), seed) for cell, key in zip(request.cells, keys)]


TABLE_HEADER = ("cell_key", "seed", "accuracy")


class TabularEvaluator:
    """Accuracy lookup from a CSV benchmark table (``cell_key,seed,accuracy``).

    A request's accuracy for a cell with S stored rows is the row at index
    ``request.seed % S`` (rows kept in file order), so replaying a run
    against a dump of its own records reproduces it exactly.
    """

    def __init__(self, rows: dict[str, list[tuple[int, float]]]) -> None:
        if not rows:
            raise TableParseError("benchmark table is empty")
        self.rows = rows

    @classmethod
    def from_csv(cls, path: str) -> "TabularEvaluator":
        rows: dict[str, list[tuple[int, float]]] = {}
        header_seen = False
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if not header_seen:
                    if tuple(fields) != TABLE_HEADER:
                        raise TableParseError(f"{path}:{lineno}: missing {','.join(TABLE_HEADER)} header")
                    header_seen = True
                    continue
                # a key contains commas, so split from the right: last two
                # fields are seed and accuracy, the rest is the key
                if len(fields) < 3:
                    raise TableParseError(f"{path}:{lineno}: expected 3 columns")
                key = ",".join(fields[:-2])
                try:
                    parse_cell_key(key)
                    seed = int(fields[-2])
                    acc = float(fields[-1])
                except ValueError as exc:
                    raise TableParseError(f"{path}:{lineno}: {exc}") from None
                if not 0.0 <= acc <= 1.0:
                    raise TableParseError(f"{path}:{lineno}: accuracy {acc} outside [0, 1]")
                rows.setdefault(key, []).append((seed, acc))
        return cls(rows)

    def evaluate(self, request: EvalRequest) -> list[EvalRecord]:
        keys = [cell_key(cell) for cell in request.cells]
        missing = [k for k in dict.fromkeys(keys) if k not in self.rows]
        if missing:
            raise TableLookupError(
                f"benchmark table has no entry for cell {missing[0]!r}"
                + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else "")
            )
        seed = request.seed
        return [EvalRecord(key, self.rows[key][seed % len(self.rows[key])][1], seed) for key in keys]


def write_table(path: str, records: list[EvalRecord]) -> int:
    """Dump successful records as a benchmark table; returns row count.

    Rows are unique on (cell_key, seed), keeping the first accuracy seen,
    and sorted for stable files.
    """
    seen: dict[tuple[str, int], float] = {}
    for rec in records:
        if rec.ok and (rec.cell_key, rec.seed) not in seen:
            seen[(rec.cell_key, rec.seed)] = float(rec.accuracy)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TABLE_HEADER) + "\n")
        for (key, seed), acc in sorted(seen.items()):
            fh.write(f"{key},{seed},{acc!r}\n")
    return len(seen)


WORKER_RETRIES = 2  # restarts of a crashed worker per evaluation request


class ExternalEvaluator:
    """Delegates evaluation to a worker subprocess via line-delimited JSON."""

    def __init__(self, worker_cmd: list[str]) -> None:
        if not worker_cmd:
            raise ValueError("worker command must be non-empty")
        self.worker_cmd = list(worker_cmd)

    def evaluate(self, request: EvalRequest) -> list[EvalRecord]:
        keys = [cell_key(cell) for cell in request.cells]
        pending: dict[int, str] = dict(enumerate(keys))
        answers: dict[int, EvalRecord] = {}
        attempts = 0
        while pending:
            self._run_batch(request, pending, answers)
            if pending:
                attempts += 1
                if attempts > WORKER_RETRIES:
                    raise WorkerTransportError(
                        f"worker {self.worker_cmd[0]!r} left {len(pending)} of {len(keys)} "
                        f"requests unanswered after {WORKER_RETRIES} retries"
                    )
        return [answers[i] for i in range(len(keys))]

    def _run_batch(self, request: EvalRequest, pending: dict[int, str], answers: dict[int, EvalRecord]) -> None:
        lines = [
            json.dumps(
                {
                    "id": rid,
                    "cell": key,
                    "epochs": request.epochs,
                    "n": request.plan.n,
                    "f": request.plan.f,
                    "seed": request.seed,
                },
                sort_keys=True,
            )
            for rid, key in pending.items()
        ]
        lines.append(json.dumps({"done": True}))
        # a file, unlike a pipe, never fills, so the worker can answer while it reads
        with tempfile.TemporaryFile("w+") as feed:
            feed.writelines(line + "\n" for line in lines)
            feed.seek(0)
            try:
                proc = subprocess.Popen(self.worker_cmd, stdin=feed, stdout=subprocess.PIPE, text=True)
            except OSError as exc:
                raise WorkerTransportError(f"cannot start worker {self.worker_cmd!r}: {exc}") from exc
        assert proc.stdout is not None
        try:
            for raw in proc.stdout:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    msg = json.loads(raw)
                except json.JSONDecodeError:
                    raise WorkerProtocolError(f"worker sent a non-JSON line: {raw!r}")
                if not isinstance(msg, dict) or "id" not in msg:
                    raise WorkerProtocolError(f"worker response lacks an id: {raw!r}")
                rid = msg["id"]
                if type(rid) is not int:
                    raise WorkerProtocolError(f"worker response id is not an integer: {raw!r}")
                if rid not in pending:
                    raise WorkerProtocolError(f"worker answered unknown or duplicate id {rid}: {raw!r}")
                key = pending.pop(rid)
                if "error" in msg:
                    answers[rid] = EvalRecord(key, None, request.seed, str(msg["error"]))
                    continue
                acc = msg.get("accuracy")
                if not isinstance(acc, (int, float)) or isinstance(acc, bool):
                    raise WorkerProtocolError(f"worker accuracy is not a number: {raw!r}")
                acc = float(acc)
                if 0.0 <= acc <= 1.0:
                    answers[rid] = EvalRecord(key, acc, request.seed)
                else:
                    answers[rid] = EvalRecord(key, None, request.seed, f"accuracy {acc!r} outside [0, 1]")
        except BaseException:
            proc.kill()  # a worker still alive would block the wait below forever
            raise
        finally:
            try:
                proc.stdout.close()
            except OSError:
                pass
            proc.wait()
