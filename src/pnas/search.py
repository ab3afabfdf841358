"""Progressive beam search over cells guided by a learned accuracy surrogate.

The search proceeds level by level. Level 1 evaluates every unique
one-block cell. Each later level b expands the current beam by every
canonical b-th block, scores all children with the surrogate, keeps the
top K by predicted accuracy (ties broken by cell key), evaluates them,
and refits the surrogate from scratch on everything measured so far.

Children are never built one tuple at a time. The beam and the canonical
blocks become integer arrays, and their cross product is scored as
(n, b, 4) id arrays in chunks of whole parent expansions (one parent per
chunk when a single expansion is larger than the chunk size), after one
vectorised range check per chunk. The surrogate receives every child;
an MLP surrogate runs its forward pass once per distinct slot-count row
of the chunk and gathers the scores back. The K-th best score is found
with ``np.partition``; only the children at or above it, exact ties included,
get a cell key, and those are ordered by (-predicted, key). The beam is
therefore exactly the one a full sort by (-predicted, key) gives.

Because canonicalization acts inside a block and never reorders blocks,
two distinct canonical parents can never expand to the same child, so
per-parent deduplication (restricting to canonical blocks) is exhaustive.
Each level's ``expand`` event reports the raw candidate count
(every operator and input combination before within-block ordering) next
to the deduplicated one.

Evaluators answer in request order, so each measured accuracy is paired
with the cell that was sent for it, and that pair is what the surrogate
trains on. Each level is sent as one evaluation request, and so is the
random baseline's whole set of draws.

A trace writer, when given, receives one JSON-serializable dict per
event; events carry no wall-clock fields, so equal configurations
reproduce traces byte for byte. A level whose evaluations all fail
stops the run with ``NoSuccessfulEvaluationError``, after its eval
events are written.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cells import (
    B_MAX,
    BlockSpec,
    CellSpec,
    canonical_blocks,
    cell_key,
    one_block_cells,
    random_cell,
    validate_cell_array,
)
from .evaluators import EvalRecord, EvalRequest, EvaluatorError, SyntheticOracle
from .metrics import top_m_curve
from .network import StackPlan
from .predictors import PredictorConfig, ensemble_fit, new_predictor, snapshot_id
from .seeding import derive_seed

PREDICTOR_KINDS = ("mlp", "rnn", "mlp-ens", "rnn-ens", "perfect")

# examples consumed per proxy-training epoch (train split of the image
# benchmark); budget arithmetic only, nothing is actually trained
EXAMPLES_PER_EPOCH = 45_000


class NoSuccessfulEvaluationError(EvaluatorError):
    """Every evaluation of a level failed, so nothing can be fitted or summarized."""


@dataclass(frozen=True)
class SearchConfig:
    b_max: int = 5
    beam_size: int = 256
    epochs: int = 20
    filters: int = 24
    cell_repeats: int = 2
    predictor: str = "mlp-ens"
    seed: int = 0
    chunk_size: int = 32_768

    def __post_init__(self) -> None:
        if not 1 <= self.b_max <= B_MAX:
            raise ValueError(f"b_max must be in [1, {B_MAX}], got {self.b_max}")
        for name in ("beam_size", "epochs", "filters", "cell_repeats", "chunk_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.predictor not in PREDICTOR_KINDS:
            raise ValueError(f"predictor must be one of {PREDICTOR_KINDS}, got {self.predictor!r}")

    @property
    def examples_per_model(self) -> int:
        return self.epochs * EXAMPLES_PER_EPOCH


@dataclass(frozen=True)
class LevelResult:
    """Evaluated candidate set of one level, in evaluation order.

    A progressive level is ordered by cell key; a random-search level keeps
    sample order.
    """

    level: int
    keys: tuple[str, ...]
    predicted: tuple[float, ...] | None
    measured: tuple[float | None, ...]

    def best(self) -> tuple[str, float]:
        """Highest measured accuracy, ties to the smallest key."""
        scored = [(-acc, key) for key, acc in zip(self.keys, self.measured) if acc is not None]
        if not scored:
            raise ValueError(f"level {self.level} has no successful evaluations")
        neg, key = min(scored)
        return key, -neg


@dataclass(frozen=True)
class SearchTrace:
    levels: tuple[LevelResult, ...]
    records: tuple[EvalRecord, ...]

    @property
    def m1(self) -> int:
        """Models evaluated, failed ones included."""
        return len(self.records)

    def best(self) -> tuple[str, float]:
        """Best measured cell of the final level."""
        return self.levels[-1].best()

    def best_per_level(self) -> list[tuple[int, str, float]]:
        return [(lv.level, *lv.best()) for lv in self.levels]

    def accuracies(self) -> list[float]:
        """Successful accuracies in evaluation order."""
        return [rec.accuracy for rec in self.records if rec.ok]


def compute_cost(m1: int, e1: int, m2: int = 0, e2: int = 0) -> int:
    """Total examples processed: M1*E1 + M2*E2, exact integer arithmetic."""
    return int(m1) * int(e1) + int(m2) * int(e2)


def plan_budget(b_max: int, beam_size: int) -> list[int]:
    """Models evaluated per level, without running anything.

    Level 1 is the full set of unique one-block cells; each later level
    keeps at most beam_size of its deduplicated expansions.
    """
    if not 1 <= b_max <= B_MAX:
        raise ValueError(f"b_max must be in [1, {B_MAX}], got {b_max}")
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    sizes = [len(canonical_blocks(1))]
    for b in range(2, b_max + 1):
        sizes.append(min(beam_size, sizes[-1] * len(canonical_blocks(b))))
    return sizes


def top_m_table(trace: SearchTrace, m_values: Sequence[int] = (1, 5, 25)) -> list[dict]:
    """Running mean-of-best-M accuracy rows for a finished trace."""
    return top_m_curve(trace.accuracies(), m_values)


class ModelSurrogate:
    """Learned predictor (single or 5-member bag), refit from scratch on update."""

    def __init__(self, kind: str, seed: int, base: PredictorConfig | None = None) -> None:
        if kind not in PREDICTOR_KINDS or kind == "perfect":
            raise ValueError(f"learned surrogate kind must be one of {PREDICTOR_KINDS[:-1]}, got {kind!r}")
        self.bagged = kind.endswith("-ens")
        base = base or PredictorConfig(kind=kind.removesuffix("-ens"))
        if base.kind != kind.removesuffix("-ens"):
            raise ValueError(f"base config kind {base.kind!r} does not match surrogate kind {kind!r}")
        self.base = base
        self.seed = seed
        self.model = None

    def update(self, cells, accuracies, level: int) -> str:
        config = replace(self.base, seed=derive_seed(self.seed, "refit", level))
        if self.bagged:
            self.model = ensemble_fit(cells, accuracies, config, level)
        else:
            model = new_predictor(config)
            model.fit(cells, np.asarray(accuracies, dtype=float), level)
            self.model = model
        return snapshot_id(self.model)

    def predict(self, cells) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("surrogate queried before its first update")
        return self.model.predict(cells)


class OracleSurrogate:
    """Noise-free oracle passthrough; update is a no-op."""

    def __init__(self, oracle: SyntheticOracle) -> None:
        self.oracle = oracle

    def update(self, cells, accuracies, level: int) -> str:
        return "perfect"

    def predict(self, cells) -> np.ndarray:
        if isinstance(cells, np.ndarray):
            cells = [tuple(BlockSpec._make(block) for block in cell) for cell in cells.tolist()]
        return np.asarray([self.oracle.score(cell) for cell in cells])


def make_surrogate(kind: str, seed: int, evaluator=None, base: PredictorConfig | None = None):
    if kind == "perfect":
        if not isinstance(evaluator, SyntheticOracle):
            raise ValueError("the perfect surrogate needs the synthetic evaluator as its oracle")
        return OracleSurrogate(evaluator)
    return ModelSurrogate(kind, seed, base)


def _emit(writer, **event) -> None:
    if writer is not None:
        writer.emit(event)


def _evaluate(evaluator, cells, level, epochs, plan, eval_seed, writer) -> list[EvalRecord]:
    request = EvalRequest(cells=tuple(cells), epochs=epochs, plan=plan, seed=eval_seed)
    records = evaluator.evaluate(request)
    for rec in records:
        event = {"event": "eval", "level": level, "cell_key": rec.cell_key, "value": rec.accuracy, "seed": rec.seed}
        if rec.error is not None:
            event["error"] = rec.error
        _emit(writer, **event)
    return records


def _check_some_succeeded(records: list[EvalRecord], level: int) -> None:
    if not any(rec.ok for rec in records):
        raise NoSuccessfulEvaluationError(f"level {level}: none of its {len(records)} evaluations succeeded")


def score_children(surrogate, parents: np.ndarray, blocks: np.ndarray, chunk_size: int) -> np.ndarray:
    """Scores of every parent + block child, parent-major.

    `parents` is a (p, b-1, 4) and `blocks` an (m, 4) id array. Each chunk
    holds as many whole expansions as fit in `chunk_size` children, and at
    least one.
    """
    m = len(blocks)
    per_chunk = max(1, chunk_size // m)
    scores = np.empty(len(parents) * m)
    for start in range(0, len(parents), per_chunk):
        group = parents[start : start + per_chunk]
        children = np.empty((len(group), m, group.shape[1] + 1, 4), dtype=np.intp)
        children[:, :, :-1] = group[:, None]
        children[:, :, -1] = blocks
        children = children.reshape(len(group) * m, -1, 4)
        validate_cell_array(children)
        scores[start * m : start * m + len(children)] = surrogate.predict(children)
    return scores


def top_children(scores: np.ndarray, beam: list[CellSpec], blocks, k: int) -> list[tuple[float, str, CellSpec]]:
    """The k best (-predicted, key, cell) of beam x blocks, in that order.

    Keys are built only for children scoring at least the k-th best score.
    """
    contenders = np.arange(len(scores))
    if len(scores) > k:
        cutoff = np.partition(scores, len(scores) - k)[len(scores) - k]
        contenders = np.flatnonzero(scores >= cutoff)
    ranked = []
    for index in contenders.tolist():
        parent, block = divmod(index, len(blocks))
        child = beam[parent] + (blocks[block],)
        ranked.append((-float(scores[index]), cell_key(child), child))
    ranked.sort()
    return ranked[:k]


def _level_result(level: int, records: list[EvalRecord], predicted: dict[str, float] | None) -> LevelResult:
    keys = tuple(rec.cell_key for rec in records)
    return LevelResult(
        level=level,
        keys=keys,
        predicted=None if predicted is None else tuple(predicted[k] for k in keys),
        measured=tuple(rec.accuracy for rec in records),
    )


def search_seeds(seed: int) -> dict[str, int]:
    """The named seeds a search derives from its master seed; the manifest records the same dict."""
    return {
        "master": seed,
        "eval": derive_seed(seed, "eval"),
        "predictor": derive_seed(seed, "predictor"),
        "random_search": derive_seed(seed, "random-search"),
    }


def pnas_search(config: SearchConfig, evaluator, writer=None, predictor_config: PredictorConfig | None = None) -> SearchTrace:
    """Run the progressive search and return its full trace.

    An evaluator exception propagates unchanged; everything emitted to the
    writer before the failure is already flushed, so the partial trace
    survives on disk.
    """
    plan = StackPlan(n=config.cell_repeats, f=config.filters)
    seeds = search_seeds(config.seed)
    eval_seed, predictor_seed = seeds["eval"], seeds["predictor"]
    surrogate = make_surrogate(config.predictor, predictor_seed, evaluator, predictor_config)

    beam = sorted(one_block_cells(), key=cell_key)
    train_cells: list[CellSpec] = []
    train_accs: list[float] = []
    all_records: list[EvalRecord] = []
    levels: list[LevelResult] = []

    for b in range(1, config.b_max + 1):
        predicted = None
        if b > 1:
            blocks = canonical_blocks(b)
            _emit(
                writer,
                event="expand",
                level=b,
                cell_key=None,
                value={"raw": len(beam) * (b + 1) * (b + 1) * 64, "unique": len(beam) * len(blocks)},
                seed=config.seed,
            )

            scores = score_children(surrogate, np.asarray(beam), np.asarray(blocks), config.chunk_size)
            best = top_children(scores, beam, blocks, config.beam_size)

            predicted = {key: -neg for neg, key, _ in best}
            for key in sorted(predicted):
                _emit(writer, event="predict", level=b, cell_key=key, value=predicted[key], seed=config.seed)
            for rank, (_, key, _) in enumerate(best, start=1):
                _emit(writer, event="select", level=b, cell_key=key, value=rank, seed=config.seed)
            beam = sorted((cell for _, _, cell in best), key=cell_key)

        records = _evaluate(evaluator, beam, b, config.epochs, plan, eval_seed, writer)
        # failed evaluations keep their budget slot but never train the surrogate
        all_records.extend(records)
        for cell, rec in zip(beam, records):
            if rec.ok:
                train_cells.append(cell)
                train_accs.append(rec.accuracy)
        _check_some_succeeded(records, b)
        snapshot = surrogate.update(train_cells, np.asarray(train_accs), b)
        _emit(writer, event="fit", level=b, cell_key=None, value=snapshot, seed=predictor_seed)
        levels.append(_level_result(b, records, predicted))

    return SearchTrace(levels=tuple(levels), records=tuple(all_records))


def random_search(
    count: int,
    b_max: int,
    evaluator,
    seed: int,
    epochs: int = 20,
    filters: int = 24,
    cell_repeats: int = 2,
    writer=None,
) -> SearchTrace:
    """Uniformly sample `count` cells of exactly b_max blocks and evaluate all.

    Cells are drawn block by block over the raw space and canonicalized, so
    duplicates can occur, exactly like independent uniform draws. All draws
    are sent as one evaluation request, and records stay in sample order so
    running top-M statistics read off the trace.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 1 <= b_max <= B_MAX:
        raise ValueError(f"b_max must be in [1, {B_MAX}], got {b_max}")
    plan = StackPlan(n=cell_repeats, f=filters)
    seeds = search_seeds(seed)
    rng = np.random.default_rng(seeds["random_search"])
    cells = [random_cell(b_max, rng) for _ in range(count)]
    records = _evaluate(evaluator, cells, b_max, epochs, plan, seeds["eval"], writer)
    _check_some_succeeded(records, b_max)
    return SearchTrace(levels=(_level_result(b_max, records, None),), records=tuple(records))
