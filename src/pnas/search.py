"""Progressive beam search over cells guided by a learned accuracy surrogate.

The search proceeds level by level. Level 1 evaluates every unique
one-block cell. Each later level b expands the current beam by every
canonical b-th block, scores all children with the surrogate, keeps the
top K by predicted accuracy (ties broken by cell key), evaluates them,
and refits the surrogate from scratch on everything measured so far.
The refit exists to score the next level's children, so it follows every
level but the last: a B-level search emits B - 1 ``fit`` events, and a
one-level search fits nothing.

Children are never built one tuple at a time. The beam and the canonical
blocks become integer arrays, and their cross product is scored as
(n, b, 4) ``uint8`` id arrays in chunks of whole parent expansions, at
most ``CHUNK_SIZE`` children each (one parent per chunk when a single
expansion is larger). The children need no range check of their own:
each is a beam cell, checked when ``cell_key`` keyed it, plus one of
``canonical_blocks(b)``. The surrogate receives every child; an MLP
surrogate runs its forward pass once per distinct slot-count row of the
chunk and gathers the scores back. The K-th best score is found with
``np.partition``; only the children at or above it, exact ties included,
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

from dataclasses import dataclass
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
)
from .evaluators import EvalRecord, EvalRequest, EvaluatorError, SyntheticOracle
from .metrics import top_m_curve
from .network import StackPlan
from .predictors import PREDICTORS, ensemble_fit, new_predictor, snapshot_id
from .seeding import derive_seed

# each predictor alone, each as a bagged ensemble, and the noise-free oracle
PREDICTOR_KINDS = (*PREDICTORS, *(f"{kind}-ens" for kind in PREDICTORS), "perfect")
CHUNK_SIZE = 32_768

# examples consumed per proxy-training epoch (train split of the image
# benchmark); budget arithmetic only, nothing is actually trained
EXAMPLES_PER_EPOCH = 45_000


class NoSuccessfulEvaluationError(EvaluatorError):
    """Every evaluation of a level failed, so nothing can be fitted or summarized."""


@dataclass(frozen=True)
class SearchConfig:
    b_max: int = 5
    beam_size: int = 256
    epochs: int = EvalRequest.epochs
    filters: int = StackPlan.f
    cell_repeats: int = StackPlan.n
    predictor: str = "mlp-ens"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.b_max <= B_MAX:
            raise ValueError(f"b_max must be in [1, {B_MAX}], got {self.b_max}")
        for name in ("beam_size", "epochs", "filters", "cell_repeats"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.predictor not in PREDICTOR_KINDS:
            raise ValueError(f"predictor must be one of {PREDICTOR_KINDS}, got {self.predictor!r}")

    @property
    def examples_per_model(self) -> int:
        return self.epochs * EXAMPLES_PER_EPOCH

    @property
    def plan(self) -> StackPlan:
        """The stack every evaluated cell is built into."""
        return StackPlan(n=self.cell_repeats, f=self.filters)


@dataclass(frozen=True)
class LevelResult:
    """One level's evaluation records, in evaluation order, and the surrogate's predictions for them.

    A progressive level is ordered by cell key; a random-search level keeps
    sample order. ``predicted[i]`` is the score that selected the cell of
    ``records[i]``; level 1 and random search select nothing, and hold None.
    ``keys`` and ``measured`` read the records.
    """

    level: int
    records: tuple[EvalRecord, ...]
    predicted: tuple[float, ...] | None

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(rec.cell_key for rec in self.records)

    @property
    def measured(self) -> tuple[float | None, ...]:
        return tuple(rec.accuracy for rec in self.records)

    def best(self) -> tuple[str, float]:
        """Highest measured accuracy, ties to the smallest key."""
        scored = [(-acc, key) for key, acc in zip(self.keys, self.measured) if acc is not None]
        if not scored:
            raise ValueError(f"level {self.level} has no successful evaluations")
        neg, key = min(scored)
        return key, -neg


@dataclass(frozen=True)
class SearchTrace:
    """The levels of a finished search; its records are theirs, joined in evaluation order."""

    levels: tuple[LevelResult, ...]

    @property
    def records(self) -> tuple[EvalRecord, ...]:
        return tuple(rec for level in self.levels for rec in level.records)

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

    def __init__(self, kind: str, seed: int) -> None:
        if kind not in PREDICTOR_KINDS or kind == "perfect":
            raise ValueError(f"learned surrogate kind must be one of {PREDICTOR_KINDS[:-1]}, got {kind!r}")
        self.bagged = kind.endswith("-ens")
        self.kind = kind.removesuffix("-ens")
        self.seed = seed
        self.model = None

    def update(self, cells, accuracies, level: int) -> str:
        seed = derive_seed(self.seed, "refit", level)
        if self.bagged:
            self.model = ensemble_fit(cells, accuracies, self.kind, seed, level)
        else:
            model = new_predictor(self.kind, seed)
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


def make_surrogate(kind: str, seed: int, evaluator=None):
    if kind == "perfect":
        if not isinstance(evaluator, SyntheticOracle):
            raise ValueError("the perfect surrogate needs the synthetic evaluator as its oracle")
        return OracleSurrogate(evaluator)
    return ModelSurrogate(kind, seed)


def _emit(writer, **event) -> None:
    if writer is not None:
        writer.emit(event)


def _evaluate(evaluator, cells, level, config: SearchConfig, writer) -> list[EvalRecord]:
    request = EvalRequest(
        cells=tuple(cells), epochs=config.epochs, plan=config.plan, seed=search_seeds(config.seed)["eval"]
    )
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

    `parents` is a (p, b-1, 4) array of checked cells and `blocks` an (m, 4)
    array of canonical blocks of position b. Each chunk holds as many whole
    expansions as fit in `chunk_size` children, and at least one; the
    surrogate gets each as a ``uint8`` id array, which every id fits.
    """
    m = len(blocks)
    per_chunk = max(1, chunk_size // m)
    scores = np.empty(len(parents) * m)
    for start in range(0, len(parents), per_chunk):
        group = parents[start : start + per_chunk]
        children = np.empty((len(group), m, group.shape[1] + 1, 4), dtype=np.uint8)
        children[:, :, :-1] = group[:, None]
        children[:, :, -1] = blocks
        children = children.reshape(len(group) * m, -1, 4)
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


def search_seeds(seed: int) -> dict[str, int]:
    """The named seeds a search derives from its master seed; the manifest records the same dict."""
    return {
        "master": seed,
        "eval": derive_seed(seed, "eval"),
        "predictor": derive_seed(seed, "predictor"),
        "random_search": derive_seed(seed, "random-search"),
    }


def pnas_search(config: SearchConfig, evaluator, writer=None) -> SearchTrace:
    """Run the progressive search and return its full trace.

    The surrogate is refit after every level but the last, whose model
    nothing would query: the search ends with the best cell of level B.
    An evaluator exception propagates unchanged; everything emitted to the
    writer before the failure is already flushed, so the partial trace
    survives on disk.
    """
    predictor_seed = search_seeds(config.seed)["predictor"]
    surrogate = make_surrogate(config.predictor, predictor_seed, evaluator)

    beam = sorted(one_block_cells(), key=cell_key)
    train_cells: list[CellSpec] = []
    train_accs: list[float] = []
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

            scores = score_children(surrogate, np.asarray(beam), np.asarray(blocks), CHUNK_SIZE)
            best = top_children(scores, beam, blocks, config.beam_size)
            chosen = sorted(best, key=lambda entry: entry[1])  # by cell key, the order the level is evaluated in
            for neg, key, _ in chosen:
                _emit(writer, event="predict", level=b, cell_key=key, value=-neg, seed=config.seed)
            for rank, (_, key, _) in enumerate(best, start=1):
                _emit(writer, event="select", level=b, cell_key=key, value=rank, seed=config.seed)
            beam = [cell for _, _, cell in chosen]
            predicted = tuple(-neg for neg, _, _ in chosen)

        records = _evaluate(evaluator, beam, b, config, writer)
        _check_some_succeeded(records, b)
        levels.append(LevelResult(b, tuple(records), predicted))
        if b == config.b_max:
            break  # nothing is expanded past the last level, so a refit there would go unread
        # failed evaluations keep their budget slot but never train the surrogate
        for cell, rec in zip(beam, records):
            if rec.ok:
                train_cells.append(cell)
                train_accs.append(rec.accuracy)
        snapshot = surrogate.update(train_cells, np.asarray(train_accs), b)
        _emit(writer, event="fit", level=b, cell_key=None, value=snapshot, seed=predictor_seed)

    return SearchTrace(levels=tuple(levels))


def random_search(config: SearchConfig, count: int, evaluator, writer=None) -> SearchTrace:
    """Uniformly sample `count` cells of exactly `config.b_max` blocks and evaluate all.

    Cells are drawn block by block over the raw space and canonicalized, so
    duplicates can occur, exactly like independent uniform draws. All draws
    are sent as one evaluation request, and records stay in sample order so
    running top-M statistics read off the trace. The beam size and the
    predictor of `config` play no part.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(search_seeds(config.seed)["random_search"])
    cells = [random_cell(config.b_max, rng) for _ in range(count)]
    records = _evaluate(evaluator, cells, config.b_max, config, writer)
    _check_some_succeeded(records, config.b_max)
    return SearchTrace(levels=(LevelResult(config.b_max, tuple(records), None),))
