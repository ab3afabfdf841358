"""Rank-correlation harness for the accuracy predictors.

Builds one random pool of distinct cells per level (level 1 is the full
set of unique one-block cells), measures every pool once, then for each
trial draws a training sample per level, fits a fresh predictor on it,
and records two Spearman coefficients: the within-level fit quality on
the training sample and the extrapolation quality on the entire pool one
block larger. Coefficients are computed per trial and summarized by their
mean across trials.

Sample draws are shared across predictor kinds (the seed depends on trial
and level only), so kinds are compared on identical training sets.

Each (kind, level, trial) is one independent job: draw the sample, fit
the surrogate, predict the sample and the pool one level up. The jobs run
through ``predictors.fork_map`` in forked worker processes, which read
the pools and measured accuracies from the parent's pages and send back
the sample indices and the two prediction vectors. An ensemble's members
then fit inside the job's worker, since forks never nest. Every
``spearman`` call runs in the parent, in kind, level and trial order. A
job depends only on its seeds and the pools, so the report is
bit-identical whatever the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import B_MAX, CellSpec, cell_key, one_block_cells, random_cell
from .evaluators import EvalRequest
from .metrics import spearman
from .network import StackPlan
from .predictors import PredictorConfig, fork_map
from .search import PREDICTOR_KINDS, make_surrogate
from .seeding import derive_seed

TRAINED_KINDS = tuple(kind for kind in PREDICTOR_KINDS if kind != "perfect")


@dataclass(frozen=True)
class HarnessConfig:
    """Full-scale defaults: 20 trials of 256 samples against pools of 10000."""

    trials: int = 20
    sample_size: int = 256
    pool_size: int = 10_000
    b_max: int = 5
    kinds: tuple[str, ...] = TRAINED_KINDS
    epochs: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_size > self.pool_size:
            raise ValueError(
                f"sample_size {self.sample_size} exceeds pool_size {self.pool_size}"
            )
        for name in ("trials", "sample_size", "pool_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 2 <= self.b_max <= B_MAX:
            raise ValueError(f"b_max must be in [2, {B_MAX}], got {self.b_max}")
        if not self.kinds:
            raise ValueError("need at least one predictor kind")
        for kind in self.kinds:
            if kind not in PREDICTOR_KINDS:
                raise ValueError(f"unknown predictor kind {kind!r}")


@dataclass(frozen=True)
class CorrelationReport:
    """Per-trial and mean Spearman coefficients, keyed by (kind, level)."""

    kinds: tuple[str, ...]
    levels: tuple[int, ...]
    fit: dict[tuple[str, int], tuple[float, ...]]
    extrapolate: dict[tuple[str, int], tuple[float, ...]]

    def mean_fit(self, kind: str, level: int) -> float:
        return float(np.mean(self.fit[(kind, level)]))

    def mean_extrapolate(self, kind: str, level: int) -> float:
        """Mean extrapolation coefficient at level + 1, for the fit at `level`."""
        return float(np.mean(self.extrapolate[(kind, level)]))


def distinct_random_cells(count: int, b: int, seed: int) -> list[CellSpec]:
    """Uniform draws rejected on repeated keys until `count` distinct cells."""
    rng = np.random.default_rng(seed)
    cells: list[CellSpec] = []
    seen: set[str] = set()
    attempts = 0
    while len(cells) < count:
        attempts += 1
        if attempts > 200 * count:
            raise ValueError(
                f"could not draw {count} distinct cells with {b} blocks; the level"
                " may not contain that many unique cells"
            )
        cell = random_cell(b, rng)
        key = cell_key(cell)
        if key not in seen:
            seen.add(key)
            cells.append(cell)
    return cells


def _measure(evaluator, cells, config: HarnessConfig, eval_seed: int) -> np.ndarray:
    request = EvalRequest(cells=tuple(cells), epochs=config.epochs, plan=StackPlan(), seed=eval_seed)
    records = evaluator.evaluate(request)
    for rec in records:
        if not rec.ok:
            raise ValueError(f"harness pools need every cell measured; {rec.cell_key!r} failed")
    return np.asarray([rec.accuracy for rec in records])


def harness_seeds(config: HarnessConfig) -> dict:
    """The named seeds a harness run derives from its master seed; the manifest records the same dict."""
    return {
        "master": config.seed,
        "eval": derive_seed(config.seed, "eval"),
        "pools": {b: derive_seed(config.seed, "pool", b) for b in range(2, config.b_max + 1)},
    }


def predictor_harness(config: HarnessConfig, evaluator, base: PredictorConfig | None = None) -> CorrelationReport:
    """Measure within-level and one-level-up rank correlations per predictor kind."""
    seeds = harness_seeds(config)
    pools: dict[int, list[CellSpec]] = {1: sorted(one_block_cells(), key=cell_key)}
    for b, pool_seed in seeds["pools"].items():
        pools[b] = distinct_random_cells(config.pool_size, b, pool_seed)
    measured = {b: _measure(evaluator, pools[b], config, seeds["eval"]) for b in pools}

    levels = tuple(range(1, config.b_max))
    jobs = [(kind, b, t) for kind in config.kinds for b in levels for t in range(config.trials)]

    def fit_job(job: tuple[str, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The job's sample indices, and its fresh surrogate's predictions on the sample and on pool b + 1."""
        kind, b, t = job
        draw = np.random.default_rng(derive_seed(config.seed, "sample", t, b))
        idx = draw.choice(len(pools[b]), size=min(config.sample_size, len(pools[b])), replace=False)
        sample = [pools[b][i] for i in idx]
        surrogate = make_surrogate(kind, derive_seed(config.seed, "predictor", kind, t, b), evaluator, base)
        surrogate.update(sample, measured[b][idx], b)
        return idx, surrogate.predict(sample), surrogate.predict(pools[b + 1])

    results = iter(fork_map(fit_job, jobs, label="a harness worker"))
    fit: dict[tuple[str, int], tuple[float, ...]] = {}
    extrapolate: dict[tuple[str, int], tuple[float, ...]] = {}
    for kind in config.kinds:
        for b in levels:
            fit_trials: list[float] = []
            ext_trials: list[float] = []
            for _ in range(config.trials):
                idx, on_sample, on_pool = next(results)
                fit_trials.append(spearman(on_sample, measured[b][idx]))
                ext_trials.append(spearman(on_pool, measured[b + 1]))
            fit[(kind, b)] = tuple(fit_trials)
            extrapolate[(kind, b)] = tuple(ext_trials)
    return CorrelationReport(kinds=config.kinds, levels=levels, fit=fit, extrapolate=extrapolate)
