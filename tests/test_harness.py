"""Rank-correlation harness for comparing predictor kinds."""

import multiprocessing
import os

import numpy as np
import pytest

import pnas.harness
from pnas.cells import cell_key, count_space, random_cell
from pnas.evaluators import EvalRecord, SyntheticOracle, SyntheticOracleConfig
from pnas.harness import (
    TRAINED_KINDS,
    CorrelationReport,
    HarnessConfig,
    distinct_random_cells,
    predictor_harness,
)
from pnas.predictors import Predictor

TINY = dict(EMBED_DIM=12, HIDDEN=10, EPOCHS_FIRST_LEVEL=30, EPOCHS_LATER_LEVELS=20)
TINY_RNN = dict(EMBED_DIM=8, HIDDEN=8, EPOCHS_FIRST_LEVEL=20, EPOCHS_LATER_LEVELS=10)


@pytest.fixture
def tiny(shrink):
    shrink(**TINY)


def tiny_config(**kw):
    defaults = dict(trials=2, sample_size=20, pool_size=40, b_max=3, kinds=("mlp",), seed=0)
    defaults.update(kw)
    return HarnessConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match="exceeds pool_size"):
        HarnessConfig(sample_size=100, pool_size=50)
    with pytest.raises(ValueError, match="sample_size must be >= 2"):
        HarnessConfig(sample_size=1)
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        HarnessConfig(trials=0)
    # a smaller sample would already exceed an empty pool, so both are zero
    with pytest.raises(ValueError, match="pool_size must be >= 1, got 0"):
        HarnessConfig(sample_size=0, pool_size=0)
    # pools are drawn at every level from 2 up, and level 2 holds 40,800 unique cells
    with pytest.raises(ValueError, match="pool_size must be <= 40800 \\(the unique two-block cells\\), got 40801"):
        HarnessConfig(pool_size=40801, b_max=2)
    assert HarnessConfig(pool_size=40800, b_max=2).pool_size == 40800
    with pytest.raises(ValueError, match="b_max"):
        HarnessConfig(b_max=1)
    with pytest.raises(ValueError, match="unknown predictor kind"):
        HarnessConfig(kinds=("mlp", "svm"))
    with pytest.raises(ValueError, match="at least one predictor"):
        HarnessConfig(kinds=())
    with pytest.raises(ValueError, match="predictor kinds must be distinct"):
        HarnessConfig(kinds=("mlp", "rnn", "mlp"))
    assert "perfect" not in TRAINED_KINDS
    assert set(TRAINED_KINDS) == {"mlp", "rnn", "mlp-ens", "rnn-ens"}


def test_distinct_random_cells():
    cells = distinct_random_cells(50, b=2, seed=4)
    keys = [cell_key(c) for c in cells]
    assert len(set(keys)) == 50
    assert all(len(c) == 2 for c in cells)
    again = distinct_random_cells(50, b=2, seed=4)
    assert [cell_key(c) for c in again] == keys
    # 136 unique one-block cells exist, so 137 distinct draws must fail
    with pytest.raises(ValueError, match="could not draw 137 distinct"):
        distinct_random_cells(137, b=1, seed=0)


def keyed_distinct_random_cells(count, b, seed):
    """Reference: the same draws, each kept when its cell key is new."""
    rng = np.random.default_rng(seed)
    cells, seen = [], set()
    while len(cells) < count:
        cell = random_cell(b, rng)
        key = cell_key(cell)
        if key not in seen:
            seen.add(key)
            cells.append(cell)
    return cells


@pytest.mark.parametrize(("count", "b"), [(136, 1), (50, 1), (500, 2), (400, 5), (200, 10)])
def test_distinct_random_cells_match_a_key_deduplicated_draw(count, b):
    for seed in (0, 7, 12):
        assert distinct_random_cells(count, b, seed) == keyed_distinct_random_cells(count, b, seed)


def test_distinct_random_cells_draw_the_whole_two_block_space_as_the_keyed_loop_does(monkeypatch):
    """Every draw also feeds the keyed loop, so the run makes its roughly 870,000 draws once."""
    count = count_space(2).unique
    assert count == 40800
    keyed = {}

    def drawn(b, rng):
        assert len(keyed) < count, "drew after the last distinct cell"
        cell = random_cell(b, rng)
        keyed.setdefault(cell_key(cell), cell)
        return cell

    monkeypatch.setattr(pnas.harness, "random_cell", drawn)
    assert distinct_random_cells(count, 2, 9) == list(keyed.values())


class FailingOracle(SyntheticOracle):
    def evaluate(self, request):
        records = super().evaluate(request)
        return [EvalRecord(records[0].cell_key, None, request.seed, "diverged"), *records[1:]]


def test_harness_needs_every_pool_cell_measured(tiny):
    with pytest.raises(ValueError, match="harness pools need every cell measured; .* failed"):
        predictor_harness(tiny_config(), FailingOracle())


def test_harness_report_shape(tiny):
    report = predictor_harness(tiny_config(), SyntheticOracle())
    assert report.kinds == ("mlp",)
    assert report.levels == (1, 2)
    for level in report.levels:
        assert len(report.fit[f"mlp/{level}"]) == 2
        assert len(report.extrapolate[f"mlp/{level}"]) == 2


def test_harness_coefficients_in_range_and_informative(tiny):
    report = predictor_harness(tiny_config(trials=3), SyntheticOracle())
    for values in list(report.fit.values()) + list(report.extrapolate.values()):
        assert all(-1.0 <= v <= 1.0 for v in values)
    # a trained predictor on a clean oracle must beat random ordering easily
    assert report.mean_fit("mlp", 1) > 0.5


def test_harness_is_deterministic(tiny):
    a = predictor_harness(tiny_config(), SyntheticOracle())
    b = predictor_harness(tiny_config(), SyntheticOracle())
    assert a.fit == b.fit
    assert a.extrapolate == b.extrapolate


def test_perfect_kind_scores_exactly_one():
    oracle = SyntheticOracle(SyntheticOracleConfig(noise_sigma=0.0))
    config = tiny_config(kinds=("perfect",), trials=2)
    report = predictor_harness(config, oracle)
    for level in report.levels:
        assert report.fit[f"perfect/{level}"] == (1.0, 1.0)
        assert report.extrapolate[f"perfect/{level}"] == (1.0, 1.0)


def test_report_mean_helpers():
    report = CorrelationReport(
        kinds=("mlp",),
        levels=(1,),
        fit={"mlp/1": (0.2, 0.4)},
        extrapolate={"mlp/1": (0.1, 0.5)},
    )
    assert report.mean_fit("mlp", 1) == pytest.approx(0.3)
    assert report.mean_extrapolate("mlp", 1) == pytest.approx(0.3)


def force_workers(monkeypatch, workers):
    monkeypatch.setattr("pnas.predictors._free_cpus", lambda: workers)


def log_fits(monkeypatch, log):
    """Make every fit append its process id and its parent's to `log`, from whichever process runs it."""
    fit = Predictor.fit

    def logged(self, cells, accuracies, level):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {os.getppid()}\n")
        return fit(self, cells, accuracies, level)

    monkeypatch.setattr(Predictor, "fit", logged)


@pytest.mark.parametrize("kinds, recipe", [(("mlp",), TINY), (("rnn", "rnn-ens"), TINY_RNN)], ids=["mlp", "rnn"])
def test_harness_report_does_not_depend_on_the_worker_count(monkeypatch, shrink, tmp_path, kinds, recipe):
    shrink(**recipe)
    me = str(os.getpid())
    reports = {}
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        log = tmp_path / f"fits-{workers}"
        log_fits(monkeypatch, log)
        reports[workers] = predictor_harness(tiny_config(kinds=kinds), SyntheticOracle())
        monkeypatch.undo()
        fits = [line.split() for line in log.read_text().splitlines()]
        # 2 levels x 2 trials per kind, and an ensemble job fits its 5 members
        assert len(fits) == 4 * sum(5 if kind.endswith("-ens") else 1 for kind in kinds)
        if workers == 1:
            assert {pid for pid, _ in fits} == {me}
        else:
            # every fit, an ensemble member's too, runs in one of `workers`
            # children of this process: the harness workers never fork again
            assert len({pid for pid, _ in fits}) == workers
            assert {parent for _, parent in fits} == {me}
    assert reports[2] == reports[1]
    assert reports[3] == reports[1]


def test_harness_raises_a_worker_exception_as_its_type(monkeypatch, tiny):
    force_workers(monkeypatch, 2)
    fit = Predictor.fit

    def failing(self, cells, accuracies, level):
        if level == 2:
            raise ZeroDivisionError(f"the level {level} fit diverged")
        return fit(self, cells, accuracies, level)

    monkeypatch.setattr(Predictor, "fit", failing)
    with pytest.raises(ZeroDivisionError, match="diverged") as info:
        predictor_harness(tiny_config(), SyntheticOracle())
    assert any("in a harness worker" in note for note in info.value.__notes__)
    assert not multiprocessing.active_children()
