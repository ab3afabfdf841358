"""Rank-correlation harness for comparing predictor kinds."""

import pytest

from pnas.cells import cell_key
from pnas.evaluators import SyntheticOracle, SyntheticOracleConfig
from pnas.harness import (
    TRAINED_KINDS,
    CorrelationReport,
    HarnessConfig,
    distinct_random_cells,
    predictor_harness,
)
from pnas.predictors import PredictorConfig

TINY = PredictorConfig(
    kind="mlp", embed_dim=12, hidden=10, epochs_first_level=30, epochs_later_levels=20
)


def tiny_config(**kw):
    defaults = dict(trials=2, sample_size=20, pool_size=40, b_max=3, kinds=("mlp",), seed=0)
    defaults.update(kw)
    return HarnessConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match="exceeds pool_size"):
        HarnessConfig(sample_size=100, pool_size=50)
    with pytest.raises(ValueError, match="b_max"):
        HarnessConfig(b_max=1)
    with pytest.raises(ValueError, match="unknown predictor kind"):
        HarnessConfig(kinds=("mlp", "svm"))
    with pytest.raises(ValueError, match="at least one predictor"):
        HarnessConfig(kinds=())
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


def test_harness_report_shape():
    report = predictor_harness(tiny_config(), SyntheticOracle(), base=TINY)
    assert report.kinds == ("mlp",)
    assert report.levels == (1, 2)
    for level in report.levels:
        assert len(report.fit[("mlp", level)]) == 2
        assert len(report.extrapolate[("mlp", level)]) == 2


def test_harness_coefficients_in_range_and_informative():
    report = predictor_harness(tiny_config(trials=3), SyntheticOracle(), base=TINY)
    for values in list(report.fit.values()) + list(report.extrapolate.values()):
        assert all(-1.0 <= v <= 1.0 for v in values)
    # a trained predictor on a clean oracle must beat random ordering easily
    assert report.mean_fit("mlp", 1) > 0.5


def test_harness_is_deterministic():
    a = predictor_harness(tiny_config(), SyntheticOracle(), base=TINY)
    b = predictor_harness(tiny_config(), SyntheticOracle(), base=TINY)
    assert a.fit == b.fit
    assert a.extrapolate == b.extrapolate


def test_perfect_kind_scores_exactly_one():
    oracle = SyntheticOracle(SyntheticOracleConfig(noise_sigma=0.0))
    config = tiny_config(kinds=("perfect",), trials=2)
    report = predictor_harness(config, oracle)
    for level in report.levels:
        assert report.fit[("perfect", level)] == (1.0, 1.0)
        assert report.extrapolate[("perfect", level)] == (1.0, 1.0)


def test_report_mean_helpers():
    report = CorrelationReport(
        kinds=("mlp",),
        levels=(1,),
        fit={("mlp", 1): (0.2, 0.4)},
        extrapolate={("mlp", 1): (0.1, 0.5)},
    )
    assert report.mean_fit("mlp", 1) == pytest.approx(0.3)
    assert report.mean_extrapolate("mlp", 1) == pytest.approx(0.3)
