"""Acceptance gate: ten go/no-go checks over the whole package.

Run with ``pytest tests/test_acceptance.py -v -s``; each check prints one
PASS/FAIL line. The slow ones (search efficiency, predictor harness,
ensemble variance, deep-search scale) together take a few minutes.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pnas.cells import (
    canonical_blocks,
    cell_key,
    count_space,
    enumerate_blocks,
    one_block_cells,
    parse_cell_key,
    random_cell,
    PNASNET_5_KEY,
)
from pnas.cli import main
from pnas.evaluators import SyntheticOracle, SyntheticOracleConfig
from pnas.harness import HarnessConfig, distinct_random_cells, predictor_harness
from pnas.metrics import spearman, top_m_curve
from pnas.network import StackPlan, build_network, op_cost
from pnas.predictors import ensemble_fit, gradient_check, new_predictor
from pnas.search import SearchConfig, compute_cost, plan_budget, pnas_search, random_search
from pnas.traceio import read_trace


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} {name}: FAIL")
        raise
    print(f"criterion {num:2d} {name}: PASS")


def test_criterion_01_combinatorics_exact():
    with criterion(1, "combinatorics"):
        assert len(enumerate_blocks(1)) == 256
        assert len(enumerate_blocks(2)) == 576
        assert len(one_block_cells()) == len(canonical_blocks(1)) == 136
        raw_product = math.prod(len(enumerate_blocks(b)) for b in range(1, 6))
        assert count_space(5).raw == raw_product == 556627761561600
        assert len(enumerate_blocks(1)) * len(enumerate_blocks(2)) == 147456


def test_criterion_02_budget_identity():
    with criterion(2, "budget identity"):
        budget = plan_budget(5, 256)
        assert budget == [136, 256, 256, 256, 256]
        assert sum(budget) == 1160
        assert compute_cost(1160, 900_000) == 1_044_000_000
        assert 20_000 * 900_000 == 18_000_000_000
        assert 250 * 13_500_000 == 3_375_000_000
        total = compute_cost(20_000, 900_000, m2=250, e2=13_500_000)
        assert total == 21_375_000_000
        assert total == pytest.approx(2.1375e10)


def test_criterion_03_search_beats_random():
    with criterion(3, "search efficiency"):
        wins = 0
        budget = sum(plan_budget(5, 64))
        for seed in range(100, 105):
            config = SearchConfig(b_max=5, beam_size=64, predictor="mlp-ens", seed=seed)
            trace = pnas_search(config, SyntheticOracle())
            assert trace.m1 == budget
            baseline = random_search(config, budget, SyntheticOracle())
            pnas_top1 = max(trace.accuracies())
            random_top1 = max(baseline.accuracies())
            if pnas_top1 > random_top1:
                wins += 1
            for m in (1, 5, 25):
                series = [row[f"top{m}"] for row in top_m_curve(trace.accuracies()) if f"top{m}" in row]
                assert all(a <= b for a, b in zip(series, series[1:]))
        assert wins >= 4, f"progressive search won only {wins} of 5 trials"


def test_criterion_04_predictor_harness_pattern():
    with criterion(4, "predictor harness"):
        config = HarnessConfig(trials=5, sample_size=64, pool_size=1000, b_max=5, seed=0)
        report = predictor_harness(config, SyntheticOracle())
        for kind in config.kinds:
            fits = [report.mean_fit(kind, b) for b in report.levels]
            exts = [report.mean_extrapolate(kind, b) for b in report.levels]
            for b, (fit, ext) in enumerate(zip(fits, exts), start=1):
                assert fit > ext, f"{kind} level {b}: fit {fit:.4f} <= extrapolation {ext:.4f}"
            assert fits[0] >= 0.8, f"{kind} level-1 fit {fits[0]:.4f} below 0.8"


def test_criterion_05_gradient_correctness(shrink):
    with criterion(5, "gradient checks"):
        worst = 0.0
        rng = np.random.default_rng(0)
        shrink(EMBED_DIM=6, HIDDEN=5)
        for kind, draw in itertools.product(("mlp", "rnn"), range(10)):
            model = new_predictor(kind, draw)
            cell = random_cell(int(rng.integers(1, 4)), rng)
            prob = float(model.predict([cell])[0])
            target = 0.15 if prob > 0.5 else 0.95  # stay away from the L1 kink
            worst = max(worst, gradient_check(model, cell, target, step=1e-4))
        assert worst < 1e-4, f"max relative gradient error {worst:.3e}"


def test_criterion_06_ensemble_variance():
    # the bagging claim: averaging 5 members varies less from refit to
    # refit than any single trained predictor subject to the same
    # randomness (fresh init, 4/5 data share)
    with criterion(6, "ensemble variance"):
        pool = distinct_random_cells(100, b=2, seed=1234)
        train, held = pool[:60], pool[60:]
        oracle = SyntheticOracle()
        accs = np.asarray([oracle.noisy_accuracy(c, seed=7) for c in train])
        single_preds, ensemble_preds = [], []
        for refit in range(20):
            ens = ensemble_fit(train, accs, "mlp", 1000 + refit, level=2)
            ensemble_preds.append(ens.predict(held))
            single_preds.append(ens.members[0].predict(held))
        var_single = np.var(np.asarray(single_preds), axis=0).mean()
        var_ensemble = np.var(np.asarray(ensemble_preds), axis=0).mean()
        assert var_ensemble <= var_single, (
            f"ensemble variance {var_ensemble:.3e} exceeds single {var_single:.3e}"
        )


def test_criterion_07_spearman_oracle():
    with criterion(7, "rank correlation"):
        assert spearman([1, 2, 3], [4, 5, 6]) == 1.0
        assert spearman([1, 2, 3], [6, 5, 4]) == -1.0
        assert abs(spearman([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) <= 1e-12

        def slow_ranks(values):
            return [
                sum(1 for w in values if w < v) + (sum(1 for w in values if w == v) + 1) / 2
                for v in values
            ]

        y = [3, 1, 4, 1, 5]  # one tied pair
        for perm in itertools.permutations([0.2, 0.4, 0.6, 0.8, 1.0]):
            rx, ry = slow_ranks(perm), slow_ranks(y)
            mx, my = sum(rx) / 5, sum(ry) / 5
            num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
            den = math.sqrt(
                sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
            )
            assert abs(spearman(perm, y) - num / den) <= 1e-12


def test_criterion_08_cost_model():
    with criterion(8, "cost model"):
        cell = parse_cell_key(PNASNET_5_KEY)
        cost = build_network(cell, StackPlan(n=3, f=48)).cost
        assert abs(cost.params - 3.2e6) / 3.2e6 < 0.20
        assert cost.params == 3336490
        assert op_cost("identity", 24, 24, 32, 32).params == 0
        assert op_cost("identity", 24, 24, 32, 32).mult_adds == 0
        hand = 2 * (32 * 32 * (9 * 24 + 24 * 24))
        assert op_cost("sep3x3", 24, 24, 32, 32).mult_adds == hand == 1622016


def test_criterion_09_byte_identical_reruns(tmp_path, capsys):
    with criterion(9, "reproducibility"):
        args = ["search", "-B", "2", "-K", "8", "--predictor", "mlp", "--seed", "21"]
        manifests = []
        for sub in ("first", "second"):
            out = tmp_path / sub
            assert main(args + ["--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            manifest.pop("started_utc"), manifest.pop("finished_utc")
            manifests.append(manifest)
        capsys.readouterr()
        assert manifests[0] == manifests[1]
        first = (tmp_path / "first" / "trace.jsonl").read_bytes()
        second = (tmp_path / "second" / "trace.jsonl").read_bytes()
        assert first == second and len(first) > 0
        events = read_trace(str(tmp_path / "first" / "trace.jsonl"))
        assert len(events) > 136


def test_criterion_10_deep_search_scale():
    with criterion(10, "deep search"):
        started = time.perf_counter()
        config = SearchConfig(b_max=10, beam_size=16, seed=0)
        trace = pnas_search(config, SyntheticOracle())
        elapsed = time.perf_counter() - started
        per_level = trace.best_per_level()
        assert len(per_level) == 10
        for level, key, acc in per_level:
            assert key.startswith(f"{level}|")
            assert 0.0 <= acc <= 1.0
        assert trace.m1 == 136 + 9 * 16
        assert elapsed < 300, f"deep search took {elapsed:.1f}s"
