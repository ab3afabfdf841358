#!/usr/bin/env python3
"""Tests of the benchmark's own checks.

    python3 perfbench/selftest.py        # from the root of a checkout, about 20 s

Small runs of each workload's command must pass every check, and each
check must fail on a deliberately tampered copy of a trace or report: a
dropped eval, a swapped select rank, an accuracy moved by 0.1, a flipped
rho.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SIGMA = run.SIGMA


class Runs:
    """Runs `pnas` children into one temporary directory inside the checkout."""

    def __init__(self) -> None:
        os.makedirs(os.path.join(ROOT, ".perfbench-runs"), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench-runs"))
        self.bench = run.Bench(ROOT, self.dir, time.monotonic() + 600.0)

    def untraced(self, name: str, argv: list[str]) -> str:
        out = os.path.join(self.dir, name)
        self.bench.pnas(argv + ["--out", out])
        return out

    def traced(self, name: str, argv: list[str]) -> str:
        out = os.path.join(self.dir, name)
        os.makedirs(out)
        self.bench.spawn([sys.executable, os.path.join(HERE, "tracer.py"), out, "--", *argv, "--out", out])
        return out

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _move(value: float) -> float:
    return value - 0.1 if value > 0.5 else value + 0.1


class SearchChecks(unittest.TestCase):
    B, K, SEED = 2, 8, 3

    @classmethod
    def setUpClass(cls) -> None:
        cls.runs = Runs()
        argv = ["search", "-B", str(cls.B), "-K", str(cls.K), "--sigma", str(SIGMA), "--seed", str(cls.SEED)]
        cls.untraced = cls.runs.untraced("search", argv)
        cls.traced = cls.runs.traced("search-traced", argv)
        cls.events = run._events(cls.untraced)
        cls.scored, _ = tracer.load_captures(cls.traced)

    @classmethod
    def tearDownClass(cls) -> None:
        cls.runs.close()

    def check(self, events) -> list[str]:
        return checks.check_search(events, self.B, self.K, SIGMA, self.SEED)

    def test_run_passes(self):
        self.assertEqual(self.check(self.events), [])
        self.assertEqual(checks.check_beam_topk(self.events, self.scored, self.K), [])
        self.assertEqual(run.identical_outputs(self.untraced, self.traced), [])

    def test_layer_counts(self):
        metrics = tracer.layer_metrics(os.path.join(self.traced, "spans.json"), 0)
        self.assertEqual(metrics["search.children_scored"], 136 * checks.canonical_block_count(2))
        self.assertEqual(metrics["evaluators.cells"], 136 + self.K)
        self.assertEqual(metrics["predictors.mlp.fits"], 2 * 5)

    def test_dropped_eval_fails(self):
        events = list(self.events)
        events.remove(next(ev for ev in events if ev["event"] == "eval" and ev["level"] == 2))
        self.assertTrue(self.check(events))

    def test_swapped_select_rank_fails(self):
        events = copy.deepcopy(self.events)
        first, second = (ev for ev in events if ev["event"] == "select" and ev["value"] in (1, 2))
        first["value"], second["value"] = second["value"], first["value"]
        self.assertTrue(self.check(events))
        self.assertTrue(checks.check_beam_topk(events, self.scored, self.K))

    def test_moved_accuracy_fails(self):
        events = copy.deepcopy(self.events)
        target = next(ev for ev in events if ev["event"] == "eval")
        target["value"] = _move(target["value"])
        self.assertTrue(self.check(events))

    def test_tampered_trace_is_not_identical(self):
        tampered = os.path.join(self.runs.dir, "search-tampered")
        shutil.copytree(self.traced, tampered)
        with open(os.path.join(tampered, "trace.jsonl"), "r+", encoding="utf-8") as fh:
            lines = fh.readlines()
            fh.seek(0)
            fh.writelines(lines[:-1])
            fh.truncate()
        self.assertTrue(run.identical_outputs(self.untraced, tampered))

    def test_beats_random(self):
        searched = [{"event": "eval", "value": v} for v in (0.9,) * 30]
        baseline = [{"event": "eval", "value": v} for v in (0.8,) * 30]
        self.assertEqual(checks.check_beats_random(searched, baseline), [])
        self.assertTrue(checks.check_beats_random(baseline, searched))


class HarnessChecks(unittest.TestCase):
    KINDS, B, T = ("rnn", "mlp-ens"), 2, 2

    @classmethod
    def setUpClass(cls) -> None:
        cls.runs = Runs()
        argv = ["harness", "--predictors", ",".join(cls.KINDS), "-K", "32", "-R", "40", "-B", str(cls.B), "-T", str(cls.T), "--seed", "1"]
        cls.untraced = cls.runs.untraced("harness", argv)
        cls.traced = cls.runs.traced("harness-traced", argv)
        cls.report = run._report(cls.untraced)
        _, cls.calls = tracer.load_captures(cls.traced)
        cls.perfect = run._report(cls.runs.untraced("perfect", ["harness", "--perfect", "-T", "2", "-K", "8", "-R", "15", "-B", "2"]))

    @classmethod
    def tearDownClass(cls) -> None:
        cls.runs.close()

    def test_run_passes(self):
        self.assertEqual(checks.check_harness(self.report, self.KINDS, self.B, self.T), [])
        self.assertEqual(checks.check_rho_recompute(self.calls, self.report, self.KINDS, self.B, self.T), [])
        self.assertEqual(checks.check_perfect(self.perfect), [])
        self.assertEqual(run.identical_outputs(self.untraced, self.traced), [])

    def test_flipped_rho_fails(self):
        report = copy.deepcopy(self.report)
        report["extrapolate"]["rnn/1"][0] *= -1.0
        self.assertTrue(checks.check_rho_recompute(self.calls, report, self.KINDS, self.B, self.T))

    def test_rho_out_of_range_fails(self):
        report = copy.deepcopy(self.report)
        report["fit"]["mlp-ens/1"][1] = 1.5
        self.assertTrue(checks.check_harness(report, self.KINDS, self.B, self.T))

    def test_imperfect_perfect_run_fails(self):
        report = copy.deepcopy(self.perfect)
        key = next(iter(report["fit"]))
        report["fit"][key][0] = 0.9999999999999998
        self.assertTrue(checks.check_perfect(report))

    def test_own_spearman_handles_ties(self):
        self.assertEqual(checks.average_ranks([3.0, 1.0, 3.0, 2.0]), [3.5, 1.0, 3.5, 2.0])
        self.assertAlmostEqual(checks.spearman([1, 2, 3, 4], [10, 20, 20, 40]), 0.9486832980505138, places=12)


class RandomExternalChecks(unittest.TestCase):
    B, COUNT, SEED = 2, 6, 5

    @classmethod
    def setUpClass(cls) -> None:
        cls.runs = Runs()
        worker = f"{sys.executable} scripts/echo_worker.py --sigma {SIGMA}"
        argv = ["search", "--strategy", "random", "-B", str(cls.B), "--count", str(cls.COUNT), "--evaluator", "external", "--worker-cmd", worker, "--seed", str(cls.SEED)]
        cls.events = run._events(cls.runs.untraced("random", argv))

    @classmethod
    def tearDownClass(cls) -> None:
        cls.runs.close()

    def check(self, events) -> list[str]:
        return checks.check_random_external(events, self.B, self.COUNT, SIGMA, self.SEED)

    def test_run_passes(self):
        self.assertEqual(self.check(self.events), [])

    def test_dropped_eval_fails(self):
        self.assertTrue(self.check(self.events[1:]))

    def test_moved_accuracy_fails(self):
        events = copy.deepcopy(self.events)
        events[2]["value"] = _move(events[2]["value"])
        self.assertTrue(self.check(events))

    def test_error_record_fails(self):
        events = copy.deepcopy(self.events)
        events[0]["error"] = "oom"
        self.assertTrue(self.check(events))


class OracleReference(unittest.TestCase):
    def test_matches_documented_examples(self):
        # one-block cells: 136 of them, the level-1 candidate set
        self.assertEqual(len(checks.one_block_keys()), 136)
        self.assertEqual(checks.canonical_block_count(2), 300)
        self.assertEqual(checks.budget(5, 64), [136, 64, 64, 64, 64])

    def test_key_round_trip(self):
        key = "5|0,1,0,6;1,2,1,6;1,0,1,1;1,0,4,4;0,0,1,4"
        self.assertEqual(checks.make_key(checks.parse_key(key)), key)
        with self.assertRaises(ValueError):
            checks.parse_key("2|0,1,0,6")


if __name__ == "__main__":
    unittest.main()
