"""Progressive beam search, its budget arithmetic, and the random baseline."""

import numpy as np
import pytest

import pnas.search
from pnas.cells import canonical_blocks, cell_key, one_block_cells, parse_cell_key, random_cell
from pnas.evaluators import (
    EvalRecord,
    EvaluatorError,
    SyntheticOracle,
    SyntheticOracleConfig,
)
from pnas.predictors import PREDICTORS
from pnas.search import (
    CHUNK_SIZE,
    PREDICTOR_KINDS,
    ModelSurrogate,
    NoSuccessfulEvaluationError,
    SearchConfig,
    compute_cost,
    make_surrogate,
    plan_budget,
    pnas_search,
    random_search,
    score_children,
    top_m_table,
)
from pnas.seeding import derive_seed


class ListWriter:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(dict(event))


class FailingEvaluator(SyntheticOracle):
    """Synthetic oracle that returns an error record for chosen keys."""

    def __init__(self, fail_keys=(), raise_at_level=None):
        super().__init__()
        self.fail_keys = set(fail_keys)
        self.raise_at_level = raise_at_level

    def evaluate(self, request):
        if self.raise_at_level is not None and len(request.cells[0]) >= self.raise_at_level:
            raise EvaluatorError("cluster went away")
        records = []
        for rec in super().evaluate(request):
            if rec.cell_key in self.fail_keys:
                rec = EvalRecord(rec.cell_key, None, rec.seed, error="diverged")
            records.append(rec)
        return records


def test_plan_budget():
    assert plan_budget(5, 256) == [136, 256, 256, 256, 256]
    assert sum(plan_budget(5, 256)) == 1160
    assert plan_budget(1, 256) == [136]
    # a huge beam never exceeds the deduplicated expansion count
    assert plan_budget(3, 10**9) == [136, 136 * 300, 136 * 300 * 528]
    with pytest.raises(ValueError, match="beam_size"):
        plan_budget(2, 0)
    with pytest.raises(ValueError, match="b_max"):
        plan_budget(0, 8)


def test_compute_cost_exact():
    assert compute_cost(1160, 20 * 45_000) == 1_044_000_000
    assert compute_cost(20_000, 900_000, m2=250, e2=13_500_000) == 21_375_000_000


def test_config_validation():
    with pytest.raises(ValueError, match="b_max"):
        SearchConfig(b_max=0)
    with pytest.raises(ValueError, match="beam_size"):
        SearchConfig(beam_size=0)
    with pytest.raises(ValueError, match="predictor"):
        SearchConfig(predictor="oracle")
    assert SearchConfig().examples_per_model == 900_000


def test_surrogate_construction():
    oracle = SyntheticOracle()
    with pytest.raises(ValueError, match="synthetic evaluator"):
        make_surrogate("perfect", seed=0, evaluator=None)
    with pytest.raises(ValueError, match="learned surrogate kind"):
        ModelSurrogate("perfect", seed=0)
    with pytest.raises(RuntimeError, match="before its first update"):
        ModelSurrogate("mlp", seed=0).predict(one_block_cells()[:2])
    assert make_surrogate("perfect", seed=0, evaluator=oracle).predict(
        one_block_cells()[:1]
    )[0] == oracle.score(one_block_cells()[0])


def perfect_config(**kw):
    defaults = dict(b_max=3, beam_size=8, predictor="perfect", seed=0)
    defaults.update(kw)
    return SearchConfig(**defaults)


def brute_force_beams(oracle, b_max, beam_size):
    """Re-derive the per-level beams by materializing every expansion."""
    beam = sorted(one_block_cells(), key=cell_key)
    beams = [beam]
    for b in range(2, b_max + 1):
        children = [p + (blk,) for p in beam for blk in canonical_blocks(b)]
        ranked = sorted(children, key=lambda c: (-oracle.score(c), cell_key(c)))
        beam = sorted(ranked[:beam_size], key=cell_key)
        beams.append(beam)
    return beams


def test_search_matches_brute_force_beam():
    oracle = SyntheticOracle(SyntheticOracleConfig(noise_sigma=0.0))
    trace = pnas_search(perfect_config(), oracle)
    beams = brute_force_beams(oracle, b_max=3, beam_size=8)
    for level, beam in zip(trace.levels, beams):
        assert list(level.keys) == [cell_key(c) for c in beam]
    want_key = min(beams[-1], key=lambda c: (-oracle.score(c), cell_key(c)))
    best_key, best_acc = trace.best()
    assert best_key == cell_key(want_key)
    assert best_acc == oracle.score(want_key)


def test_search_chunking_invariant(monkeypatch):
    # a chunk smaller than one expansion forces many partial flushes
    oracle = SyntheticOracle(SyntheticOracleConfig(noise_sigma=0.0))
    monkeypatch.setattr("pnas.search.CHUNK_SIZE", 97)
    small = pnas_search(perfect_config(), oracle)
    monkeypatch.setattr("pnas.search.CHUNK_SIZE", 1 << 20)
    large = pnas_search(perfect_config(), oracle)
    for a, b in zip(small.levels, large.levels):
        assert a.keys == b.keys
        assert a.measured == b.measured


class FewScores:
    """Surrogate with three distinct scores, so many children tie at the K-th."""

    def update(self, cells, accuracies, level):
        return "few"

    def predict(self, cells):
        return few_score(np.asarray(cells))


def few_score(cells):
    return cells.sum(axis=(-2, -1)) % 3 / 4.0


@pytest.mark.parametrize("chunk_size", [1, 97, 1 << 20])
def test_search_ties_match_brute_force_sort(monkeypatch, chunk_size):
    monkeypatch.setattr("pnas.search.make_surrogate", lambda *args: FewScores())
    monkeypatch.setattr("pnas.search.CHUNK_SIZE", chunk_size)
    writer = ListWriter()
    trace = pnas_search(perfect_config(), SyntheticOracle(), writer)

    beam = sorted(one_block_cells(), key=cell_key)
    want_events = []
    for level in trace.levels[1:]:
        children = [p + (blk,) for p in beam for blk in canonical_blocks(level.level)]
        scores = [float(few_score(np.asarray(c))) for c in children]
        assert len(set(scores)) == 3 and scores.count(max(scores)) > 8  # ties at the cut
        ranked = sorted(zip(scores, children), key=lambda sc: (-sc[0], cell_key(sc[1])))[:8]
        keyed = {cell_key(c): s for s, c in ranked}
        want_events += [("predict", level.level, key, keyed[key]) for key in sorted(keyed)]
        want_events += [("select", level.level, cell_key(c), rank) for rank, (_, c) in enumerate(ranked, 1)]
        beam = sorted((c for _, c in ranked), key=cell_key)
        assert list(level.keys) == [cell_key(c) for c in beam]
    got_events = [
        (ev["event"], ev["level"], ev["cell_key"], ev["value"])
        for ev in writer.events
        if ev["event"] in ("predict", "select")
    ]
    assert got_events == want_events


@pytest.mark.parametrize("kind", ["mlp", "rnn", "mlp-ens", "perfect"])
def test_uint8_children_score_like_int64_ones(kind, shrink):
    shrink(EMBED_DIM=12, HIDDEN=10, EPOCHS_FIRST_LEVEL=20, EPOCHS_LATER_LEVELS=10)
    oracle = SyntheticOracle()
    surrogate = make_surrogate(kind, 3, oracle)
    surrogate.update(one_block_cells(), [oracle.score(cell) for cell in one_block_cells()], 1)
    seen = []

    class Spy:
        def predict(self, cells):
            seen.append(cells)
            return surrogate.predict(cells)

    rng = np.random.default_rng(5)
    for b in (2, 5):
        parents = [random_cell(b - 1, rng) for _ in range(2)]
        scores = score_children(Spy(), np.asarray(parents), np.asarray(canonical_blocks(b)), CHUNK_SIZE)
        [children] = seen
        seen.clear()
        assert children.dtype == np.uint8
        wide = np.asarray([parent + (block,) for parent in parents for block in canonical_blocks(b)], dtype=np.int64)
        assert np.array_equal(children, wide)
        assert np.array_equal(scores.view(np.int64), surrogate.predict(wide).view(np.int64))


def test_predictor_kinds_are_the_predictor_table_bagged_or_not_and_perfect():
    assert sorted(PREDICTOR_KINDS) == sorted([*PREDICTORS, *(f"{kind}-ens" for kind in PREDICTORS), "perfect"])
    assert len(set(PREDICTOR_KINDS)) == len(PREDICTOR_KINDS)


def test_search_degenerate_single_level():
    oracle = SyntheticOracle(SyntheticOracleConfig(noise_sigma=0.0))
    trace = pnas_search(perfect_config(b_max=1), oracle)
    assert trace.m1 == 136
    assert len(trace.levels) == 1
    best_key, best_acc = trace.best()
    assert best_acc == max(oracle.score(c) for c in one_block_cells())
    assert best_acc == max(trace.levels[0].measured)
    assert best_key in set(trace.levels[0].keys)


def test_search_trace_shape_and_budget(shrink):
    writer = ListWriter()
    config = SearchConfig(b_max=3, beam_size=16, predictor="mlp", seed=1)
    shrink(EMBED_DIM=12, HIDDEN=10, EPOCHS_FIRST_LEVEL=20, EPOCHS_LATER_LEVELS=10)
    trace = pnas_search(config, SyntheticOracle(), writer)

    assert [len(lv.keys) for lv in trace.levels] == plan_budget(3, 16)
    assert trace.m1 == sum(plan_budget(3, 16)) == len(trace.records)
    assert compute_cost(trace.m1, config.examples_per_model) == trace.m1 * 900_000
    for lv in trace.levels:
        assert list(lv.keys) == sorted(lv.keys)
        assert all(key.startswith(f"{lv.level}|") for key in lv.keys)
    assert trace.levels[1].predicted is not None
    assert len(trace.levels[1].predicted) == 16

    # event stream: eval*136 | fit expand predict*16 select*16 eval*16 | ...: no fit after the last level
    kinds = [ev["event"] for ev in writer.events]
    want = ["eval"] * 136
    for level_size in (16, 16):
        want += ["fit", "expand"] + ["predict"] * level_size + ["select"] * level_size
        want += ["eval"] * level_size
    assert kinds == want

    eval_seed = derive_seed(1, "eval")
    assert all(ev["seed"] == eval_seed for ev in writer.events if ev["event"] == "eval")
    ranks = [ev["value"] for ev in writer.events if ev["event"] == "select"]
    assert ranks == list(range(1, 17)) * 2
    assert [ev["value"] for ev in writer.events if ev["event"] == "expand"] == [
        {"raw": 136 * 576, "unique": 136 * 300},
        {"raw": 16 * 1024, "unique": 16 * 528},
    ]


def test_search_is_deterministic(shrink):
    shrink(EMBED_DIM=8, HIDDEN=8, EPOCHS_FIRST_LEVEL=5, EPOCHS_LATER_LEVELS=5)
    runs = []
    for _ in range(2):
        writer = ListWriter()
        config = SearchConfig(b_max=2, beam_size=8, predictor="rnn", seed=5)
        pnas_search(config, SyntheticOracle(), writer)
        runs.append(writer.events)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("predictor", ["mlp-ens", "rnn-ens"])
def test_search_trace_does_not_depend_on_the_worker_count(monkeypatch, shrink, predictor):
    shrink(EMBED_DIM=8, HIDDEN=8, EPOCHS_FIRST_LEVEL=20, EPOCHS_LATER_LEVELS=10)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr("pnas.predictors._free_cpus", lambda: workers)
        writer = ListWriter()
        config = SearchConfig(b_max=3, beam_size=8, predictor=predictor, seed=4)
        pnas_search(config, SyntheticOracle(), writer)
        runs.append(writer.events)
    assert [ev["event"] for ev in runs[0]].count("fit") == 2  # after levels 1 and 2; the 2-worker run forks for both
    assert runs[0] == runs[1]


class SpySurrogate:
    """Passes through to a real surrogate and records each update's level and row count."""

    def __init__(self, inner):
        self.inner = inner
        self.updates = []

    def update(self, cells, accuracies, level):
        self.updates.append((level, len(cells)))
        return self.inner.update(cells, accuracies, level)

    def predict(self, cells):
        return self.inner.predict(cells)


@pytest.mark.parametrize("b_max, updates", [(3, [(1, 136), (2, 136 + 8)]), (1, [])])
def test_search_refits_after_every_level_but_the_last(monkeypatch, b_max, updates):
    spies = []
    real = pnas.search.make_surrogate

    def spying(*args):
        spies.append(SpySurrogate(real(*args)))
        return spies[-1]

    monkeypatch.setattr(pnas.search, "make_surrogate", spying)
    writer = ListWriter()
    trace = pnas_search(perfect_config(b_max=b_max), SyntheticOracle(SyntheticOracleConfig(noise_sigma=0.0)), writer)
    assert len(trace.levels) == b_max
    assert spies[0].updates == updates
    assert [ev["level"] for ev in writer.events if ev["event"] == "fit"] == [level for level, _ in updates]


def test_shorter_search_is_a_prefix_of_a_longer_one(shrink):
    shrink(EMBED_DIM=8, HIDDEN=8, EPOCHS_FIRST_LEVEL=20, EPOCHS_LATER_LEVELS=10)
    traces = {}
    for b_max in (2, 3):
        writer = ListWriter()
        pnas_search(SearchConfig(b_max=b_max, beam_size=8, predictor="mlp", seed=6), SyntheticOracle(), writer)
        traces[b_max] = writer.events
    cut = next(i for i, ev in enumerate(traces[3]) if ev["event"] == "fit" and ev["level"] == 2)
    assert traces[2] == traces[3][:cut]


def test_search_failed_record_keeps_slot():
    doomed = cell_key(one_block_cells()[17])
    trace = pnas_search(perfect_config(b_max=1), FailingEvaluator(fail_keys=[doomed]))
    assert trace.m1 == 136
    failures = [rec for rec in trace.records if not rec.ok]
    assert [rec.cell_key for rec in failures] == [doomed]
    assert trace.levels[0].measured.count(None) == 1
    assert trace.best()[0] != doomed


def test_search_level_without_successes_stops_after_its_evals():
    writer = ListWriter()
    every_key = [cell_key(c) for c in one_block_cells()]
    with pytest.raises(NoSuccessfulEvaluationError, match="level 1: none of its 136 evaluations"):
        pnas_search(perfect_config(), FailingEvaluator(fail_keys=every_key), writer)
    assert [ev["event"] for ev in writer.events] == ["eval"] * 136
    assert all(ev["error"] == "diverged" for ev in writer.events)


def test_search_evaluator_crash_propagates_with_partial_trace():
    writer = ListWriter()
    with pytest.raises(EvaluatorError, match="cluster went away"):
        pnas_search(perfect_config(), FailingEvaluator(raise_at_level=2), writer)
    kinds = [ev["event"] for ev in writer.events]
    assert kinds.count("eval") == 136  # level 1 flushed before the crash
    assert kinds[-1] == "select"


def test_search_monotone_under_perfect_surrogate():
    # with exact guidance, extending the best cell can only help: the score
    # is monotone in added useful operators, so each level's best improves
    oracle = SyntheticOracle(SyntheticOracleConfig(noise_sigma=0.0))
    trace = pnas_search(perfect_config(b_max=10, beam_size=4), oracle)
    bests = [acc for _, _, acc in trace.best_per_level()]
    assert len(bests) == 10
    assert all(a <= b for a, b in zip(bests, bests[1:]))


@pytest.mark.parametrize("predictor", ["perfect", "mlp"])
def test_level_results_match_the_trace_events(shrink, predictor):
    shrink(EMBED_DIM=12, HIDDEN=10, EPOCHS_FIRST_LEVEL=20, EPOCHS_LATER_LEVELS=10)
    oracle = SyntheticOracle(SyntheticOracleConfig(noise_sigma=0.0 if predictor == "perfect" else 0.01))
    writer = ListWriter()
    trace = pnas_search(SearchConfig(b_max=3, beam_size=16, predictor=predictor, seed=2), oracle, writer)

    assert trace.levels[0].predicted is None
    for lv in trace.levels[1:]:
        predicts = [(ev["cell_key"], ev["value"]) for ev in writer.events if ev["event"] == "predict" and ev["level"] == lv.level]
        assert list(zip(lv.keys, lv.predicted)) == predicts
        if predictor == "perfect":  # the oracle's noise-free score selected each cell
            assert lv.predicted == tuple(oracle.score(parse_cell_key(key)) for key in lv.keys)
    evals = [ev for ev in writer.events if ev["event"] == "eval"]
    assert [r.cell_key for r in trace.records] == [ev["cell_key"] for ev in evals]
    assert [r.accuracy for r in trace.records] == [ev["value"] for ev in evals]


def test_random_search_basics():
    writer = ListWriter()
    trace = random_search(SearchConfig(b_max=3, seed=11), 25, SyntheticOracle(), writer=writer)
    assert trace.m1 == 25
    assert len(trace.records) == 25
    assert all(len(ev) for ev in writer.events)
    assert [ev["event"] for ev in writer.events] == ["eval"] * 25
    again = random_search(SearchConfig(b_max=3, seed=11), 25, SyntheticOracle())
    assert [r.cell_key for r in trace.records] == [r.cell_key for r in again.records]
    assert [r.accuracy for r in trace.records] == [r.accuracy for r in again.records]
    different = random_search(SearchConfig(b_max=3, seed=12), 25, SyntheticOracle())
    assert [r.cell_key for r in trace.records] != [
        r.cell_key for r in different.records
    ]


def test_random_search_keeps_sample_order():
    trace = random_search(SearchConfig(b_max=2, seed=3), 40, SyntheticOracle())
    keys = [r.cell_key for r in trace.records]
    assert keys != sorted(keys)  # order reflects sampling, not sorting
    assert all(key.startswith("2|") for key in keys)


class RecordingOracle(SyntheticOracle):
    """Synthetic oracle that keeps every request it answers."""

    def __init__(self):
        super().__init__()
        self.requests = []

    def evaluate(self, request):
        self.requests.append(request)
        return super().evaluate(request)


def test_random_search_sends_all_draws_as_one_request():
    oracle, writer = RecordingOracle(), ListWriter()
    random_search(SearchConfig(b_max=1, seed=5), 200, oracle, writer=writer)
    rng = np.random.default_rng(derive_seed(5, "random-search"))
    drawn = [random_cell(1, rng) for _ in range(200)]
    assert len(set(drawn)) < 200  # 136 one-block cells, so draws repeat
    assert len(oracle.requests) == 1
    assert oracle.requests[0].cells == tuple(drawn)
    assert [ev["cell_key"] for ev in writer.events] == [cell_key(c) for c in drawn]


def test_random_search_validation():
    with pytest.raises(ValueError, match="count"):
        random_search(SearchConfig(b_max=2), 0, SyntheticOracle())
    with pytest.raises(ValueError, match="b_max"):
        random_search(SearchConfig(b_max=0), 5, SyntheticOracle())


def test_top_m_table():
    trace = random_search(SearchConfig(b_max=2, seed=1), 30, SyntheticOracle())
    rows = top_m_table(trace, m_values=(1, 5))
    assert len(rows) == 30
    assert rows[-1]["top1"] == max(trace.accuracies())
    assert "top5" not in rows[3]
    assert "top5" in rows[4]
