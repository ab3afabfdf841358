"""Surrogate predictors: encoding, training, ensembling."""

import ctypes
import decimal
import multiprocessing
import os
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given

from pnas.cells import BlockSpec, cell_key, one_block_cells, parse_cell_key, random_cell
from pnas.evaluators import SyntheticOracle
from pnas.predictors import (
    BLAS_SETTERS,
    EMBED_DIM,
    ENSEMBLE_SIZE,
    FINAL_BIAS,
    HIDDEN,
    INPUT_VOCAB,
    MLP_LAYERS,
    OP_VOCAB,
    SLOT_OFFSETS,
    SLOT_VOCABS,
    STEP_ROWS,
    Encoded,
    Ensemble,
    MLPPredictor,
    Predictor,
    RNNPredictor,
    _Adam,
    _Workspace,
    _free_cpus,
    _pin_blas,
    _sigmoid,
    ensemble_fit,
    ensemble_folds,
    fork_map,
    gradient_check,
    new_predictor,
    snapshot_id,
)
from pnas.seeding import derive_seed

from conftest import raw_cells

SMALL = dict(EMBED_DIM=12, HIDDEN=10, EPOCHS_FIRST_LEVEL=60, EPOCHS_LATER_LEVELS=30)


@pytest.fixture
def small(shrink):
    shrink(**SMALL)


def train_batch(n: int = 40, b: int = 2, seed: int = 3):
    rng = np.random.default_rng(seed)
    cells = [random_cell(b, rng) for _ in range(n)]
    accs = rng.uniform(0.6, 0.95, size=n)
    return cells, accs


def reference_slot_counts(cells):
    """I1, I2, O1, O2 frequencies: each cell's count of every id in a slot, divided by its block count."""
    slots = [np.zeros((len(cells), vocab)) for vocab in SLOT_VOCABS]
    for row, cell in enumerate(cells):
        tokens = np.asarray(cell, dtype=np.int64).reshape(-1, 4)
        for slot, counts in enumerate(slots):
            counts[row] = np.bincount(tokens[:, slot], minlength=counts.shape[1]) / len(tokens)
    return slots


def test_slot_counts_match_reference_on_mixed_lengths():
    rng = np.random.default_rng(4)
    mixed = [random_cell(b, rng) for b in (3, 1, 10, 2, 7, 3, 5, 9, 6) for _ in range(12)]
    # colliding cells repeat rows, and hold a pair and pair + pair: equal fractions, different counts
    for cells in (mixed, colliding_cells(rng)):
        encoded = MLPPredictor.encode(cells)
        assert len(encoded) == len(cells)
        want = np.hstack(reference_slot_counts(cells))
        assert np.array_equal(encoded.groups[0][encoded.inverse], want)
        lengths = np.asarray([len(cell) for cell in cells])
        assert len(encoded.groups[0]) == len(np.unique(np.rint(want * lengths[:, None]), axis=0))


def test_slot_counts_match_reference_on_id_array():
    rng = np.random.default_rng(5)
    for b in (3, 6, 7, 10):
        array = np.asarray([random_cell(b, rng) for _ in range(40)])
        assert array.shape == (40, b, 4)
        encoded = MLPPredictor.encode(array)
        assert len(encoded) == 40
        assert np.array_equal(encoded.groups[0][encoded.inverse], np.hstack(reference_slot_counts(array)))


def test_slot_counts_reject_ids_outside_the_vocabulary():
    with pytest.raises(ValueError, match="token ids"):
        MLPPredictor.encode([(BlockSpec(0, 11, 0, 0),)])
    with pytest.raises(ValueError, match="token ids"):
        MLPPredictor.encode(np.asarray([[[0, 0, 8, 0]]]))
    with pytest.raises(ValueError, match="at least one cell"):
        MLPPredictor.encode([])
    with pytest.raises(ValueError, match=r"a cell array must have shape \(n, b, 4\), got \(2, 4\)"):
        MLPPredictor.encode(np.zeros((2, 4), dtype=np.intp))
    with pytest.raises(ValueError, match="a cell needs at least one block"):
        MLPPredictor.encode([()])


@given(raw_cells(max_blocks=10))
def test_slot_counts_follow_key_fields(cell):
    # keys write each block as i1,o1,i2,o2: inputs in fields 0 and 2, operators in 1 and 3
    fields = [
        [int(f) for f in segment.split(",")]
        for segment in cell_key(cell).split("|", 1)[1].split(";")
    ]
    b = len(fields)
    slots = np.hsplit(MLPPredictor.encode([parse_cell_key(cell_key(cell))]).groups[0][0], SLOT_OFFSETS[1:])
    for slot, field in enumerate((0, 2, 1, 3)):
        want = np.bincount([f[field] for f in fields], minlength=SLOT_VOCABS[slot])
        assert np.array_equal(np.rint(slots[slot] * b), want)


def test_factored_forward_matches_concatenated_embeddings():
    cells, accs = train_batch(n=30, b=3)
    more, _ = train_batch(n=10, b=7, seed=8)
    model = new_predictor("mlp", 2)
    model.fit(cells, accs, level=1)
    p = model.params
    ci1, ci2, co1, co2 = reference_slot_counts(cells + more)
    h = np.concatenate(
        [ci1 @ p["embed_in"], ci2 @ p["embed_in"], co1 @ p["embed_op"], co2 @ p["embed_op"]], axis=1
    )
    for layer in range(MLP_LAYERS):
        h = np.tanh(h @ p[f"w{layer}"] + p[f"b{layer}"])
    want = 1.0 / (1.0 + np.exp(-(h @ p["w_out"] + p["b_out"][0])))
    assert np.max(np.abs(model.predict(cells + more) - want)) < 1e-12


def colliding_cells(rng):
    """Cells of mixed lengths, each also present repeated and with its blocks permuted.

    Permuted blocks may read blocks that now come later; the MLP checks ids only.
    """
    cells = [random_cell(b, rng) for b in (1, 2, 3, 5, 7, 10) for _ in range(4)]
    cells += [tuple(cell[i] for i in rng.permutation(len(cell))) for cell in cells]
    cells += cells[::3]
    pair = random_cell(2, rng)
    cells += [pair, pair + pair]  # equal fractions, different counts
    return [cells[i] for i in rng.permutation(len(cells))]


def test_dedup_scores_bit_equal_to_every_row(monkeypatch):
    rng = np.random.default_rng(12)
    listed = colliding_cells(rng)
    base = np.asarray([random_cell(4, rng) for _ in range(9)])
    array = np.concatenate([base, base[:, ::-1], base[rng.permutation(9)], base[:, [2, 0, 3, 1]]])
    cells, accs = train_batch(n=40, b=3)
    model = new_predictor("mlp", 3)
    model.fit(cells, accs, level=1)
    ens = ensemble_fit(cells, accs, "mlp", 4, level=1)
    for batch in (listed, array):
        rows = np.hstack(reference_slot_counts(batch))
        lengths = np.asarray([len(cell) for cell in batch])
        n_distinct = len(np.unique(np.rint(rows * lengths[:, None]), axis=0))
        assert n_distinct < len(batch)
        single = model._output(model._forward(rows)[-1])
        bagged = np.mean([member._output(member._forward(rows)[-1]) for member in ens.members], axis=0)
        reached = []  # rows reaching the first layer, per forward pass

        def counted(self, counts, forward=MLPPredictor._forward):
            reached.append(len(counts))
            return forward(self, counts)

        monkeypatch.setattr(MLPPredictor, "_forward", counted)
        assert np.array_equal(model.predict(batch).view(np.int64), single.view(np.int64))
        assert reached == [n_distinct]
        encoded = []  # batches the ensemble encodes

        def encode(cells, encode=MLPPredictor.encode):
            encoded.append(len(cells))
            return encode(cells)

        monkeypatch.setattr(MLPPredictor, "encode", staticmethod(encode))
        assert np.array_equal(ens.predict(batch).view(np.int64), bagged.view(np.int64))
        assert reached == [n_distinct] * (1 + ENSEMBLE_SIZE)
        assert encoded == [len(batch)]
        monkeypatch.undo()


def test_scoring_forwards_score_rows_at_a_time(monkeypatch, shrink):
    rng = np.random.default_rng(13)
    batch = colliding_cells(rng)
    cells, accs = train_batch(n=40, b=3)
    for kind in ("mlp", "rnn"):
        if kind == "rnn":
            shrink(**SMALL)
        ens = ensemble_fit(cells, accs, kind, 5, level=1)
        whole = ens.predict(batch)
        reached = []  # rows of each forward pass
        if kind == "mlp":
            sizes = [len(ens.members[0].encode(batch).groups[0])]

            def counted(self, counts, forward=MLPPredictor._forward):
                reached.append(len(counts))
                return forward(self, counts)

            monkeypatch.setattr(MLPPredictor, "_forward", counted)
        else:
            sizes = [len(tokens) for tokens in RNNPredictor.encode(batch).groups]

            def counted(self, vocab_rows, projections, run=RNNPredictor._run):
                reached.append(len(vocab_rows))
                return run(self, vocab_rows, projections)

            monkeypatch.setattr(RNNPredictor, "_run", counted)
        assert max(sizes) > 7 and any(size % 7 for size in sizes)
        monkeypatch.setattr("pnas.predictors.SCORE_ROWS", 7)
        assert np.array_equal(ens.predict(batch).view(np.int64), whole.view(np.int64))
        # near-equal blocks of at most 7; a lone row (the rnn's one 4-block cell) runs as two
        blocks = [np.diff(size * np.arange(-(-size // 7) + 1) // -(-size // 7)) for size in sizes]
        blocks = np.concatenate(blocks).tolist()
        assert max(blocks) <= 7 and reached == [max(block, 2) for block in blocks] * ENSEMBLE_SIZE
        monkeypatch.undo()


def test_mlp_scores_at_score_rows_equal_a_single_pass(monkeypatch):
    # 4,246 distinct rows: four blocks of 1,024 and a 150-row tail would take other kernels than a single pass
    cells = one_block_cells()
    model = MLPPredictor(4)
    model.fit(cells, [SyntheticOracle().score(cell) for cell in cells], level=1)
    rng = np.random.default_rng(4)
    batch = [random_cell(5, rng) for _ in range(4246)]
    assert len(model.encode(batch).groups[0]) == 4246
    blocked = model.predict(batch)
    monkeypatch.setattr("pnas.predictors.SCORE_ROWS", 1 << 30)
    assert np.array_equal(blocked.view(np.int64), model.predict(batch).view(np.int64))


def traced_peak(model, batch) -> int:
    """The tracemalloc peak, in bytes, of scoring an already encoded batch."""
    tracemalloc.start()
    try:
        model.predict(batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scoring_holds_one_block_not_the_batch():
    """At full width, scoring a long encoded batch holds one block's activations, not the batch's."""
    rng = np.random.default_rng(18)
    rows = MLPPredictor.encode([random_cell(5, rng) for _ in range(21000)]).groups[0]
    assert len(rows) >= 20000
    mlp = MLPPredictor(7)
    peaks = [traced_peak(mlp, Encoded((rows[:n],), np.arange(n))) for n in (5000, 20000)]
    # the two (n, HIDDEN) float64 layers take 1.6 MB in a block of 1,024 rows, and 6.5 MB in one of 4,096
    assert peaks[1] < 2.5e6 and peaks[1] - peaks[0] < 0.5e6
    lstm = RNNPredictor(7)
    # 3,000 five-block cells, one length group: scored in a single block they peak at 27 MB
    assert traced_peak(lstm, RNNPredictor.encode(np.asarray([random_cell(5, rng) for _ in range(3000)]))) < 10e6


def test_mlp_trains_on_distinct_rows_like_on_every_cell():
    rng = np.random.default_rng(14)
    cells = colliding_cells(rng)
    model = MLPPredictor(6)
    model.fit(*train_batch(n=40, b=3), level=1)
    # each cell's target sits just above or below its score, so a repeated row's signs can cancel
    above = rng.random(len(cells)) < 0.5
    targets = model.predict(cells) + np.where(above, 0.05, -0.05)
    batch = model.encode(cells)
    rows, inverse = batch.groups[0], batch.inverse
    assert len(rows) < len(cells)
    n_above = np.bincount(inverse, above)
    assert np.any((n_above > 0) & (n_above < np.bincount(inverse)))
    per_cell = Encoded((rows[inverse],), np.arange(len(cells)))
    loss, grads = model.loss_and_grads(batch, targets, model._workspace())
    want_loss, want = model.loss_and_grads(per_cell, targets, model._workspace())
    assert abs(loss - want_loss) < 1e-12
    for key, grad in grads.items():
        assert np.max(np.abs(grad - want[key])) < 1e-12, key


def test_mlp_fit_forwards_each_distinct_row_once(monkeypatch, small):
    rng = np.random.default_rng(15)
    cells = colliding_cells(rng)
    n_distinct = len(MLPPredictor.encode(cells).groups[0])
    assert n_distinct < len(cells)
    reached = []  # rows of each training forward pass
    forward = MLPPredictor._forward

    def counted(self, counts, work=None):
        if work is not None:
            reached.append(len(counts))
        return forward(self, counts, work)

    monkeypatch.setattr(MLPPredictor, "_forward", counted)
    history = MLPPredictor(7).fit(cells, rng.uniform(0.6, 0.95, size=len(cells)), level=2)
    assert reached == [n_distinct] * len(history)


def test_free_cpus_count_usable_cpus_when_blas_is_pinned(monkeypatch):
    monkeypatch.setattr("pnas.predictors._BLAS_PINNED", True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # no thread variable is read
    assert _free_cpus() == 4


def test_free_cpus_is_one_when_blas_is_not_pinned(monkeypatch):
    # without the pin BLAS may run a thread per CPU, and workers would oversubscribe them
    monkeypatch.setattr("pnas.predictors._BLAS_PINNED", False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert _free_cpus() == 1


@pytest.mark.parametrize(
    "names",
    [("MKL_Set_Num_Threads",), ("openblas_set_num_threads", "openblas_set_num_threads64_"), ()],
)
def test_pin_blas_calls_the_first_setter_the_library_has(monkeypatch, names):
    calls = []
    lib = SimpleNamespace(**{name: lambda threads, name=name: calls.append((name, threads)) for name in names})
    monkeypatch.setattr(ctypes, "CDLL", lambda path: lib)
    first = [name for name in BLAS_SETTERS if name in names][:1]
    assert _pin_blas() is bool(names)
    assert calls == [(name, 1) for name in first]


def force_workers(monkeypatch, workers):
    monkeypatch.setattr("pnas.predictors._free_cpus", lambda: workers)


def pid_logging_fit(monkeypatch, log):
    """Make every fit append its process id to `log`, from whichever process runs it."""
    fit = Predictor.fit

    def logged(self, cells, accuracies, level):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return fit(self, cells, accuracies, level)

    monkeypatch.setattr(Predictor, "fit", logged)


@pytest.mark.parametrize("kind", ["mlp", "rnn"])
def test_ensemble_fit_does_not_depend_on_the_worker_count(monkeypatch, tmp_path, kind, small):
    cells, accs = train_batch(n=23, b=3)
    probe = [random_cell(b, np.random.default_rng(b)) for b in (1, 2, 4, 6)] + cells
    fits = {}
    for workers in (1, 2, 5):
        force_workers(monkeypatch, workers)
        log = tmp_path / f"pids-{workers}"
        pid_logging_fit(monkeypatch, log)
        ens = ensemble_fit(cells, accs, kind, 9, level=2)
        monkeypatch.undo()
        pids = log.read_text().split()
        assert len(pids) == ENSEMBLE_SIZE
        # one worker fits in this process; more fit in that many other processes
        assert len(set(pids) - {str(os.getpid())}) == (0 if workers == 1 else workers)
        fits[workers] = (snapshot_id(ens), [snapshot_id(m) for m in ens.members], ens.predict(probe).view(np.int64))
    for workers in (2, 5):
        assert fits[workers][:2] == fits[1][:2]
        assert np.array_equal(fits[workers][2], fits[1][2])


def test_fork_map_stripes_jobs_over_workers_and_never_nests(monkeypatch):
    def job(j):
        return j * j, os.getpid(), fork_map(lambda _: os.getpid(), range(2))

    force_workers(monkeypatch, 3)
    results = fork_map(job, range(7))
    assert [square for square, _, _ in results] == [j * j for j in range(7)]
    pids = [pid for _, pid, _ in results]
    assert len(set(pids)) == 3 and os.getpid() not in pids
    assert pids == [pids[j % 3] for j in range(7)]  # worker w takes jobs w, w + 3, ...
    assert all(nested == [pid, pid] for _, pid, nested in results)  # run in-process inside a worker
    assert not multiprocessing.active_children()
    # without the fork start method the jobs run in this process
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert fork_map(lambda j: (j, os.getpid()), range(3)) == [(j, os.getpid()) for j in range(3)]


def test_fork_map_notices_a_dead_worker_at_once(monkeypatch):
    def job(j):
        if j == 0:
            time.sleep(3)  # still busy when worker 1 dies
        else:
            os._exit(7)
        return j

    force_workers(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="a fork_map worker exited with code 7"):
        fork_map(job, range(2))
    assert time.monotonic() - started < 1.5
    assert not multiprocessing.active_children()


def test_ensemble_fit_raises_a_worker_exception_as_its_type(monkeypatch, small):
    cells, accs = train_batch(n=20)
    force_workers(monkeypatch, 2)
    fit = Predictor.fit

    def failing(self, cells, accuracies, level):
        if self.seed % 2:
            raise ZeroDivisionError(f"member with seed {self.seed} diverged")
        return fit(self, cells, accuracies, level)

    monkeypatch.setattr(Predictor, "fit", failing)
    with pytest.raises(ZeroDivisionError, match="diverged") as info:
        ensemble_fit(cells, accs, "mlp", 0, level=1)
    assert any("in an ensemble fit worker" in note for note in info.value.__notes__)
    assert not multiprocessing.active_children()


def test_sigmoid_within_half_an_ulp_of_one():
    rng = np.random.default_rng(6)
    z = np.concatenate([np.linspace(-800.0, 800.0, 16001), rng.normal(scale=5.0, size=4000)])
    with decimal.localcontext() as context:
        context.prec = 50
        exact = [1 / (1 + (-decimal.Decimal(x)).exp()) for x in z.tolist()]
        worst = max(abs(decimal.Decimal(p) - want) for p, want in zip(_sigmoid(z).tolist(), exact))
    assert worst <= decimal.Decimal(2.0**-53)


def test_sigmoid_special_values_and_monotone():
    got = _sigmoid(np.array([np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0, np.nan]))
    assert got[:6].tolist() == [1.0, 0.0, 0.5, 0.5, 1.0, 0.0]
    assert np.isnan(got[6])
    z = np.sort(np.concatenate([np.random.default_rng(7).normal(scale=20.0, size=200_000), np.linspace(-40.0, 40.0, 200_001)]))
    assert np.all(np.diff(_sigmoid(z)) >= 0.0)


def test_lstm_step_activates_gates_like_sigmoid_and_tanh(small):
    """One tanh over all four gates gives sigmoid of i, f and o and tanh of g, bit for bit."""
    rng = np.random.default_rng(8)
    model = new_predictor("rnn", 4)
    b = model.params["b"]
    b[::3] = np.resize([800.0, -800.0, 36.0, -36.0, 0.0, 1e-300, -745.0], b[::3].shape)
    batch = model.encode([random_cell(3, rng) for _ in range(20)])
    [tokens] = batch.groups
    vocab_rows = tokens + STEP_ROWS[: tokens.shape[1]]
    proj, wh = projections = model._projections()
    _, (gates, _, h, _) = model._run(vocab_rows, projections, model._workspace())
    hd = model.params["w_out"].size  # HIDDEN as the fixture shrank it
    for t in range(tokens.shape[1]):
        pre = h[t] @ wh + proj[vocab_rows[:, t]] if t else proj[vocab_rows[:, t]].copy()
        pre += b
        for j, activation in enumerate((_sigmoid, _sigmoid, np.tanh, _sigmoid)):
            cols = slice(j * hd, (j + 1) * hd)
            assert np.array_equal(gates[t][:, cols], activation(pre[:, cols]))


def test_lstm_workspace_reused_across_length_mixes(small):
    rng = np.random.default_rng(9)
    first = [random_cell(b, rng) for b in (3, 1, 3)]
    second = [random_cell(b, rng) for b in (2, 5)]
    targets = rng.uniform(0.3, 0.95, size=5)
    model = new_predictor("rnn", 4)
    model.fit(first + second, targets, level=1)  # move every weight off its initial value
    work = model._workspace()
    for cells, target in ((first, targets[:3]), (second, targets[3:]), (first, targets[:3])):
        batch = RNNPredictor.encode(cells)
        loss, grads = model.loss_and_grads(batch, target, work)
        grads = {key: value.copy() for key, value in grads.items()}
        fresh_loss, fresh_grads = model.loss_and_grads(batch, target, model._workspace())
        assert loss == fresh_loss
        for key in fresh_grads:
            assert np.array_equal(grads[key], fresh_grads[key]), key


def test_workspace_views_one_buffer_per_name():
    work = _Workspace()
    large = work("a", 4, 6)
    assert large.shape == (4, 6) and large.dtype == np.float64
    small = work("a", 2, 3)
    assert small.shape == (2, 3) and np.shares_memory(small, large)
    other = work("b", 2, 3)
    assert not np.shares_memory(other, large)
    larger = work("a", 5, 6)
    assert larger.shape == (5, 6) and not np.shares_memory(larger, large)
    assert np.shares_memory(work("a", 1), larger)


@pytest.mark.parametrize("kind", ["mlp", "rnn"])
def test_training_pass_allocates_nothing_batch_sized_after_the_first(kind):
    """Once a workspace has run a batch, a second pass over it allocates only vectors of length m or n."""
    rng = np.random.default_rng(17)
    model = new_predictor(kind, 6)
    peaks = []
    for n in (200, 800):
        # lengths 1-5, so the LSTM's later length groups grow its buffers during the first pass
        cells = [random_cell(1 + i % 5, rng) for i in range(n)]
        batch, targets = model.encode(cells), rng.uniform(0.6, 0.95, size=n)
        work = model._workspace()
        model.loss_and_grads(batch, targets, work)
        tracemalloc.start()
        try:
            model.loss_and_grads(batch, targets, work)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one (m, HIDDEN) float64 array would add 8 * HIDDEN = 800 bytes per cell
    assert (peaks[1] - peaks[0]) / 600 < 100


def unfactored_lstm(model, cells, targets):
    """Probabilities, L1 loss and gradients with each token embedded, one cell at a time.

    Gates are x @ W_x + h @ W_h + b with x = E[token]; every step adds its
    own weight gradients and scatters its embedding gradient with np.add.at.
    """
    p = model.params
    d, hd = p["embed_in"].shape[1], len(p["w_out"])
    wx, wh = p["w"][:d], p["w"][d:]
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731
    grads = {key: np.zeros_like(value) for key, value in p.items()}
    probs, loss, n = np.empty(len(cells)), 0.0, len(cells)
    for row, (cell, target) in enumerate(zip(cells, targets)):
        h, c, steps = np.zeros(hd), np.zeros(hd), []
        for t, token in enumerate(np.asarray(cell).reshape(-1)):
            table = "embed_in" if t % 4 < 2 else "embed_op"
            x = p[table][token]
            a = x @ wx + h @ wh + p["b"]
            i, f, g, o = sig(a[:hd]), sig(a[hd : 2 * hd]), np.tanh(a[2 * hd : 3 * hd]), sig(a[3 * hd :])
            c_next = f * c + i * g
            steps.append((table, token, x, h, c, i, f, g, o, np.tanh(c_next)))
            h, c = o * np.tanh(c_next), c_next
        probs[row] = prob = sig(h @ p["w_out"] + p["b_out"][0])
        loss += abs(prob - target) / n
        dz = np.sign(prob - target) / n * prob * (1.0 - prob)
        grads["w_out"] += h * dz
        grads["b_out"] += dz
        dh, dc = dz * p["w_out"], np.zeros(hd)
        for table, token, x, h_prev, c_prev, i, f, g, o, tanh_c in reversed(steps):
            dc = dc + dh * o * (1.0 - tanh_c**2)
            da = np.concatenate(
                [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f), dc * i * (1.0 - g**2), dh * tanh_c * o * (1.0 - o)]
            )
            grads["w"][:d] += np.outer(x, da)
            grads["w"][d:] += np.outer(h_prev, da)
            grads["b"] += da
            np.add.at(grads[table], token, da @ wx.T)
            dh, dc = da @ wh.T, dc * f
    return probs, loss, grads


def test_factored_lstm_matches_unfactored_reference(small):
    rng = np.random.default_rng(7)
    cells = [random_cell(b, rng) for b in (2, 1, 3, 5, 2, 3, 1, 4) for _ in range(3)]
    targets = rng.uniform(0.3, 0.95, size=len(cells))
    model = new_predictor("rnn", 5)
    model.fit(cells, targets, level=1)  # move every weight off its initial value
    probs, loss, grads = unfactored_lstm(model, cells, targets)
    batch = RNNPredictor.encode(cells)
    got_loss, got_grads = model.loss_and_grads(batch, targets, model._workspace())
    assert np.max(np.abs(model.predict(cells) - probs)) < 1e-12
    assert abs(got_loss - loss) < 1e-12
    assert got_grads.keys() == grads.keys()
    for key in grads:
        assert np.max(np.abs(got_grads[key] - grads[key])) < 1e-12, key


def assert_same_tokens(got, want):
    assert len(got) == len(want)
    assert len(got.groups) == len(want.groups)
    for tokens, want_tokens in zip(got.groups, want.groups):
        assert np.array_equal(tokens, want_tokens)
    assert np.array_equal(got.inverse, want.inverse)


def test_rnn_predicts_id_arrays_like_cells(small):
    rng = np.random.default_rng(8)
    cells = [random_cell(4, rng) for _ in range(25)]
    model = new_predictor("rnn", 0)
    array = np.asarray(cells, dtype=np.int8)
    assert_same_tokens(RNNPredictor.encode(array), RNNPredictor.encode(cells))
    assert np.array_equal(model.predict(array), model.predict(cells))


def mixed_length_cells(rng):
    cells = [random_cell(b, rng) for b in (4, 1, 3, 1, 5, 3, 2, 4) for _ in range(3)]
    return [cells[i] for i in rng.permutation(len(cells))]


def test_rnn_encode_groups_ascending_lengths_and_gathers_back():
    cells = mixed_length_cells(np.random.default_rng(10))
    batch = RNNPredictor.encode(cells)
    assert len(batch) == len(cells)
    assert [tokens.shape[1] for tokens in batch.groups] == [4, 8, 12, 16, 20]
    assert np.array_equal(np.sort(batch.inverse), np.arange(len(cells)))
    # each group keeps its cells in batch order
    assert np.array_equal(np.argsort(batch.inverse), np.argsort([len(cell) for cell in cells], kind="stable"))
    rows = [row for tokens in batch.groups for row in tokens]
    for cell, row in zip(cells, batch.inverse):
        assert np.array_equal(rows[row], np.asarray(cell).reshape(-1))


def test_token_batch_yields_every_cell_once():
    # perfbench counts a TokenBatch's tokens as 4 * sum(len(c) for c in batch)
    cells = mixed_length_cells(np.random.default_rng(11))
    batch = RNNPredictor.encode(cells)
    yielded = list(batch)
    assert len(yielded) == len(cells)
    for got, index in zip(yielded, np.argsort(batch.inverse)):
        assert np.array_equal(got, np.asarray(cells[index]))


def test_rnn_scores_a_cell_alone_like_in_a_batch(small):
    # a 1-row pass takes other BLAS kernels than the same row among others; on OpenBLAS, scoring a
    # lone row in a 1-row pass gave 33 of these 300 cells other bits than the batch
    rng = np.random.default_rng(2)
    cells = [random_cell(b, rng) for b in range(1, 6) for _ in range(12)]
    model = new_predictor("rnn", 6)
    model.fit(cells, rng.uniform(0.3, 0.95, size=len(cells)), level=1)
    batch = [random_cell(b, rng) for b in range(1, 6) for _ in range(60)]
    alone = np.concatenate([model.predict([cell]) for cell in batch])
    assert np.array_equal(alone.view(np.int64), model.predict(batch).view(np.int64))


@pytest.mark.parametrize("kind", ["mlp", "rnn"])
def test_ids_outside_the_vocabulary_rejected(kind, small):
    model = new_predictor(kind, 0)
    for block in (0, 1, 0, -1), (0, 1, 8, 0), (11, 0, 0, 0), (0, -1, 0, 0):
        with pytest.raises(ValueError, match="token ids"):
            model.predict([(block,)])
        with pytest.raises(ValueError, match="token ids"):
            model.fit([(block,)], [0.5], level=1)
    with pytest.raises(ValueError, match="token ids"):
        model.predict(np.asarray([[[0, 0, 0, 0]], [[0, 0, 0, 8]]]))


@pytest.mark.parametrize("kind", ["mlp", "rnn"])
def test_fresh_prediction_near_bias(kind):
    model = new_predictor(kind, 0)
    prob = model.predict([parse_cell_key("1|0,4,1,4")])[0]
    assert abs(prob - 1 / (1 + np.exp(-1.8))) < 0.02


@pytest.mark.parametrize("kind", ["mlp", "rnn"])
def test_same_seed_same_model(kind, small):
    a = new_predictor(kind, 11)
    b = new_predictor(kind, 11)
    assert snapshot_id(a) == snapshot_id(b)
    c = new_predictor(kind, 12)
    assert snapshot_id(a) != snapshot_id(c)


@pytest.mark.parametrize("kind", ["mlp", "rnn"])
def test_fit_reduces_training_error(kind, small):
    cells, accs = train_batch()
    model = new_predictor(kind, 0)
    before = np.mean(np.abs(model.predict(cells) - accs))
    history = model.fit(cells, accs, level=1)
    after = np.mean(np.abs(model.predict(cells) - accs))
    assert history.shape == (SMALL["EPOCHS_FIRST_LEVEL"],)
    assert after < before
    assert history[-1] < history[0]


@pytest.mark.parametrize("kind", ["mlp", "rnn"])
def test_fit_constant_labels(kind, small):
    cells, _ = train_batch(n=20)
    model = new_predictor(kind, 0)
    model.fit(cells, np.full(len(cells), 0.5), level=1)
    assert np.all(np.abs(model.predict(cells) - 0.5) < 0.02)


@pytest.mark.parametrize("kind", ["mlp", "rnn"])
def test_predict_extrapolates_to_longer_cells(kind, small):
    cells, accs = train_batch(n=30, b=2)
    model = new_predictor(kind, 0)
    model.fit(cells, accs, level=1)
    rng = np.random.default_rng(0)
    longer = [random_cell(3, rng) for _ in range(10)]
    probs = model.predict(longer)
    assert probs.shape == (10,)
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_mixed_length_batch_matches_per_length_calls(small):
    cells, accs = train_batch(n=20, b=1)
    more, _ = train_batch(n=20, b=3, seed=9)
    model = new_predictor("rnn", 0)
    model.fit(cells + more, np.concatenate([accs, accs]), level=1)
    mixed = model.predict(cells + more)
    assert np.array_equal(mixed[:20], model.predict(cells))
    assert np.array_equal(mixed[20:], model.predict(more))


def test_mlp_ignores_block_order_exactly(small):
    # all blocks reference only cell inputs, so any order is a valid cell
    blocks = (BlockSpec(0, 1, 0, 1), BlockSpec(0, 0, 2, 3), BlockSpec(1, 1, 5, 6))
    shuffled = (blocks[2], blocks[0], blocks[1])
    model = new_predictor("mlp", 0)
    assert np.array_equal(model.predict([blocks]), model.predict([shuffled]))


def test_rnn_reads_block_order(small):
    blocks = (BlockSpec(0, 1, 0, 1), BlockSpec(0, 0, 2, 3), BlockSpec(1, 1, 5, 6))
    shuffled = (blocks[2], blocks[0], blocks[1])
    model = new_predictor("rnn", 0)
    assert model.predict([blocks])[0] != model.predict([shuffled])[0]


def test_oversized_cell_rejected(small):
    big = tuple(BlockSpec(0, 0, 0, 0) for _ in range(11))
    model = new_predictor("mlp", 0)
    with pytest.raises(ValueError, match="at most 10"):
        model.predict([big])


def test_fit_validation(small):
    cells, accs = train_batch(n=5)
    model = new_predictor("mlp", 0)
    with pytest.raises(ValueError, match="one accuracy per cell"):
        model.fit(cells, accs[:-1], level=1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        model.fit(cells, accs + 1.0, level=1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        model.fit(cells, np.where(np.arange(len(accs)) == 2, np.nan, accs), level=1)
    with pytest.raises(ValueError, match="level"):
        model.fit(cells, accs, level=0)
    with pytest.raises(ValueError, match="one accuracy per cell"):
        model.fit([], np.array([]), level=1)


def test_fit_schedules(monkeypatch, shrink):
    shrink(EMBED_DIM=6, HIDDEN=5)
    rates = []

    class RecordingAdam(_Adam):
        def __init__(self, params, lr):
            rates.append(lr)
            super().__init__(params, lr)

    monkeypatch.setattr("pnas.predictors._Adam", RecordingAdam)
    cells, accs = train_batch(n=5)
    model = new_predictor("mlp", 0)
    assert [len(model.fit(cells, accs, level)) for level in (1, 2, 3)] == [200, 100, 100]
    assert rates == [0.01, 0.002, 0.002]


def test_new_predictor_dispatch():
    assert isinstance(new_predictor("mlp", 0), MLPPredictor)
    assert isinstance(new_predictor("rnn", 0), RNNPredictor)


def test_unknown_predictor_kind_rejected():
    with pytest.raises(ValueError, match=r"one of \('mlp', 'rnn'\), got 'mpl'"):
        new_predictor("mpl", 0)


@pytest.mark.parametrize("kind", ["mlp", "rnn"])
def test_parameters_are_embeddings_then_body_then_head(kind):
    model = new_predictor(kind, 0)
    rng = np.random.default_rng(derive_seed(0, "init", kind))
    d, h = EMBED_DIM, HIDDEN
    want = {
        "embed_in": rng.uniform(-0.1, 0.1, size=(INPUT_VOCAB, d)),
        "embed_op": rng.uniform(-0.1, 0.1, size=(OP_VOCAB, d)),
    }
    if kind == "mlp":
        width = 4 * d
        for layer in range(MLP_LAYERS):
            want[f"w{layer}"] = rng.uniform(-0.1, 0.1, size=(width, h))
            want[f"b{layer}"] = np.zeros(h)
            width = h
    else:
        want["w"] = rng.uniform(-0.1, 0.1, size=(d + h, 4 * h))
        want["b"] = np.zeros(4 * h)
    want["w_out"] = rng.uniform(-0.1, 0.1, size=h)
    want["b_out"] = np.full(1, FINAL_BIAS)
    assert list(model.params) == list(want)
    for name, value in want.items():
        assert np.array_equal(model.params[name].view(np.int64), value.view(np.int64)), name
    if kind == "rnn":
        assert np.array_equal(model._vocab(model.flat), np.vstack([want["embed_in"], want["embed_op"]]))


def test_ensemble_folds_partition():
    folds = ensemble_folds(23, seed=7)
    assert len(folds) == ENSEMBLE_SIZE
    joined = np.concatenate(folds)
    assert sorted(joined.tolist()) == list(range(23))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    again = ensemble_folds(23, seed=7)
    assert all(np.array_equal(a, b) for a, b in zip(folds, again))


def test_ensemble_fit_and_predict(small):
    cells, accs = train_batch(n=15)
    ens = ensemble_fit(cells, accs, "mlp", 0, level=1)
    assert len(ens.members) == ENSEMBLE_SIZE
    ids = {snapshot_id(m) for m in ens.members}
    assert len(ids) == ENSEMBLE_SIZE  # different folds, different weights
    want = np.mean([m.predict(cells) for m in ens.members], axis=0)
    assert np.array_equal(ens.predict(cells), want)


def test_ensemble_fit_tiny_dataset(monkeypatch, small):
    cells, accs = train_batch(n=3)
    ens = ensemble_fit(cells, accs, "mlp", 0, level=1)
    probs = ens.predict(cells)
    assert probs.shape == (3,)
    assert np.all((probs > 0) & (probs < 1))
    # on one cell, the member whose holdout is that cell trains on it as every other member does
    trained_on = []
    fit = Predictor.fit

    def logged(self, cells, accuracies, level):
        trained_on.append(list(cells))
        return fit(self, cells, accuracies, level)

    force_workers(monkeypatch, 1)
    monkeypatch.setattr(Predictor, "fit", logged)
    ensemble_fit(cells[:1], accs[:1], "mlp", 0, level=1)
    assert trained_on == [cells[:1]] * ENSEMBLE_SIZE


def test_ensemble_of_clones_equals_single(small):
    model = new_predictor("mlp", 0)
    ens = Ensemble(tuple(new_predictor("mlp", 0) for _ in range(5)))
    cells = one_block_cells()[:10]
    assert np.allclose(ens.predict(cells), model.predict(cells), atol=1e-15)


def test_ensemble_needs_members(small):
    with pytest.raises(ValueError, match="at least one member"):
        Ensemble(())
    with pytest.raises(ValueError, match="one predictor kind"):
        Ensemble((new_predictor("mlp", 0), new_predictor("rnn", 0)))


@pytest.mark.parametrize("kind", ["mlp", "rnn"])
def test_gradient_check(shrink, kind):
    shrink(EMBED_DIM=6, HIDDEN=5)
    rng = np.random.default_rng(1)
    for trial in range(2):
        model = new_predictor(kind, trial)
        cell = random_cell(2, rng)
        prob = float(model.predict([cell])[0])
        target = 0.2 if prob > 0.5 else 0.9
        assert gradient_check(model, cell, target) < 1e-4


def test_gradient_check_kink_guard(small):
    model = new_predictor("mlp", 0)
    cell = parse_cell_key("1|0,4,1,4")
    prob = float(model.predict([cell])[0])
    with pytest.raises(ValueError, match="kink"):
        gradient_check(model, cell, prob)
