"""Surrogate predictors: encoding, training, ensembling."""

import ctypes
import multiprocessing
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given

from pnas.cells import BlockSpec, cell_key, one_block_cells, parse_cell_key, random_cell
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
    Ensemble,
    MLPPredictor,
    Predictor,
    RNNPredictor,
    SlotCounts,
    _Adam,
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
    """I1, I2, O1, O2 frequencies accumulated with np.add.at, 1/b per block."""
    slots = [np.zeros((len(cells), vocab)) for vocab in SLOT_VOCABS]
    for row, cell in enumerate(cells):
        tokens = np.asarray(cell, dtype=np.int64).reshape(-1, 4)
        rows = np.full(len(tokens), row)
        for slot, counts in enumerate(slots):
            np.add.at(counts, (rows, tokens[:, slot]), 1.0 / len(tokens))
    return slots


def test_slot_counts_match_add_at_on_mixed_lengths():
    rng = np.random.default_rng(4)
    cells = [random_cell(b, rng) for b in (3, 1, 10, 2, 7, 3, 5, 9, 6) for _ in range(12)]
    encoded = MLPPredictor.encode(cells)
    assert len(encoded) == len(cells)
    assert np.array_equal(encoded.matrix, np.hstack(reference_slot_counts(cells)))


def test_slot_counts_match_add_at_on_id_array():
    rng = np.random.default_rng(5)
    for b in (3, 6, 7, 10):
        array = np.asarray([random_cell(b, rng) for _ in range(40)])
        assert array.shape == (40, b, 4)
        encoded = MLPPredictor.encode(array)
        assert len(encoded) == 40
        assert np.array_equal(encoded.matrix, np.hstack(reference_slot_counts(array)))


def test_slot_counts_reject_ids_outside_the_vocabulary():
    with pytest.raises(ValueError, match="token ids"):
        MLPPredictor.encode([(BlockSpec(0, 11, 0, 0),)])
    with pytest.raises(ValueError, match="token ids"):
        MLPPredictor.encode(np.asarray([[[0, 0, 8, 0]]]))
    with pytest.raises(ValueError, match="at least one cell"):
        MLPPredictor.encode([])


@given(raw_cells(max_blocks=10))
def test_slot_counts_follow_key_fields(cell):
    # keys write each block as i1,o1,i2,o2: inputs in fields 0 and 2, operators in 1 and 3
    fields = [
        [int(f) for f in segment.split(",")]
        for segment in cell_key(cell).split("|", 1)[1].split(";")
    ]
    b = len(fields)
    slots = np.hsplit(MLPPredictor.encode([parse_cell_key(cell_key(cell))]).matrix[0], SLOT_OFFSETS[1:])
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
        rows = SlotCounts(np.hstack(reference_slot_counts(batch)))
        lengths = np.asarray([len(cell) for cell in batch])
        n_distinct = len(np.unique(np.rint(rows.matrix * lengths[:, None]), axis=0))
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
        assert np.array_equal(ens.predict(batch).view(np.int64), bagged.view(np.int64))
        assert reached == [n_distinct] * (1 + ENSEMBLE_SIZE)
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
            sizes = [len(ens.members[0].distinct(batch)[0])]

            def counted(self, counts, forward=MLPPredictor._forward):
                reached.append(len(counts))
                return forward(self, counts)

            monkeypatch.setattr(MLPPredictor, "_forward", counted)
        else:
            sizes = [len(rows) for rows, _ in RNNPredictor.encode(batch).groups]

            def counted(self, vocab_rows, projections, run=RNNPredictor._run):
                reached.append(len(vocab_rows))
                return run(self, vocab_rows, projections)

            monkeypatch.setattr(RNNPredictor, "_run", counted)
        assert max(sizes) > 7 and any(size % 7 for size in sizes)
        monkeypatch.setattr("pnas.predictors.SCORE_ROWS", 7)
        assert np.array_equal(ens.predict(batch).view(np.int64), whole.view(np.int64))
        if kind == "mlp":  # blocks of 7 and the remainder
            blocks = [part for size in sizes for part in [7] * (size // 7) + [size % 7] if part]
        else:  # near-equal blocks of at most 7
            blocks = [np.diff(size * np.arange(-(-size // 7) + 1) // -(-size // 7)) for size in sizes]
            blocks = np.concatenate(blocks).tolist()
        assert max(blocks) <= 7 and reached == blocks * ENSEMBLE_SIZE
        monkeypatch.undo()


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


def masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bit_equal_to_masked_branches():
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan])
    assert np.array_equal(_sigmoid(special).view(np.int64), masked_sigmoid(special).view(np.int64))
    gates = np.random.default_rng(6).normal(scale=30.0, size=(64, 400))
    gates[::5, ::7] = np.resize(special, gates[::5, ::7].shape)
    for cols in (slice(0, 200), slice(300, 400), slice(1, 400, 3)):
        z = gates[:, cols]
        assert not z.flags.c_contiguous
        assert np.array_equal(_sigmoid(z).view(np.int64), masked_sigmoid(z).view(np.int64))
    for cols in (slice(0, 200), slice(300, 400), slice(1, 400, 3)):
        inplace = gates.copy()
        z = inplace[:, cols]
        want = masked_sigmoid(z)
        assert _sigmoid(z, out=z) is z
        assert np.array_equal(z.view(np.int64), want.view(np.int64))
        outside = np.ones(gates.shape, dtype=bool)
        outside[:, cols] = False
        assert np.array_equal(inplace[outside].view(np.int64), gates[outside].view(np.int64))
        target = np.zeros((64, 2 * gates.shape[1]))[:, ::2][:, cols]
        assert _sigmoid(gates[:, cols], out=target) is target
        assert np.array_equal(target.view(np.int64), want.view(np.int64))
    whole = gates.copy()  # all four gates at once, e held in a scratch array, as the LSTM step runs it
    assert _sigmoid(whole, out=whole, scratch=np.empty_like(whole)) is whole
    assert np.array_equal(whole.view(np.int64), masked_sigmoid(gates).view(np.int64))


def test_lstm_workspace_reused_across_length_mixes(small):
    rng = np.random.default_rng(9)
    first = [random_cell(b, rng) for b in (3, 1, 3)]
    second = [random_cell(b, rng) for b in (2, 5)]
    targets = rng.uniform(0.3, 0.95, size=5)
    model = new_predictor("rnn", 4)
    model.fit(first + second, targets, level=1)  # move every weight off its initial value
    work = model._workspace(RNNPredictor.encode(first))
    for cells, target in ((first, targets[:3]), (second, targets[3:]), (first, targets[:3])):
        batch = RNNPredictor.encode(cells)
        loss, grads = model.loss_and_grads(batch, target, work)
        grads = {key: value.copy() for key, value in grads.items()}
        fresh_loss, fresh_grads = model.loss_and_grads(batch, target, model._workspace(batch))
        assert loss == fresh_loss
        for key in fresh_grads:
            assert np.array_equal(grads[key], fresh_grads[key]), key


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
    got_loss, got_grads = model.loss_and_grads(batch, targets, model._workspace(batch))
    assert np.max(np.abs(model.predict(cells) - probs)) < 1e-12
    assert abs(got_loss - loss) < 1e-12
    assert got_grads.keys() == grads.keys()
    for key in grads:
        assert np.max(np.abs(got_grads[key] - grads[key])) < 1e-12, key


def assert_same_tokens(got, want):
    assert len(got) == len(want)
    assert len(got.groups) == len(want.groups)
    for (rows, tokens), (want_rows, want_tokens) in zip(got.groups, want.groups):
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(tokens, want_tokens)


def test_rnn_predicts_id_arrays_like_cells(small):
    rng = np.random.default_rng(8)
    cells = [random_cell(4, rng) for _ in range(25)]
    model = new_predictor("rnn", 0)
    array = np.asarray(cells, dtype=np.int8)
    assert_same_tokens(RNNPredictor.encode(array), RNNPredictor.encode(cells))
    assert np.array_equal(model.predict(array), model.predict(cells))


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


def test_ensemble_fit_tiny_dataset(small):
    cells, accs = train_batch(n=3)
    ens = ensemble_fit(cells, accs, "mlp", 0, level=1)
    probs = ens.predict(cells)
    assert probs.shape == (3,)
    assert np.all((probs > 0) & (probs < 1))


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
