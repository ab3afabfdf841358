"""Surrogate accuracy predictors over token-encoded cells.

A cell is encoded as a sequence of 4b tokens (I1, I2, O1, O2 per block).
Input tokens share one embedding table, operator tokens another. Two
regressor bodies are provided:

* ``mlp``: the four per-slot embeddings are averaged over blocks and
  concatenated into a 4D-dimensional vector, followed by two fully
  connected tanh layers and a sigmoid output. Averaging makes the MLP
  invariant to block order and to cell size, so one model serves every
  level. tanh (rather than a kinked activation) keeps the analytic
  gradients verifiable against central finite differences to tight
  tolerance.
* ``rnn``: an LSTM (forget/input/output gates, tanh cell) reads the
  token sequence one embedded token at a time; the final hidden state
  feeds the sigmoid output layer.

The two share everything but their bodies. ``Predictor`` draws both
embedding tables, then the body's weights (``_body_params``), then the
output layer, so every kind lays out its parameters in that order. It
also holds the one sigmoid head: ``_output`` maps a body's (n, HIDDEN)
last hidden layer to sigmoid(h @ w_out + b_out), and ``_head`` returns
the L1 loss summed over those rows, adds w_out's and b_out's gradients
and writes dL/dh, where the body's backward pass starts.

The MLP never builds that 4D-dimensional vector. A batch is encoded once
(``MLPPredictor.encode``) into slot counts: for each cell and each of the
four slots, the fraction of its blocks holding each of the 11 input or 8
operator ids, one (n, 38) matrix counted with one ``np.bincount`` per
slot into ``uint8`` columns. Count k of
a b-block cell maps to k copies of 1/b summed left to right, the value an
``np.add.at`` accumulation gives. The slot average of embeddings is then
``C_slot @ E_slot``, so the first layer factors through the 19-row
vocabulary: its pre-activation is ``sum over slots of C_slot @ (E_slot @
W0_slot)``, and its backward pass forms ``C_slot.T @ da`` once per slot
before reaching ``W0_slot`` and ``E_slot``. ``fit`` encodes its batch once,
not once per epoch.

Averaging also makes cells with equal slot counts score bit-equal, and
the children of a search collide often (202,336 children but 41,400
distinct rows over a B=5, K=64 search). So MLP prediction runs the
forward pass once per distinct row (``MLPPredictor.distinct``): rows are
keyed on their integer counts as a ``uint8`` void view, ``np.unique``
returns the distinct rows and the inverse index, and the scores are
gathered back through it. The key holds the cell length too, since each
slot's counts sum to it. An ensemble finds the distinct rows once for all
its members; training still runs on every row. The distinct rows go
through the forward pass ``SCORE_ROWS`` at a time, so the memory scoring
takes stays the same however many distinct rows a batch has (that number
follows the search's seed; a search's peak RSS would follow it too).

The LSTM encodes a batch (``RNNPredictor.encode``) into a ``TokenBatch``:
for each cell length b, the batch rows of the b-block cells and their
(m, 4b) token ids. Both encoders range-check ids through one helper. The
LSTM's input projection factors through the same vocabulary: its two
tables lead the flat parameter vector, so they read as one 19-row
vocabulary (operators after inputs) without a copy, each forward pass
computes ``E @ W_x`` (19 x 4h) once, and step t gathers
the rows of its tokens, so no input matmul runs inside the time loop. A
training pass keeps every step's activated gates in one (4b, m, 4h) array,
and the backward time loop overwrites them with the gate gradients da,
computing only ``dh = da @ W_h.T`` per step. After the loop ``W_h`` and
``b`` get their gradients from one matmul and one sum over all steps, and
the vocabulary collects ``dP = onehot(rows).T @ da``, which gives
``E.T @ dP`` for ``W_x`` and ``dP @ W_x.T`` for the embeddings.
Prediction keeps only the latest step's state, and runs each length group
in near-equal blocks of at most ``SCORE_ROWS`` rows, so its step buffers
do not grow with the batch. The final states of a whole length group are
kept for its one output-layer call, (m, HIDDEN) or 800 bytes a row, and
they do grow with it: up to a scoring chunk of a search, and a whole pool
in the harness. Every LSTM step, forward and backward, writes through
``out=`` into buffers made before the time loop.
A forward step makes one contiguous ``_sigmoid`` call over all four gates
(g's tanh is staged and put back), in place with one division and no
mask, and allocates only its z >= 0 mask; a backward step forms each
gate's gradient and multiplies all four by their activations'
derivatives at once, and allocates nothing.

Both are built from their kind and seed alone and train with one fixed
recipe: ``EMBED_DIM`` (100) wide embeddings and ``HIDDEN`` (100) hidden
units, L1 loss (subgradient 0 at the kink) under full-batch Adam, for
``EPOCHS_FIRST_LEVEL`` (200) epochs at learning rate ``LR_FIRST_LEVEL``
(0.01) at level 1 and ``EPOCHS_LATER_LEVELS`` (100) at ``LR_LATER_LEVELS``
(0.002) afterwards. The output bias starts at ``FINAL_BIAS`` (1.8), so a
fresh model predicts sigmoid(1.8) = 0.86, the mean one-block accuracy
prior, and the MLP has ``MLP_LAYERS`` (2) hidden layers. Bagged 5-member
ensembles refit each member from scratch on 4/5 of the data.

A predictor keeps its parameters in one flat float64 vector (``flat``);
``params`` maps each name to a view of it. ``fit`` allocates the
gradient vector (laid out the same way), Adam's m and v and two scratch
vectors once, and Adam makes its passes in place over the whole vector.
The MLP's training pass writes its activations and (n, h) temporaries
through ``out=`` into buffers sized once per fit, so an epoch allocates
only vectors of length n. The LSTM's workspace holds one set of flat
step-state and backward buffers, sized for the batch's largest length
group; each group runs in views of their leading elements, so a
mixed-length batch holds the largest group's states, not their sum.
Only ``fit`` encodes a training batch and allocates its workspace, and it
hands both to ``loss_and_grads``.

Importing this module pins numpy's BLAS to one thread for the whole
process (``_pin_blas``), so every fit and score runs the same kernels
whatever the host's thread settings. ``fork_map`` maps a function over
jobs in min(jobs, usable CPUs) forked worker processes, which share the
parent's pages and inherit the pin; each sends back its results through
a pipe, and they are returned in job order. ``ensemble_fit`` fits its
members through it, and so does the rank-correlation harness
(``pnas.harness``) with its independent fits. A member's fit reads only
its kind, seed, rows, targets and level, and the vectors are loaded in
member order, so the ensemble and everything computed from it are
bit-identical whatever the worker count. Scoring stays in the calling
process.

All arithmetic is float64 and every weight is reachable by
``gradient_check``, which compares the analytic gradient of the full
L1 + sigmoid pipeline against central finite differences.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .cells import B_MAX, CellSpec, Operator
from .seeding import derive_seed

INPUT_VOCAB = B_MAX + 1  # input ids 0 .. B_MAX cover blocks of every level
OP_VOCAB = len(Operator)
ENSEMBLE_SIZE = 5
SCORE_ROWS = 4096  # rows per forward pass when scoring

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# the paper's training recipe, the same for every predictor
EMBED_DIM = 100
HIDDEN = 100
MLP_LAYERS = 2
FINAL_BIAS = 1.8
EPOCHS_FIRST_LEVEL = 200
EPOCHS_LATER_LEVELS = 100
LR_FIRST_LEVEL = 0.01
LR_LATER_LEVELS = 0.002

# slot counts: I1, I2 over the input vocabulary, then O1, O2 over the operators
SLOT_VOCABS = (INPUT_VOCAB, INPUT_VOCAB, OP_VOCAB, OP_VOCAB)
SLOT_OFFSETS = np.cumsum((0,) + SLOT_VOCABS[:-1])
SLOT_WIDTH = sum(SLOT_VOCABS)

# the LSTM stacks both tables into one vocabulary, operators after inputs;
# step t of a cell reads row token + STEP_ROWS[t] of it
STEP_ROWS = np.tile([0, 0, INPUT_VOCAB, INPUT_VOCAB], B_MAX)
STEP_VOCAB = np.arange(INPUT_VOCAB + OP_VOCAB)


def _fraction_table() -> np.ndarray:
    """table[b, k]: k copies of 1/b added left to right, as np.add.at accumulates them."""
    table = np.zeros((B_MAX + 1, B_MAX + 1))
    for b in range(1, B_MAX + 1):
        for k in range(1, b + 1):
            table[b, k] = table[b, k - 1] + 1.0 / b
    return table


_FRACTIONS = _fraction_table()


# thread-count setters of numpy's bundled OpenBLAS, a system OpenBLAS (64-bit, then 32-bit ints) and MKL
BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads", "MKL_Set_Num_Threads")


def _pin_blas() -> bool:
    """Set numpy's BLAS to one thread; False when no known setter is found.

    A dlsym on numpy's linear-algebra extension also searches the BLAS
    library it links, so one handle finds whichever setter that library has.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in BLAS_SETTERS:
        if hasattr(lib, name):
            getattr(lib, name)(1)
            return True
    return False


_BLAS_PINNED = _pin_blas()


def _cell_blocks(cells) -> tuple[np.ndarray, np.ndarray]:
    """(blocks per cell, (total blocks, 4) token ids) of a batch, range-checked.

    `cells` is a sequence of cells of any mix of lengths, or an (n, b, 4)
    id array, whose ids keep their integer dtype; both encoders read their
    batch through this one check.
    """
    if isinstance(cells, np.ndarray):
        if cells.ndim != 3 or cells.shape[2] != 4:
            raise ValueError(f"a cell array must have shape (n, b, 4), got {cells.shape}")
        lengths = np.full(len(cells), cells.shape[1])
        blocks = cells.reshape(-1, 4)
    else:
        lengths = np.fromiter((len(cell) for cell in cells), dtype=np.intp, count=len(cells))
        blocks = np.asarray([block for cell in cells for block in cell], dtype=np.intp).reshape(-1, 4)
    if len(lengths) == 0:
        raise ValueError("need at least one cell")
    if lengths.max() > B_MAX:
        raise ValueError(f"cell has {lengths.max()} blocks, vocabulary covers at most {B_MAX}")
    if lengths.min() < 1:
        raise ValueError("a cell needs at least one block")
    if blocks.min() < 0 or blocks[:, :2].max() >= INPUT_VOCAB or blocks[:, 2:].max() >= OP_VOCAB:
        raise ValueError(f"token ids must lie in [0, {INPUT_VOCAB}) for inputs and [0, {OP_VOCAB}) for operators")
    return lengths, blocks


def _slot_counts(cells) -> tuple[np.ndarray, np.ndarray]:
    """(blocks per cell, (n, SLOT_WIDTH) uint8 slot counts) of a range-checked batch.

    Each slot is counted with one np.bincount over cell * vocab + id, written
    into its columns; a count never exceeds B_MAX.
    """
    lengths, blocks = _cell_blocks(cells)
    n = len(lengths)
    cell_of = np.repeat(np.arange(n), lengths)
    counts = np.empty((n, SLOT_WIDTH), dtype=np.uint8)
    for slot, (offset, vocab) in enumerate(zip(SLOT_OFFSETS, SLOT_VOCABS)):
        index = cell_of * vocab
        index += blocks[:, slot]
        counts[:, offset : offset + vocab] = np.bincount(index, minlength=n * vocab).reshape(n, vocab)
    return lengths, counts


@dataclass(frozen=True, eq=False)
class SlotCounts:
    """A batch encoded for the MLP: one row of slot counts per cell.

    Columns ``SLOT_OFFSETS[s] : SLOT_OFFSETS[s] + SLOT_VOCABS[s]`` of row r
    hold, for every id of slot s (I1, I2, O1, O2), the fraction of the
    blocks of cell r that carry it.
    """

    matrix: np.ndarray

    def __len__(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True, eq=False)
class TokenBatch:
    """A batch encoded for the LSTM, grouped by cell length.

    ``groups`` holds, for each cell length b in ascending order, the batch
    rows of the b-block cells and their (m, 4b) token ids: I1, I2, O1, O2
    of each block in turn.
    """

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return sum(len(rows) for rows, _ in self.groups)

    def __iter__(self):
        """The cells as (b, 4) id arrays, in batch order."""
        cells = [None] * len(self)
        for rows, tokens in self.groups:
            for row, cell in zip(rows, tokens.reshape(len(rows), -1, 4)):
                cells[row] = cell
        return iter(cells)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, without masks or branches.

    Bit-equal to evaluating each branch on its own elements: e = exp(min(z,
    -z)) is exp(-z) or exp(z) as the branch needs, and keeps a NaN's sign
    bit. The numerator max(e, z >= 0) is 1 where z >= 0 (there e <= 1) and
    e below, so one division serves both branches. The denominator 1 + e
    and then the result go into `out` when given, which may be `z` itself:
    the LSTM writes its gates in place on every step. Temporaries: the
    z >= 0 mask, and e unless `scratch` (shaped like z) is given to hold it.
    """
    positive = z >= 0
    e = np.negative(z, out=scratch)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    d = np.add(e, 1.0, out=out)
    np.maximum(e, positive, out=e)
    return np.divide(e, d, out=d)


class _Adam:
    """Adam over one flat parameter vector, in place.

    m, v and two scratch vectors are allocated once, and each step makes
    whole-vector passes in the per-element order of m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g*g, value -= lr*(m/bias1) / (sqrt(v/bias2) + eps).
    """

    def __init__(self, params: np.ndarray, lr: float) -> None:
        self.params = params
        self.lr = lr
        self.t = 0
        self.m, self.v, self.step_size, self.denom = (np.zeros_like(params) for _ in range(4))

    def step(self, g: np.ndarray) -> None:
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        m, v, step, denom = self.m, self.v, self.step_size, self.denom
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        m += step
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=step)
        step *= g
        v += step
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, bias1, out=step)
        step *= self.lr
        step /= denom
        self.params -= step


class Predictor:
    """Shared parameters, head and fit/predict machinery; subclasses supply the body's weights, forward and backward."""

    kind = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(derive_seed(seed, "init", self.kind))
        params = self._init_params(rng)
        self._shapes = [(key, value.shape) for key, value in params.items()]
        self.flat = np.concatenate([value.ravel() for value in params.values()])
        self.params = self._views(self.flat)

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of a vector laid out like `flat`: one per parameter, in init order."""
        views, start = {}, 0
        for key, shape in self._shapes:
            size = math.prod(shape)
            views[key] = flat[start : start + size].reshape(shape)
            start += size
        return views

    def _workspace(self, batch) -> SimpleNamespace:
        """What a training pass over an encoded batch writes: the gradient vector, its named views, the temporaries."""
        grad = np.zeros_like(self.flat)
        return SimpleNamespace(grad=grad, grads=self._views(grad), **self._buffers(batch))

    def _init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """The embedding tables, the body's weights and the output layer, drawn and laid out in that order."""
        return {
            # the tables come first, inputs then operators, so RNNPredictor._vocab can read them as one view
            "embed_in": rng.uniform(-0.1, 0.1, size=(INPUT_VOCAB, EMBED_DIM)),
            "embed_op": rng.uniform(-0.1, 0.1, size=(OP_VOCAB, EMBED_DIM)),
            **self._body_params(rng),
            "w_out": rng.uniform(-0.1, 0.1, size=HIDDEN),
            "b_out": np.full(1, FINAL_BIAS),
        }

    def _body_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        raise NotImplementedError

    @staticmethod
    def encode(cells):
        """The batch as predict and loss_and_grads consume it, encoded once."""
        raise NotImplementedError

    def distinct(self, cells):
        """The encoded rows the forward pass runs on, and the index that gathers their scores back to `cells`.

        Here every cell is a row of its own; the MLP scores each distinct row once.
        """
        batch = self.encode(cells)
        return batch, np.arange(len(batch))

    def _scores(self, batch) -> np.ndarray:
        """Predicted accuracy of each row of an encoded batch."""
        raise NotImplementedError

    def _output(self, h: np.ndarray) -> np.ndarray:
        """The sigmoid head: predicted accuracy of each row of a body's (n, HIDDEN) last hidden layer."""
        return _sigmoid(h @ self.params["w_out"] + self.params["b_out"][0])

    def _head(self, h: np.ndarray, targets: np.ndarray, n: int, grads: dict, dh: np.ndarray) -> float:
        """Sum of |p - y| over the rows of `h`, for an L1 loss averaged over `n` cells.

        Adds the head's gradients to ``grads["w_out"]`` and ``grads["b_out"]``,
        and writes dL/dh, the body's backward input, into `dh`.
        """
        probs = self._output(h)
        residual = probs - targets
        dz = np.sign(residual) / n * probs * (1.0 - probs)
        grads["w_out"] += h.T @ dz
        grads["b_out"] += dz.sum()
        np.multiply(dz[:, None], self.params["w_out"], out=dh)
        return float(np.sum(np.abs(residual)))

    def predict(self, cells) -> np.ndarray:
        """Predicted accuracy of each cell, or of each row of an already encoded batch."""
        if isinstance(cells, (SlotCounts, TokenBatch)):
            return self._scores(cells)
        batch, inverse = self.distinct(cells)
        return self._scores(batch)[inverse]

    def loss_and_grads(self, batch, targets: np.ndarray, work) -> tuple[float, dict[str, np.ndarray]]:
        """L1 loss over an encoded batch and its gradients, written into `work` (the batch's `_workspace`)."""
        raise NotImplementedError

    def fit(self, cells, accuracies, level: int) -> np.ndarray:
        """Full-batch Adam on L1 loss; returns the per-epoch loss history.

        `cells` is encoded once, not per epoch. The gradient vector, Adam's
        state and the kind's temporaries are allocated once here, and every
        epoch writes into them.
        """
        targets = np.asarray(accuracies, dtype=float)
        if len(cells) == 0 or targets.shape != (len(cells),):
            raise ValueError(f"need one accuracy per cell, got {len(cells)} cells, {targets.shape} targets")
        if not np.all((targets >= 0.0) & (targets <= 1.0)):  # NaN fails both
            raise ValueError("accuracies must lie in [0, 1]")
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        batch = self.encode(cells)
        first = level == 1
        optimizer = _Adam(self.flat, LR_FIRST_LEVEL if first else LR_LATER_LEVELS)
        history = np.empty(EPOCHS_FIRST_LEVEL if first else EPOCHS_LATER_LEVELS)
        work = self._workspace(batch)
        for epoch in range(len(history)):
            history[epoch], _ = self.loss_and_grads(batch, targets, work)
            optimizer.step(work.grad)
        return history


class MLPPredictor(Predictor):
    kind = "mlp"

    def _body_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        params, width = {}, 4 * EMBED_DIM
        for layer in range(MLP_LAYERS):
            params[f"w{layer}"] = rng.uniform(-0.1, 0.1, size=(width, HIDDEN))
            params[f"b{layer}"] = np.zeros(HIDDEN)
            width = HIDDEN
        return params

    @staticmethod
    def encode(cells) -> SlotCounts:
        """Slot counts of a batch: cells of any mix of lengths, or an (n, b, 4) id array.

        Each (cell, slot, id) occurrence is counted with one np.bincount,
        and count k of a b-block cell becomes k copies of 1/b summed left
        to right.
        """
        lengths, counts = _slot_counts(cells)
        return SlotCounts(_FRACTIONS[lengths[:, None], counts])

    def distinct(self, cells) -> tuple[SlotCounts, np.ndarray]:
        """Slot counts of the distinct rows of a batch, and each cell's row among them.

        Rows are keyed on their integer counts as bytes. A slot's counts sum
        to the cell length, so cells of different lengths never share a key,
        and each distinct row's length is read back from its I1 counts.
        """
        counts = _slot_counts(cells)[1]
        keys, inverse = np.unique(counts.view(np.dtype((np.void, SLOT_WIDTH))).ravel(), return_inverse=True)
        rows = keys.view(np.uint8).reshape(-1, SLOT_WIDTH)
        lengths = rows[:, :INPUT_VOCAB].sum(axis=1, keepdims=True)
        return SlotCounts(_FRACTIONS[lengths, rows]), inverse

    def _slot_weights(self) -> list[tuple[str, slice, slice]]:
        """(embedding table, rows of w0, columns of the slot counts) of each slot."""
        d = EMBED_DIM
        tables = ("embed_in", "embed_in", "embed_op", "embed_op")
        return [
            (table, slice(s * d, (s + 1) * d), slice(offset, offset + vocab))
            for s, (table, offset, vocab) in enumerate(zip(tables, SLOT_OFFSETS, SLOT_VOCABS))
        ]

    def _forward_buffers(self, n: int) -> dict[str, np.ndarray]:
        h = HIDDEN
        return {
            "projected": np.empty((SLOT_WIDTH, h)),
            "hidden": np.empty((MLP_LAYERS, n, h)),
        }

    def _buffers(self, batch: SlotCounts) -> dict[str, np.ndarray]:
        n, h = len(batch), HIDDEN
        return {
            **self._forward_buffers(n),
            "dh": np.empty((n, h)),
            "da": np.empty((n, h)),
            "d_counts": np.empty((SLOT_WIDTH, h)),
            "d_embed": np.empty((max(SLOT_VOCABS), EMBED_DIM)),
        }

    def _forward(self, counts: SlotCounts, work=None) -> np.ndarray:
        """The tanh output of every hidden layer, stacked (layers, n, h); the head reads the last.

        The first layer runs through the vocabulary: each slot's table is
        projected by its rows of w0, and the counts pick up the projections.
        Activations go into `work` (a training workspace) when it is given.
        """
        p = self.params
        if work is None:
            work = SimpleNamespace(**self._forward_buffers(len(counts)))
        projected, hidden = work.projected, work.hidden
        for table, rows, columns in self._slot_weights():
            np.matmul(p[table], p["w0"][rows], out=projected[columns])
        np.matmul(counts.matrix, projected, out=hidden[0])
        for layer in range(MLP_LAYERS):
            if layer:
                np.matmul(hidden[layer - 1], p[f"w{layer}"], out=hidden[layer])
            hidden[layer] += p[f"b{layer}"]
            np.tanh(hidden[layer], out=hidden[layer])
        return hidden

    def _scores(self, batch: SlotCounts) -> np.ndarray:
        probs = np.empty(len(batch))
        for start in range(0, len(batch), SCORE_ROWS):
            # the hidden stack stays a temporary, so one block's activations are freed before the next's
            rows = SlotCounts(batch.matrix[start : start + SCORE_ROWS])
            probs[start : start + SCORE_ROWS] = self._output(self._forward(rows)[-1])
        return probs

    def loss_and_grads(self, counts: SlotCounts, targets: np.ndarray, work) -> tuple[float, dict[str, np.ndarray]]:
        """L1 loss and its gradients; (n, h) temporaries go into the workspace through ``out=``."""
        hidden = self._forward(counts, work)
        grads, p = work.grads, self.params
        dh, da = work.dh, work.da
        grads["w_out"].fill(0.0)
        grads["b_out"].fill(0.0)
        loss = self._head(hidden[-1], targets, len(counts), grads, dh) / len(counts)
        for layer in reversed(range(MLP_LAYERS)):
            # da = dh * (1 - hidden^2)
            np.multiply(hidden[layer], hidden[layer], out=da)
            np.subtract(1.0, da, out=da)
            da *= dh
            np.sum(da, axis=0, out=grads[f"b{layer}"])
            if layer:
                np.matmul(hidden[layer - 1].T, da, out=grads[f"w{layer}"])
                np.matmul(da, p[f"w{layer}"].T, out=dh)
        d_counts = np.matmul(counts.matrix.T, da, out=work.d_counts)
        grads["embed_in"].fill(0.0)
        grads["embed_op"].fill(0.0)
        for table, rows, columns in self._slot_weights():
            np.matmul(p[table].T, d_counts[columns], out=grads["w0"][rows])
            d_embed = np.matmul(d_counts[columns], p["w0"][rows].T, out=work.d_embed[: len(p[table])])
            grads[table] += d_embed
        return loss, grads


class RNNPredictor(Predictor):
    kind = "rnn"

    def _body_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        # gate order along the last axis: input, forget, cell, output
        return {"w": rng.uniform(-0.1, 0.1, size=(EMBED_DIM + HIDDEN, 4 * HIDDEN)), "b": np.zeros(4 * HIDDEN)}

    @staticmethod
    def encode(cells) -> TokenBatch:
        """Token ids of a batch, grouped by length: cells of any mix of lengths, or an (n, b, 4) id array."""
        lengths, blocks = _cell_blocks(cells)
        first = np.cumsum(lengths) - lengths
        groups = []
        for b in np.unique(lengths):
            rows = np.flatnonzero(lengths == b)
            tokens = blocks[first[rows, None] + np.arange(b)].reshape(len(rows), 4 * b)
            groups.append((rows, tokens))
        return TokenBatch(tuple(groups))

    def _vocab(self, flat: np.ndarray) -> np.ndarray:
        """Both embedding tables as one (19, d) view, inputs then operators, of a vector laid out like `flat`."""
        return flat[: len(STEP_VOCAB) * EMBED_DIM].reshape(len(STEP_VOCAB), -1)

    def _projections(self) -> tuple[np.ndarray, np.ndarray]:
        """The stacked vocabulary projected into the gates (19 x 4h), and the recurrent weights."""
        d = EMBED_DIM
        return self._vocab(self.flat) @ self.params["w"][:d], self.params["w"][d:]

    def _state_buffers(self, rows: int, kept: int, states: int) -> dict[str, np.ndarray]:
        """Flat buffers for `kept` (step, row) pairs of gates and tanh_c, and `states` of h and c.

        A pass over m rows takes views of their leading elements.
        ``scratch`` holds (m, 4h) values a step uses and drops: its gathered
        input term, the sigmoid's exponentials, and in the backward pass
        each gate's gradient before its activation's derivative.
        """
        hd = HIDDEN
        return {
            "gates": np.empty(kept * 4 * hd),
            "tanh_c": np.empty(kept * hd),
            "h": np.empty(states * hd),
            "c": np.empty(states * hd),
            "scratch": np.empty(rows * 4 * hd),
        }

    def _buffers(self, batch: TokenBatch) -> dict[str, np.ndarray]:
        """One training pass's buffers, sized for the batch's largest length group.

        Every group works in views of their leading elements, so a
        mixed-length batch holds the largest group's states, not their sum.
        """
        hd = HIDDEN
        rows = max(len(group_rows) for group_rows, _ in batch.groups)
        kept = max(tokens.size for _, tokens in batch.groups)
        states = max(tokens.size + len(group_rows) for group_rows, tokens in batch.groups)
        return {
            **self._state_buffers(rows, kept, states),
            **{name: np.empty(rows * hd) for name in ("dh", "dc", "s1", "s2")},
            "onehot": np.empty(len(STEP_VOCAB) * kept),
            "d_wh": np.empty((hd, 4 * hd)),
            "d_proj": np.empty((len(STEP_VOCAB), 4 * hd)),
            "d_part": np.empty((len(STEP_VOCAB), 4 * hd)),
        }

    def _run(self, vocab_rows: np.ndarray, projections, work=None):
        """Final hidden state over equal-length cells, given as (m, 4b) vocabulary rows, and the states.

        Step t gathers its input term from the projected vocabulary. In a
        training workspace `work`, every step's states are kept: ``gates[t]``
        (activated i, f, g, o), ``tanh_c[t]``, and ``h[t]``, ``c[t]``, the
        state step t starts from (``h[4b]`` is the final one). Without one,
        fresh buffers hold one step, and h and c are updated in place, so
        memory does not grow with the cell length. Every step writes
        through ``out=`` and allocates only the sigmoid's z >= 0 mask.
        """
        proj, wh = projections
        hd = HIDDEN
        m, steps = vocab_rows.shape
        kept, depth = (steps, steps + 1) if work is not None else (1, 1)
        if work is None:
            work = SimpleNamespace(**self._state_buffers(m, m, m))
        gates = work.gates[: kept * m * 4 * hd].reshape(kept, m, 4 * hd)
        tanh_c = work.tanh_c[: kept * m * hd].reshape(kept, m, hd)
        h = work.h[: depth * m * hd].reshape(depth, m, hd)
        c = work.c[: depth * m * hd].reshape(depth, m, hd)
        scratch = work.scratch[: m * 4 * hd].reshape(m, 4 * hd)
        h[0] = 0.0
        c[0] = 0.0
        # the rows were range-checked at encoding, and mode="clip" spares np.take a buffered copy
        for t in range(steps):
            now, nxt, k = t % depth, (t + 1) % depth, t % kept
            a = gates[k]
            if t:
                np.matmul(h[now], wh, out=a)
                np.take(proj, vocab_rows[:, t], axis=0, out=scratch, mode="clip")
                a += scratch
            else:
                np.take(proj, vocab_rows[:, 0], axis=0, out=a, mode="clip")
            a += self.params["b"]
            i, f, g, o = (a[:, j * hd : (j + 1) * hd] for j in range(4))
            # one contiguous sigmoid over all four gates, g's tanh staged in tanh_c[k] and put back
            np.tanh(g, out=tanh_c[k])
            _sigmoid(a, out=a, scratch=scratch)
            g[...] = tanh_c[k]
            # c[t + 1] = f * c[t] + i * g, with i * g staged in tanh_c[k]
            np.multiply(f, c[now], out=c[nxt])
            np.multiply(i, g, out=tanh_c[k])
            c[nxt] += tanh_c[k]
            np.tanh(c[nxt], out=tanh_c[k])
            np.multiply(o, tanh_c[k], out=h[nxt])
        return h[steps % depth], (gates, tanh_c, h, c)

    def _scores(self, batch: TokenBatch) -> np.ndarray:
        """Each length group runs through the LSTM in near-equal blocks of at most SCORE_ROWS rows.

        A 1-row block would take other BLAS kernels than the same row in a
        larger pass, and the output layer's matrix-vector product depends
        on row positions, so blocks are near-equal and the output layer
        runs once per group: scores do not depend on SCORE_ROWS.
        """
        projections = self._projections()
        out = np.empty(len(batch))
        for rows, tokens in batch.groups:
            m = len(rows)
            n_blocks = -(-m // SCORE_ROWS)
            bounds = [m * k // n_blocks for k in range(n_blocks + 1)]
            h_last = np.empty((m, HIDDEN))
            for lo, hi in zip(bounds, bounds[1:]):
                h_last[lo:hi] = self._run(tokens[lo:hi] + STEP_ROWS[: tokens.shape[1]], projections)[0]
            out[rows] = self._output(h_last)
        return out

    def loss_and_grads(self, batch: TokenBatch, targets: np.ndarray, work) -> tuple[float, dict[str, np.ndarray]]:
        """L1 loss and its gradients; only dh = da @ W_h^T runs inside the backward time loop.

        Each step's gate gradient da replaces its gates. After the loop, W_h
        and b take theirs from one matmul and one sum over all steps, and the
        stacked vocabulary collects dP = onehot(rows)^T @ da, which gives
        W_x's gradient as E^T @ dP and the embeddings' as dP @ W_x^T.
        """
        n = len(batch)
        p = self.params
        d, hd = EMBED_DIM, HIDDEN
        projections = self._projections()
        proj, wh = projections
        work.grad.fill(0.0)
        grads = work.grads
        d_proj = work.d_proj
        d_proj.fill(0.0)
        loss = 0.0
        for rows, tokens in batch.groups:
            m, steps = tokens.shape
            vocab_rows = tokens + STEP_ROWS[:steps]
            h_last, (gates, tanh_c, h, c) = self._run(vocab_rows, projections, work)
            dh, dc, s1, s2 = (buf[: m * hd].reshape(m, hd) for buf in (work.dh, work.dc, work.s1, work.s2))
            loss += self._head(h_last, targets[rows], n, grads, dh)
            lead = work.scratch[: m * 4 * hd].reshape(m, 4 * hd)
            lead_i, lead_f, lead_g, lead_o = (lead[:, j * hd : (j + 1) * hd] for j in range(4))
            dc.fill(0.0)
            for t in reversed(range(steps)):
                a = gates[t]
                i, f, g, o = (a[:, j * hd : (j + 1) * hd] for j in range(4))
                # dc += dh * o * (1 - tanh_c^2)
                np.multiply(dh, o, out=s1)
                np.multiply(tanh_c[t], tanh_c[t], out=s2)
                np.subtract(1.0, s2, out=s2)
                s1 *= s2
                dc += s1
                # each gate's gradient, then times its activation's derivative over all four gates at once:
                # dc * g * i by 1 - i, dc * c[t] * f by 1 - f, dc * i by 1 - g^2 and dh * tanh_c * o by 1 - o
                np.multiply(dc, g, out=lead_i)
                lead_i *= i
                np.multiply(dc, c[t], out=lead_f)
                lead_f *= f
                np.multiply(dc, i, out=lead_g)
                np.multiply(dh, tanh_c[t], out=lead_o)
                lead_o *= o
                dc *= f
                g *= g
                np.subtract(1.0, a, out=a)
                a *= lead
                if t:
                    np.matmul(a, wh.T, out=dh)
            da = gates.reshape(steps * m, 4 * hd)
            # step 0 starts from h = 0, so it adds nothing to W_h's gradient
            grads["w"][d:] += np.matmul(h[1:steps].reshape(-1, hd).T, da[m:], out=work.d_wh)
            grads["b"] += da.sum(axis=0)
            onehot = work.onehot[: len(proj) * steps * m].reshape(len(proj), steps * m)
            np.equal(STEP_VOCAB[:, None], vocab_rows.T.reshape(-1), out=onehot)
            d_proj += np.matmul(onehot, da, out=work.d_part)
        grads["w"][:d] = self._vocab(self.flat).T @ d_proj
        np.matmul(d_proj, p["w"][:d].T, out=self._vocab(work.grad))
        return loss / n, grads


PREDICTORS = {"mlp": MLPPredictor, "rnn": RNNPredictor}


def new_predictor(kind: str, seed: int) -> Predictor:
    if kind not in PREDICTORS:
        raise ValueError(f"predictor kind must be one of {tuple(PREDICTORS)}, got {kind!r}")
    return PREDICTORS[kind](seed)


@dataclass(frozen=True)
class Ensemble:
    """Bag of predictors of one kind; the ensemble prediction is the member mean."""

    members: tuple[Predictor, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        if len({type(member) for member in self.members}) > 1:
            raise ValueError("ensemble members must share one predictor kind")

    def predict(self, cells) -> np.ndarray:
        batch, inverse = self.members[0].distinct(cells)
        return np.mean([member.predict(batch) for member in self.members], axis=0)[inverse]


def ensemble_folds(n: int, seed: int) -> list[np.ndarray]:
    """Seeded partition of range(n) into ENSEMBLE_SIZE near-equal holdouts."""
    order = np.random.default_rng(seed).permutation(n)
    return np.array_split(order, ENSEMBLE_SIZE)


_IN_WORKER = False  # set in a fork_map worker, whose own fork_map calls then run in-process


def _free_cpus() -> int:
    """The most fit workers the host takes: the usable CPUs, each running one BLAS thread.

    When the BLAS pin found no setter, BLAS may run a thread per CPU, and
    workers would oversubscribe the CPUs (with 2 BLAS threads on 2 CPUs, 2
    workers made a B=5, K=64 search 4.6 times slower than fitting in this
    process), so the fits stay in this process.
    """
    if not _BLAS_PINNED:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fork_worker(conn, readers: list, fn, jobs: list, label: str, parent: int) -> None:
    """Body of a fork_map worker: send the results of its jobs, or the first exception.

    On Linux it asks the kernel for SIGKILL when `parent` (the forking
    process) dies, and exits at once if that has already happened, so a
    killed run does not leave workers fitting for no one while they hold
    whatever the parent had open, such as the run directory's lock. It
    also closes the pipe read ends it inherited, its own among them: once
    the parent is gone no process can read its pipe, so the send fails and
    the worker exits instead of blocking forever on a full pipe. That is
    the only guard where there is no prctl.
    """
    global _IN_WORKER
    _IN_WORKER = True
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
        if os.getppid() != parent:
            os._exit(1)
    for reader in readers:
        reader.close()
    try:
        results = [fn(job) for job in jobs]
    except Exception as exc:  # noqa: BLE001 - the parent raises it
        import traceback

        exc.add_note(f"in {label}:\n" + "".join(traceback.format_exception(exc)))
        results = exc
    conn.send(results)
    conn.close()


def fork_map(fn, jobs, label: str = "a fork_map worker") -> list:
    """[fn(job) for job in jobs], computed in min(jobs, `_free_cpus()`) forked processes.

    Worker w takes jobs w, w + workers, ... and sends its results back
    through a pipe; the parent takes them as they arrive and returns them
    in job order. Forked workers read whatever `fn` reaches in the parent's
    memory without a copy; only results are pickled. The parent starts no
    thread: a pool's result threads would unpickle in glibc arenas of their
    own, which stay resident and raise the peak RSS. The jobs run in this
    process when there is one worker, when ``fork`` is unavailable, and
    inside a worker, so forks never nest. An exception in a worker reaches the caller as
    the same type, with a note naming `label`; a worker that dies raises
    ``RuntimeError`` as soon as its pipe closes, whatever the other workers
    are doing. Either way the other workers are terminated and joined.
    """
    jobs = list(jobs)
    workers = min(len(jobs), _free_cpus())
    if workers <= 1 or _IN_WORKER:
        return [fn(job) for job in jobs]
    import multiprocessing  # here, not at module level: commands that never fork do not load it
    from multiprocessing.connection import wait

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(job) for job in jobs]
    context = multiprocessing.get_context("fork")
    started = []
    try:
        for w in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            readers = [receiver, *(r for _, r in started)]
            proc = context.Process(target=_fork_worker, args=(sender, readers, fn, jobs[w::workers], label, os.getpid()))
            proc.start()
            sender.close()
            started.append((proc, receiver))
        shares = [None] * workers
        waiting = {receiver: (w, proc) for w, (proc, receiver) in enumerate(started)}
        while waiting:
            for receiver in wait(list(waiting)):
                w, proc = waiting.pop(receiver)
                try:
                    share = receiver.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"{label} exited with code {proc.exitcode} before sending its results") from None
                if isinstance(share, Exception):
                    raise share
                shares[w] = share
    except BaseException:
        for proc, _ in started:
            proc.terminate()
        raise
    finally:
        for proc, receiver in started:
            receiver.close()
            proc.join()
    return [shares[i % workers][i // workers] for i in range(len(jobs))]


def ensemble_fit(cells, accuracies, kind: str, seed: int, level: int) -> Ensemble:
    """Fit ENSEMBLE_SIZE fresh members, each holding out a disjoint fifth.

    Each member encodes its own rows of the training set, in ascending
    order, and trains on them. With fewer than ENSEMBLE_SIZE points some
    holdouts are empty, so each member trains on the full set minus at
    most one point.

    The members fit through `fork_map`, in min(ENSEMBLE_SIZE,
    `_free_cpus()`) forked processes that share the parent's pages and its
    one-thread BLAS pin. Each fit depends only on its member's kind, seed,
    rows, targets and level, and the trained parameters are loaded in member
    order, so the ensemble is bit-identical whatever the worker count.
    """
    targets = np.asarray(accuracies, dtype=float)
    folds = ensemble_folds(len(cells), derive_seed(seed, "folds", level))
    members = tuple(new_predictor(kind, derive_seed(seed, "member", level, index)) for index in range(ENSEMBLE_SIZE))

    def fit(index: int) -> np.ndarray:
        keep = np.setdiff1d(np.arange(len(cells)), folds[index])
        if not keep.size:
            keep = np.arange(len(cells))
        members[index].fit([cells[i] for i in keep], targets[keep], level)
        return members[index].flat

    for member, flat in zip(members, fork_map(fit, range(ENSEMBLE_SIZE), label="an ensemble fit worker")):
        member.flat[...] = flat
    return Ensemble(members)


def gradient_check(model: Predictor, cell: CellSpec, target: float, step: float = 1e-4) -> float:
    """Max relative error of analytic vs central-difference gradients.

    The loss is the single-point L1 + sigmoid pipeline. Entries where both
    gradients are below 1e-8 are skipped (zero rows of the embedding tables,
    genuinely flat directions). The prediction must sit away from the label
    by more than the perturbation can move it, else the finite difference
    would straddle the L1 kink.
    """
    targets = np.asarray([target], dtype=float)
    prob = float(model.predict([cell])[0])
    if abs(prob - target) < 100.0 * step:
        raise ValueError(
            f"prediction {prob:.6f} is within {100.0 * step} of the label; "
            "finite differences would straddle the L1 kink"
        )
    batch = model.encode([cell])
    _, grads = model.loss_and_grads(batch, targets, model._workspace(batch))

    def loss_at() -> float:
        return float(np.abs(model.predict([cell])[0] - target))

    worst = 0.0
    for key, values in model.params.items():
        flat = values.reshape(-1)
        analytic = grads[key].reshape(-1)
        for idx in range(flat.size):
            origin = flat[idx]
            flat[idx] = origin + step
            upper = loss_at()
            flat[idx] = origin - step
            lower = loss_at()
            flat[idx] = origin
            numeric = (upper - lower) / (2.0 * step)
            scale = max(abs(analytic[idx]), abs(numeric))
            if scale < 1e-8:
                continue
            worst = max(worst, abs(analytic[idx] - numeric) / scale)
    return worst


def snapshot_id(model: Predictor | Ensemble) -> str:
    """Digest of all weights; equal ids imply bit-identical predictions."""
    digest = hashlib.sha256()
    if isinstance(model, Ensemble):
        for member in model.members:
            digest.update(snapshot_id(member).encode("ascii"))
    else:
        for key in sorted(model.params):
            digest.update(key.encode("ascii"))
            digest.update(np.ascontiguousarray(model.params[key]).tobytes())
    return digest.hexdigest()[:16]
