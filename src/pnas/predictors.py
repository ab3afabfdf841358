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

The MLP never builds that 4D-dimensional vector. A batch is encoded once
(``MLPPredictor.encode``) into slot counts: for each cell and each of the
four slots, the fraction of its blocks holding each of the 11 input or 8
operator ids, one (n, 38) matrix counted with ``np.bincount``. Count k of
a b-block cell maps to k copies of 1/b summed left to right, the value an
``np.add.at`` accumulation gives. The slot average of embeddings is then
``C_slot @ E_slot``, so the first layer factors through the 19-row
vocabulary: its pre-activation is ``sum over slots of C_slot @ (E_slot @
W0_slot)``, and its backward pass forms ``C_slot.T @ da`` once per slot
before reaching ``W0_slot`` and ``E_slot``. ``fit`` encodes its batch once,
not once per epoch, and an ensemble encodes once for all its members.

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
tables are stacked into one 19-row vocabulary (operators after inputs),
each forward pass computes ``E @ W_x`` (19 x 4h) once, and step t gathers
the rows of its tokens, so no input matmul runs inside the time loop. A
training pass keeps every step's activated gates in one (4b, m, 4h) array,
and the backward time loop overwrites them with the gate gradients da,
computing only ``dh = da @ W_h.T`` per step. After the loop ``W_h`` and
``b`` get their gradients from one matmul and one sum over all steps, and
the vocabulary collects ``dP = onehot(rows).T @ da``, which gives
``E.T @ dP`` for ``W_x`` and ``dP @ W_x.T`` for the embeddings.
Prediction keeps only the latest step's state.

Both train with L1 loss (subgradient 0 at the kink) under full-batch
Adam, learning rate 0.01 at level 1 and 0.002 afterwards. The output
bias starts at 1.8, so a fresh model predicts sigmoid(1.8) = 0.86, the
mean one-block accuracy prior. Bagged 5-member ensembles refit each
member from scratch on 4/5 of the data.

All arithmetic is float64 and every weight is reachable by
``gradient_check``, which compares the analytic gradient of the full
L1 + sigmoid pipeline against central finite differences.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .cells import B_MAX, CellSpec, Operator
from .seeding import derive_seed

INPUT_VOCAB = B_MAX + 1  # input ids 0 .. B_MAX cover blocks of every level
OP_VOCAB = len(Operator)
ENSEMBLE_SIZE = 5
SCORE_ROWS = 4096  # rows per MLP forward pass when scoring

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# slot counts: I1, I2 over the input vocabulary, then O1, O2 over the operators
SLOT_VOCABS = (INPUT_VOCAB, INPUT_VOCAB, OP_VOCAB, OP_VOCAB)
SLOT_OFFSETS = np.cumsum((0,) + SLOT_VOCABS[:-1])
SLOT_WIDTH = sum(SLOT_VOCABS)

# the LSTM stacks both tables into one vocabulary, operators after inputs;
# step t of a cell reads row token + STEP_ROWS[t] of it
STEP_ROWS = np.tile([0, 0, INPUT_VOCAB, INPUT_VOCAB], B_MAX)


def _fraction_table() -> np.ndarray:
    """table[b, k]: k copies of 1/b added left to right, as np.add.at accumulates them."""
    table = np.zeros((B_MAX + 1, B_MAX + 1))
    for b in range(1, B_MAX + 1):
        for k in range(1, b + 1):
            table[b, k] = table[b, k - 1] + 1.0 / b
    return table


_FRACTIONS = _fraction_table()


@dataclass(frozen=True)
class PredictorConfig:
    kind: str = "mlp"
    embed_dim: int = 100
    hidden: int = 100
    mlp_layers: int = 2
    final_bias_init: float = 1.8
    lr_first_level: float = 0.01
    lr_later_levels: float = 0.002
    epochs_first_level: int = 200
    epochs_later_levels: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("mlp", "rnn"):
            raise ValueError(f"predictor kind must be 'mlp' or 'rnn', got {self.kind!r}")
        for name in ("embed_dim", "hidden", "mlp_layers", "epochs_first_level", "epochs_later_levels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def lr(self, level: int) -> float:
        return self.lr_first_level if level == 1 else self.lr_later_levels

    def epochs(self, level: int) -> int:
        return self.epochs_first_level if level == 1 else self.epochs_later_levels


def _cell_blocks(cells) -> tuple[np.ndarray, np.ndarray]:
    """(blocks per cell, (total blocks, 4) token ids) of a batch, range-checked.

    `cells` is a sequence of cells of any mix of lengths, or an (n, b, 4)
    id array; both encoders read their batch through this one check.
    """
    if isinstance(cells, np.ndarray):
        if cells.ndim != 3 or cells.shape[2] != 4:
            raise ValueError(f"a cell array must have shape (n, b, 4), got {cells.shape}")
        lengths = np.full(len(cells), cells.shape[1])
        blocks = cells.reshape(-1, 4).astype(np.intp, copy=False)
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
    """(blocks per cell, (n, SLOT_WIDTH) integer slot counts) of a range-checked batch."""
    lengths, blocks = _cell_blocks(cells)
    n = len(lengths)
    rows = np.repeat(np.arange(n) * SLOT_WIDTH, lengths)
    counts = np.bincount((rows[:, None] + SLOT_OFFSETS + blocks).ravel(), minlength=n * SLOT_WIDTH)
    return lengths, counts.reshape(n, SLOT_WIDTH)


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, without masks.

    Bit-equal to evaluating each branch on its own elements: exp(min(z, -z))
    is exp(-z) or exp(z) as the branch needs, and keeps a NaN's sign bit.
    Works in place on two temporaries, since the LSTM runs it on every step.
    """
    e = np.minimum(z, -z)
    np.exp(e, out=e)
    d = e + 1.0
    e /= d
    np.divide(1.0, d, out=d)
    np.copyto(e, d, where=z >= 0)
    return e


class _Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float) -> None:
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        # in place, in the order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        # value -= lr*(m/bias1) / (sqrt(v/bias2) + eps), so no bit changes
        for key, value in params.items():
            g, m, v = grads[key], self.m[key], self.v[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            g2 = (1.0 - ADAM_BETA2) * g
            g2 *= g
            v += g2
            denom = v / bias2
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step = m / bias1
            step *= self.lr
            step /= denom
            value -= step


class Predictor:
    """Shared fit/predict machinery; subclasses supply forward and backward."""

    kind = ""

    def __init__(self, config: PredictorConfig) -> None:
        if config.kind != self.kind:
            raise ValueError(f"config kind {config.kind!r} does not match model kind {self.kind!r}")
        self.config = config
        rng = np.random.default_rng(derive_seed(config.seed, "init", self.kind))
        self.params = self._init_params(rng)

    def _init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        raise NotImplementedError

    @staticmethod
    def encode(cells):
        """The batch as predict and loss_and_grads consume it, encoded once."""
        raise NotImplementedError

    @staticmethod
    def take(batch, index):
        """Rows `index` of an encoded batch, in that order."""
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

    def predict(self, cells) -> np.ndarray:
        """Predicted accuracy of each cell, or of each row of an already encoded batch."""
        if isinstance(cells, (SlotCounts, TokenBatch)):
            return self._scores(cells)
        batch, inverse = self.distinct(cells)
        return self._scores(batch)[inverse]

    def loss_and_grads(self, cells, targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        raise NotImplementedError

    def fit(self, cells, accuracies, level: int) -> np.ndarray:
        """Full-batch Adam on L1 loss; returns the per-epoch loss history.

        `cells` may already be encoded (`encode`); it is encoded once, not per epoch.
        """
        targets = np.asarray(accuracies, dtype=float)
        if len(cells) == 0 or targets.shape != (len(cells),):
            raise ValueError(f"need one accuracy per cell, got {len(cells)} cells, {targets.shape} targets")
        if np.any(targets < 0.0) or np.any(targets > 1.0):
            raise ValueError("accuracies must lie in [0, 1]")
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        batch = self.encode(cells)
        optimizer = _Adam(self.params, self.config.lr(level))
        history = np.empty(self.config.epochs(level))
        for epoch in range(len(history)):
            loss, grads = self.loss_and_grads(batch, targets)
            optimizer.step(self.params, grads)
            history[epoch] = loss
        return history

    def _zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}


class MLPPredictor(Predictor):
    kind = "mlp"

    def _init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        d, h = self.config.embed_dim, self.config.hidden
        params = {
            "embed_in": rng.uniform(-0.1, 0.1, size=(INPUT_VOCAB, d)),
            "embed_op": rng.uniform(-0.1, 0.1, size=(OP_VOCAB, d)),
        }
        width = 4 * d
        for layer in range(self.config.mlp_layers):
            params[f"w{layer}"] = rng.uniform(-0.1, 0.1, size=(width, h))
            params[f"b{layer}"] = np.zeros(h)
            width = h
        params["w_out"] = rng.uniform(-0.1, 0.1, size=h)
        params["b_out"] = np.full(1, self.config.final_bias_init)
        return params

    @staticmethod
    def encode(cells) -> SlotCounts:
        """Slot counts of a batch: cells of any mix of lengths, or an (n, b, 4) id array.

        Each (cell, slot, id) occurrence is counted with one np.bincount,
        and count k of a b-block cell becomes k copies of 1/b summed left
        to right. An already encoded batch is returned unchanged.
        """
        if isinstance(cells, SlotCounts):
            return cells
        lengths, counts = _slot_counts(cells)
        return SlotCounts(_FRACTIONS[lengths[:, None], counts])

    def distinct(self, cells) -> tuple[SlotCounts, np.ndarray]:
        """Slot counts of the distinct rows of a batch, and each cell's row among them.

        Rows are keyed on their integer counts as bytes. A slot's counts sum
        to the cell length, so cells of different lengths never share a key,
        and each distinct row's length is read back from its I1 counts.
        """
        counts = _slot_counts(cells)[1].astype(np.uint8)
        keys, inverse = np.unique(counts.view(np.dtype((np.void, SLOT_WIDTH))).ravel(), return_inverse=True)
        rows = keys.view(np.uint8).reshape(-1, SLOT_WIDTH)
        lengths = rows[:, :INPUT_VOCAB].sum(axis=1, keepdims=True)
        return SlotCounts(_FRACTIONS[lengths, rows]), inverse

    @staticmethod
    def take(batch: SlotCounts, index) -> SlotCounts:
        return SlotCounts(batch.matrix[index])

    def _slot_weights(self) -> list[tuple[str, slice, slice]]:
        """(embedding table, rows of w0, columns of the slot counts) of each slot."""
        d = self.config.embed_dim
        tables = ("embed_in", "embed_in", "embed_op", "embed_op")
        return [
            (table, slice(s * d, (s + 1) * d), slice(offset, offset + vocab))
            for s, (table, offset, vocab) in enumerate(zip(tables, SLOT_OFFSETS, SLOT_VOCABS))
        ]

    def _forward(self, counts: SlotCounts) -> tuple[np.ndarray, list[np.ndarray]]:
        """Probabilities and the tanh output of every layer.

        The first layer runs through the vocabulary: each slot's table is
        projected by its rows of w0, and the counts pick up the projections.
        """
        p = self.params
        projected = np.vstack([p[table] @ p["w0"][rows] for table, rows, _ in self._slot_weights()])
        hidden = [np.tanh(counts.matrix @ projected + p["b0"])]
        for layer in range(1, self.config.mlp_layers):
            hidden.append(np.tanh(hidden[-1] @ p[f"w{layer}"] + p[f"b{layer}"]))
        z = hidden[-1] @ p["w_out"] + p["b_out"][0]
        return _sigmoid(z), hidden

    def _scores(self, batch: SlotCounts) -> np.ndarray:
        probs = np.empty(len(batch))
        for start in range(0, len(batch), SCORE_ROWS):
            probs[start : start + SCORE_ROWS] = self._forward(SlotCounts(batch.matrix[start : start + SCORE_ROWS]))[0]
        return probs

    def loss_and_grads(self, cells, targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        counts = self.encode(cells)
        probs, hidden = self._forward(counts)
        residual = probs - targets
        loss = float(np.mean(np.abs(residual)))
        dz = np.sign(residual) / len(counts) * probs * (1.0 - probs)
        grads = self._zero_grads()
        p = self.params
        grads["w_out"] = hidden[-1].T @ dz
        grads["b_out"] = np.array([dz.sum()])
        dh = np.outer(dz, p["w_out"])
        for layer in reversed(range(1, self.config.mlp_layers)):
            da = dh * (1.0 - hidden[layer] ** 2)
            grads[f"w{layer}"] = hidden[layer - 1].T @ da
            grads[f"b{layer}"] = da.sum(axis=0)
            dh = da @ p[f"w{layer}"].T
        da = dh * (1.0 - hidden[0] ** 2)
        grads["b0"] = da.sum(axis=0)
        d_counts = counts.matrix.T @ da
        for table, rows, columns in self._slot_weights():
            grads["w0"][rows] = p[table].T @ d_counts[columns]
            grads[table] += d_counts[columns] @ p["w0"][rows].T
        return loss, grads


class RNNPredictor(Predictor):
    kind = "rnn"

    def _init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        d, h = self.config.embed_dim, self.config.hidden
        return {
            "embed_in": rng.uniform(-0.1, 0.1, size=(INPUT_VOCAB, d)),
            "embed_op": rng.uniform(-0.1, 0.1, size=(OP_VOCAB, d)),
            # gate order along the last axis: input, forget, cell, output
            "w": rng.uniform(-0.1, 0.1, size=(d + h, 4 * h)),
            "b": np.zeros(4 * h),
            "w_out": rng.uniform(-0.1, 0.1, size=h),
            "b_out": np.full(1, self.config.final_bias_init),
        }

    @staticmethod
    def encode(cells) -> TokenBatch:
        """Token ids of a batch, grouped by length: cells of any mix of lengths, or an (n, b, 4) id array.

        An already encoded batch is returned unchanged.
        """
        if isinstance(cells, TokenBatch):
            return cells
        lengths, blocks = _cell_blocks(cells)
        first = np.cumsum(lengths) - lengths
        groups = []
        for b in np.unique(lengths):
            rows = np.flatnonzero(lengths == b)
            tokens = blocks[first[rows, None] + np.arange(b)].reshape(len(rows), 4 * b)
            groups.append((rows, tokens))
        return TokenBatch(tuple(groups))

    @staticmethod
    def take(batch: TokenBatch, index) -> TokenBatch:
        index = np.asarray(index, dtype=np.intp)
        group_of = np.empty(len(batch), dtype=np.intp)
        row_in_group = np.empty(len(batch), dtype=np.intp)
        for g, (rows, _) in enumerate(batch.groups):
            group_of[rows] = g
            row_in_group[rows] = np.arange(len(rows))
        groups = []
        for g, (_, tokens) in enumerate(batch.groups):
            picked = np.flatnonzero(group_of[index] == g)
            if picked.size:
                groups.append((picked, tokens[row_in_group[index[picked]]]))
        return TokenBatch(tuple(groups))

    def _projections(self) -> tuple[np.ndarray, np.ndarray]:
        """The stacked vocabulary projected into the gates (19 x 4h), and the recurrent weights."""
        p = self.params
        vocab = np.vstack([p["embed_in"], p["embed_op"]])
        return vocab @ p["w"][: self.config.embed_dim], p["w"][self.config.embed_dim :]

    def _run(self, vocab_rows: np.ndarray, projections, keep: bool = False):
        """Final hidden state over equal-length cells, given as (m, 4b) vocabulary rows, and the states.

        Step t gathers its input term from the projected vocabulary. States
        are indexed by step modulo their depth: with `keep`, every step's,
        that is ``gates[t]`` (activated i, f, g, o), ``tanh_c[t]``, and
        ``h[t]``, ``c[t]``, the state step t starts from (``h[4b]`` is the
        final one); without, only the last step's, so memory does not grow
        with the cell length.
        """
        proj, wh = projections
        hd = self.config.hidden
        m, steps = vocab_rows.shape
        depth = steps + 1 if keep else 2
        gates = np.empty((depth - 1, m, 4 * hd))
        tanh_c = np.empty((depth - 1, m, hd))
        h = np.zeros((depth, m, hd))
        c = np.zeros((depth, m, hd))
        for t in range(steps):
            now, nxt, k = t % depth, (t + 1) % depth, t % (depth - 1)
            a = gates[k]
            if t:
                np.matmul(h[now], wh, out=a)
                a += proj[vocab_rows[:, t]]
            else:
                a[...] = proj[vocab_rows[:, 0]]
            a += self.params["b"]
            a[:, : 2 * hd] = _sigmoid(a[:, : 2 * hd])
            np.tanh(a[:, 2 * hd : 3 * hd], out=a[:, 2 * hd : 3 * hd])
            a[:, 3 * hd :] = _sigmoid(a[:, 3 * hd :])
            i, f, g, o = (a[:, j * hd : (j + 1) * hd] for j in range(4))
            np.add(f * c[now], i * g, out=c[nxt])
            np.tanh(c[nxt], out=tanh_c[k])
            np.multiply(o, tanh_c[k], out=h[nxt])
        return h[steps % depth], (gates, tanh_c, h, c)

    def _output(self, h: np.ndarray) -> np.ndarray:
        return _sigmoid(h @ self.params["w_out"] + self.params["b_out"][0])

    def _scores(self, batch: TokenBatch) -> np.ndarray:
        projections = self._projections()
        out = np.empty(len(batch))
        for rows, tokens in batch.groups:
            h_last, _ = self._run(tokens + STEP_ROWS[: tokens.shape[1]], projections)
            out[rows] = self._output(h_last)
        return out

    def loss_and_grads(self, cells, targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        """L1 loss and its gradients; only dh = da @ W_h^T runs inside the backward time loop.

        Each step's gate gradient da replaces its gates. After the loop, W_h
        and b take theirs from one matmul and one sum over all steps, and the
        stacked vocabulary collects dP = onehot(rows)^T @ da, which gives
        W_x's gradient as E^T @ dP and the embeddings' as dP @ W_x^T.
        """
        batch = self.encode(cells)
        n = len(batch)
        p = self.params
        d, hd = self.config.embed_dim, self.config.hidden
        projections = self._projections()
        proj, wh = projections
        grads = self._zero_grads()
        d_proj = np.zeros_like(proj)
        loss = 0.0
        for rows, tokens in batch.groups:
            m, steps = tokens.shape
            vocab_rows = tokens + STEP_ROWS[:steps]
            h_last, (gates, tanh_c, h, c) = self._run(vocab_rows, projections, keep=True)
            probs = self._output(h_last)
            residual = probs - targets[rows]
            loss += float(np.sum(np.abs(residual)))
            dz = np.sign(residual) / n * probs * (1.0 - probs)
            grads["w_out"] += h_last.T @ dz
            grads["b_out"] += dz.sum()
            dh = np.outer(dz, p["w_out"])
            dc = np.zeros_like(dh)
            for t in reversed(range(steps)):
                a = gates[t]
                i, f, g, o = (a[:, j * hd : (j + 1) * hd] for j in range(4))
                do = dh * tanh_c[t]
                dc = dc + dh * o * (1.0 - tanh_c[t] ** 2)
                di, df, dg = dc * g, dc * c[t], dc * i
                dc = dc * f
                # each gate's activation gives way to the gradient of its pre-activation
                np.multiply(di * i, 1.0 - i, out=i)
                np.multiply(df * f, 1.0 - f, out=f)
                np.multiply(dg, 1.0 - g**2, out=g)
                np.multiply(do * o, 1.0 - o, out=o)
                if t:
                    dh = a @ wh.T
            da = gates.reshape(steps * m, 4 * hd)
            # step 0 starts from h = 0, so it adds nothing to W_h's gradient
            grads["w"][d:] += h[1:steps].reshape(-1, hd).T @ da[m:]
            grads["b"] += da.sum(axis=0)
            onehot = np.arange(len(proj))[:, None] == vocab_rows.T.reshape(-1)
            d_proj += onehot.astype(float) @ da
        vocab = np.vstack([p["embed_in"], p["embed_op"]])
        grads["w"][:d] = vocab.T @ d_proj
        d_vocab = d_proj @ p["w"][:d].T
        grads["embed_in"], grads["embed_op"] = d_vocab[:INPUT_VOCAB], d_vocab[INPUT_VOCAB:]
        return loss / n, grads


def new_predictor(config: PredictorConfig) -> Predictor:
    return MLPPredictor(config) if config.kind == "mlp" else RNNPredictor(config)


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


def ensemble_fit(cells, accuracies, config: PredictorConfig, level: int) -> Ensemble:
    """Fit ENSEMBLE_SIZE fresh members, each holding out a disjoint fifth.

    The training set is encoded once; each member gets its rows of it, in
    ascending order. With fewer than ENSEMBLE_SIZE points some holdouts are
    empty, so each member trains on the full set minus at most one point.
    """
    targets = np.asarray(accuracies, dtype=float)
    folds = ensemble_folds(len(cells), derive_seed(config.seed, "folds", level))
    members = tuple(
        new_predictor(replace(config, seed=derive_seed(config.seed, "member", level, index)))
        for index in range(ENSEMBLE_SIZE)
    )
    batch = members[0].encode(cells)
    for member, holdout in zip(members, folds):
        keep = np.setdiff1d(np.arange(len(cells)), holdout)
        if not keep.size:
            keep = np.arange(len(cells))
        member.fit(member.take(batch, keep), targets[keep], level)
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
    _, grads = model.loss_and_grads([cell], targets)

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
