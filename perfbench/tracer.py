"""Traced run of the `pnas` command, and the per-layer table built from it.

Run as a script, this file wraps the public functions of each `pnas`
module at the names their callers look up, calls `pnas.cli.main` with the
remaining arguments, and on exit writes what it recorded to
``<dir>/spans.json`` (and captured values to ``<dir>/captures.npz``):

    python tracer.py <dir> -- search -B 5 -K 64 ...

A span is (id, name, parent id, start, end, count); the spans of one run
share the run id in the file. Boundaries crossed hundreds of thousands of
times (`cell_key`, `TraceWriter.emit`) are not spanned one by one: their
calls and seconds are summed, and their seconds are also charged to the
span that was open, so that span's self time excludes them.

`layer_metrics` turns such a file into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time
import uuid
from collections import defaultdict

import numpy as np


class Recorder:
    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.hot_in: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counters: dict[str, int] = defaultdict(int)
        self.scored: dict[int, list] = defaultdict(list)  # level -> [(cells, scores)]
        self.rho_calls: list[tuple] = []

    def ancestors(self) -> set[str]:
        return {self.spans[i][1] for i in self.stack}

    def span(self, name, fn, count=None, capture=None):
        """Wrap fn; `name` is a string or a function of the call's first argument."""

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args[0])
            span_id = len(self.spans)
            record = [span_id, label, self.stack[-1] if self.stack else None, 0.0, 0.0, 0]
            self.spans.append(record)
            self.stack.append(span_id)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                record[5] = count(args, result)
            if capture is not None:
                capture(args, result)
            return result

        return wrapper

    def hot_call(self, name, fn):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - started
                entry = self.hot[name]
                entry[0] += 1
                entry[1] += spent
                if self.stack:
                    self.hot_in[self.stack[-1]][name] += spent

        return wrapper

    def dump(self, directory: str) -> None:
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "hot": dict(self.hot),
                    "hot_in": {str(k): dict(v) for k, v in self.hot_in.items()},
                    "counters": dict(self.counters),
                },
                fh,
            )
        arrays = {}
        for level, chunks in self.scored.items():
            arrays[f"cells_{level}"] = np.concatenate([np.asarray(c, dtype=np.int8) for c, _ in chunks])
            arrays[f"scores_{level}"] = np.concatenate([s for _, s in chunks])
        for n, (x, y, result) in enumerate(self.rho_calls):
            arrays[f"rho_{n}_x"], arrays[f"rho_{n}_y"], arrays[f"rho_{n}_r"] = x, y, np.float64(result)
        np.savez(os.path.join(directory, "captures.npz"), **arrays)


def install(rec: Recorder) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    import pnas.cli as cli
    import pnas.evaluators as evaluators
    import pnas.harness as harness
    import pnas.predictors as predictors
    import pnas.search as search
    import pnas.traceio as traceio

    def patch(owner, attr, wrap):
        setattr(owner, attr, wrap(getattr(owner, attr)))

    n_cells = lambda args, result: len(args[1])  # noqa: E731 - (self, cells, ...)

    def capture_scores(args, result):
        if "search.pnas_search" in rec.ancestors():
            cells = list(args[1])
            rec.scored[len(cells[0])].append((cells, np.array(result, dtype=float)))

    def capture_rho(args, result):
        rec.rho_calls.append((np.array(args[0], dtype=float), np.array(args[1], dtype=float), result))

    def eval_count(args, result):
        rec.counters["evaluators.failed"] += sum(1 for r in result if r.error is not None)
        return len(args[1].cells)

    patch(cli, "pnas_search", lambda f: rec.span("search.pnas_search", f))
    patch(cli, "random_search", lambda f: rec.span("search.random_search", f))
    patch(cli, "predictor_harness", lambda f: rec.span("harness.predictor_harness", f))
    for name in ("write_json", "write_summary_csv", "build_network", "export_graph"):
        patch(cli, name, lambda f, name=name: rec.span(f"cli.{name}", f))

    patch(search.ModelSurrogate, "update", lambda f: rec.span("surrogate.update", f))
    patch(search.ModelSurrogate, "predict", lambda f: rec.span("surrogate.predict", f, n_cells, capture_scores))
    patch(search, "ensemble_fit", lambda f: rec.span("ensemble.fit", f))
    patch(search, "top_m_curve", lambda f: rec.span("metrics.top_m", f))
    patch(search, "cell_key", lambda f: rec.hot_call("cells.cell_key", f))

    patch(predictors.Ensemble, "predict", lambda f: rec.span("ensemble.predict", f))
    patch(predictors.Predictor, "fit", lambda f: rec.span(lambda self: f"{self.kind}.fit", f, lambda a, r: len(r)))
    patch(predictors.MLPPredictor, "loss_and_grads", lambda f: rec.span("mlp.grad", f))
    patch(predictors.RNNPredictor, "loss_and_grads", lambda f: rec.span("rnn.grad", f))
    patch(predictors.MLPPredictor, "predict", lambda f: rec.span("mlp.predict", f, n_cells))
    patch(
        predictors.RNNPredictor,
        "predict",
        lambda f: rec.span("rnn.predict", f, lambda a, r: 4 * sum(len(c) for c in a[1])),
    )

    for backend in (evaluators.SyntheticOracle, evaluators.TabularEvaluator, evaluators.ExternalEvaluator):
        patch(backend, "evaluate", lambda f: rec.span("evaluator.evaluate", f, eval_count))

    patch(harness, "distinct_random_cells", lambda f: rec.span("harness.pool", f))
    patch(harness, "spearman", lambda f: rec.span("harness.spearman", f, capture=capture_rho))
    patch(traceio.TraceWriter, "emit", lambda f: rec.hot_call("traceio.emit", f))


# ---------------------------------------------------------------- per-layer table

PER_LAYER = (
    ("search.score_s", "s"),
    ("search.score_us_per_child", "us"),
    ("search.children_scored", "count"),
    ("search.select_s", "s"),
    ("search.refit_s", "s"),
    ("search.evaluate_s", "s"),
    ("cells.cell_key_calls", "count"),
    ("cells.cell_key_s", "s"),
    *(
        (f"predictors.{kind}.{stat}", unit)
        for kind in ("mlp", "rnn")
        for stat, unit in (("fits", "count"), ("fit_s", "s"), ("epoch_ms", "ms"), ("grad_s", "s"), ("adam_s", "s"), ("predict_s", "s"))
    ),
    ("predictors.mlp.predict_us_per_cell", "us"),
    ("predictors.rnn.predict_us_per_token", "us"),
    ("predictors.ensemble.fit_s", "s"),
    ("predictors.ensemble.predict_s", "s"),
    ("predictors.ensemble.self_s", "s"),
    ("evaluators.batches", "count"),
    ("evaluators.cells", "count"),
    ("evaluators.cells_per_batch", "ratio"),
    ("evaluators.evaluate_s", "s"),
    ("evaluators.ms_per_cell", "ms"),
    ("evaluators.failed", "count"),
    ("harness.pool_s", "s"),
    ("harness.measure_s", "s"),
    ("harness.fit_s", "s"),
    ("harness.predict_s", "s"),
    ("harness.spearman_s", "s"),
    ("metrics.top_m_s", "s"),
    ("traceio.events", "count"),
    ("traceio.bytes", "B"),
    ("traceio.emit_s", "s"),
    ("cli.outputs_s", "s"),
    ("bench.trace_overhead_s", "s"),
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans_file: str, trace_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but bench.trace_overhead_s)."""
    with open(spans_file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    spans = data["spans"]
    hot_in = {int(k): v for k, v in data["hot_in"].items()}
    duration = [end - start for _, _, _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for span_id, _, parent, *_ in spans:
        if parent is not None:
            covered[parent] += duration[span_id]
    self_time = [duration[i] - covered[i] - sum(hot_in.get(i, {}).values()) for i in range(len(spans))]

    def under(span, roots) -> bool:
        parent = span[2]
        while parent is not None:
            if spans[parent][1] in roots:
                return True
            parent = spans[parent][2]
        return False

    def total(name, roots=None, field=None):
        picked = [s for s in spans if s[1] == name and (roots is None or under(s, roots))]
        if field == "count":
            return sum(s[5] for s in picked)
        if field == "calls":
            return len(picked)
        if field == "self":
            return sum(self_time[s[0]] for s in picked)
        return sum(duration[s[0]] for s in picked)

    searches = ("search.pnas_search", "search.random_search")
    m: dict[str, float] = {}
    m["search.score_s"] = total("surrogate.predict", ("search.pnas_search",))
    m["search.children_scored"] = total("surrogate.predict", ("search.pnas_search",), "count")
    m["search.score_us_per_child"] = _ratio(m["search.score_s"], m["search.children_scored"], 1e6)
    m["search.select_s"] = total("search.pnas_search", field="self") + sum(
        hot_in.get(s[0], {}).get("cells.cell_key", 0.0) for s in spans if s[1] == "search.pnas_search"
    )
    m["search.refit_s"] = total("surrogate.update", ("search.pnas_search",))
    m["search.evaluate_s"] = total("evaluator.evaluate", searches)
    m["cells.cell_key_calls"], m["cells.cell_key_s"] = data["hot"].get("cells.cell_key", [0, 0.0])
    for kind in ("mlp", "rnn"):
        p = f"predictors.{kind}."
        m[p + "fits"] = total(f"{kind}.fit", field="calls")
        m[p + "fit_s"] = total(f"{kind}.fit")
        m[p + "epoch_ms"] = _ratio(m[p + "fit_s"], total(f"{kind}.fit", field="count"), 1e3)
        m[p + "grad_s"] = total(f"{kind}.grad")
        m[p + "adam_s"] = total(f"{kind}.fit", field="self")
        m[p + "predict_s"] = total(f"{kind}.predict")
    m["predictors.mlp.predict_us_per_cell"] = _ratio(m["predictors.mlp.predict_s"], total("mlp.predict", field="count"), 1e6)
    m["predictors.rnn.predict_us_per_token"] = _ratio(m["predictors.rnn.predict_s"], total("rnn.predict", field="count"), 1e6)
    m["predictors.ensemble.fit_s"] = total("ensemble.fit")
    m["predictors.ensemble.predict_s"] = total("ensemble.predict")
    m["predictors.ensemble.self_s"] = total("ensemble.fit", field="self") + total("ensemble.predict", field="self")
    m["evaluators.batches"] = total("evaluator.evaluate", field="calls")
    m["evaluators.cells"] = total("evaluator.evaluate", field="count")
    m["evaluators.cells_per_batch"] = _ratio(m["evaluators.cells"], m["evaluators.batches"])
    m["evaluators.evaluate_s"] = total("evaluator.evaluate")
    m["evaluators.ms_per_cell"] = _ratio(m["evaluators.evaluate_s"], m["evaluators.cells"], 1e3)
    m["evaluators.failed"] = data["counters"].get("evaluators.failed", 0)
    harness_root = ("harness.predictor_harness",)
    m["harness.pool_s"] = total("harness.pool")
    m["harness.measure_s"] = total("evaluator.evaluate", harness_root)
    m["harness.fit_s"] = total("surrogate.update", harness_root)
    m["harness.predict_s"] = total("surrogate.predict", harness_root)
    m["harness.spearman_s"] = total("harness.spearman")
    m["metrics.top_m_s"] = total("metrics.top_m")
    m["traceio.events"], m["traceio.emit_s"] = data["hot"].get("traceio.emit", [0, 0.0])
    m["traceio.bytes"] = trace_bytes
    m["cli.outputs_s"] = sum(duration[s[0]] for s in spans if s[1].startswith("cli."))
    return m


def load_captures(directory: str):
    """(scored children per level, spearman calls) from a traced run's captures."""
    with np.load(os.path.join(directory, "captures.npz")) as data:
        scored = {
            int(name.split("_")[1]): (data[name], data[f"scores_{name.split('_')[1]}"])
            for name in data.files
            if name.startswith("cells_")
        }
        calls = []
        while f"rho_{len(calls)}_x" in data.files:
            n = len(calls)
            calls.append((data[f"rho_{n}_x"], data[f"rho_{n}_y"], float(data[f"rho_{n}_r"])))
    return scored, calls


def main(argv: list[str]) -> int:
    directory, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py <dir> -- <pnas arguments>")
    import pnas.cli

    rec = Recorder()
    install(rec)
    try:
        return pnas.cli.main(command)
    finally:
        rec.dump(directory)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
