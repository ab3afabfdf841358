"""Command-line surface: search, harness, count, build.

Every run writes a manifest before the first evaluation, a JSON-lines
trace, and CSV summaries; together they are sufficient to re-derive any
number the commands print. A run holds an exclusive ``flock`` on its
run directory while any of its processes lives, so two runs never write
one directory at once, and a killed run's lock goes with it.
Configuration precedence is flags over config-file entries over built-in
defaults; the config file is plain ``key=value`` lines with ``#``
comments.

Exit codes: 0 success, 1 configuration error, 2 evaluator or transport
error, 3 internal contract violation.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import shlex
import sys
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .cells import CellKeyError, canonical_blocks, count_space, enumerate_blocks, parse_cell_key
from .evaluators import (
    EvaluatorError,
    ExternalEvaluator,
    SyntheticOracle,
    SyntheticOracleConfig,
    TableParseError,
    TabularEvaluator,
)
from .harness import HarnessConfig, harness_seeds, predictor_harness
from .network import STEM_KINDS, BuildError, StackPlan, build_network, export_graph
from .predictors import _BLAS_PINNED
from .search import (
    PREDICTOR_KINDS,
    SearchConfig,
    compute_cost,
    plan_budget,
    pnas_search,
    random_search,
    search_seeds,
    top_m_table,
)
from .traceio import TraceWriter, write_json, write_summary_csv


class ConfigError(Exception):
    """Unusable flags, config file, or flag combination."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would sys.exit(2)
        raise ConfigError(message)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def load_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return entries


def _merge(defaults: dict, args: argparse.Namespace) -> dict:
    """Defaults, then config-file entries parsed as their default's type, then flags."""
    merged = dict(defaults)
    for key, text in (load_config_file(args.config) if args.config else {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            merged[key] = type(defaults[key])(text)
        except ValueError:
            raise ConfigError(f"config key {key!r}: cannot parse {text!r}") from None
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


@contextmanager
def _run_dir(path: str, manifest: dict):
    """Create and lock the run directory, and keep its manifest's status current.

    The lock is an exclusive ``flock`` on the directory itself. The kernel
    drops it when the last process holding the descriptor exits, however
    it ends, so a killed run leaves no stale lock behind; forked fit workers
    inherit the descriptor and hold the lock until they exit. The manifest
    is written as ``running`` on entry and rewritten as ``completed``, or
    as ``failed`` before the exception propagates. Yields a function that
    joins names onto the directory.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create run directory {path}: {exc}") from None
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        raise ConfigError(f"cannot open run directory {path}: {exc}") from None
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"run directory {path!r} is locked by another run") from None
        except OSError as exc:
            raise ConfigError(f"cannot lock run directory {path!r}: {exc}") from None
        manifest_path = os.path.join(path, "manifest.json")
        manifest.update(started_utc=_utc_now(), finished_utc=None, status="running")
        write_json(manifest_path, manifest)
        try:
            yield lambda *names: os.path.join(path, *names)
        except BaseException:
            manifest.update(status="failed", finished_utc=_utc_now())
            write_json(manifest_path, manifest)
            raise
        manifest.update(status="completed", finished_utc=_utc_now())
        write_json(manifest_path, manifest)
    finally:
        os.close(fd)


EVALUATOR_BACKENDS = ("synthetic", "tabular", "external")


def _make_evaluator(backend: str, sigma: float, table: str | None, worker_cmd: str | None) -> tuple[object, dict]:
    """The evaluator for a checked backend name, and its manifest entry."""
    try:
        if backend == "synthetic":
            return SyntheticOracle(SyntheticOracleConfig(noise_sigma=sigma)), {"backend": backend, "sigma": sigma}
        if backend == "tabular":
            if not table:
                raise ConfigError("the tabular evaluator needs --table")
            try:
                return TabularEvaluator.from_csv(table), {"backend": backend, "table": table}
            except OSError as exc:
                raise ConfigError(f"cannot read table {table!r}: {exc}") from None
        if not worker_cmd:
            raise ConfigError("the external evaluator needs --worker-cmd")
        argv = shlex.split(worker_cmd)
        return ExternalEvaluator(argv), {"backend": backend, "worker_cmd": argv}
    except ValueError as exc:
        # bad user input (negative sigma, empty worker command), not a bug
        raise ConfigError(str(exc)) from None


def _versions() -> dict:
    return {
        "package": __version__,
        "numpy": np.__version__,
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "blas_pinned": _BLAS_PINNED,  # BLAS runs one thread, whatever the thread variables say
    }


SEARCH_DEFAULTS = {
    "strategy": "pnas",
    "blocks": 5,
    "beam_size": 256,
    "epochs": 20,
    "filters": 24,
    "cell_repeats": 2,
    "count": 0,  # 0 means: match the progressive budget for the same B, K
    "predictor": "mlp-ens",
    "evaluator": "synthetic",
    "sigma": 0.01,
    "seed": 0,
    "out": "runs/search",
    "table": "",
    "worker_cmd": "",
}


def cmd_search(args: argparse.Namespace) -> int:
    opts = _merge(SEARCH_DEFAULTS, args)
    if opts["strategy"] not in ("pnas", "random"):
        raise ConfigError(f"--strategy must be pnas or random, got {opts['strategy']!r}")
    if opts["evaluator"] not in EVALUATOR_BACKENDS:
        raise ConfigError(f"evaluator must be one of {EVALUATOR_BACKENDS}, got {opts['evaluator']!r}")
    try:
        config = SearchConfig(
            b_max=opts["blocks"],
            beam_size=opts["beam_size"],
            epochs=opts["epochs"],
            filters=opts["filters"],
            cell_repeats=opts["cell_repeats"],
            predictor=opts["predictor"],
            seed=opts["seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if opts["count"] < 0:
        raise ConfigError(f"--count must be positive, got {opts['count']}")
    budget = plan_budget(config.b_max, config.beam_size)
    count = opts["count"] if opts["count"] > 0 else sum(budget)

    if opts["strategy"] == "pnas":
        print("budget_per_level " + " ".join(str(size) for size in budget))
        m1 = sum(budget)
    else:
        m1 = count
    print(f"m1 {m1}")
    print(f"cost {compute_cost(m1, config.examples_per_model)}")
    if args.dry_run:
        return 0

    # construct before touching the output directory so bad evaluator
    # options fail without leaving a half-written run behind
    evaluator, evaluator_entry = _make_evaluator(
        opts["evaluator"], opts["sigma"], opts["table"] or None, opts["worker_cmd"] or None
    )
    manifest = {
        "format_version": 1,
        "command": "search",
        "strategy": opts["strategy"],
        "config": asdict(config),
        "count": count if opts["strategy"] == "random" else None,
        "evaluator": evaluator_entry,
        "seeds": search_seeds(config.seed),
        "versions": _versions(),
        "outputs": {
            "trace": "trace.jsonl",
            "summary": "summary.csv",
            "best_cells": "best_cells.csv",
            "graphs": "graphs",
        },
    }
    with _run_dir(opts["out"], manifest) as path:
        with TraceWriter(path("trace.jsonl")) as writer:
            if opts["strategy"] == "pnas":
                trace = pnas_search(config, evaluator, writer)
            else:
                trace = random_search(
                    count,
                    config.b_max,
                    evaluator,
                    config.seed,
                    epochs=config.epochs,
                    filters=config.filters,
                    cell_repeats=config.cell_repeats,
                    writer=writer,
                )

        write_summary_csv(path("summary.csv"), top_m_table(trace))
        write_summary_csv(
            path("best_cells.csv"),
            [
                {"level": level, "cell_key": key, "accuracy": acc}
                for level, key, acc in trace.best_per_level()
            ],
        )
        os.makedirs(path("graphs"), exist_ok=True)
        plan = StackPlan(n=config.cell_repeats, f=config.filters)
        for level, key, _ in trace.best_per_level():
            graph = build_network(parse_cell_key(key), plan)
            write_json(path("graphs", f"best_b{level}.json"), export_graph(graph, cell_key=key, plan=plan))

    best_key, best_acc = trace.best()
    print(f"best_cell {best_key}")
    print(f"best_accuracy {best_acc!r}")
    print(f"out {opts['out']}")
    return 0


HARNESS_DEFAULTS = {
    "predictors": "mlp,rnn,mlp-ens,rnn-ens",
    "trials": 5,
    "sample_size": 64,
    "pool_size": 1000,
    "blocks": 5,
    "epochs": 20,
    "sigma": 0.01,
    "seed": 0,
    "out": "runs/harness",
}


def cmd_harness(args: argparse.Namespace) -> int:
    opts = _merge(HARNESS_DEFAULTS, args)
    kinds = tuple(part.strip() for part in opts["predictors"].split(",") if part.strip())
    sigma = opts["sigma"]
    if args.perfect:
        # a noise-free oracle makes the oracle-passthrough predictor exact
        kinds = ("perfect",)
        sigma = 0.0
    try:
        config = HarnessConfig(
            trials=opts["trials"],
            sample_size=opts["sample_size"],
            pool_size=opts["pool_size"],
            b_max=opts["blocks"],
            kinds=kinds,
            epochs=opts["epochs"],
            seed=opts["seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    evaluator, evaluator_entry = _make_evaluator("synthetic", sigma, None, None)

    manifest = {
        "format_version": 1,
        "command": "harness",
        "config": asdict(config),
        "evaluator": evaluator_entry,
        "seeds": harness_seeds(config),
        "versions": _versions(),
        "outputs": {"summary": "summary.csv", "report": "report.json"},
    }
    with _run_dir(opts["out"], manifest) as path:
        report = predictor_harness(config, evaluator)

        # wide layout: one row per predictor, correlation columns by level
        fields = ["predictor"]
        for b in report.levels:
            fields += [f"rho_fit_{b}", f"rho_extrapolate_{b + 1}"]
        rows = []
        for kind in report.kinds:
            row: dict = {"predictor": kind}
            for b in report.levels:
                row[f"rho_fit_{b}"] = report.mean_fit(kind, b)
                row[f"rho_extrapolate_{b + 1}"] = report.mean_extrapolate(kind, b)
            rows.append(row)
        write_summary_csv(path("summary.csv"), rows, field_order=fields)
        write_json(
            path("report.json"),
            {
                "kinds": list(report.kinds),
                "levels": list(report.levels),
                "fit": {f"{kind}/{b}": list(report.fit[(kind, b)]) for kind, b in report.fit},
                "extrapolate": {
                    f"{kind}/{b}": list(report.extrapolate[(kind, b)]) for kind, b in report.extrapolate
                },
            },
        )

    for row in rows:
        parts = [f"{key}={row[key]!r}" for key in fields[1:]]
        print(f"{row['predictor']} " + " ".join(parts))
    print(f"out {opts['out']}")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    try:
        size = count_space(args.blocks)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for b in range(1, args.blocks + 1):
        print(f"level {b}: raw_blocks {len(enumerate_blocks(b))} unique_blocks {len(canonical_blocks(b))}")
    print(f"space_raw {size.raw}")
    print(f"space_unique {size.unique}")
    if args.beam_size is not None:
        budget = plan_budget(args.blocks, args.beam_size)
        print("budget_per_level " + " ".join(str(part) for part in budget))
        print(f"m1 {sum(budget)}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    cell = parse_cell_key(args.cell)
    try:
        plan = StackPlan(
            n=args.cell_repeats, f=args.filters, input_hw=args.hw, stem=args.stem, num_classes=args.classes
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        graph = build_network(cell, plan)
    except BuildError as exc:
        raise ConfigError(str(exc)) from None
    payload = export_graph(graph, cell_key=args.cell, plan=plan)
    try:
        write_json(args.out, payload)
    except OSError as exc:
        raise ConfigError(f"cannot write graph JSON to {args.out}: {exc}") from None
    print(f"params {payload['params']}")
    print(f"mult_adds {payload['mult_adds']}")
    print(f"out {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pnas", description="Progressive cell search with surrogate accuracy predictors")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="run the progressive or random search")
    search.add_argument("--strategy", choices=("pnas", "random"), default=None)
    search.add_argument("-B", "--blocks", type=int, default=None, help="maximum blocks per cell")
    search.add_argument("-K", "--beam-size", dest="beam_size", type=int, default=None)
    search.add_argument("-E", "--epochs", type=int, default=None, help="proxy training epochs per model")
    search.add_argument("-F", "--filters", type=int, default=None)
    search.add_argument("-N", "--cell-repeats", dest="cell_repeats", type=int, default=None)
    search.add_argument("--count", type=int, default=None, help="random-strategy sample count (default: match pnas budget)")
    search.add_argument("--predictor", choices=PREDICTOR_KINDS, default=None)
    search.add_argument("--evaluator", choices=EVALUATOR_BACKENDS, default=None)
    search.add_argument("--table", default=None, help="benchmark CSV for the tabular evaluator")
    search.add_argument("--worker-cmd", dest="worker_cmd", default=None, help="command line of the external worker")
    search.add_argument("--sigma", type=float, default=None, help="synthetic oracle noise standard deviation")
    search.add_argument("--seed", type=int, default=None)
    search.add_argument("--out", default=None, help="run directory")
    search.add_argument("--config", default=None, help="key=value config file")
    search.add_argument("--dry-run", dest="dry_run", action="store_true", help="print the budget plan and exit")
    search.set_defaults(func=cmd_search)

    harness = sub.add_parser("harness", help="rank-correlation harness for the predictors")
    harness.add_argument("--predictors", default=None, help="comma-separated predictor kinds")
    harness.add_argument("-T", "--trials", type=int, default=None)
    harness.add_argument("-K", "--sample-size", dest="sample_size", type=int, default=None)
    harness.add_argument("-R", "--pool-size", dest="pool_size", type=int, default=None)
    harness.add_argument("-B", "--blocks", type=int, default=None)
    harness.add_argument("-E", "--epochs", type=int, default=None)
    harness.add_argument("--perfect", action="store_true", help="oracle-passthrough predictor on the noise-free oracle")
    harness.add_argument("--sigma", type=float, default=None)
    harness.add_argument("--seed", type=int, default=None)
    harness.add_argument("--out", default=None)
    harness.add_argument("--config", default=None)
    harness.set_defaults(func=cmd_harness)

    count = sub.add_parser("count", help="search-space sizes")
    count.add_argument("-B", "--blocks", type=int, default=5)
    count.add_argument("-K", "--beam-size", dest="beam_size", type=int, default=None, help="also print the budget plan")
    count.set_defaults(func=cmd_count)

    build = sub.add_parser("build", help="build one network and export its graph")
    build.add_argument("--cell", required=True, help="cell key, e.g. 1|0,4,1,4")
    plan = StackPlan()
    build.add_argument("-N", "--cell-repeats", dest="cell_repeats", type=int, default=plan.n)
    build.add_argument("-F", "--filters", type=int, default=plan.f)
    build.add_argument("--hw", type=int, default=plan.input_hw, help="input height and width")
    build.add_argument("--stem", choices=STEM_KINDS, default=plan.stem)
    build.add_argument("--classes", type=int, default=plan.num_classes)
    build.add_argument("--out", default="graph.json", help="graph JSON path")
    build.set_defaults(func=cmd_build)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, CellKeyError, TableParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EvaluatorError as exc:
        print(f"evaluator error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
