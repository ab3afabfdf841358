"""Command-line surface: search, harness, count, build.

Every run writes a manifest before the first evaluation, a JSON-lines
trace, and CSV summaries; together they are sufficient to re-derive any
number the commands print. ``_run_dir`` stamps every manifest with its
format version, the package, numpy and python versions, its status and
its start and finish times; a command adds only what its run is. A run
holds an exclusive ``flock`` on its run directory while any of its
processes lives, so two runs never write one directory at once, and a
killed run's lock goes with it.
Configuration precedence is flags over config-file entries over built-in
defaults, and the built-in defaults are the config dataclasses' field
defaults; the config file is plain ``key=value`` lines with ``#``
comments, each parsed and checked as its flag would be. A ``ValueError``
raised while a command checks its settings is a configuration error.

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
from .network import STEM_KINDS, StackPlan, build_network, export_graph
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

    def config_actions(self) -> dict[str, argparse.Action]:
        """The options a config file may set: every value-taking option but ``--config``."""
        actions = {action.dest: action for action in self._actions if action.option_strings and action.nargs != 0}
        return actions if actions.pop("config", None) else {}

    def parse_known_args(self, args=None, namespace=None):
        """Parse, and when a config file is named, parse again with its entries as defaults.

        Argparse then applies the precedence itself: flags beat the file,
        and the file beats the built-in defaults.
        """
        parsed, extras = super().parse_known_args(args, namespace)
        actions = self.config_actions()
        if actions and parsed.config:
            for key, text in load_config_file(parsed.config).items():
                if key not in actions:
                    raise ConfigError(f"unknown config key {key!r}")
                action = actions[key]
                try:
                    action.default = action.type(text) if action.type else text
                except ValueError:
                    raise ConfigError(f"config key {key!r}: cannot parse {text!r}") from None
                if action.choices is not None and action.default not in action.choices:
                    raise ConfigError(f"{key} must be one of {tuple(action.choices)}, got {action.default!r}")
            parsed, extras = super().parse_known_args(args, namespace)
        return parsed, extras


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _versions() -> dict:
    return {
        "package": __version__,
        "numpy": np.__version__,
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "blas_pinned": _BLAS_PINNED,  # BLAS runs one thread, whatever the thread variables say
    }


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


@contextmanager
def _setting_errors():
    """Re-raise a ValueError as a ConfigError: a bad setting is the user's input, not a bug."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@contextmanager
def _run_dir(path: str, manifest: dict):
    """Create and lock the run directory, and keep its manifest's status current.

    The lock is an exclusive ``flock`` on the directory itself. The kernel
    drops it when the last process holding the descriptor exits, however
    it ends, so a killed run leaves no stale lock behind; forked fit workers
    inherit the descriptor and hold the lock until they exit. The manifest
    is stamped with the format version and ``_versions()``, written as
    ``running`` on entry and rewritten as ``completed``, or as ``failed``
    before the exception propagates. Yields a function that joins names
    onto the directory.
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
        manifest.update(
            format_version=1, versions=_versions(), started_utc=_utc_now(), finished_utc=None, status="running"
        )
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
    with _setting_errors():  # a negative sigma, an empty worker command
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


def cmd_search(args: argparse.Namespace) -> int:
    with _setting_errors():
        config = SearchConfig(
            b_max=args.blocks,
            beam_size=args.beam_size,
            epochs=args.epochs,
            filters=args.filters,
            cell_repeats=args.cell_repeats,
            predictor=args.predictor,
            seed=args.seed,
        )
    if args.count < 0:
        raise ConfigError(f"--count must be positive, got {args.count}")
    if args.count and args.strategy != "random":
        raise ConfigError(f"--count is for --strategy random only; --strategy {args.strategy} spends the -B/-K budget")
    budget = plan_budget(config.b_max, config.beam_size)
    m1 = args.count or sum(budget)

    if args.strategy == "pnas":
        print("budget_per_level " + " ".join(str(size) for size in budget))
    print(f"m1 {m1}")
    print(f"cost {compute_cost(m1, config.examples_per_model)}")
    if args.dry_run:
        return 0

    # construct before touching the output directory so bad evaluator
    # options fail without leaving a half-written run behind
    if args.strategy == "pnas" and config.predictor == "perfect" and args.evaluator != "synthetic":
        raise ConfigError("--predictor perfect scores with the synthetic oracle, so it needs --evaluator synthetic")
    evaluator, evaluator_entry = _make_evaluator(args.evaluator, args.sigma, args.table, args.worker_cmd)
    manifest = {
        "command": "search",
        "strategy": args.strategy,
        "config": asdict(config),
        "count": m1 if args.strategy == "random" else None,
        "evaluator": evaluator_entry,
        "seeds": search_seeds(config.seed),
        "outputs": {
            "trace": "trace.jsonl",
            "summary": "summary.csv",
            "best_cells": "best_cells.csv",
            "graphs": "graphs",
        },
    }
    with _run_dir(args.out, manifest) as path:
        with TraceWriter(path("trace.jsonl")) as writer:
            if args.strategy == "pnas":
                trace = pnas_search(config, evaluator, writer)
            else:
                trace = random_search(config, m1, evaluator, writer)

        write_summary_csv(path("summary.csv"), top_m_table(trace))
        write_summary_csv(
            path("best_cells.csv"),
            [
                {"level": level, "cell_key": key, "accuracy": acc}
                for level, key, acc in trace.best_per_level()
            ],
        )
        os.makedirs(path("graphs"), exist_ok=True)
        plan = config.plan
        for level, key, _ in trace.best_per_level():
            graph = build_network(parse_cell_key(key), plan)
            write_json(path("graphs", f"best_b{level}.json"), export_graph(graph, cell_key=key, plan=plan))

    best_key, best_acc = trace.best()
    print(f"best_cell {best_key}")
    print(f"best_accuracy {best_acc!r}")
    print(f"out {args.out}")
    return 0


def cmd_harness(args: argparse.Namespace) -> int:
    if args.perfect and (args.predictors != ",".join(HarnessConfig.kinds) or args.sigma != SyntheticOracleConfig.noise_sigma):
        raise ConfigError("--perfect runs the perfect predictor on the noise-free oracle; it takes neither --predictors nor --sigma")
    # a noise-free oracle makes the oracle-passthrough predictor exact
    kinds = ("perfect",) if args.perfect else tuple(part.strip() for part in args.predictors.split(",") if part.strip())
    sigma = 0.0 if args.perfect else args.sigma
    with _setting_errors():
        config = HarnessConfig(
            trials=args.trials,
            sample_size=args.sample_size,
            pool_size=args.pool_size,
            b_max=args.blocks,
            kinds=kinds,
            seed=args.seed,
        )
    evaluator, evaluator_entry = _make_evaluator("synthetic", sigma, None, None)

    manifest = {
        "command": "harness",
        "config": asdict(config),
        "evaluator": evaluator_entry,
        "seeds": harness_seeds(config),
        "outputs": {"summary": "summary.csv", "report": "report.json"},
    }
    with _run_dir(args.out, manifest) as path:
        report = predictor_harness(config, evaluator)

        # wide layout: one row per predictor, correlation columns by level
        rows = []
        for kind in report.kinds:
            row: dict = {"predictor": kind}
            for b in report.levels:
                row[f"rho_fit_{b}"] = report.mean_fit(kind, b)
                row[f"rho_extrapolate_{b + 1}"] = report.mean_extrapolate(kind, b)
            rows.append(row)
        write_summary_csv(path("summary.csv"), rows)
        write_json(path("report.json"), asdict(report))

    for row in rows:
        (_, kind), *rhos = row.items()
        print(kind, " ".join(f"{key}={value!r}" for key, value in rhos))
    print(f"out {args.out}")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    with _setting_errors():
        size = count_space(args.blocks)
        budget = None if args.beam_size is None else plan_budget(args.blocks, args.beam_size)
    for b in range(1, args.blocks + 1):
        print(f"level {b}: raw_blocks {len(enumerate_blocks(b))} unique_blocks {len(canonical_blocks(b))}")
    print(f"space_raw {size.raw}")
    print(f"space_unique {size.unique}")
    if budget is not None:
        print("budget_per_level " + " ".join(str(part) for part in budget))
        print(f"m1 {sum(budget)}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    cell = parse_cell_key(args.cell)
    with _setting_errors():
        plan = StackPlan(
            n=args.cell_repeats, f=args.filters, input_hw=args.hw, stem=args.stem, num_classes=args.classes
        )
        graph = build_network(cell, plan)
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
    search.add_argument("--strategy", choices=("pnas", "random"), default="pnas")
    search.add_argument("-B", "--blocks", type=int, default=SearchConfig.b_max, help="maximum blocks per cell")
    search.add_argument("-K", "--beam-size", dest="beam_size", type=int, default=SearchConfig.beam_size)
    search.add_argument("-E", "--epochs", type=int, default=SearchConfig.epochs, help="proxy training epochs per model")
    search.add_argument("-F", "--filters", type=int, default=SearchConfig.filters)
    search.add_argument("-N", "--cell-repeats", dest="cell_repeats", type=int, default=SearchConfig.cell_repeats)
    search.add_argument("--count", type=int, default=0, help="random-strategy sample count (default: match pnas budget)")
    search.add_argument("--predictor", choices=PREDICTOR_KINDS, default=SearchConfig.predictor)
    search.add_argument("--evaluator", choices=EVALUATOR_BACKENDS, default="synthetic")
    search.add_argument("--table", default=None, help="benchmark CSV for the tabular evaluator")
    search.add_argument("--worker-cmd", dest="worker_cmd", default=None, help="command line of the external worker")
    search.add_argument("--sigma", type=float, default=SyntheticOracleConfig.noise_sigma, help="oracle noise std deviation")
    search.add_argument("--seed", type=int, default=SearchConfig.seed)
    search.add_argument("--out", default="runs/search", help="run directory")
    search.add_argument("--config", default=None, help="key=value config file")
    search.add_argument("--dry-run", dest="dry_run", action="store_true", help="print the budget plan and exit")
    search.set_defaults(func=cmd_search)

    harness = sub.add_parser("harness", help="rank-correlation harness for the predictors")
    harness.add_argument("--predictors", default=",".join(HarnessConfig.kinds), help="comma-separated predictor kinds")
    harness.add_argument("-T", "--trials", type=int, default=HarnessConfig.trials)
    harness.add_argument("-K", "--sample-size", dest="sample_size", type=int, default=HarnessConfig.sample_size)
    harness.add_argument("-R", "--pool-size", dest="pool_size", type=int, default=HarnessConfig.pool_size)
    harness.add_argument("-B", "--blocks", type=int, default=HarnessConfig.b_max)
    harness.add_argument("--perfect", action="store_true", help="oracle-passthrough predictor on the noise-free oracle")
    harness.add_argument("--sigma", type=float, default=SyntheticOracleConfig.noise_sigma)
    harness.add_argument("--seed", type=int, default=HarnessConfig.seed)
    harness.add_argument("--out", default="runs/harness")
    harness.add_argument("--config", default=None)
    harness.set_defaults(func=cmd_harness)

    count = sub.add_parser("count", help="search-space sizes")
    count.add_argument("-B", "--blocks", type=int, default=SearchConfig.b_max)
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
