#!/usr/bin/env python3
"""Progressive search vs random search at equal evaluation budget.

Runs both strategies over several seeded trials on the synthetic oracle,
prints per-trial winners, and writes the trial-averaged top-M curves
(M in {1, 5, 25}) to CSV for plotting.

Example:
    python3 scripts/compare_search.py -B 5 -K 64 --trials 5 --out compare.csv
"""

import argparse
import time

from pnas.evaluators import SyntheticOracle, SyntheticOracleConfig
from pnas.metrics import aggregate_curves
from pnas.search import SearchConfig, pnas_search, random_search, top_m_table
from pnas.traceio import write_summary_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-B", "--blocks", type=int, default=SearchConfig.b_max)
    parser.add_argument("-K", "--beam-size", type=int, default=64)
    parser.add_argument("--predictor", default=SearchConfig.predictor)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--sigma", type=float, default=SyntheticOracleConfig.noise_sigma)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="compare.csv")
    args = parser.parse_args()

    oracle = SyntheticOracle(SyntheticOracleConfig(noise_sigma=args.sigma))
    m_values = (1, 5, 25)
    curves = {"pnas": [], "random": []}
    wins = 0
    for trial in range(args.trials):
        seed = args.seed + trial
        started = time.perf_counter()
        config = SearchConfig(
            b_max=args.blocks, beam_size=args.beam_size, predictor=args.predictor, seed=seed
        )
        trace_p = pnas_search(config, oracle)
        trace_r = random_search(config, trace_p.m1, oracle)
        curves["pnas"].append(top_m_table(trace_p, m_values))
        curves["random"].append(top_m_table(trace_r, m_values))
        _, acc_p = trace_p.best()
        _, acc_r = trace_r.best()
        wins += acc_p > acc_r
        print(
            f"trial {trial}: budget {trace_p.m1}  pnas {acc_p:.4f}  random {acc_r:.4f}"
            f"  {'pnas' if acc_p > acc_r else 'random'} wins"
            f"  [{time.perf_counter() - started:.1f}s]"
        )
    print(f"pnas wins {wins}/{args.trials}")

    rows = []
    for strategy in ("pnas", "random"):
        for row in aggregate_curves(curves[strategy], m_values):
            rows.append({"strategy": strategy, **row})
    write_summary_csv(args.out, rows)
    print(f"curves written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
