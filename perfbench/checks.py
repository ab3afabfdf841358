"""Correctness checks for the benchmark's workloads.

Everything here is written apart from the `pnas` package: cell keys are
parsed and enumerated, seeds derived, the synthetic oracle's noise-free
value computed, and Spearman's rho ranked with this file's own code. The
only exception is `check_random_external`, which compares the external
worker's answers against the package's in-process synthetic backend, as
the workload's purpose is to show the two agree.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

NUM_OPS = 8
POOL_OPS = (5, 6)  # avgpool3x3, maxpool3x3

# Coefficients of the synthetic oracle's documented formula:
# accuracy = sigmoid(bias + op utilities . op counts + depth_bonus * depth
#                    + diversity_bonus * distinct inputs + pool_weight * pools)
ORACLE_OP_UTILITY = (0.12, 0.15, 0.17, 0.08, -0.08, -0.04, -0.03, 0.02)
ORACLE_DEPTH_BONUS = 0.03
ORACLE_DIVERSITY_BONUS = 0.03
ORACLE_POOL_WEIGHT = -0.02
ORACLE_BIAS = 1.69


# ---------------------------------------------------------------- reference code


def derive_seed(master: int, *labels) -> int:
    """The seeding scheme the README documents: sha256 of 'master/label/...'."""
    text = "/".join([str(int(master)), *(str(label) for label in labels)])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big") >> 1


def parse_key(key: str) -> tuple[tuple[int, int, int, int], ...]:
    """'b|i1,o1,i2,o2;...' -> blocks as (i1, o1, i2, o2); raises ValueError."""
    head, sep, body = key.partition("|")
    if not sep:
        raise ValueError(f"key {key!r} has no '|'")
    b = int(head)
    segments = body.split(";")
    if len(segments) != b:
        raise ValueError(f"key {key!r} announces {b} blocks, has {len(segments)}")
    blocks = []
    for pos, segment in enumerate(segments, start=1):
        fields = tuple(int(part) for part in segment.split(","))
        if len(fields) != 4:
            raise ValueError(f"key {key!r}: block {pos} needs 4 fields")
        i1, o1, i2, o2 = fields
        if not (0 <= i1 <= pos and 0 <= i2 <= pos and 0 <= o1 < NUM_OPS and 0 <= o2 < NUM_OPS):
            raise ValueError(f"key {key!r}: block {pos} out of range")
        blocks.append(fields)
    return tuple(blocks)


def make_key(blocks) -> str:
    return f"{len(blocks)}|" + ";".join(f"{i1},{o1},{i2},{o2}" for i1, o1, i2, o2 in blocks)


def is_canonical(blocks) -> bool:
    """Each block's (input, operator) pairs in ascending order."""
    return all((i1, o1) <= (i2, o2) for i1, o1, i2, o2 in blocks)


def canonical_block_count(b: int) -> int:
    n = (b + 1) * NUM_OPS
    return n * (n + 1) // 2


def one_block_keys() -> list[str]:
    pairs = [(i, o) for i in range(2) for o in range(NUM_OPS)]
    return sorted(make_key([(*p, *q)]) for p in pairs for q in pairs if p <= q)


def budget(b_max: int, beam: int) -> list[int]:
    """Evaluations per level: all one-block cells, then top-K of the children."""
    sizes = [len(one_block_keys())]
    for b in range(2, b_max + 1):
        sizes.append(min(beam, sizes[-1] * canonical_block_count(b)))
    return sizes


def oracle_score(blocks) -> float:
    """Noise-free synthetic accuracy of a cell, from the documented formula."""
    counts = [0] * NUM_OPS
    depths: list[int] = []
    inputs: set[int] = set()
    for i1, o1, i2, o2 in blocks:
        counts[o1] += 1
        counts[o2] += 1
        inputs.update((i1, i2))
        depths.append(1 + max(0 if i < 2 else depths[i - 2] for i in (i1, i2)))
    z = ORACLE_BIAS + sum(u * c for u, c in zip(ORACLE_OP_UTILITY, counts))
    z += ORACLE_DEPTH_BONUS * max(depths) + ORACLE_DIVERSITY_BONUS * len(inputs)
    z += ORACLE_POOL_WEIGHT * sum(counts[o] for o in POOL_OPS)
    return 1.0 / (1.0 + math.exp(-z))


def oracle_noisy(blocks, eval_seed: int, sigma: float) -> float:
    """Noise-free value plus the documented per-(key, seed) Gaussian noise."""
    noise = np.random.default_rng(derive_seed(eval_seed, "noise", make_key(blocks))).normal(0.0, sigma)
    return min(1.0, max(0.0, oracle_score(blocks) + float(noise)))


def random_cell(b: int, rng: np.random.Generator):
    """One uniform raw draw per block, canonicalized: the random baseline's sampler."""
    blocks = []
    for pos in range(1, b + 1):
        i1, i2 = (int(v) for v in rng.integers(0, pos + 1, size=2))
        o1, o2 = (int(v) for v in rng.integers(0, NUM_OPS, size=2))
        p, q = sorted([(i1, o1), (i2, o2)])
        blocks.append((*p, *q))
    return tuple(blocks)


def random_search_keys(seed: int, b: int, count: int) -> list[str]:
    rng = np.random.default_rng(derive_seed(seed, "random-search"))
    return [make_key(random_cell(b, rng)) for _ in range(count)]


def harness_pool_keys(seed: int, b: int, size: int) -> list[str]:
    """The harness's level-b pool: distinct uniform draws, first occurrence kept."""
    rng = np.random.default_rng(derive_seed(seed, "pool", b))
    seen: dict[str, None] = {}
    while len(seen) < size:
        seen.setdefault(make_key(random_cell(b, rng)), None)
    return list(seen)


def average_ranks(values) -> list[float]:
    """1-based ranks; a group of ties shares the mean of the ranks it spans."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        shared = (start + end) / 2.0 + 1.0
        for pos in range(start, end + 1):
            ranks[order[pos]] = shared
        start = end + 1
    return ranks


def spearman(x, y) -> float:
    rx, ry = average_ranks(list(map(float, x))), average_ranks(list(map(float, y)))
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    return sxy / math.sqrt(sxx * syy)


def top_mean(values, m: int = 25) -> float:
    best = sorted(values, reverse=True)[:m]
    return sum(best) / len(best)


# ---------------------------------------------------------------- trace helpers


def evals_by_level(events) -> dict[int, list[dict]]:
    levels: dict[int, list[dict]] = {}
    for ev in events:
        if ev.get("event") == "eval":
            levels.setdefault(ev["level"], []).append(ev)
    return levels


def eval_values(events) -> list[float]:
    return [ev["value"] for ev in events if ev.get("event") == "eval" and "error" not in ev]


def select_order(events, level: int) -> list[str]:
    ranked = sorted((ev["value"], ev["cell_key"]) for ev in events if ev.get("event") == "select" and ev["level"] == level)
    return [key for _, key in ranked]


def predictions(events, level: int) -> dict[str, float]:
    return {ev["cell_key"]: ev["value"] for ev in events if ev.get("event") == "predict" and ev["level"] == level}


def beam_rho(events, b_max: int) -> float:
    """Spearman(predicted, measured) over every cell selected at levels 2..B.

    Each was scored by the surrogate fitted on the levels below it, so this
    is the surrogate's extrapolation quality on the cells it chose. The
    levels are pooled: within one level the beam spans too narrow a range
    of accuracies for a rank correlation to be steady.
    """
    levels = evals_by_level(events)
    pairs = []
    for b in range(2, b_max + 1):
        pred = predictions(events, b)
        pairs += [(pred[ev["cell_key"]], ev["value"]) for ev in levels.get(b, [])]
    return spearman([p for p, _ in pairs], [m for _, m in pairs])


# ---------------------------------------------------------------- checks


def _accuracy_failures(evs, eval_seed: int, sigma: float) -> list[str]:
    failures = []
    for ev in evs:
        if "error" in ev:
            failures.append(f"eval {ev['cell_key']} failed: {ev['error']}")
            continue
        score = oracle_score(parse_key(ev["cell_key"]))
        if not abs(ev["value"] - score) <= 6.0 * sigma:
            failures.append(f"eval {ev['cell_key']}: {ev['value']!r} is not within 6 sigma of {score!r}")
    return failures


def check_search(events, b_max: int, beam: int, sigma: float, seed: int) -> list[str]:
    """Budget, expansion counts, key lineage, select order and accuracies of a pnas search."""
    failures: list[str] = []
    levels = evals_by_level(events)
    sizes = budget(b_max, beam)
    got = [len(levels.get(b, [])) for b in range(1, b_max + 1)]
    if got != sizes or sum(len(v) for v in levels.values()) != sum(sizes):
        failures.append(f"eval counts per level {got}, expected {sizes}")
    if sorted(ev["cell_key"] for ev in levels.get(1, [])) != one_block_keys():
        failures.append("level 1 is not the set of all one-block cells")

    expands = {ev["level"]: ev["value"] for ev in events if ev.get("event") == "expand"}
    for b in range(2, b_max + 1):
        parents = len(levels.get(b - 1, []))
        want = {"raw": parents * (b + 1) ** 2 * 64, "unique": parents * canonical_block_count(b)}
        if expands.get(b) != want:
            failures.append(f"expand at level {b}: {expands.get(b)}, expected {want}")

    seen: set[str] = set()
    for b in range(1, b_max + 1):
        previous = {ev["cell_key"] for ev in levels.get(b - 1, [])}
        for ev in levels.get(b, []):
            key = ev["cell_key"]
            if key in seen:
                failures.append(f"key {key} evaluated twice")
            seen.add(key)
            try:
                blocks = parse_key(key)
            except ValueError as exc:
                failures.append(str(exc))
                continue
            if len(blocks) != b or not is_canonical(blocks) or make_key(blocks) != key:
                failures.append(f"level {b} key {key} is not a canonical {b}-block cell")
            elif b > 1 and make_key(blocks[:-1]) not in previous:
                failures.append(f"level {b} key {key}: its prefix was not evaluated at level {b - 1}")

        if b > 1:
            pred = predictions(events, b)
            order = select_order(events, b)
            ranks = sorted(ev["value"] for ev in events if ev.get("event") == "select" and ev["level"] == b)
            if ranks != list(range(1, len(order) + 1)):
                failures.append(f"select ranks at level {b} are not 1..{len(order)}")
            if set(order) != {ev["cell_key"] for ev in levels.get(b, [])} or set(pred) != set(order):
                failures.append(f"selected, predicted and evaluated cells differ at level {b}")
            elif order != sorted(order, key=lambda k: (-pred[k], k)):
                failures.append(f"select ranks at level {b} do not follow (-predicted, key)")

    failures += _accuracy_failures([ev for evs in levels.values() for ev in evs], derive_seed(seed, "eval"), sigma)
    return failures


def check_beats_random(search_events, random_events) -> list[str]:
    ours, theirs = top_mean(eval_values(search_events)), top_mean(eval_values(random_events))
    if not ours > theirs:
        return [f"top-25 accuracy {ours!r} does not beat equal-budget random search {theirs!r}"]
    return []


def check_random_external(events, b_max: int, count: int, sigma: float, seed: int) -> list[str]:
    """Sample order, block counts, 6 sigma, and agreement with the in-process backend."""
    from pnas.cells import parse_cell_key
    from pnas.evaluators import SyntheticOracle, SyntheticOracleConfig

    failures: list[str] = []
    evs = [ev for ev in events if ev.get("event") == "eval"]
    keys = [ev["cell_key"] for ev in evs]
    if keys != random_search_keys(seed, b_max, count):
        failures.append(f"eval events ({len(keys)}) are not the {count} sampled cells in sample order")
    if any(len(parse_key(key)) != b_max for key in keys):
        failures.append(f"a sampled cell does not have exactly {b_max} blocks")
    eval_seed = derive_seed(seed, "eval")
    failures += _accuracy_failures(evs, eval_seed, sigma)
    oracle = SyntheticOracle(SyntheticOracleConfig(noise_sigma=sigma))
    for ev in evs:
        if "error" not in ev and ev["value"] != oracle.noisy_accuracy(parse_cell_key(ev["cell_key"]), eval_seed):
            failures.append(f"eval {ev['cell_key']}: worker value differs from the in-process backend")
    return failures


def check_harness(report: dict, kinds, b_max: int, trials: int) -> list[str]:
    failures = []
    for name in ("fit", "extrapolate"):
        for kind in kinds:
            for b in range(1, b_max):
                values = report[name].get(f"{kind}/{b}")
                if values is None or len(values) != trials:
                    failures.append(f"report {name} {kind}/{b} does not hold {trials} trials")
                elif not all(-1.0 <= v <= 1.0 for v in values):
                    failures.append(f"report {name} {kind}/{b}: rho outside [-1, 1]: {values}")
    for kind in kinds:
        values = report["fit"].get(f"{kind}/1") or [0.0]
        if not sum(values) / len(values) >= 0.8:
            failures.append(f"{kind}: level-1 rho_fit {values} is below 0.8")
    return failures


def check_perfect(report: dict) -> list[str]:
    values = [v for name in ("fit", "extrapolate") for vs in report[name].values() for v in vs]
    if not values or any(v != 1.0 for v in values):
        return [f"--perfect harness does not report exactly 1.0 everywhere: {values}"]
    return []


# ---------------------------------------------------------------- checks on captured values


def check_beam_topk(events, scored: dict[int, tuple[np.ndarray, np.ndarray]], beam: int) -> list[str]:
    """The select order equals the top-K of every scored child under (-score, key).

    `scored[b]` holds the children handed to the surrogate at level b as an
    (n, b, 4) array of (i1, i2, o1, o2) blocks and their scores.
    """
    failures = []
    for b, (cells, scores) in sorted(scored.items()):
        expected_children = len(evals_by_level(events).get(b - 1, [])) * canonical_block_count(b)
        if len(scores) != expected_children:
            failures.append(f"level {b}: {len(scores)} children scored, expected {expected_children}")
        k = min(beam, len(scores))
        cutoff = np.partition(-scores, k - 1)[k - 1]
        contenders = np.flatnonzero(-scores <= cutoff)  # every child that can reach the top K, ties included
        ranked = sorted(
            (-float(scores[i]), make_key([(i1, o1, i2, o2) for i1, i2, o1, o2 in cells[i].tolist()]))
            for i in contenders
        )
        top = [key for _, key in ranked[:k]]
        if top != select_order(events, b):
            failures.append(f"level {b}: selected beam is not the top-{k} of the scored children")
    return failures


def check_rho_recompute(calls: list[tuple[np.ndarray, np.ndarray, float]], report: dict, kinds, b_max: int, trials: int) -> list[str]:
    """Each spearman call recomputed here to 1e-12, and the report holds those values.

    The harness calls spearman per kind, level and trial: fit, then extrapolate.
    """
    failures = []
    expected = []
    for kind in kinds:
        for b in range(1, b_max):
            for t in range(trials):
                expected += [report["fit"][f"{kind}/{b}"][t], report["extrapolate"][f"{kind}/{b}"][t]]
    if len(calls) != len(expected):
        return [f"{len(calls)} spearman calls captured, report holds {len(expected)} values"]
    for n, ((x, y, result), reported) in enumerate(zip(calls, expected)):
        mine = spearman(x, y)
        if not abs(mine - result) <= 1e-12 or not abs(mine - reported) <= 1e-12:
            failures.append(f"spearman call {n}: recomputed {mine!r}, program {result!r}, report {reported!r}")
    return failures
