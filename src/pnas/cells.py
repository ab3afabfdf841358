"""Block/cell search space: enumeration, canonical forms, counting.

A cell is an ordered tuple of blocks. Block k (1-indexed) applies two
operators to two inputs and adds the results; legal input ids for block k
are the integers in [0, k+1):

    0      output of the previous-previous cell,
    1      output of the previous cell,
    j + 1  output of block j (1 <= j < k) of the same cell.

Because the combiner is addition, a block is invariant under swapping its
two (input, operator) pairs. The canonical form orders the pairs
lexicographically by (input id, operator id); that within-block symmetry is
the only one collapsed here, and it reduces the 256 raw one-block tuples to
136 distinct cells. Reordering whole blocks can also produce isomorphic
cells; that symmetry is deliberately *not* collapsed, which is why
``count_space`` reports a raw and a unique count rather than a single
number.

Cell keys use the stable textual format

    b|i1,o1,i2,o2;i1,o1,i2,o2;...

with one group per block and operator ids 0-7. The key format is an
on-disk contract shared by deduplication, tabular lookup and trace files.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

B_MAX = 10


class Operator(IntEnum):
    """Block operators in fixed token-id order. The ids are an on-disk contract."""

    SEP3X3 = 0
    SEP5X5 = 1
    SEP7X7 = 2
    CONV1X7_7X1 = 3
    IDENTITY = 4
    AVGPOOL3X3 = 5
    MAXPOOL3X3 = 6
    DILATED3X3 = 7


NUM_OPERATORS = len(Operator)
OPERATOR_NAMES = tuple(op.name.lower() for op in Operator)


class BlockSpec(NamedTuple):
    """One block: add(o1 applied to input i1, o2 applied to input i2)."""

    i1: int
    i2: int
    o1: int
    o2: int


CellSpec = tuple  # tuple[BlockSpec, ...]

# Best five-block cell found by the progressive search at full scale, written
# in this package's input-index convention. Used for cost sanity checks and as
# a ready-made input for the `build` command.
PNASNET_5_KEY = "5|0,1,0,6;1,2,1,6;1,0,1,1;1,0,4,4;0,0,1,4"


class CellKeyError(ValueError):
    """A textual cell key could not be parsed."""


@dataclass(frozen=True)
class SpaceSize:
    """Exact search-space sizes (Python ints, arbitrary precision)."""

    raw: int
    unique: int


def _check_level(b: int) -> None:
    if not isinstance(b, int) or isinstance(b, bool):
        raise ValueError(f"block position must be an int, got {b!r}")
    if not 1 <= b <= B_MAX:
        raise ValueError(f"block position {b} outside [1, {B_MAX}]")


def validate_cell(cell: CellSpec) -> None:
    """Raise ValueError unless every block's inputs and operators are in range."""
    if not 1 <= len(cell) <= B_MAX:
        raise ValueError(f"cell must have between 1 and {B_MAX} blocks, got {len(cell)}")
    for pos, block in enumerate(cell, start=1):
        i1, i2, o1, o2 = block
        for i in (i1, i2):
            if not 0 <= i < pos + 1:
                raise ValueError(f"block {pos}: input id {i} outside [0, {pos + 1})")
        for o in (o1, o2):
            if not 0 <= o < NUM_OPERATORS:
                raise ValueError(f"block {pos}: operator id {o} outside [0, {NUM_OPERATORS})")


def validate_cell_array(cells: np.ndarray) -> None:
    """`validate_cell` for every row of an (n, b, 4) id array of b-block cells at once."""
    if cells.ndim != 3 or cells.shape[2] != 4:
        raise ValueError(f"a cell array must have shape (n, b, 4), got {cells.shape}")
    b = cells.shape[1]
    if not 1 <= b <= B_MAX:
        raise ValueError(f"cell must have between 1 and {B_MAX} blocks, got {b}")
    pos = np.arange(2, b + 2)
    upper = np.stack([pos, pos, np.full(b, NUM_OPERATORS), np.full(b, NUM_OPERATORS)], axis=1)
    bad = np.flatnonzero(((cells < 0) | (cells >= upper)).any(axis=(1, 2)))
    if bad.size:
        validate_cell(cells[bad[0]].tolist())  # raises, naming the block and the id


def canonicalize_block(block: BlockSpec) -> BlockSpec:
    """Order the two (input, operator) pairs lexicographically."""
    i1, i2, o1, o2 = block
    if (i2, o2) < (i1, o1):
        i1, i2, o1, o2 = i2, i1, o2, o1
    return BlockSpec(i1, i2, o1, o2)


def canonicalize(cell: CellSpec) -> CellSpec:
    """Canonical form of a cell; idempotent, block order untouched."""
    validate_cell(cell)
    return tuple(canonicalize_block(BlockSpec(*blk)) for blk in cell)


def is_canonical(cell: CellSpec) -> bool:
    return all((blk[0], blk[2]) <= (blk[1], blk[3]) for blk in cell)


def enumerate_blocks(b: int) -> list[BlockSpec]:
    """All raw blocks legal at position b: (b+1)^2 * 64 of them.

    Enumeration order is fixed (i1, then i2, then o1, then o2, each
    ascending) so downstream traces are reproducible byte for byte.
    """
    _check_level(b)
    n_inputs = b + 1
    return [
        BlockSpec(i1, i2, o1, o2)
        for i1 in range(n_inputs)
        for i2 in range(n_inputs)
        for o1 in range(NUM_OPERATORS)
        for o2 in range(NUM_OPERATORS)
    ]


@functools.lru_cache(maxsize=None)
def canonical_blocks(b: int) -> tuple[BlockSpec, ...]:
    """Distinct canonical blocks at position b, in first-occurrence order.

    Size is n(n+1)/2 for n = (b+1)*8 ordered (input, operator) pairs.
    """
    return tuple(dict.fromkeys(canonicalize_block(blk) for blk in enumerate_blocks(b)))


def one_block_cells() -> list[CellSpec]:
    """The 136 distinct one-block cells (the level-1 candidate set)."""
    return [(blk,) for blk in canonical_blocks(1)]


def count_space(b_max: int) -> SpaceSize:
    """Exact raw and unique cell counts for cells of exactly ``b_max`` blocks.

    raw     product over b of (b+1)^2 * 64 block choices,
    unique  product over b of n(n+1)/2 with n = (b+1)*8, i.e. raw with the
            within-block pair symmetry collapsed. Block-order symmetries are
            not collapsed, so `unique` still overcounts isomorphism classes.
    """
    _check_level(b_max)
    raw = 1
    unique = 1
    for b in range(1, b_max + 1):
        raw *= (b + 1) * (b + 1) * NUM_OPERATORS * NUM_OPERATORS
        n = (b + 1) * NUM_OPERATORS
        unique *= n * (n + 1) // 2
    return SpaceSize(raw=raw, unique=unique)


def cell_key(cell: CellSpec) -> str:
    """Serialize a cell to its textual key. Injective; canonical in, canonical out."""
    validate_cell(cell)
    body = ";".join(f"{i1},{o1},{i2},{o2}" for i1, i2, o1, o2 in cell)
    return f"{len(cell)}|{body}"


def parse_cell_key(key: str) -> CellSpec:
    """Parse a textual cell key; inverse of ``cell_key``.

    Raises CellKeyError naming the offending segment. Accepts structurally
    valid non-canonical keys (callers wanting dedup semantics should
    canonicalize the result).
    """
    head, sep, body = key.partition("|")
    if not sep:
        raise CellKeyError(f"cell key {key!r}: missing '|' separator")
    try:
        b = int(head)
    except ValueError:
        raise CellKeyError(f"cell key {key!r}: block count {head!r} is not an integer") from None
    if not 1 <= b <= B_MAX:
        raise CellKeyError(f"cell key {key!r}: block count {b} outside [1, {B_MAX}]")
    segments = body.split(";")
    if len(segments) != b:
        raise CellKeyError(f"cell key {key!r}: expected {b} block segments, found {len(segments)}")
    blocks = []
    for pos, segment in enumerate(segments, start=1):
        fields = segment.split(",")
        if len(fields) != 4:
            raise CellKeyError(
                f"cell key {key!r}: block {pos} segment {segment!r} needs 4 comma-separated fields"
            )
        try:
            i1, o1, i2, o2 = (int(f) for f in fields)
        except ValueError:
            raise CellKeyError(
                f"cell key {key!r}: block {pos} segment {segment!r} has a non-integer field"
            ) from None
        for i in (i1, i2):
            if not 0 <= i < pos + 1:
                raise CellKeyError(
                    f"cell key {key!r}: block {pos} segment {segment!r} input id {i} outside [0, {pos + 1})"
                )
        for o in (o1, o2):
            if not 0 <= o < NUM_OPERATORS:
                raise CellKeyError(
                    f"cell key {key!r}: block {pos} segment {segment!r} operator id {o} outside [0, {NUM_OPERATORS})"
                )
        blocks.append(BlockSpec(i1, i2, o1, o2))
    return tuple(blocks)


def random_cell(b: int, rng: np.random.Generator) -> CellSpec:
    """Sample a canonical cell of exactly b blocks.

    Sampling is uniform over the raw per-block choices, then canonicalized,
    so cells with two identical (input, operator) pairs are half as likely
    as under a uniform draw over canonical forms.
    """
    _check_level(b)
    blocks = []
    for pos in range(1, b + 1):
        i1, i2 = (int(v) for v in rng.integers(0, pos + 1, size=2))
        o1, o2 = (int(v) for v in rng.integers(0, NUM_OPERATORS, size=2))
        blocks.append(canonicalize_block(BlockSpec(i1, i2, o1, o2)))
    return tuple(blocks)
