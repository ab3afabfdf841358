"""Search-space combinatorics, canonical form, and cell-key codec."""

import itertools

import numpy as np
import pytest
from hypothesis import given

from pnas.cells import (
    NUM_OPERATORS,
    OPERATOR_NAMES,
    PNASNET_5_KEY,
    BlockSpec,
    CellKeyError,
    canonical_blocks,
    canonicalize,
    cell_key,
    count_space,
    enumerate_blocks,
    is_canonical,
    one_block_cells,
    parse_cell_key,
    random_cell,
    validate_cell,
)
from pnas.search import score_children

from conftest import canonical_cells, raw_cells


def brute_canonical_count(position: int) -> int:
    """Count unordered pairs of (input, op) legal at a block position.

    Counted from scratch as normalized pair sets so the packaged formula
    is checked against something that never shares its arithmetic.
    """
    pairs = [
        (i, o)
        for i in range(position + 1)
        for o in range(NUM_OPERATORS)
    ]
    seen = set()
    for a in pairs:
        for b in pairs:
            seen.add(tuple(sorted((a, b))))
    return len(seen)


def test_block_counts_by_level():
    raw = [len(enumerate_blocks(b)) for b in range(1, 6)]
    assert raw == [256, 576, 1024, 1600, 2304]
    canon = [len(canonical_blocks(b)) for b in range(1, 6)]
    assert canon == [brute_canonical_count(b) for b in range(1, 6)]
    assert canon == [136, 300, 528, 820, 1176]


def test_two_block_raw_product():
    assert len(enumerate_blocks(1)) * len(enumerate_blocks(2)) == 147456


def test_count_space_exact():
    size = count_space(5)
    assert size.raw == 556627761561600
    assert size.unique == 20773767168000
    # independent recomputation from the brute-force per-level counts
    unique = 1
    for b in range(1, 6):
        unique *= brute_canonical_count(b)
    assert size.unique == unique


def test_count_space_level_one():
    size = count_space(1)
    assert (size.raw, size.unique) == (256, 136)
    assert len(one_block_cells()) == 136
    with pytest.raises(ValueError, match="block position must be an int, got 2.0"):
        count_space(2.0)


@given(raw_cells())
def test_canonicalize_idempotent(cell):
    canon = canonicalize(cell)
    assert is_canonical(canon)
    assert canonicalize(canon) == canon
    assert len(canon) == len(cell)


@given(raw_cells())
def test_canonicalize_preserves_multiset(cell):
    canon = canonicalize(cell)
    for raw, fixed in zip(cell, canon):
        assert sorted([(raw.i1, raw.o1), (raw.i2, raw.o2)]) == [
            (fixed.i1, fixed.o1),
            (fixed.i2, fixed.o2),
        ]


def test_canonical_blocks_are_sorted_unique():
    for b in range(1, 6):
        blocks = canonical_blocks(b)
        assert len(set(blocks)) == len(blocks)
        assert all(is_canonical((blk,)) for blk in blocks)


class CapturingSurrogate:
    """Records every child it is asked to score."""

    def __init__(self):
        self.children = []

    def predict(self, cells):
        self.children.extend(cells.tolist())
        return np.zeros(len(cells))


def test_expansion_never_collides_across_parents():
    # every two-block canonical cell has exactly one one-block parent, so
    # the search's expansion of all 136 parents yields 136 * 300 distinct cells
    surrogate = CapturingSurrogate()
    parents = np.asarray(one_block_cells())
    score_children(surrogate, parents, np.asarray(canonical_blocks(2)), chunk_size=1000)
    keys = {cell_key(child) for child in surrogate.children}
    assert len(surrogate.children) == len(keys) == 136 * 300
    assert all(is_canonical(child) for child in surrogate.children)


@given(canonical_cells())
def test_key_round_trip(cell):
    assert parse_cell_key(cell_key(cell)) == cell


def test_key_format():
    cell = ((BlockSpec(0, 1, 4, 6)),)
    assert cell_key((cell[0],)) == "1|0,4,1,6"
    with pytest.raises(ValueError, match="cell must have between 1 and 10 blocks, got 0"):
        cell_key(())


def test_reference_key_parses_canonical():
    cell = parse_cell_key(PNASNET_5_KEY)
    assert len(cell) == 5
    assert is_canonical(cell)
    assert cell_key(cell) == PNASNET_5_KEY


@pytest.mark.parametrize(
    "key, needle",
    [
        ("nope", "missing '|'"),
        ("x|0,4,1,4", "block count 'x' is not an integer"),
        ("0|", "outside"),
        ("11|0,4,1,4", "outside"),
        ("2|0,4,1,4", "expected 2 block segments, found 1"),
        ("1|0,4,1", "needs 4 comma-separated fields"),
        ("1|0,4,1,q", "non-integer field"),
        ("1|0,4,2,4", "input id 2 outside"),
        ("1|0,9,1,4", "operator id 9 outside"),
    ],
)
def test_parse_key_errors(key, needle):
    with pytest.raises(CellKeyError) as err:
        parse_cell_key(key)
    assert needle in str(err.value)


def test_parse_key_accepts_non_canonical():
    cell = parse_cell_key("1|1,4,0,4")
    assert not is_canonical(cell)
    assert validate_cell(cell) is None


def test_validate_cell_messages():
    with pytest.raises(ValueError, match=r"block 1: input id 2 outside \[0, 2\)"):
        validate_cell((BlockSpec(2, 0, 0, 0),))
    with pytest.raises(ValueError, match="operator id 8"):
        validate_cell((BlockSpec(0, 0, 8, 0),))


def test_operator_table():
    assert len(OPERATOR_NAMES) == NUM_OPERATORS == 8
    assert OPERATOR_NAMES[4] == "identity"
    assert OPERATOR_NAMES[0] == "sep3x3"


def test_random_cell_is_canonical_and_seeded():
    import numpy as np

    cells = [random_cell(3, np.random.default_rng(s)) for s in range(50)]
    assert all(is_canonical(c) and len(c) == 3 for c in cells)
    assert random_cell(3, np.random.default_rng(7)) == random_cell(
        3, np.random.default_rng(7)
    )
    assert len({cell_key(c) for c in cells}) > 1


def test_enumerate_blocks_ordering():
    blocks = enumerate_blocks(1)
    assert blocks[0] == BlockSpec(0, 0, 0, 0)
    assert blocks == sorted(blocks)
    assert blocks == list(
        itertools.starmap(
            BlockSpec,
            (
                (i1, i2, o1, o2)
                for i1 in range(2)
                for i2 in range(2)
                for o1 in range(8)
                for o2 in range(8)
            ),
        )
    )
