import hypothesis.strategies as st
import pytest
from hypothesis import settings

import pnas.predictors
from pnas.cells import NUM_OPERATORS, BlockSpec, canonicalize

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@st.composite
def raw_blocks(draw, position: int):
    """A possibly non-canonical block legal at 1-indexed ``position``."""
    hi = position + 1
    return BlockSpec(
        i1=draw(st.integers(0, hi - 1)),
        i2=draw(st.integers(0, hi - 1)),
        o1=draw(st.integers(0, NUM_OPERATORS - 1)),
        o2=draw(st.integers(0, NUM_OPERATORS - 1)),
    )


@st.composite
def raw_cells(draw, max_blocks: int = 4):
    b = draw(st.integers(1, max_blocks))
    return tuple(draw(raw_blocks(k)) for k in range(1, b + 1))


@st.composite
def canonical_cells(draw, max_blocks: int = 4):
    return canonicalize(draw(raw_cells(max_blocks)))


@pytest.fixture
def shrink():
    """shrink(EMBED_DIM=..., HIDDEN=..., ...): set predictor recipe constants for this test.

    The constants are patched in ``pnas.predictors`` itself, so models built
    after the call, forked fit workers' among them, take the smaller recipe.
    The patches are undone after the test, whatever it does with its own
    ``monkeypatch``.
    """
    with pytest.MonkeyPatch.context() as patch:
        def apply(**constants):
            for name, value in constants.items():
                patch.setattr(pnas.predictors, name, value)

        yield apply
