"""Rank correlation and top-M progress curves against a scratch oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnas.metrics import (
    UndefinedCorrelationError,
    aggregate_curves,
    average_ranks,
    spearman,
    top_m_curve,
)


def slow_ranks(values):
    """Tie-averaged 1-based ranks computed by direct definition."""
    out = []
    for v in values:
        below = sum(1 for w in values if w < v)
        tied = sum(1 for w in values if w == v)
        out.append(below + (tied + 1) / 2)
    return out


def slow_spearman(x, y):
    rx, ry = slow_ranks(x), slow_ranks(y)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    )
    return num / den


def test_average_ranks_ties():
    assert average_ranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5, 5, 5]).tolist() == [2.0, 2.0, 2.0]


def test_spearman_monotone():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman([1, 2, 3], [3, 2, 1]) == -1.0


def test_spearman_hand_case():
    # ranks (1,2,3,4) vs (1,3,2,4): d^2 sums to 2, rho = 1 - 12/60
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_spearman_matches_oracle_with_ties():
    y = [1, 2, 3, 4, 4]
    for perm in itertools.permutations([0.1, 0.4, 0.2, 0.4, 0.9]):
        assert spearman(perm, y) == pytest.approx(
            slow_spearman(perm, y), abs=1e-12
        )


@given(
    st.lists(st.integers(0, 5), min_size=2, max_size=12),
    st.data(),
)
def test_spearman_matches_oracle_random(xs, data):
    ys = data.draw(
        st.lists(st.integers(0, 5), min_size=len(xs), max_size=len(xs))
    )
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        with pytest.raises(UndefinedCorrelationError):
            spearman(xs, ys)
    else:
        assert spearman(xs, ys) == pytest.approx(
            slow_spearman(xs, ys), abs=1e-12
        )


def test_spearman_input_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="at least 2"):
        spearman([1], [1])
    with pytest.raises(ValueError, match="1-d"):
        spearman([[1, 2]], [[1, 2]])
    with pytest.raises(UndefinedCorrelationError):
        spearman([7, 7, 7], [1, 2, 3])


def test_top_m_curve_hand_case():
    rows = top_m_curve([0.5, 0.9, 0.7], m_values=(1, 2))
    assert rows == [
        {"models": 1, "top1": 0.5},
        {"models": 2, "top1": 0.9, "top2": 0.7},
        {"models": 3, "top1": 0.9, "top2": pytest.approx(0.8)},
    ]


def test_top_m_curve_omits_until_m_seen():
    rows = top_m_curve([0.1] * 30)
    assert "top25" not in rows[23]
    assert rows[24]["top25"] == pytest.approx(0.1)


@given(st.lists(st.floats(0, 1), min_size=1, max_size=40))
def test_top1_nondecreasing(accs):
    rows = top_m_curve(accs, m_values=(1,))
    tops = [r["top1"] for r in rows]
    assert all(a <= b for a, b in zip(tops, tops[1:]))
    assert tops[-1] == max(accs)


def test_top_m_curve_rejects_bad_m():
    with pytest.raises(ValueError):
        top_m_curve([0.5], m_values=(0,))


def test_aggregate_curves_identical_trials():
    curve = top_m_curve([0.2, 0.4, 0.6], m_values=(1,))
    rows = aggregate_curves([curve, curve, curve], m_values=(1,))
    assert [r["top1_mean"] for r in rows] == pytest.approx([0.2, 0.4, 0.6])
    assert all(r["top1_stderr"] == pytest.approx(0.0, abs=1e-15) for r in rows)
    # three models never fill a top-5 column, so no row gets one
    rows = aggregate_curves([curve, curve, curve], m_values=(1, 5))
    assert all(set(r) == {"models", "top1_mean", "top1_stderr"} for r in rows)


def test_aggregate_curves_mean_and_stderr():
    a = top_m_curve([0.2], m_values=(1,))
    b = top_m_curve([0.4], m_values=(1,))
    rows = aggregate_curves([a, b], m_values=(1,))
    assert rows[0]["top1_mean"] == pytest.approx(0.3)
    expected = np.std([0.2, 0.4], ddof=1) / np.sqrt(2)
    assert rows[0]["top1_stderr"] == pytest.approx(expected)


def test_aggregate_curves_length_mismatch():
    a = top_m_curve([0.2, 0.3], m_values=(1,))
    b = top_m_curve([0.4], m_values=(1,))
    with pytest.raises(ValueError, match="different budgets"):
        aggregate_curves([a, b])
    with pytest.raises(ValueError, match="no curves"):
        aggregate_curves([])
