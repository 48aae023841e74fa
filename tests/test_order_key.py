"""The tuple sort key of each order against a dense-vector reference built
from the order definitions."""

from __future__ import annotations

from functools import cmp_to_key

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from infinigb.monomials import (
    DEFAULT_WEIGHTS,
    OrderKind,
    WeightedAlphabet,
    compare,
    sort_key,
)

WEIGHTINGS = [
    DEFAULT_WEIGHTS,
    WeightedAlphabet.with_weights({i: 1 for i in range(1, 7)}),
    WeightedAlphabet.with_weights({3: 1, 7: 2}),
]

# Per order: where the deciding index is (the first or the last where the
# exponent vectors differ), and whether the larger exponent there makes the
# larger monomial.
DEFINITIONS = {
    OrderKind.PURE_LEX: ("last", True),
    OrderKind.HOM_LEX: ("last", True),
    OrderKind.HOM_ANTI_LEX: ("first", True),
    OrderKind.HOM_REV_LEX: ("first", False),
    OrderKind.HOM_ANTI_REV_LEX: ("last", False),
}


def _sign(x):
    return (x > 0) - (x < 0)


def reference_compare(a, b, order, weights):
    """-1, 0 or 1 from dense exponent vectors: weighted degree first for the
    homogeneous kinds, then the first or last differing exponent."""
    if order.homogeneous:
        by_degree = _sign(a.degree(weights) - b.degree(weights))
        if by_degree:
            return by_degree
    n = max(a.max_index(), b.max_index())
    diffs = [
        a.exponent(i) - b.exponent(i)
        for i in range(1, n + 1)
        if a.exponent(i) != b.exponent(i)
    ]
    if not diffs:
        return 0
    where, larger_wins = DEFINITIONS[order]
    deciding = diffs[0] if where == "first" else diffs[-1]
    return _sign(deciding) if larger_wins else -_sign(deciding)


def small_monomials():
    # A small alphabet makes equal weighted degrees, the case the exponent
    # pairs decide, common.
    return helpers.monomials(max_index=8, max_exponent=3, max_factors=4)


@pytest.mark.parametrize("weights", WEIGHTINGS, ids=["default", "ones", "overrides"])
@pytest.mark.parametrize("order", helpers.ALL_ORDERS, ids=lambda o: o.value)
class TestKeyAgainstDefinition:
    @given(a=small_monomials(), b=small_monomials())
    def test_compare(self, order, weights, a, b):
        assert compare(a, b, order, weights) == reference_compare(a, b, order, weights)

    @given(ms=st.lists(small_monomials(), max_size=12))
    def test_sorted(self, order, weights, ms):
        expected = sorted(
            ms, key=cmp_to_key(lambda a, b: reference_compare(a, b, order, weights))
        )
        assert sorted(ms, key=sort_key(order, weights)) == expected
