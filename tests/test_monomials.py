"""Monomials, the weighted grading and the five orders."""

from __future__ import annotations

from functools import cmp_to_key
from operator import add, sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from infinigb.errors import ParseError
from infinigb.monomials import (
    DEFAULT_WEIGHTS,
    Monomial,
    OrderKind,
    WeightedAlphabet,
    compare,
    format_monomial,
    monomials_of_degree,
    parse_monomial,
)
from infinigb import index_sets
from infinigb.partitions import FamilySpec

X = Monomial.variable


class TestDegree:
    def test_one_has_degree_zero(self):
        assert Monomial.one().degree() == 0

    def test_single_variable_weight(self):
        assert X(4).degree() == 4

    def test_weighted_sum(self):
        assert Monomial.from_pairs([(1, 2), (2, 1)]).degree() == 4

    def test_override_weights(self):
        w = WeightedAlphabet.with_weights({3: 1})
        assert X(3).degree(w) == 1
        assert X(4).degree(w) == 4

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedAlphabet.with_weights({2: 0})
        with pytest.raises(ValueError):
            WeightedAlphabet(((0, 1),))


class TestArithmetic:
    def test_multiply_adds_exponents(self):
        assert X(1) * Monomial.from_pairs([(1, 1), (3, 1)]) == Monomial.from_pairs(
            [(1, 2), (3, 1)]
        )

    def test_multiply_by_one(self):
        m = Monomial.from_pairs([(2, 3), (5, 1)])
        assert m * Monomial.one() == m

    def test_square(self):
        assert X(2) * X(2) == X(2, 2)

    def test_try_divide(self):
        assert Monomial.from_pairs([(1, 2), (2, 1)]).try_divide(X(1)) == \
            Monomial.from_pairs([(1, 1), (2, 1)])
        assert X(1).try_divide(X(2)) is None
        m = Monomial.from_pairs([(1, 1), (4, 2)])
        assert m.try_divide(m) == Monomial.one()

    def test_lcm_and_coprime(self):
        assert X(1, 2).lcm(Monomial.from_pairs([(1, 1), (2, 1)])) == \
            Monomial.from_pairs([(1, 2), (2, 1)])
        assert X(1, 3).coprime(X(3, 3))
        assert not Monomial.from_pairs([(1, 1), (2, 1)]).coprime(
            Monomial.from_pairs([(2, 1), (3, 1)])
        )

    @given(a=helpers.monomials(), b=helpers.monomials())
    def test_against_dense_exponent_vectors(self, a, b):
        # Each result's pairs must equal those of the dense exponent
        # arithmetic: sorted by index, with no zero exponent.
        top = max(a.max_index(), b.max_index())

        def dense(m):
            exponents = dict(m.exps)
            return [exponents.get(i, 0) for i in range(1, top + 1)]

        def pairs(vector):
            return tuple((i, e) for i, e in enumerate(vector, 1) if e)

        u, v = dense(a), dense(b)
        product = a * b
        assert product.exps == pairs(map(add, u, v))
        divisible = all(x >= y for x, y in zip(u, v))
        assert b.divides(a) == divisible
        quotient = a.try_divide(b)
        if divisible:
            assert quotient.exps == pairs(map(sub, u, v))
        else:
            assert quotient is None
        assert product.try_divide(b).exps == pairs(u)
        assert product.try_divide(a).exps == pairs(v)
        assert a.lcm(b).exps == pairs(map(max, u, v))
        assert a.coprime(b) == (not any(x and y for x, y in zip(u, v)))


# The degree-4 comparison chains, one per homogeneous order; each chain is
# strictly decreasing and exercises every pair among the five monomials of
# degree 4.
CHAINS = {
    OrderKind.HOM_LEX: ["x4", "x1*x3", "x2^2", "x1^2*x2", "x1^4"],
    OrderKind.HOM_ANTI_LEX: ["x1^4", "x1^2*x2", "x1*x3", "x2^2", "x4"],
    OrderKind.HOM_REV_LEX: ["x4", "x2^2", "x1*x3", "x1^2*x2", "x1^4"],
    OrderKind.HOM_ANTI_REV_LEX: ["x1^4", "x1^2*x2", "x2^2", "x1*x3", "x4"],
}


class TestOrders:
    @pytest.mark.parametrize("order", CHAINS)
    def test_degree_four_chain(self, order):
        chain = [parse_monomial(t) for t in CHAINS[order]]
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                assert compare(chain[i], chain[j], order) == 1
                assert compare(chain[j], chain[i], order) == -1

    @pytest.mark.parametrize("order", helpers.ALL_ORDERS)
    def test_reflexive_equal(self, order):
        m = Monomial.from_pairs([(1, 2), (3, 1)])
        assert compare(m, m, order) == 0

    @pytest.mark.parametrize("order", helpers.ALL_ORDERS)
    def test_variables_increase(self, order):
        for i in range(1, 6):
            assert compare(X(i + 1), X(i), order) == 1

    @given(a=helpers.monomials(), b=helpers.monomials(),
           order=st.sampled_from(helpers.ALL_ORDERS))
    def test_antisymmetry_and_totality(self, a, b, order):
        forward = compare(a, b, order)
        backward = compare(b, a, order)
        assert forward == -backward
        assert (forward == 0) == (a == b)

    @given(a=helpers.monomials(), b=helpers.monomials(), c=helpers.monomials(),
           order=st.sampled_from(helpers.ALL_ORDERS))
    def test_transitivity(self, a, b, c, order):
        ordered = sorted(
            [a, b, c], key=cmp_to_key(lambda x, y: compare(x, y, order))
        )
        assert compare(ordered[0], ordered[1], order) <= 0
        assert compare(ordered[1], ordered[2], order) <= 0
        assert compare(ordered[0], ordered[2], order) <= 0

    @given(a=helpers.monomials(), b=helpers.monomials(), c=helpers.monomials(),
           order=st.sampled_from(helpers.ALL_ORDERS))
    def test_compatible_with_multiplication(self, a, b, c, order):
        assert compare(a, b, order) == compare(c * a, c * b, order)

    @given(a=helpers.monomials(), b=helpers.monomials(),
           order=st.sampled_from(helpers.HOMOGENEOUS_ORDERS))
    def test_homogeneous_orders_refine_degree(self, a, b, order):
        if a.degree() > b.degree():
            assert compare(a, b, order) == 1


class TestEnumeration:
    def test_degree_zero(self):
        assert monomials_of_degree(0) == [Monomial.one()]

    def test_degree_four_is_the_chain_set(self):
        expected = {parse_monomial(t) for t in CHAINS[OrderKind.HOM_LEX]}
        assert set(monomials_of_degree(4)) == expected
        assert len(expected) == 5

    def test_degree_ten_count(self):
        assert len(monomials_of_degree(10)) == 42

    @pytest.mark.parametrize("n", range(0, 31, 5))
    def test_counts_match_partition_enumerator(self, n):
        every_part = FamilySpec("parts", index_sets.ALL)
        assert len(monomials_of_degree(n)) == len(
            helpers.reference_enumerate_family(every_part, n)
        )

    def test_variable_restriction(self):
        only_even = [m for m in monomials_of_degree(6, variables=(2, 4, 6))]
        assert all(set(m.support()) <= {2, 4, 6} for m in only_even)
        assert len(only_even) == 3  # x6, x2*x4, x2^3

    def test_weight_overrides_shrink_degrees(self):
        w = WeightedAlphabet.with_weights({5: 1})
        ms = monomials_of_degree(2, weights=w)
        assert Monomial.from_pairs([(5, 2)]) in ms


class TestText:
    def test_format(self):
        assert format_monomial(Monomial.one()) == "1"
        assert format_monomial(Monomial.from_pairs([(1, 2), (3, 1)])) == "x1^2*x3"

    @given(m=helpers.monomials())
    def test_round_trip(self, m):
        assert parse_monomial(format_monomial(m)) == m

    def test_whitespace_accepted(self):
        assert parse_monomial(" x1 ^ 2 * x3 ") == Monomial.from_pairs([(1, 2), (3, 1)])

    @pytest.mark.parametrize("bad", ["", "x", "x0", "x1^0", "x1**2", "x1^", "y2", "x1 x2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_monomial(bad)

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as info:
            parse_monomial("x1^2*y3")
        assert info.value.position == 5
