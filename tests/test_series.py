"""Truncated series arithmetic and the Hilbert-series identities."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from infinigb import cli, index_sets, monomials, partitions
from infinigb.division import _standard_walk
from infinigb.errors import CertificationError, HomogeneityError, InputError
from infinigb.groebner import (
    Certificate,
    GroebnerBasis,
    IdealPresentation,
    TruncationWindow,
    bayer_stillman_basis,
    buchberger_truncated,
    reduce_basis,
)
from infinigb.monomials import (
    DEFAULT_WEIGHTS,
    Monomial,
    OrderKind,
    WeightedAlphabet,
    _counts_up_to,
    parse_monomial,
)
from infinigb.partitions import enumerate_family, FamilySpec, partition_counts_up_to
from infinigb.polynomials import RingContext, parse_polynomial
from infinigb.series import (
    TruncatedSeries,
    ambient_series,
    one_minus_power,
    quotient_series_from_standard_monomials,
    regular_sequence_series,
)

HARL = RingContext(OrderKind.HOM_ANTI_REV_LEX)


def poly(text, context=HARL):
    return parse_polynomial(text, context)


class TestArithmetic:
    def test_geometric_series_inverts_unit(self):
        n = 12
        geometric = TruncatedSeries.geometric(1, n)
        assert one_minus_power(1, n) * geometric == TruncatedSeries.one(n)

    def test_one_refuses_a_negative_truncation(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(-1)

    def test_multiplication_by_one(self):
        s = TruncatedSeries((1, 2, 3, 4))
        assert s * TruncatedSeries.one(3) == s

    def test_parts_one_and_two(self):
        product = TruncatedSeries.geometric(1, 4) * TruncatedSeries.geometric(2, 4)
        assert product.coefficients == (1, 1, 2, 2, 3)

    def test_mixed_truncation_shrinks(self):
        a = TruncatedSeries((1, 1, 1, 1, 1))
        b = TruncatedSeries((1, 2))
        assert (a + b).truncation == 1
        assert (a * b).coefficients == (1, 3)

    def test_unit_inverse_round_trip(self):
        a = TruncatedSeries((1, 5, -2, 7, 0, 3))
        b = TruncatedSeries((-1, 2, 2, -1, 4, 1))
        assert (a * b).mul_unit_inverse(b) == a

    def test_inverse_needs_unit(self):
        with pytest.raises(ValueError):
            TruncatedSeries((1, 1)).mul_unit_inverse(TruncatedSeries((2, 1)))

    def test_no_claims_beyond_truncation(self):
        s = TruncatedSeries((1, 1))
        with pytest.raises(IndexError):
            s.coefficient(2)

    def test_times_power(self):
        s = TruncatedSeries((1, 2, 3))
        assert s.times_power(1).coefficients == (0, 1, 2)

    @given(
        coefficients=st.lists(st.integers(-50, 50), min_size=1, max_size=30),
        gap=st.integers(1, 35),
    )
    def test_one_minus_power_factors_match_the_dense_product(
        self, coefficients, gap
    ):
        # The O(N) recurrences against the dense product, which stays the
        # oracle; a gap beyond the truncation leaves the series unchanged.
        s = TruncatedSeries(coefficients)
        N = s.truncation
        assert s.times_one_minus_power(gap) == s * one_minus_power(gap, N)
        assert s.over_one_minus_power(gap) == s * TruncatedSeries.geometric(gap, N)
        assert s.times_one_minus_power(gap).over_one_minus_power(gap) == s
        assert s.times_one_minus_power(0) == TruncatedSeries.zero(N)

    def test_one_minus_power_factors_refuse_bad_gaps(self):
        s = TruncatedSeries((1, 2, 3))
        with pytest.raises(ValueError):
            s.times_one_minus_power(-1)
        with pytest.raises(ValueError):
            s.over_one_minus_power(0)
        # A negative gap would index from the end of the coefficient list,
        # and a negative truncation would fail on a bare IndexError.
        for gap, truncation in ((-1, 5), (-6, 5), (1, -1), (0, -2)):
            with pytest.raises(InputError):
                one_minus_power(gap, truncation)
        assert one_minus_power(0, 0) == TruncatedSeries.zero(0)
        assert one_minus_power(6, 5) == TruncatedSeries.one(5)

    def test_integer_coefficients_enforced(self):
        from fractions import Fraction

        with pytest.raises(TypeError):
            TruncatedSeries((1, Fraction(3, 2)))


class TestAmbient:
    def test_partition_numbers(self):
        series = ambient_series(DEFAULT_WEIGHTS, None, 10)
        assert series.coefficients == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)

    def test_no_variables(self):
        empty = ambient_series(DEFAULT_WEIGHTS, (), 6)
        assert empty == TruncatedSeries.one(6)

    def test_odd_variables_count_odd_partitions(self):
        series = ambient_series(DEFAULT_WEIGHTS, index_sets.ODD, 6)
        odd_counts = [
            len(enumerate_family(FamilySpec("parts", index_sets.ODD), n))
            for n in range(7)
        ]
        assert list(series.coefficients) == odd_counts

    def test_matches_partition_enumerator_up_to_40(self):
        series = ambient_series(DEFAULT_WEIGHTS, None, 40)
        assert list(series.coefficients) == partition_counts_up_to(40)

    def test_weight_overrides(self):
        # Two weight-1 variables double-count partitions into ones.
        w = WeightedAlphabet.with_weights({2: 1})
        series = ambient_series(w, (1, 2), 4)
        assert series.coefficients == (1, 2, 3, 4, 5)


class TestQuotient:
    def test_empty_basis_is_ambient(self):
        empty = GroebnerBasis(
            HARL, (), TruncationWindow(8, 8),
            Certificate.BUCHBERGER_VERIFIED,
        )
        assert quotient_series_from_standard_monomials(empty, 8) == ambient_series(
            DEFAULT_WEIGHTS, None, 8
        )

    def test_substitution_family_counts_bounded_partitions(self):
        pres = IdealPresentation.power_substitution(
            index_sets.PM1_MOD3, 2, OrderKind.HOM_ANTI_REV_LEX
        )
        window = TruncationWindow(10, 10)
        basis = bayer_stillman_basis(
            pres.instantiate(window), window=window, context=pres.context
        )
        series = quotient_series_from_standard_monomials(
            basis, 10, variables=pres.variables
        )
        assert series.coefficient(10) == 4
        counts = [
            len(helpers.reference_enumerate_family(FamilySpec.preset("B"), n))
            for n in range(11)
        ]
        assert list(series.coefficients) == counts

    def test_killing_one_variable(self):
        basis = bayer_stillman_basis([poly("x1")])
        quotient = quotient_series_from_standard_monomials(basis, 8)
        rest = ambient_series(
            DEFAULT_WEIGHTS, index_sets.IndexSet("geq2", lambda i: i >= 2), 8
        )
        assert quotient == rest

    def test_one_walk_counts_every_degree(self):
        # Every variable up to 30 would make the per-degree reference slow,
        # so the unrestricted walks stop at 20.
        rng = random.Random(8102)
        for trial in range(12):
            basis = helpers.random_monomial_ideal(rng)
            if trial % 3 == 0:
                variables, bound = None, 20
            else:
                variables, bound = set(rng.sample(range(1, 31), 20)), 30
            counted = quotient_series_from_standard_monomials(
                basis, bound, variables=variables
            )
            assert list(counted.coefficients) == [
                len(helpers.reference_standard_monomials(basis, d, variables))
                for d in range(bound + 1)
            ]

    def test_unit_lead_gives_the_zero_series(self):
        basis = GroebnerBasis(
            HARL, (poly("1"),), TruncationWindow(2, 2),
            Certificate.BAYER_STILLMAN,
        )
        assert quotient_series_from_standard_monomials(
            basis, 5
        ) == TruncatedSeries.zero(5)

    def test_lead_on_an_inadmissible_variable_is_skipped(self):
        basis = bayer_stillman_basis([poly("x5^2 - x2*x8")])
        quotient = quotient_series_from_standard_monomials(
            basis, 12, variables=(1, 2, 3)
        )
        assert quotient == ambient_series(DEFAULT_WEIGHTS, (1, 2, 3), 12)

    @pytest.mark.parametrize(
        "text, context",
        [("x1^2 - x1", HARL), ("x2 - x1^2", RingContext(OrderKind.PURE_LEX))],
    )
    def test_non_homogeneous_input_is_refused(self, text, context):
        basis = bayer_stillman_basis([poly(text, context)])
        with pytest.raises(HomogeneityError):
            quotient_series_from_standard_monomials(basis, 4)


def assert_counts_match_the_walk(walk):
    assert _counts_up_to(*walk) == helpers.reference_counts_up_to(*walk)


class TestCountsUpTo:
    """`monomials._counts_up_to`, the transfer-matrix count, against the
    walk that counted before it (`helpers.reference_counts_up_to`).  For
    pure-power ideals the count factors like the product columns, so the
    walk is the oracle here, never the product code."""

    @settings(max_examples=150, deadline=None)
    @given(
        overrides=st.dictionaries(
            st.integers(1, 14), st.integers(1, 5), max_size=3
        ),
        variables=st.sets(st.integers(1, 14), max_size=7),
        leads=st.lists(
            helpers.monomials(max_index=14, max_exponent=4), max_size=6
        ),
        bound=st.integers(0, 60),
    )
    @example(overrides={}, variables={1, 2, 3}, leads=[Monomial.one()], bound=9)
    @example(overrides={}, variables={1, 2, 3}, leads=[], bound=0)
    @example(overrides={}, variables=set(), leads=[Monomial.variable(1)], bound=7)
    @example(overrides={2: 1}, variables={2}, leads=[], bound=-1)
    def test_matches_the_walk(self, overrides, variables, leads, bound):
        weights = WeightedAlphabet.with_weights(overrides)
        indices = [
            i for i in weights.indices_with_weight_at_most(bound) if i in variables
        ]
        assert_counts_match_the_walk((indices, weights, bound, leads))

    @pytest.mark.parametrize(
        "overrides, leads",
        [
            ({}, ["x1^2"]),
            ({}, ["x1^3", "x2^2"]),
            ({3: 1}, ["x1*x2", "x2^3", "x3^2"]),
            ({2: 3}, ["x1^2*x3", "x2*x3^2", "x1*x4"]),
        ],
    )
    def test_every_bound_of_small_ideals(self, overrides, leads):
        # A lead that cuts a run ending exactly at the bound is easy for
        # random bounds to miss.
        weights = WeightedAlphabet.with_weights(overrides)
        leads = [parse_monomial(text) for text in leads]
        for bound in range(17):
            indices = [
                i for i in weights.indices_with_weight_at_most(bound) if i <= 4
            ]
            assert_counts_match_the_walk((indices, weights, bound, leads))

    @settings(max_examples=60, deadline=None)
    @given(
        rng=st.randoms(use_true_random=False),
        variables=st.sets(st.integers(1, 14), max_size=8),
        bound=st.integers(0, 60),
    )
    def test_random_monomial_ideals(self, rng, variables, bound):
        basis = helpers.random_monomial_ideal(
            rng, max_var=rng.randint(1, 8), max_leads=8
        )
        assert_counts_match_the_walk(_standard_walk(basis, bound, variables))

    @pytest.mark.parametrize("name", ["A", "B", "C", "P", "Q"])
    def test_partition_families_at_60(self, name):
        assert_counts_match_the_walk(FamilySpec.preset(name)._standard_walk(60))

    @pytest.mark.parametrize("preset", ["schur-p2", "schur-p3"])
    def test_hilbert_presets_at_60(self, preset):
        pres = cli._family_presentation("harevlex", *cli._HILBERT_PRESETS[preset])
        window = TruncationWindow(60, 60)
        basis = bayer_stillman_basis(
            pres.instantiate(window), window=window, context=pres.context
        )
        assert_counts_match_the_walk(_standard_walk(basis, 60, pres.variables))

    def test_family_f_leading_ideal_at_30_60(self):
        # Leads such as x_i*x_j*x_k with far-apart indices keep several
        # later exponents in each state.
        window = TruncationWindow(30, 60)
        basis = reduce_basis(buchberger_truncated(
            helpers.family_f(HARL).instantiate(window), window, context=HARL
        ))
        for variables in (None, range(1, 31)):
            assert_counts_match_the_walk(_standard_walk(basis, 60, variables))

    def test_no_vector_is_walked(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the count walked")

        monkeypatch.setattr(monomials, "_walk", refuse)
        assert partitions.schur_identity_check(30)["equal"]
        assert partitions.rr_identity_check(30)["equal"]
        assert partition_counts_up_to(5) == [1, 1, 2, 3, 5, 7]


class TestRegularSequenceRoute:
    def test_empty_presentation_is_ambient(self):
        pres = IdealPresentation(HARL)
        assert regular_sequence_series(pres, 8) == ambient_series(
            DEFAULT_WEIGHTS, None, 8
        )

    def test_single_generator_matches_counting_route(self):
        pres = IdealPresentation(HARL, generators=(poly("x1^2 - x2"),))
        window = TruncationWindow(8, 8)
        basis = bayer_stillman_basis(
            pres.instantiate(window), window=window, context=HARL
        )
        counted = quotient_series_from_standard_monomials(basis, 8)
        assert regular_sequence_series(pres, 8) == counted

    @pytest.mark.parametrize(
        "parts,p", [(index_sets.PM1_MOD3, 2), (index_sets.ODD, 3)]
    )
    def test_two_routes_agree_on_substitution_presets(self, parts, p):
        pres = IdealPresentation.power_substitution(
            parts, p, OrderKind.HOM_ANTI_REV_LEX
        )
        N = 20
        window = TruncationWindow(N, N)
        basis = bayer_stillman_basis(
            pres.instantiate(window), window=window, context=pres.context
        )
        counted = quotient_series_from_standard_monomials(
            basis, N, variables=pres.variables
        )
        predicted = regular_sequence_series(pres, N)
        assert counted == predicted
        x_counts = [
            len(enumerate_family(FamilySpec("X", parts, p), n))
            for n in range(N + 1)
        ]
        assert list(predicted.coefficients) == x_counts

    def test_uncertified_generators_rejected(self):
        pres = IdealPresentation(
            HARL, generators=(poly("x1"), poly("x1^2"))
        )
        with pytest.raises(CertificationError):
            regular_sequence_series(pres, 8)

    def test_quotient_coefficients_non_negative(self):
        pres = IdealPresentation.power_substitution(
            index_sets.PM1_MOD3, 2, OrderKind.HOM_ANTI_REV_LEX
        )
        series = regular_sequence_series(pres, 24)
        assert all(c >= 0 for c in series.coefficients)
