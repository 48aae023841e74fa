"""Polynomial arithmetic, leading data, S-polynomials and the text form."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from infinigb.errors import (
    InputError,
    ParseError,
    RingContextMismatch,
    ZeroPolynomialError,
)
from infinigb.monomials import Monomial, OrderKind
from infinigb.polynomials import (
    GF,
    PRIME_BOUND,
    GFElement,
    Polynomial,
    RingContext,
    format_polynomial,
    parse_polynomial,
    s_polynomial,
)

HARL = RingContext(OrderKind.HOM_ANTI_REV_LEX)
HLEX = RingContext(OrderKind.HOM_LEX)
PLEX = RingContext(OrderKind.PURE_LEX)


def poly(text, context=HARL):
    return parse_polynomial(text, context)


class TestArithmetic:
    def test_add_zero(self):
        f = poly("x1^2 - x2")
        assert f + Polynomial.zero(HARL) == f

    def test_cancellation(self):
        assert poly("x1^2 - x2") + poly("x2") == poly("x1^2")

    def test_product_difference_of_squares(self):
        assert poly("x1 + x2") * poly("x1 - x2") == poly("x1^2 - x2^2")

    def test_context_mismatch_raises(self):
        with pytest.raises(RingContextMismatch):
            poly("x1", HARL) + poly("x1", HLEX)

    def test_scale(self):
        assert poly("x1 + 1").scale(Fraction(3, 2)) == poly("3/2*x1 + 3/2")
        assert poly("x1") * 0 == Polynomial.zero(HARL)

    def test_zero_results(self):
        zero = Polynomial.zero(HARL)
        x1 = Monomial.variable(1)
        assert Polynomial.from_monomial(HARL, x1, 0) == zero
        assert poly("x1 + 1").times_term(0, x1) == zero
        assert zero.monic() == zero
        assert not zero and poly("x1")
        with pytest.raises(ZeroPolynomialError):
            zero.weighted_degree()

    @pytest.mark.parametrize(
        "apply", [lambda f: f + 1, lambda f: f - 1], ids=["add", "sub"]
    )
    def test_numbers_are_not_polynomials(self, apply):
        with pytest.raises(TypeError):
            apply(poly("x1"))
        assert (poly("1") == 1) is False

    @settings(max_examples=60)
    @given(ctx=helpers.contexts(), data=st.data())
    def test_ring_axioms(self, ctx, data):
        f = data.draw(helpers.polynomials(ctx))
        g = data.draw(helpers.polynomials(ctx))
        h = data.draw(helpers.polynomials(ctx))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == Polynomial.zero(ctx)

    @settings(max_examples=60)
    @given(ctx=helpers.contexts(), data=st.data())
    def test_terms_stay_canonical(self, ctx, data):
        f = data.draw(helpers.polynomials(ctx))
        g = data.draw(helpers.polynomials(ctx))
        for result in (f + g, f * g, f - g):
            monomials = result.monomials()
            from infinigb.monomials import compare

            for a, b in zip(monomials, monomials[1:]):
                assert compare(a, b, ctx.order, ctx.weights) == 1
            assert all(c for c, _ in result.terms)


class TestLeading:
    def test_substitution_binomial_under_anti_rev_lex(self):
        f = poly("x1^2 - x2", HARL)
        assert f.lm() == Monomial.variable(1, 2)

    def test_substitution_binomial_under_lex(self):
        f = poly("x1^2 - x2", HLEX)
        assert f.lm() == Monomial.variable(2)

    def test_single_term(self):
        f = poly("5*x3")
        assert f.lc() == 5 and f.lm() == Monomial.variable(3)

    def test_zero_raises(self):
        for lead in (Polynomial.zero(HARL).lm, Polynomial.zero(HARL).lc):
            with pytest.raises(ZeroPolynomialError):
                lead()

    @settings(max_examples=60)
    @given(ctx=helpers.contexts(), data=st.data())
    def test_lm_multiplicative(self, ctx, data):
        f = data.draw(helpers.nonzero_polynomials(ctx))
        g = data.draw(helpers.nonzero_polynomials(ctx))
        assert (f * g).lm() == f.lm() * g.lm()


class TestSPolynomial:
    def test_self_pair_vanishes(self):
        f = poly("x1^2 - x2")
        assert s_polynomial(f, f).is_zero

    def test_binomial_pair(self):
        f, g = poly("x1^2 - x2"), poly("x2^2 - x4")
        assert s_polynomial(f, g) == poly("-x2^3 + x1^2*x4")

    def test_coprime_leading_pair_identity(self):
        # With coprime leading monomials, S(f, g) = lt(g) f - lt(f) g equals
        # -(g - lt(g)) f + (f - lt(f)) g, so it reduces to zero by {f, g}.
        f, g = poly("x1^2 - x2"), poly("x3^2 - x6")
        lt_f = Polynomial.from_monomial(HARL, f.lm(), f.lc())
        lt_g = Polynomial.from_monomial(HARL, g.lm(), g.lc())
        expected = -(g - lt_g) * f + (f - lt_f) * g
        assert s_polynomial(f, g) == expected

    @settings(max_examples=60)
    @given(ctx=helpers.contexts(), data=st.data())
    def test_lead_cancellation(self, ctx, data):
        from infinigb.monomials import compare

        f = data.draw(helpers.nonzero_polynomials(ctx))
        g = data.draw(helpers.nonzero_polynomials(ctx))
        s = s_polynomial(f, g)
        lcm = f.lm().lcm(g.lm())
        if not s.is_zero:
            assert compare(s.lm(), lcm, ctx.order, ctx.weights) == -1

    def test_zero_inputs_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            s_polynomial(Polynomial.zero(HARL), poly("x1"))


class TestVariableIndex:
    def test_examples(self):
        assert poly("x1^2*x2 - x4").max_variable_index() == 4
        assert poly("7").max_variable_index() == 0
        assert poly("x3").max_variable_index() == 3

    @settings(max_examples=80)
    @given(data=st.data())
    def test_pure_lex_leading_monomial_bounds_variables(self, data):
        f = data.draw(helpers.nonzero_polynomials(PLEX))
        assert f.max_variable_index() == f.lm().max_index()

    @settings(max_examples=80)
    @given(data=st.data())
    def test_hom_lex_bounds_variables_of_homogeneous(self, data):
        f = data.draw(helpers.homogeneous_polynomials(HLEX))
        assert f.max_variable_index() == f.lm().max_index()

    @settings(max_examples=80)
    @given(data=st.data())
    def test_rev_lex_smallest_variable_of_homogeneous(self, data):
        ctx = RingContext(OrderKind.HOM_REV_LEX)
        f = data.draw(helpers.homogeneous_polynomials(ctx))
        # If lm(f) involves some x_i with i <= n then every term does.
        n = f.lm().exps[0][0]
        for m in f.monomials():
            assert not m.is_one and m.exps[0][0] <= n


class TestPrimeField:
    def test_arithmetic(self):
        gf = GF(5)
        assert gf(3) + gf(4) == gf(2)
        assert gf(3) * gf(4) == gf(2)
        assert gf(1) / gf(3) == gf(2)
        assert gf(Fraction(1, 2)) == gf(3)

    def test_not_prime_rejected(self):
        with pytest.raises(ValueError):
            GF(6)

    def test_primality_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        candidates = [
            *range(-3, 3000),
            # Carmichael numbers, and strong pseudoprimes to the bases
            # 2, 3, 5, 7 and to every prime base up to 23.
            561, 41041, 825265, 3215031751, 3825123056546413051,
            10**14 + 31, 2**61 - 1, 2**61 + 1, 2**31 - 1,
            sympy.prevprime(PRIME_BOUND), PRIME_BOUND - 1,
        ]
        for p in candidates:
            if sympy.isprime(p):
                assert GF(p).p == p
            else:
                with pytest.raises(InputError, match=f"{p} is not prime"):
                    GF(p)

    def test_the_bound_of_the_primality_test(self):
        # PRIME_BOUND is itself a strong pseudoprime to the 13 bases.
        for p in (PRIME_BOUND, PRIME_BOUND + 2, 10**30 + 57):
            with pytest.raises(InputError, match=f"not below {PRIME_BOUND}"):
                GF(p)

    @pytest.mark.parametrize("p", [7.0, "7", Fraction(7)], ids=repr)
    def test_a_characteristic_that_is_not_an_int_is_refused(self, p):
        with pytest.raises(InputError, match="is not an int"):
            GF(p)

    def test_a_denominator_that_vanishes_is_refused(self):
        with pytest.raises(InputError, match=r"denominator of 1/7 vanishes in GF\(7\)"):
            GF(7)(Fraction(1, 7))

    def test_division_by_zero_is_refused(self):
        with pytest.raises(InputError, match=r"cannot divide 3 by zero in GF\(7\)"):
            GFElement(3, 7) / 0

    def test_mixed_prime_fields_are_refused(self):
        with pytest.raises(RingContextMismatch):
            GFElement(1, 5) + GFElement(1, 7)
        with pytest.raises(RingContextMismatch):
            GF(5)(GFElement(1, 7))
        with pytest.raises(RingContextMismatch):
            RingContext(OrderKind.HOM_LEX).coeff(GFElement(1, 5))

    @pytest.mark.parametrize(
        "apply",
        [lambda a: a + "a", lambda a: a * 1.5, lambda a: a / "a"],
        ids=["add", "mul", "truediv"],
    )
    def test_other_operands_are_refused(self, apply):
        with pytest.raises(TypeError):
            apply(GFElement(3, 5))

    def test_equality_and_text(self):
        # An int equals only the canonical residue, so that equal objects
        # hash alike and a set or dict holds each field element once.
        assert GFElement(3, 5) != 8
        assert GFElement(3, 5) == 3
        assert len({GFElement(3, 5), GFElement(8, 5), 3}) == 1
        assert {3: "three"}[GFElement(8, 5)] == "three"
        assert (GFElement(3, 5) == "3") is False
        assert (GF(5) == 5) is False
        assert repr(GFElement(8, 5)) == "GFElement(3, 5)"

    def test_polynomials_over_gf(self):
        ctx = RingContext(OrderKind.HOM_ANTI_REV_LEX, field=GF(2))
        f = parse_polynomial("x1^2 - x2", ctx)
        assert f == parse_polynomial("x1^2 + x2", ctx)
        assert (f + f).is_zero

    def test_monic_over_gf(self):
        ctx = RingContext(OrderKind.HOM_LEX, field=GF(7))
        f = parse_polynomial("3*x2 + x1", ctx)
        assert f.monic().lc() == GFElement(1, 7)


class TestText:
    def test_fractional_coefficient_shape(self):
        f = Polynomial.from_terms(
            HARL,
            [
                (Fraction(3, 2), Monomial.from_pairs([(1, 2), (3, 1)])),
                (-1, Monomial.variable(2)),
            ],
        )
        assert format_polynomial(f) == "3/2*x1^2*x3 - x2"

    def test_parses_terms_in_any_order(self):
        f = poly("3/2*x1^2*x3 - x7")
        assert format_polynomial(f) == "-x7 + 3/2*x1^2*x3"
        assert poly(format_polynomial(f)) == f

    def test_zero(self):
        assert format_polynomial(Polynomial.zero(HARL)) == "0"
        assert poly("0").is_zero

    @settings(max_examples=80)
    @given(ctx=helpers.contexts(), data=st.data())
    def test_round_trip(self, ctx, data):
        f = data.draw(helpers.polynomials(ctx))
        assert parse_polynomial(format_polynomial(f), ctx) == f

    @pytest.mark.parametrize(
        "bad",
        ["", "+", "x1 +", "x1 ++ x2", "3/0*x1", "3/x1", "x^2", "2**x1", "x1^-2"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            poly(bad)

    def test_a_denominator_must_be_an_integer(self):
        with pytest.raises(ParseError, match="^expected a denominator") as info:
            poly("3/x1")
        assert info.value.position == 2

    def test_terms_need_a_sign_between_them(self):
        with pytest.raises(ParseError, match="^expected '\\+' or '-'") as info:
            poly("x1 x2")
        assert info.value.position == 3

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            poly("x1 + x$2")
        assert info.value.position == 5

    def test_a_long_text_is_quoted_in_part(self):
        text = "x1*" * 40 + "$"
        with pytest.raises(ParseError) as info:
            poly(text)
        assert str(info.value) == (
            f"unexpected character at position 120 in {text[:60]!r}"
            "... (121 characters)"
        )
        assert info.value.text == text
