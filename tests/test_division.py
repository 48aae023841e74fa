"""The division algorithm: reconstruction, remainders and membership."""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from infinigb.division import (
    DivisorTable,
    divide,
    is_member,
    remainder,
    standard_monomials,
)
from infinigb.errors import (
    CertificationError,
    HomogeneityError,
    RingContextMismatch,
    ZeroPolynomialError,
)
from infinigb.groebner import (
    Certificate,
    GroebnerBasis,
    TruncationWindow,
    bayer_stillman_basis,
    buchberger_truncated,
    is_reduced_set,
    reduce_basis,
    verify_buchberger,
)
from infinigb.monomials import (
    DEFAULT_WEIGHTS,
    Monomial,
    OrderKind,
    WeightedAlphabet,
    compare,
    parse_monomial,
)
from infinigb.polynomials import (
    GF,
    Polynomial,
    RingContext,
    parse_polynomial,
    s_polynomial,
)

HARL = RingContext(OrderKind.HOM_ANTI_REV_LEX)
PLEX = RingContext(OrderKind.PURE_LEX)


def poly(text, context=HARL):
    return parse_polynomial(text, context)


def reconstruct(result, divisors):
    total = result.remainder
    for position, quotient in result.quotients:
        total = total + quotient * divisors[position]
    return total


class TestDivide:
    def test_empty_divisor_list(self):
        f = poly("x1^2 - x2")
        result = divide(f, [])
        assert result.remainder == f
        assert result.quotients == ()

    def test_two_step_reduction(self):
        result = divide(poly("x1^4"), [poly("x1^2 - x2")])
        assert result.remainder == poly("x2^2")
        assert result.quotients == ((0, poly("x1^2 + x2")),)
        assert reconstruct(result, [poly("x1^2 - x2")]) == poly("x1^4")

    def test_generator_divides_itself(self):
        f = poly("x1^2 - x2")
        assert divide(f, [f]).remainder.is_zero

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            divide(poly("x1"), [Polynomial.zero(HARL)])

    def test_chain_remainder(self):
        divisors = [poly("x1^2 - x2"), poly("x2^2 - x4")]
        assert remainder(poly("x1^4"), divisors) == poly("x4")

    def test_remainder_of_zero(self):
        assert remainder(Polynomial.zero(HARL), [poly("x1^2 - x2")]).is_zero

    def test_untouched_when_no_lead_divides(self):
        assert remainder(poly("x3"), [poly("x1^2 - x2")]) == poly("x3")

    def test_homogeneous_stays_homogeneous(self):
        divisors = [poly("x1^2 - x2"), poly("x2^2 - x4")]
        f = poly("x1^4 + x1^2*x2 + x2*x1*x1")
        r = remainder(f, divisors)
        assert f.is_homogeneous() and r.is_homogeneous()

    def test_homogeneous_remainders_on_random_inputs(self):
        from infinigb.monomials import monomials_of_degree

        rng = random.Random(31415)
        for _ in range(60):
            ctx = RingContext(rng.choice(helpers.HOMOGENEOUS_ORDERS))

            def homogeneous(degree):
                choices = monomials_of_degree(degree)
                terms = [
                    (rng.choice([-2, -1, 1, 2]), rng.choice(choices))
                    for _ in range(rng.randint(1, 3))
                ]
                return Polynomial.from_terms(ctx, terms)

            f = homogeneous(rng.randint(1, 8))
            divisors = [
                g
                for g in (
                    homogeneous(rng.randint(1, 6)) for _ in range(rng.randint(1, 3))
                )
                if not g.is_zero
            ]
            if f.is_zero or not divisors:
                continue
            r = remainder(f, divisors)
            assert r.is_homogeneous()
            if not r.is_zero:
                assert r.weighted_degree() == f.weighted_degree()

    def test_steps_counted(self):
        assert divide(poly("x1^4"), [poly("x1^2 - x2")]).step_count == 3


def random_instances(seed, count, orders=helpers.ALL_ORDERS):
    rng = random.Random(seed)
    for k in range(count):
        ctx = RingContext(orders[k % len(orders)])
        f = helpers.random_polynomial(rng, ctx, max_var=5, max_degree=8,
                                      max_terms=5, allow_zero=True)
        divisors = [
            helpers.random_polynomial(rng, ctx, max_var=5, max_degree=8,
                                      max_terms=3)
            for _ in range(rng.randint(1, 4))
        ]
        yield f, divisors


class TestContracts:
    def test_reconstruction_and_bounds(self):
        from infinigb.monomials import compare

        for f, divisors in random_instances(seed=20260810, count=120):
            ctx = f.context
            result = divide(f, divisors)
            assert reconstruct(result, divisors) == f
            leads = [g.lm() for g in divisors]
            for _, m in result.remainder.terms:
                assert not any(lm.divides(m) for lm in leads)
            if not f.is_zero:
                for position, quotient in result.quotients:
                    product = quotient * divisors[position]
                    if not product.is_zero:
                        assert compare(product.lm(), f.lm(), ctx.order,
                                       ctx.weights) <= 0


# Sends x1..x5 to indices that collide modulo 64 (x1, x65, x129 and x3,
# x67), so a divisor search that folded indices into a 64-bit word would
# take divisors that do not divide for ones that do.
FOLDING_INDICES = {1: 1, 2: 65, 3: 129, 4: 3, 5: 67}


def relabel(f, table):
    return Polynomial.from_terms(
        f.context,
        [
            (c, Monomial.from_pairs((table[i], e) for i, e in m.exps))
            for c, m in f.terms
        ],
    )


def with_repeated_leading_monomial(rng, ctx, divisors):
    """Insert beside the divisors one that shares a leading monomial with
    some divisor but has another coefficient and tail, so that which of
    the two is used first changes the quotients and the remainder."""
    lm = rng.choice(divisors).lm()
    tail = helpers.random_polynomial(rng, ctx, max_var=5, max_degree=8,
                                     max_terms=3)
    twin = Polynomial.from_terms(
        ctx,
        [(rng.choice([1, 3, -3]), lm)]
        + [t for t in tail.terms
           if compare(t[1], lm, ctx.order, ctx.weights) < 0],
    )
    divisors.insert(rng.randint(0, len(divisors)), twin)
    return divisors


class TestAgainstReference:
    """The kernel equals the textbook loop kept in tests/helpers.py on
    quotients, remainder and step count.  GF(2) and GF(7) make
    coefficients cancel in the middle of a division often."""

    @pytest.mark.parametrize("field", [None, GF(2), GF(7)], ids=str)
    def test_random_instances(self, field):
        rng = random.Random(60013)
        for k in range(300):
            ctx = RingContext(helpers.ALL_ORDERS[k % 5], field=field)
            f = helpers.random_polynomial(
                rng, ctx, max_var=5, max_degree=8, max_terms=5, allow_zero=True
            )
            divisors = [
                helpers.random_polynomial(
                    rng, ctx, max_var=5, max_degree=8, max_terms=3
                )
                for _ in range(rng.randint(1, 4))
            ]
            if k % 3 == 0:
                divisors = with_repeated_leading_monomial(rng, ctx, divisors)
            if k % 2 == 1:
                f = relabel(f, FOLDING_INDICES)
                divisors = [relabel(g, FOLDING_INDICES) for g in divisors]
            assert divide(f, divisors) == helpers.reference_divide(f, divisors)

    def test_first_divisor_wins_on_a_shared_leading_monomial(self):
        g1, g2 = poly("x1^2 - x2"), poly("x1^2 + x2")
        for divisors, rest in (([g1, g2], "x2"), ([g2, g1], "-x2")):
            result = divide(poly("x1^2"), divisors)
            assert result == helpers.reference_divide(poly("x1^2"), divisors)
            assert result.quotients == ((0, poly("1")),)
            assert result.remainder == poly(rest)

    def test_folded_signature_collision_is_rejected(self):
        # x65 and x1 collide modulo 64, yet x65 does not divide x1^3.
        divisors = [poly("x65 - x64"), poly("x1^2 - x2")]
        result = divide(poly("x1^3"), divisors)
        assert result == helpers.reference_divide(poly("x1^3"), divisors)
        assert result.remainder == poly("x1*x2")


# Divisors live on x1..x4; dividends may also use x5 and x6, which no
# divisor has.
WIDE_INDICES = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6}
HIGH_INDICES = {1: 70, 2: 3, 3: 131, 4: 65, 5: 200, 6: 1}
OVERRIDES = WeightedAlphabet.with_weights({3: 1, 7: 2, 65: 4, 131: 1})


class TestDivisorTable:
    """A table built once and reused, extended with `append` between
    divisions, gives what `reference_divide` gives for the same divisor
    list, for `divide` and for `remainder` alike."""

    @pytest.mark.parametrize(
        "weights", [DEFAULT_WEIGHTS, OVERRIDES], ids=["d_i=i", "overrides"]
    )
    @pytest.mark.parametrize(
        "indices", [WIDE_INDICES, HIGH_INDICES], ids=["low", "high"]
    )
    @pytest.mark.parametrize("field", [None, GF(2), GF(7)], ids=str)
    def test_reused_table_matches_reference(self, field, indices, weights):
        rng = random.Random(7001)
        for k in range(40):
            ctx = RingContext(helpers.ALL_ORDERS[k % 5], weights, field)

            def draw(max_var, max_terms, allow_zero=False):
                g = helpers.random_polynomial(
                    rng, ctx, max_var=max_var, max_degree=9,
                    max_terms=max_terms, allow_zero=allow_zero,
                )
                return relabel(g, indices)

            divisors = [draw(4, 3) for _ in range(rng.randint(1, 3))]
            table = DivisorTable(ctx, divisors)
            for step in range(6):
                if step == 3:
                    g = draw(4, 3)
                    table.append(g)
                    divisors.append(g)
                f = draw(6, 5, allow_zero=True)
                expected = helpers.reference_divide(f, divisors)
                assert divide(f, table) == expected
                assert remainder(f, table) == expected.remainder

    def test_plex_products_outgrow_the_field_width(self):
        # x2^8 -> x1^40 under plex: x2^8 widens the fields to hold 15, and
        # the product x1^20 overflows them in the middle of the division.
        ctx = RingContext(OrderKind.PURE_LEX)
        divisors = [parse_polynomial("x2 - x1^5", ctx)]
        table = DivisorTable(ctx, divisors)
        for f in ("x2^8", "x2^8 + x1^3*x2^2", "x2^3*x3 - x2"):
            f = parse_polynomial(f, ctx)
            expected = helpers.reference_divide(f, divisors)
            assert divide(f, table) == expected
            assert remainder(f, table) == expected.remainder
        assert remainder(parse_polynomial("x2^8", ctx), table) == parse_polynomial(
            "x1^40", ctx
        )

    def test_append_widens_the_layout(self):
        # After x1^3 the fields hold exponents up to 3; packed into them
        # unwidened, x2^9 would spill into the x3 field and read as x2*x3.
        ctx = RingContext(OrderKind.PURE_LEX)
        divisors = [parse_polynomial("x1*x3 - x1", ctx)]
        table = DivisorTable(ctx, divisors)
        remainder(parse_polynomial("x1^3", ctx), table)
        divisors.append(parse_polynomial("x2^9 - x1", ctx))
        table.append(divisors[-1])
        for f in ("x2*x3", "x2^9*x3", "x1*x2^10"):
            f = parse_polynomial(f, ctx)
            assert divide(f, table) == helpers.reference_divide(f, divisors)

    def test_dividend_beyond_the_layout(self):
        divisors = [poly("x1^2 - x2")]
        table = DivisorTable(HARL, divisors)
        for f in ("x1^9*x80", "x1^3", "x1^300 - x7"):
            f = poly(f)
            assert divide(f, table) == helpers.reference_divide(f, divisors)

    @pytest.mark.parametrize("order", helpers.ALL_ORDERS)
    def test_decoding_a_guard_bit_raises(self, order):
        # Such a key means the layout was sized too small; decoding it
        # must fail at once, not loop appending exponent-0 pairs.
        ctx = RingContext(order)
        table = DivisorTable(ctx, [poly("x1^2 - x2", ctx)])
        key = table._guard if table._sign < 0 else -table._guard
        with pytest.raises(RuntimeError, match=f"packed key {key} "):
            table._monomial(key)

    def test_table_checks_its_divisors_and_dividends(self):
        with pytest.raises(ZeroPolynomialError):
            DivisorTable(HARL, [poly("x1"), Polynomial.zero(HARL)])
        table = DivisorTable(HARL, [poly("x1^2 - x2")])
        with pytest.raises(RingContextMismatch):
            table.append(parse_polynomial("x1", RingContext(OrderKind.HOM_LEX)))
        with pytest.raises(RingContextMismatch):
            remainder(parse_polynomial("x1", RingContext(OrderKind.HOM_LEX)), table)
        assert len(table.divisors) == 1


@contextmanager
def checked_search():
    """Check every divisor search made inside the block against the linear
    scan, and record (position, field width) for each."""
    real = DivisorTable._first_divisor
    searches = []

    def checked(self, x):
        position = real(self, x)
        assert position == helpers.reference_first_divisor(self, x)
        searches.append((position, self._width))
        return position

    DivisorTable._first_divisor = checked
    try:
        yield searches
    finally:
        DivisorTable._first_divisor = real


@st.composite
def index_cases(draw):
    """A context (any order, field and weight overrides), nonzero divisors
    over a few indices up to x200, possibly with repeated leading monomials
    and a constant divisor at any position, dividends over the same indices
    and one divisor to append after the first division."""
    ctx = RingContext(
        draw(st.sampled_from(helpers.ALL_ORDERS)),
        WeightedAlphabet.with_weights(
            draw(st.dictionaries(st.integers(1, 200), st.integers(1, 4), max_size=2))
        ),
        draw(st.sampled_from([None, GF(2), GF(7)])),
    )
    pool = draw(st.lists(st.integers(1, 200), min_size=1, max_size=5, unique=True))
    monomials = st.lists(
        st.tuples(st.sampled_from(pool), st.integers(1, 4)), max_size=3
    ).map(Monomial.from_pairs)
    polynomials = st.lists(
        st.tuples(st.integers(-3, 3).filter(bool), monomials),
        min_size=1, max_size=4,
    ).map(lambda pairs: Polynomial.from_terms(ctx, pairs))
    nonzero = polynomials.filter(lambda f: not f.is_zero)
    divisors = draw(st.lists(nonzero, min_size=1, max_size=6))
    # 3 is a unit over Q, GF(2) and GF(7).
    for _ in range(draw(st.integers(0, 2))):
        twin = Polynomial.from_terms(ctx, [(3, draw(st.sampled_from(divisors)).lm())])
        divisors.insert(draw(st.integers(0, len(divisors))), twin)
    if draw(st.booleans()):
        constant = Polynomial.from_terms(ctx, [(3, Monomial.one())])
        divisors.insert(draw(st.integers(0, len(divisors))), constant)
    dividends = draw(st.lists(polynomials, min_size=2, max_size=3))
    return ctx, divisors, dividends, draw(nonzero)


class TestDivisorIndex:
    """The bucketed divisor search returns the smallest dividing position,
    as the linear scan kept in tests/helpers.py does, so quotients and
    remainders modulo any divisor list stay those of `reference_divide`."""

    @settings(max_examples=150)
    @given(case=index_cases())
    def test_search_matches_the_linear_scan(self, case):
        ctx, divisors, dividends, extra = case
        table = DivisorTable(ctx, divisors)
        with checked_search():
            for step, f in enumerate(dividends):
                if step == 1:
                    divisors = [*divisors, extra]
                    table.append(extra)
                assert divide(f, table) == helpers.reference_divide(f, divisors)
                for g in (f, *divisors):
                    for _, m in g.terms:
                        x = table._packed(m)
                        assert table._first_divisor(x) == (
                            helpers.reference_first_divisor(table, x)
                        )

    @pytest.mark.parametrize("position", range(4))
    def test_constant_lead_at_any_position(self, position):
        divisors = [poly("x1^2 - x2"), poly("x3 - x1"), poly("x2*x5 + x4")]
        divisors.insert(position, poly("5"))
        table = DivisorTable(HARL, divisors)
        f = poly("x1^3*x2 + x2*x5*x7 - x3^2 + 2")
        with checked_search() as searches:
            assert divide(f, table) == helpers.reference_divide(f, divisors)
        assert position in {p for p, _ in searches}
        assert not is_reduced_set([g.monic() for g in divisors])

    def test_family_f_searches_test_few_leads(self, monkeypatch):
        # A lead test is `with_guards - lead`: packed exponents become an
        # int whose reflected subtraction counts while a search runs.  On
        # this window the linear scan made about 20 tests per search.
        searching, tests, searches = [False], [0], [0]

        class Lead(int):
            def __rsub__(self, other):
                tests[0] += searching[0]
                return int.__sub__(other, self)

        packed, search = DivisorTable._packed, DivisorTable._first_divisor

        def counted(self, x):
            searching[0] = True
            searches[0] += 1
            try:
                return search(self, x)
            finally:
                searching[0] = False

        monkeypatch.setattr(
            DivisorTable, "_packed", lambda self, m: Lead(packed(self, m))
        )
        monkeypatch.setattr(DivisorTable, "_first_divisor", counted)
        window = TruncationWindow(30, 60)
        gens = helpers.family_f(HARL).instantiate(window)
        basis = reduce_basis(buchberger_truncated(gens, window, context=HARL))
        assert verify_buchberger(basis)
        assert searches[0] > 5000
        assert tests[0] <= 8 * searches[0]

    def test_plex_division_that_widens_midway(self):
        # x2^8 -> x1^40: the fields sized for x2^8 overflow at x1^20, the
        # layout widens and the division starts again on the new buckets.
        divisors = [poly("x2 - x1^5", PLEX), poly("x3*x2 - x1", PLEX)]
        table = DivisorTable(PLEX, divisors)
        f = poly("x2^8 + x3^2*x2^3", PLEX)
        with checked_search() as searches:
            assert divide(f, table) == helpers.reference_divide(f, divisors)
            widths = [width for _, width in searches]
            assert len(set(widths)) == 2 and widths == sorted(widths)
            divisors.append(poly("x1^7 - x3", PLEX))
            table.append(divisors[-1])
            assert divide(f, table) == helpers.reference_divide(f, divisors)


class TestFirstDivisor:
    """`DivisorTable.first_divisor` asked of a `Monomial` returns what the
    linear scan with `Monomial.divides` over the leading monomials returns,
    also for monomials that make the layout widen first."""

    @settings(max_examples=150)
    @given(case=index_cases(), data=st.data())
    def test_matches_the_monomial_scan(self, case, data):
        ctx, divisors, _, extra = case
        divisors = [*divisors, extra]
        table = DivisorTable(ctx, divisors)
        leads = [g.lm() for g in divisors]
        used = {i for m in leads for i in m.support()}
        # Exponents up to 40 and indices up to x200 outgrow the fields and
        # the variables the divisors were packed for.
        factors = st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(sorted(used | set(FOLDING_INDICES.values()))),
                    st.integers(1, 200),
                ),
                st.integers(1, 40),
            ),
            max_size=3,
        ).map(Monomial.from_pairs)
        queries = [
            *leads,
            *(lm * data.draw(factors) for lm in leads),
            *data.draw(st.lists(factors, max_size=4)),
        ]
        for m in queries:
            expected = next(
                (position for position, lm in enumerate(leads) if lm.divides(m)),
                None,
            )
            assert table.first_divisor(m) == expected

    def test_a_query_beyond_the_layout_widens_it(self):
        divisors = [poly("x2^3 - x1"), poly("x1^3 - x2")]
        table = DivisorTable(HARL, divisors)
        assert [str(g.lm()) for g in divisors] == ["x2^3", "x1^3"]
        width = table._width
        assert table._variables == 2
        assert table.first_divisor(parse_monomial("x1^2*x2^40*x9")) == 0
        assert table._variables == 9 and table._width > width
        assert table.first_divisor(parse_monomial("x1^40")) == 1
        assert table.first_divisor(parse_monomial("x2*x9^40")) is None
        # The widened table still divides as the reference does.
        f = poly("x2^3*x9 + x1^5")
        assert divide(f, table) == helpers.reference_divide(f, divisors)


def spair_expected(divisors, i, j):
    """The remainder of the S-polynomial built by `s_polynomial`, by the
    kernel on a fresh table and by `reference_divide`, which must agree."""
    s = s_polynomial(divisors[i], divisors[j])
    expected = helpers.reference_divide(s, divisors).remainder
    assert remainder(s, divisors) == expected
    return expected


def spair_remainder(table, i, j):
    """`DivisorTable.spair_remainder` given the lcm degree from the table,
    as its callers in `groebner` give it."""
    return table.spair_remainder(i, j, table.spair_degree(i, j)[0])


class TestSpairRemainder:
    """`DivisorTable.spair_remainder` reduces the S-polynomial of two rows
    without building it, and gives the remainder of `s_polynomial`."""

    @pytest.mark.parametrize(
        "indices", [WIDE_INDICES, HIGH_INDICES], ids=["low", "high"]
    )
    @pytest.mark.parametrize("field", [None, GF(2), GF(7)], ids=str)
    def test_every_pair_of_a_reused_table(self, field, indices):
        rng = random.Random(7013)
        seen = {"coprime": 0, "non-monic": 0, "nonzero": 0, "zero": 0}
        for k in range(40):
            ctx = RingContext(helpers.ALL_ORDERS[k % 5], field=field)

            def draw():
                g = helpers.random_polynomial(
                    rng, ctx, max_var=4, max_degree=8, max_terms=4
                )
                # Half the rows monic, as completion appends them.
                return relabel(g.monic() if rng.random() < 0.5 else g, indices)

            divisors = [draw() for _ in range(rng.randint(2, 4))]
            table = DivisorTable(ctx, divisors)
            for step in range(2):
                if step == 1:
                    divisors.append(draw())
                    table.append(divisors[-1])
                for j in range(len(divisors)):
                    for i in range(j):
                        expected = spair_expected(divisors, i, j)
                        assert spair_remainder(table, i, j) == expected
                        if divisors[i].lm().coprime(divisors[j].lm()):
                            seen["coprime"] += 1
                        if divisors[i].lc() != ctx.one:
                            seen["non-monic"] += 1
                        seen["zero" if expected.is_zero else "nonzero"] += 1
        if field is not None and field.p == 2:
            del seen["non-monic"]  # every GF(2) row is monic
        assert min(seen.values()) >= 10, seen

    def test_lcm_beyond_the_capacity_widens_the_layout(self):
        # The rows fit fields of capacity 3, but reducing x1^2*x2 by x2 -
        # x1^2 reaches x1^4 inside the lcm's degree 4.
        ctx = RingContext(OrderKind.HOM_REV_LEX)
        divisors = [
            parse_polynomial("x2 - x1^2", ctx),
            parse_polynomial("x2^2 - x1*x3", ctx),
        ]
        table = DivisorTable(ctx, divisors)
        result = spair_remainder(table, 0, 1)
        assert result == spair_expected(divisors, 0, 1)
        assert result == parse_polynomial("x1*x3 - x1^4", ctx)

    def test_plex_products_outgrow_the_field_width(self):
        # The S-polynomial x3 - x1^5*x2*x3 fits the fields sized for it;
        # reducing x2 to x1^5 then reaches x1^10, past them.
        divisors = [
            parse_polynomial("x2 - x1^5", PLEX),
            parse_polynomial("2*x2^2*x3 - x3", PLEX),
        ]
        table = DivisorTable(PLEX, divisors)
        result = spair_remainder(table, 0, 1)
        assert result == spair_expected(divisors, 0, 1)
        assert result == parse_polynomial("-x1^10*x3 + 1/2*x3", PLEX)

    def test_rows_that_cancel_to_zero(self):
        ctx = RingContext(OrderKind.HOM_REV_LEX)
        divisors = [poly("x1*x2 - x1^3", ctx), poly("x2 - x1^2", ctx)]
        table = DivisorTable(ctx, divisors)
        assert spair_remainder(table, 0, 1).is_zero
        assert s_polynomial(divisors[0], divisors[1]).is_zero


class TestPackedPairs:
    """The packed lcm and gcd of two leading monomials, and the lcm degree
    read from them, against `Monomial` arithmetic."""

    @given(
        a=helpers.monomials(max_index=200, max_exponent=9),
        b=helpers.monomials(max_index=200, max_exponent=9),
        order=st.sampled_from(helpers.ALL_ORDERS),
        overrides=st.dictionaries(
            st.integers(1, 200), st.integers(1, 6), max_size=3
        ),
    )
    def test_lcm_gcd_and_degree(self, a, b, order, overrides):
        ctx = RingContext(order, WeightedAlphabet.with_weights(overrides))
        table = DivisorTable(
            ctx, [Polynomial.from_terms(ctx, [(1, m)]) for m in (a, b)]
        )
        lcm = a.lcm(b)
        mine, other = dict(a.exps), dict(b.exps)
        gcd = Monomial.from_pairs(
            (i, min(e, other[i])) for i, e in mine.items() if i in other
        )
        degree = lcm.degree(ctx.weights)
        for i, j in ((0, 1), (1, 0)):
            packed_lcm, packed_gcd = table._lcm_and_gcd(i, j)
            assert packed_lcm == table._packed(lcm)
            assert packed_gcd == table._packed(gcd)
            assert table.spair_degree(i, j) == (degree, a.coprime(b))
            assert table._order_key(packed_lcm, degree) == table._key(lcm)


class TestRationalCoefficients:
    """The integer kernel against `reference_divide` and `s_polynomial` on
    coefficients with denominators up to 7 and leading coefficients that
    are negative or not units: rows made primitive, dividends with their
    denominators cleared, work dicts scaled mid-division, residues mod p."""

    @pytest.mark.parametrize("field", [None, GF(2), GF(7)], ids=str)
    def test_divide_remainder_and_spairs(self, field):
        rng = random.Random(9011)
        seen = {"negative lead": 0, "non-unit lead": 0, "denominator": 0,
                "nonzero spair": 0, "zero spair": 0}
        for k in range(60):
            ctx = RingContext(helpers.ALL_ORDERS[k % 5], field=field)

            def draw(max_terms, allow_zero=False):
                return helpers.random_rational_polynomial(
                    rng, ctx, max_var=4, max_degree=8, max_terms=max_terms,
                    allow_zero=allow_zero,
                )

            divisors = [draw(4) for _ in range(rng.randint(2, 4))]
            table = DivisorTable(ctx, divisors)
            for _ in range(3):
                f = draw(5, allow_zero=True)
                expected = helpers.reference_divide(f, divisors)
                assert divide(f, table) == expected
                assert remainder(f, table) == expected.remainder
            for j in range(len(divisors)):
                for i in range(j):
                    s = s_polynomial(divisors[i], divisors[j])
                    expected = helpers.reference_divide(s, divisors).remainder
                    assert remainder(s, table) == expected
                    assert spair_remainder(table, i, j) == expected
                    seen["zero spair" if expected.is_zero else "nonzero spair"] += 1
            if field is None:
                for g in divisors:
                    lc = g.lc()
                    seen["negative lead"] += lc < 0
                    seen["non-unit lead"] += abs(lc) != 1
                    seen["denominator"] += any(c.denominator > 1 for c, _ in g.terms)
        if field is not None:
            for name in ("negative lead", "non-unit lead", "denominator"):
                del seen[name]
        assert min(seen.values()) >= 10, seen

    def test_rows_are_primitive_integer_multiples(self):
        # -4/3*x1^2 + 2/5*x2 times -15/2 is 10*x1^2 - 3*x2.
        g = poly("-4/3*x1^2 + 2/5*x2")
        k_lead, lc, tail = DivisorTable(HARL, [g])._rows[0]
        assert lc == 10 and [c for c, _ in tail] == [3]
        # Over GF(7) the row is the monic residues: 3*x1^2 + 2*x2 over 3.
        ctx = RingContext(OrderKind.HOM_ANTI_REV_LEX, field=GF(7))
        g = parse_polynomial("3*x1^2 + 2*x2", ctx)
        k_lead, lc, tail = DivisorTable(ctx, [g])._rows[0]
        assert lc is None and [c for c, _ in tail] == [7 - 2 * 5 % 7]

    @pytest.mark.parametrize("field", [None, GF(7)], ids=str)
    def test_the_loop_sees_only_integers(self, field, monkeypatch):
        ctx = RingContext(OrderKind.HOM_REV_LEX, field=field)
        run = DivisorTable._run
        calls = []

        def checked(self, work, scale, record):
            assert all(type(c) is int for c in work.values())
            assert type(scale) is int
            outcome = run(self, work, scale, record)
            for c, _, s in outcome[0]:
                assert type(c) is int and type(s) is int
            for terms in (outcome[1] or {}).values():
                assert all(type(q) is int and type(s) is int for q, _, s in terms)
            calls.append(outcome)
            return outcome

        monkeypatch.setattr(DivisorTable, "_run", checked)
        divisors = [
            parse_polynomial("-2/3*x1^2 + 5*x1*x2 - 1/5*x2^2", ctx),
            parse_polynomial("3*x2^2 - 1/2*x1*x3", ctx),
        ]
        f = parse_polynomial("1/4*x1^4 - 5/6*x1^2*x2^2 + x3^4", ctx)
        assert divide(f, divisors) == helpers.reference_divide(f, divisors)
        table = DivisorTable(ctx, divisors)
        expected = remainder(s_polynomial(*divisors), divisors)
        assert spair_remainder(table, 0, 1) == expected
        assert len(calls) == 3


class TestRemainderUniqueness:
    def test_groebner_divisors_give_order_independent_remainders(self):
        gens = [poly("x1^2 - x2"), poly("x2^2 - x4"), poly("x3^2 - x6")]
        basis = bayer_stillman_basis(gens)
        assert basis is not None
        rng = random.Random(7)
        f = poly("x1^4*x3^2 + x2^3 - 2*x1^2*x2*x3^2")
        reference = remainder(f, basis.elements)
        for _ in range(10):
            shuffled = list(basis.elements)
            rng.shuffle(shuffled)
            assert remainder(f, shuffled) == reference

    def test_non_groebner_divisors_can_disagree(self):
        # Divisor sets that are not Groebner bases admit order-dependent
        # remainders; this pair is a pinned witness.
        ctx = RingContext(OrderKind.HOM_LEX)
        f = parse_polynomial("x1*x2^2 - x1", ctx)
        g1 = parse_polynomial("x1*x2 + 1", ctx)
        g2 = parse_polynomial("x2^2 - 1", ctx)
        one_way = remainder(f, [g1, g2])
        other_way = remainder(f, [g2, g1])
        assert one_way == parse_polynomial("-x1 - x2", ctx)
        assert other_way.is_zero
        assert one_way != other_way


class TestMembership:
    def test_substitution_instance(self):
        basis = bayer_stillman_basis([poly("x1^2 - x2"), poly("x2^2 - x4")])
        assert is_member(poly("x1^4 - x4"), basis)

    def test_generators_are_members(self):
        gens = [poly("x1^2 - x2"), poly("x2^2 - x4")]
        basis = bayer_stillman_basis(gens)
        for g in gens:
            assert is_member(g, basis)

    def test_low_degree_nonmember(self):
        basis = bayer_stillman_basis([poly("x1^2 - x2")])
        assert not is_member(poly("x1"), basis)

    def test_uncertified_basis_rejected(self):
        asserted = GroebnerBasis(
            HARL,
            (poly("x1^2 - x2"),),
            TruncationWindow(2, 4),
            Certificate.ASSERTED,
        )
        with pytest.raises(CertificationError):
            is_member(poly("x1"), asserted)

    def test_membership_certificate_expands(self):
        # x1^4 - x4 = (x1^2 + x2)(x1^2 - x2) + (x2^2 - x4)
        g1, g2 = poly("x1^2 - x2"), poly("x2^2 - x4")
        assert poly("x1^4 - x4") == poly("x1^2 + x2") * g1 + g2


class TestStandardMonomials:
    def test_degree_zero(self):
        basis = bayer_stillman_basis([poly("x1^2 - x2")])
        assert standard_monomials(basis, 0) == [Monomial.one()]

    def test_single_square_relation(self):
        basis = bayer_stillman_basis([poly("x1^2 - x2")])
        result = standard_monomials(basis, 2, variables=(1, 2))
        assert result == [Monomial.variable(2)]

    def test_empty_basis_gives_every_monomial(self):
        empty = GroebnerBasis(
            HARL, (), TruncationWindow(6, 6),
            Certificate.BUCHBERGER_VERIFIED,
        )
        assert standard_monomials(empty, 6) == helpers.reference_standard_monomials(
            empty, 6
        )

    def test_requires_homogeneous_order(self):
        ctx = RingContext(OrderKind.PURE_LEX)
        basis = bayer_stillman_basis([parse_polynomial("x2 - x1^2", ctx)])
        with pytest.raises(HomogeneityError):
            standard_monomials(basis, 3)

    def test_requires_homogeneous_elements(self):
        basis = bayer_stillman_basis([poly("x1^2 - x1")])
        with pytest.raises(HomogeneityError):
            standard_monomials(basis, 3)

    def test_walk_matches_the_recursive_reference(self):
        rng = random.Random(8101)
        for trial in range(40):
            basis = helpers.random_monomial_ideal(rng)
            variables = (
                None if trial % 3 == 0 else set(rng.sample(range(1, 13), 8))
            )
            for degree in range(13):
                assert standard_monomials(
                    basis, degree, variables
                ) == helpers.reference_standard_monomials(basis, degree, variables)

    def test_unit_lead_leaves_nothing(self):
        basis = GroebnerBasis(
            HARL, (poly("1"),), TruncationWindow(2, 2),
            Certificate.BAYER_STILLMAN,
        )
        assert standard_monomials(basis, 0) == []
        assert standard_monomials(basis, 3) == []

    def test_deep_walk_does_not_recurse(self):
        # 1100 variables, one level each: deeper than the recursion limit.
        from infinigb.series import quotient_series_from_standard_monomials

        ctx = RingContext(OrderKind.HOM_REV_LEX)
        basis = bayer_stillman_basis(
            Polynomial.from_monomial(ctx, Monomial.variable(i))
            for i in range(2, 1101)
        )
        assert standard_monomials(basis, 1100) == [Monomial.variable(1, 1100)]
        counted = quotient_series_from_standard_monomials(basis, 1100)
        assert counted.coefficients == (1,) * 1101

    def test_counts_bounded_multiplicity_partitions(self):
        # Leading terms x_i^2 for i in W leave exactly the W-partitions with
        # distinct parts as standard monomials.
        from infinigb import index_sets
        from infinigb.groebner import IdealPresentation
        from infinigb.partitions import FamilySpec

        pres = IdealPresentation.power_substitution(
            index_sets.PM1_MOD3, 2, OrderKind.HOM_ANTI_REV_LEX
        )
        window = TruncationWindow(10, 10)
        basis = bayer_stillman_basis(
            pres.instantiate(window), window=window, context=pres.context
        )
        spec = FamilySpec.preset("B")
        for n in (0, 4, 7, 10):
            count = len(standard_monomials(basis, n, variables=pres.variables))
            assert count == len(helpers.reference_enumerate_family(spec, n))
