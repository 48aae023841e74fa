"""The division algorithm: reconstruction, remainders and membership."""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
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
from infinigb import index_sets
from infinigb.groebner import (
    Certificate,
    GroebnerBasis,
    IdealPresentation,
    TruncationWindow,
    bayer_stillman_basis,
    buchberger_truncated,
    coprime_basis,
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
    sort_key,
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
        rng = random.Random(31415)
        for _ in range(60):
            ctx = RingContext(rng.choice(helpers.HOMOGENEOUS_ORDERS))

            def homogeneous(degree):
                choices = helpers.monomials_of_degree(degree)
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

    def test_masks_hold_one_bit_per_field(self):
        # `_ones` is the lowest bit of every field and `_guard` the top one.
        table = DivisorTable(HARL, [])
        for variables in range(41):
            for width in range(2, 13):
                table._layout(variables, width)
                fields = range(variables)
                assert table._ones == sum(1 << (f * width) for f in fields)
                assert table._guard == sum(1 << (f * width + width - 1) for f in fields)

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


class Replay:
    """Stands in for `st.data()` in an `@example`: each draw returns the
    next of the given values, whatever the strategy."""

    def __init__(self, *draws):
        self._draws = iter(draws)

    def draw(self, strategy):
        return next(self._draws)


ONE = Monomial.one()
SLOW_CONTEXT = RingContext(
    OrderKind.HOM_LEX, WeightedAlphabet.with_weights({36: 3, 116: 3})
)


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

    @settings(max_examples=150)
    @given(case=index_cases(), data=st.data())
    # A slow draw: x74^4*x152^8 times x152^53*x200^34 takes 25,690 steps
    # and leaves 8,692 remainder terms.
    @example(
        case=(
            SLOW_CONTEXT,
            [
                poly(text, SLOW_CONTEXT)
                for text in (
                    "x146^2*x180^7 + 3*x74^6 + 2*x74^3 - 2",
                    "3*x74^4*x152^8 + 3*x152^4*x200^3"
                    " + 2*x74^4*x152^3*x200 - 3*x152*x180^4",
                    "3*x74^4*x152^8",
                    "x152^6*x200 + 2*x146*x152^4*x180 + x180^2*x200^2",
                )
            ],
            [],
            poly("-3*x146^4*x200^4 + 3*x146*x152^4*x180 - 3", SLOW_CONTEXT),
        ),
        data=Replay(
            ONE, ONE, Monomial.from_pairs([(152, 53), (200, 34)]), ONE, ONE, []
        ),
    )
    def test_dividends_beyond_the_layout(self, case, data):
        # The leads, multiples of them and other monomials, with exponents
        # up to 40 and indices up to x200 that outgrow the fields and the
        # variables the divisors were packed for: each division widens the
        # layout first and still divides as the reference does.
        ctx, divisors, _, extra = case
        divisors = [*divisors, extra]
        table = DivisorTable(ctx, divisors)
        leads = [g.lm() for g in divisors]
        used = {i for m in leads for i in m.support()}
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
        with checked_search():
            for m in queries:
                f = Polynomial.from_monomial(ctx, m)
                assert divide(f, table) == helpers.reference_divide(f, divisors)

    def test_a_dividend_beyond_the_layout_widens_it(self):
        divisors = [poly("x2^3 - x1"), poly("x1^3 - x2")]
        table = DivisorTable(HARL, divisors)
        assert [str(g.lm()) for g in divisors] == ["x2^3", "x1^3"]
        width = table._width
        assert table._variables == 2
        with checked_search() as searches:
            for text in ("x1^2*x2^40*x9", "x1^40", "x2*x9^40", "x2^3*x9 + x1^5"):
                f = poly(text)
                assert divide(f, table) == helpers.reference_divide(f, divisors)
        assert table._variables == 9 and table._width > width
        assert {position for position, _ in searches} == {0, 1, None}

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
        # this window the linear scan made about 20 tests per search.  The
        # reducer cache answers a repeated key of a degree slice without a
        # search, so the division steps outnumber the searches.  A coprime
        # pair's steps go to its own two rows, with no search, so the
        # window is (40, 80): at (30, 60) the verifier takes 3,655 steps.
        searching, tests, searches, steps = [False], [0], [0], [0]

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
        stream = DivisorTable._stream

        def stepped(self, build, jobs, record=False):
            for outcome in stream(self, build, jobs, record):
                steps[0] += outcome[2]
                yield outcome

        monkeypatch.setattr(DivisorTable, "_first_divisor", counted)
        monkeypatch.setattr(DivisorTable, "_stream", stepped)
        window = TruncationWindow(40, 80)
        gens = helpers.family_f(HARL).instantiate(window)
        basis = reduce_basis(buchberger_truncated(gens, window, context=HARL))
        assert verify_buchberger(basis)
        assert steps[0] > 5000
        assert searches[0] < steps[0]
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


def check_below(table):
    """`_below[p]` holds the guard bits of exactly the buckets whose first
    position is below p."""
    first = {}
    for bit, bucket in table._buckets.items():
        assert [position for position, _ in bucket] == sorted(
            position for position, _ in bucket
        )
        first[bit] = bucket[0][0]
    assert len(table._below) == len(table._leads)
    for position, mask in enumerate(table._below):
        assert mask == sum(bit for bit, start in first.items() if start < position)


def search_everything(table, divisors):
    """Every monomial of the divisors, and every product of two leads
    that fits the layout, searched by the pruned scan and by the linear
    one."""
    leads = [g.lm() for g in divisors]
    queries = [m for g in divisors for _, m in g.terms]
    queries += [a * b for a in leads for b in leads]
    for m in queries:
        if m.max_index() <= table._variables and all(
            e <= table._capacity for _, e in m.exps
        ):
            x = table._packed(m)
            assert table._first_divisor(x) == (
                helpers.reference_first_divisor(table, x)
            )


class TestPrunedSearch:
    """A found divisor drops every bucket that begins at or after it; the
    search still returns the linear scan's position after `select`, with a
    constant lead and after a widened layout."""

    @settings(max_examples=100)
    @given(case=index_cases(), data=st.data())
    def test_after_select_and_widening(self, case, data):
        ctx, divisors, _, extra = case
        divisors = [*divisors, extra]
        table = DivisorTable(ctx, divisors)
        check_below(table)
        search_everything(table, divisors)
        order = data.draw(st.permutations(range(len(divisors))))
        positions = order[: data.draw(st.integers(1, len(order)))]
        divisors = [divisors[position] for position in positions]
        table.select(positions)
        check_below(table)
        search_everything(table, divisors)
        width = table._width
        lead = data.draw(st.sampled_from(divisors)).lm()
        f = Polynomial.from_monomial(ctx, lead * Monomial.variable(150, 40))
        assert divide(f, table) == helpers.reference_divide(f, divisors)
        assert table._width > width and table._variables >= 150
        check_below(table)
        search_everything(table, divisors)

    @pytest.mark.parametrize("position", range(4))
    def test_a_constant_lead(self, position):
        divisors = [poly("x1^2 - x2"), poly("x3 - x1"), poly("x2*x5 + x4")]
        divisors.insert(position, poly("5"))
        table = DivisorTable(HARL, divisors)
        check_below(table)
        search_everything(table, divisors)
        table.select([3, 2, 1, 0])
        divisors.reverse()
        check_below(table)
        search_everything(table, divisors)

    @pytest.mark.parametrize(
        "texts, first, visits",
        [(("x1", "x2", "x1*x2"), 0, 1), (("x2", "x1", "x1*x2"), 0, 2)],
        ids=["dropped", "kept"],
    )
    def test_a_found_divisor_drops_later_buckets(self, texts, first, visits):
        # Under harevlex a lead's bucket is its top variable's: x1 and x2
        # each begin one, and x1*x2 joins x2's.  A search of x1*x2 visits
        # x1's bucket first.  When x1 is row 0, x2's bucket begins after
        # it and is never visited; when x1 is row 1, x2's begins before it
        # and holds row 0.
        divisors = [poly(text) for text in texts]
        table = DivisorTable(HARL, divisors)
        visited = []

        class Buckets(dict):
            def __getitem__(self, bit):
                visited.append(bit)
                return dict.__getitem__(self, bit)

        table._buckets = Buckets(table._buckets)
        x = table._packed(poly("x1*x2").lm())
        assert table._first_divisor(x) == first
        assert table._first_divisor(x) == helpers.reference_first_divisor(table, x)
        assert len(visited) == 2 * visits


def check_cache(table):
    """Every answer the reducer cache holds is the linear scan's: the
    position of the first divisor of its key.  A key that no row divides
    is not held.  Only a homogeneous order caches."""
    if table._cache is None:
        return
    assert table.context.order.homogeneous
    flip, mask = table._sign > 0, table._mask
    for k, entry in table._cache.items():
        x = (-k if flip else k) & mask
        assert type(entry) is int
        assert entry == helpers.reference_first_divisor(table, x)


@pytest.fixture
def checked_cache(monkeypatch):
    """Check the reducer cache of a table after each of its divisions, as
    its stream yields the division, and record the table."""
    stream = DivisorTable._stream
    tables = []

    def checked(self, build, jobs, record=False):
        for outcome in stream(self, build, jobs, record):
            check_cache(self)
            if not tables or tables[-1] is not self:
                tables.append(self)
            yield outcome

    monkeypatch.setattr(DivisorTable, "_stream", checked)
    return tables


class TestReducerCache:
    """The reducer cache of a `DivisorTable` maps keys to the position of
    their first divisor for one degree slice of divisions, and holds no
    key that no row divides.  `append` and `replace` keep it, `select` and
    a new layout drop it, and a table whose keys do not repeat stops using
    it; none of this may change a division."""

    @settings(max_examples=150)
    @given(case=index_cases(), data=st.data())
    def test_a_warm_table_divides_as_a_fresh_one(self, case, data):
        # Each step below ends with a division of the current dividend,
        # which the reference, a fresh table and the warm one must agree
        # on, step count included: repeated dividends, dividends of
        # several degrees, appends (one of a remainder term of the last
        # division, which the cache does not hold), `select`,
        # `replace` keeping the lead, and dividends beyond the layout,
        # which widen it or, under `plex`, restart a division.
        ctx, divisors, dividends, extra = case
        table = DivisorTable(ctx, divisors)
        f = dividends[0]
        actions = data.draw(
            st.lists(
                st.sampled_from(
                    ["divide", "again", "append", "shadow", "select", "replace", "widen"]
                ),
                max_size=10,
            )
        )
        with checked_search():
            for action in ["again", *actions]:
                if action == "divide":
                    f = data.draw(st.sampled_from(dividends))
                elif action == "append":
                    divisors = [*divisors, extra]
                    table.append(extra)
                elif action == "shadow":
                    rest = helpers.reference_divide(f, divisors).remainder.terms
                    if rest:
                        m = data.draw(st.sampled_from(rest))[1]
                        g = Polynomial.from_terms(ctx, [(3, m)])
                        divisors = [*divisors, g]
                        table.append(g)
                elif action == "select":
                    order = data.draw(st.permutations(range(len(divisors))))
                    positions = order[: data.draw(st.integers(1, len(order)))]
                    divisors = [divisors[position] for position in positions]
                    table.select(positions)
                elif action == "replace":
                    position = data.draw(st.integers(0, len(divisors) - 1))
                    g = divisors[position]
                    if len(g.terms) > 1:
                        g = Polynomial(ctx, g.terms[:-1])
                    else:
                        g = Polynomial.from_terms(ctx, [(3, g.lm())])
                    divisors = [*divisors]
                    divisors[position] = g
                    table.replace(position, g)
                elif action == "widen":
                    factor = Monomial.variable(
                        data.draw(st.integers(1, 200)), data.draw(st.integers(1, 40))
                    )
                    lead = data.draw(st.sampled_from(divisors)).lm()
                    f = Polynomial.from_terms(ctx, [(1, lead * factor), *f.terms])
                warm = divide(f, table)
                assert warm == helpers.reference_divide(f, divisors)
                assert warm == divide(f, DivisorTable(ctx, divisors))
                check_cache(table)

    def test_an_append_divides_a_key_the_cache_does_not_hold(self):
        divisors = [poly("x1*x5 - x6"), poly("x7*x8 - x1"), poly("x9^2 - x2")]
        table = DivisorTable(HARL, divisors)
        f = poly("x1*x5 + x2*x4 + x3^2")
        assert divide(f, table) == helpers.reference_divide(f, divisors)
        # x1*x5 reduces to x6; x6, x2*x4 and x3^2 (all of degree 6) have
        # no divisor and are not held.
        assert list(table._cache.values()) == [0]
        divisors.append(poly("x3^2 - x2*x4"))
        table.append(divisors[-1])
        assert list(table._cache.values()) == [0]
        result = divide(f, table)
        assert result == helpers.reference_divide(f, divisors)
        assert str(result.remainder) == "2*x2*x4 + x6"
        # The new row is x3^2's first divisor.
        assert sorted(table._cache.values()) == [0, 3]
        check_cache(table)

    def test_a_new_layout_drops_the_cache(self):
        # x1*x9 has the degree of the cached slice but needs a ninth
        # field: the keys of the old layout mean other monomials in the
        # new one.
        context = RingContext(
            OrderKind.HOM_LEX,
            WeightedAlphabet.with_weights({i: 1 for i in range(1, 10)}),
        )
        divisors = [poly("x1*x2 - x3^2", context), poly("x2^2 - x1*x3", context)]
        table = DivisorTable(context, divisors)
        # The leads are x3^2 and x1*x3.  The second division finds both
        # in the cache, which keeps the table caching.
        for text in ("x3^2 + x1*x3",) * 2 + ("x1*x9 + x1*x3",):
            f = poly(text, context)
            result = divide(f, table)
            assert result == helpers.reference_divide(f, divisors)
            assert table._slice == 2
            check_cache(table)
        # Only the last division's key with a divisor is held.
        assert table._variables == 9
        assert table._cache == {table._key(poly("x1*x3", context).lm()): 1}

    def test_keys_below_the_slice_are_cached_exactly(self, checked_cache):
        # Cyclic-4 is not homogeneous, so its S-pairs and remainders run
        # below the degree of their leading term: completion,
        # interreduction and verification cache those keys too, each
        # answer checked after every division, and each new leading
        # degree starts a new slice.
        context = RingContext(
            OrderKind.HOM_REV_LEX,
            WeightedAlphabet.with_weights({i: 1 for i in range(1, 5)}),
        )
        gens = [
            poly("x1 + x2 + x3 + x4", context),
            poly("x1*x2 + x2*x3 + x3*x4 + x4*x1", context),
            poly("x1*x2*x3 + x2*x3*x4 + x3*x4*x1 + x4*x1*x2", context),
            poly("x1*x2*x3*x4 - 1", context),
        ]
        window = TruncationWindow(4, 10)
        basis = reduce_basis(buchberger_truncated(gens, window, context=context))
        assert verify_buchberger(basis)
        assert len(checked_cache) == 3
        slices = set()
        for f in (*gens, poly("x1^3 + x2 - 1", context), gens[0]):
            divide(f, checked_cache[-1])
            slices.add(checked_cache[-1]._slice)
        assert len(slices) > 2

    def test_each_single_division_counts_toward_the_off_rule(self):
        # `remainder` is a stream of one division that is never resumed,
        # so the loop must count each division before it yields it.
        # x_i^2 reduces to x_{2i} with no cache hit, each in a slice of
        # its own, and after as many such divisions as the table has rows
        # it stops caching.
        order = OrderKind.HOM_ANTI_REV_LEX
        presentation = IdealPresentation.power_substitution(index_sets.ALL, 2, order)
        basis = coprime_basis(presentation, TruncationWindow(12, 24))
        table = DivisorTable(basis.context, basis.elements, 24)
        for g in basis.elements:
            assert table._caching
            f = Polynomial.from_monomial(basis.context, g.lm())
            assert remainder(f, table) == Polynomial(basis.context, g.terms[1:]) * -1
        assert not table._caching and table._cache is None

    @pytest.mark.parametrize("order", helpers.HOMOGENEOUS_ORDERS, ids=str)
    def test_a_table_whose_keys_do_not_repeat_stops_caching(
        self, order, checked_cache
    ):
        # The S-pairs of x_i^2 - x_{2i} share no monomial in a degree
        # slice, so the verifying table turns its cache off.  Family F's
        # repeat, and its table keeps caching.
        presentation = IdealPresentation.power_substitution(index_sets.ALL, 2, order)
        assert verify_buchberger(coprime_basis(presentation, TruncationWindow(12, 24)))
        (table,) = checked_cache
        assert table._cache is None and not table._caching
        window = TruncationWindow(30, 60)
        gens = helpers.family_f(HARL).instantiate(window)
        basis = reduce_basis(buchberger_truncated(gens, window, context=HARL))
        checked_cache.clear()
        assert verify_buchberger(basis)
        (table,) = checked_cache
        assert table._caching and table._cache


def spair_expected(divisors, i, j):
    """The remainder `spair_remainders` gives for the pair (i, j): that of
    the S-polynomial built by `s_polynomial` by `reference_divide` modulo
    the divisors, or modulo [g_i, g_j, *divisors] when the two leads share
    no variable.  The kernel on a fresh table and `reference_divide` must
    agree on the remainder modulo the divisors."""
    g_i, g_j = divisors[i], divisors[j]
    s = s_polynomial(g_i, g_j)
    expected = helpers.reference_divide(s, divisors).remainder
    assert remainder(s, divisors) == expected
    if helpers.coprime(g_i.lm(), g_j.lm()):
        return helpers.reference_divide(s, [g_i, g_j, *divisors]).remainder
    return expected


def one_pair_remainder(table, i, j):
    """The (c, key, scale) terms of a one-pair `DivisorTable.spair_remainders`
    stream, given the job `pairs_of` lists for the pair, as its callers in
    `groebner` give it."""
    (pair,) = [
        pair for pair in table.pairs_of(j, math.inf, True)[0] if pair[1] == i
    ]
    return next(table.spair_remainders([pair]))


class TestSpairRemainder:
    """`DivisorTable.spair_remainders` reduces the S-polynomial of two rows
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
                        terms = one_pair_remainder(table, i, j)
                        assert table._polynomial(terms) == expected
                        if helpers.coprime(divisors[i].lm(), divisors[j].lm()):
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
        result = table._polynomial(one_pair_remainder(table, 0, 1))
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
        result = table._polynomial(one_pair_remainder(table, 0, 1))
        assert result == spair_expected(divisors, 0, 1)
        assert result == parse_polynomial("-x1^10*x3 + 1/2*x3", PLEX)

    def test_rows_that_cancel_to_zero(self):
        ctx = RingContext(OrderKind.HOM_REV_LEX)
        divisors = [poly("x1*x2 - x1^3", ctx), poly("x2 - x1^2", ctx)]
        table = DivisorTable(ctx, divisors)
        assert one_pair_remainder(table, 0, 1) == []
        assert s_polynomial(divisors[0], divisors[1]).is_zero


def all_pairs(table):
    """Every pair (lcm degree, i, j, packed lcm) of the table's rows, as
    the callers in `groebner` list them."""
    return [
        pair
        for j in range(len(table.divisors))
        for pair in table.pairs_of(j, math.inf, True)[0]
    ]


def streamed_against_single(ctx, divisors):
    """Stream every pair of a table through `spair_remainders` and reduce
    each on a twin table by a stream of that pair alone, in the same
    order: the terms, the step-by-step layout and the remainders must
    agree.  Under a homogeneous order the tables are laid out for every
    lcm, as the callers' are for the window; `plex` may widen midway.
    Each one-pair stream of the twin begins after its own widenings, so
    it packs its own lcm.  Returns the field widths the stream went
    through."""
    degree = 0
    if ctx.order.homogeneous:
        degree = 2 * max(g.weighted_degree() for g in divisors)
    streamed = DivisorTable(ctx, divisors, degree)
    single = DivisorTable(ctx, divisors, degree)
    pairs = all_pairs(streamed)
    widths = []
    for (_, i, j, _), terms in zip(pairs, streamed.spair_remainders(pairs)):
        # Each remainder is read before the stream takes the next pair.
        assert terms == one_pair_remainder(single, i, j)
        assert streamed._width == single._width
        assert streamed._polynomial(terms) == spair_expected(divisors, i, j)
        widths.append(streamed._width)
    assert len(widths) == len(pairs)
    return widths


class TestSpairStream:
    """A stream of pairs through `spair_remainders` gives exactly what a
    stream of each pair alone gives, reads each pair only when the one
    before it has been answered, and takes again every lcm that a new
    layout has made stale."""

    @pytest.mark.parametrize("field", [None, GF(7)], ids=str)
    def test_every_pair_of_random_tables(self, field):
        rng = random.Random(7019)
        nonzero = 0
        for k in range(30):
            ctx = RingContext(helpers.ALL_ORDERS[k % 5], field=field)
            divisors = [
                helpers.random_rational_polynomial(
                    rng, ctx, max_var=4, max_degree=8, max_terms=4
                )
                for _ in range(rng.randint(2, 5))
            ]
            streamed_against_single(ctx, divisors)
            nonzero += any(
                not spair_expected(divisors, i, j).is_zero
                for j in range(len(divisors))
                for i in range(j)
            )
        assert nonzero >= 10

    @pytest.mark.parametrize("field", [None, GF(7)], ids=str)
    def test_lcms_a_widening_made_stale(self, field):
        # Tables laid out for their divisors only: a pair whose lcm degree
        # exceeds the fields widens them midway, after which every later
        # lcm of the stream, packed for the old layout, is stale.
        rng = random.Random(7027)
        stale = 0
        for k in range(40):
            ctx = RingContext(helpers.HOMOGENEOUS_ORDERS[k % 4], field=field)
            divisors = [
                helpers.random_rational_polynomial(
                    rng, ctx, max_var=4, max_degree=8, max_terms=4
                )
                for _ in range(rng.randint(2, 5))
            ]
            table = DivisorTable(ctx, divisors)
            pairs = all_pairs(table)
            for (_, i, j, lcm), terms in zip(pairs, table.spair_remainders(pairs)):
                assert table._polynomial(terms) == spair_expected(divisors, i, j)
                stale += lcm != helpers.packed_pair(table, i, j)[1]
        assert stale >= 10

    def test_a_plex_stream_that_widens_midway(self):
        # The second pair, of x2 - x1^5 and 2*x2^2*x3 - x3, reaches x1^10
        # in the middle of its division, past the fields the first pair fit.
        divisors = [
            parse_polynomial(text, PLEX)
            for text in ("x2 - x1^5", "x4 - x1", "2*x2^2*x3 - x3")
        ]
        widths = streamed_against_single(PLEX, divisors)
        assert len(set(widths)) > 1 and widths == sorted(widths)

    def test_pairs_are_read_one_at_a_time(self):
        # Completion appends a remainder and queues its pairs between two
        # answers: a pair queued after an answer is the next one read.
        divisors = [poly("x1^2 - x2"), poly("x1*x3 - x4")]
        table = DivisorTable(HARL, divisors, 8)
        degree, lcm = helpers.packed_pair(table, 0, 1)
        queue = [(degree, 0, 1, lcm)]
        read = []

        def pairs():
            while queue:
                read.append(queue[-1])
                yield queue.pop()

        answers = []
        expected = [spair_expected(divisors, 0, 1)]
        for terms in table.spair_remainders(pairs()):
            answers.append(table._polynomial(terms))
            if len(answers) == 1:
                g = answers[0].monic()
                divisors.append(g)
                table.append(g)
                degree, lcm = helpers.packed_pair(table, 0, 2)
                queue.append((degree, 0, 2, lcm))
                expected.append(spair_expected(divisors, 0, 2))
        assert [pair[1:3] for pair in read] == [(0, 1), (0, 2)]
        assert answers == expected
        assert not answers[0].is_zero


def own_rows_first(ctx, divisors, seen):
    """Stream every pair of a table laid out for its divisors only through
    `spair_remainders`: a pair whose leads share no variable must give
    the remainder of its S-polynomial modulo [g_i, g_j, *divisors], any
    other pair its remainder modulo the table.  Returns the field widths
    the stream went through."""
    table = DivisorTable(ctx, divisors)
    pairs = all_pairs(table)
    widths = []
    for (_, i, j, _), terms in zip(pairs, table.spair_remainders(pairs)):
        g_i, g_j = divisors[i], divisors[j]
        answer = table._polynomial(terms)
        widths.append(table._width)
        s = s_polynomial(g_i, g_j)
        plain = remainder(s, table)
        if helpers.coprime(g_i.lm(), g_j.lm()):
            expected = helpers.reference_divide(s, [g_i, g_j, *divisors]).remainder
            seen["coprime"] += 1
            seen["own rows change it"] += expected != plain
        else:
            expected = plain
            seen["shared"] += 1
        assert answer == expected
    return widths


class TestOwnRowsFirst:
    """Each step of a pair whose leads share no variable tries the pair's
    own two rows before the reducer cache and the divisor search, so its
    remainder is that of the S-polynomial modulo [g_i, g_j, then the table
    in order]; every other pair keeps its remainder modulo the table."""

    @pytest.mark.parametrize("field", [None, GF(2), GF(7)], ids=str)
    def test_every_pair_of_random_tables(self, field):
        rng = random.Random(7043)
        seen = {"coprime": 0, "own rows change it": 0, "shared": 0}
        for k in range(100):
            ctx = RingContext(helpers.ALL_ORDERS[k % 5], field=field)
            divisors = [
                helpers.random_rational_polynomial(
                    rng, ctx, max_var=4, max_degree=8, max_terms=4
                )
                for _ in range(rng.randint(3, 6))
            ]
            own_rows_first(ctx, divisors, seen)
        assert min(seen.values()) >= 10, seen

    def test_a_plex_stream_that_widens_midway(self):
        # The coprime pair of x2 - x1^5 and x4^2 - x1^3 fits fields of
        # capacity 7 when it is built, and its own rows reach x1^8.  The
        # coprime pair of x2 - x1^5 and x3*x4 - x2 reduces to zero by its
        # own rows, but not modulo the table in order.
        divisors = [
            parse_polynomial(text, PLEX)
            for text in ("x3 - x1^2", "x2 - x1^5", "x4^2 - x1^3", "x3*x4 - x2")
        ]
        seen = {"coprime": 0, "own rows change it": 0, "shared": 0}
        widths = own_rows_first(PLEX, divisors, seen)
        assert widths == [4, 4, 8, 8, 8, 8]
        assert seen == {"coprime": 4, "own rows change it": 1, "shared": 2}

    @pytest.mark.parametrize("field", [None, GF(7)], ids=str)
    def test_a_changed_coprime_pair_fails_verification(self, field, monkeypatch):
        # Negating one coefficient of one coprime pair's work dict adds a
        # nonzero multiple of a monomial to its S-polynomial, and no
        # monomial lies in these ideals (every generator vanishes where
        # all variables are 1): the verifier reduces that pair and finds
        # a remainder.
        context = RingContext(OrderKind.HOM_ANTI_REV_LEX, field=field)
        window = TruncationWindow(12, 24)
        family_f = helpers.family_f(context).instantiate(window)
        substitution = IdealPresentation.power_substitution(
            index_sets.ALL, 2, OrderKind.HOM_ANTI_REV_LEX, field
        )
        bases = [
            reduce_basis(buchberger_truncated(family_f, window, context=context)),
            coprime_basis(substitution, window),
        ]
        build = DivisorTable._spair_work
        changed = []

        def spy(self, *pair):
            work, scale, degree, own = build(self, *pair)
            if own and not changed:
                key = min(work)
                work[key] = -work[key]
                changed.append(pair[1:3])
            return work, scale, degree, own

        for basis in bases:
            assert verify_buchberger(basis)
            monkeypatch.setattr(DivisorTable, "_spair_work", spy)
            changed.clear()
            assert not verify_buchberger(basis)
            monkeypatch.undo()
            (pair,) = changed
            i, j = pair
            assert helpers.coprime(basis.elements[i].lm(), basis.elements[j].lm())


@st.composite
def monomial_cases(draw):
    """An `index_cases` context and divisors, its dividends, and monomials
    to divide: the leads, the leads times factors with exponents up to 40,
    which overflow the fields in the middle of a `plex` division, and the
    dividends' monomials."""
    ctx, divisors, dividends, _ = draw(index_cases())
    leads = [g.lm() for g in divisors]
    factors = st.lists(
        st.tuples(
            st.sampled_from(sorted({i for m in leads for i in m.support()} | {1})),
            st.integers(1, 40),
        ),
        max_size=2,
    ).map(Monomial.from_pairs)
    queries = [
        *leads,
        *(lm * draw(factors) for lm in leads),
        *(m for f in dividends for _, m in f.terms),
    ]
    return ctx, divisors, dividends, queries


class TestMonomialRemainder:
    """`DivisorTable.monomial_remainder` divides one monomial with no
    polynomial built, and its terms unpack to the remainder that
    `remainder` and `reference_divide` give, on a fresh table and on a warm
    one whose reducer cache earlier divisions have filled."""

    @settings(max_examples=150)
    @given(case=monomial_cases())
    # x2^8 -> x1^40: the fields sized for x2^8 overflow at x1^20, and the
    # build packs x2^8 again for the widened layout.
    @example(case=(PLEX, [poly("x2 - x1^5", PLEX)], [], [Monomial.variable(2, 8)]))
    def test_matches_remainder_and_the_reference(self, case):
        ctx, divisors, dividends, queries = case
        warm = DivisorTable(ctx, divisors)
        for f in dividends:
            remainder(f, warm)
        for m in queries:
            f = Polynomial.from_monomial(ctx, m)
            expected = helpers.reference_divide(f, divisors).remainder
            fresh = DivisorTable(ctx, divisors)
            assert fresh._polynomial(fresh.monomial_remainder(m)) == expected
            # The same slice twice: the second division meets the keys of
            # the first in the cache.
            assert remainder(f, warm) == expected
            terms = warm.monomial_remainder(m)
            assert terms == warm._divide(f, False)[0]
            assert warm._polynomial(terms) == expected
            check_cache(warm)


def index_state(table):
    """Everything a table holds for its rows: the rows, their leads,
    supports and degrees, the divisor index and the layout."""
    return (
        table._rows, table._leads, table._supports, table._degrees,
        table._buckets, table._bucketed, table._below, table._constant,
        table._shape,
    )


class TestRowFromRemainder:
    """`DivisorTable.divisor_of` builds a remainder's monic divisor and its
    row from the remainder's packed terms; appending it, or putting it in
    place of a row with `replace`, leaves the table that packing
    `r.monic()` leaves, index included."""

    @pytest.mark.parametrize("field", [None, GF(7)], ids=str)
    def test_append_and_replace_match_packing(self, field):
        rng = random.Random(7039)
        seen = {"mixed scales": 0, "non-unit lead": 0, "replaced": 0}
        for k in range(80):
            ctx = RingContext(helpers.ALL_ORDERS[k % 5], field=field)

            def draw():
                return helpers.random_rational_polynomial(
                    rng, ctx, max_var=4, max_degree=8, max_terms=4
                )

            divisors = [draw() for _ in range(rng.randint(1, 4))]
            f = draw()
            built, packed = DivisorTable(ctx, divisors), DivisorTable(ctx, divisors)
            terms = built._divide(f, False)[0]
            # The twin divides alike, so it reaches the same layout.
            assert packed._divide(f, False)[0] == terms
            if not terms:
                continue
            r = built._polynomial(terms)
            seen["mixed scales"] += len({s for _, _, s in terms}) > 1
            seen["non-unit lead"] += r.lc() not in (ctx.one, -ctx.one)
            g, row = built.divisor_of(terms)
            assert g == r.monic()
            built.append(g, row)
            packed.append(r.monic())
            assert index_state(built) == index_state(packed)
            # The tail's remainder after the monic lead, as interreduction
            # takes it, in place of the row just appended.
            if len(g.terms) < 2:
                continue
            tail = Polynomial(ctx, g.terms[1:])
            terms = built._divide(tail, False)[0]
            assert packed._divide(tail, False)[0] == terms
            lead = (1, built._rows[-1][0], 1)
            reduced, row = built.divisor_of([lead, *terms])
            assert reduced == Polynomial(
                ctx, g.terms[:1] + built._polynomial(terms).terms
            )
            built.replace(len(divisors), reduced, row)
            packed.replace(len(divisors), reduced)
            assert index_state(built) == index_state(packed)
            seen["replaced"] += 1
        if field is not None:
            del seen["mixed scales"]  # over GF(p) every scale is 1
        assert min(seen.values()) >= 5, seen

    def test_plex_rows_after_a_stream_widened(self, monkeypatch):
        # The pair of x2 - x1^5 and 2*x2^2*x3 - x3 widens the fields in
        # the middle of its division (see `TestSpairStream`), and its
        # remainder's keys hold in the wider layout.
        divisors = [poly("x2 - x1^5", PLEX), poly("2*x2^2*x3 - x3", PLEX)]
        built, packed = DivisorTable(PLEX, divisors), DivisorTable(PLEX, divisors)
        width = built._width
        terms = one_pair_remainder(built, 0, 1)
        assert one_pair_remainder(packed, 0, 1) == terms
        assert built._width > width
        rows = [0]
        real = DivisorTable._pack_row

        def counted(*args):
            rows[0] += 1
            return real(*args)

        monkeypatch.setattr(DivisorTable, "_pack_row", counted)
        g, row = built.divisor_of(terms)
        assert g == poly("x1^10*x3 - 1/2*x3", PLEX)
        built.append(g, row)
        packed.append(g)
        assert index_state(built) == index_state(packed)
        # One row built from the terms, one packed from g.
        assert rows == [2]
        # A row built before a new layout is not taken: x2^30 reduces to
        # x1^150, past the fields, and g is packed again.
        g, row = built.divisor_of(terms)
        for table in (built, packed):
            remainder(poly("x2^30", PLEX), table)
        assert built._shape == packed._shape != row[0]
        rows[0] = 0
        built.append(g, row)
        packed.append(g)
        assert index_state(built) == index_state(packed)
        assert rows == [2]


class TestPackedPairs:
    """The packed lcm of two leading monomials and its degree from
    `DivisorTable.pairs_of`, the gcd that degree is read from and the
    packed divisibility test, against `Monomial` arithmetic."""

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
        lcm = a.lcm(b)
        mine, other = dict(a.exps), dict(b.exps)
        gcd = Monomial.from_pairs(
            (i, min(e, other[i])) for i, e in mine.items() if i in other
        )
        degree = lcm.degree(ctx.weights)
        for first, second in ((a, b), (b, a)):
            table = DivisorTable(
                ctx, [Polynomial.from_terms(ctx, [(1, m)]) for m in (first, second)]
            )
            (pair,), beyond = table.pairs_of(1, degree, True)
            assert beyond == 0
            listed_degree, i, j, packed_lcm = pair
            assert (listed_degree, i, j) == (degree, 0, 1)
            assert packed_lcm == table._packed(lcm)
            packed_gcd = table._leads[0] + table._leads[1] - packed_lcm
            assert packed_gcd == table._packed(gcd)
            assert table.pairs_of(1, degree - 1, True) == ([], 1)
            assert table._order_key(packed_lcm, degree) == table._key(lcm)
            lead_first, lead_second = table._leads
            assert helpers.packed_divides(
                table, lead_first, lead_second
            ) == first.divides(second)
            assert helpers.packed_divides(table, packed_gcd, lead_first)
            assert helpers.packed_divides(table, lead_first, packed_lcm)


@st.composite
def pair_tables(draw):
    """A table of up to 7 rows under any order, over Q or GF(7), with
    weight overrides, some rows appended after it was built (which may
    widen its layout), and a degree bound."""
    overrides = draw(
        st.dictionaries(st.integers(1, 40), st.integers(1, 6), max_size=3)
    )
    ctx = RingContext(
        draw(st.sampled_from(helpers.ALL_ORDERS)),
        WeightedAlphabet.with_weights(overrides),
        draw(st.sampled_from([None, GF(7)])),
    )
    rows = draw(
        st.lists(
            helpers.nonzero_polynomials(ctx, max_index=40, max_exponent=9),
            min_size=1,
            max_size=7,
        )
    )
    built = draw(st.integers(0, len(rows)))
    table = DivisorTable(ctx, rows[:built])
    for g in rows[built:]:
        table.append(g)
    degrees = [g.lm().degree(ctx.weights) for g in rows]
    bound = draw(st.integers(0, 2 * max(degrees)))
    return table, bound


class TestPairsOf:
    """`DivisorTable.pairs_of` lists the pairs of each row with the rows
    before it against the `Monomial` oracle (`Monomial.lcm`, the weighted
    degree, coprime by support): the pairs inside the bound, in increasing
    i, and the count of those beyond it, with coprime pairs listed or
    left out."""

    @settings(max_examples=150)
    @given(case=pair_tables())
    def test_matches_the_monomial_oracle(self, case):
        table, bound = case
        for j in range(len(table.divisors)):
            for coprime in (False, True):
                assert table.pairs_of(j, bound, coprime) == (
                    helpers.reference_pairs_of(table, j, bound, coprime)
                )

    def test_coprime_pairs_are_listed_only_when_asked(self):
        # Leads x1^2, x3*x4 and x1*x3 of weighted degrees 2, 7 and 4: the
        # first two are coprime, with lcm degree 9.
        table = DivisorTable(HARL, [poly("x1^2"), poly("x3*x4"), poly("x1*x3")], 9)
        listed, beyond = table.pairs_of(2, 8, True)
        assert [pair[:3] for pair in listed] == [(5, 0, 2), (8, 1, 2)] and beyond == 0
        assert table.pairs_of(1, 9, False) == ([], 0)
        coprime = (9, 0, 1, table._leads[0] + table._leads[1])
        assert table.pairs_of(1, 9, True) == ([coprime], 0)
        assert table.pairs_of(1, 8, True) == ([], 1)
        assert table.pairs_of(2, 6, True) == ([listed[0]], 1)


@st.composite
def spair_work_tables(draw, order, field, relation):
    """A table of two rows under `order`, with weight overrides, over
    `field`.  Each row is c * lead + 1 * m_1 + t_2 * m_2 + ... over distinct
    monomials, lead the largest, so over Q its row keeps the leading
    coefficient |c|: with `relation` "equal" both rows draw one c from 2, 3
    and 6 (with either sign), with "unequal" two different ones from 2, 3,
    4 and 6.  The table is laid out for its rows alone, below most lcm
    degrees, or for twice their largest degree, as a window lays it out."""
    ctx = RingContext(
        order,
        WeightedAlphabet.with_weights(
            draw(st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=2))
        ),
        field,
    )
    key = sort_key(ctx.order, ctx.weights)
    if relation == "equal":
        leads = [draw(st.sampled_from([2, 3, 6]))] * 2
    else:
        leads = draw(st.permutations([2, 3, 4, 6]))[:2]
    rows = []
    for c in leads:
        ms = draw(
            st.lists(
                helpers.monomials(max_index=6, max_exponent=5),
                min_size=2,
                max_size=4,
                unique=True,
            )
        )
        ms.sort(key=key, reverse=True)
        tail = draw(st.lists(st.integers(-6, 6).filter(bool), min_size=len(ms) - 2,
                             max_size=len(ms) - 2))
        sign = draw(st.sampled_from([1, -1]))
        rows.append(
            Polynomial.from_terms(ctx, list(zip([sign * c, 1, *tail], ms)))
        )
    degree = draw(st.sampled_from([0, 2 * max(g.weighted_degree() for g in rows)]))
    return DivisorTable(ctx, rows, degree)


def spair_work_polynomial(table, i, j):
    """The work dict of `DivisorTable._spair_work` for the pair (i, j),
    given the job `pairs_of` lists for it, over its scale and decoded in
    the layout the build leaves; with the degree and own rows it returns."""
    (job,) = [pair for pair in table.pairs_of(j, math.inf, True)[0] if pair[1] == i]
    table._stale = False  # as `spair_remainders` begins a stream
    work, scale, degree, own = table._spair_work(*job)
    p = table._modulus
    terms = sorted((k, c) for k, c in work.items() if p is None or c % p)
    return table._polynomial([(c, k, scale) for k, c in terms]), degree, own


class TestSpairWork:
    """`DivisorTable._spair_work` builds an S-pair's work dict from its two
    rows: over its scale it is `s_polynomial(g_i, g_j)` packed in the
    table's layout, which the build first widens when the pair needs it
    (past the lcm degree under a homogeneous order, past the rows'
    exponents under `plex`).  Equal leading coefficients take no gcd."""

    @pytest.mark.parametrize(
        "field, relation",
        [(None, "equal"), (None, "unequal"), (GF(7), "any")],
        ids=["Q-equal", "Q-unequal", "GF7"],
    )
    @pytest.mark.parametrize("order", helpers.ALL_ORDERS, ids=str)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_work_over_scale_is_the_s_polynomial(self, order, field, relation, data):
        table = data.draw(spair_work_tables(order, field, relation))
        g_i, g_j = table.divisors
        if field is None:
            lc_i, lc_j = table._rows[0][1], table._rows[1][1]
            assert min(lc_i, lc_j) > 1 and (lc_i == lc_j) == (relation == "equal")
        work, degree, own = spair_work_polynomial(table, 0, 1)
        assert work == s_polynomial(g_i, g_j)
        assert degree == g_i.lm().lcm(g_j.lm()).degree(table.context.weights)
        coprime = helpers.coprime(g_i.lm(), g_j.lm())
        assert own == (((0, table._leads[0]), (1, table._leads[1])) if coprime else ())

    @pytest.mark.parametrize("order", helpers.ALL_ORDERS, ids=str)
    def test_the_build_widens_the_layout(self, order):
        # The rows fit fields of capacity 3, and the S-polynomial holds
        # x1^4: x1 times the tail x1^3 under a homogeneous order, whose lcm
        # x1*x2*x3 has degree 6; under `plex` the leads are x2 and x1*x2,
        # and x1^4 is within the bound, lead exponent 1 plus exponent 3.
        context = RingContext(order)
        texts = ("x2*x3 + x1^3", "x1*x2 - x1^2")
        if not order.homogeneous:
            texts = ("x2 + x1^3", "x1*x2 - x1")
        divisors = [parse_polynomial(text, context) for text in texts]
        table = DivisorTable(context, divisors)
        assert table._capacity == 3
        work, _, _ = spair_work_polynomial(table, 0, 1)
        assert table._width > 3
        assert work == s_polynomial(*divisors)
        assert Monomial.variable(1, 4) in [m for _, m in work.terms]


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
                    expected = spair_expected(divisors, i, j)
                    assert table._polynomial(one_pair_remainder(table, i, j)) == expected
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
        assert lc == 1 and [c for c, _ in tail] == [7 - 2 * 5 % 7]

    @pytest.mark.parametrize("field", [None, GF(7)], ids=str)
    def test_the_loop_sees_only_integers(self, field, monkeypatch):
        ctx = RingContext(OrderKind.HOM_REV_LEX, field=field)
        stream = DivisorTable._stream
        calls = []

        def checked(self, build, jobs, record=False):
            def checked_build(*job):
                work, scale, degree, own = build(*job)
                assert all(type(c) is int for c in work.values())
                assert type(scale) is int
                assert all(type(x) is int for row in own for x in row)
                return work, scale, degree, own

            for outcome in stream(self, checked_build, jobs, record):
                for c, _, s in outcome[0]:
                    assert type(c) is int and type(s) is int
                for terms in (outcome[1] or {}).values():
                    assert all(type(q) is int and type(s) is int for q, _, s in terms)
                calls.append(outcome)
                yield outcome

        monkeypatch.setattr(DivisorTable, "_stream", checked)
        divisors = [
            parse_polynomial("-2/3*x1^2 + 5*x1*x2 - 1/5*x2^2", ctx),
            parse_polynomial("3*x2^2 - 1/2*x1*x3", ctx),
        ]
        f = parse_polynomial("1/4*x1^4 - 5/6*x1^2*x2^2 + x3^4", ctx)
        assert divide(f, divisors) == helpers.reference_divide(f, divisors)
        table = DivisorTable(ctx, divisors)
        expected = remainder(s_polynomial(*divisors), divisors)
        assert table._polynomial(one_pair_remainder(table, 0, 1)) == expected
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
