"""Buchberger completion, reduced bases, filtrations and regularity."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from infinigb import groebner, index_sets
from infinigb.division import DivisorTable, is_member, remainder
from infinigb.errors import (
    CertificationError,
    HomogeneityError,
    InfinigbError,
    InputError,
    OrderKindError,
    RingContextMismatch,
    WindowError,
)
from infinigb.groebner import (
    Certificate,
    GroebnerBasis,
    IdealPresentation,
    TruncationWindow,
    assemble_filtration,
    bayer_stillman_basis,
    buchberger_truncated,
    check_fr_condition,
    is_reduced_set,
    purelex_restriction_check,
    reduce_basis,
    stabilized_reduced_basis,
    _canonical_sorted,
    verify_buchberger,
)
from infinigb.monomials import (
    DEFAULT_WEIGHTS,
    Monomial,
    OrderKind,
    WeightedAlphabet,
)
from infinigb.partitions import FamilySpec, check_partition, enumerate_family
from infinigb.series import TruncatedSeries
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


def substitution_presentation(parts, p, order=OrderKind.HOM_ANTI_REV_LEX):
    return IdealPresentation.power_substitution(parts, p, order)


class TestBuchberger:
    def test_singleton_passes_vacuously(self):
        basis = buchberger_truncated([poly("x1^2 - x2")], TruncationWindow(2, 8))
        assert basis.elements == (poly("x1^2 - x2"),)
        assert basis.certificate is Certificate.BUCHBERGER_VERIFIED

    def test_coprime_pair_left_unchanged(self):
        gens = [poly("x1^2 - x2"), poly("x2^2 - x4")]
        basis = buchberger_truncated(gens, TruncationWindow(4, 8))
        assert set(basis.elements) == set(gens)
        fast = bayer_stillman_basis(gens, window=TruncationWindow(4, 8))
        assert fast is not None
        assert set(fast.elements) == set(basis.elements)

    def test_generators_from_two_contexts_are_rejected(self):
        with pytest.raises(RingContextMismatch):
            buchberger_truncated(
                [poly("x1^2 - x2"), poly("x2^2 - x1", PLEX)], TruncationWindow(2, 8)
            )

    def test_elimination_pair_traced_by_hand(self):
        f = poly("x2 - x1^2", PLEX)
        g = poly("x3 - x1^3", PLEX)
        s = s_polynomial(f, g)
        assert s == poly("-x1^2*x3 + x1^3*x2", PLEX)
        assert remainder(s, [f, g]).is_zero
        basis = buchberger_truncated([f, g], TruncationWindow(3, 8))
        assert set(basis.elements) == {f, g}

    def test_completion_adds_elements(self):
        # lm's x1*x2 and x2^2 share x2, so the S-pair is essential.
        gens = [poly("x1*x2 - x3"), poly("x2^2 - x4")]
        basis = buchberger_truncated(gens, TruncationWindow(4, 12))
        assert len(basis.elements) > 2
        assert verify_buchberger(basis)

    def test_generator_outside_window_rejected(self):
        with pytest.raises(WindowError):
            buchberger_truncated([poly("x5")], TruncationWindow(4, 8))
        with pytest.raises(WindowError):
            buchberger_truncated([poly("x1^9")], TruncationWindow(4, 8))
        with pytest.raises(WindowError):
            buchberger_truncated([Polynomial.zero(HARL)], TruncationWindow(4, 8))

    def test_empty_generators_need_context(self):
        with pytest.raises(ValueError):
            buchberger_truncated([], TruncationWindow(2, 2))
        basis = buchberger_truncated([], TruncationWindow(2, 2), context=HARL)
        assert basis.elements == ()

    def test_random_ideals_reverify(self):
        rng = random.Random(409)
        window = TruncationWindow(3, 14)
        for _ in range(10):
            ctx = RingContext(rng.choice(helpers.HOMOGENEOUS_ORDERS))
            gens = [
                helpers.random_polynomial(rng, ctx, max_var=3, max_degree=5,
                                          max_terms=2)
                for _ in range(rng.randint(1, 3))
            ]
            basis = buchberger_truncated(gens, window, context=ctx)
            assert verify_buchberger(basis)


class TestReduceBasis:
    def test_idempotent_on_reduced_input(self):
        gens = [poly("x1^2 - x2"), poly("x2^2 - x4")]
        basis = buchberger_truncated(gens, TruncationWindow(4, 8))
        once = reduce_basis(basis)
        assert once.reduced
        assert reduce_basis(once).elements == once.elements

    def test_interreduction_splits_generators(self):
        basis = buchberger_truncated(
            [poly("x1^2 - x2"), poly("x1^2")], TruncationWindow(2, 6)
        )
        red = reduce_basis(basis)
        assert set(red.elements) == {poly("x1^2"), poly("x2")}
        assert red.reduced
        # Same span both ways: each side reduces to zero against the other.
        certified = bayer_stillman_basis(list(red.elements))
        assert is_member(poly("x1^2 - x2"), certified)
        assert is_member(poly("x1^2"), certified)
        for g in red.elements:
            assert remainder(g, basis.elements).is_zero

    def test_monic_normalization(self):
        basis = buchberger_truncated(
            [poly("2*x1^2 - 2*x2")], TruncationWindow(2, 4)
        )
        red = reduce_basis(basis)
        assert red.elements == (poly("x1^2 - x2"),)

    def test_unique_across_generator_shuffles(self):
        gens = [
            poly("x1*x2 - x3"),
            poly("x2^2 - x4"),
            poly("x1^2 - x2"),
        ]
        window = TruncationWindow(4, 14)
        reference = reduce_basis(buchberger_truncated(gens, window))
        rng = random.Random(11)
        for _ in range(10):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            again = reduce_basis(buchberger_truncated(shuffled, window))
            assert again.elements == reference.elements


def random_homogeneous_generators(rng, context, count):
    """Homogeneous generators over x1..x4 under the default grading, so a
    windowed completion is a Groebner base up to the degree bound."""
    gens = []
    while len(gens) < count:
        choices = helpers.monomials_of_degree(rng.randint(2, 6), variables=range(1, 5))
        g = Polynomial.from_terms(
            context,
            [(rng.choice([-3, -1, 1, 2]), rng.choice(choices)) for _ in range(3)],
        )
        if not g.is_zero:
            gens.append(g)
    return gens


def random_plex_binomials(rng, context):
    """Two or three binomials over x1..x3 of degree at most 4, whose plex
    completions in the window (3, 4) often discard a remainder."""
    gens = []
    while len(gens) < rng.randint(2, 3):
        g = Polynomial.from_terms(
            context,
            [
                (1, helpers.random_monomial(rng, 3, 4)),
                (-1, helpers.random_monomial(rng, 3, 4)),
            ],
        )
        if not g.is_zero:
            gens.append(g)
    return gens


class TestReduceBasisAgainstReference:
    """Minimalize-then-tail-reduce equals the repeated interreduction kept
    in tests/helpers.py, on certified input and on completions that
    discarded a remainder."""

    @pytest.mark.parametrize("n, degree", [(10, 20), (20, 40), (30, 60)])
    def test_family_f_windows(self, n, degree):
        presentation = helpers.family_f(HARL)
        window = TruncationWindow(n, degree)
        basis = buchberger_truncated(
            presentation.instantiate(window), window, context=HARL
        )
        reduced = reduce_basis(basis)
        assert reduced == helpers.reference_reduce_basis(basis)
        assert reduced.reduced

    @pytest.mark.parametrize("field", [None, GF(7)], ids=str)
    @pytest.mark.parametrize(
        "order", [OrderKind.HOM_REV_LEX, OrderKind.HOM_LEX], ids=str
    )
    def test_homogenized_cyclic5(self, order, field):
        context, gens = helpers.cyclic5_homogenized(order, field)
        basis = buchberger_truncated(gens, TruncationWindow(6, 12), context=context)
        reduced = reduce_basis(basis)
        assert reduced == helpers.reference_reduce_basis(basis)
        assert len(reduced.elements) < len(basis.elements)

    @pytest.mark.parametrize("field", [None, GF(2), GF(7)], ids=str)
    def test_random_generators(self, field):
        rng = random.Random(6007)
        for k in range(40):
            order = helpers.HOMOGENEOUS_ORDERS[k % 4]
            context = RingContext(order, field=field)
            gens = random_homogeneous_generators(rng, context, rng.randint(1, 4))
            basis = buchberger_truncated(
                gens, TruncationWindow(4, 10), context=context
            )
            assert reduce_basis(basis) == helpers.reference_reduce_basis(basis)

    def test_plex_completion_that_discarded_a_remainder(self):
        # The S-pair remainder x1^6 - x1 leaves the window, so x2^2 - x1 is
        # not a multiple of x2 - x1^3 modulo the output and must not drop;
        # the output is no Groebner base of the window, so only asserted.
        basis = buchberger_truncated(
            [poly("x2 - x1^3", PLEX), poly("x2^2 - x1", PLEX)],
            TruncationWindow(2, 4),
        )
        assert basis.discarded_elements == 1
        assert basis.certificate is Certificate.ASSERTED
        reduced = reduce_basis(basis)
        assert reduced == helpers.reference_reduce_basis(basis)
        assert reduced.elements == (poly("x1^6 - x1", PLEX), poly("x2 - x1^3", PLEX))
        assert reduced.certificate is Certificate.ASSERTED
        with pytest.raises(CertificationError):
            is_member(poly("x1^6 - x1", PLEX), reduced)

    @pytest.mark.parametrize("field", [None, GF(2), GF(7)], ids=str)
    def test_random_plex_binomials_keep_the_ideal(self, field):
        """Completions that discard remainders: the reduced set generates the
        same ideal, compared by the reduced bases of untruncated completions
        of the input and of the output."""
        context = RingContext(OrderKind.PURE_LEX, field=field)
        rng = random.Random(6011)
        wide = TruncationWindow(3, 40)
        checked = 0
        for _ in range(200):
            gens = random_plex_binomials(rng, context)
            basis = buchberger_truncated(gens, TruncationWindow(3, 4))
            if not basis.discarded_elements:
                assert basis.certificate is Certificate.BUCHBERGER_VERIFIED
                continue
            assert basis.certificate is Certificate.ASSERTED
            reduced = reduce_basis(basis)
            assert reduced == helpers.reference_reduce_basis(basis)
            full_in = buchberger_truncated(basis.elements, wide)
            full_out = buchberger_truncated(reduced.elements, wide)
            assert not (full_in.discarded_pairs or full_in.discarded_elements)
            assert not (full_out.discarded_pairs or full_out.discarded_elements)
            assert reduce_basis(full_in) == reduce_basis(full_out)
            checked += 1
        assert checked >= 8


def assert_matches_reference(basis, gens):
    """The pruned completion `basis` of `gens` against
    `helpers.reference_buchberger`: equal reduced bases, certificates and
    window discards."""
    reference = helpers.reference_buchberger(
        gens, basis.window, context=basis.context
    )
    reduced, expected = reduce_basis(basis), reduce_basis(reference)
    assert reduced.elements == expected.elements
    assert reduced.certificate is expected.certificate
    assert basis.discarded_pairs == reference.discarded_pairs
    assert basis.discarded_elements == reference.discarded_elements


def assert_completion_matches_reference(gens, window, context):
    basis = buchberger_truncated(gens, window, context=context)
    assert_matches_reference(basis, gens)
    return basis


def spy_on_spairs(monkeypatch, seen):
    """Call `seen(table, pair)` on each (lcm degree, i, j, lcm) pair that
    `DivisorTable.spair_remainders` reads, a one-pair stream's included,
    as the stream reads it: just before reducing it."""
    real = DivisorTable.spair_remainders

    def spy(self, pairs):
        def watched():
            for pair in pairs:
                seen(self, pair)
                yield pair

        return real(self, watched())

    monkeypatch.setattr(DivisorTable, "spair_remainders", spy)


def count_spair_reductions(monkeypatch):
    """Count the S-pairs reduced through `DivisorTable.spair_remainders`."""
    calls = []
    spy_on_spairs(monkeypatch, lambda table, pair: calls.append(pair[1:3]))
    return calls


def count_layouts(monkeypatch):
    """Count the layouts `DivisorTable` packs its rows in."""
    calls = [0]
    real = DivisorTable._layout

    def spy(self, variables, width):
        calls[0] += 1
        return real(self, variables, width)

    monkeypatch.setattr(DivisorTable, "_layout", spy)
    return calls


def cyclic5h_6_12(order):
    context, gens = helpers.cyclic5_homogenized(order)
    return context, gens, TruncationWindow(6, 12)


def family_f_window(n, degree):
    window = TruncationWindow(n, degree)
    return HARL, helpers.family_f(HARL).instantiate(window), window


class TestPairCriteriaAgainstReference:
    """Completion drops the new pairs that the Gebauer-Moeller criteria M
    and F make redundant, and still gives the reduced base, certificate
    and window discards of the criterion-free loop kept in
    tests/helpers.py."""

    @pytest.mark.parametrize("n, degree", [(10, 20), (20, 40), (30, 60)])
    def test_family_f_windows(self, n, degree):
        context, gens, window = family_f_window(n, degree)
        assert_completion_matches_reference(gens, window, context)

    @pytest.mark.parametrize("field", [None, GF(7)], ids=str)
    @pytest.mark.parametrize(
        "order", [OrderKind.HOM_REV_LEX, OrderKind.HOM_LEX], ids=str
    )
    def test_homogenized_cyclic5(self, order, field):
        context, gens = helpers.cyclic5_homogenized(order, field)
        assert_completion_matches_reference(
            gens, TruncationWindow(6, 12), context
        )

    @pytest.mark.parametrize("field", [None, GF(2), GF(7)], ids=str)
    def test_random_generators(self, field, monkeypatch):
        # The inputs of TestReduceBasisAgainstReference.test_random_generators.
        rng = random.Random(6007)
        calls = count_spair_reductions(monkeypatch)
        pruned = discarding = 0
        for k in range(40):
            order = helpers.HOMOGENEOUS_ORDERS[k % 4]
            context = RingContext(order, field=field)
            gens = random_homogeneous_generators(rng, context, rng.randint(1, 4))
            calls.clear()
            basis = buchberger_truncated(
                gens, TruncationWindow(4, 10), context=context
            )
            reductions = len(calls)
            calls.clear()
            assert_matches_reference(basis, gens)
            pruned += reductions < len(calls)
            discarding += basis.discarded_pairs > 0
        assert pruned >= 5 and discarding >= 5, (pruned, discarding)

    @pytest.mark.parametrize("field", [None, GF(2), GF(7)], ids=str)
    def test_random_plex_binomials(self, field, monkeypatch):
        # The inputs of TestReduceBasisAgainstReference's plex binomials.
        # A plex remainder may leave the window, so no pair is pruned.
        context = RingContext(OrderKind.PURE_LEX, field=field)
        rng = random.Random(6011)
        calls = count_spair_reductions(monkeypatch)
        asserted = 0
        for _ in range(200):
            gens = random_plex_binomials(rng, context)
            calls.clear()
            basis = buchberger_truncated(gens, TruncationWindow(3, 4))
            reductions = len(calls)
            calls.clear()
            assert_matches_reference(basis, gens)
            assert reductions == len(calls)
            asserted += basis.certificate is Certificate.ASSERTED
        assert asserted >= 8

    def test_pairs_beyond_the_window_are_counted_before_pruning(self):
        # The pair of x1*x3^3 and x1*x2 has lcm degree 12, beyond the
        # window, and the kept pair of x1 and x1*x2 has an lcm dividing its
        # own: it is discarded and counted, not pruned.
        gens = [poly("x1*x3^3"), poly("x1"), poly("x1*x2")]
        window = TruncationWindow(3, 11)
        basis = assert_completion_matches_reference(gens, window, HARL)
        assert basis.discarded_pairs == 1

    @pytest.mark.parametrize(
        "build, pruned, unpruned",
        [
            (lambda: cyclic5h_6_12(OrderKind.HOM_LEX), 61, 233),
            (lambda: cyclic5h_6_12(OrderKind.HOM_REV_LEX), 24, 67),
            (lambda: family_f_window(40, 80), 1306, 1650),
        ],
        ids=["cyclic5h-hlex", "cyclic5h-hrevlex", "family-f-40-80"],
    )
    def test_spair_reductions_are_pinned(self, build, pruned, unpruned, monkeypatch):
        context, gens, window = build()
        calls = count_spair_reductions(monkeypatch)
        buchberger_truncated(gens, window, context=context)
        assert len(calls) == pruned
        calls.clear()
        helpers.reference_buchberger(gens, window, context=context)
        assert len(calls) == unpruned
        assert pruned < unpruned


class TestVerifyBuchberger:
    """`verify_buchberger` reduces every pair inside the window, so sets
    that are not Groebner bases fail it."""

    def test_uncompleted_family_f_window_fails(self):
        window = TruncationWindow(10, 20)
        gens = helpers.family_f(HARL).instantiate(window)
        claimed = GroebnerBasis(
            HARL, tuple(gens), window, Certificate.ASSERTED
        )
        assert not verify_buchberger(claimed)
        assert verify_buchberger(buchberger_truncated(gens, window, context=HARL))

    @pytest.mark.parametrize(
        "order", [OrderKind.HOM_REV_LEX, OrderKind.HOM_LEX], ids=str
    )
    def test_uncompleted_homogenized_cyclic5_fails(self, order):
        context, gens = helpers.cyclic5_homogenized(order)
        window = TruncationWindow(6, 12)
        claimed = GroebnerBasis(
            context, tuple(gens), window, Certificate.ASSERTED
        )
        assert not verify_buchberger(claimed)
        assert verify_buchberger(buchberger_truncated(gens, window, context=context))

    @pytest.mark.parametrize("dropped", ["x1*x2 - x3", "x5*x7 - x3*x9"])
    def test_stops_at_the_first_nonzero_remainder(self, dropped, monkeypatch):
        # The reduced Family F base of (12, 24) less one element is not a
        # Groebner base: some in-window pair leaves a remainder, and no
        # pair after it is reduced.
        window = TruncationWindow(12, 24)
        gens = helpers.family_f(HARL).instantiate(window)
        basis = reduce_basis(buchberger_truncated(gens, window, context=HARL))
        elements = tuple(g for g in basis.elements if str(g) != dropped)
        assert len(elements) == len(basis.elements) - 1
        leads = [g.lm() for g in elements]
        in_window = sum(
            leads[i].lcm(leads[j]).degree(HARL.weights) <= window.degree_bound
            for j in range(len(leads))
            for i in range(j)
        )
        calls = count_spair_reductions(monkeypatch)
        claimed = GroebnerBasis(HARL, elements, window, Certificate.ASSERTED)
        assert not verify_buchberger(claimed)
        assert 0 < len(calls) < in_window

    @pytest.mark.parametrize(
        "order, weights, field, degree_bound",
        [
            (OrderKind.HOM_ANTI_REV_LEX, DEFAULT_WEIGHTS, None, 24),
            (
                OrderKind.HOM_ANTI_REV_LEX,
                WeightedAlphabet.with_weights({4: 3, 9: 6}),
                None,
                16,
            ),
            (OrderKind.HOM_ANTI_REV_LEX, DEFAULT_WEIGHTS, GF(7), 24),
            (OrderKind.PURE_LEX, DEFAULT_WEIGHTS, None, 11),
        ],
        ids=["d_i=i", "overrides", "GF(7)", "plex"],
    )
    def test_reduces_exactly_the_in_window_pairs(
        self, order, weights, field, degree_bound, monkeypatch
    ):
        # Criterion-free: every pair whose lcm degree, computed here with
        # Monomial arithmetic, is within the bound is reduced once, coprime
        # or not, and no other pair is; the pairs come in order of lcm
        # degree, so the reducer cache serves one degree slice at a time.
        context = RingContext(order, weights, field)
        if order is OrderKind.PURE_LEX:
            # Family F's plex base has coprime leads only; this one has
            # both kinds, and its verification widens the layout.
            window = TruncationWindow(3, degree_bound)
            gens = [
                poly(text, context)
                for text in ("x3 - x1^3", "x2*x3 - x1", "x2^2 - x3")
            ]
        else:
            window = TruncationWindow(12, degree_bound)
            gens = helpers.family_f(context).instantiate(window)
        basis = reduce_basis(buchberger_truncated(gens, window, context=context))
        reduced = []
        degrees = []

        def seen(table, pair):
            degree, i, j, lcm = pair
            reduced.append((i, j))
            degrees.append(degree)
            if table._homogeneous:
                # The carried lcm is the one Monomial arithmetic gives, in
                # the current layout; plex takes its own.
                g_i, g_j = table.divisors[i], table.divisors[j]
                assert lcm == table._packed(g_i.lm().lcm(g_j.lm()))

        spy_on_spairs(monkeypatch, seen)
        layouts = count_layouts(monkeypatch)
        assert verify_buchberger(basis)
        leads = basis.leading_monomials()
        expected = [
            (i, j)
            for j in range(len(leads))
            for i in range(j)
            if leads[i].lcm(leads[j]).degree(weights) <= window.degree_bound
        ]
        assert len(set(reduced)) == len(reduced)
        assert set(reduced) == set(expected)
        # Each pair gets the lcm degree the window test read.
        assert degrees == [
            leads[i].lcm(leads[j]).degree(weights) for i, j in reduced
        ]
        assert degrees == sorted(degrees)
        coprime = [(i, j) for i, j in expected if helpers.coprime(leads[i], leads[j])]
        assert 0 < len(coprime) < len(expected) < len(leads) * (len(leads) - 1) // 2
        # Building the table lays it out once, for the window; only plex
        # widens it after that.
        assert (layouts[0] > 1) == (order is OrderKind.PURE_LEX)


class TestReducedSetAgainstReference:
    """The packed reduced-set test equals the monomial loop kept in
    tests/helpers.py, on random monic sets (mostly not reduced), on their
    interreductions (reduced) and on non-monic sets."""

    @pytest.mark.parametrize("field", [None, GF(2), GF(7)], ids=str)
    @pytest.mark.parametrize("order", helpers.ALL_ORDERS, ids=str)
    def test_random_sets(self, order, field):
        rng = random.Random(6029)
        context = RingContext(order, field=field)
        high = {1: 200, 2: 3, 3: 131, 4: 64, 5: 1}
        outcomes = []
        for k in range(40):
            gens = [
                helpers.random_polynomial(
                    rng, context, max_var=5, max_degree=8, max_terms=4
                )
                for _ in range(rng.randint(1, 4))
            ]
            if k % 2:
                gens = [
                    Polynomial.from_terms(
                        context,
                        [
                            (c, Monomial.from_pairs((high[i], e) for i, e in m.exps))
                            for c, m in g.terms
                        ],
                    )
                    for g in gens
                ]
            monic = [g.monic() for g in gens]
            claimed = GroebnerBasis(
                context, tuple(monic), TruncationWindow(200, 1600),
                Certificate.ASSERTED,
            )
            reduced = list(reduce_basis(claimed).elements)
            # The reduced set out of order, and with a constant element, an
            # element itself, an equal copy of it or another element on its
            # lead put in somewhere.
            picked = reduced[k % len(reduced)]
            terms = picked.terms
            constant = Polynomial.from_monomial(context, Monomial.one())
            cut = k % (len(reduced) + 1)
            inserted = [
                [*reduced[:cut], g, *reduced[cut:]]
                for g in (
                    constant,
                    picked,
                    Polynomial(context, terms),
                    Polynomial(context, terms[:1]),
                )
            ]
            for elements in (
                gens, monic, reduced, reduced[::-1], *inserted, [constant]
            ):
                expected = helpers.reference_is_reduced_set(elements)
                assert is_reduced_set(elements) == expected
                outcomes.append(expected)
        assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20


    @pytest.mark.parametrize("field", [None, GF(7)], ids=str)
    @pytest.mark.parametrize("order", helpers.ALL_ORDERS, ids=str)
    def test_pairwise_coprime_leads(self, order, field):
        # Leads are powers of distinct variables; each tail term uses only
        # smaller variables and a smaller degree, so it stays below the
        # lead under every order, and may or may not be divisible by
        # another lead.  A constant element sometimes joins the set.
        rng = random.Random(6043)
        context = RingContext(order, field=field)

        def tail_monomial(v, bound):
            while True:
                m = Monomial.from_pairs(
                    (rng.randint(1, v - 1), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 2) if v > 1 else 0)
                )
                if m.degree() < bound:
                    return m

        outcomes = []
        for k in range(60):
            variables = rng.sample(range(1, 13), rng.randint(1, 6))
            elements = []
            for v in variables:
                e = rng.randint(1, 3)
                lead = Monomial.variable(v, e)
                tail = [
                    (rng.choice([-2, -1, 1, 3]), tail_monomial(v, v * e))
                    for _ in range(rng.randint(0, 2))
                ]
                g = Polynomial.from_terms(context, [(1, lead)] + tail)
                assert g.lm() == lead
                elements.append(g.monic())
            if k % 10 == 0:
                elements.append(Polynomial.from_monomial(context, Monomial.one()))
            rng.shuffle(elements)
            expected = helpers.reference_is_reduced_set(elements)
            assert is_reduced_set(elements) == expected
            outcomes.append(expected)
        assert outcomes.count(True) >= 15 and outcomes.count(False) >= 15


class TestBayerStillman:
    def test_substitution_family_fast_path(self):
        pres = substitution_presentation(index_sets.PM1_MOD3, 2)
        window = TruncationWindow(12, 30)
        basis = bayer_stillman_basis(
            pres.instantiate(window), window=window, context=pres.context
        )
        assert basis is not None
        assert basis.certificate is Certificate.BAYER_STILLMAN
        assert basis.reduced
        assert {str(m) for m in basis.leading_monomials()} == {
            "x1^2", "x2^2", "x4^2", "x5^2",
        }

    def test_lex_variant_is_base_but_not_reduced(self):
        pres = substitution_presentation(index_sets.PM1_MOD3, 2, OrderKind.HOM_LEX)
        window = TruncationWindow(12, 30)
        basis = bayer_stillman_basis(
            pres.instantiate(window), window=window, context=pres.context
        )
        assert basis is not None
        assert {str(m) for m in basis.leading_monomials()} == {
            "x2", "x4", "x8", "x10",
        }
        assert not basis.reduced

    def test_shared_variable_not_applicable(self):
        gens = [poly("x1*x2 - 1", PLEX), poly("x2*x3", PLEX)]
        assert bayer_stillman_basis(gens) is None

    def test_generator_outside_window_rejected(self):
        # Checked before the shortcut, so leads that share a variable do
        # not hide it.
        window = TruncationWindow(4, 8)
        for gens in (
            [poly("x1^2 - x2"), poly("x5^2 - x10")],
            [poly("x1*x2 - x3"), poly("x2*x3 - x5")],
        ):
            with pytest.raises(WindowError, match="outside window"):
                bayer_stillman_basis(gens, window=window)

    def test_agreement_with_buchberger(self):
        gens = [poly("x1^2 - x2"), poly("x3^2 - x6"), poly("x5^2 - x10")]
        window = TruncationWindow(10, 20)
        fast = bayer_stillman_basis(gens, window=window)
        slow = buchberger_truncated(gens, window)
        assert set(fast.leading_monomials()) == set(slow.leading_monomials())


def closure_probe_accepts(parts, p):
    try:
        index_sets.probe_closure(parts, p)
    except InputError:
        return False
    return True


# The named index sets and a few `nondivQ`, with every exponent 2..5 the
# closure probe accepts for them.
SUBSTITUTION_FAMILIES = [
    (parts, p)
    for name in ["all", "odd", "pm1mod3", "pm1mod5", "pm1mod6",
                 *(f"nondiv{q}" for q in range(2, 8))]
    for parts in [index_sets.from_name(name)]
    for p in range(2, 6)
    if closure_probe_accepts(parts, p)
]


class TestCoprimeBasis:
    @pytest.mark.parametrize("order", list(OrderKind), ids=lambda o: o.value)
    def test_certifies_every_power_substitution_window(self, order):
        for parts, p in SUBSTITUTION_FAMILIES:
            pres = substitution_presentation(parts, p, order)
            for n in range(1, 13):
                for degree in range(1, 25):
                    window = TruncationWindow(n, degree)
                    basis = groebner.coprime_basis(pres, window)
                    assert basis.certificate is Certificate.BAYER_STILLMAN
                    assert basis.window == window

    def test_shared_lead_variable_raises(self):
        pres = IdealPresentation(
            HARL, generators=(poly("x1*x2 - x3"), poly("x2*x3 - x5"))
        )
        with pytest.raises(CertificationError, match="failed to certify"):
            groebner.coprime_basis(pres, TruncationWindow(5, 10))



class TestOneDivisibilityQuery:
    """Completion, interreduction, verification, the window scan, the
    filtration's coherence check and the reduced-set test ask the divisor
    table for lead divisibility; none tests it monomial by monomial, and
    none does monomial or polynomial arithmetic outside the table."""

    def test_no_monomial_divisibility_tests(self, monkeypatch):
        calls = []
        for owner, name in (
            (Monomial, "divides"),
            (Monomial, "try_divide"),
            (Monomial, "__mul__"),
            (Polynomial, "__add__"),
            (Polynomial, "__sub__"),
            (Polynomial, "times_term"),
        ):
            real = getattr(owner, name)

            def wrapped(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(owner, name, wrapped)

        family = helpers.family_f(HARL)
        window = TruncationWindow(20, 40)
        completed = buchberger_truncated(
            family.instantiate(window), window, context=HARL
        )
        interreduced = reduce_basis(completed)
        assert verify_buchberger(interreduced)
        windows = [TruncationWindow(n, 24) for n in range(1, 13)]
        scanned = list(groebner._window_bases(family, windows))
        union = assemble_filtration(family, windows[3::4])
        flags = [b.reduced for b in (completed, interreduced, *scanned, union)]
        assert calls == []
        assert flags[1:-1] == [True] * (len(flags) - 2)
        assert Monomial.variable(1).divides(Monomial.variable(1, 2))
        x1 = Polynomial.variable(HARL, 1)
        square = (x1 + x1 - x1).times_term(1, Monomial.variable(1))
        assert square == Polynomial.variable(HARL, 1, 2)
        assert calls == [
            "divides", "try_divide", "__add__", "__sub__", "times_term", "__mul__"
        ]


class TestScanWork:
    """One Family F scan (30, 60) calls the family rule once per index,
    packs a row only for each new generator or remainder and each carried
    row whose tail a new lead touches (76 and 8; the parent commit packed
    782 rows), and hashes a polynomial once per candidate and once per
    element of the three trailing windows (29 distinct candidates and
    3 x 61 elements; 1802 hashes and 465 rule calls at the parent)."""

    def test_family_f_scan_counts_are_pinned(self, monkeypatch):
        calls = {"rule": 0, "_pack_row": 0, "__hash__": 0}
        family = helpers.family_f(HARL).family

        def rule(i):
            calls["rule"] += 1
            return family(i)

        for owner, name in ((DivisorTable, "_pack_row"), (Polynomial, "__hash__")):
            real = getattr(owner, name)

            def wrapped(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, wrapped)

        scan = stabilized_reduced_basis(IdealPresentation(HARL, family=rule), 30, 60)
        assert scan.history == FAMILY_F_HISTORY_30_60
        assert calls == {"rule": 30, "_pack_row": 84, "__hash__": 212}


def paired_rule(i, ctx=HARL):
    """Equal members at the indices 2k - 1 and 2k: x_k*x_{k+1} - x_{2k+1}."""
    k = (i + 1) // 2
    return Polynomial.from_terms(
        ctx,
        ((1, Monomial.from_pairs(((k, 1), (k + 1, 1)))),
         (-1, Monomial.variable(2 * k + 1))),
    )


def tripling_rule(i, ctx=HARL):
    """x_i^2 - x_{3i}: inside the odd subring at every odd index, outside
    it at every even one."""
    return Polynomial.from_terms(
        ctx, ((1, Monomial.variable(i, 2)), (-1, Monomial.variable(3 * i)))
    )


def zero_at_five(i, ctx=HARL):
    """x_i*x_{i+1} - x_{2i+1}, but zero at index 5."""
    if i == 5:
        return Polynomial.zero(ctx)
    return helpers.family_f(ctx).family(i)


GENERATOR_PASS_RULES = {
    "family-f": helpers.family_f(HARL).family,
    "paired": paired_rule,
    "tripling": tripling_rule,
    "zero-at-five": zero_at_five,
    "none": None,
}
# Explicit generators: one equal to Family F's first member, one to the
# paired rule's, one only in a large window and one outside the odd subring.
EXPLICIT_GENERATORS = (
    "x1*x2 - x3", "x1^2 - x3", "x3*x7 - x2*x8", "x2*x4 - x3^2", "x1*x5 - x3^2",
)


@st.composite
def presentations(draw):
    rule = draw(st.sampled_from(sorted(GENERATOR_PASS_RULES)))
    texts = draw(st.lists(st.sampled_from(EXPLICIT_GENERATORS), unique=True, max_size=3))
    sets = [None, index_sets.ALL, index_sets.ODD, index_sets.PM1_MOD3]
    return IdealPresentation(
        HARL,
        generators=tuple(poly(text) for text in texts),
        family=GENERATOR_PASS_RULES[rule],
        variables=draw(st.sampled_from(sets)),
    )


@st.composite
def increasing_windows(draw):
    bounds = sorted(draw(st.lists(st.integers(1, 14), min_size=1, max_size=6, unique=True)))
    degrees = st.sampled_from([4, 8, 15, 30])
    return [TruncationWindow(n, draw(degrees)) for n in bounds]


class TestGeneratorPass:
    """The scan's one pass over a presentation's candidates gives every
    window the list that instantiating that window alone gives, and fails
    where it fails, with the same message."""

    @settings(max_examples=150, deadline=None)
    @given(presentation=presentations(), windows=increasing_windows())
    def test_per_window_lists_equal_instantiate(self, presentation, windows):
        expected = []
        failure = None
        for window in windows:
            try:
                listed = presentation.instantiate(window)
            except CertificationError as error:
                failure = str(error)
                with pytest.raises(CertificationError) as caught:
                    helpers.reference_instantiate(presentation, window)
                assert str(caught.value) == failure
                break
            assert listed == helpers.reference_instantiate(presentation, window)
            expected.append(listed)
        passed = []
        positions = {}
        try:
            for admitted in presentation._instantiations(windows):
                passed.append([g for _, g in admitted])
                # A candidate keeps its position in every window.
                for position, g in admitted:
                    assert positions.setdefault(position, g) is g
                assert [p for p, _ in admitted] == sorted(p for p, _ in admitted)
        except CertificationError as error:
            assert str(error) == failure
        else:
            assert failure is None
        assert passed == expected

    @pytest.mark.parametrize(
        "bounds",
        [
            [(n, 30) for n in range(1, 15)],
            [(n, (30, 15)[(n - 1) % 2]) for n in range(1, 15)],
            [(n, (15, 15, 30)[(n - 1) % 3]) for n in range(1, 15)],
            [(n, (9, 30, 30, 30)[(n - 1) % 4]) for n in range(1, 15)],
            [(n, 30) for n in (14, 9, 3, 12, 5, 1)],
        ],
        ids=["equal", "alternating", "rising", "one-change", "falling-var-bound"],
    )
    def test_every_window_admits_by_its_bounds(self, bounds):
        # Family F's candidate i is x_i*x_{i+1} - x_{2i+1}.  A window
        # admits exactly what instantiating it alone gives, whatever the
        # bounds of the windows before it.
        presentation = helpers.family_f(HARL)
        windows = [TruncationWindow(n, degree) for n, degree in bounds]
        lists = [
            [g for _, g in admitted]
            for admitted in presentation._instantiations(windows)
        ]
        expected = [helpers.reference_instantiate(presentation, w) for w in windows]
        assert lists == expected


class TestReducedIsDerived:
    """`GroebnerBasis.reduced` is read off the elements when asked for:
    building a base never tests reducedness, and the flag agrees with the
    oracle."""

    def test_no_construction_tests_reducedness(self, monkeypatch):
        calls = []

        def spy(owner, name):
            real = getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        spy(groebner, "is_reduced_set")

        hlex = RingContext(OrderKind.HOM_LEX)
        gens = [poly(t, hlex) for t in ("x1^2 - x2", "x1*x2 - x3", "2*x2^2 - x4")]
        completed = buchberger_truncated(gens, TruncationWindow(4, 8))
        interreduced = reduce_basis(completed)
        window = TruncationWindow(12, 30)
        certified = []
        for order in (OrderKind.HOM_ANTI_REV_LEX, OrderKind.HOM_LEX):
            pres = substitution_presentation(index_sets.PM1_MOD3, 2, order)
            certified.append(bayer_stillman_basis(
                pres.instantiate(window), window=window, context=pres.context
            ))
        family = helpers.family_f(HARL)
        stabilized_reduced_basis(family, 8, 16)
        windows = [TruncationWindow(n, 16) for n in range(1, 9)]
        scanned = list(groebner._window_bases(family, windows))
        union = assemble_filtration(family, windows[3::4])
        assert calls == []

        results = [completed, interreduced, *certified, *scanned, union]
        flags = [basis.reduced for basis in results]
        assert flags == [
            helpers.reference_is_reduced_set(basis.elements) for basis in results
        ]
        # The hlex completion and the hlex substitution family are bases
        # that are not reduced; reading the flag is what tests it.
        assert flags[:4] == [False, True, True, False]
        assert calls.count("is_reduced_set") == len(results)


class TestFiltration:
    def test_substitution_family_windows(self):
        pres = substitution_presentation(index_sets.PM1_MOD3, 2)
        windows = [TruncationWindow(n, 24) for n in (4, 8, 12)]
        union = assemble_filtration(pres, windows)
        assert union.certificate is Certificate.ASSERTED
        expected = {
            poly("x1^2 - x2"), poly("x2^2 - x4"),
            poly("x4^2 - x8"), poly("x5^2 - x10"),
        }
        assert set(union.elements) == expected

    def test_constant_family_collapses(self):
        pres = IdealPresentation(HARL, generators=(poly("x1^2 - x2"),))
        windows = [TruncationWindow(n, 8) for n in (2, 3, 4)]
        union = assemble_filtration(pres, windows)
        single = reduce_basis(
            buchberger_truncated([poly("x1^2 - x2")], windows[0])
        )
        assert union.elements == single.elements

    def test_empty_ideal(self):
        pres = IdealPresentation(HARL)
        union = assemble_filtration(pres, [TruncationWindow(n, 4) for n in (1, 2)])
        assert union.elements == ()

    def test_windows_must_increase(self):
        pres = IdealPresentation(HARL, generators=(poly("x1^2 - x2"),))
        with pytest.raises(WindowError):
            assemble_filtration(
                pres, [TruncationWindow(4, 8), TruncationWindow(4, 8)]
            )


UNIT_WEIGHTS = WeightedAlphabet.with_weights({i: 1 for i in range(1, 6)})

COHERENCE_WEIGHTS = {
    "default": DEFAULT_WEIGHTS,
    "ones": WeightedAlphabet.with_weights({i: 1 for i in range(1, 10)}),
    "overrides": WeightedAlphabet.with_weights({3: 1, 7: 2}),
}
COHERENCE_VARIABLES = {"none": None, "odd": index_sets.ODD, "set": {1, 2, 4, 5, 7}}


@st.composite
def filtration_cases(draw):
    """Explicit generators over x1..x5, homogeneous or not, under a
    homogeneous order with default or unit weights, and windows strictly
    increasing in var_bound whose degree bounds rise and fall."""
    context = RingContext(
        draw(st.sampled_from(helpers.HOMOGENEOUS_ORDERS)),
        draw(st.sampled_from([DEFAULT_WEIGHTS, UNIT_WEIGHTS])),
    )
    homogeneous = draw(st.booleans())
    monomials = helpers.monomials(max_index=5, max_exponent=2, max_factors=2)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(
            st.lists(
                st.tuples(helpers.coefficients(), monomials), min_size=1, max_size=3
            )
        )
        if homogeneous:
            degree = terms[0][1].degree(context.weights)
            terms = [t for t in terms if t[1].degree(context.weights) == degree]
        g = Polynomial.from_terms(context, terms)
        if not g.is_zero:
            gens.append(g)
    var_bounds = draw(
        st.lists(st.integers(1, 6), min_size=2, max_size=4, unique=True).map(sorted)
    )
    windows = [TruncationWindow(n, draw(st.integers(1, 7))) for n in var_bounds]
    return IdealPresentation(context, generators=tuple(gens)), windows


def drop_shared_element(monkeypatch):
    """Make `_window_bases` leave out of the last window's base one element
    that the window before it also has."""
    window_bases = groebner._window_bases

    def dropped(presentation, windows):
        bases = list(window_bases(presentation, windows))
        earlier, later = bases[-2:]
        shared = next(g for g in later.elements if g in earlier.elements)
        bases[-1] = GroebnerBasis(
            later.context,
            tuple(g for g in later.elements if g != shared),
            later.window,
            later.certificate,
        )
        return iter(bases)

    monkeypatch.setattr(groebner, "_window_bases", dropped)


class TestFiltrationCoherence:
    """`assemble_filtration` checks that each window's base lies in the
    ideal of the next window's base when that window's degree bound is not
    lower, under the homogeneous orders."""

    @settings(max_examples=120)
    @given(case=filtration_cases())
    def test_correct_bases_pass(self, case):
        pres, windows = case
        union = assemble_filtration(pres, windows)
        reference = helpers.reference_window_bases(pres, windows)
        assert list(union.elements) == _canonical_sorted(
            [g for b in reference for g in b.elements], pres.context
        )

    @pytest.mark.parametrize("bounds", [(24, 24), (24, 30)])
    def test_a_base_missing_an_element_is_rejected(self, monkeypatch, bounds):
        drop_shared_element(monkeypatch)
        windows = [TruncationWindow(n, d) for n, d in zip((8, 12), bounds)]
        with pytest.raises(CertificationError) as info:
            assemble_filtration(helpers.family_f(HARL), windows)
        assert str(info.value) == (
            f"the base of the window {windows[0]} does not lie in the ideal "
            f"of the window {windows[1]}"
        )

    @pytest.mark.parametrize(
        "context, bounds, check",
        [(HARL, (30, 24), True), (HARL, (24, 24), False), (PLEX, (24, 24), True)],
        ids=["falling-degree-bound", "unchecked", "plex"],
    )
    def test_what_is_not_checked(self, monkeypatch, context, bounds, check):
        drop_shared_element(monkeypatch)
        windows = [TruncationWindow(n, d) for n, d in zip((8, 12), bounds)]
        assemble_filtration(helpers.family_f(context), windows, check_coherence=check)

    @pytest.mark.parametrize(
        "variables", COHERENCE_VARIABLES, ids=list(COHERENCE_VARIABLES)
    )
    @pytest.mark.parametrize("weights", COHERENCE_WEIGHTS, ids=list(COHERENCE_WEIGHTS))
    @pytest.mark.parametrize("order", helpers.HOMOGENEOUS_ORDERS, ids=lambda o: o.value)
    def test_verdicts_in_a_subring(self, monkeypatch, order, weights, variables):
        # Binomials on the subring's variables up to x7, homogeneous or not,
        # under weights that are the indices, all ones or the indices with
        # two overridden: every filtration passes with the reference union,
        # and once an element shared by both windows is dropped from the
        # later base it is rejected exactly when the degree bound does not
        # fall.
        context = RingContext(order, COHERENCE_WEIGHTS[weights])
        subring = COHERENCE_VARIABLES[variables]
        indices = [i for i in range(1, 8) if subring is None or i in subring]
        rng = random.Random(f"{order.value}/{weights}/{variables}")

        def monomial():
            return Monomial.from_pairs(
                (rng.choice(indices), rng.randint(1, 2))
                for _ in range(rng.randint(1, 2))
            )

        verdicts = []
        for trial in range(24):
            gens = [
                Polynomial.from_terms(context, [(1, monomial()), (-1, monomial())])
                for _ in range(rng.randint(2, 3))
            ]
            pres = IdealPresentation(
                context,
                generators=tuple(g for g in gens if not g.is_zero),
                variables=subring,
            )
            first = rng.randint(6, 12)
            step = rng.randint(0, 2) if trial % 2 else -rng.randint(1, 2)
            var_bounds = sorted(rng.sample(range(2, 8), 2))
            windows = [
                TruncationWindow(n, d)
                for n, d in zip(var_bounds, (first, first + step))
            ]
            union = assemble_filtration(pres, windows)
            earlier, later = helpers.reference_window_bases(pres, windows)
            assert list(union.elements) == _canonical_sorted(
                [*earlier.elements, *later.elements], context
            )
            if not set(earlier.elements) & set(later.elements):
                continue
            rising = windows[1].degree_bound >= windows[0].degree_bound
            with monkeypatch.context() as patch:
                drop_shared_element(patch)
                try:
                    assemble_filtration(pres, windows)
                    verdicts.append(False)
                except CertificationError:
                    verdicts.append(True)
            assert verdicts[-1] == rising, (gens, windows)
        assert set(verdicts) == {True, False}


class TestStabilization:
    def test_substitution_family_stabilizes(self):
        pres = substitution_presentation(index_sets.PM1_MOD3, 2)
        scan = stabilized_reduced_basis(pres, max_n=12, degree_bound=24)
        assert scan.stabilized
        assert scan.unstable == ()
        for g in scan.stable:
            monomials = g.monomials()
            assert len(monomials) == 2
            i, e = monomials[0].exps[0]
            assert e == 2 and monomials[1] == Monomial.variable(2 * i)

    def test_principal_ideal_stabilizes_to_monic_generator(self):
        pres = IdealPresentation(HARL, generators=(poly("2*x1^2 - 2*x2"),))
        scan = stabilized_reduced_basis(pres, max_n=6, degree_bound=8)
        assert scan.stabilized
        assert scan.stable == (poly("x1^2 - x2"),)

    def test_growing_family_is_flagged(self):
        def rule(i, ctx=HARL):
            return Polynomial.from_terms(
                ctx, [(1, Monomial.variable(j)) for j in range(1, i + 1)]
            )

        pres = IdealPresentation(HARL, family=rule)
        scan = stabilized_reduced_basis(pres, max_n=8, degree_bound=10)
        assert not scan.stabilized
        assert scan.unstable


# The Family F scan that `gb --family` and the hilbert-windows benchmark
# run, as computed by completing every window from scratch.
FAMILY_F_HISTORY_30_60 = (
    (1, 0), (2, 0), (3, 1), (4, 1), (5, 3), (6, 3), (7, 5), (8, 5),
    (9, 9), (10, 9), (11, 11), (12, 11), (13, 15), (14, 15), (15, 18),
    (16, 18), (17, 26), (18, 26), (19, 34), (20, 34), (21, 37), (22, 37),
    (23, 47), (24, 47), (25, 49), (26, 49), (27, 60), (28, 60), (29, 61),
    (30, 61),
)


def random_binomial_family(seed, context):
    """i -> x_i*x_{s(i)} - x_{i+s(i)} for a random shift s, homogeneous
    under d_i = i."""
    rng = random.Random(seed)
    shifts = {}

    def rule(i):
        s = shifts.setdefault(i, rng.randint(1, 3))
        return Polynomial.from_terms(
            context,
            (
                (1, Monomial.from_pairs(((i, 1), (s, 1)))),
                (-1, Monomial.variable(i + s)),
            ),
        )

    return IdealPresentation(context, family=rule)


HARL_GF7 = RingContext(OrderKind.HOM_ANTI_REV_LEX, field=GF(7))
HLEX = RingContext(OrderKind.HOM_LEX)

# (presentation, max_n, degree_bound): homogeneous input under homogeneous
# orders, the inputs whose windows carry their reduced base forward.
CARRIED_SCANS = {
    "family-f": lambda: (helpers.family_f(HARL), 16, 32),
    "family-f-gf7": lambda: (helpers.family_f(HARL_GF7), 16, 32),
    "family-f-hlex": lambda: (helpers.family_f(HLEX), 14, 28),
    "subst-pm1mod3-p2-harevlex": lambda: (
        substitution_presentation(index_sets.PM1_MOD3, 2), 12, 24
    ),
    "subst-pm1mod3-p2-hlex": lambda: (
        substitution_presentation(index_sets.PM1_MOD3, 2, OrderKind.HOM_LEX), 12, 24
    ),
    "subst-odd-p3-hlex": lambda: (
        substitution_presentation(index_sets.ODD, 3, OrderKind.HOM_LEX), 15, 30
    ),
    "subst-odd-p3-harevlex-gf7": lambda: (
        IdealPresentation.power_substitution(
            index_sets.ODD, 3, OrderKind.HOM_ANTI_REV_LEX, GF(7)
        ),
        15, 30,
    ),
    "explicit-and-family": lambda: (
        IdealPresentation(
            HARL,
            generators=(poly("x1*x3 - x2^2"), poly("x2*x5 - x3*x4")),
            family=helpers.family_f(HARL).family,
        ),
        12, 20,
    ),
    "random-binomials-1": lambda: (random_binomial_family(1, HARL), 12, 24),
    "random-binomials-2": lambda: (random_binomial_family(2, HLEX), 12, 24),
    "random-binomials-3": lambda: (random_binomial_family(3, HARL_GF7), 12, 24),
}


def growing_family():
    def rule(i, ctx=HARL):
        return Polynomial.from_terms(
            ctx, [(1, Monomial.variable(j)) for j in range(1, i + 1)]
        )

    return IdealPresentation(HARL, family=rule)


def plex_family():
    def rule(i, ctx=PLEX):
        return Polynomial.from_terms(
            ctx, ((1, Monomial.variable(i, 2)), (-1, Monomial.variable(i + 1)))
        )

    return IdealPresentation(
        PLEX, generators=(poly("x2^2 - x1", PLEX),), family=rule
    )


# Inputs that must complete every window from scratch.
SCRATCH_SCANS = {
    "non-homogeneous": lambda: (growing_family(), 8, 10),
    "plex": lambda: (plex_family(), 6, 8),
}


def spy_starts(monkeypatch):
    """Record the size of the carried base each completion starts from:
    the rows before the first new one."""
    starts = []
    complete = groebner._complete

    def spy(table, start, window):
        starts.append(start)
        return complete(table, start, window)

    monkeypatch.setattr(groebner, "_complete", spy)
    return starts


def assert_scan_matches(scan, reference, max_n):
    assert scan.history == tuple(
        (n, len(b.elements)) for n, b in enumerate(reference, start=1)
    )
    tail = [set(b.elements) for b in reference[max_n - 3 :]]
    stable = set.intersection(*tail)
    assert set(scan.stable) == stable
    assert set(scan.unstable) == set.union(*tail) - stable


class TestIncrementalWindows:
    def test_family_f_history_is_pinned(self, monkeypatch):
        starts = spy_starts(monkeypatch)
        scan = stabilized_reduced_basis(helpers.family_f(HARL), 30, 60)
        assert scan.history == FAMILY_F_HISTORY_30_60
        # Window n instantiates Family F's generators i <= (n - 1) / 2, so
        # only the first window and the odd n from 3 on are completed.
        assert len(starts) == 15

    @pytest.mark.parametrize("case", list(CARRIED_SCANS))
    def test_carried_bases_equal_scratch_bases_at_every_n(self, case, monkeypatch):
        pres, max_n, bound = CARRIED_SCANS[case]()
        windows = [TruncationWindow(n, bound) for n in range(1, max_n + 1)]
        reference = helpers.reference_window_bases(pres, windows)
        starts = spy_starts(monkeypatch)
        carried = list(groebner._window_bases(pres, windows))
        assert [b.elements for b in carried] == [b.elements for b in reference]
        assert [(b.window, b.certificate) for b in carried] == [
            (b.window, b.certificate) for b in reference
        ]
        assert all(b.reduced for b in carried)
        # Every window after the first that instantiates a new generator
        # starts from its predecessor's base; the others complete nothing.
        gens = [set(pres.instantiate(w)) for w in windows]
        grows = [bool(now - old) for old, now in zip(gens, gens[1:])]
        assert starts == [0] + [
            len(b.elements) for b, grew in zip(reference, grows) if grew
        ]
        assert_scan_matches(
            stabilized_reduced_basis(pres, max_n, bound), reference, max_n
        )

    @pytest.mark.parametrize("case", list(CARRIED_SCANS))
    def test_carried_filtration_equals_scratch_union(self, case):
        pres, max_n, bound = CARRIED_SCANS[case]()
        windows = [TruncationWindow(n, bound) for n in range(2, max_n + 1, 3)]
        reference = helpers.reference_window_bases(pres, windows)
        union = assemble_filtration(pres, windows)
        expected = _canonical_sorted(
            [g for b in reference for g in b.elements], pres.context
        )
        assert list(union.elements) == expected

    @pytest.mark.parametrize("case", list(SCRATCH_SCANS))
    def test_other_input_completes_each_window_from_scratch(self, case, monkeypatch):
        pres, max_n, bound = SCRATCH_SCANS[case]()
        windows = [TruncationWindow(n, bound) for n in range(1, max_n + 1)]
        reference = helpers.reference_window_bases(pres, windows)
        starts = spy_starts(monkeypatch)
        bases = list(groebner._window_bases(pres, windows))
        assert starts == [0] * max_n
        assert [b.elements for b in bases] == [b.elements for b in reference]
        assert_scan_matches(
            stabilized_reduced_basis(pres, max_n, bound), reference, max_n
        )
        union = assemble_filtration(pres, windows)
        assert list(union.elements) == _canonical_sorted(
            [g for b in reference for g in b.elements], pres.context
        )

    def test_a_new_degree_bound_restarts_the_filtration(self, monkeypatch):
        pres = substitution_presentation(index_sets.PM1_MOD3, 2)
        windows = [
            TruncationWindow(4, 16), TruncationWindow(8, 24), TruncationWindow(12, 24)
        ]
        reference = helpers.reference_window_bases(pres, windows)
        starts = spy_starts(monkeypatch)
        union = assemble_filtration(pres, windows)
        assert starts == [0, 0, len(reference[1].elements)]
        assert list(union.elements) == _canonical_sorted(
            [g for b in reference for g in b.elements], pres.context
        )


class TestPureLexRestriction:
    def test_empty_restriction_is_consistent(self):
        basis = buchberger_truncated([poly("x2 - x1^2", PLEX)], TruncationWindow(2, 8))
        assert purelex_restriction_check(basis, 1)

    def test_two_variable_restriction(self):
        gens = [poly("x1^2 - x2", PLEX), poly("x3", PLEX)]
        basis = buchberger_truncated(gens, TruncationWindow(3, 8))
        assert purelex_restriction_check(basis, 2)

    def test_trivially_true_beyond_all_variables(self):
        gens = [poly("x1^2 - x2", PLEX), poly("x3", PLEX)]
        basis = buchberger_truncated(gens, TruncationWindow(3, 8))
        assert purelex_restriction_check(basis, 3)

    def test_wrong_order_rejected(self):
        basis = buchberger_truncated([poly("x1^2 - x2")], TruncationWindow(2, 8))
        with pytest.raises(OrderKindError):
            purelex_restriction_check(basis, 1)

    def test_detects_non_base_restriction(self):
        # The restricted pair leaves an S-polynomial remainder x1 + x2, so a
        # merely asserted set fails the restriction verification.
        claimed = GroebnerBasis(
            PLEX,
            (poly("x1*x2 + 1", PLEX), poly("x2^2 - 1", PLEX)),
            TruncationWindow(2, 8),
            Certificate.ASSERTED,
        )
        assert not purelex_restriction_check(claimed, 2)


class TestStrictInclusionWitness:
    def test_restriction_of_elements_vs_restriction_of_leads(self):
        # One pinned witness: the element leaves k[x1] but its leading
        # monomial does not, so restricting the set loses the lead.
        basis = bayer_stillman_basis([poly("x1^2 - x2")])
        n = 1
        leads_of_restricted = {
            g.lm() for g in basis.elements if g.max_variable_index() <= n
        }
        restricted_leads = {
            g.lm() for g in basis.elements if g.lm().max_index() <= n
        }
        assert leads_of_restricted == set()
        assert restricted_leads == {Monomial.variable(1, 2)}
        assert leads_of_restricted < restricted_leads


class TestRegularity:
    def test_variables_are_regular(self):
        seq = [poly("x1"), poly("x2"), poly("x3")]
        assert check_fr_condition(seq, probe_degree=8)

    def test_elements_above_the_probe_degree_are_invisible(self):
        # x1^3 twice is no regular sequence, which only degree 3 shows.
        seq = [poly("x1^3"), poly("x1^3")]
        assert check_fr_condition(seq, probe_degree=2)
        assert not check_fr_condition(seq, probe_degree=3)

    def test_nilpotent_pattern_is_not(self):
        seq = [poly("x1"), poly("x1^2")]
        assert not check_fr_condition(seq, probe_degree=8)

    def test_substitution_prefix_shuffle_invariant(self):
        forward = [poly("x1^2 - x2"), poly("x2^2 - x4")]
        backward = [poly("x2^2 - x4"), poly("x1^2 - x2")]
        assert check_fr_condition(forward, probe_degree=10)
        assert check_fr_condition(backward, probe_degree=10)

    def test_empty_sequence(self):
        assert check_fr_condition([], probe_degree=4)

    def test_requires_homogeneous_elements(self):
        with pytest.raises(HomogeneityError):
            check_fr_condition([poly("x1^2 - x1")], probe_degree=6)

    def test_requires_homogeneous_order(self):
        with pytest.raises(OrderKindError):
            check_fr_condition([poly("x1", PLEX)], probe_degree=6)

    @pytest.mark.parametrize(
        "sequence, error, message",
        [
            (lambda: [poly("x1"), poly("x2", HLEX)], RingContextMismatch,
             "sequence in mixed ring contexts"),
            (lambda: [poly("x1"), poly("3")], HomogeneityError,
             "regular sequences need positive degrees"),
        ],
        ids=["two contexts", "constant member"],
    )
    def test_rejects_a_sequence(self, sequence, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            check_fr_condition(sequence(), probe_degree=6)

    def test_multiple_of_earlier_element_fails_any_order(self):
        f = poly("x1^2 - x2")
        shifted = poly("x3") * f
        for seq in ([f, shifted], [shifted, f]):
            assert not check_fr_condition(seq, probe_degree=12)

    def test_substitution_family_prefixes_in_every_arrangement(self):
        import itertools

        family = [
            poly("x1^2 - x2"), poly("x2^2 - x4"),
            poly("x4^2 - x8"), poly("x5^2 - x10"),
        ]
        for length in (2, 3, 4):
            prefix = family[:length]
            probe = sum(f.weighted_degree() for f in prefix) + 2
            for perm in itertools.permutations(prefix):
                assert check_fr_condition(list(perm), probe)


# Each bad input: a call that passes it and a part of the message.
INPUT_ERRORS = {
    "window": (lambda: TruncationWindow(0, 4), "window bounds"),
    "GF": (lambda: GF(4), "4 is not prime"),
    "exponent": (
        lambda: IdealPresentation.power_substitution(
            index_sets.ODD, 1, OrderKind.HOM_LEX
        ),
        "the substitution exponent",
    ),
    "closure": (
        lambda: IdealPresentation.power_substitution(
            index_sets.ODD, 2, OrderKind.HOM_LEX
        ),
        "is not closed under multiplication by 2",
    ),
    "zero generator": (
        lambda: IdealPresentation(HARL, generators=(Polynomial.zero(HARL),)),
        "explicit generators",
    ),
    "completion context": (
        lambda: buchberger_truncated([], TruncationWindow(2, 2)),
        "an explicit context",
    ),
    "bayer-stillman context": (
        lambda: bayer_stillman_basis([]), "an explicit context"
    ),
    "stability window": (
        lambda: stabilized_reduced_basis(
            substitution_presentation(index_sets.PM1_MOD3, 2), 2, 8
        ),
        "max_n must be",
    ),
    "order name": (lambda: OrderKind.from_name("zz"), "unknown monomial order"),
    "duplicate weight": (
        lambda: WeightedAlphabet(((3, 1), (3, 2))), "duplicate weight override"
    ),
    "decreasing indices": (
        lambda: Monomial(((2, 1), (1, 1))), "variable indices must be strictly"
    ),
    "zero exponent": (lambda: Monomial(((1, 0),)), "exponents must be strictly"),
    "modulus": (lambda: index_sets.avoiding_multiples_of(1), "modulus must be"),
    "set name": (lambda: index_sets.from_name("zz"), "unknown index set"),
    "partition": (lambda: check_partition((2, 0)), "parts must be positive"),
    "family without p": (
        lambda: FamilySpec("X", index_sets.ODD), "kind X needs a part set"
    ),
    "parts without a set": (
        lambda: FamilySpec("parts"), "kind 'parts' needs a part set"
    ),
    "family kind": (lambda: FamilySpec("zz"), "unknown family kind"),
    "preset": (lambda: FamilySpec.preset("zz"), "unknown preset"),
    "negative weight": (
        lambda: enumerate_family(FamilySpec.preset("A"), -1),
        "partitions need a non-negative weight",
    ),
    "empty series": (lambda: TruncatedSeries(()), "a truncated series needs"),
    "geometric gap": (
        lambda: TruncatedSeries.one(5).over_one_minus_power(0), "gap must be positive"
    ),
    "shift": (
        lambda: TruncatedSeries((1, 2)).times_power(-1), "gap must be non-negative"
    ),
}


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_validation_raises_a_typed_input_error(case):
    make, message = INPUT_ERRORS[case]
    with pytest.raises(InputError) as info:
        make()
    assert isinstance(info.value, InfinigbError)
    assert isinstance(info.value, ValueError)
    assert message in str(info.value)


class TestPresentation:
    def test_family_closure_validated(self):
        odds = index_sets.ODD
        with pytest.raises(ValueError):
            IdealPresentation.power_substitution(odds, 2, OrderKind.HOM_LEX)

    def test_instantiation_respects_window(self):
        pres = substitution_presentation(index_sets.PM1_MOD3, 2)
        small = pres.instantiate(TruncationWindow(4, 24))
        assert {str(g) for g in small} == {"x1^2 - x2", "x2^2 - x4"}
        tiny = pres.instantiate(TruncationWindow(12, 3))
        assert {str(g) for g in tiny} == {"x1^2 - x2"}

    def test_generator_from_another_context_rejected(self):
        with pytest.raises(RingContextMismatch):
            IdealPresentation(HARL, generators=(poly("x1^2 - x2", PLEX),))

    @pytest.mark.parametrize(
        "use",
        [
            lambda pres: pres.instantiate(TruncationWindow(3, 8)),
            lambda pres: stabilized_reduced_basis(pres, 6, 8),
            lambda pres: assemble_filtration(
                pres, [TruncationWindow(n, 8) for n in range(1, 7)]
            ),
        ],
        ids=["instantiate", "stabilized", "filtration"],
    )
    def test_family_member_from_another_context_rejected(self, use):
        # Member 3 lies in the window (3, 8) but in another context: every
        # entry point raises at that window, before a later one is made.
        made = []

        def rule(i):
            made.append(i)
            return poly(f"x{i}^2", PLEX if i == 3 else HARL)

        with pytest.raises(RingContextMismatch, match="mixed ring contexts"):
            use(IdealPresentation(HARL, family=rule))
        assert made == [1, 2, 3]

    def test_generator_leaving_subring_rejected(self):
        pres = IdealPresentation(
            HARL,
            generators=(poly("x1^2 - x3"),),
            variables=index_sets.PM1_MOD3,
        )
        with pytest.raises(CertificationError):
            pres.instantiate(TruncationWindow(4, 8))

    def test_reduced_flag_matches_predicate(self):
        gens = [poly("x1^2 - x2"), poly("x2^2 - x4")]
        assert is_reduced_set(gens)
        assert not is_reduced_set([poly("x1^2 - x2"), poly("x1^4")])
