"""Buchberger completion, reduced bases, filtrations and regularity."""

from __future__ import annotations

import random

import pytest

import helpers
from infinigb import groebner, index_sets
from infinigb.division import DivisorTable, is_member, remainder
from infinigb.errors import (
    CertificationError,
    HomogeneityError,
    InfinigbError,
    InputError,
    OrderKindError,
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
    _window_coherent,
    verify_buchberger,
)
from infinigb.monomials import DEFAULT_WEIGHTS, Monomial, OrderKind, WeightedAlphabet
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
    from infinigb.monomials import monomials_of_degree

    gens = []
    while len(gens) < count:
        choices = monomials_of_degree(rng.randint(2, 6), variables=range(1, 5))
        g = Polynomial.from_terms(
            context,
            [(rng.choice([-3, -1, 1, 2]), rng.choice(choices)) for _ in range(3)],
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

    @pytest.mark.parametrize(
        "weights, degree_bound",
        [(DEFAULT_WEIGHTS, 24), (WeightedAlphabet.with_weights({4: 3, 9: 6}), 16)],
        ids=["d_i=i", "overrides"],
    )
    def test_reduces_exactly_the_in_window_pairs(
        self, weights, degree_bound, monkeypatch
    ):
        # Criterion-free: every pair whose lcm degree, computed here with
        # Monomial arithmetic, is within the bound is reduced, coprime or
        # not, and no other pair is.
        context = RingContext(OrderKind.HOM_ANTI_REV_LEX, weights)
        window = TruncationWindow(12, degree_bound)
        basis = reduce_basis(buchberger_truncated(
            helpers.family_f(context).instantiate(window), window, context=context
        ))
        reduced = []
        degrees = []
        real = DivisorTable.spair_remainder

        def spy(self, i, j, degree):
            reduced.append((i, j))
            degrees.append(degree)
            return real(self, i, j, degree)

        monkeypatch.setattr(DivisorTable, "spair_remainder", spy)
        assert verify_buchberger(basis)
        leads = basis.leading_monomials()
        expected = [
            (i, j)
            for j in range(len(leads))
            for i in range(j)
            if leads[i].lcm(leads[j]).degree(weights) <= window.degree_bound
        ]
        assert reduced == expected
        # Each pair gets the lcm degree the window test read.
        assert degrees == [
            leads[i].lcm(leads[j]).degree(weights) for i, j in expected
        ]
        coprime = [(i, j) for i, j in expected if leads[i].coprime(leads[j])]
        assert 0 < len(coprime) < len(expected) < len(leads) * (len(leads) - 1) // 2


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


def monomial_basis(context, lms, window):
    elements = tuple(Polynomial.from_monomial(context, m) for m in set(lms))
    return GroebnerBasis(context, elements, window, Certificate.ASSERTED)


COHERENCE_WEIGHTS = [
    DEFAULT_WEIGHTS,
    WeightedAlphabet.with_weights({i: 1 for i in range(1, 10)}),
    WeightedAlphabet.with_weights({3: 1, 7: 2}),
]
COHERENCE_VARIABLES = [None, index_sets.ODD, {1, 2, 4, 5, 7}]


class TestWindowCoherence:
    @pytest.mark.parametrize("variables", COHERENCE_VARIABLES, ids=["none", "odd", "set"])
    @pytest.mark.parametrize("weights", COHERENCE_WEIGHTS, ids=["default", "ones", "overrides"])
    @pytest.mark.parametrize("order", helpers.HOMOGENEOUS_ORDERS, ids=lambda o: o.value)
    def test_agrees_with_enumeration(self, order, weights, variables):
        # Window leading monomials are mostly multiples of cut monomials, so
        # both verdicts occur; the rest are random, some beyond the degree
        # bound, beyond x_n or outside `variables`, and 1 turns up on both
        # sides.
        context = RingContext(order, weights)
        rng = random.Random(f"{order.value}/{weights}/{variables}")
        seen = set()
        for _ in range(40):
            window = TruncationWindow(rng.randint(2, 6), rng.randint(2, 8))

            def monomial():
                return Monomial.from_pairs(
                    (rng.randint(1, 8), rng.randint(1, 2))
                    for _ in range(rng.choice([0, 1, 1, 2, 2, 3]))
                )

            cut = [monomial() for _ in range(rng.randint(0, 4))]
            own = []
            for _ in range(rng.randint(1, 4)):
                m = monomial()
                if cut and rng.random() < 0.7:
                    m = m * rng.choice(cut) if rng.random() < 0.5 else rng.choice(cut)
                own.append(m)
            combined = monomial_basis(context, cut, window)
            window_basis = monomial_basis(context, own, window)
            verdict = _window_coherent(combined, window_basis, window, variables)
            assert verdict == helpers.reference_window_coherent(
                combined, window_basis, window, variables
            ), (window, cut, own)
            seen.add(verdict)
        assert seen == {True, False}

    def test_missing_window_lead_is_incoherent(self):
        # The window's base leads with x2, which no cut monomial divides.
        window = TruncationWindow(3, 6)
        combined = monomial_basis(HARL, [Monomial.variable(1, 2)], window)
        window_basis = monomial_basis(
            HARL, [Monomial.variable(1, 2), Monomial.variable(2)], window
        )
        assert not _window_coherent(combined, window_basis, window, None)
        assert not helpers.reference_window_coherent(
            combined, window_basis, window, None
        )

    def test_non_homogeneous_order_is_not_checked(self):
        window = TruncationWindow(3, 6)
        combined = monomial_basis(PLEX, [], window)
        window_basis = monomial_basis(PLEX, [Monomial.variable(2)], window)
        assert _window_coherent(combined, window_basis, window, None)


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

        pres = IdealPresentation(HARL, family=rule, family_indices=index_sets.ALL)
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

    return IdealPresentation(HARL, family=rule, family_indices=index_sets.ALL)


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
    """Record the size of the carried base each completion starts from."""
    starts = []
    complete = groebner._complete

    def spy(start, gens, window, context):
        starts.append(len(start))
        return complete(start, gens, window, context)

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


@pytest.mark.parametrize(
    "make",
    [
        lambda: TruncationWindow(0, 4),
        lambda: GF(4),
        lambda: IdealPresentation.power_substitution(
            index_sets.ODD, 1, OrderKind.HOM_LEX
        ),
        lambda: IdealPresentation.power_substitution(
            index_sets.ODD, 2, OrderKind.HOM_LEX
        ),
        lambda: IdealPresentation(HARL, generators=(Polynomial.zero(HARL),)),
        lambda: buchberger_truncated([], TruncationWindow(2, 2)),
        lambda: bayer_stillman_basis([]),
        lambda: stabilized_reduced_basis(
            substitution_presentation(index_sets.PM1_MOD3, 2), 2, 8
        ),
    ],
    ids=["window", "GF", "exponent", "closure", "zero generator",
         "completion context", "bayer-stillman context", "stability window"],
)
def test_validation_raises_a_typed_input_error(make):
    with pytest.raises(InputError) as info:
        make()
    assert isinstance(info.value, InfinigbError)
    assert isinstance(info.value, ValueError)


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
