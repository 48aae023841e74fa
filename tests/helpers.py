"""Shared generators and hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from infinigb.division import DivisionResult, standard_monomials
from infinigb.errors import RingContextMismatch, ZeroPolynomialError
from infinigb.groebner import (
    Certificate,
    GroebnerBasis,
    IdealPresentation,
    _canonical_sorted,
    is_reduced_set,
)
from infinigb.monomials import (
    DEFAULT_WEIGHTS,
    Monomial,
    OrderKind,
    WeightedAlphabet,
    sort_key,
)
from infinigb.polynomials import Polynomial, RingContext

ALL_ORDERS = list(OrderKind)
HOMOGENEOUS_ORDERS = [o for o in OrderKind if o.homogeneous]


def monomials(max_index=7, max_exponent=4, max_factors=4):
    return st.lists(
        st.tuples(
            st.integers(1, max_index), st.integers(1, max_exponent)
        ),
        max_size=max_factors,
    ).map(Monomial.from_pairs)


def coefficients():
    return st.one_of(
        st.integers(-6, 6).filter(bool),
        st.fractions(
            min_value=-4, max_value=4, max_denominator=5
        ).filter(bool),
    )


def polynomials(context, max_terms=4, **kwargs):
    return st.lists(
        st.tuples(coefficients(), monomials(**kwargs)), max_size=max_terms
    ).map(lambda pairs: Polynomial.from_terms(context, pairs))


def nonzero_polynomials(context, **kwargs):
    return polynomials(context, **kwargs).filter(lambda f: not f.is_zero)


def contexts():
    return st.sampled_from([RingContext(order) for order in ALL_ORDERS])


def random_monomial(rng, max_var, max_degree, weights=DEFAULT_WEIGHTS):
    """Rejection-sample a monomial over x1..x{max_var} of weighted degree
    within the bound (possibly the monomial 1)."""
    while True:
        pairs = []
        for index in range(1, max_var + 1):
            exponent = rng.randint(0, 3)
            if exponent:
                pairs.append((index, exponent))
        m = Monomial.from_pairs(pairs)
        if m.degree(weights) <= max_degree:
            return m


def random_polynomial(rng, context, max_var, max_degree, max_terms, allow_zero=False):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coefficient = rng.choice([-3, -2, -1, 1, 2, 3])
        terms.append(
            (Fraction(coefficient), random_monomial(rng, max_var, max_degree))
        )
    f = Polynomial.from_terms(context, terms)
    if f.is_zero and not allow_zero:
        return random_polynomial(
            rng, context, max_var, max_degree, max_terms, allow_zero
        )
    return f


def reference_divide(f, divisors):
    """The oracle for `infinigb.division.divide`: the textbook loop that
    subtracts a whole divisor multiple from the working polynomial and tries
    every divisor on every step.  Quotients, remainder and step count must
    equal the fast kernel's."""
    divisors = list(divisors)
    context = f.context
    leads = []
    for g in divisors:
        if g.context != context:
            raise RingContextMismatch(f"{g.context} does not match {context}")
        if g.is_zero:
            raise ZeroPolynomialError("zero divisor")
        lc, lm = g.leading()
        leads.append((lm, lc, g))

    quotient_terms = {}
    remainder_terms = []
    work = f
    steps = 0
    while not work.is_zero:
        c, m = work.leading()
        for position, (lm_g, lc_g, g) in enumerate(leads):
            factor = m.try_divide(lm_g)
            if factor is not None:
                coefficient = c / lc_g
                work = work - g.times_term(coefficient, factor)
                quotient_terms.setdefault(position, []).append(
                    (coefficient, factor)
                )
                break
        else:
            remainder_terms.append((c, m))
            work = Polynomial(context, work.terms[1:])
        steps += 1
    quotients = tuple(
        (position, Polynomial.from_terms(context, terms))
        for position, terms in sorted(quotient_terms.items())
    )
    return DivisionResult(quotients, Polynomial(context, tuple(remainder_terms)), steps)


def reference_is_reduced_set(elements):
    """The oracle for `infinigb.groebner.is_reduced_set`: monic elements,
    and no leading monomial divides any term of any other element, tested
    monomial by monomial."""
    elements = list(elements)
    for g in elements:
        if g.is_zero or g.lc() != g.context.one:
            return False
    for g in elements:
        lm = g.lm()
        for h in elements:
            if h is g:
                continue
            if any(lm.divides(m) for m in h.monomials()):
                return False
    return True


def reference_reduce_basis(basis):
    """The oracle for `infinigb.groebner.reduce_basis`: repeatedly replace
    each element by its monic remainder with respect to the others, by
    `reference_divide`, until nothing changes; elements reducing to zero
    drop out.  For a certified input this yields the unique reduced base."""
    context = basis.context
    elems = [g.monic() for g in basis.elements if not g.is_zero]
    changed = True
    while changed:
        changed = False
        elems = _canonical_sorted(elems, context)
        i = 0
        while i < len(elems):
            others = elems[:i] + elems[i + 1 :]
            r = reference_divide(elems[i], others).remainder if others else elems[i]
            if r.is_zero:
                del elems[i]
                changed = True
                continue
            r = r.monic()
            if r != elems[i]:
                elems[i] = r
                changed = True
            i += 1
    elements = tuple(_canonical_sorted(elems, context))
    return GroebnerBasis(
        context,
        elements,
        basis.window,
        basis.certificate,
        reduced=is_reduced_set(elements),
        discarded_pairs=basis.discarded_pairs,
        discarded_elements=basis.discarded_elements,
    )


def family_f(context):
    """Family F: i -> x_i*x_{i+1} - x_{2i+1}, homogeneous under d_i = i."""

    def rule(i):
        return Polynomial.from_terms(
            context,
            (
                (1, Monomial.from_pairs(((i, 1), (i + 1, 1)))),
                (-1, Monomial.variable(2 * i + 1)),
            ),
        )

    return IdealPresentation(context, family=rule)


def cyclic5_homogenized(order, field=None):
    """Cyclic-5 with x6 homogenizing the last generator, every weight 1."""
    weights = WeightedAlphabet.with_weights({i: 1 for i in range(1, 7)})
    context = RingContext(order, weights, field)
    gens = [
        Polynomial.from_terms(
            context,
            (
                (1, Monomial.from_pairs(((s + j) % 5 + 1, 1) for j in range(k)))
                for s in range(5)
            ),
        )
        for k in range(1, 5)
    ]
    gens.append(
        Polynomial.from_terms(
            context,
            (
                (1, Monomial.from_pairs((i, 1) for i in range(1, 6))),
                (-1, Monomial.variable(6, 5)),
            ),
        )
    )
    return context, gens


def reference_window_coherent(combined, window_basis, window, variables):
    """The oracle for `infinigb.groebner._window_coherent`: in every degree
    up to the window's bound, every admissible standard monomial of the cut
    (the union leading monomials inside k[x1..xn]) must be standard for the
    window's own base, counted by enumeration."""
    context = combined.context
    if not context.order.homogeneous:
        return True
    cut = [
        g.lm()
        for g in combined.elements
        if g.lm().max_index() <= window.var_bound
    ]
    admissible = set(
        i
        for i in context.weights.indices_with_weight_at_most(window.degree_bound)
        if i <= window.var_bound and (variables is None or i in variables)
    )
    by_cut = _monomial_ideal_basis(context, cut, window)
    by_window = _monomial_ideal_basis(
        context, [g.lm() for g in window_basis.elements], window
    )
    for degree in range(window.degree_bound + 1):
        outside_cut = set(standard_monomials(by_cut, degree, variables=admissible))
        outside_window = set(
            standard_monomials(by_window, degree, variables=admissible)
        )
        if not outside_cut <= outside_window:
            return False
    return True


def _monomial_ideal_basis(context, lms, window):
    elements = tuple(
        Polynomial.from_monomial(context, lm) for lm in _canonical_monomials(lms, context)
    )
    return GroebnerBasis(
        context, elements, window, Certificate.BAYER_STILLMAN, reduced=False
    )


def _canonical_monomials(lms, context):
    return sorted(set(lms), key=sort_key(context.order, context.weights))
