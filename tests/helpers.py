"""Shared generators and hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from infinigb import index_sets
from infinigb.division import DivisionResult, standard_monomials
from infinigb.errors import (
    HomogeneityError,
    RingContextMismatch,
    ZeroPolynomialError,
)
from infinigb.groebner import (
    Certificate,
    GroebnerBasis,
    IdealPresentation,
    TruncationWindow,
    _canonical_sorted,
    buchberger_truncated,
    reduce_basis,
)
from infinigb.monomials import (
    DEFAULT_WEIGHTS,
    Monomial,
    OrderKind,
    WeightedAlphabet,
    _walk,
    sort_key,
)
from infinigb.partitions import FamilySpec, enumerate_family
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


def random_monomial_ideal(rng, max_var=5, max_degree=12, max_leads=5):
    """A base of `random_monomial` draws, under a random homogeneous order
    and a grading with up to two weights overridden (possibly beyond
    x{max_var}); certified, as a base of monomials always is."""
    overrides = {
        rng.randint(1, max_var + 2): rng.randint(1, 4)
        for _ in range(rng.randint(0, 2))
    }
    context = RingContext(
        rng.choice(HOMOGENEOUS_ORDERS), WeightedAlphabet.with_weights(overrides)
    )
    leads = [
        random_monomial(rng, max_var, max_degree, context.weights)
        for _ in range(rng.randint(0, max_leads))
    ]
    return _monomial_ideal_basis(
        context, leads, TruncationWindow(max_var, max_degree)
    )


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


def random_rational_polynomial(
    rng, context, max_var, max_degree, max_terms, allow_zero=False
):
    """Like `random_polynomial`, with coefficients +-n/d for n up to 9 and
    d up to 7, so that the leading coefficient is mostly neither 1 nor -1
    and negative about half the time.  Over GF(p) a denominator divisible
    by p is drawn again."""
    p = None if context.field is None else context.field.p
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        denominator = rng.randint(1, 7)
        while p is not None and denominator % p == 0:
            denominator = rng.randint(1, 7)
        numerator = rng.choice([-1, 1]) * rng.randint(1, 9)
        terms.append(
            (
                Fraction(numerator, denominator),
                random_monomial(rng, max_var, max_degree),
            )
        )
    f = Polynomial.from_terms(context, terms)
    if f.is_zero and not allow_zero:
        return random_rational_polynomial(
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


def reference_first_divisor(table, x):
    """The oracle for `DivisorTable._first_divisor`: the linear scan that
    tests every packed leading monomial of the table in position order and
    returns the first that divides the packed exponents x, or None."""
    guard = table._guard
    with_guards = x | guard
    for position, lead in enumerate(table._leads):
        if (with_guards - lead) & guard == guard:
            return position
    return None


def reference_is_reduced_set(elements):
    """The oracle for `infinigb.groebner.is_reduced_set`: monic elements,
    and no leading monomial divides any term of any other element, tested
    monomial by monomial."""
    elements = list(elements)
    for g in elements:
        if g.is_zero or g.lc() != g.context.one:
            return False
    for i, g in enumerate(elements):
        lm = g.lm()
        for j, h in enumerate(elements):
            if j == i:
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


def reference_window_bases(presentation, windows):
    """The oracle for windows that carry a reduced base into the next: each
    window's reduced base completed from scratch from the generators it
    instantiates."""
    context = presentation.context
    return [
        reduce_basis(
            buchberger_truncated(presentation.instantiate(w), w, context=context)
        )
        for w in windows
    ]


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
        context, elements, window, Certificate.BAYER_STILLMAN
    )


def _canonical_monomials(lms, context):
    return sorted(set(lms), key=sort_key(context.order, context.weights))


def reference_standard_monomials(basis, degree, variables=None):
    """The oracle for `infinigb.division.standard_monomials`, the recursive
    walk it replaced.  Monomials of the given weighted degree outside the
    leading-term ideal.

    These form a vector-space basis of the degree slice of the quotient by
    the span.  Requires a homogeneous order and homogeneous elements; the
    enumeration may be restricted to a variable set (anything supporting
    `in`), e.g. the generators of a subring.
    """
    context = basis.context
    if not context.order.homogeneous:
        raise HomogeneityError("standard monomials need a homogeneous order")
    leads = []
    for g in basis.elements:
        if not g.is_homogeneous():
            raise HomogeneityError("standard monomials need homogeneous elements")
        leads.append(g.lm())
    if any(lm.is_one for lm in leads):
        return []
    if degree == 0:
        return [Monomial.one()]

    weights = context.weights
    indices = [
        i
        for i in weights.indices_with_weight_at_most(degree)
        if variables is None or i in variables
    ]
    position = {index: k for k, index in enumerate(indices)}
    # The walk fixes exponents from the largest variable down, so a leading
    # monomial becomes decidable once the smallest variable of its support is
    # reached; bucket it there.  A leading monomial using an inadmissible
    # variable never divides anything enumerated here.
    buckets = [[] for _ in indices]
    for lm in leads:
        if all(i in position for i in lm.support()):
            buckets[position[lm.exps[0][0]]].append(lm)

    exponents = [0] * len(indices)
    out = []

    def cap_from_leads(k, budget):
        cap = budget
        for lm in buckets[k]:
            need = lm.exponent(indices[k])
            if all(
                exponents[position[i]] >= e
                for i, e in lm.exps
                if i != indices[k]
            ):
                cap = min(cap, need - 1)
        return cap

    def descend(k, remaining):
        if k < 0:
            if remaining == 0:
                out.append(
                    Monomial.from_pairs(
                        (indices[j], exponents[j])
                        for j in range(len(indices))
                        if exponents[j]
                    )
                )
            return
        w = weights.weight(indices[k])
        for exponent in range(cap_from_leads(k, remaining // w) + 1):
            exponents[k] = exponent
            descend(k - 1, remaining - exponent * w)
        exponents[k] = 0

    descend(len(indices) - 1, degree)
    return out


def reference_counts_up_to(indices, weights, bound, leads=()):
    """The oracle for `infinigb.monomials._counts_up_to`, the counting walk
    it replaced: how many vectors `_walk` visits in each weighted degree
    0..bound.  Each run marks where its degrees start and stop, and a
    running sum with the runs' common stride adds them up."""
    counts, stride = [0] * (bound + 1), 1
    for _, degrees in _walk(indices, weights, bound, leads):
        stride = degrees.step
        counts[degrees.start] += 1
        if degrees.stop <= bound:
            counts[degrees.stop] -= 1
    for d in range(stride, bound + 1):
        counts[d] += counts[d - stride]
    return counts


def reference_enumerate_family(spec, n):
    """The oracle for `infinigb.partitions.enumerate_family`, the recursive
    search it replaced: all partitions of n in the family, by direct search
    over parts."""
    if n < 0:
        raise ValueError("partitions need a non-negative weight")
    if spec.kind == "gap2":
        return _reference_enumerate_gap2(n)
    values = [m for m in range(n, 0, -1) if spec.admits_part(m)]
    max_mult = (spec.p - 1) if spec.kind == "Y" else None
    out = set()
    acc = []

    def descend(k, remaining):
        if remaining == 0:
            out.add(tuple(acc))
            return
        if k >= len(values):
            return
        descend(k + 1, remaining)
        value = values[k]
        top = remaining // value
        if max_mult is not None:
            top = min(top, max_mult)
        for count in range(1, top + 1):
            acc.extend([value] * count)
            descend(k + 1, remaining - count * value)
            del acc[len(acc) - count :]

    descend(0, n)
    return out


def _reference_enumerate_gap2(n):
    out = set()
    acc = []

    def descend(cap, remaining):
        if remaining == 0:
            out.add(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            descend(part - 2, remaining - part)
            acc.pop()

    descend(n, n)
    return out


def all_partitions(n):
    """Every partition of n."""
    return enumerate_family(FamilySpec("parts", index_sets.ALL), n)
