"""Shared generators and hypothesis strategies for the test suite."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

import heapq

from infinigb import index_sets, partitions
from infinigb.division import DivisionResult, DivisorTable
from infinigb.errors import (
    CertificationError,
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
    _generator_context,
    _validate_generators,
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
from infinigb.series import TruncatedSeries

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


def homogeneous_polynomials(context, max_degree=10, max_terms=4, max_index=7):
    """Nonzero homogeneous polynomials of positive weighted degree over
    x1..x{max_index}: distinct monomials of one drawn degree, each with a
    nonzero coefficient, so no draw is filtered away."""

    def of_degree(degree):
        pool = [
            m
            for m in monomials_of_degree(degree, context.weights)
            if m.max_index() <= max_index
        ]
        return st.lists(
            st.sampled_from(pool), min_size=1, max_size=max_terms, unique=True
        ).flatmap(
            lambda ms: st.lists(
                coefficients(), min_size=len(ms), max_size=len(ms)
            ).map(lambda cs: Polynomial.from_terms(context, list(zip(cs, ms))))
        )

    return st.integers(1, max_degree).flatmap(of_degree)


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


class _Descending:
    """A heap entry that pops the largest monomial first."""

    __slots__ = ("key", "monomial")

    def __init__(self, key, monomial):
        self.key = key
        self.monomial = monomial

    def __lt__(self, other):
        return other.key < self.key


def reference_divide(f, divisors):
    """The oracle for `infinigb.division.divide`: the textbook loop that
    subtracts a whole divisor multiple from the working polynomial and tries
    every divisor, in list order, on every step.  Quotients, remainder and
    step count must equal the fast kernel's.

    The working polynomial is a dict from `Monomial` to its exact
    coefficient, with a heap of its monomials by `sort_key`, so a step
    costs the terms it touches, not a rebuilt polynomial."""
    divisors = list(divisors)
    context = f.context
    leads = []
    for g in divisors:
        if g.context != context:
            raise RingContextMismatch(f"{g.context} does not match {context}")
        if g.is_zero:
            raise ZeroPolynomialError("zero divisor")
        lc, lm = g.terms[0]
        leads.append((lm, lc, g))

    key = sort_key(context.order, context.weights)
    zero = context.coeff(0)
    work = {m: c for c, m in f.terms}
    heap = [_Descending(key(m), m) for m in work]
    heapq.heapify(heap)
    quotient_terms = {}
    remainder_terms = []
    steps = 0
    while heap:
        m = heapq.heappop(heap).monomial
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled after it was pushed
        for position, (lm_g, lc_g, g) in enumerate(leads):
            factor = m.try_divide(lm_g)
            if factor is not None:
                coefficient = c / lc_g
                minus = -coefficient
                # The leading term of the multiple cancels c*m exactly.
                for c_g, m_g in g.terms[1:]:
                    product = m_g * factor
                    rest = work.get(product, zero) + minus * c_g
                    if not rest:
                        work.pop(product, None)
                    else:
                        if product not in work:
                            heapq.heappush(heap, _Descending(key(product), product))
                        work[product] = rest
                quotient_terms.setdefault(position, []).append(
                    (coefficient, factor)
                )
                break
        else:
            remainder_terms.append((c, m))
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


def coprime(a, b):
    """Whether the monomials a and b share no variable, i.e. lcm = product."""
    return set(a.support()).isdisjoint(b.support())


def packed_pair(table, i, j):
    """The oracle for one pair of `DivisorTable.pairs_of`: the weighted
    degree of the lcm of the leading monomials of rows i and j, by
    `Monomial.lcm`, and that lcm packed in the table's current layout."""
    lcm = table.divisors[i].lm().lcm(table.divisors[j].lm())
    return lcm.degree(table.context.weights), table._packed(lcm)


def reference_pairs_of(table, j, bound, keep_coprime):
    """The oracle for `DivisorTable.pairs_of` by `Monomial` arithmetic:
    each pair (i, j), i < j, with coprime leads (disjoint supports) only
    when `keep_coprime`, listed as the job (lcm degree, i, j, packed lcm)
    when its lcm degree is at most `bound` and counted otherwise."""
    pairs = []
    beyond = 0
    lead = table.divisors[j].lm()
    for i in range(j):
        if not keep_coprime and coprime(table.divisors[i].lm(), lead):
            continue
        degree, lcm = packed_pair(table, i, j)
        if degree <= bound:
            pairs.append((degree, i, j, lcm))
        else:
            beyond += 1
    return pairs, beyond


def packed_divides(table, d, x):
    """Whether the packed exponents d divide the packed exponents x in the
    table's layout: subtracting d from x with every guard bit set clears
    none.  The test `_complete` inlines for its criteria."""
    guard = table._guard
    return ((x | guard) - d) & guard == guard


def reference_buchberger(gens, window, *, context=None):
    """The oracle for `infinigb.groebner.buchberger_truncated`: the
    completion loop before the pair criteria.  It skips coprime pairs,
    discards and counts pairs and remainders beyond the window, and reduces
    every other pair, smallest lcm degree first.  Its reduced base, its
    certificate and its `discarded_pairs` must equal the pruned
    completion's."""
    gens = list(gens)
    context = _generator_context(gens, context)
    _validate_generators(gens, window, context)
    bound = window.degree_bound
    table = DivisorTable(context, gens, bound)
    queue = []
    discarded_pairs = 0
    discarded_elements = 0

    def pair_up(j):
        nonlocal discarded_pairs
        lead = table.divisors[j].lm()
        for i in range(j):
            if coprime(table.divisors[i].lm(), lead):
                continue
            lcm_degree = packed_pair(table, i, j)[0]
            if lcm_degree > bound:
                discarded_pairs += 1
                continue
            heapq.heappush(queue, (lcm_degree, i, j))

    for j in range(len(gens)):
        pair_up(j)
    while queue:
        _, i, j = heapq.heappop(queue)
        # No lcm is carried across a job: the table packs it in its layout
        # of the moment, and a one-pair stream reduces it.
        lcm_degree, lcm = packed_pair(table, i, j)
        terms = next(table.spair_remainders([(lcm_degree, i, j, lcm)]))
        if not terms:
            continue
        r = table._polynomial(terms)
        if not window.admits(r):
            discarded_elements += 1
            continue
        table.append(r.monic())
        pair_up(len(table.divisors) - 1)

    return GroebnerBasis(
        context,
        tuple(_canonical_sorted(table.divisors, context)),
        window,
        Certificate.ASSERTED
        if discarded_elements
        else Certificate.BUCHBERGER_VERIFIED,
        discarded_pairs=discarded_pairs,
        discarded_elements=discarded_elements,
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


def reference_instantiate(presentation, window):
    """The oracle for `IdealPresentation.instantiate`: every generator made
    and checked for this window alone, the first of equal ones kept."""
    seen = set()
    out = []

    def admit(g):
        if g.context != presentation.context:
            raise RingContextMismatch("generators in mixed ring contexts")
        if g.is_zero:
            raise CertificationError("a family rule produced zero")
        if presentation.variables is not None:
            for _, m in g.terms:
                for index in m.support():
                    if index not in presentation.variables:
                        raise CertificationError(
                            f"generator {g} leaves the configured subring"
                        )
        if window.admits(g) and g not in seen:
            seen.add(g)
            out.append(g)

    for g in presentation.generators:
        admit(g)
    if presentation.family is not None:
        for i in range(1, window.var_bound + 1):
            if presentation.variables is None or i in presentation.variables:
                admit(presentation.family(i))
    return out


def reference_window_bases(presentation, windows):
    """The oracle for windows that carry a reduced base into the next: each
    window's reduced base completed from scratch, by `reference_buchberger`,
    from the generators it instantiates."""
    context = presentation.context
    return [
        reduce_basis(
            reference_buchberger(presentation.instantiate(w), w, context=context)
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


def monomials_of_degree(degree, weights=DEFAULT_WEIGHTS, variables=None):
    """Every monomial of exact weighted degree, over `variables` if given:
    the standard monomials of an empty base by the recursive oracle above,
    which does not use `_walk`, in the walk's order."""
    context = RingContext(OrderKind.HOM_LEX, weights)
    empty = GroebnerBasis(context, (), TruncationWindow(1, 1), Certificate.ASSERTED)
    return reference_standard_monomials(empty, degree, variables)


def partition_counts_up_to(bound):
    """p(0..bound) by Euler's pentagonal number recurrence, which shares
    nothing with the library's counts."""
    counts = [1]
    for n in range(1, bound + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for pentagonal in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pentagonal <= n:
                    total += sign * counts[n - pentagonal]
            k += 1
        counts.append(total)
    return counts


def one_minus_power(gap, truncation):
    """1 - T^gap as a dense truncated series, written term by term."""
    coefficients = [1] + [0] * truncation
    if gap <= truncation:
        coefficients[gap] -= 1
    return TruncatedSeries(coefficients)


def geometric(gap, truncation):
    """1/(1 - T^gap) as a dense truncated series: 1 at each multiple of the
    gap up to the truncation, 0 elsewhere."""
    return TruncatedSeries([int(n % gap == 0) for n in range(truncation + 1)])


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


def reference_rewrite_down(parts, family, p):
    """The oracle for `infinigb.partitions._rewrite_down`, the loop it
    replaced: replace p copies of the smallest part i in the family that
    repeats p times by one part p*i, re-scanning after each step."""
    counts = Counter(parts)
    while True:
        candidates = sorted(
            i for i, c in counts.items() if c >= p and i in family
        )
        if not candidates:
            break
        i = candidates[0]
        counts[i] -= p
        if counts[i] == 0:
            del counts[i]
        counts[p * i] += 1
    return tuple(sorted(counts.elements(), reverse=True))


def reference_rewrite_up(parts, family, p):
    """The oracle for `infinigb.partitions._rewrite_up`, the loop it
    replaced: replace the smallest part p*i (i in the family) by p copies
    of i, re-scanning after each step."""
    counts = Counter(parts)
    while True:
        candidates = sorted(
            m
            for m in counts
            if m % p == 0 and (m // p) in family and counts[m] > 0
        )
        if not candidates:
            break
        m = candidates[0]
        counts[m] -= 1
        if counts[m] == 0:
            del counts[m]
        counts[m // p] += p
    return tuple(sorted(counts.elements(), reverse=True))


def reference_verify_bijection(family, p, n):
    """The oracle for `infinigb.partitions.verify_bijection`, the loop it
    replaced: it divides each phi image again by the lexicographic base
    to test psi after phi, then divides every Y partition, and accumulates
    each flag across both loops."""
    pairs = partitions.phi_pairs(family, p, n)
    phi_of = dict(pairs)
    y_side = enumerate_family(FamilySpec("Y", family, p), n)
    up = partitions._substitution_table(family, p, OrderKind.HOM_LEX, n)
    routes_agree = True
    lands_in_y = True
    psi_section = True
    phi_section = True
    images = set()
    for parts, by_division in pairs:
        routes_agree &= by_division == reference_rewrite_down(parts, family, p)
        in_y = by_division in y_side
        lands_in_y &= in_y
        psi_section &= (
            in_y and partitions._division_image(by_division, up) == parts
        )
        images.add(by_division)
    for parts in sorted(y_side):
        up_division = partitions._division_image(parts, up)
        routes_agree &= up_division == reference_rewrite_up(parts, family, p)
        phi_section &= phi_of.get(up_division) == parts
    injective = len(images) == len(pairs)
    surjective = images == y_side
    report = {
        "n": n,
        "family": family.name,
        "p": p,
        "x_size": len(pairs),
        "y_size": len(y_side),
        "routes_agree": routes_agree,
        "maps_into_target": lands_in_y,
        "injective": injective,
        "surjective": surjective,
        "psi_after_phi_is_identity": psi_section,
        "phi_after_psi_is_identity": phi_section,
        "ok": all(
            (
                routes_agree,
                lands_in_y,
                injective,
                surjective,
                psi_section,
                phi_section,
                len(pairs) == len(y_side),
            )
        ),
    }
    return pairs, report
