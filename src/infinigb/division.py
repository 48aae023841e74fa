"""Division with remainder, ideal membership and standard monomials.

The algorithm reduces leading terms first and moves irreducible leading
terms wholesale to the remainder, so the leading monomial of the working
polynomial strictly decreases at every step and termination follows from
the well-ordering of the ambient order.

Division runs over packed exponent vectors (Bachmann and Schoenemann,
ISSAC 1998).  A `DivisorTable` packs its divisors once, so a basis that
divides many polynomials is packed once, not once per division.  A
monomial over x1..xn becomes one integer `X` with one field per variable,
each topped by a guard bit, and its order key becomes the integer
`(weighted degree << S) + X` or `- X`, S being the width of `X`, with the
fields laid out so that integer comparison is the monomial order.  Both
are additive, so a product is an integer add, and `d` divides `m` exactly
when subtracting `X_d` from `X_m` with every guard bit set clears none.
The working polynomial is a dict from key to coefficient (the dict
accumulator of sympy's `PolyElement.rem`) with a heap of its keys.
`divide` and `remainder` share the one loop; only `divide` records
quotients.  The divisor search scans only the leads whose top variable
the term uses, bucketed by that variable, and returns the smallest
dividing position, as a scan over every lead would.  It is the library's
only test of lead divisibility: `DivisorTable.first_divisor` asks it of a
`Monomial`, and so interreduction finds its minimal elements, the
reduced-set test its divisible terms and the filtration its coherence.
Completion and verification reduce S-pairs from two table rows
(`DivisorTable.spair_remainder`): the two packed tails, shifted by their
factor keys, make the work dict, so no S-polynomial is built, and the
pair's lcm, gcd and lcm degree come from the two packed leads.

The loop does integer arithmetic only.  Over Q each row holds the
primitive integer multiple of its divisor, with a positive leading
coefficient, and the work dict holds integers whose polynomial is the
true one times a positive integer scale lambda.  A step whose leading
coefficient the row's does not divide first multiplies the work dict and
lambda by the same factor, which leaves work/lambda unchanged: the
fraction-free reduction over Z of Singular and of sympy's `ZZ` rings.
Each remainder term keeps the lambda it was found at, and becomes a
`Fraction` only when the result is unpacked.  Over GF(p) the rows are
monic residues in 0..p-1, lambda stays 1, and a coefficient is reduced
modulo p when it is popped, so a term that cancels modulo p is neither a
step nor a remainder term.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import (
    CertificationError,
    HomogeneityError,
    RingContextMismatch,
    ZeroPolynomialError,
)
from .monomials import _KEY_SHAPES, _admissible, _pairs_of_degree, _trusted
from .polynomials import GFElement, Polynomial


# Beyond every position, so that the divisor search needs no None test.
_NO_POSITION = sys.maxsize


@dataclass(frozen=True)
class DivisionResult:
    """f = sum of quotient * divisor over `quotients` plus `remainder`.

    quotients holds (divisor position, quotient polynomial) pairs for the
    divisors that were actually used; no monomial of the remainder is
    divisible by any divisor leading monomial, and every nonzero product
    quotient * divisor has leading monomial <= lm(f).
    """

    quotients: tuple
    remainder: Polynomial
    step_count: int


class DivisorTable:
    """An ordered list of nonzero divisors in one ring context, packed once
    for repeated division; `append` extends it.

    The layout has one field per variable x1..xn and a field width that
    holds every exponent a division can reach.  Under a homogeneous order
    every monomial a division of f meets has weighted degree at most that
    of lm(f), which bounds its exponents; under `plex` nothing does, so
    there a product that sets a guard bit widens the fields and restarts
    the division.  A polynomial with a larger variable index or exponent
    widens the layout before its division starts.  Every layout rebuilds
    the divisor index with the rows.

    The first layout fits the divisors and exponents up to `degree`, the
    largest weighted degree of the polynomials and S-pairs a caller will
    divide: under a homogeneous order it is sized once so that no division
    widens and repacks.
    """

    def __init__(self, context, divisors=(), degree=0):
        self.context = context
        self.divisors = []
        backwards, _, exponent_sign = _KEY_SHAPES[context.order]
        self._backwards = backwards
        self._sign = exponent_sign
        self._homogeneous = context.order.homogeneous
        self._modulus = None if context.field is None else context.field.p
        self._weight_of = dict(context.weights.overrides)
        # The weighted degree of each leading monomial, for the S-pairs.
        self._degrees = []
        self._layout(0, 2)
        # One layout for all of them: widening per divisor would pack every
        # earlier one again.
        divisors = list(divisors)
        self._fit(
            max(map(_top_index, divisors), default=0),
            max([degree, *map(_max_exponent, divisors)]),
        )
        for g in divisors:
            self.append(g)

    def append(self, g):
        context = self.context
        if g.context is not context and g.context != context:
            raise RingContextMismatch(f"{g.context} does not match {context}")
        if not g.terms:
            raise ZeroPolynomialError("zero divisor")
        self.divisors.append(g)
        self._degrees.append(self._degree(g.terms[0][1]))
        if not self._fit(_top_index(g), _max_exponent(g)):
            self._pack_row(g)

    def _fit(self, top, need):
        """Widen the layout to x1..x{top} and exponents up to `need`,
        packing every divisor again; False if it already fits."""
        if top <= self._variables and need <= self._capacity:
            return False
        self._layout(
            max(top, self._variables), max(self._width, need.bit_length() + 1)
        )
        return True

    def _layout(self, variables, width):
        """Pack every divisor again for x1..x{variables} and fields of
        `width` bits, the top one the guard."""
        self._variables = variables
        self._width = width
        self._capacity = (1 << (width - 1)) - 1
        self._shift = variables * width
        self._mask = (1 << self._shift) - 1
        self._guard = sum(
            1 << (field * width + width - 1) for field in range(variables)
        )
        self._ones = self._guard >> (width - 1)
        weight_of = self._weight_of
        self._field_weights = [
            weight_of.get(index, index)
            for index in (
                range(1, variables + 1)
                if self._backwards
                else range(variables, 0, -1)
            )
        ]
        self._leads = []
        # The guard bits of the variables each lead uses.
        self._supports = []
        self._rows = []
        # The divisor index: a bucket of (position, packed lead) pairs in
        # increasing position for each top variable of a lead, under that
        # variable's guard bit; the guard bits of the variables with a
        # bucket; the first position of a constant lead.
        self._buckets = {}
        self._bucketed = 0
        self._constant = _NO_POSITION
        for g in self.divisors:
            self._pack_row(g)

    def _pack_row(self, g):
        key = self._key
        terms = g.terms
        lm = terms[0][1]
        position = len(self._leads)
        x = self._packed(lm)
        self._leads.append(x)
        support = ((x | self._guard) - self._ones) & self._guard
        self._supports.append(support)
        if support:
            # The guard bit of the top variable: the highest field holds
            # it when x1 is in the lowest, else the lowest does.
            top = (
                1 << (support.bit_length() - 1)
                if self._backwards
                else support & -support
            )
            self._buckets.setdefault(top, []).append((position, x))
            self._bucketed |= top
        elif self._constant == _NO_POSITION:
            self._constant = position
        p = self._modulus
        if p is None:
            # The primitive integer multiple, its leading coefficient > 0.
            integers, _ = _cleared(terms)
            content = gcd(*integers)
            if integers[0] < 0:
                content = -content
            integers = [c // content for c in integers]
        else:
            inverse = pow(terms[0][0].value, -1, p)
            integers = [c.value * inverse % p for c, _ in terms]
        lc = integers[0]
        # None for a leading coefficient 1, whose quotient coefficient is
        # the current one; the tail is negated once here, not per product.
        self._rows.append(
            (
                self._order_key(x, self._degrees[position]),
                None if lc == 1 else lc,
                tuple(
                    (-c if p is None else p - c, key(m))
                    for c, (_, m) in zip(integers[1:], terms[1:])
                ),
            )
        )

    def _packed(self, m):
        width, n = self._width, self._variables
        x = 0
        for index, exponent in m.exps:
            field = index - 1 if self._backwards else n - index
            x += exponent << (field * width)
        return x

    def _degree(self, m):
        weight_of = self._weight_of
        return sum(e * weight_of.get(i, i) for i, e in m.exps)

    def _key(self, m):
        """The negated order key of m, so that the leading term is the
        smallest key and a heap pops it first."""
        return self._order_key(
            self._packed(m), self._homogeneous and self._degree(m)
        )

    def _order_key(self, x, degree):
        """The negated order key of the packed exponents x, of weighted
        degree `degree`."""
        if not self._homogeneous:
            return -x
        return -((degree << self._shift) + self._sign * x)

    def _packed_degree(self, x):
        """The weighted degree of the packed exponents x, walking only the
        fields that are not zero."""
        width, field_mask = self._width, self._capacity
        weights = self._field_weights
        degree = 0
        while x:
            field = ((x & -x).bit_length() - 1) // width
            exponent = (x >> (field * width)) & field_mask
            x ^= exponent << (field * width)
            degree += exponent * weights[field]
        return degree

    def _lcm_and_gcd(self, i, j):
        """The packed lcm and gcd of leads i and j: subtracting lead j from
        lead i with every guard bit set leaves the guard bit of each field
        where i's exponent is at least j's, and the fields of those guard
        bits take i's exponent in the lcm, the others j's."""
        a, b = self._leads[i], self._leads[j]
        guard = self._guard
        at_least = ((a | guard) - b) & guard
        fields = at_least - (at_least >> (self._width - 1))
        lcm = (a & fields) | (b & ~fields)
        return lcm, a + b - lcm

    def spair_degree(self, i, j):
        """The weighted degree of the lcm of the leading monomials of
        divisors i and j, and whether they are coprime: the lcm has the
        degree of both less that of their gcd, which is 1 exactly when the
        two use no variable in common."""
        degree = self._degrees[i] + self._degrees[j]
        if not self._supports[i] & self._supports[j]:
            return degree, True
        return degree - self._packed_degree(self._lcm_and_gcd(i, j)[1]), False

    def _monomial(self, key):
        """The monomial of a negated order key.  A guard bit set in it means
        the layout was sized too small; decoding would never end, since a
        guard bit reads as exponent 0 and is never cleared."""
        x = (key if self._sign < 0 else -key) & self._mask
        if x & self._guard:
            raise RuntimeError(f"packed key {key} sets a guard bit")
        width, n = self._width, self._variables
        field_mask = self._capacity
        pairs = []
        while x:
            field = ((x & -x).bit_length() - 1) // width
            exponent = (x >> (field * width)) & field_mask
            x ^= exponent << (field * width)
            pairs.append((field + 1 if self._backwards else n - field, exponent))
        if not self._backwards:
            pairs.reverse()
        return _trusted(tuple(pairs))

    def _divide(self, f, record):
        """(remainder terms, {position: quotient terms} or None, steps),
        with keys in place of monomials."""
        if f.context is not self.context and f.context != self.context:
            raise RingContextMismatch(f"{f.context} does not match {self.context}")
        if not f.terms:
            return [], {} if record else None, 0
        # Under a homogeneous order no monomial of the division exceeds
        # the degree of lm(f), nor then does any exponent.
        if self._homogeneous:
            need = self._degree(f.terms[0][1])
        else:
            need = _max_exponent(f)
        self._fit(_top_index(f), need)
        key = self._key
        terms = f.terms
        if self._modulus is None:
            integers, scale = _cleared(terms)
        else:
            integers, scale = [c.value for c, _ in terms], 1
        return self._reduce(
            lambda: ({key(m): c for c, (_, m) in zip(integers, terms)}, scale),
            record,
        )

    def spair_remainder(self, i, j, degree):
        """The remainder modulo the table of the S-polynomial of divisors
        i and j, whose leads' lcm has weighted degree `degree`, as
        `spair_degree(i, j)` gives it.

        Equals `remainder(s_polynomial(g_i, g_j), table)`, but the two
        packed tails go straight into the work dict, so no S-polynomial
        is built.  The S-polynomial's monomials have weighted degree at
        most that of the leads' lcm; under `plex` its exponents are
        bounded by an exponent of the lcm plus one of g_i or g_j.
        """
        if self._homogeneous:
            need = degree
        else:
            g_i, g_j = self.divisors[i], self.divisors[j]
            need = max(
                (e for g in (g_i, g_j) for _, e in g.lm().exps), default=0
            ) + max(_max_exponent(g_i), _max_exponent(g_j))
        self._fit(0, need)
        terms = self._reduce(lambda: self._spair_work(i, j, degree), False)[0]
        return self._polynomial(terms)

    def _spair_work(self, i, j, degree):
        """The work dict and scale of (lcm/lt_i) g_i - (lcm/lt_j) g_j.

        With rows r_i = s_i g_i whose leading coefficients l_i, l_j have
        gcd c, the dict holds a (lcm/lm_i) r_i - b (lcm/lm_j) r_j for
        a = l_j / c and b = l_i / c, the S-polynomial times a * l_i: the
        leading terms cancel, leaving the two tails shifted by their factor
        keys.  Over GF(p) both rows are monic and a = b = 1.  `degree` is
        the weighted degree of the lcm; its packed exponents are taken here,
        in the current layout, so a widened layout takes them again.
        """
        k_lcm = self._order_key(self._lcm_and_gcd(i, j)[0], degree)
        k_lead_i, lc_i, tail_i = self._rows[i]
        k_lead_j, lc_j, tail_j = self._rows[j]
        lc_i = lc_i or 1
        lc_j = lc_j or 1
        common = gcd(lc_i, lc_j)
        a, b = lc_j // common, lc_i // common
        # The rows hold negated tails: row i's is negated back, row j's
        # enters as stored.
        factor = k_lcm - k_lead_i
        work = {factor + k: -a * negated for negated, k in tail_i}
        factor = k_lcm - k_lead_j
        for negated, k in tail_j:
            c = b * negated
            product = factor + k
            entry = work.get(product)
            if entry is None:
                work[product] = c
            else:
                rest = entry + c
                if rest:
                    work[product] = rest
                else:
                    del work[product]
        return work, a * lc_i

    def _reduce(self, build, record):
        """Run the division loop on the work dict and scale `build()`
        makes, widening the fields and starting again while a product
        overflows one."""
        while True:
            outcome = self._run(*build(), record)
            if outcome is not None:
                return outcome
            self._layout(self._variables, 2 * self._width)

    def _run(self, work, scale, record):
        """One pass of the division loop over `work`, a dict from key to
        integer coefficient that it consumes, standing for work/scale;
        None when a product overflowed a field, which only `plex` allows.

        Remainder terms come out as (c, key, scale) and quotient terms as
        (q, factor key, scale), with the scale current when each was made.
        """
        live = list(work)
        heapify(live)
        rows = self._rows
        first_divisor = self._first_divisor
        mask = self._mask
        flip = self._sign > 0
        overflow = 0 if self._homogeneous else self._guard
        p = self._modulus
        quotients = {} if record else None
        remainder_terms = []
        steps = 0
        while live:
            k = heappop(live)
            c = work.pop(k, None)
            if c is None:
                continue  # cancelled after it was queued
            if p is not None:
                c %= p
                if not c:
                    continue  # cancelled modulo p
            steps += 1
            position = first_divisor((-k if flip else k) & mask)
            if position is None:
                remainder_terms.append((c, k, scale))
                continue
            k_lead, lc, tail = rows[position]
            if lc is not None:
                # Only over Q: make lc divide c by multiplying the work dict
                # and its scale alike, which leaves work/scale unchanged.
                common = gcd(c, lc)
                if common != lc:
                    multiplier = lc // common
                    for other in work:
                        work[other] *= multiplier
                    scale *= multiplier
                c //= common
            factor = k - k_lead
            # Subtract c*factor*row; its leading term cancels the popped one.
            for negated, k_term in tail:
                product = factor + k_term
                if overflow and -product & overflow:
                    return None
                entry = work.get(product)
                if entry is None:
                    work[product] = negated * c
                    heappush(live, product)
                else:
                    rest = entry + negated * c
                    if rest:
                        work[product] = rest
                    else:
                        del work[product]
            if record:
                quotients.setdefault(position, []).append((c, factor, scale))
        return remainder_terms, quotients, steps

    def first_divisor(self, m):
        """The smallest position whose leading monomial divides the
        monomial m, or None; the one lead-divisibility query of the
        library.  Widens the layout first when m does not fit it."""
        self._fit(m.max_index(), max((e for _, e in m.exps), default=0))
        return self._first_divisor(self._packed(m))

    def _first_divisor(self, x):
        """The smallest position whose leading monomial divides the packed
        exponents x, or None.

        A lead divides x only if x uses the lead's top variable, so only
        the buckets of the variables x uses are scanned (their guard bits
        are those that survive subtracting one from every field of x with
        its guard bits set), each in increasing position up to the best
        found so far.  A constant lead divides every x.
        """
        guard, buckets = self._guard, self._buckets
        with_guards = x | guard
        used = (with_guards - self._ones) & self._bucketed
        best = self._constant
        while used:
            low = used & -used
            used ^= low
            for position, lead in buckets[low]:
                if position >= best:
                    break
                if (with_guards - lead) & guard == guard:
                    best = position
                    break
        return None if best == _NO_POSITION else best

    def _polynomial(self, terms):
        """A polynomial from (c, key, scale) triples in decreasing order,
        each standing for the term (c/scale) * monomial."""
        monomial = self._monomial
        p = self._modulus
        if p is None:
            pairs = tuple((Fraction(c, s), monomial(k)) for c, k, s in terms)
        else:
            pairs = tuple((GFElement(c, p), monomial(k)) for c, k, _ in terms)
        return Polynomial(self.context, pairs)

    def _quotient(self, position, terms):
        """The quotient of divisor `position` from its (q, factor key,
        scale) records: row = (l/lc) * divisor, l the row's leading
        coefficient and lc the divisor's, so each term is q*l/(scale*lc)."""
        unit = self.context.coeff(self._rows[position][1] or 1)
        unit = unit / self.divisors[position].terms[0][0]
        pairs = self._polynomial(terms).terms
        return Polynomial(self.context, tuple((c * unit, m) for c, m in pairs))


def _cleared(terms):
    """The numerators of rational terms over their least common
    denominator, and that denominator."""
    scale = lcm(*(c.denominator for c, _ in terms))
    return [c.numerator * (scale // c.denominator) for c, _ in terms], scale


def _max_exponent(f):
    return max((e for _, m in f.terms for _, e in m.exps), default=0)


def _top_index(f):
    return max((m.max_index() for _, m in f.terms), default=0)


def _table(f, divisors):
    if isinstance(divisors, DivisorTable):
        return divisors
    return DivisorTable(f.context, divisors)


def divide(f, divisors):
    """Divide f by an ordered sequence of nonzero divisors, or by the
    divisors of a `DivisorTable`.

    Among divisors whose leading monomial divides the current leading
    monomial, the first in the sequence wins, which makes the result
    deterministic for a fixed divisor order.  A quotient's factors come out
    strictly decreasing, so it is built as it is recorded.
    """
    table = _table(f, divisors)
    remainder_terms, quotients, steps = table._divide(f, True)
    return DivisionResult(
        tuple(
            (position, table._quotient(position, terms))
            for position, terms in sorted(quotients.items())
        ),
        table._polynomial(remainder_terms),
        steps,
    )


def remainder(f, divisors):
    """The remainder of f; unique when the divisors form a Groebner base.

    Takes a sequence of divisors or a `DivisorTable`; give a table when
    dividing many polynomials by one basis, so it is packed once.
    """
    table = _table(f, divisors)
    return table._polynomial(table._divide(f, False)[0])


def is_member(f, basis):
    """Ideal membership: f lies in the span iff its remainder is zero.

    Requires a certified basis; remainder-based membership is only sound
    against an actual Groebner base.
    """
    if not basis.is_certified:
        raise CertificationError(
            f"membership needs a certified basis, got {basis.certificate}"
        )
    return remainder(f, basis.elements).is_zero


def _standard_walk(basis, bound, variables):
    """The arguments of the walk over the standard monomials of a
    homogeneous base up to weighted degree `bound`; the one check shared by
    `standard_monomials` and the counted Hilbert series."""
    context = basis.context
    if not context.order.homogeneous:
        raise HomogeneityError("standard monomials need a homogeneous order")
    leads = []
    for g in basis.elements:
        if not g.is_homogeneous():
            raise HomogeneityError("standard monomials need homogeneous elements")
        leads.append(g.lm())
    weights = context.weights
    return _admissible(weights, bound, variables), weights, bound, leads


def standard_monomials(basis, degree, variables=None):
    """Monomials of the given weighted degree outside the leading-term ideal.

    These form a vector-space basis of the degree slice of the quotient by
    the span.  Requires a homogeneous order and homogeneous elements; the
    enumeration may be restricted to a variable set (anything supporting
    `in`), e.g. the generators of a subring.
    """
    walk = _standard_walk(basis, degree, variables)
    return [_trusted(pairs) for pairs in _pairs_of_degree(*walk)]
