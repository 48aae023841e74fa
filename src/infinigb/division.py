"""Division with remainder, ideal membership and standard monomials.

The algorithm reduces leading terms first and moves irreducible leading
terms wholesale to the remainder, so the leading monomial of the working
polynomial strictly decreases at every step and termination follows from
the well-ordering of the ambient order.

`divide` keeps the working polynomial as a term accumulator: a dict from
the monomial order key (`sort_key`) to its term, plus the ascending list
of the keys present, so a step costs one key insert or removal per
divisor term instead of a merge of the whole polynomial (the dict
accumulator of sympy's `PolyElement.rem`).  Divisors are found through
`Monomial.signature`, a 64-bit support mask with variable indices folded
modulo 64 (after Bachmann and Schoenemann, ISSAC 1998): a divisor whose
leading monomial's signature has a bit outside the current monomial's
cannot divide it and is skipped, and `Monomial.try_divide` decides the
rest.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from .errors import (
    CertificationError,
    HomogeneityError,
    RingContextMismatch,
    ZeroPolynomialError,
)
from .monomials import Monomial, sort_key
from .polynomials import Polynomial


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


def divide(f, divisors):
    """Divide f by an ordered sequence of nonzero divisors.

    Among divisors whose leading monomial divides the current leading
    monomial, the first in the sequence wins, which makes the result
    deterministic for a fixed divisor order.

    The working polynomial is a dict from order key to (coefficient,
    monomial) plus the ascending list of its live keys, so a reduction step
    touches only the divisor's terms and each monomial's key is computed
    once, when it enters.  A divisor is tried only when the support
    signature of its leading monomial lies inside that of the current one.
    """
    context = f.context
    rows = []
    for g in divisors:
        if g.context is not context and g.context != context:
            raise RingContextMismatch(f"{g.context} does not match {context}")
        if not g.terms:
            raise ZeroPolynomialError("zero divisor")
        lc, lm = g.terms[0]
        rows.append((lm.signature, lm, lc, g.terms))

    key = sort_key(context.order, context.weights)
    work = {key(m): (c, m) for c, m in f.terms}
    live = sorted(work)
    quotient_terms = {}
    remainder_terms = []
    steps = 0
    while live:
        c, m = work.pop(live.pop())
        outside = ~m.signature
        for position, (signature, lm_g, lc_g, terms_g) in enumerate(rows):
            if signature & outside:
                continue
            factor = m.try_divide(lm_g)
            if factor is not None:
                coefficient = c / lc_g
                # Subtract coefficient*factor*g; its leading term cancels m.
                for coef, mono in terms_g[1:]:
                    product = mono * factor
                    k = key(product)
                    entry = work.get(k)
                    if entry is None:
                        work[k] = (-(coef * coefficient), product)
                        insort(live, k)
                    else:
                        rest = entry[0] - coef * coefficient
                        if rest:
                            work[k] = (rest, product)
                        else:
                            del work[k]
                            del live[bisect_left(live, k)]
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


def remainder(f, divisors):
    """The remainder of f; unique when the divisors form a Groebner base."""
    return divide(f, divisors).remainder


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


def standard_monomials(basis, degree, variables=None):
    """Monomials of the given weighted degree outside the leading-term ideal.

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
