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
The one loop, `DivisorTable._stream`, is set up once for a stream of
jobs, each made into a work dict by one of three builders: a polynomial
(`divide`, `remainder`), a monomial (`monomial_remainder`) or an S-pair
(`spair_remainders`), the last from the two packed tails of its rows
shifted by their factor keys, so no S-polynomial is built.  One kernel,
`pairs_of`, lists the pairs of a row, each as the one tuple (lcm degree,
i, j, packed lcm) that the stream takes as its job.  Verification streams
all of its pairs and stops at the first non-zero remainder; completion
streams pairs from its queue as remainders add to it, and never a pair
whose leads share no variable.
Each step of such a pair tries its own two rows before the table, and
they alone reduce it to zero (Buchberger's first criterion, 1979).  Any
reduction to zero is a standard representation, and over a Groebner
base every one ends at zero, so verification keeps its verdict.
`_pack_row` builds every row, a remainder's from its packed terms
(`divisor_of`), an outside polynomial's from its terms.
The divisor search scans only the leads whose top variable the term uses,
bucketed by that variable, and returns the smallest dividing position,
as a scan over every lead would; a divisor found drops every bucket that
begins after it.  It is the library's only test of lead divisibility:
besides division, interreduction and the reduced-set test ask it of the
packed leads and tails of the rows
(`is_minimal`, `tail_is_reduced`).  The loop asks it once per monomial of
a degree slice, as F4's symbolic preprocessing does (Faugere, JPAA 139,
1999): a table's reducer cache maps each key a slice's divisions meet
and some row divides to its first divisor (`DivisorTable` gives its
scope and off-rule).

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
from operator import itemgetter

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

    The first layout fits the divisors, exponents up to `degree`, the
    largest weighted degree of the polynomials and S-pairs a caller will
    divide, and the variables x1..x{variables}: under a homogeneous order
    it is sized once so that no division or later append widens and
    repacks.

    Interreduction works on the rows in place: `select` reorders and drops
    rows without packing any again, and `replace` changes only the row
    whose tail it reduces, to one built from the remainder's keys.

    The reducer cache maps the order key of a term to the position of its
    first divisor; a key that no row divides is searched again each time.
    It lives for a degree slice, the divisions whose leading terms share
    one weighted degree: a division of another degree starts a fresh one.
    Under a homogeneous order an S-pair's reduction stays in its lcm's
    degree, so the scope loses no repeat; `plex` never caches.  A new
    layout and `select` drop the cache.  `append` and `replace` keep it:
    a new row comes after every cached position, and `replace` keeps the
    lead.  Each slice a stream of divisions enters costs about one search
    and each key found in the cache saves one, so a table that falls as
    many searches behind as it has rows stops caching: one whose keys
    seldom repeat, as in the verification of a power-substitution base.
    A lone division is a stream of one; an own-row step counts as neither.
    """

    def __init__(self, context, divisors=(), degree=0, variables=0):
        self.context = context
        self.divisors = list(divisors)
        backwards, _, exponent_sign = _KEY_SHAPES[context.order]
        self._backwards = backwards
        self._sign = exponent_sign
        self._homogeneous = context.order.homogeneous
        self._modulus = None if context.field is None else context.field.p
        self._weight_of = dict(context.weights.overrides)
        # Only the homogeneous orders cache reducers; `_lag` counts the
        # slices streams enter less their cache hits (see `_stream`).
        self._caching = self._homogeneous
        self._lag = 0
        for g in self.divisors:
            self._check(g)
        # The weighted degree of each leading monomial, for the S-pairs.
        self._degrees = [self._degree(g.terms[0][1]) for g in self.divisors]
        # One layout for all of them, fitted in one pass over each:
        # appending them one by one would pack every earlier one again.
        top, need = _extent(*self.divisors)
        self._layout(max(top, variables), max(need, degree, 1).bit_length() + 1)

    def _check(self, g):
        if g.context is not self.context and g.context != self.context:
            raise RingContextMismatch(f"{g.context} does not match {self.context}")
        if not g.terms:
            raise ZeroPolynomialError("zero divisor")

    def append(self, g, packed=None):
        """Append divisor g, and its row `packed` as in `replace`."""
        self._check(g)
        self.divisors.append(g)
        self._degrees.append(self._degree(g.terms[0][1]))
        row = packed[1] if packed and packed[0] == self._shape else None
        if row or not self._fit(*_extent(g)):
            self._add_row(row or self._row_of(g, self._degrees[-1]))

    def replace(self, position, g, packed=None):
        """Put g in place of divisor `position`, whose leading monomial it
        keeps, and its row: `packed`, the (layout, row) `divisor_of` gave
        for g, unless a new layout has come since, else g packed again."""
        self.divisors[position] = g
        row = packed[1] if packed and packed[0] == self._shape else None
        if row or not self._fit(*_extent(g)):
            self._rows[position] = row or self._row_of(g, self._degrees[position])

    def select(self, positions):
        """Keep only the rows at `positions`, in that order, packing none
        of them again."""
        for column in (
            self.divisors, self._degrees, self._leads, self._supports, self._rows
        ):
            column[:] = [column[position] for position in positions]
        self._clear_index()
        for position, (x, support) in enumerate(zip(self._leads, self._supports)):
            self._index(position, x, support)

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
        self._shape = (variables, width)
        self._capacity = (1 << (width - 1)) - 1
        self._shift = variables * width
        self._mask = (1 << self._shift) - 1
        # The lowest bit of every field, and the top (guard) bit of every one.
        self._ones = ((1 << self._shift) - 1) // ((1 << width) - 1)
        self._guard = self._ones << (width - 1)
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
        self._clear_index()
        for g, degree in zip(self.divisors, self._degrees):
            self._add_row(self._row_of(g, degree))
        # Every lcm packed before now is stale (see `spair_remainders`).
        self._stale = True

    def _clear_index(self):
        # The divisor index: a bucket of (position, packed lead) pairs in
        # increasing position for each top variable of a lead, under that
        # variable's guard bit; the guard bits of the variables with a
        # bucket; for each position, the guard bits of the buckets that
        # begin below it; the first position of a constant lead.
        self._buckets = {}
        self._bucketed = 0
        self._below = []
        self._constant = _NO_POSITION
        # The reducer cache and the weighted degree of its slice.
        self._slice = None
        self._cache = None

    def _add_row(self, row):
        """Index the row's lead and put the row after the others."""
        position = len(self._leads)
        x = self._exponents(row[0])
        self._leads.append(x)
        support = ((x | self._guard) - self._ones) & self._guard
        self._supports.append(support)
        self._index(position, x, support)
        self._rows.append(row)

    def _index(self, position, x, support):
        """Enter the packed lead x of row `position`, using the variables
        of the guard bits `support`, into the divisor index.  Rows enter
        in position order."""
        self._below.append(self._bucketed)
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

    def _row_of(self, g, degree):
        """The row of divisor g, whose lead has weighted degree `degree`."""
        terms = g.terms
        integers = _cleared(terms, self._modulus)[0]
        keys = [self._order_key(self._packed(terms[0][1]), degree)]
        keys.extend(map(self._key, [m for _, m in terms[1:]]))
        return self._pack_row(integers, keys)

    def divisor_of(self, terms):
        """The monic divisor of the (c, key, scale) terms of a remainder
        and its row, packed from their keys, with the layout it holds in:
        (polynomial, (layout, row)) for `append` or `replace`.  Each
        coefficient is built once, from the row."""
        # The loop only multiplies a scale, so the last is a multiple of
        # every earlier one; over GF(p) each is 1.
        scale = terms[-1][2]
        keys = [k for _, k, _ in terms]
        row = self._pack_row([c * (scale // s) for c, _, s in terms], keys)
        lc = row[1]
        g = self._polynomial(
            [(lc, keys[0], lc), *((-c, k, lc) for c, k in row[2])]
        )
        return g, (self._shape, row)

    def _pack_row(self, integers, keys):
        """The row of the polynomial with the integer coefficients
        `integers` on the monomials of the negated order keys `keys`, lead
        first: (lead key, integer leading coefficient, negated tail as
        (coefficient, key)), primitive with a positive leading coefficient
        over Q and monic over GF(p)."""
        p = self._modulus
        if p is None:
            content = gcd(*integers)
            content = -content if integers[0] < 0 else content
            integers = [c // content for c in integers]
        else:
            inverse = pow(integers[0], -1, p)
            integers = [c * inverse % p for c in integers]
        # The tail is negated once here, not per product.
        return keys[0], integers[0], tuple(
            (-c if p is None else p - c, k) for c, k in zip(integers[1:], keys[1:])
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

    def pairs_of(self, j, bound, coprime):
        """The S-pairs (i, j), i < j, as the jobs (lcm degree, i, j, packed
        lcm) of `spair_remainders`, in increasing i, for those of lcm degree
        at most `bound`, and the number of the others; with `coprime` False,
        the pairs whose leads share no variable are left out.  The lcms hold
        in this layout.

        Subtracting lead j from lead i with every guard bit set leaves the
        guard bit of each field where i's exponent is at least j's: those
        fields take i's exponent in the lcm, the others j's.  Its degree is
        that of both leads less that of their gcd, walked field by field.
        """
        b, degree_j, support_j = self._leads[j], self._degrees[j], self._supports[j]
        guard, width, field_mask = self._guard, self._width, self._capacity
        weights = self._field_weights
        pairs = []
        beyond = 0
        for i, a, support, degree in zip(
            range(j), self._leads, self._supports, self._degrees
        ):
            degree += degree_j
            if support & support_j:
                at_least = ((a | guard) - b) & guard
                fields = at_least - (at_least >> (width - 1))
                lcm = (a & fields) | (b & ~fields)
                common = a + b - lcm
                while common:
                    field = ((common & -common).bit_length() - 1) // width
                    exponent = (common >> (field * width)) & field_mask
                    common ^= exponent << (field * width)
                    degree -= exponent * weights[field]
            elif coprime:
                lcm = a + b
            else:
                continue
            if degree <= bound:
                pairs.append((degree, i, j, lcm))
            else:
                beyond += 1
        return pairs, beyond

    def _exponents(self, key):
        return (key if self._sign < 0 else -key) & self._mask

    def _monomial(self, key):
        """The monomial of a negated order key.  A guard bit set in it means
        the layout was sized too small; decoding would never end, since a
        guard bit reads as exponent 0 and is never cleared."""
        x = self._exponents(key)
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
        return next(self._stream(self._terms_work, [(f,)], record))

    def _terms_work(self, f):
        # Under a homogeneous order no monomial of the division exceeds
        # the degree of lm(f), nor then does any exponent.
        terms = f.terms
        if self._homogeneous:
            top, need = f.max_variable_index(), self._degree(terms[0][1])
        else:
            top, need = _extent(f)
        self._fit(top, need)
        integers, scale = _cleared(terms, self._modulus)
        key = self._key
        return {key(m): c for c, (_, m) in zip(integers, terms)}, scale, need, ()

    def monomial_remainder(self, m):
        """The (c, key, scale) terms of `remainder(Polynomial.from_monomial(
        context, m), table)`, with no polynomial built.  The key is packed
        inside the build, so a widened layout packs it again."""
        return next(self._stream(self._monomial_work, [(m,)]))[0]

    def _monomial_work(self, m):
        if self._homogeneous:
            need = self._degree(m)
        else:
            need = max((e for _, e in m.exps), default=0)
        self._fit(m.max_index(), need)
        return {self._order_key(self._packed(m), need): 1}, 1, need, ()

    def spair_remainders(self, pairs):
        """For each job (lcm degree, i, j, packed lcm), as `pairs_of` lists
        it, the terms of `remainder(s_polynomial(g_i, g_j), table)`, or of
        its remainder modulo [g_i, g_j, then the table] when the leads share
        no variable (each step tries the two rows, uncached, first), read
        only once the remainder before it is taken: a caller may append rows
        and add pairs in between.  Unpack each remainder before the next,
        which may widen the layout its keys hold in.

        The S-polynomial's monomials have weighted degree at most that of
        the leads' lcm; under `plex` its exponents are bounded by an
        exponent of the lcm plus one of g_i or g_j.  Each packed lcm must
        hold in the layout the stream begins in or a later one: a new
        layout marks every carried lcm stale, and the rest of the stream
        takes each lcm again.
        """
        self._stale = False
        return map(itemgetter(0), self._stream(self._spair_work, pairs))

    def _spair_work(self, degree, i, j, lcm):
        """The work dict, scale and lcm degree of (lcm/lt_i) g_i -
        (lcm/lt_j) g_j, the layout first fitted to the pair, and its two
        rows as (position, packed lead) if their leads share no variable.

        With rows r_i = s_i g_i whose leading coefficients l_i, l_j have
        gcd c, the dict holds a (lcm/lm_i) r_i - b (lcm/lm_j) r_j for
        a = l_j / c and b = l_i / c, the S-polynomial times a * l_i: the
        leading terms cancel, leaving the two tails shifted by their factor
        keys.  Equal leading coefficients, as over GF(p), where both rows
        are monic, give a = b = 1 with no gcd taken.
        """
        need = degree
        if not self._homogeneous:
            g_i, g_j = self.divisors[i], self.divisors[j]
            need = max(
                (e for g in (g_i, g_j) for _, e in g.lm().exps), default=0
            ) + _extent(g_i, g_j)[1]
        if need > self._capacity:
            self._fit(0, need)
        if self._stale:
            lcm = self._packed(self.divisors[i].lm().lcm(self.divisors[j].lm()))
        k_lcm = self._order_key(lcm, degree)
        k_lead_i, lc_i, tail_i = self._rows[i]
        k_lead_j, lc_j, tail_j = self._rows[j]
        a = b = 1
        if lc_i != lc_j:
            common = gcd(lc_i, lc_j)
            a, b = lc_j // common, lc_i // common
        # The rows hold negated tails: row i's is negated back, row j's
        # enters as stored.  A loop, not a comprehension, which would run
        # in a frame of its own.
        factor = k_lcm - k_lead_i
        work = {}
        for negated, k in tail_i:
            work[factor + k] = -a * negated
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
        leads, supports = self._leads, self._supports
        own = () if supports[i] & supports[j] else ((i, leads[i]), (j, leads[j]))
        return work, a * lc_i, degree, own

    def _stream(self, build, jobs, record=False):
        """The division loop over a stream of jobs: for each job, in turn,
        yield (remainder terms, {position: quotient terms} or None, steps).

        `build(*job)` fits the layout to the job and returns its work dict
        (key to integer coefficient, consumed here) standing for
        work/scale, the scale, the weighted degree whose slice the reducer
        cache serves, and the (position, packed lead) rows each step tries
        first.  A product that overflows a field, which only `plex`
        allows, widens the fields and builds the job again.
        Jobs are read one at a time, and the rows, the layout and the
        cache again for each, so rows may be appended between two.

        Remainder terms come out as (c, key, scale) and quotient terms as
        (q, factor key, scale), with the scale current when each was made.
        Each key is looked up in the reducer cache, when there is one, and
        searched only when the cache does not hold it; a search that finds
        a divisor is cached.
        """
        first_divisor = self._first_divisor
        flip = self._sign > 0
        p = self._modulus
        entered = None
        for job in jobs:
            while True:
                work, scale, degree, own = build(*job)
                if self._caching and degree != self._slice:
                    self._slice = degree
                    self._cache = {}
                rows = self._rows
                mask, guard = self._mask, self._guard
                overflow = 0 if self._homogeneous else guard
                cache = self._cache
                if cache is not None:
                    lookup = cache.get
                quotients = {} if record else None
                remainder_terms = []
                steps = hits = 0
                live = list(work)
                heapify(live)
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
                    for position, lead in own:
                        with_guards = ((-k if flip else k) & mask) | guard
                        if (with_guards - lead) & guard == guard:
                            break
                    else:
                        position = None if cache is None else lookup(k)
                        if position is not None:
                            hits += 1
                        else:
                            position = first_divisor((-k if flip else k) & mask)
                            if position is not None and cache is not None:
                                cache[k] = position
                    if position is None:
                        remainder_terms.append((c, k, scale))
                        continue
                    k_lead, lc, tail = rows[position]
                    if lc != 1:
                        # Only over Q: make lc divide c by multiplying the
                        # work dict and its scale alike, which leaves
                        # work/scale unchanged.
                        common = gcd(c, lc)
                        if common != lc:
                            multiplier = lc // common
                            for other in work:
                                work[other] *= multiplier
                            scale *= multiplier
                        c //= common
                    factor = k - k_lead
                    # Subtract c*factor*row; its leading term cancels the
                    # popped one.
                    for negated, k_term in tail:
                        product = factor + k_term
                        if overflow and -product & overflow:
                            break
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
                    else:
                        if record:
                            quotients.setdefault(position, []).append(
                                (c, factor, scale)
                            )
                        continue
                    break  # a product overflowed a field
                else:
                    break  # the job is done
                self._layout(self._variables, 2 * self._width)
            if cache is not None:
                # Each slice a stream enters costs about one search and
                # each hit saves one: a table that falls as many searches
                # behind as it has rows stops caching.
                self._lag += (degree != entered) - hits
                entered = degree
                if self._lag >= len(rows):
                    self._caching = False
                    self._cache = None
            yield remainder_terms, quotients, steps

    def lead_keys(self):
        """The order key of each row's leading monomial: sorting by it
        sorts the rows by increasing leading monomial."""
        return [-row[0] for row in self._rows]

    def is_minimal(self, position):
        """Whether row `position` is the first divisor of its own leading
        monomial."""
        return self._first_divisor(self._leads[position]) == position

    def tail_is_reduced(self, position):
        """Whether no leading monomial divides a tail term of row
        `position`, its tail then being its own remainder."""
        flip, mask = self._sign > 0, self._mask
        return all(
            self._first_divisor((-k if flip else k) & mask) is None
            for _, k in self._rows[position][2]
        )

    def _first_divisor(self, x):
        """The smallest position whose leading monomial divides the packed
        exponents x, or None.

        A lead divides x only if x uses the lead's top variable, so only
        the buckets of the variables x uses are scanned (their guard bits
        are those that survive subtracting one from every field of x with
        its guard bits set), each in increasing position up to the best
        found so far.  A bucket that begins at or after the best position
        found cannot hold a smaller one, so finding a divisor drops every
        such bucket at once.  A constant lead divides every x.
        """
        guard, buckets, below = self._guard, self._buckets, self._below
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
                    used &= below[position]
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
        unit = self.context.coeff(self._rows[position][1])
        unit = unit / self.divisors[position].terms[0][0]
        pairs = self._polynomial(terms).terms
        return Polynomial(self.context, tuple((c * unit, m) for c, m in pairs))


def _cleared(terms, p):
    """The numerators of rational terms over their least common
    denominator, and that denominator; over GF(p) the residues and 1."""
    if p is not None:
        return [c.value for c, _ in terms], 1
    scale = lcm(*(c.denominator for c, _ in terms))
    return [c.numerator * (scale // c.denominator) for c, _ in terms], scale


def _extent(*polynomials):
    """The largest variable index and the largest exponent of the
    polynomials."""
    top = need = 0
    for f in polynomials:
        for _, m in f.terms:
            exps = m.exps
            if exps and exps[-1][0] > top:
                top = exps[-1][0]
            for _, exponent in exps:
                if exponent > need:
                    need = exponent
    return top, need


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
