"""Truncated Buchberger computation, reduced bases, filtrations and
regular-sequence checks.

Ideals over infinitely many variables are handled through truncation
windows: a window (n, D) works inside k[x1..xn] and discards S-pairs whose
lcm degree exceeds D.  For homogeneous input under a homogeneous order the
windowed result is a true Groebner base of the truncated ideal in degrees
up to D, and its reduced base is unique; per-window bases assemble into
bases for the full ideal.

One completion loop (`_complete`) and one interreduction (`_interreduce`)
serve every caller; both work on the rows of a `DivisorTable` in place.
The stabilization scan and the filtration go through the windows in order
of n, and window n+1 instantiates every generator of window n.  One pass
over the presentation makes and checks each generator once for all the
windows, and each window admits those within its bounds.  When the input
is homogeneous under a homogeneous order and D stays the same, window n+1
therefore continues on window n's table, which holds its reduced base: it
appends the generators it adds, forms S-pairs only with them and the new
remainders (Gebauer & Moeller 1988), and packs again only the rows
interreduction rewrites.  By uniqueness its reduced base is the one a
completion from scratch gives.  Every other window is completed from
scratch on a fresh table.

Pairs are listed off the table's packed leads by one kernel,
`DivisorTable.pairs_of`, each as one job tuple (lcm degree, i, j, packed
lcm), the lcm degree scheduling and window-testing it, and stream through
`DivisorTable.spair_remainders`, which gives packed terms back: no
S-polynomial, lcm or `Monomial` is built per pair.  A non-zero remainder
becomes its monic divisor and row straight from those terms
(`DivisorTable.divisor_of`), packed no further.  Under the homogeneous
orders the new pairs of each element are pruned by the criteria M and F
of Gebauer & Moeller (1988), one packed divisibility test on their lcms
each, inline in `_complete`.  The criterion B sweep over queued pairs and
the removal of elements from pair formation are left out: they cost more
than they saved on binomial input, whose reductions are cheap.
`verify_buchberger` uses no criterion; it reduces coprime pairs too.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

from . import series
from .division import DivisorTable, remainder
from .errors import (
    CertificationError,
    HomogeneityError,
    InputError,
    OrderKindError,
    RingContextMismatch,
    WindowError,
)
from .index_sets import probe_closure
from .monomials import Monomial, OrderKind, sort_key
# Uncalled: perfbench/test_perfbench.py checks its tracer wraps it here.
from .monomials import compare  # noqa: F401
from .polynomials import Polynomial, RingContext, format_polynomial


class Certificate(enum.Enum):
    """How a basis earned its Groebner property."""

    BUCHBERGER_VERIFIED = "buchberger-verified"
    BAYER_STILLMAN = "bayer-stillman"
    ASSERTED = "asserted"


@dataclass(frozen=True)
class TruncationWindow:
    """Computation bounds: variables x1..xn and weighted degree at most D."""

    var_bound: int
    degree_bound: int

    def __post_init__(self):
        if self.var_bound < 1 or self.degree_bound < 1:
            raise InputError("window bounds must be positive")

    def admits(self, f):
        return self.admits_bounds(f.max_variable_index(), f.weighted_degree())

    def admits_bounds(self, top, degree):
        """Whether a polynomial in x1..x{top} of weighted degree `degree`
        lies inside the window."""
        return top <= self.var_bound and degree <= self.degree_bound


@dataclass(frozen=True)
class GroebnerBasis:
    """A finite set of polynomials with order, window and certificate data.

    `reduced` is derived from the elements each time it is read (see the
    property).  Discard counters are bookkeeping only and do not
    participate in equality.
    """

    context: RingContext
    elements: tuple
    window: TruncationWindow
    certificate: Certificate
    discarded_pairs: int = field(default=0, compare=False)
    discarded_elements: int = field(default=0, compare=False)

    @property
    def reduced(self):
        """The reduced-basis predicate on the elements: every element monic
        and no leading monomial divides any term of another element."""
        return is_reduced_set(self.elements)

    @property
    def is_certified(self):
        return self.certificate is not Certificate.ASSERTED

    def leading_monomials(self):
        return tuple(g.lm() for g in self.elements)


def _canonical_order(elements, keys):
    """The positions of `elements` sorted by `keys`, their leading
    monomials' order keys, equal keys by textual form, each position whose
    element equals the one before it left out.

    The text is rendered only for elements sharing a leading monomial.
    """
    ordered = sorted(range(len(elements)), key=keys.__getitem__)
    out = []
    for _, run in groupby(ordered, key=keys.__getitem__):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda position: format_polynomial(elements[position]))
        # Equal elements share a leading monomial and a text, so a repeat
        # follows its first in the run.
        out.append(run[0])
        out.extend(
            position
            for before, position in zip(run, run[1:])
            if elements[position] != elements[before]
        )
    return out


def _canonical_sorted(elements, context):
    """Sort by (leading monomial, textual form) and drop duplicates."""
    key = sort_key(context.order, context.weights)
    elements = list(elements)
    keys = [key(g.lm()) for g in elements]
    return [elements[position] for position in _canonical_order(elements, keys)]


def is_reduced_set(elements):
    """Monic elements, and no lm divides any term of any other element.

    Sorted by leading monomial, stably and keeping duplicates, a lead that
    another divides comes after it or equals it, so the later of the two
    is not its own first divisor in a table of the elements.  No tail term
    may have a first divisor: it is below its own lead, so only another
    lead could divide it.
    """
    elements = list(elements)
    for g in elements:
        if g.is_zero or g.lc() != g.context.one:
            return False
    if not elements:
        return True
    context = elements[0].context
    key = sort_key(context.order, context.weights)
    table = DivisorTable(context, sorted(elements, key=lambda g: key(g.lm())))
    return all(
        table.is_minimal(position) and table.tail_is_reduced(position)
        for position in range(len(elements))
    )


def _generator_context(gens, context):
    """`context` when given, else the first generator's."""
    if context is None:
        if not gens:
            raise InputError("an explicit context is required for no generators")
        context = gens[0].context
    return context


def _validate_generators(gens, window, context):
    """Each generator lies in `context`, is nonzero and, unless `window` is
    None, lies inside the window."""
    for g in gens:
        if g.context != context:
            raise RingContextMismatch("generators in mixed ring contexts")
        if g.is_zero:
            raise WindowError("zero generator")
        if window is not None and not window.admits(g):
            raise WindowError(f"generator {g} outside window {window}")


def _complete(table, start, window):
    """Complete the rows of `table` to a Groebner base within the window,
    forming S-pairs only where at least one member is a row from `start`
    on or a new remainder, which is appended; returns the numbers of pairs
    and of remainders the window discarded.

    The rows before `start` must already be a Groebner base of the
    window's degrees: each of their S-pairs then has a standard
    representation over them, which stays one over any larger set (Becker
    & Weispfenning 1993, ch. 5), so its pairs count as resolved.  `start`
    0 is the plain completion.  The table must be laid out for the degree
    bound, so that no S-pair widens it.

    Element j pairs with each earlier element i whose lead shares a
    variable with its own (`DivisorTable.pairs_of`); a coprime pair
    reduces to zero without computation.  A pair beyond the window is
    discarded and counted; taken by (lcm degree, i), an in-window pair is
    dropped when the lcm of an earlier kept pair (k, j) divides its own:
    the criterion M of Gebauer & Moeller (1988) when it does so strictly,
    F when the two are equal, the first of those being kept.  A non-zero
    remainder is appended as the monic divisor and row that
    `DivisorTable.divisor_of` builds from its packed terms.  Under `plex`
    an in-window pair can reduce to a remainder beyond the window, which
    is discarded; that pair then has no standard representation and
    justifies nothing, so there every pair is reduced.

    This is sound.  Order the pairs by their lcm under divisibility, then
    by creation index max(i, j), then by rank in that sort.  A pair (i, j)
    dropped by (k, j) is justified by two pairs below it: (k, j), whose
    lcm is smaller or equal with a lower rank, and (i, k), whose lcm
    divides that of (i, j) and which was formed earlier or lies among the
    rows before `start`.  With the chain criterion, S(i, j) then has a
    standard representation whenever those two have one, and by
    well-founded induction every in-window pair has one (Becker &
    Weispfenning, ch. 5).  `verify_buchberger` uses no criterion and
    checks this.
    """
    bound = window.degree_bound
    queue = []
    discarded_pairs = 0
    discarded_elements = 0
    # Only `plex` can discard a remainder, which leaves its pair unjustified.
    prune = table.context.order.homogeneous

    def pair_up(j):
        nonlocal discarded_pairs
        pairs, beyond = table.pairs_of(j, bound, False)
        discarded_pairs += beyond
        pairs.sort()
        # The packed lcms of the kept pairs (none under `plex`); d divides
        # lcm when subtracting it with every guard bit set clears none.
        guard = table._guard
        kept = []
        for pair in pairs:
            lcm = pair[3]
            with_guards = lcm | guard
            for d in kept:
                if (with_guards - d) & guard == guard:
                    break
            else:
                if prune:
                    kept.append(lcm)
                heapq.heappush(queue, pair)

    for j in range(start, len(table.divisors)):
        pair_up(j)

    def pairs():
        # Read one at a time: the remainder of each may queue new pairs.
        while queue:
            yield heapq.heappop(queue)

    for terms in table.spair_remainders(pairs()):
        if not terms:
            continue
        r, packed = table.divisor_of(terms)
        if not window.admits(r):
            discarded_elements += 1
            continue
        table.append(r, packed)
        pair_up(len(table.divisors) - 1)
    return discarded_pairs, discarded_elements


def _completed_basis(context, elements, window, discarded):
    """The base of a completion that discarded (pairs, remainders); it is
    only asserted when the window discarded a remainder."""
    discarded_pairs, discarded_elements = discarded
    return GroebnerBasis(
        context,
        tuple(elements),
        window,
        Certificate.ASSERTED
        if discarded_elements
        else Certificate.BUCHBERGER_VERIFIED,
        discarded_pairs=discarded_pairs,
        discarded_elements=discarded_elements,
    )


def _interreduce(table):
    """Interreduce the rows of `table`, whose divisors are monic, in place
    to a reduced set sorted by increasing leading monomial.

    Each round puts the rows in the order `_canonical_sorted` gives their
    divisors, dropping a repeat.  An admissible order never puts a divisor
    after its multiple, so a row is minimal (kept, one per leading
    monomial) exactly when it is its own lead's first divisor, and the
    first divisor of any monomial is a minimal row: division by the whole
    table gives the remainders division by the minimal rows would.  Every
    other row must reduce to zero and is dropped; the monic remainder of
    one that does not is appended and the round repeats.  Each remainder
    adds a leading monomial outside the ideal of the old ones, so this
    ends.  Finally each kept row whose tail some lead divides gets its
    tail's remainder modulo the same rows, all remainders being taken
    before any row changes; a row with no such tail term keeps its
    polynomial and its packed row.
    """
    while True:
        table.select(_canonical_order(table.divisors, table.lead_keys()))
        minimal = []
        extra = []
        for position, g in enumerate(table.divisors):
            if table.is_minimal(position):
                minimal.append(position)
                continue
            terms = table._divide(g, False)[0]
            if terms:
                extra.append(table.divisor_of(terms))
        if len(minimal) < len(table.divisors):
            table.select(minimal)
        if not extra:
            break
        for r, packed in extra:
            table.append(r, packed)
    tails = {}
    for position, g in enumerate(table.divisors):
        if not table.tail_is_reduced(position):
            terms = table._divide(Polynomial(table.context, g.terms[1:]), False)[0]
            # The monic lead at scale 1, its key read after the division,
            # which may widen the layout.
            lead = (1, table._rows[position][0], 1)
            tails[position] = table.divisor_of([lead, *terms])
    for position, tail in tails.items():
        table.replace(position, *tail)


def buchberger_truncated(gens, window, *, context=None):
    """Complete `gens` to a Groebner base within the window.

    S-pairs are scheduled smallest lcm degree first; pairs with coprime
    leading monomials reduce to zero without computation and are skipped.
    Pairs whose lcm degree exceeds the window (and remainders whose degree
    does) are discarded and counted.  Under a homogeneous order a new pair
    whose lcm a kept new pair's lcm divides is redundant by the chain
    criterion and is dropped (`_complete` gives the argument).  Every
    pair the window admits then has a standard representation over the
    output, which is what the certificate records.  A discarded remainder
    (only `plex` makes one, and `plex` drops no pair) leaves an output
    that is not a Groebner base of the window, so it is certified only as
    asserted.
    """
    gens = list(gens)
    context = _generator_context(gens, context)
    _validate_generators(gens, window, context)
    # No remainder uses a variable its inputs do not, and no S-pair kept
    # exceeds the degree bound.
    table = DivisorTable(context, gens, window.degree_bound)
    discarded = _complete(table, 0, window)
    elements = [
        table.divisors[position]
        for position in _canonical_order(table.divisors, table.lead_keys())
    ]
    return _completed_basis(context, elements, window, discarded)


def verify_buchberger(basis):
    """Independent re-verification: every S-pair within the window reduces
    to zero, with no pair criterion.

    `DivisorTable.pairs_of` lists every pair, coprime ones included, as
    the job tuple (lcm degree, i, j, packed lcm) that the stream takes,
    its lcm degree read off the packed leads.  They are reduced in one
    stream in order of lcm degree, then of (j, i), so the table's reducer
    cache serves one degree slice at a time, and the first non-zero
    remainder ends it.  A coprime pair tries its own two rows before the
    table (`DivisorTable.spair_remainders`).  Neither changes the verdict:
    any reduction to zero is a standard representation, and over a
    Groebner base every reduction ends at zero.
    """
    bound = basis.window.degree_bound
    # Laid out once for every S-pair inside the window.
    table = DivisorTable(basis.context, basis.elements, bound)
    pairs = []
    for j in range(len(table.divisors)):
        pairs += table.pairs_of(j, bound, True)[0]
    # Listed by (j, i), so a stable sort by degree orders them by (lcm
    # degree, j, i).
    pairs.sort(key=itemgetter(0))
    return not any(table.spair_remainders(pairs))


def reduce_basis(basis):
    """Inter-reduce to a reduced generating set of the same ideal:
    `_interreduce` on a fresh table of the monic elements.

    For a Groebner base of the window every element that is not minimal
    reduces to zero, and the result is the unique reduced base; a
    completion that discarded an out-of-window remainder is not one, and
    its discarded generators come back here.
    """
    context = basis.context
    pending = [g.monic() for g in basis.elements if not g.is_zero]
    degree = max((g.weighted_degree() for g in pending), default=0)
    table = DivisorTable(context, pending, degree)
    _interreduce(table)
    return GroebnerBasis(
        context,
        tuple(table.divisors),
        basis.window,
        basis.certificate,
        discarded_pairs=basis.discarded_pairs,
        discarded_elements=basis.discarded_elements,
    )


def bayer_stillman_basis(gens, *, window=None, context=None):
    """Certify `gens` as a Groebner base when the leading monomials are
    pairwise coprime (hence a monomial regular sequence); the S-polynomial
    of such a pair reduces to zero against the pair itself, so no completion
    is needed.  Returns None when the shortcut does not apply; generators
    outside a given window raise first.
    """
    gens = list(gens)
    context = _generator_context(gens, context)
    _validate_generators(gens, window, context)
    # Pairwise coprime: each support misses the union of the earlier ones.
    used = set()
    for g in gens:
        support = g.lm().support()
        if not used.isdisjoint(support):
            return None
        used.update(support)
    if window is None:
        var_bound = max([g.max_variable_index() for g in gens], default=0)
        degree_bound = max([g.weighted_degree() for g in gens], default=0)
        window = TruncationWindow(max(1, var_bound), max(1, degree_bound))
    elements = tuple(_canonical_sorted(gens, context))
    return GroebnerBasis(context, elements, window, Certificate.BAYER_STILLMAN)


def coprime_basis(presentation, window):
    """The Groebner base of the generators that `presentation` instantiates
    in `window`, certified by their pairwise coprime leading monomials;
    raises CertificationError when the leads are not coprime.  A
    power-substitution window always certifies: under every order its
    leads are all x_i^p or all x_{p i}."""
    basis = bayer_stillman_basis(
        presentation.instantiate(window), window=window, context=presentation.context
    )
    if basis is None:
        raise CertificationError("substitution family failed to certify")
    return basis


@dataclass(frozen=True)
class IdealPresentation:
    """Generators of an ideal: an explicit list, a parametric family rule,
    or both, inside an optional variable subring.

    A window (n, D) instantiates exactly the generators with all variables
    at most n and weighted degree at most D; the family parameters scanned
    are the indices up to n that lie in `variables` (all when it is None).
    """

    context: RingContext
    generators: tuple = ()
    family: object = None
    variables: object = None

    def __post_init__(self):
        for g in self.generators:
            if g.context != self.context:
                raise RingContextMismatch("generator in a different ring context")
            if g.is_zero:
                raise InputError("explicit generators must be nonzero")
        object.__setattr__(self, "generators", tuple(self.generators))

    @classmethod
    def power_substitution(cls, parts, p, order, fieldtag=None):
        """The family i -> x_i^p - x_{p i} for i in `parts`, inside the
        subring on the variables of `parts`; requires p*parts within parts
        (probed on small members)."""
        if p < 2:
            raise InputError("the substitution exponent must be at least 2")
        probe_closure(parts, p)
        context = RingContext(order, field=fieldtag)

        def rule(i, context=context, p=p):
            return Polynomial.from_terms(
                context,
                (
                    (1, Monomial.variable(i, p)),
                    (-1, Monomial.variable(p * i)),
                ),
            )

        return cls(context, generators=(), family=rule, variables=parts)

    def instantiate(self, window):
        """The generators visible inside the window, each checked to be
        nonzero, of the presentation's ring context and within the
        configured subring."""
        return [g for _, g in next(self._instantiations([window]))]

    def _instantiations(self, windows):
        """For each window in turn, the (position, generator) pairs of the
        generators it instantiates, positions counting the candidates.

        One pass makes the candidates for every window: the explicit
        generators, then the family member of each index up to the largest
        var_bound so far, each made once, checked once (`_check_candidate`),
        and kept unless an earlier candidate equals it.  A window
        instantiates the kept candidates of index at most its var_bound
        that it admits, in candidate order: the list a pass for that window
        alone gives, since equal candidates are admitted alike and the
        first has the smaller index.  Each kept candidate's admission is
        read off its index, top variable and weighted degree, taken once.
        """
        candidates = []
        seen = set()
        # The explicit generators come first, at index 0.
        fresh = [(0, g) for g in self.generators]
        top = 0
        for window in windows:
            if self.family is not None:
                fresh.extend(
                    (i, self.family(i))
                    for i in range(top + 1, window.var_bound + 1)
                    if self.variables is None or i in self.variables
                )
            top = max(top, window.var_bound)
            for index, g in fresh:
                self._check_candidate(g)
                # One hash per candidate: the set grows only for a new one.
                size = len(seen)
                seen.add(g)
                if len(seen) > size:
                    top_variable = max(index, g.max_variable_index())
                    candidates.append((top_variable, g.weighted_degree(), g))
            fresh = []
            yield [
                (position, g)
                for position, (top_variable, degree, g) in enumerate(candidates)
                if window.admits_bounds(top_variable, degree)
            ]

    def _check_candidate(self, g):
        """Raise RingContextMismatch unless g lies in the presentation's
        ring context, and CertificationError unless it is nonzero and lies
        in the configured subring."""
        if g.context != self.context:
            raise RingContextMismatch("generators in mixed ring contexts")
        if g.is_zero:
            raise CertificationError("a family rule produced zero")
        if self.variables is not None:
            for _, m in g.terms:
                for index in m.support():
                    if index not in self.variables:
                        raise CertificationError(
                            f"generator {g} leaves the configured subring"
                        )


def _window_bases(presentation, windows):
    """The reduced base of each window in turn, for windows increasing in
    var_bound.

    The generators come from one pass over the presentation's candidates
    (`IdealPresentation._instantiations`), and a run of windows carries one
    divisor table, laid out once for the last window's var_bound and the
    degree bound.  A window instantiates every generator of the one before
    it, so when carrying is exact its completion starts from the table of
    the previous window's reduced base, appends only the candidates
    admitted for the first time, and interreduces in place
    (`_interreduce`): a row whose lead a new lead divides is dropped, and
    only the new rows and the rows whose tails a new lead touches are
    reduced and packed again.  It is exact when the order is homogeneous,
    every instantiated generator is homogeneous and the degree bound is the
    previous one's: then no remainder leaves the window and the previous
    base is a Groebner base of the new window's degrees for its own ideal,
    so the completion is one of the new ideal and its reduced base is the
    unique one.  A carried window that instantiates no new generator keeps
    the previous base as it is.  Any other window is completed from
    scratch on a fresh table.  The pass has already checked each generator
    once and admitted it by the window's bounds, so none is checked again
    here.
    """
    context = presentation.context
    windows = list(windows)
    variables = max((window.var_bound for window in windows), default=0)
    previous = table = None
    # Whether every generator of the previous window is homogeneous, and
    # the candidate positions it admitted.
    homogeneous = False
    taken = set()
    for window, admitted in zip(windows, presentation._instantiations(windows)):
        new = [g for position, g in admitted if position not in taken]
        taken = {position for position, _ in admitted}
        carried = (
            previous is not None
            and previous.window.degree_bound == window.degree_bound
            and context.order.homogeneous
            and homogeneous
            and all(g.is_homogeneous() for g in new)
        )
        if carried and not new:
            # The completion would form no pair and keep the base as it is.
            previous = GroebnerBasis(
                context, previous.elements, window, Certificate.BUCHBERGER_VERIFIED
            )
            yield previous
            continue
        gens = new if carried else [g for _, g in admitted]
        # Interreduction needs monic rows; a row is the same for g and g.monic().
        gens = [g.monic() for g in gens]
        if carried:
            start = len(table.divisors)
            for g in gens:
                table.append(g)
        else:
            homogeneous = all(g.is_homogeneous() for g in gens)
            start = 0
            # Lay the table out for the last window only when later windows
            # can carry it; otherwise the fields stay as narrow as the
            # window's generators need.
            table = DivisorTable(
                context,
                gens,
                window.degree_bound,
                variables if context.order.homogeneous and homogeneous else 0,
            )
        discarded = _complete(table, start, window)
        _interreduce(table)
        previous = _completed_basis(context, table.divisors, window, discarded)
        yield previous


def assemble_filtration(presentation, windows, *, check_coherence=True):
    """Union of per-window reduced bases; a base of the whole ideal in the
    limit, certified here only as asserted.

    With check_coherence, under a homogeneous order, certifies that the
    window ideals increase: each element of a window's base must be an
    element of the next window's base or have remainder zero modulo it,
    else CertificationError names both windows.  This is membership by
    remainder (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms,
    sec. 2.6), and it holds whenever the next window's degree bound is not
    lower: that window instantiates every generator of this one, and a
    homogeneous-order completion keeps every pair up to its degree bound
    and discards no remainder, so every element of degree at most that
    bound built from its generators reduces to zero modulo its base.  A
    pair whose degree bound falls, and every pair under `plex`, is not
    checked.
    """
    windows = list(windows)
    if any(
        b.var_bound >= a.var_bound for a, b in zip(windows[1:], windows[:-1])
    ):
        raise WindowError("windows must be strictly increasing in var_bound")
    context = presentation.context
    per_window = list(_window_bases(presentation, windows))
    if check_coherence and context.order.homogeneous:
        for earlier, later in zip(per_window, per_window[1:]):
            if later.window.degree_bound < earlier.window.degree_bound:
                continue
            own = set(later.elements)
            rest = [g for g in earlier.elements if g not in own]
            if not rest:
                continue
            table = DivisorTable(context, later.elements, later.window.degree_bound)
            if any(not remainder(g, table).is_zero for g in rest):
                raise CertificationError(
                    f"the base of the window {earlier.window} does not lie "
                    f"in the ideal of the window {later.window}"
                )
    union = [g for basis in per_window for g in basis.elements]
    return GroebnerBasis(
        context,
        tuple(_canonical_sorted(union, context)),
        windows[-1] if windows else TruncationWindow(1, 1),
        Certificate.ASSERTED,
    )


@dataclass(frozen=True)
class StabilityScan:
    """Result of scanning reduced bases G_1..G_max for persistence.

    `stable` holds the elements present in every base of the trailing
    window; persistence over a finite window approximates membership of the
    limiting reduced base but does not prove it (see `note`).
    """

    stable: tuple
    unstable: tuple
    history: tuple
    window_ns: tuple
    stabilized: bool
    note: str = (
        "finite approximation: persistence across the trailing window does "
        "not prove membership of the limiting reduced base"
    )


STABILITY_WINDOW = 3


def stabilized_reduced_basis(presentation, max_n, degree_bound):
    """Scan reduced bases of the ideal cut to k[x1..xn] for n = 1..max_n and
    emit the elements that persist across the trailing STABILITY_WINDOW
    values.

    Each per-n base is computed from the generators instantiated inside
    (n, degree_bound); when the presentation does not restrict exactly, this
    under-approximates the cut ideal, which the report's note records.
    """
    if max_n < STABILITY_WINDOW:
        raise InputError(f"max_n must be at least {STABILITY_WINDOW}")
    context = presentation.context
    history = []
    window_ns = tuple(range(max_n - STABILITY_WINDOW + 1, max_n + 1))
    # Only the trailing windows' elements are compared.
    tail = []
    windows = [TruncationWindow(n, degree_bound) for n in range(1, max_n + 1)]
    for n, basis in enumerate(_window_bases(presentation, windows), start=1):
        history.append((n, len(basis.elements)))
        if n >= window_ns[0]:
            tail.append(set(basis.elements))
    stable = set.intersection(*tail)
    union = set.union(*tail)
    unstable = union - stable
    return StabilityScan(
        stable=tuple(_canonical_sorted(stable, context)),
        unstable=tuple(_canonical_sorted(unstable, context)),
        history=tuple(history),
        window_ns=window_ns,
        stabilized=not unstable,
    )


def purelex_restriction_check(basis, n):
    """Under the pure lexicographic order, the elements of a base lying in
    k[x1..xn] form a base of the restricted ideal; check this within the
    window.

    Re-runs Buchberger verification on the elements in k[x1..xn].  Under
    `plex` a monomial that uses a variable beyond x_n is above every
    monomial of k[x1..xn], so an element's leading monomial uses its
    largest variable: the leading monomials inside k[x1..xn] are exactly
    those of the restricted elements.
    """
    if basis.context.order is not OrderKind.PURE_LEX:
        raise OrderKindError("restriction check applies to the pure lex order")
    restricted = [
        g for g in basis.elements if g.max_variable_index() <= n
    ]
    sub = GroebnerBasis(
        basis.context, tuple(restricted), basis.window, Certificate.ASSERTED
    )
    return verify_buchberger(sub)


def check_fr_condition(sequence, probe_degree):
    """Decide regularity of a homogeneous sequence up to the probe degree.

    Uses the Hilbert-series criterion: the quotient by the sequence has the
    series of the ambient truncation times the product of (1 - T^deg f),
    coefficientwise up to T^probe, exactly when the sequence is regular in
    those degrees.  The criterion depends only on the generated ideal and
    the degree multiset, so it is invariant under permutations, matching
    the permutation invariance of homogeneous regular sequences.
    """
    sequence = list(sequence)
    if not sequence:
        return True
    context = sequence[0].context
    if not context.order.homogeneous:
        raise OrderKindError("the regularity certificate needs a homogeneous order")
    for f in sequence:
        if f.context != context:
            raise RingContextMismatch("sequence in mixed ring contexts")
        if f.is_zero or not f.is_homogeneous():
            raise HomogeneityError("regular sequences need nonzero homogeneous terms")
        if f.weighted_degree() < 1:
            raise HomogeneityError("regular sequences need positive degrees")
    n = max(f.max_variable_index() for f in sequence)
    # Elements of degree beyond the probe are invisible below it, on both
    # routes, so they are dropped from both.
    work = [f for f in sequence if f.weighted_degree() <= probe_degree]
    variables = range(1, n + 1)
    expected = series.ambient_series(context.weights, variables, probe_degree)
    for f in work:
        expected = expected.times_one_minus_power(f.weighted_degree())
    if not work:
        return True
    window = TruncationWindow(n, probe_degree)
    basis = buchberger_truncated(work, window, context=context)
    quotient = series.quotient_series_from_standard_monomials(
        basis, probe_degree, variables=variables
    )
    return quotient == expected
