"""Truncated Buchberger computation, reduced bases, filtrations and
regular-sequence checks.

Ideals over infinitely many variables are handled through truncation
windows: a window (n, D) works inside k[x1..xn] and discards S-pairs whose
lcm degree exceeds D.  For homogeneous input under a homogeneous order the
windowed result is a true Groebner base of the truncated ideal in degrees
up to D, and its reduced base is unique; per-window bases assemble into
bases for the full ideal.

One completion loop (`_complete`) serves every caller.  The stabilization
scan and the filtration go through the windows in order of n, and window
n+1 instantiates every generator of window n.  When the input is
homogeneous under a homogeneous order and D stays the same, window n+1
therefore starts from window n's reduced base and forms S-pairs only with
the generators it adds (Gebauer & Moeller 1988): by uniqueness its reduced
base is the one a completion from scratch gives.  Every other window is
completed from scratch.

Pairs are scheduled and window-tested by their lcm degree, read off the
divisor table's packed leading monomials (`DivisorTable.spair_degree`),
and reduced from the table's rows (`DivisorTable.spair_remainder`), so
no S-polynomial, lcm or `Monomial` is built per pair.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from itertools import groupby

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
        return (
            f.max_variable_index() <= self.var_bound
            and f.weighted_degree() <= self.degree_bound
        )


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
    def order(self):
        return self.context.order

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


def _canonical_sorted(elements, context):
    """Sort by (leading monomial, textual form) and drop duplicates.

    The text is rendered only for elements sharing a leading monomial.
    """
    key = sort_key(context.order, context.weights)
    ordered = sorted(elements, key=lambda g: key(g.lm()))
    out = []
    for _, run in groupby(ordered, key=Polynomial.lm):
        run = list(run)
        if len(run) > 1:
            run.sort(key=format_polynomial)
        for g in run:
            if not out or g != out[-1]:
                out.append(g)
    return out


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
    ordered = sorted(elements, key=lambda g: key(g.lm()))
    table = DivisorTable(context, ordered)
    return all(
        table.first_divisor(g.lm()) == position
        and all(table.first_divisor(m) is None for _, m in g.terms[1:])
        for position, g in enumerate(ordered)
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


def _complete(start, gens, window, context):
    """Complete `start + gens` to a Groebner base within the window, forming
    S-pairs only where at least one member comes from `gens` or is a new
    remainder.

    `start` must already be a Groebner base of the window's degrees: each
    of its S-pairs then has a standard representation over `start`, which
    stays one over any larger set (Becker & Weispfenning 1993, ch. 5), so
    its pairs count as resolved.  An empty `start` is the plain completion.
    """
    _validate_generators(gens, window, context)
    bound = window.degree_bound
    # No remainder uses a variable its inputs do not, and no S-pair kept
    # exceeds the degree bound.
    table = DivisorTable(context, [*start, *gens], bound)
    queue = []
    discarded_pairs = 0
    discarded_elements = 0

    def pair_up(j):
        nonlocal discarded_pairs
        for i in range(j):
            lcm_degree, coprime = table.spair_degree(i, j)
            # A coprime pair reduces to zero without computation.
            if coprime:
                continue
            if lcm_degree > bound:
                discarded_pairs += 1
                continue
            heapq.heappush(queue, (lcm_degree, i, j))

    for j in range(len(start), len(table.divisors)):
        pair_up(j)

    while queue:
        lcm_degree, i, j = heapq.heappop(queue)
        r = table.spair_remainder(i, j, lcm_degree)
        if r.is_zero:
            continue
        if not window.admits(r):
            discarded_elements += 1
            continue
        r = r.monic()
        table.append(r)
        pair_up(len(table.divisors) - 1)

    elements = tuple(_canonical_sorted(table.divisors, context))
    return GroebnerBasis(
        context,
        elements,
        window,
        Certificate.ASSERTED
        if discarded_elements
        else Certificate.BUCHBERGER_VERIFIED,
        discarded_pairs=discarded_pairs,
        discarded_elements=discarded_elements,
    )


def buchberger_truncated(gens, window, *, context=None):
    """Complete `gens` to a Groebner base within the window.

    S-pairs are scheduled smallest lcm degree first; pairs with coprime
    leading monomials reduce to zero without computation and are skipped.
    Pairs whose lcm degree exceeds the window (and remainders whose degree
    does) are discarded and counted.  Every surviving S-pair reduces to
    zero against the output, which is what the certificate records.  A
    discarded remainder (only `plex` makes one) leaves an output that is
    not a Groebner base of the window, so it is certified only as asserted.
    """
    gens = list(gens)
    return _complete((), gens, window, _generator_context(gens, context))


def verify_buchberger(basis):
    """Independent re-verification: every S-pair within the window reduces
    to zero by plain division, with no coprime shortcut.

    The window test reads each pair's lcm degree off the table's packed
    leading monomials, so no `Monomial` lcm is built.
    """
    bound = basis.window.degree_bound
    # Laid out once for every S-pair inside the window.
    table = DivisorTable(basis.context, basis.elements, bound)
    for j in range(len(basis.elements)):
        for i in range(j):
            lcm_degree = table.spair_degree(i, j)[0]
            if lcm_degree > bound:
                continue
            if not table.spair_remainder(i, j, lcm_degree).is_zero:
                return False
    return True


def reduce_basis(basis):
    """Inter-reduce to a reduced generating set of the same ideal.

    Each round packs the pending elements once, sorted by increasing
    leading monomial.  An admissible order never puts a divisor after its
    multiple, so an element is minimal (kept, one per leading monomial)
    exactly when its lead's first divisor in that table is its own row.
    The first divisor of any monomial is then a minimal row, so division
    by the whole table gives the remainders division by the minimal rows
    would.  Every other element must reduce to zero; the monic remainder
    of one that does not joins the set and the round repeats.  Each
    remainder adds a leading monomial outside the ideal of the old ones,
    so this ends.  Finally the tail of each kept element is replaced by
    its remainder modulo the same table.  For a Groebner base of the
    window every dropped element reduces to zero, and the result is the
    unique reduced base; a completion that discarded an out-of-window
    remainder is not one, and its discarded generators come back here.
    """
    context = basis.context
    pending = [g.monic() for g in basis.elements if not g.is_zero]
    while True:
        ordered = _canonical_sorted(pending, context)
        degree = max((g.weighted_degree() for g in pending), default=0)
        table = DivisorTable(context, ordered, degree)
        minimal = []
        extra = []
        for position, g in enumerate(ordered):
            if table.first_divisor(g.lm()) == position:
                minimal.append(g)
                continue
            r = remainder(g, table)
            if not r.is_zero:
                extra.append(r.monic())
        if not extra:
            break
        pending = minimal + extra
    # Sorted by distinct leading monomials, which tail reduction keeps.
    elements = tuple(
        Polynomial(
            context,
            g.terms[:1] + remainder(Polynomial(context, g.terms[1:]), table).terms,
        )
        for g in minimal
    )
    return GroebnerBasis(
        context,
        elements,
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


@dataclass(frozen=True)
class IdealPresentation:
    """Generators of an ideal: an explicit list, a parametric family rule,
    or both, inside an optional variable subring.

    A window (n, D) instantiates exactly the generators with all variables
    at most n and weighted degree at most D; family parameters are scanned
    up to n.
    """

    context: RingContext
    generators: tuple = ()
    family: object = None
    family_indices: object = None
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

        return cls(
            context,
            generators=(),
            family=rule,
            family_indices=parts,
            variables=parts,
        )

    def instantiate(self, window):
        """The generators visible inside the window, validated nonzero and
        within the configured subring."""
        seen = set()
        out = []

        def admit(g):
            if g.is_zero:
                raise CertificationError("a family rule produced zero")
            if self.variables is not None:
                for _, m in g.terms:
                    for index in m.support():
                        if index not in self.variables:
                            raise CertificationError(
                                f"generator {g} leaves the configured subring"
                            )
            if window.admits(g) and g not in seen:
                seen.add(g)
                out.append(g)

        for g in self.generators:
            admit(g)
        if self.family is not None:
            for i in range(1, window.var_bound + 1):
                if self.family_indices is None or i in self.family_indices:
                    admit(self.family(i))
        return out


def _window_bases(presentation, windows):
    """The reduced base of each window in turn, for windows increasing in
    var_bound.

    A window instantiates every generator of the one before it, so when
    carrying is exact its completion starts from the previous window's
    reduced base and adds only the generators instantiated for the first
    time.  It is exact when the order is homogeneous, every instantiated
    generator is homogeneous and the degree bound is the previous one's:
    then no remainder leaves the window and the previous base is a
    Groebner base of the new window's degrees for its own ideal, so the
    completion is one of the new ideal and its reduced base is the unique
    one.  A carried window that instantiates no new generator keeps the
    previous base as it is.  Any other window is completed from scratch.
    """
    context = presentation.context
    previous = seen = None
    for window in windows:
        gens = presentation.instantiate(window)
        carried = (
            previous is not None
            and previous.window.degree_bound == window.degree_bound
            and context.order.homogeneous
            and all(g.is_homogeneous() for g in gens)
            and seen.issubset(gens)
        )
        new = [g for g in gens if g not in seen] if carried else gens
        if carried and not new:
            # The completion would form no pair and keep the base as it is.
            previous = GroebnerBasis(
                context, previous.elements, window, Certificate.BUCHBERGER_VERIFIED
            )
        else:
            start = previous.elements if carried else ()
            previous = reduce_basis(_complete(start, new, window, context))
        seen = set(gens)
        yield previous


def assemble_filtration(presentation, windows, *, check_coherence=True):
    """Union of per-window reduced bases; a base of the whole ideal in the
    limit, certified here only as asserted.

    With check_coherence, verifies by leading-monomial divisibility that the
    union's leading monomials inside each window generate (at least) that
    window's own leading-term ideal up to the window's degree bound.
    """
    windows = list(windows)
    if any(
        b.var_bound >= a.var_bound for a, b in zip(windows[1:], windows[:-1])
    ):
        raise WindowError("windows must be strictly increasing in var_bound")
    context = presentation.context
    per_window = list(_window_bases(presentation, windows))
    union = [g for basis in per_window for g in basis.elements]
    elements = tuple(_canonical_sorted(union, context))
    combined = GroebnerBasis(
        context,
        elements,
        windows[-1] if windows else TruncationWindow(1, 1),
        Certificate.ASSERTED,
    )
    if check_coherence:
        for window, basis in zip(windows, per_window):
            if not _window_coherent(combined, basis, window, presentation.variables):
                raise CertificationError(
                    f"leading terms of the union disagree with the window {window}"
                )
    return combined


def _window_coherent(combined, window_basis, window, variables):
    """Check that the union's leading monomials inside the window generate
    (at least) the window's own leading-term ideal, up to the degree bound.

    A monomial lies in a monomial ideal exactly when some generator divides
    it, so each leading monomial w of the window's base that is admissible
    (weighted degree <= D, support in x1..xn and in `variables`) must be
    divisible by a leading monomial of the cut, the union elements whose
    leading monomial lies in k[x1..xn].  Inadmissible w have no admissible
    multiple of degree <= D and are skipped.  A divisor of an admissible w
    lies in k[x1..xn] itself, so asking a divisor table of the whole union
    for a first divisor of w is the same as asking one of the cut.

    Only containment is checked: a union element can carry a leading
    monomial inside k[x1..xn] while the element itself leaves it, so the cut
    leading-term set may be strictly larger than the window's; that strict
    inclusion is expected, not incoherent.
    """
    context = combined.context
    if not context.order.homogeneous:
        return True
    table = DivisorTable(context, combined.elements)
    for w in window_basis.leading_monomials():
        admissible = (
            w.degree(context.weights) <= window.degree_bound
            and w.max_index() <= window.var_bound
            and (variables is None or all(i in variables for i in w.support()))
        )
        if admissible and table.first_divisor(w) is None:
            return False
    return True


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
    element_sets = []
    windows = [TruncationWindow(n, degree_bound) for n in range(1, max_n + 1)]
    for n, basis in enumerate(_window_bases(presentation, windows), start=1):
        history.append((n, len(basis.elements)))
        element_sets.append(set(basis.elements))
    window_ns = tuple(range(max_n - STABILITY_WINDOW + 1, max_n + 1))
    tail = [element_sets[n - 1] for n in window_ns]
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

    Verifies that every leading monomial inside k[x1..xn] comes from an
    element of k[x1..xn], then re-runs Buchberger verification on the
    restricted subset.
    """
    if basis.context.order is not OrderKind.PURE_LEX:
        raise OrderKindError("restriction check applies to the pure lex order")
    restricted = [
        g for g in basis.elements if g.max_variable_index() <= n
    ]
    for g in basis.elements:
        if g.lm().max_index() <= n and g.max_variable_index() > n:
            return False
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
