"""Truncated Buchberger computation, reduced bases, filtrations and
regular-sequence checks.

Ideals over infinitely many variables are handled through truncation
windows: a window (n, D) works inside k[x1..xn] and discards S-pairs whose
lcm degree exceeds D.  For homogeneous input under a homogeneous order the
windowed result is a true Groebner base of the truncated ideal in degrees
up to D; per-window bases assemble into bases for the full ideal.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from itertools import groupby

from . import series
from .division import remainder, standard_monomials
from .errors import (
    CertificationError,
    HomogeneityError,
    OrderKindError,
    RingContextMismatch,
    WindowError,
)
from .index_sets import probe_closure
from .monomials import Monomial, OrderKind, sort_key
# Uncalled: perfbench/test_perfbench.py checks its tracer wraps it here.
from .monomials import compare  # noqa: F401
from .polynomials import Polynomial, RingContext, format_polynomial, s_polynomial


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
            raise ValueError("window bounds must be positive")

    def admits(self, f):
        return (
            f.max_variable_index() <= self.var_bound
            and f.weighted_degree() <= self.degree_bound
        )


@dataclass(frozen=True)
class GroebnerBasis:
    """A finite set of polynomials with order, window and certificate data.

    `reduced` records the reduced-basis predicate: every element monic and
    no leading monomial divides any term of another element.  Discard
    counters are bookkeeping only and do not participate in equality.
    """

    context: RingContext
    elements: tuple
    window: TruncationWindow
    certificate: Certificate
    reduced: bool
    discarded_pairs: int = field(default=0, compare=False)
    discarded_elements: int = field(default=0, compare=False)

    @property
    def order(self):
        return self.context.order

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
    """Monic elements, and no lm divides any term of any other element."""
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


def _validate_generators(gens, window, context):
    for g in gens:
        if g.context != context:
            raise RingContextMismatch("generators in mixed ring contexts")
        if g.is_zero:
            raise WindowError("zero generator")
        if not window.admits(g):
            raise WindowError(f"generator {g} outside window {window}")


def buchberger_truncated(gens, window, *, context=None):
    """Complete `gens` to a Groebner base within the window.

    S-pairs are scheduled smallest lcm degree first; pairs with coprime
    leading monomials reduce to zero without computation and are skipped.
    Pairs whose lcm degree exceeds the window (and remainders whose degree
    does) are discarded and counted.  Every surviving S-pair reduces to
    zero against the output, which is what the certificate records.
    """
    gens = list(gens)
    if context is None:
        if not gens:
            raise ValueError("an explicit context is required for no generators")
        context = gens[0].context
    _validate_generators(gens, window, context)
    weights = context.weights

    basis = []
    lead = []
    queue = []
    discarded_pairs = 0
    discarded_elements = 0

    def append(g):
        nonlocal discarded_pairs
        basis.append(g)
        lead.append(g.lm())
        j = len(basis) - 1
        for i in range(j):
            if lead[i].coprime(lead[j]):
                continue
            lcm_degree = lead[i].lcm(lead[j]).degree(weights)
            if lcm_degree > window.degree_bound:
                discarded_pairs += 1
                continue
            heapq.heappush(queue, (lcm_degree, i, j))

    for g in gens:
        append(g)

    while queue:
        _, i, j = heapq.heappop(queue)
        s = s_polynomial(basis[i], basis[j])
        if s.is_zero:
            continue
        r = remainder(s, basis)
        if r.is_zero:
            continue
        if not window.admits(r):
            discarded_elements += 1
            continue
        append(r.monic())

    elements = tuple(_canonical_sorted(basis, context))
    return GroebnerBasis(
        context,
        elements,
        window,
        Certificate.BUCHBERGER_VERIFIED,
        reduced=is_reduced_set(elements),
        discarded_pairs=discarded_pairs,
        discarded_elements=discarded_elements,
    )


def verify_buchberger(basis):
    """Independent re-verification: every S-pair within the window reduces
    to zero by plain division, with no coprime shortcut."""
    elements = list(basis.elements)
    weights = basis.context.weights
    bound = basis.window.degree_bound
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            lcm = elements[i].lm().lcm(elements[j].lm())
            if lcm.degree(weights) > bound:
                continue
            s = s_polynomial(elements[i], elements[j])
            if not s.is_zero and not remainder(s, elements).is_zero:
                return False
    return True


def reduce_basis(basis):
    """Inter-reduce to the reduced Groebner base of the same span.

    Repeatedly replaces each element by its monic remainder with respect to
    the others until nothing changes; elements reducing to zero drop out.
    For a certified input this yields the unique reduced base.
    """
    context = basis.context
    elems = [g.monic() for g in basis.elements if not g.is_zero]
    changed = True
    while changed:
        changed = False
        elems = _canonical_sorted(elems, context)
        i = 0
        while i < len(elems):
            others = elems[:i] + elems[i + 1 :]
            r = remainder(elems[i], others) if others else elems[i]
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


def bayer_stillman_basis(gens, *, window=None, context=None):
    """Certify `gens` as a Groebner base when the leading monomials are
    pairwise coprime (hence a monomial regular sequence); the S-polynomial
    of such a pair reduces to zero against the pair itself, so no completion
    is needed.  Returns None when the shortcut does not apply.
    """
    gens = list(gens)
    if context is None:
        if not gens:
            raise ValueError("an explicit context is required for no generators")
        context = gens[0].context
    for g in gens:
        if g.context != context:
            raise RingContextMismatch("generators in mixed ring contexts")
        if g.is_zero:
            raise WindowError("zero generator")
    leads = [g.lm() for g in gens]
    for i in range(len(leads)):
        for j in range(i + 1, len(leads)):
            if not leads[i].coprime(leads[j]):
                return None
    if window is None:
        var_bound = max([g.max_variable_index() for g in gens], default=0)
        degree_bound = max([g.weighted_degree() for g in gens], default=0)
        window = TruncationWindow(max(1, var_bound), max(1, degree_bound))
    else:
        _validate_generators(gens, window, context)
    elements = tuple(_canonical_sorted(gens, context))
    return GroebnerBasis(
        context,
        elements,
        window,
        Certificate.BAYER_STILLMAN,
        reduced=is_reduced_set(elements),
    )


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
                raise ValueError("explicit generators must be nonzero")
        object.__setattr__(self, "generators", tuple(self.generators))

    @classmethod
    def power_substitution(cls, parts, p, order, weights=None, fieldtag=None):
        """The family i -> x_i^p - x_{p i} for i in `parts`, inside the
        subring on the variables of `parts`; requires p*parts within parts
        (probed on small members)."""
        if p < 2:
            raise ValueError("the substitution exponent must be at least 2")
        probe_closure(parts, p)
        from .monomials import DEFAULT_WEIGHTS

        context = RingContext(order, weights or DEFAULT_WEIGHTS, fieldtag)

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


def assemble_filtration(presentation, windows, *, check_coherence=True):
    """Union of per-window reduced bases; a base of the whole ideal in the
    limit, certified here only as asserted.

    With check_coherence, verifies degreewise (by standard-monomial counts)
    that the union's leading monomials inside each window generate the same
    monomial ideal as that window's own base.
    """
    windows = list(windows)
    if any(
        b.var_bound >= a.var_bound for a, b in zip(windows[1:], windows[:-1])
    ):
        raise WindowError("windows must be strictly increasing in var_bound")
    context = presentation.context
    per_window = []
    union = []
    for window in windows:
        gens = presentation.instantiate(window)
        basis = reduce_basis(buchberger_truncated(gens, window, context=context))
        per_window.append(basis)
        union.extend(basis.elements)
    elements = tuple(_canonical_sorted(union, context))
    combined = GroebnerBasis(
        context,
        elements,
        windows[-1] if windows else TruncationWindow(1, 1),
        Certificate.ASSERTED,
        reduced=False,
    )
    if check_coherence:
        for window, basis in zip(windows, per_window):
            if not _window_coherent(combined, basis, window, presentation.variables):
                raise CertificationError(
                    f"leading terms of the union disagree with the window {window}"
                )
    return combined


def _monomial_ideal_basis(context, lms, window):
    elements = tuple(
        Polynomial.from_monomial(context, lm) for lm in _canonical_monomials(lms, context)
    )
    return GroebnerBasis(
        context, elements, window, Certificate.BAYER_STILLMAN, reduced=False
    )


def _canonical_monomials(lms, context):
    return sorted(set(lms), key=sort_key(context.order, context.weights))


def _window_coherent(combined, window_basis, window, variables):
    """Degreewise check that the union's leading monomials inside the window
    generate (at least) the window's own leading-term ideal.

    Only containment is checked: a union element can carry a leading
    monomial inside k[x1..xn] while the element itself leaves it, so the cut
    leading-term set may be strictly larger than the window's; that strict
    inclusion is expected, not incoherent.
    """
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


def stabilized_reduced_basis(presentation, max_n, degree_bound, window_len=3):
    """Scan reduced bases of the ideal cut to k[x1..xn] for n = 1..max_n and
    emit the elements that persist across the trailing `window_len` values.

    Each per-n base is computed from the generators instantiated inside
    (n, degree_bound); when the presentation does not restrict exactly, this
    under-approximates the cut ideal, which the report's note records.
    """
    if window_len < 2:
        raise ValueError("window_len must be at least 2")
    if max_n < window_len:
        raise ValueError("max_n must be at least window_len")
    context = presentation.context
    history = []
    element_sets = []
    for n in range(1, max_n + 1):
        window = TruncationWindow(n, degree_bound)
        gens = presentation.instantiate(window)
        basis = reduce_basis(buchberger_truncated(gens, window, context=context))
        history.append((n, len(basis.elements)))
        element_sets.append(set(basis.elements))
    window_ns = tuple(range(max_n - window_len + 1, max_n + 1))
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
        basis.context,
        tuple(restricted),
        basis.window,
        Certificate.ASSERTED,
        reduced=False,
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
        expected = expected * series.one_minus_power(
            f.weighted_degree(), probe_degree
        )
    if not work:
        return True
    window = TruncationWindow(n, probe_degree)
    basis = buchberger_truncated(work, window, context=context)
    quotient = series.quotient_series_from_standard_monomials(
        basis, probe_degree, variables=variables
    )
    return quotient == expected
