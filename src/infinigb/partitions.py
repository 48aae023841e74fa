"""Partition families, the partition/monomial dictionary, and the division
bijections between them.

A partition is a plain tuple of non-increasing positive integers; the empty
tuple is the unique partition of 0.  Under the default grading the map
lambda -> x^lambda (exponent of x_i = multiplicity of the part i) is a
degree-preserving bijection between partitions of n and monomials of
degree n, which is how partition families become quotient-ring questions.
A family's partitions of one weight are listed by the walk over its
standard monomials and counted, for every weight up to N at once, by
`monomials._counts_up_to` over the same walk (`FamilySpec._standard_walk`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import index_sets, series
from .division import DivisorTable
from .errors import CertificationError, InputError
from .groebner import IdealPresentation, TruncationWindow, coprime_basis
from .index_sets import probe_closure
from .monomials import DEFAULT_WEIGHTS, Monomial, OrderKind
from .monomials import _counts_up_to, _pairs_of_degree, _trusted


def check_partition(parts):
    parts = tuple(parts)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise InputError("parts must be non-increasing")
    if parts and parts[-1] < 1:
        raise InputError("parts must be positive")
    return parts


@dataclass(frozen=True)
class FamilySpec:
    """A declarative partition family.

    kind "X": parts in W minus pW (no multiplicity bound);
    kind "Y": parts in W, each value at most p-1 times;
    kind "parts": parts in a plain set; kind "gap2": consecutive parts
    differ by at least 2.
    """

    kind: str
    parts_in: object = None
    p: int = None

    def __post_init__(self):
        if self.kind in ("X", "Y"):
            if self.parts_in is None or self.p is None or self.p < 2:
                raise InputError(f"kind {self.kind} needs a part set and p >= 2")
            probe_closure(self.parts_in, self.p)
        elif self.kind == "parts":
            if self.parts_in is None:
                raise InputError("kind 'parts' needs a part set")
        elif self.kind != "gap2":
            raise InputError(f"unknown family kind {self.kind!r}")

    @classmethod
    def preset(cls, name):
        if name not in _PRESETS:
            raise InputError(f"unknown preset {name!r}")
        return _PRESETS[name]

    def admits_part(self, m):
        if self.kind == "X":
            return m in self.parts_in and not (
                m % self.p == 0 and (m // self.p) in self.parts_in
            )
        if self.kind in ("Y", "parts"):
            return m in self.parts_in
        return True

    def _standard_walk(self, n):
        """The arguments of the walk whose standard monomials of degree at
        most n are the family's partitions: part i is the variable x_i,
        its multiplicity the exponent, under the default grading."""
        indices = [m for m in range(1, n + 1) if self.admits_part(m)]
        if self.kind == "gap2":
            leads = [Monomial.variable(i, 2) for i in indices]
            leads += [Monomial(((i, 1), (i + 1, 1))) for i in indices[:-1]]
        elif self.kind == "Y":
            leads = [Monomial.variable(i, self.p) for i in indices]
        else:
            leads = []
        return indices, DEFAULT_WEIGHTS, n, leads

    def contains(self, parts):
        parts = check_partition(parts)
        if not all(self.admits_part(m) for m in parts):
            return False
        if self.kind == "Y":
            return all(e <= self.p - 1 for _, e in _exponent_pairs(parts))
        if self.kind == "gap2":
            return all(a - b >= 2 for a, b in zip(parts, parts[1:]))
        return True


_PRESETS = {
    "A": FamilySpec("X", index_sets.PM1_MOD3, 2),
    "B": FamilySpec("Y", index_sets.PM1_MOD3, 2),
    "C": FamilySpec("Y", index_sets.ODD, 3),
    "P": FamilySpec("parts", index_sets.PM1_MOD5),
    "Q": FamilySpec("gap2"),
}


def enumerate_family(spec, n):
    """All partitions of n in the family: the standard monomials of degree
    n of the family's monomial ideal, read as partitions."""
    if n < 0:
        raise InputError("partitions need a non-negative weight")
    return {_partition_of(pairs) for pairs in _pairs_of_degree(*spec._standard_walk(n))}


def partition_to_monomial(parts):
    """lambda -> x^lambda: the exponent of x_i is the multiplicity of i."""
    parts = check_partition(parts)
    return Monomial.from_pairs((i, 1) for i in parts)


def monomial_to_partition(monomial):
    """Inverse dictionary; degree-preserving under the default grading."""
    return _partition_of(monomial.exps)


def _partition_of(pairs):
    """x^pairs as a partition, from increasing (index, exponent) pairs."""
    parts = []
    for i, e in reversed(pairs):
        parts += [i] * e
    return tuple(parts)


def _exponent_pairs(parts):
    """The increasing (index, exponent) pairs of x^parts for a partition
    `parts`, which the caller has checked, read off its runs in one pass."""
    pairs = []
    last = count = 0
    for m in reversed(parts):
        if m == last:
            count += 1
        else:
            if count:
                pairs.append((last, count))
            last, count = m, 1
    if count:
        pairs.append((last, count))
    return tuple(pairs)


def _substitution_table(family, p, order, weight):
    """The Groebner base of the binomials x_i^p - x_{p i} visible at the
    given weight, packed for division: the window (weight, weight) of
    `IdealPresentation.power_substitution`, certified by `coprime_basis`."""
    basis = coprime_basis(
        IdealPresentation.power_substitution(family, p, order),
        TruncationWindow(max(1, weight), max(1, weight)),
    )
    return DivisorTable(basis.context, basis.elements)


def _division_image(parts, table):
    """The partition of the remainder of x^parts modulo the packed base,
    which must be one term c/scale = 1: over GF(p) the scale is 1.  The
    caller has checked that `parts` is a partition."""
    terms = table.monomial_remainder(_trusted(_exponent_pairs(parts)))
    if len(terms) != 1 or terms[0][0] != terms[0][2]:
        image = table._polynomial(terms)
        raise CertificationError(f"division image {image} is not a monic monomial")
    return _partition_of(table._monomial(terms[0][1]).exps)


def _rewrite_down(parts, family, p):
    """Replace p copies of a part i in the family by one part p*i until no
    such part repeats p times.  The rules x_i^p -> x_{pi} shorten the
    partition and overlap only with themselves, so they are confluent:
    this ascending carry pass, where part i keeps c % p of its c copies and
    carries c // p into the larger, still pending part p*i, reaches the
    normal form of any order, smallest part first included."""
    counts = {}
    for i in parts:
        counts[i] = counts.get(i, 0) + 1
    for i in sorted(counts):
        c = counts[i]
        # Only i carries into p*i, so p*i is settled as soon as i is.
        while c >= p and i in family:
            counts[i] = c % p
            i *= p
            c = counts[i] = counts.get(i, 0) + c // p
    out = []
    for i, c in counts.items():
        out += [i] * c
    return tuple(sorted(out, reverse=True))


def _rewrite_up(parts, family, p):
    """Replace a part p*i (i in the family) by p copies of i until no part
    lies in p*family.  The rules x_{pi} -> x_i^p lengthen the partition at
    its weight and overlap only with themselves, so they are confluent:
    splitting each distinct part on its own reaches the normal form of any
    order, smallest part first included."""
    counts = {}
    for m in parts:
        counts[m] = counts.get(m, 0) + 1
    out = []
    for m, c in counts.items():
        while m % p == 0 and (m // p) in family:
            m //= p
            c *= p
        out += [m] * c
    return tuple(sorted(out, reverse=True))


def _images(sources, family, p, n, route, *, down):
    """(lambda, image) for each partition lambda of weight n in `sources`:
    phi's image when `down`, psi's otherwise.  The division route
    certifies and packs one base for weight n, under the anti-reverse
    lexicographic order when `down` and the lexicographic one otherwise;
    the oracle route rewrites each partition."""
    if route == "division":
        order = OrderKind.HOM_ANTI_REV_LEX if down else OrderKind.HOM_LEX
        table = _substitution_table(family, p, order, n)
        return [(parts, _division_image(parts, table)) for parts in sources]
    if route == "oracle":
        rewrite = _rewrite_down if down else _rewrite_up
        return [(parts, rewrite(parts, family, p)) for parts in sources]
    raise InputError(f"unknown route {route!r}")


def phi(parts, family, p, *, route="division"):
    """Map a partition with parts in W minus pW to one with parts in W and
    multiplicities below p: the remainder of x^lambda by the substitution
    binomials under the anti-reverse lexicographic order, equivalently the
    p-copies-to-one rewrite run to its fixpoint."""
    parts = check_partition(parts)
    if not FamilySpec("X", family, p).contains(parts):
        raise InputError(f"{parts} has parts outside W minus {p}W")
    return _images([parts], family, p, sum(parts), route, down=True)[0][1]


def phi_pairs(family, p, n, *, route="division"):
    """(lambda, phi(lambda)) for every lambda of weight n with parts in W
    minus pW, in increasing order.  The division route certifies and packs
    one base for weight n; the oracle route rewrites each partition."""
    x_side = sorted(enumerate_family(FamilySpec("X", family, p), n))
    return _images(x_side, family, p, n, route, down=True)


def psi(parts, family, p, *, route="division"):
    """Inverse direction: the remainder under the lexicographic order,
    equivalently the one-to-p-copies rewrite run to its fixpoint."""
    parts = check_partition(parts)
    if not FamilySpec("Y", family, p).contains(parts):
        raise InputError(f"{parts} is not a multiplicity-bounded W-partition")
    return _images([parts], family, p, sum(parts), route, down=False)[0][1]


def verify_bijection(family, p, n):
    """Check that phi and psi are mutually inverse bijections at weight n,
    with the division and rewrite routes agreeing pointwise.  Both
    substitution bases are certified and packed once, for weight n, and
    each partition of either side is divided once; every flag is read off
    the two image tables, so an image outside the other side clears the
    matching flag instead of raising."""
    pairs = phi_pairs(family, p, n)
    phi_of = dict(pairs)
    y_side = sorted(enumerate_family(FamilySpec("Y", family, p), n))
    psi_of = dict(_images(y_side, family, p, n, "division", down=False))
    images = set(phi_of.values())
    flags = {
        "routes_agree": all(
            b == _rewrite_down(a, family, p) for a, b in phi_of.items()
        )
        and all(a == _rewrite_up(b, family, p) for b, a in psi_of.items()),
        "maps_into_target": images <= psi_of.keys(),
        "injective": len(images) == len(phi_of),
        "surjective": images == psi_of.keys(),
        "psi_after_phi_is_identity": all(
            psi_of.get(b) == a for a, b in phi_of.items()
        ),
        "phi_after_psi_is_identity": all(
            phi_of.get(a) == b for b, a in psi_of.items()
        ),
    }
    report = {
        "n": n,
        "family": family.name,
        "p": p,
        "x_size": len(phi_of),
        "y_size": len(psi_of),
        **flags,
        "ok": all(flags.values()) and len(phi_of) == len(psi_of),
    }
    return pairs, report


def _bounded_multiplicity_product(values, max_mult, truncation):
    """The product over m in `values` of 1 + T^m + ... + T^(max_mult m),
    each factor taken as (1 - T^((max_mult + 1) m)) / (1 - T^m)."""
    out = series.TruncatedSeries.one(truncation)
    for m in values:
        out = out.times_one_minus_power((max_mult + 1) * m).over_one_minus_power(m)
    return out


def _identity_report(N, columns):
    """An identity check's report: the identity holds to order N when
    every column equals every other coefficientwise."""
    first, *rest = columns.values()
    return {
        "N": N,
        "columns": columns,
        "equal": all(column == first for column in rest),
    }


def schur_identity_check(truncation):
    """Columns of the classical three-way equality: a product over parts
    +-1 mod 6, distinct parts +-1 mod 3, odd parts at most twice, plus the
    three enumeration counts; all five must agree coefficientwise."""
    N = truncation
    product_mod6 = series.ambient_series(DEFAULT_WEIGHTS, index_sets.PM1_MOD6, N)
    distinct_mod3 = _bounded_multiplicity_product(
        [m for m in range(1, N + 1) if m in index_sets.PM1_MOD3], 1, N
    )
    odd_twice = _bounded_multiplicity_product(
        [m for m in range(1, N + 1) if m in index_sets.ODD], 2, N
    )
    columns = {
        "product_pm1_mod6": list(product_mod6.coefficients),
        "distinct_pm1_mod3": list(distinct_mod3.coefficients),
        "odd_at_most_twice": list(odd_twice.coefficients),
        "count_A": _counts_up_to(*FamilySpec.preset("A")._standard_walk(N)),
        "count_B": _counts_up_to(*FamilySpec.preset("B")._standard_walk(N)),
        "count_C": _counts_up_to(*FamilySpec.preset("C")._standard_walk(N)),
    }
    return _identity_report(N, columns)


def rr_identity_check(truncation):
    """Both sides of the Rogers-Ramanujan equality, plus the enumeration
    counts of parts +-1 mod 5 and of gap-two partitions."""
    N = truncation
    product_mod5 = series.ambient_series(DEFAULT_WEIGHTS, index_sets.PM1_MOD5, N)
    summed = series.TruncatedSeries.one(N)
    # The m-th block is the product of 1/(1 - T^j) for j = 1..m.
    block = series.TruncatedSeries.one(N)
    m = 1
    while m * m <= N:
        block = block.over_one_minus_power(m)
        summed = summed + block.times_power(m * m)
        m += 1
    columns = {
        "product_pm1_mod5": list(product_mod5.coefficients),
        "gap_sum_series": list(summed.coefficients),
        "count_P": _counts_up_to(*FamilySpec.preset("P")._standard_walk(N)),
        "count_Q": _counts_up_to(*FamilySpec.preset("Q")._standard_walk(N)),
    }
    return _identity_report(N, columns)
