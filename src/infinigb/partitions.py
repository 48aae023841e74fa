"""Partition families, the partition/monomial dictionary, and the division
bijections between them.

A partition is a plain tuple of non-increasing positive integers; the empty
tuple is the unique partition of 0.  Under the default grading the map
lambda -> x^lambda (exponent of x_i = multiplicity of the part i) is a
degree-preserving bijection between partitions of n and monomials of
degree n, which is how partition families become quotient-ring questions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import index_sets, series
from .division import remainder
from .errors import CertificationError
from .groebner import bayer_stillman_basis
from .index_sets import probe_closure
from .monomials import Monomial, OrderKind
from .polynomials import Polynomial, RingContext


def check_partition(parts):
    parts = tuple(parts)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError("parts must be non-increasing")
    if parts and parts[-1] < 1:
        raise ValueError("parts must be positive")
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
                raise ValueError(f"kind {self.kind} needs a part set and p >= 2")
            probe_closure(self.parts_in, self.p)
        elif self.kind == "parts":
            if self.parts_in is None:
                raise ValueError("kind 'parts' needs a part set")
        elif self.kind != "gap2":
            raise ValueError(f"unknown family kind {self.kind!r}")

    @classmethod
    def preset(cls, name):
        presets = {
            "A": cls("X", index_sets.PM1_MOD3, 2),
            "B": cls("Y", index_sets.PM1_MOD3, 2),
            "C": cls("Y", index_sets.ODD, 3),
            "P": cls("parts", index_sets.PM1_MOD5),
            "Q": cls("gap2"),
        }
        if name not in presets:
            raise ValueError(f"unknown preset {name!r}")
        return presets[name]

    def admits_part(self, m):
        if self.kind == "X":
            return m in self.parts_in and not (
                m % self.p == 0 and (m // self.p) in self.parts_in
            )
        if self.kind in ("Y", "parts"):
            return m in self.parts_in
        return True

    def contains(self, parts):
        parts = check_partition(parts)
        if not all(self.admits_part(m) for m in parts):
            return False
        if self.kind == "Y":
            return all(c <= self.p - 1 for c in Counter(parts).values())
        if self.kind == "gap2":
            return all(a - b >= 2 for a, b in zip(parts, parts[1:]))
        return True


def enumerate_family(spec, n):
    """All partitions of n in the family, by direct search over parts."""
    if n < 0:
        raise ValueError("partitions need a non-negative weight")
    if spec.kind == "gap2":
        return _enumerate_gap2(n)
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


def _enumerate_gap2(n):
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
    """Every partition of n, by the same direct search (oracle duty)."""
    return enumerate_family(FamilySpec("parts", index_sets.ALL), n)


def partition_counts_up_to(bound):
    """p(0..bound) by walking every partition once."""
    counts = [0] * (bound + 1)
    counts[0] = 1

    def descend(max_part, total):
        for part in range(1, min(max_part, bound - total) + 1):
            counts[total + part] += 1
            descend(part, total + part)

    descend(bound, 0)
    return counts


def partition_to_monomial(parts):
    """lambda -> x^lambda: the exponent of x_i is the multiplicity of i."""
    parts = check_partition(parts)
    return Monomial.from_pairs((i, 1) for i in parts)


def monomial_to_partition(monomial):
    """Inverse dictionary; degree-preserving under the default grading."""
    parts = []
    for index, exponent in monomial.exps:
        parts.extend([index] * exponent)
    parts.sort(reverse=True)
    return tuple(parts)


def _family_generators(context, parts, p, weight):
    """The substitution binomials x_i^p - x_{p i} visible at the given
    weight: exactly those with p*i <= weight."""
    gens = []
    for i in range(1, weight // p + 1):
        if i in parts:
            gens.append(
                Polynomial.from_terms(
                    context,
                    ((1, Monomial.variable(i, p)), (-1, Monomial.variable(p * i))),
                )
            )
    return gens


def _division_image(parts, family, p, order):
    context = RingContext(order)
    weight = sum(parts)
    gens = _family_generators(context, family, p, weight)
    if gens:
        basis = bayer_stillman_basis(gens, context=context)
        if basis is None:
            raise CertificationError("substitution family failed to certify")
        divisors = basis.elements
    else:
        divisors = ()
    image = remainder(
        Polynomial.from_monomial(context, partition_to_monomial(parts)), divisors
    )
    if len(image.terms) != 1 or image.lc() != context.one:
        raise CertificationError(f"division image {image} is not a monic monomial")
    return monomial_to_partition(image.lm())


def _rewrite_down(parts, family, p):
    """Replace p copies of a part i by one part p*i, smallest part first,
    until no part repeats p times."""
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


def _rewrite_up(parts, family, p):
    """Replace a part p*i (i in the family) by p copies of i, smallest part
    first, until no part lies in p*family."""
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


def phi(parts, family, p, *, route="division"):
    """Map a partition with parts in W minus pW to one with parts in W and
    multiplicities below p: the remainder of x^lambda by the substitution
    binomials under the anti-reverse lexicographic order, equivalently the
    p-copies-to-one rewrite run to its fixpoint."""
    parts = check_partition(parts)
    if not FamilySpec("X", family, p).contains(parts):
        raise ValueError(f"{parts} has parts outside W minus {p}W")
    if route == "division":
        return _division_image(parts, family, p, OrderKind.HOM_ANTI_REV_LEX)
    if route == "oracle":
        return _rewrite_down(parts, family, p)
    raise ValueError(f"unknown route {route!r}")


def psi(parts, family, p, *, route="division"):
    """Inverse direction: the remainder under the lexicographic order,
    equivalently the one-to-p-copies rewrite run to its fixpoint."""
    parts = check_partition(parts)
    if not FamilySpec("Y", family, p).contains(parts):
        raise ValueError(f"{parts} is not a multiplicity-bounded W-partition")
    if route == "division":
        return _division_image(parts, family, p, OrderKind.HOM_LEX)
    if route == "oracle":
        return _rewrite_up(parts, family, p)
    raise ValueError(f"unknown route {route!r}")


def verify_bijection(family, p, n):
    """Check that phi and psi are mutually inverse bijections at weight n,
    with the division and rewrite routes agreeing pointwise."""
    x_side = sorted(enumerate_family(FamilySpec("X", family, p), n))
    y_side = enumerate_family(FamilySpec("Y", family, p), n)
    pairs = []
    routes_agree = True
    lands_in_y = True
    psi_section = True
    phi_section = True
    images = set()
    for parts in x_side:
        by_division = phi(parts, family, p, route="division")
        by_rewrite = phi(parts, family, p, route="oracle")
        routes_agree &= by_division == by_rewrite
        lands_in_y &= by_division in y_side
        psi_section &= psi(by_division, family, p) == parts
        images.add(by_division)
        pairs.append((parts, by_division))
    for parts in sorted(y_side):
        up_division = psi(parts, family, p, route="division")
        up_rewrite = psi(parts, family, p, route="oracle")
        routes_agree &= up_division == up_rewrite
        phi_section &= phi(up_division, family, p) == parts
    injective = len(images) == len(x_side)
    surjective = images == y_side
    report = {
        "n": n,
        "family": family.name,
        "p": p,
        "x_size": len(x_side),
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
                len(x_side) == len(y_side),
            )
        ),
    }
    return pairs, report


def _distinct_parts_product(values, truncation):
    out = series.TruncatedSeries.one(truncation)
    for m in values:
        coefficients = [0] * (truncation + 1)
        coefficients[0] = 1
        coefficients[m] = 1
        out = out * series.TruncatedSeries(coefficients)
    return out


def _bounded_multiplicity_product(values, max_mult, truncation):
    out = series.TruncatedSeries.one(truncation)
    for m in values:
        coefficients = [0] * (truncation + 1)
        for k in range(0, max_mult + 1):
            if k * m <= truncation:
                coefficients[k * m] = 1
        out = out * series.TruncatedSeries(coefficients)
    return out


def schur_identity_check(truncation):
    """Columns of the classical three-way equality: a product over parts
    +-1 mod 6, distinct parts +-1 mod 3, odd parts at most twice, plus the
    three enumeration counts; all five must agree coefficientwise."""
    N = truncation
    product_mod6 = series.TruncatedSeries.one(N)
    for m in range(1, N + 1):
        if m in index_sets.PM1_MOD6:
            product_mod6 = product_mod6 * series.TruncatedSeries.geometric(m, N)
    distinct_mod3 = _distinct_parts_product(
        [m for m in range(1, N + 1) if m in index_sets.PM1_MOD3], N
    )
    odd_twice = _bounded_multiplicity_product(
        [m for m in range(1, N + 1) if m in index_sets.ODD], 2, N
    )
    count_a = [len(enumerate_family(FamilySpec.preset("A"), n)) for n in range(N + 1)]
    count_b = [len(enumerate_family(FamilySpec.preset("B"), n)) for n in range(N + 1)]
    count_c = [len(enumerate_family(FamilySpec.preset("C"), n)) for n in range(N + 1)]
    columns = {
        "product_pm1_mod6": list(product_mod6.coefficients),
        "distinct_pm1_mod3": list(distinct_mod3.coefficients),
        "odd_at_most_twice": list(odd_twice.coefficients),
        "count_A": count_a,
        "count_B": count_b,
        "count_C": count_c,
    }
    reference = columns["count_A"]
    return {
        "N": N,
        "columns": columns,
        "equal": all(column == reference for column in columns.values()),
    }


def rr_identity_check(truncation):
    """Both sides of the Rogers-Ramanujan equality, plus the enumeration
    counts of parts +-1 mod 5 and of gap-two partitions."""
    N = truncation
    product_mod5 = series.TruncatedSeries.one(N)
    for m in range(1, N + 1):
        if m in index_sets.PM1_MOD5:
            product_mod5 = product_mod5 * series.TruncatedSeries.geometric(m, N)
    summed = series.TruncatedSeries.one(N)
    m = 1
    while m * m <= N:
        block = series.TruncatedSeries.one(N)
        for j in range(1, m + 1):
            block = block * series.TruncatedSeries.geometric(j, N)
        summed = summed + block.times_power(m * m)
        m += 1
    count_p = [len(enumerate_family(FamilySpec.preset("P"), n)) for n in range(N + 1)]
    count_q = [len(enumerate_family(FamilySpec.preset("Q"), n)) for n in range(N + 1)]
    columns = {
        "product_pm1_mod5": list(product_mod5.coefficients),
        "gap_sum_series": list(summed.coefficients),
        "count_P": count_p,
        "count_Q": count_q,
    }
    reference = columns["count_P"]
    return {
        "N": N,
        "columns": columns,
        "equal": all(column == reference for column in columns.values()),
    }
