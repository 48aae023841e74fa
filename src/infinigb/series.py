"""Truncated integer power series and Hilbert series of graded quotients.

A series is known exactly up to its truncation and operations never claim
coefficients beyond it; mixed-truncation arithmetic truncates to the
smaller bound.  There is no rational-function normal form: identities are
checked coefficientwise up to a truncation.  Factors 1/(1 - T^d) and
1 - T^d are applied in O(N) by recurrences, never as dense series.
"""

from __future__ import annotations

from .division import _standard_walk
from .errors import CertificationError, InputError
from .monomials import _counts_up_to


class TruncatedSeries:
    """Integer coefficients c_0..c_N of a series known up to T^N."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coefficients = tuple(coefficients)
        if not coefficients:
            raise InputError("a truncated series needs at least the constant term")
        for c in coefficients:
            if not isinstance(c, int):
                raise InputError(f"coefficients must be integers, got {c!r}")
        self.coefficients = coefficients

    @property
    def truncation(self):
        return len(self.coefficients) - 1

    def coefficient(self, n):
        if not 0 <= n <= self.truncation:
            raise InputError(f"n must lie in 0..{self.truncation}, got {n}")
        return self.coefficients[n]

    @classmethod
    def one(cls, truncation):
        _check_truncation(truncation)
        return cls((1,) + (0,) * truncation)

    @classmethod
    def zero(cls, truncation):
        _check_truncation(truncation)
        return cls((0,) * (truncation + 1))

    def _common(self, other):
        bound = min(self.truncation, other.truncation)
        return bound, self.coefficients, other.coefficients

    def __add__(self, other):
        bound, a, b = self._common(other)
        return _trusted(tuple(a[n] + b[n] for n in range(bound + 1)))

    def __mul__(self, other):
        bound, a, b = self._common(other)
        out = [0] * (bound + 1)
        for i in range(bound + 1):
            if a[i] == 0:
                continue
            for j in range(bound + 1 - i):
                out[i + j] += a[i] * b[j]
        return _trusted(tuple(out))

    def times_one_minus_power(self, gap):
        """Multiply by 1 - T^gap in O(N): a_n -= a_{n-gap}, n descending."""
        if gap < 0:
            raise InputError("gap must be non-negative")
        out = list(self.coefficients)
        for n in range(len(out) - 1, gap - 1, -1):
            out[n] -= out[n - gap]
        return _trusted(tuple(out))

    def over_one_minus_power(self, gap):
        """Divide by 1 - T^gap in O(N): a_n += a_{n-gap}, n ascending."""
        if gap < 1:
            raise InputError("gap must be positive")
        out = list(self.coefficients)
        for n in range(gap, len(out)):
            out[n] += out[n - gap]
        return _trusted(tuple(out))

    def times_power(self, gap):
        """Multiply by T^gap, keeping the truncation."""
        if gap < 0:
            raise InputError("gap must be non-negative")
        shifted = (0,) * gap + self.coefficients
        return _trusted(shifted[: self.truncation + 1])

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.coefficients == other.coefficients
        return NotImplemented

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coefficients)!r})"


def _check_truncation(truncation):
    if truncation < 0:
        raise InputError(f"truncation must be non-negative, got {truncation}")


def _trusted(coefficients):
    """A series from a nonempty tuple of ints, as arithmetic on validated
    series makes; skips the checks of `TruncatedSeries.__init__`."""
    series = object.__new__(TruncatedSeries)
    series.coefficients = coefficients
    return series


def ambient_series(weights, variables, truncation):
    """Hilbert series of the (sub)ring on the given variables: the product
    of 1/(1 - T^{d_i}); variables of weight beyond the truncation contribute
    nothing below it and are omitted."""
    out = TruncatedSeries.one(truncation)
    for index in weights.indices_with_weight_at_most(truncation):
        if variables is None or index in variables:
            out = out.over_one_minus_power(weights.weight(index))
    return out


def quotient_series_from_standard_monomials(basis, truncation, *, variables=None):
    """Hilbert series of the quotient by the span of a homogeneous base,
    computed by counting its standard monomials in every degree up to the
    truncation at once, by the transfer-matrix count of
    `monomials._counts_up_to` over the leading monomials, which builds no
    monomial; equals the series of the quotient by the leading-term
    ideal."""
    return TruncatedSeries(
        _counts_up_to(*_standard_walk(basis, truncation, variables))
    )


def regular_sequence_series(basis, truncation, *, variables=None):
    """Hilbert series of the quotient by a regular family: the ambient
    series on `variables` times the product of (1 - T^{deg g}) over the
    elements of the base.

    A base certified by pairwise-coprime leading monomials is a regular
    sequence as it stands; the elements of any other base must pass the
    degreewise regularity check up to the truncation.
    """
    from . import groebner

    coprime = basis.certificate is groebner.Certificate.BAYER_STILLMAN
    if not coprime and not groebner.check_fr_condition(basis.elements, truncation):
        raise CertificationError(
            "the generators did not certify as a regular sequence"
        )
    out = ambient_series(basis.context.weights, variables, truncation)
    for g in basis.elements:
        out = out.times_one_minus_power(g.weighted_degree())
    return out
