"""Exact-coefficient sparse polynomials, leading data and S-polynomials.

Coefficients are rationals (`fractions.Fraction`) by default; a prime field
GF(q) can be selected at ring construction to cross-check characteristic
independence.  Term sequences are kept strictly decreasing under the ambient
order at every operation, so equality is structural and leading-term
extraction is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, ParseError, RingContextMismatch, ZeroPolynomialError
from .monomials import (
    DEFAULT_WEIGHTS,
    Monomial,
    MonomialParser,
    OrderKind,
    WeightedAlphabet,
    format_monomial,
    sort_key,
)
# Uncalled: perfbench/test_perfbench.py checks its tracer wraps it here.
from .monomials import compare  # noqa: F401


class GFElement:
    """An element of a prime field, reduced modulo p at construction."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise RingContextMismatch("mixed prime fields")
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GFElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __neg__(self):
        return GFElement(-self.value, self.p)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GFElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GFElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return self * GFElement(pow(other.value, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((GFElement, self.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"GFElement({self.value}, {self.p})"


class GF:
    """Prime field tag; calling it coerces integers and fractions."""

    __slots__ = ("p",)

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise InputError(f"{p} is not prime")
        self.p = p

    def __call__(self, value):
        if isinstance(value, GFElement):
            if value.p != self.p:
                raise RingContextMismatch("mixed prime fields")
            return value
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError("denominator vanishes in GF(p)")
            return GFElement(
                value.numerator * pow(value.denominator, -1, self.p), self.p
            )
        return GFElement(value, self.p)

    def __eq__(self, other):
        if isinstance(other, GF):
            return self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash((GF, self.p))

    def __repr__(self):
        return f"GF({self.p})"


@dataclass(frozen=True)
class RingContext:
    """Ambient data of a polynomial: order, grading and coefficient field.

    field=None selects the exact rationals.
    """

    order: OrderKind
    weights: WeightedAlphabet = DEFAULT_WEIGHTS
    field: GF | None = None

    def coeff(self, value):
        if self.field is not None:
            return self.field(value)
        if isinstance(value, GFElement):
            raise RingContextMismatch("GF element in a rational context")
        return Fraction(value)

    @property
    def one(self):
        return self.coeff(1)


class LeadingData(NamedTuple):
    lc: object
    lm: Monomial

    @property
    def lt(self):
        return (self.lc, self.lm)


class Polynomial:
    """A finite sum of (coefficient, monomial) terms, sorted strictly
    decreasing under the ambient order; the empty sum is zero."""

    __slots__ = ("context", "terms")

    def __init__(self, context, terms=()):
        # Trusted constructor: terms must already be sorted and nonzero.
        self.context = context
        self.terms = tuple(terms)

    @classmethod
    def from_terms(cls, context, pairs):
        """Normalizing builder: coerces coefficients, merges equal monomials,
        drops zeros and sorts."""
        acc = {}
        for coefficient, monomial in pairs:
            c = context.coeff(coefficient)
            if monomial in acc:
                acc[monomial] = acc[monomial] + c
            else:
                acc[monomial] = c
        monomials = sorted(
            (m for m, c in acc.items() if c),
            key=sort_key(context.order, context.weights),
            reverse=True,
        )
        return cls(context, tuple((acc[m], m) for m in monomials))

    @classmethod
    def zero(cls, context):
        return cls(context)

    @classmethod
    def variable(cls, context, index, exponent=1):
        return cls(context, ((context.one, Monomial.variable(index, exponent)),))

    @classmethod
    def from_monomial(cls, context, monomial, coefficient=1):
        c = context.coeff(coefficient)
        if not c:
            return cls(context)
        return cls(context, ((c, monomial),))

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def leading(self):
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        c, m = self.terms[0]
        return LeadingData(c, m)

    def lm(self):
        return self.leading().lm

    def lc(self):
        return self.leading().lc

    def monomials(self):
        return tuple(m for _, m in self.terms)

    def max_variable_index(self):
        """Smallest n with self in k[x1..xn]; 0 for constants."""
        return max((m.max_index() for _, m in self.terms), default=0)

    def weighted_degree(self):
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        w = self.context.weights
        return max(m.degree(w) for _, m in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        w = self.context.weights
        degrees = {m.degree(w) for _, m in self.terms}
        return len(degrees) == 1

    def _check_context(self, other):
        if self.context != other.context:
            raise RingContextMismatch(
                f"{self.context} does not match {other.context}"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        return Polynomial.from_terms(self.context, self.terms + other.terms)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        return Polynomial.from_terms(self.context, self.terms + (-other).terms)

    def __neg__(self):
        return Polynomial(self.context, tuple((-c, m) for c, m in self.terms))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_context(other)
            return Polynomial.from_terms(
                self.context,
                (
                    (ca * cb, ma * mb)
                    for ca, ma in self.terms
                    for cb, mb in other.terms
                ),
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        c = self.context.coeff(value)
        if not c:
            return Polynomial(self.context)
        return Polynomial(self.context, tuple((coef * c, m) for coef, m in self.terms))

    def times_term(self, coefficient, monomial):
        """Multiply by a single term; sortedness is preserved because the
        order is compatible with multiplication."""
        c = self.context.coeff(coefficient)
        if not c:
            return Polynomial(self.context)
        return Polynomial(
            self.context, tuple((coef * c, m * monomial) for coef, m in self.terms)
        )

    def monic(self):
        if not self.terms:
            return self
        lc = self.terms[0][0]
        if lc == self.context.one:
            return self
        return Polynomial(
            self.context, tuple((c / lc, m) for c, m in self.terms)
        )

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.context == other.context and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.context, self.terms))

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def s_polynomial(f, g):
    """(lcm/lt(f)) f - (lcm/lt(g)) g, where lcm = LCM(lm(f), lm(g)).

    The leading monomials of the two summands cancel by construction.
    Completion and verification reduce S-pairs inside
    `DivisorTable.spair_remainder` without building them; tests compare
    that against the remainder of this polynomial.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("S-polynomials need nonzero arguments")
    f._check_context(g)
    lcf, lmf = f.leading()
    lcg, lmg = g.leading()
    lcm = lmf.lcm(lmg)
    one = f.context.one
    return f.times_term(one / lcf, lcm.try_divide(lmf)) - g.times_term(
        one / lcg, lcm.try_divide(lmg)
    )


def _coefficient_text(c):
    return str(c)


def format_polynomial(f):
    """Render like '3/2*x1^2*x3 - x7'; GF coefficients print as 0..p-1."""
    if f.is_zero:
        return "0"
    pieces = []
    for position, (c, m) in enumerate(f.terms):
        negative = isinstance(c, Fraction) and c < 0
        magnitude = -c if negative else c
        body = format_monomial(m)
        if magnitude != f.context.one:
            body = (
                _coefficient_text(magnitude)
                if m.is_one
                else f"{_coefficient_text(magnitude)}*{body}"
            )
        if position == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


class _Parser(MonomialParser):
    """Adds the sign and coefficient rules to the monomial grammar."""

    def __init__(self, text, context):
        super().__init__(text)
        self.context = context

    def parse(self):
        terms = []
        sign = 1
        token = self.peek()
        if token is not None and token[0] in "+-":
            self.advance()
            sign = -1 if token[0] == "-" else 1
        if self.peek() is None:
            raise ParseError("empty polynomial", self.text, 0)
        terms.append(self.parse_term(sign))
        while self.peek() is not None:
            kind, _, position = self.advance()
            if kind not in "+-":
                raise ParseError("expected '+' or '-'", self.text, position)
            terms.append(self.parse_term(-1 if kind == "-" else 1))
        return Polynomial.from_terms(self.context, terms)

    def parse_term(self, sign):
        token = self.peek()
        if token is None:
            raise ParseError("expected a term", self.text, len(self.text))
        if token[0] == "int":
            coefficient = self.parse_coefficient()
            nxt = self.peek()
            if nxt is not None and nxt[0] == "*":
                self.advance()
                monomial = self.parse_monomial()
            else:
                monomial = Monomial.one()
        else:
            coefficient = 1
            monomial = self.parse_monomial()
        return (self.context.coeff(coefficient) * self.context.coeff(sign), monomial)

    def parse_coefficient(self):
        kind, value, position = self.advance()
        if kind != "int":
            raise ParseError("expected an integer", self.text, position)
        nxt = self.peek()
        if nxt is not None and nxt[0] == "/":
            self.advance()
            kind2, denominator, position2 = self.advance()
            if kind2 != "int":
                raise ParseError("expected a denominator", self.text, position2)
            if denominator == 0:
                raise ParseError("zero denominator", self.text, position2)
            return Fraction(value, denominator)
        return value


def parse_polynomial(text, context):
    """Strict parser for '3/2*x1^2*x3 - x7' style text."""
    return _Parser(text, context).parse()
