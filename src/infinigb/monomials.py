"""Sparse monomials over the countable alphabet x1, x2, ..., the weighted
grading and the five monomial orders.

A monomial is a finitely supported exponent vector, stored as a sorted tuple
of (variable index, exponent) pairs.  There is no upper bound on variable
indices; sparseness is the representation of infinitude.  Every order is
a tuple sort key built from those pairs (`sort_key`), reading absent
indices as exponent 0, under the convention x1 < x2 < x3 < ...
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cache

from .errors import ParseError


class OrderKind(enum.Enum):
    """The five supported monomial orders.

    All except PURE_LEX are homogeneous: a higher weighted degree always
    wins.  PURE_LEX is admitted although a degree bound then does not bound
    leading monomials (a variable bound does).
    """

    PURE_LEX = "plex"
    HOM_LEX = "hlex"
    HOM_ANTI_LEX = "halex"
    HOM_REV_LEX = "hrevlex"
    HOM_ANTI_REV_LEX = "harevlex"

    @property
    def homogeneous(self):
        return self is not OrderKind.PURE_LEX

    @classmethod
    def from_name(cls, name):
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown monomial order {name!r}")


@dataclass(frozen=True)
class WeightedAlphabet:
    """Degree assignment i -> d_i, default rule d_i = i.

    Finitely many indices may be overridden; beyond the overrides the
    identity tail applies, which keeps {i : d_i <= d} finite for every d.
    Arbitrary weight maps without a tail rule are not representable, since
    the finiteness condition cannot be checked pointwise.
    """

    overrides: tuple = ()

    def __post_init__(self):
        seen = set()
        for index, weight in self.overrides:
            if index < 1:
                raise ValueError("variable indices must be positive")
            if weight < 1:
                raise ValueError("weights must be positive")
            if index in seen:
                raise ValueError(f"duplicate weight override for x{index}")
            seen.add(index)
        object.__setattr__(self, "overrides", tuple(sorted(self.overrides)))

    @classmethod
    def with_weights(cls, mapping):
        return cls(tuple(mapping.items()))

    def weight(self, index):
        for i, w in self.overrides:
            if i == index:
                return w
        return index

    def indices_with_weight_at_most(self, bound):
        """All i with d_i <= bound, increasing; finite by construction."""
        special = {i for i, _ in self.overrides}
        out = [i for i in range(1, bound + 1) if i not in special]
        out.extend(i for i, w in self.overrides if w <= bound)
        out.sort()
        return out


DEFAULT_WEIGHTS = WeightedAlphabet()


class Monomial:
    """A monomial x^a with finitely many nonzero exponents.

    Immutable; exponents are stored as (index, exponent) pairs with strictly
    increasing indices and strictly positive exponents.  The empty tuple is
    the monomial 1.
    """

    __slots__ = ("exps",)

    def __init__(self, exps=()):
        exps = tuple(exps)
        last = 0
        for index, exponent in exps:
            if index <= last:
                raise ValueError("variable indices must be strictly increasing")
            if exponent < 1:
                raise ValueError("exponents must be strictly positive")
            last = index
        self.exps = exps

    @classmethod
    def one(cls):
        return cls()

    @classmethod
    def variable(cls, index, exponent=1):
        return cls(((index, exponent),))

    @classmethod
    def from_pairs(cls, pairs):
        """Forgiving builder: accumulates repeated indices, drops zeros."""
        acc = {}
        for index, exponent in pairs:
            acc[index] = acc.get(index, 0) + exponent
        return cls(tuple(sorted((i, e) for i, e in acc.items() if e != 0)))

    @property
    def is_one(self):
        return not self.exps

    def exponent(self, index):
        for i, e in self.exps:
            if i == index:
                return e
        return 0

    def support(self):
        return tuple(i for i, _ in self.exps)

    def max_index(self):
        """Smallest n with self in k[x1..xn]; 0 for the monomial 1."""
        return self.exps[-1][0] if self.exps else 0

    def degree(self, weights=DEFAULT_WEIGHTS):
        return sum(e * weights.weight(i) for i, e in self.exps)

    def __mul__(self, other):
        return Monomial(tuple(_merge_exponents(self.exps, other.exps)))

    def try_divide(self, divisor):
        """Return self / divisor when divisor divides exponentwise, else None."""
        quotient = []
        i, j = 0, 0
        a, b = self.exps, divisor.exps
        while j < len(b):
            if i >= len(a) or a[i][0] > b[j][0]:
                return None
            if a[i][0] < b[j][0]:
                quotient.append(a[i])
                i += 1
                continue
            rest = a[i][1] - b[j][1]
            if rest < 0:
                return None
            if rest > 0:
                quotient.append((a[i][0], rest))
            i += 1
            j += 1
        quotient.extend(a[i:])
        return Monomial(tuple(quotient))

    def divides(self, other):
        return other.try_divide(self) is not None

    def lcm(self, other):
        merged = {i: e for i, e in self.exps}
        for i, e in other.exps:
            if e > merged.get(i, 0):
                merged[i] = e
        return Monomial(tuple(sorted(merged.items())))

    def coprime(self, other):
        """True when the supports are disjoint, i.e. lcm = product."""
        mine = set(self.support())
        return not any(i in mine for i in other.support())

    def __eq__(self, other):
        if isinstance(other, Monomial):
            return self.exps == other.exps
        return NotImplemented

    def __hash__(self):
        return hash(self.exps)

    def __str__(self):
        return format_monomial(self)

    def __repr__(self):
        return f"Monomial({format_monomial(self)!r})"


def _merge_exponents(a, b):
    i, j = 0, 0
    while i < len(a) and j < len(b):
        if a[i][0] < b[j][0]:
            yield a[i]
            i += 1
        elif a[i][0] > b[j][0]:
            yield b[j]
            j += 1
        else:
            yield (a[i][0], a[i][1] + b[j][1])
            i += 1
            j += 1
    yield from a[i:]
    yield from b[j:]


# Per order: (read the exponent pairs from the last index?, sign on the
# index, sign on the exponent).  Keys compare ascending under the order.
_KEY_SHAPES = {
    OrderKind.PURE_LEX: (True, 1, 1),
    OrderKind.HOM_LEX: (True, 1, 1),
    OrderKind.HOM_ANTI_LEX: (False, -1, 1),
    OrderKind.HOM_REV_LEX: (False, 1, -1),
    OrderKind.HOM_ANTI_REV_LEX: (True, -1, -1),
}


def compare(a, b, order, weights=DEFAULT_WEIGHTS):
    """Total order on monomials: -1, 0 or 1 as a <, ==, > b.

    Equal only for identical exponent vectors.  Compares the keys of
    `sort_key(order, weights)`.
    """
    key = sort_key(order, weights)
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


@cache
def sort_key(order, weights=DEFAULT_WEIGHTS):
    """Ascending sort key under the given order, for use with sorted().

    The key is a tuple: the weighted degree for the homogeneous kinds, then
    the exponent pairs read as `_KEY_SHAPES` says.  The first pair that
    differs sits at the first or last index where the exponent vectors
    differ; an index only one monomial has decides by the index sign, since
    the other's exponent there is 0.  Built once per (order, weights).
    """
    backwards, index_sign, exponent_sign = _KEY_SHAPES[order]
    homogeneous = order.homogeneous
    weight_of = dict(weights.overrides)

    def key(m):
        degree = 0
        pairs = []
        for index, exponent in reversed(m.exps) if backwards else m.exps:
            degree += exponent * weight_of.get(index, index)
            pairs.append((index_sign * index, exponent_sign * exponent))
        return (degree, tuple(pairs)) if homogeneous else tuple(pairs)

    return key


def monomials_of_degree(degree, weights=DEFAULT_WEIGHTS, variables=None):
    """All monomials of exact weighted degree, optionally over a variable set.

    Finite because only finitely many variables have weight <= degree.  With
    the default weights this set corresponds to the partitions of `degree`.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree == 0:
        return [Monomial.one()]
    indices = [
        i
        for i in weights.indices_with_weight_at_most(degree)
        if variables is None or i in variables
    ]
    out = []
    acc = []

    def descend(k, remaining):
        if remaining == 0:
            out.append(Monomial.from_pairs(acc))
            return
        if k < 0:
            return
        index = indices[k]
        w = weights.weight(index)
        descend(k - 1, remaining)
        exponent = 1
        while exponent * w <= remaining:
            acc.append((index, exponent))
            descend(k - 1, remaining - exponent * w)
            acc.pop()
            exponent += 1

    descend(len(indices) - 1, degree)
    return out


def format_monomial(m):
    if m.is_one:
        return "1"
    parts = []
    for index, exponent in m.exps:
        parts.append(f"x{index}" if exponent == 1 else f"x{index}^{exponent}")
    return "*".join(parts)


_TOKEN = re.compile(r"x(\d+)|(\d+)|[\^\*/+-]")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError("unexpected character", text, pos)
        if match.group(1) is not None:
            tokens.append(("var", int(match.group(1)), pos))
        elif match.group(2) is not None:
            tokens.append(("int", int(match.group(2)), pos))
        else:
            tokens.append((match.group(0), None, pos))
        pos = match.end()
    return tokens


class MonomialParser:
    """Recursive descent over the token grammar shared with polynomial text:
    a monomial is factors 'x3' or 'x3^2' joined by '*'."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self):
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.pos += 1
        return token

    def parse_monomial(self):
        pairs = [self.parse_factor()]
        while True:
            token = self.peek()
            if token is None or token[0] != "*":
                break
            self.advance()
            pairs.append(self.parse_factor())
        return Monomial.from_pairs(pairs)

    def parse_factor(self):
        kind, index, position = self.advance()
        if kind != "var":
            raise ParseError("expected a variable like x3", self.text, position)
        if index < 1:
            raise ParseError("variable index must be positive", self.text, position)
        token = self.peek()
        exponent = 1
        if token is not None and token[0] == "^":
            self.advance()
            kind2, exponent, position2 = self.advance()
            if kind2 != "int":
                raise ParseError("expected an exponent", self.text, position2)
            if exponent < 1:
                raise ParseError("exponent must be positive", self.text, position2)
        return (index, exponent)


def parse_monomial(text):
    """Parse 'x1^2*x3' (or '1'); whitespace is allowed between tokens."""
    if text.strip() == "1":
        return Monomial.one()
    parser = MonomialParser(text)
    monomial = parser.parse_monomial()
    token = parser.peek()
    if token is not None:
        raise ParseError("expected '*' between factors", text, token[2])
    return monomial
