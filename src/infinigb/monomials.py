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
from operator import add, sub

from .errors import InputError, ParseError


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
        raise InputError(f"unknown monomial order {name!r}")


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
                raise InputError("variable indices must be positive")
            if weight < 1:
                raise InputError("weights must be positive")
            if index in seen:
                raise InputError(f"duplicate weight override for x{index}")
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
                raise InputError("variable indices must be strictly increasing")
            if exponent < 1:
                raise InputError("exponents must be strictly positive")
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
        merged = dict(self.exps)
        for i, e in other.exps:
            merged[i] = merged.get(i, 0) + e
        return _trusted(tuple(sorted(merged.items())))

    def try_divide(self, divisor):
        """Return self / divisor when divisor divides exponentwise, else None."""
        rest = dict(self.exps)
        for i, e in divisor.exps:
            left = rest.get(i, 0) - e
            if left < 0:
                return None
            if left:
                rest[i] = left
            else:
                del rest[i]
        return _trusted(tuple(sorted(rest.items())))

    def divides(self, other):
        return other.try_divide(self) is not None

    def lcm(self, other):
        merged = dict(self.exps)
        for i, e in other.exps:
            if e > merged.get(i, 0):
                merged[i] = e
        return _trusted(tuple(sorted(merged.items())))

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


def _trusted(exps):
    """A Monomial from pairs already sorted by index with positive
    exponents, as products, quotients and lcms of monomials are; skips the
    checks of `Monomial.__init__`."""
    m = object.__new__(Monomial)
    m.exps = exps
    return m


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


def _admissible(weights, bound, variables):
    """The indices i with d_i <= bound, increasing, that lie in `variables`
    (anything supporting `in`; None admits all)."""
    indices = weights.indices_with_weight_at_most(bound)
    return [i for i in indices if variables is None or i in variables]


def _lead_buckets(indices, leads):
    """Per position of `indices` (increasing), the leads decided there, at
    the smallest variable of their support, each as (its exponent there,
    its later (position, exponent)s).  A lead on a variable outside
    `indices` divides nothing on them and is left out; the caller handles a
    lead 1."""
    position = {index: k for k, index in enumerate(indices)}
    buckets = [[] for _ in indices]
    for lead in leads:
        if all(i in position for i, _ in lead.exps):
            (first, need), *rest = lead.exps
            buckets[position[first]].append(
                (need, [(position[i], e) for i, e in rest])
            )
    return buckets


def _walk(indices, weights, bound, leads=()):
    """The exponent vectors on `indices` (increasing) of weighted degree at
    most `bound` that no monomial of `leads` divides, by an odometer that
    fixes exponents from the largest variable down; a lead is decided, and
    bucketed, at the smallest variable of its support.  A lead on a variable
    outside `indices` is skipped; a lead 1 divides everything.  Each yield
    is a run (exponents, degrees): the live list from position 1 on, and
    any exponent e at position 0, of weighted degree degrees[e].
    """
    if bound < 0 or any(lead.is_one for lead in leads):
        return
    n = len(indices)
    if not n:
        yield [], range(1)
        return
    steps = [weights.weight(i) for i in indices]
    buckets = _lead_buckets(indices, leads)
    exponents = [0] * n
    tops = [0] * n
    spent = [0] * (n + 1)  # spent[k]: weighted degree of positions >= k
    k = n
    while True:
        while k:
            k -= 1
            exponents[k] = 0
            spent[k] = spent[k + 1]
            top = (bound - spent[k]) // steps[k]
            for need, rest in buckets[k]:
                if need <= top:
                    for j, e in rest:
                        if exponents[j] < e:
                            break
                    else:
                        top = need - 1
            tops[k] = top
        low, step = spent[1], steps[0]
        yield exponents, range(low, low + (tops[0] + 1) * step, step)
        k = 1
        while k < n and exponents[k] == tops[k]:
            k += 1
        if k == n:
            return
        exponents[k] += 1
        spent[k] += steps[k]


def _pairs_of_degree(indices, weights, degree, leads=()):
    """The vectors `_walk` visits of exact weighted degree `degree`, at most
    one per run, as increasing (index, exponent) pairs without zero
    exponents, in the order of the walk."""
    for exponents, degrees in _walk(indices, weights, degree, leads):
        if degree in degrees:
            first = degrees.index(degree)
            pairs = ((indices[0], first),) if first else ()
            yield pairs + tuple((i, e) for i, e in zip(indices, exponents) if e)


def _counts_up_to(indices, weights, bound, leads=()):
    """How many vectors `_walk` visits in each weighted degree 0..bound,
    counted by a transfer-matrix dynamic program (Stanley, EC1 4.7) that
    visits none of them.

    Like the walk it fixes positions from the largest variable down and
    caps each exponent by the walk's rule.  A state is what a later lead
    decided at a position not yet fixed can still read: the exponents at
    the positions `_watched` names, each capped at the largest exponent a
    lead asks there.  Each state keeps one count per degree.  At a
    position, the exponents that lead to one next state form a run, added
    at once from sums over the position's stride, so a count costs
    O(positions * states * bound) however many vectors there are.
    """
    if bound < 0:
        return []
    length = bound + 1
    if any(lead.is_one for lead in leads):
        return [0] * length
    buckets = _lead_buckets(indices, leads)
    watched = _watched(buckets)
    # state -> (least degree with a nonzero count, counts by degree)
    states = {(): (0, [1] + [0] * bound)}
    for k in reversed(range(len(indices))):
        step = weights.weight(indices[k])
        before, after = watched[k + 1], watched[k]
        slot = {j: s for s, (j, _) in enumerate(before)}
        tests = [(need, [(slot[j], e) for j, e in rest]) for need, rest in buckets[k]]
        own = after[0][1] if after and after[0][0] == k else 0
        keep = [(slot[j], cap) for j, cap in after[1 if own else 0 :]]
        following = {}
        for key, (low, counts) in states.items():
            top = _top(key, tests, (bound - low) // step)
            base = tuple(key[s] if key[s] < cap else cap for s, cap in keep)
            if not own:
                runs = ((base, 0, top),)
            else:
                runs = [((e,) + base, e, e) for e in range(min(own, top + 1))]
                if top >= own:
                    runs.append(((own,) + base, own, top))
            sums = None
            for state, first, last in runs:
                shift = first * step
                if first == last:
                    # A position fixed at 0 passes its counts on uncopied.
                    moved = [0] * shift + counts[: length - shift] if shift else counts
                else:
                    if sums is None:
                        sums = _stride_sums(counts, step)
                    moved = _window(sums, low, step, first, last)
                entry = following.get(state)
                if entry is None:
                    following[state] = (low + shift, moved)
                else:
                    following[state] = (
                        min(entry[0], low + shift),
                        list(map(add, entry[1], moved)),
                    )
        states = following
    return list(states[()][1])


def _watched(buckets):
    """Per k in 0..len(buckets): the (position, cap) pairs, by increasing
    position, of the exponents a state holds once positions k and above
    are fixed; position j is read by a lead decided at p < k with j >= k,
    and its cap is the largest exponent such leads ask at j."""
    watched = [{} for _ in range(len(buckets) + 1)]
    for p, bucket in enumerate(buckets):
        for _, rest in bucket:
            for j, e in rest:
                for k in range(p + 1, j + 1):
                    if watched[k].get(j, 0) < e:
                        watched[k][j] = e
    return [sorted(w.items()) for w in watched]


def _top(key, tests, top):
    """The walk's cap on an exponent: the budget `top`, lowered below each
    lead decided here whose later exponents the state `key` meets."""
    for need, rest in tests:
        if need <= top:
            for s, e in rest:
                if key[s] < e:
                    break
            else:
                top = need - 1
    return top


def _stride_sums(counts, step):
    """sums[d] = counts[d] + counts[d - step] + counts[d - 2 step] + ..."""
    sums = counts[:step]
    for start in range(step, len(counts), step):
        sums += map(add, counts[start : start + step], sums[start - step : start])
    return sums


def _window(sums, low, step, first, last):
    """moved[d] = counts[d - first step] + ... + counts[d - last step],
    from the stride sums of counts, which are zero below `low`."""
    length = len(sums)
    shift = first * step
    moved = [0] * shift + sums[: length - shift]
    stop = (last + 1) * step
    if low + stop < length:
        moved[stop:] = map(sub, moved[stop:], sums[: length - stop])
    return moved


def format_monomial(m):
    if m.is_one:
        return "1"
    parts = []
    for index, exponent in m.exps:
        parts.append(f"x{index}" if exponent == 1 else f"x{index}^{exponent}")
    return "*".join(parts)


# ASCII digits only: `\d` would also admit other scripts' digits.
_TOKEN = re.compile(r"x([0-9]+)|([0-9]+)|[\^\*/+-]")


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
        index, number = match.group(1, 2)
        if index is None and number is None:
            tokens.append((match.group(0), None, pos))
        else:
            try:
                value = int(number if index is None else index)
            except ValueError:  # beyond the interpreter's digit limit
                raise ParseError("number too long", text, pos) from None
            tokens.append(("int" if index is None else "var", value, pos))
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
