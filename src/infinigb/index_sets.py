"""Named decidable sets of positive integers.

These double as variable-index predicates (which x_i belong to a subring)
and as part constraints for partition families.  Sets compare by identity:
two rules that share a name are different sets, and each named set is a
single object, so equal names from `from_name` give the same set.
"""

from __future__ import annotations

import re
from functools import cache

from .errors import InputError, echo


class IndexSet:
    """A subset of the positive integers given by a membership rule."""

    __slots__ = ("name", "_member")

    def __init__(self, name, member):
        self.name = name
        self._member = member

    def __contains__(self, n):
        return n >= 1 and bool(self._member(n))

    def __repr__(self):
        return f"IndexSet({self.name!r})"


ALL = IndexSet("all", lambda n: True)
ODD = IndexSet("odd", lambda n: n % 2 == 1)
PM1_MOD3 = IndexSet("pm1mod3", lambda n: n % 3 in (1, 2))
PM1_MOD5 = IndexSet("pm1mod5", lambda n: n % 5 in (1, 4))
PM1_MOD6 = IndexSet("pm1mod6", lambda n: n % 6 in (1, 5))


@cache
def avoiding_multiples_of(q):
    """The set {n : q does not divide n}; closed under m -> p*m for gcd(p, q) = 1.
    One object per q."""
    if q < 2:
        raise InputError("modulus must be at least 2")
    return IndexSet(f"nondiv{q}", lambda n, q=q: n % q != 0)


# Closure under m -> p*m cannot be checked in finite time from a membership
# rule, so it is probed on the members up to this bound.
CLOSURE_PROBE_BOUND = 256


def probe_closure(parts, p):
    """Validate p*W inside W on all members up to CLOSURE_PROBE_BOUND."""
    for i in range(1, CLOSURE_PROBE_BOUND + 1):
        if i in parts and (p * i) not in parts:
            raise InputError(f"{parts!r} is not closed under multiplication by {p}")


_NAMED = {s.name: s for s in (ALL, ODD, PM1_MOD3, PM1_MOD5, PM1_MOD6)}


def from_name(name):
    """Resolve a set by name; supports the built-ins and 'nondivQ', Q in
    ASCII digits."""
    if name in _NAMED:
        return _NAMED[name]
    match = re.fullmatch("nondiv([0-9]+)", name)
    if match is None:
        raise InputError(f"unknown index set {echo(name, repr)}")
    try:
        q = int(match.group(1))
    except ValueError:  # beyond the interpreter's digit limit
        raise InputError("the nondiv modulus has too many digits") from None
    return avoiding_multiples_of(q)
