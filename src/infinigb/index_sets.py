"""Named decidable sets of positive integers.

These double as variable-index predicates (which x_i belong to a subring)
and as part constraints for partition families.  A set is identified by its
name; two sets with the same name are considered equal.
"""

from __future__ import annotations


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

    def __eq__(self, other):
        if isinstance(other, IndexSet):
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((IndexSet, self.name))


ALL = IndexSet("all", lambda n: True)
ODD = IndexSet("odd", lambda n: n % 2 == 1)
PM1_MOD3 = IndexSet("pm1mod3", lambda n: n % 3 in (1, 2))
PM1_MOD5 = IndexSet("pm1mod5", lambda n: n % 5 in (1, 4))
PM1_MOD6 = IndexSet("pm1mod6", lambda n: n % 6 in (1, 5))


def avoiding_multiples_of(q):
    """The set {n : q does not divide n}; closed under m -> p*m for gcd(p, q) = 1."""
    if q < 2:
        raise ValueError("modulus must be at least 2")
    return IndexSet(f"nondiv{q}", lambda n, q=q: n % q != 0)


def probe_closure(parts, p, bound=256):
    """Validate p*W inside W on all members up to the probe bound."""
    for i in range(1, bound + 1):
        if i in parts and (p * i) not in parts:
            raise ValueError(f"{parts!r} is not closed under multiplication by {p}")


_NAMED = {s.name: s for s in (ALL, ODD, PM1_MOD3, PM1_MOD5, PM1_MOD6)}


def from_name(name):
    """Resolve a set by name; supports the built-ins and 'nondivQ'."""
    if name in _NAMED:
        return _NAMED[name]
    if name.startswith("nondiv") and name[len("nondiv"):].isdigit():
        return avoiding_multiples_of(int(name[len("nondiv"):]))
    raise ValueError(f"unknown index set {name!r}")
