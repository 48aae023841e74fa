"""Cross-validation against independent implementations.

sympy's Groebner engine knows nothing of this package; agreement of reduced
bases and remainders on random ideals is a strong end-to-end check of the
completion, reduction and division kernels.  The mapping: our variables
x1 < x2 < ... with sympy symbols passed in order (x4, x3, x2, x1) makes our
pure lex equal sympy 'lex'; with every weight overridden to 1, our graded
lex / reverse-lex equal sympy 'grlex' / 'grevlex'.
"""

from __future__ import annotations

import random

import pytest

sympy = pytest.importorskip("sympy")

import helpers
from infinigb.groebner import TruncationWindow, buchberger_truncated, reduce_basis
from infinigb.monomials import OrderKind, WeightedAlphabet
from infinigb.polynomials import RingContext

SYMBOLS = sympy.symbols("x1 x2 x3 x4")
PRECEDENCE = tuple(reversed(SYMBOLS))  # x4 strongest, matching x1 < ... < x4

EQUAL_WEIGHTS = WeightedAlphabet.with_weights({1: 1, 2: 1, 3: 1, 4: 1})

CASES = [
    (RingContext(OrderKind.PURE_LEX), "lex"),
    (RingContext(OrderKind.HOM_LEX, EQUAL_WEIGHTS), "grlex"),
    (RingContext(OrderKind.HOM_REV_LEX, EQUAL_WEIGHTS), "grevlex"),
]


def to_sympy(f):
    expr = sympy.Integer(0)
    for coefficient, monomial in f.terms:
        term = sympy.Rational(coefficient)
        for index, exponent in monomial.exps:
            term *= SYMBOLS[index - 1] ** exponent
        expr += term
    return expr


def as_poly_set(exprs):
    return {sympy.Poly(e, *PRECEDENCE, domain="QQ") for e in exprs}


@pytest.mark.parametrize("context,sympy_order", CASES, ids=["lex", "grlex", "grevlex"])
def test_reduced_bases_agree_with_sympy(context, sympy_order):
    rng = random.Random(987_001)
    window = TruncationWindow(4, 24)
    checked = 0
    attempts = 0
    while checked < 8 and attempts < 60:
        attempts += 1
        gens = [
            helpers.random_polynomial(
                rng, context, max_var=4, max_degree=5, max_terms=3
            )
            for _ in range(rng.randint(1, 3))
        ]
        ours = buchberger_truncated(gens, window, context=context)
        if ours.discarded_pairs or ours.discarded_elements:
            continue  # completion left the window; not comparable
        reduced = reduce_basis(ours)
        theirs = sympy.groebner(
            [to_sympy(g) for g in gens], *PRECEDENCE, order=sympy_order,
            domain="QQ",
        )
        assert as_poly_set(to_sympy(g) for g in reduced.elements) == \
            as_poly_set(theirs.exprs)
        checked += 1
    assert checked == 8, "sampler kept overflowing the window"


def test_rational_generators_agree_with_sympy():
    # Denominators up to 7 and leading coefficients that are neither 1 nor
    # positive, so the kernel's rows and work dicts are scaled integers.
    context, sympy_order = CASES[2]
    rng = random.Random(987_003)
    window = TruncationWindow(4, 24)
    checked = 0
    attempts = 0
    while checked < 4 and attempts < 40:
        attempts += 1
        gens = [
            helpers.random_rational_polynomial(
                rng, context, max_var=4, max_degree=4, max_terms=3
            )
            for _ in range(rng.randint(2, 3))
        ]
        ours = buchberger_truncated(gens, window, context=context)
        if ours.discarded_pairs or ours.discarded_elements:
            continue  # completion left the window; not comparable
        reduced = reduce_basis(ours)
        theirs = sympy.groebner(
            [to_sympy(g) for g in gens], *PRECEDENCE, order=sympy_order,
            domain="QQ",
        )
        assert as_poly_set(to_sympy(g) for g in reduced.elements) == \
            as_poly_set(theirs.exprs)
        checked += 1
    assert checked == 4, "sampler kept overflowing the window"


def test_remainders_agree_with_sympy():
    from infinigb.division import remainder

    context, sympy_order = CASES[2]
    rng = random.Random(987_002)
    window = TruncationWindow(4, 24)
    gens = [
        helpers.random_polynomial(rng, context, max_var=4, max_degree=4,
                                  max_terms=2)
        for _ in range(2)
    ]
    ours = reduce_basis(buchberger_truncated(gens, window, context=context))
    assert not ours.discarded_pairs
    theirs = sympy.groebner(
        [to_sympy(g) for g in gens], *PRECEDENCE, order=sympy_order,
        domain="QQ",
    )
    for _ in range(25):
        f = helpers.random_polynomial(rng, context, max_var=4, max_degree=6,
                                      max_terms=4)
        mine = remainder(f, ours.elements)
        _, other = sympy.reduced(
            to_sympy(f), theirs.exprs, *PRECEDENCE, order=sympy_order
        )
        assert sympy.expand(to_sympy(mine) - other) == 0


def test_partition_counts_agree_with_sympy():
    counts = helpers.partition_counts_up_to(60)
    for n in range(61):
        assert counts[n] == sympy.functions.combinatorial.numbers.nT(n)


def test_partition_function_agrees_with_sympy():
    from sympy.functions.combinatorial.numbers import partition

    counts = helpers.partition_counts_up_to(60)
    for n in range(1, 61):
        assert counts[n] == partition(n)
