"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated runtime budget.

Everything here is exact arithmetic; tolerances are equality.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

import helpers
from infinigb import index_sets
from infinigb.division import divide
from infinigb.groebner import (
    IdealPresentation,
    TruncationWindow,
    bayer_stillman_basis,
    buchberger_truncated,
    check_fr_condition,
    reduce_basis,
    verify_buchberger,
)
from infinigb.monomials import (
    DEFAULT_WEIGHTS,
    Monomial,
    OrderKind,
    compare,
)
from infinigb.partitions import (
    rr_identity_check,
    schur_identity_check,
    verify_bijection,
)
from infinigb.polynomials import Polynomial, RingContext
from infinigb.series import (
    ambient_series,
    quotient_series_from_standard_monomials,
    regular_sequence_series,
)

PRESETS = [(index_sets.PM1_MOD3, 2), (index_sets.ODD, 3)]


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    state = {"ok": False}
    try:
        yield state
        state["ok"] = True
    finally:
        elapsed = time.monotonic() - start
        verdict = "PASS" if state["ok"] and elapsed < budget_seconds else "FAIL"
        print(
            f"ACCEPTANCE {number}: {verdict} ({elapsed:.1f}s / "
            f"budget {budget_seconds}s) {description}"
        )
    assert elapsed < budget_seconds, f"criterion {number} over budget"


def test_criterion_1_order_table(capsys):
    with criterion(1, "degree-4 comparison chains reproduced exactly", 1.0):
        from infinigb import cli

        code = cli.main(["orders-demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[:5] == [
            "hlex: x4 > x1*x3 > x2^2 > x1^2*x2 > x1^4",
            "halex: x1^4 > x1^2*x2 > x1*x3 > x2^2 > x4",
            "hrevlex: x4 > x2^2 > x1*x3 > x1^2*x2 > x1^4",
            "harevlex: x1^4 > x1^2*x2 > x2^2 > x1*x3 > x4",
            "verdict: PASS",
        ]
        # Independent of the CLI: every ordered pair of every chain.
        chains = {
            OrderKind.HOM_LEX: ["x4", "x1*x3", "x2^2", "x1^2*x2", "x1^4"],
            OrderKind.HOM_ANTI_LEX: ["x1^4", "x1^2*x2", "x1*x3", "x2^2", "x4"],
            OrderKind.HOM_REV_LEX: ["x4", "x2^2", "x1*x3", "x1^2*x2", "x1^4"],
            OrderKind.HOM_ANTI_REV_LEX: [
                "x1^4", "x1^2*x2", "x2^2", "x1*x3", "x4",
            ],
        }
        from infinigb.monomials import parse_monomial

        comparisons = 0
        for order, texts in chains.items():
            chain = [parse_monomial(t) for t in texts]
            for i in range(5):
                for j in range(i + 1, 5):
                    assert compare(chain[i], chain[j], order) == 1
                    assert compare(chain[j], chain[i], order) == -1
                    comparisons += 2
        assert comparisons == 80


def test_criterion_2_schur_equalities():
    with criterion(2, "Schur equalities, enumeration and series, n <= 60", 60.0):
        report = schur_identity_check(60)
        columns = report["columns"]
        reference = columns["count_A"]
        assert len(reference) == 61
        for name in (
            "count_B", "count_C",
            "product_pm1_mod6", "distinct_pm1_mod3", "odd_at_most_twice",
        ):
            assert columns[name] == reference, name
        assert report["equal"]


def test_criterion_3_bijection_soundness():
    with criterion(
        3, "phi/psi mutually inverse, both routes, both presets, n <= 40", 120.0
    ):
        for parts, p in PRESETS:
            for n in range(41):
                _, report = verify_bijection(parts, p, n)
                assert report["ok"], (parts.name, p, n, report)


def test_criterion_4_family_certification():
    with criterion(
        4, "substitution family certified (fast path + full verification)", 60.0
    ):
        for parts, p in PRESETS:
            for order, expect_reduced in (
                (OrderKind.HOM_ANTI_REV_LEX, True),
                (OrderKind.HOM_LEX, False),
            ):
                presentation = IdealPresentation.power_substitution(
                    parts, p, order
                )
                for n in range(1, 13):
                    window = TruncationWindow(n, 30)
                    gens = presentation.instantiate(window)
                    fast = bayer_stillman_basis(
                        gens, window=window, context=presentation.context
                    )
                    assert fast is not None
                    assert verify_buchberger(fast)
                    complete = buchberger_truncated(
                        gens, window, context=presentation.context
                    )
                    assert set(complete.leading_monomials()) == set(
                        fast.leading_monomials()
                    )
                    if expect_reduced:
                        assert fast.reduced
                # The lex-order family is certified but genuinely unreduced
                # once both x_i^p - x_{pi} and x_{pi}^p - x_{p^2 i} appear.
                if not expect_reduced:
                    window = TruncationWindow(12, 30)
                    full = bayer_stillman_basis(
                        presentation.instantiate(window),
                        window=window,
                        context=presentation.context,
                    )
                    assert not full.reduced


def test_criterion_5_reduced_basis_uniqueness():
    with criterion(
        5, "reduced base identical across 10 generator shuffles, 20 ideals", 120.0
    ):
        rng = random.Random(77001)
        orders = helpers.HOMOGENEOUS_ORDERS
        window = TruncationWindow(4, 18)
        accepted = 0
        attempts = 0
        while accepted < 20:
            attempts += 1
            assert attempts <= 100, "sampler failed to find completing ideals"
            ctx = RingContext(orders[attempts % len(orders)])
            gens = [
                helpers.random_polynomial(
                    rng, ctx, max_var=4, max_degree=6, max_terms=3
                )
                for _ in range(rng.randint(1, 3))
            ]
            basis = buchberger_truncated(gens, window, context=ctx)
            if basis.discarded_pairs or basis.discarded_elements:
                continue  # completion left the window: uniqueness not implied
            reference = reduce_basis(basis)
            assert reference.reduced
            for _ in range(10):
                shuffled = list(gens)
                rng.shuffle(shuffled)
                again = reduce_basis(
                    buchberger_truncated(shuffled, window, context=ctx)
                )
                assert again.elements == reference.elements, gens
            accepted += 1


def test_criterion_6_hilbert_two_routes():
    with criterion(
        6, "quotient series equals product route to T^40; ambient = p(n)", 30.0
    ):
        for parts, p in PRESETS:
            presentation = IdealPresentation.power_substitution(
                parts, p, OrderKind.HOM_ANTI_REV_LEX
            )
            window = TruncationWindow(40, 40)
            basis = bayer_stillman_basis(
                presentation.instantiate(window),
                window=window,
                context=presentation.context,
            )
            counted = quotient_series_from_standard_monomials(
                basis, 40, variables=presentation.variables
            )
            predicted = regular_sequence_series(
                basis, 40, variables=presentation.variables
            )
            assert counted == predicted
        ambient = ambient_series(DEFAULT_WEIGHTS, None, 40)
        assert list(ambient.coefficients) == helpers.partition_counts_up_to(40)


def test_criterion_7_division_contracts():
    with criterion(7, "division contracts on 500 random instances", 60.0):
        rng = random.Random(55007)
        orders = helpers.ALL_ORDERS
        for k in range(500):
            ctx = RingContext(orders[k % len(orders)])
            f = helpers.random_polynomial(
                rng, ctx, max_var=5, max_degree=8, max_terms=5, allow_zero=True
            )
            divisors = [
                helpers.random_polynomial(
                    rng, ctx, max_var=5, max_degree=8, max_terms=3
                )
                for _ in range(rng.randint(1, 4))
            ]
            result = divide(f, divisors)
            total = result.remainder
            for position, quotient in result.quotients:
                total = total + quotient * divisors[position]
            assert total == f
            leads = [g.lm() for g in divisors]
            for _, monomial in result.remainder.terms:
                assert not any(lm.divides(monomial) for lm in leads)
            if not f.is_zero:
                for position, quotient in result.quotients:
                    product = quotient * divisors[position]
                    if not product.is_zero:
                        assert (
                            compare(product.lm(), f.lm(), ctx.order, ctx.weights)
                            <= 0
                        )


def test_criterion_8_rogers_ramanujan():
    with criterion(8, "Rogers-Ramanujan counts and series, n <= 50", 60.0):
        report = rr_identity_check(50)
        columns = report["columns"]
        reference = columns["count_P"]
        assert len(reference) == 51
        for name in ("count_Q", "product_pm1_mod5", "gap_sum_series"):
            assert columns[name] == reference, name
        assert report["equal"]


def _random_support_split(rng, length):
    variables = [1, 2, 3, 4, 5]
    rng.shuffle(variables)
    cuts = sorted(rng.sample(range(1, 5), length - 1))
    groups, previous = [], 0
    for cut in cuts + [5]:
        groups.append(variables[previous:cut])
        previous = cut
    return [g for g in groups if g][:length]


def _random_homogeneous_on_support(rng, ctx, group):
    while True:
        pairs = [(i, rng.randint(0, 2)) for i in group]
        m = Monomial.from_pairs([(i, e) for i, e in pairs if e])
        if not m.is_one:
            break
    if rng.random() < 0.5:
        return Polynomial.from_monomial(ctx, m)
    alternatives = [
        c
        for c in helpers.monomials_of_degree(m.degree(), variables=set(group))
        if c != m
    ]
    if not alternatives:
        return Polynomial.from_monomial(ctx, m)
    other = alternatives[rng.randrange(len(alternatives))]
    return Polynomial.from_terms(ctx, [(1, m), (-1, other)])


def test_criterion_9_fr_permutation_invariance():
    with criterion(
        9, "regularity check permutation-invariant; non-regular rejected", 120.0
    ):
        rng = random.Random(424242)
        for trial in range(10):
            length = 2 + trial % 3
            ctx = RingContext(helpers.HOMOGENEOUS_ORDERS[trial % 4])
            groups = _random_support_split(rng, length)
            sequence = [
                _random_homogeneous_on_support(rng, ctx, g) for g in groups
            ]
            probe = sum(f.weighted_degree() for f in sequence) + 2
            for perm in itertools.permutations(sequence):
                assert check_fr_condition(list(perm), probe), [
                    str(f) for f in perm
                ]
            # Replace one member with a multiple of another: a zero divisor
            # modulo the rest, in every arrangement.
            j = rng.randrange(length)
            i = (j + 1) % length
            poisoned = list(sequence)
            poisoned[j] = Polynomial.variable(ctx, groups[i][0]) * sequence[i]
            probe = sum(f.weighted_degree() for f in poisoned) + 2
            for perm in itertools.permutations(poisoned):
                assert not check_fr_condition(list(perm), probe), [
                    str(f) for f in perm
                ]
