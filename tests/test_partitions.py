"""Partition families, the monomial dictionary, and the two bijections."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from infinigb import index_sets, partitions
from infinigb.division import DivisorTable
from infinigb.errors import CertificationError, InputError
from infinigb.monomials import Monomial, OrderKind
from infinigb.partitions import (
    FamilySpec,
    enumerate_family,
    monomial_to_partition,
    partition_to_monomial,
    phi,
    psi,
    rr_identity_check,
    schur_identity_check,
    verify_bijection,
)
from infinigb.polynomials import GF, RingContext, parse_polynomial

W3, W_ODD = index_sets.PM1_MOD3, index_sets.ODD


class TestFamilies:
    def test_preset_a_at_ten(self):
        assert enumerate_family(FamilySpec.preset("A"), 10) == {
            (1,) * 10,
            (5, 1, 1, 1, 1, 1),
            (5, 5),
            (7, 1, 1, 1),
        }

    def test_empty_weight(self):
        for name in "ABCPQ":
            assert enumerate_family(FamilySpec.preset(name), 0) == {()}

    def test_three_families_agree_at_ten(self):
        a = len(enumerate_family(FamilySpec.preset("A"), 10))
        b = len(enumerate_family(FamilySpec.preset("B"), 10))
        c = len(enumerate_family(FamilySpec.preset("C"), 10))
        assert a == b == c == 4

    def test_preset_a_equals_both_expansions(self):
        mod6 = FamilySpec("parts", index_sets.PM1_MOD6)
        as_x2 = FamilySpec("X", W3, 2)
        as_x3 = FamilySpec("X", W_ODD, 3)
        for n in range(21):
            family = helpers.reference_enumerate_family(mod6, n)
            assert enumerate_family(as_x2, n) == family
            assert enumerate_family(as_x3, n) == family

    def test_gap_two_family(self):
        assert enumerate_family(FamilySpec.preset("Q"), 6) == {
            (6,), (5, 1), (4, 2),
        }

    def test_gap_two_membership_matches_the_search(self):
        # The search builds each partition with gaps of at least two.
        spec = FamilySpec("gap2")
        for n in range(13):
            family = helpers.reference_enumerate_family(spec, n)
            for parts in helpers.all_partitions(n):
                assert spec.contains(parts) == (parts in family), parts

    def test_distinct_parts_in_b(self):
        for parts in enumerate_family(FamilySpec.preset("B"), 12):
            assert len(set(parts)) == len(parts)
            assert all(m % 3 in (1, 2) for m in parts)

    def test_odd_parts_at_most_twice_in_c(self):
        from collections import Counter

        for parts in enumerate_family(FamilySpec.preset("C"), 12):
            assert all(m % 2 == 1 for m in parts)
            assert all(c <= 2 for c in Counter(parts).values())

    @pytest.mark.parametrize(
        "spec",
        [FamilySpec.preset(name) for name in "ABCPQ"]
        + [
            FamilySpec(kind, index_sets.avoiding_multiples_of(5), p)
            for kind in "XY"
            for p in (2, 3)
        ],
        ids=lambda spec: f"{spec.kind}-{spec.parts_in}-{spec.p}",
    )
    def test_walk_matches_the_recursive_reference(self, spec):
        for n in range(26):
            assert enumerate_family(spec, n) == helpers.reference_enumerate_family(
                spec, n
            )

    def test_closure_validation(self):
        with pytest.raises(ValueError):
            FamilySpec("X", index_sets.ODD, 2)

    def test_partition_counts(self):
        counts = helpers.partition_counts_up_to(10)
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        every_part = FamilySpec("parts", index_sets.ALL)
        assert len(helpers.reference_enumerate_family(every_part, 8)) == counts[8]


class TestIndexSets:
    def test_sets_sharing_a_name_stay_distinct(self):
        odd = index_sets.IndexSet("w", lambda n: n % 2)
        every = index_sets.IndexSet("w", lambda n: True)
        assert odd != every
        assert len({odd, every}) == 2
        assert FamilySpec("parts", odd) != FamilySpec("parts", every)
        assert FamilySpec("parts", odd) == FamilySpec("parts", odd)

    def test_each_named_set_is_one_object(self):
        assert index_sets.from_name("odd") is index_sets.ODD
        assert index_sets.avoiding_multiples_of(5) is index_sets.avoiding_multiples_of(5)
        assert index_sets.from_name("nondiv5") is index_sets.avoiding_multiples_of(5)
        assert index_sets.avoiding_multiples_of(5) != index_sets.avoiding_multiples_of(7)


class TestDictionary:
    def test_examples(self):
        assert partition_to_monomial((4, 2, 1)) == Monomial.from_pairs(
            [(1, 1), (2, 1), (4, 1)]
        )
        assert partition_to_monomial(()) == Monomial.one()
        assert monomial_to_partition(Monomial.variable(1, 2)) == (1, 1)

    def test_degree_is_weight(self):
        parts = (5, 5, 2, 1)
        assert partition_to_monomial(parts).degree() == sum(parts)

    @pytest.mark.parametrize("n", range(0, 16))
    def test_round_trip_all_partitions(self, n):
        for parts in helpers.all_partitions(n):
            assert monomial_to_partition(partition_to_monomial(parts)) == parts

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            partition_to_monomial((1, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda route: phi((1, 1), W3, 2, route=route),
        lambda route: psi((2,), W3, 2, route=route),
        lambda route: partitions.phi_pairs(W3, 2, 4, route=route),
    ],
    ids=["phi", "psi", "phi_pairs"],
)
def test_unknown_route_is_named(call):
    with pytest.raises(InputError, match="^unknown route 'fast'$"):
        call("fast")


class TestPhiPsi:
    def test_four_ones_collapse(self):
        assert phi((1, 1, 1, 1), W3, 2) == (4,)

    def test_weight_ten_example(self):
        assert phi((5, 1, 1, 1, 1, 1), W3, 2) == (5, 4, 1)

    def test_fixed_point_when_multiplicities_small(self):
        assert phi((5, 1), W3, 2) == (5, 1)

    def test_psi_splits_ten(self):
        assert psi((10,), W3, 2) == (5, 5)

    def test_psi_decays_to_ones(self):
        assert psi((8, 2), W3, 2) == (1,) * 10

    def test_psi_fixed_point(self):
        assert psi((5, 1), W3, 2) == (5, 1)

    def test_routes_agree_on_examples(self):
        for parts in [(1, 1, 1, 1), (5, 1, 1, 1, 1, 1), (7, 1, 1, 1), (5, 5)]:
            assert phi(parts, W3, 2, route="oracle") == phi(
                parts, W3, 2, route="division"
            )

    def test_phi_weight_preserved_and_lands_in_y(self):
        spec_y = FamilySpec("Y", W3, 2)
        for n in range(13):
            for parts in enumerate_family(FamilySpec("X", W3, 2), n):
                image = phi(parts, W3, 2)
                assert sum(image) == n
                assert spec_y.contains(image)

    def test_psi_lands_in_x(self):
        spec_x = FamilySpec("X", W3, 2)
        for n in range(13):
            for parts in enumerate_family(FamilySpec("Y", W3, 2), n):
                assert spec_x.contains(psi(parts, W3, 2))

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            phi((2, 2), W3, 2)  # 2 = 2*1 lies in 2W
        with pytest.raises(ValueError):
            psi((1, 1), W3, 2)  # multiplicity 2 exceeds p-1

    def test_mutually_inverse_small(self):
        for n in range(11):
            for parts in enumerate_family(FamilySpec("X", W3, 2), n):
                assert psi(phi(parts, W3, 2), W3, 2) == parts
            for parts in enumerate_family(FamilySpec("Y", W3, 2), n):
                assert phi(psi(parts, W3, 2), W3, 2) == parts

    def test_image_that_is_not_a_monic_monomial_is_refused(self, monkeypatch):
        real = DivisorTable.monomial_remainder

        def binomial_remainder(table, m):
            # The true image less x1: a remainder of two terms.
            return [*real(table, m), (-1, table._key(Monomial.variable(1)), 1)]

        monkeypatch.setattr(DivisorTable, "monomial_remainder", binomial_remainder)
        with pytest.raises(CertificationError):
            phi((5, 1), W3, 2)
        with pytest.raises(CertificationError):
            psi((5, 1), W3, 2)

    @pytest.mark.parametrize("field", [None, 7])
    @pytest.mark.parametrize(
        "rows, parts, images",
        [
            # One term whose coefficient is not 1, integer or rational.
            (["x1^2 - 2*x2"], (1, 1), ("2*x2", "2*x2")),
            (["2*x1^2 - x2"], (1, 1), ("1/2*x2", "4*x2")),
            # Two terms, and none.
            (["x1^4 - x2^2 - x4"], (1, 1, 1, 1), ("x2^2 + x4", "x2^2 + x4")),
            (["x1^2"], (1, 1), ("0", "0")),
        ],
    )
    def test_real_remainder_that_is_not_a_monic_monomial_is_refused(
        self, rows, parts, images, field
    ):
        table = _table(rows, field)
        image = images[field is not None]
        with pytest.raises(CertificationError, match=rf"image {re.escape(image)} is"):
            partitions._division_image(parts, table)

    @pytest.mark.parametrize("field", [None, 7])
    def test_monic_image_at_a_scale_above_one_is_accepted(self, field):
        # Over Q the work dict doubles at the first step, so the image x4
        # comes out as 2/2.
        table = _table(["2*x1^4 - x2^2", "x2^2 - 2*x4"], field)
        assert partitions._division_image((1, 1, 1, 1), table) == (4,)


def _table(rows, field):
    """A packed table of the given rows under the anti-reverse lexicographic
    order, over Q or GF(field)."""
    context = RingContext(OrderKind.HOM_ANTI_REV_LEX, field=field and GF(field))
    return DivisorTable(context, [parse_polynomial(r, context) for r in rows])


class TestVerifyBijection:
    def test_weight_zero(self):
        pairs, report = verify_bijection(W3, 2, 0)
        assert pairs == [((), ())]
        assert report["ok"] and report["x_size"] == report["y_size"] == 1

    @pytest.mark.parametrize("n", [1, 6, 10, 13])
    def test_small_weights_mod3(self, n):
        _, report = verify_bijection(W3, 2, n)
        assert report["ok"], report

    @pytest.mark.parametrize("n", [5, 9, 12])
    def test_small_weights_odd_cubes(self, n):
        _, report = verify_bijection(W_ODD, 3, n)
        assert report["ok"], report

    def test_failed_verification_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(partitions, "_division_image", lambda parts, table: parts)
        pairs, report = verify_bijection(W3, 2, 4)
        assert pairs == [((1, 1, 1, 1), (1, 1, 1, 1))]
        assert report["ok"] is False
        assert report["maps_into_target"] is False
        assert report["phi_after_psi_is_identity"] is False


def _swapping_image(n, family, p):
    """The true division image, except that the two smallest X partitions
    of weight n trade images."""
    a, b = sorted(enumerate_family(FamilySpec("X", family, p), n))[:2]
    swap = {a: b, b: a}
    real = partitions._division_image

    def swapped(parts, table):
        return real(swap.get(parts, parts), table)

    return swapped


BIJECTION_PRESETS = {"AB": (W3, 2), "AC": (W_ODD, 3)}


class TestVerifyBijectionAgainstReference:
    """`verify_bijection` divides each side once; its pairs and every report
    flag, failure values included, equal those of the loop it replaced."""

    @pytest.mark.parametrize("n", [0, 1, 13, 25])
    @pytest.mark.parametrize("preset", list(BIJECTION_PRESETS))
    def test_presets(self, preset, n):
        family, p = BIJECTION_PRESETS[preset]
        assert verify_bijection(family, p, n) == helpers.reference_verify_bijection(
            family, p, n
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(0, 18),
        q=st.sampled_from([3, 5, 7]),
        p=st.sampled_from([2, 3, 4]),
    )
    def test_random_specs(self, n, q, p):
        if p % q == 0:
            return
        family = index_sets.avoiding_multiples_of(q)
        assert verify_bijection(family, p, n) == helpers.reference_verify_bijection(
            family, p, n
        )

    @pytest.mark.parametrize("n", [6, 9, 13])
    @pytest.mark.parametrize("preset", list(BIJECTION_PRESETS))
    @pytest.mark.parametrize(
        "sabotage", ["identity", "fixed_monomial", "swap"]
    )
    def test_sabotaged_remainder(self, monkeypatch, sabotage, preset, n):
        family, p = BIJECTION_PRESETS[preset]
        fake = {
            "identity": lambda parts, table: parts,
            # Every monomial goes to x_n, the partition (n,).
            "fixed_monomial": lambda parts, table: (n,),
            "swap": _swapping_image(n, family, p),
        }[sabotage]
        monkeypatch.setattr(partitions, "_division_image", fake)
        pairs, report = verify_bijection(family, p, n)
        assert report["ok"] is False
        assert (pairs, report) == helpers.reference_verify_bijection(family, p, n)

    @pytest.mark.parametrize("preset", list(BIJECTION_PRESETS))
    def test_each_partition_is_divided_once(self, monkeypatch, preset):
        family, p = BIJECTION_PRESETS[preset]
        calls = []
        real = DivisorTable.monomial_remainder

        def counted(table, m):
            calls.append(m)
            return real(table, m)

        monkeypatch.setattr(DivisorTable, "monomial_remainder", counted)
        _, report = verify_bijection(family, p, 12)
        assert report["ok"]
        assert len(calls) == report["x_size"] + report["y_size"]


REWRITE_FAMILIES = [
    index_sets.ALL,
    index_sets.ODD,
    index_sets.PM1_MOD3,
    index_sets.PM1_MOD5,
    index_sets.PM1_MOD6,
    *(index_sets.avoiding_multiples_of(q) for q in (2, 3, 5, 7)),
]


def check_rewrites(parts, family, p):
    down = helpers.reference_rewrite_down(parts, family, p)
    assert partitions._rewrite_down(parts, family, p) == down
    up = helpers.reference_rewrite_up(parts, family, p)
    assert partitions._rewrite_up(parts, family, p) == up


class TestRewriteOracle:
    """The one-pass rewrites equal the step-by-step loops they replaced, on
    any multiset of parts, parts outside the family included."""

    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(st.integers(1, 60), max_size=40).map(
            lambda parts: tuple(sorted(parts, reverse=True))
        ),
        family=st.sampled_from(REWRITE_FAMILIES),
        p=st.integers(2, 5),
    )
    def test_random_parts(self, parts, family, p):
        check_rewrites(parts, family, p)

    @pytest.mark.parametrize("preset", list(BIJECTION_PRESETS))
    def test_every_partition_up_to_twenty(self, preset):
        family, p = BIJECTION_PRESETS[preset]
        for n in range(21):
            for parts in helpers.all_partitions(n):
                check_rewrites(parts, family, p)


class TestRandomizedSpecs:
    def test_cardinalities_agree_for_random_closed_sets(self):
        rng = random.Random(20260811)
        primes = [3, 5, 7, 11, 13]
        for _ in range(3):
            q = rng.choice(primes)
            p = rng.choice([m for m in (2, 3, 4, 5) if m % q != 0])
            family = index_sets.avoiding_multiples_of(q)
            for n in range(0, 31, 6):
                x_size = len(enumerate_family(FamilySpec("X", family, p), n))
                y_size = len(enumerate_family(FamilySpec("Y", family, p), n))
                assert x_size == y_size

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(0, 18),
        q=st.sampled_from([3, 5, 7]),
        p=st.sampled_from([2, 4]),
    )
    def test_bijection_property_random_specs(self, n, q, p):
        if p % q == 0:
            return
        family = index_sets.avoiding_multiples_of(q)
        for parts in enumerate_family(FamilySpec("X", family, p), n):
            image = phi(parts, family, p, route="oracle")
            assert psi(image, family, p, route="oracle") == parts


class TestCharacteristicIndependence:
    @pytest.mark.parametrize("q", [2, 5])
    def test_family_basis_and_remainders_match_rationals(self, q):
        from infinigb.groebner import (
            IdealPresentation,
            TruncationWindow,
            bayer_stillman_basis,
            reduce_basis,
        )
        from infinigb.division import remainder
        from infinigb.polynomials import Polynomial

        window = TruncationWindow(12, 12)
        results = {}
        for field in (None, GF(q)):
            pres = IdealPresentation.power_substitution(
                W3, 2, OrderKind.HOM_ANTI_REV_LEX, fieldtag=field
            )
            basis = reduce_basis(
                bayer_stillman_basis(
                    pres.instantiate(window), window=window,
                    context=pres.context,
                )
            )
            images = {}
            for parts in enumerate_family(FamilySpec("X", W3, 2), 12):
                f = Polynomial.from_monomial(
                    pres.context, partition_to_monomial(parts)
                )
                images[parts] = remainder(f, basis.elements).monomials()
            results[field] = (basis.leading_monomials(), images)
        assert results[None] == results[GF(q)]


class TestIdentities:
    def test_schur_small(self):
        report = schur_identity_check(12)
        assert report["equal"]
        assert report["columns"]["count_A"][1] == 1

    def test_count_columns_match_the_reference(self):
        columns = {
            **schur_identity_check(30)["columns"],
            **rr_identity_check(30)["columns"],
        }
        for name in "ABCPQ":
            spec = FamilySpec.preset(name)
            assert columns[f"count_{name}"] == [
                len(helpers.reference_enumerate_family(spec, n)) for n in range(31)
            ]

    def test_rr_small(self):
        report = rr_identity_check(12)
        assert report["equal"]

    def test_rr_counts_nontrivial(self):
        report = rr_identity_check(9)
        # Partitions of 9 with gap >= 2: 9, 8+1, 7+2, 6+3, 5+3+1, 6+2+1... gap
        # check: 6+2+1 has gaps 4 and 1, excluded; expected five members.
        assert report["columns"]["count_Q"][9] == 5
        assert report["columns"]["count_P"][9] == 5
