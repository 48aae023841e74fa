"""Partition families, the monomial dictionary, and the two bijections."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infinigb import index_sets, partitions
from infinigb.errors import CertificationError
from infinigb.monomials import Monomial
from infinigb.partitions import (
    FamilySpec,
    all_partitions,
    enumerate_family,
    monomial_to_partition,
    partition_counts_up_to,
    partition_to_monomial,
    phi,
    psi,
    rr_identity_check,
    schur_identity_check,
    verify_bijection,
)

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
            family = enumerate_family(mod6, n)
            assert enumerate_family(as_x2, n) == family
            assert enumerate_family(as_x3, n) == family

    def test_gap_two_family(self):
        assert enumerate_family(FamilySpec.preset("Q"), 6) == {
            (6,), (5, 1), (4, 2),
        }

    def test_distinct_parts_in_b(self):
        for parts in enumerate_family(FamilySpec.preset("B"), 12):
            assert len(set(parts)) == len(parts)
            assert all(m % 3 in (1, 2) for m in parts)

    def test_odd_parts_at_most_twice_in_c(self):
        from collections import Counter

        for parts in enumerate_family(FamilySpec.preset("C"), 12):
            assert all(m % 2 == 1 for m in parts)
            assert all(c <= 2 for c in Counter(parts).values())

    def test_closure_validation(self):
        with pytest.raises(ValueError):
            FamilySpec("X", index_sets.ODD, 2)

    def test_partition_counts(self):
        counts = partition_counts_up_to(10)
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert len(all_partitions(8)) == counts[8]


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
        for parts in all_partitions(n):
            assert monomial_to_partition(partition_to_monomial(parts)) == parts

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            partition_to_monomial((1, 2))


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
        def binomial_remainder(f, divisors):
            return f - f.from_monomial(f.context, Monomial.variable(99))

        monkeypatch.setattr(partitions, "remainder", binomial_remainder)
        with pytest.raises(CertificationError):
            phi((5, 1), W3, 2)
        with pytest.raises(CertificationError):
            psi((5, 1), W3, 2)


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
        from infinigb.monomials import OrderKind
        from infinigb.polynomials import GF, Polynomial

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

    def test_rr_small(self):
        report = rr_identity_check(12)
        assert report["equal"]

    def test_rr_counts_nontrivial(self):
        report = rr_identity_check(9)
        # Partitions of 9 with gap >= 2: 9, 8+1, 7+2, 6+3, 5+3+1, 6+2+1... gap
        # check: 6+2+1 has gaps 4 and 1, excluded; expected five members.
        assert report["columns"]["count_Q"][9] == 5
        assert report["columns"]["count_P"][9] == 5
