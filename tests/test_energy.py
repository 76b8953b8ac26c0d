import math
from collections import Counter
from fractions import Fraction

import pytest

from fpcomb import (
    AsymmetricP,
    EmptyMass,
    PrimeField,
    ResidueSet,
    additive_energy,
    dilate_level_set,
    energy_star,
    moment_T_k,
    multiplicative_energy,
    pigeonhole_decompose,
    restricted_energy,
    restricted_sigma,
    sigma_k,
    sym_level_set,
)
from conftest import random_residue_set


def brute_additive(a, b, p):
    return sum(
        1
        for a1 in a
        for b1 in b
        for a2 in a
        for b2 in b
        if (a1 + b1) % p == (a2 + b2) % p
    )


def brute_multiplicative(a, b, p):
    return sum(
        1
        for a1 in a
        for b1 in b
        for a2 in a
        for b2 in b
        if a1 * b1 % p == a2 * b2 % p
    )


class TestAdditiveEnergy:
    def test_pinned_value(self):
        a = ResidueSet.of(7, [0, 1, 2])
        assert additive_energy(a, a).value == 19

    def test_matches_brute(self, rng):
        for p in (7, 31, 101):
            fld = PrimeField(p)
            for _ in range(10):
                a = random_residue_set(rng, fld, rng.randint(1, 8))
                b = random_residue_set(rng, fld, rng.randint(1, 8))
                assert additive_energy(a, b).value == brute_additive(a, b, p)

    def test_extremes(self):
        one = ResidueSet.of(11, [5])
        assert additive_energy(one, one).value == 1
        full = ResidueSet.of(11, range(11))
        assert additive_energy(full, full).value == 11**3


class TestMultiplicativeEnergy:
    def test_matches_brute(self, rng):
        for p in (7, 31, 101):
            fld = PrimeField(p)
            for _ in range(10):
                a = random_residue_set(rng, fld, rng.randint(1, 8))
                b = random_residue_set(rng, fld, rng.randint(1, 8))
                assert (
                    multiplicative_energy(a, b).value
                    == brute_multiplicative(a, b, p)
                )

    def test_exclude_zero(self):
        a = ResidueSet.of(7, [0, 1, 2])
        with_zero = multiplicative_energy(a, a).value
        without = multiplicative_energy(a, a, exclude_zero=True).value
        assert with_zero > without
        assert without == brute_multiplicative([1, 2], [1, 2], 7)

    def test_subgroup_invariance(self):
        # E×(Γ) = |Γ|^3 for a multiplicative subgroup
        from fpcomb import multiplicative_subgroup

        g = multiplicative_subgroup(PrimeField(7), 3)
        assert multiplicative_energy(g, g).value == 27


class TestMoments:
    def test_t1_is_size_t2_is_energy(self, rng):
        fld = PrimeField(61)
        a = random_residue_set(rng, fld, 8)
        assert moment_T_k(a, 1) == len(a)
        assert moment_T_k(a, 2) == additive_energy(a, a).value

    def test_t3_matches_brute(self, rng):
        p = 31
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, 6)
        counts = [0] * p
        for x in a:
            for y in a:
                for z in a:
                    counts[(x + y + z) % p] += 1
        assert moment_T_k(a, 3) == sum(c * c for c in counts)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            moment_T_k(ResidueSet.of(5, [1]), 0)


class TestSigma:
    def test_sigma2_symmetric_set(self):
        a = ResidueSet.of(11, [0, 2, 9])  # A = -A
        assert sigma_k(a, 2) == len(a)

    def test_sigma_matches_brute(self, rng):
        p = 31
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, 7)
        want = sum(1 for x in a for y in a if (x + y) % p == 0)
        assert sigma_k(a, 2) == want

    def test_restricted_sigma(self, rng):
        p = 31
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, 7)
        pset = random_residue_set(rng, fld, 9)
        want = sum(
            1 for x in a for y in a if (y - x) % p in pset.as_set()
        )
        assert restricted_sigma(a, pset) == want

    def test_restricted_energy(self, rng):
        p = 31
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, 6)
        b = random_residue_set(rng, fld, 7)
        pset = random_residue_set(rng, fld, 9)
        counts = [0] * p
        for x in a:
            for y in b:
                counts[(y - x) % p] += 1
        want = sum(counts[x] ** 2 for x in pset)
        assert restricted_energy(a, b, pset) == want

    def test_full_restriction_recovers_energy(self, rng):
        p = 31
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, 6)
        full = ResidueSet.of(fld, range(p))
        assert restricted_energy(a, a, full) == additive_energy(a, a).value


class TestExactIntResults:
    @pytest.mark.parametrize("p", [31, 1009])  # schoolbook and FFT kernels
    def test_python_ints_matching_counters(self, rng, p):
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, 25)
        b = random_residue_set(rng, fld, 20)
        pset = random_residue_set(rng, fld, 9)
        sums = Counter((x + y) % p for x in a for y in b)
        diffs = Counter((y - x) % p for x in a for y in b)
        triples = Counter((x + y + z) % p for x in a for y in a for z in a)
        results = [
            (additive_energy(a, b).value, sum(c * c for c in sums.values())),
            (moment_T_k(a, 3), sum(c * c for c in triples.values())),
            (sigma_k(a, 3), triples[0]),
            (restricted_energy(a, b, pset), sum(diffs[x] ** 2 for x in pset)),
            (restricted_energy(a, b, ResidueSet(fld, ())), 0),
        ]
        for got, want in results:
            assert type(got) is int and got == want


class TestEnergyStar:
    def test_exact_rational(self):
        a = ResidueSet.of(7, [0, 1, 2])
        assert energy_star(a) == Fraction(7 * 19 - 81, 7)

    def test_nonnegative(self, rng):
        for p in (7, 31, 101):
            fld = PrimeField(p)
            for _ in range(10):
                a = random_residue_set(rng, fld, rng.randint(1, p - 1))
                assert energy_star(a) >= 0

    def test_zero_for_full_line(self):
        p = 11
        assert energy_star(ResidueSet.of(p, range(p))) == 0


class TestLevelSets:
    def test_sym_additive(self):
        q = ResidueSet.of(11, [1, 2, 3])
        r = ResidueSet.of(11, [0, 1])
        got = sym_level_set(q, r, 2)
        want = tuple(
            x
            for x in range(11)
            if sum(1 for rr in r if (x - rr) % 11 in q.as_set()) >= 2
        )
        assert got.elements == want

    def test_sym_multiplicative(self):
        q = ResidueSet.of(11, [1, 2, 4])
        r = ResidueSet.of(11, [1, 2])
        got = sym_level_set(q, r, 2, kind="multiplicative")
        want = tuple(
            x
            for x in range(11)
            if sum(1 for rr in r if x * pow(rr, 9, 11) % 11 in q.as_set()) >= 2
        )
        assert got.elements == want

    def test_dilate_level_set(self, rng):
        fld = PrimeField(31)
        a = random_residue_set(rng, fld, 8)
        b = random_residue_set(rng, fld, 5)
        tau = 2
        got = dilate_level_set(a, b, tau)
        for s in range(1, 31):
            hits = sum(1 for e in b if s * e % 31 in a.as_set())
            assert (s in got) == (hits >= tau)

    def test_invalid_threshold(self):
        a = ResidueSet.of(5, [1])
        with pytest.raises(ValueError):
            sym_level_set(a, a, 0)
        with pytest.raises(ValueError):
            dilate_level_set(a, a, 0)


class TestPigeonhole:
    def test_pinned_example(self):
        a = ResidueSet.of(7, [0, 1, 2])
        pset = ResidueSet.of(7, [0, 1, 2, 5, 6])  # A - A, symmetric
        dec = pigeonhole_decompose(a, pset)
        assert dec.subset.elements == (0, 1, 2)
        assert dec.level == 3

    def test_asymmetric_rejected(self):
        a = ResidueSet.of(7, [0, 1])
        with pytest.raises(AsymmetricP):
            pigeonhole_decompose(a, ResidueSet.of(7, [1]))

    def test_empty_mass(self):
        a = ResidueSet.of(11, [1])
        pset = ResidueSet.of(11, [5, 6])  # symmetric, misses A - A = {0}
        with pytest.raises(EmptyMass):
            pigeonhole_decompose(a, pset)

    def test_level_guarantee_and_constants(self, rng):
        for p in (11, 47, 101):
            fld = PrimeField(p)
            for _ in range(12):
                a = random_residue_set(rng, fld, rng.randint(2, min(p - 1, 10)))
                half = rng.sample(range(1, p), rng.randint(1, (p - 1) // 2))
                pset = ResidueSet.of(
                    fld, {0, *half, *((-x) % p for x in half)}
                )
                try:
                    dec = pigeonhole_decompose(a, pset)
                except EmptyMass:
                    continue
                from fpcomb import IntegerProfile, convolve_add

                conv = convolve_add(
                    IntegerProfile.from_set(a), IntegerProfile.from_set(pset)
                )
                for x in dec.subset:
                    assert conv[x] >= dec.level
                big_l = 1 + math.log2(len(a))
                assert dec.level <= 4 * big_l * len(dec.subset)
                sigma = restricted_sigma(a, pset)
                assert 8 * big_l * big_l * len(dec.subset) * dec.level >= sigma
