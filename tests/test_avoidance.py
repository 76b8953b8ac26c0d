import math
from fractions import Fraction

import pytest

from fpcomb import (
    AffineEquation,
    BOUND_CATALOG,
    BadParameter,
    BudgetExceeded,
    EmptyFamily,
    EquationFamily,
    FieldMismatch,
    PrimeField,
    ResidueSet,
    avoids,
    bound_threshold,
    construct_parity_set,
    count_solutions,
    deviation_regime,
    max_avoiding,
)
from conftest import random_family, random_residue_set
from search_oracles import naive_max_avoiding


def brute_count(fld, eq, a1, a2, a3):
    p = fld.p
    return sum(
        1
        for x in a1
        for y in a2
        for z in a3
        if (eq.a * x + eq.b * y + eq.c * z - eq.d) % p == 0
    )


class TestCountSolutions:
    def test_matches_brute(self, rng):
        for p in (7, 31, 101):
            fld = PrimeField(p)
            for _ in range(10):
                eq = AffineEquation(
                    rng.randint(1, p - 1),
                    rng.randint(1, p - 1),
                    rng.randint(1, p - 1),
                    rng.randint(0, p - 1),
                )
                sets = [
                    random_residue_set(rng, fld, rng.randint(1, 9))
                    for _ in range(3)
                ]
                got = count_solutions(fld, eq, *sets)
                assert got.count == brute_count(fld, eq, *sets)
                assert got.expected == Fraction(
                    len(sets[0]) * len(sets[1]) * len(sets[2]), p
                )

    def test_convolution_path_matches_pairwise(self, rng, monkeypatch):
        import fpcomb.avoidance as av

        p = 101
        fld = PrimeField(p)
        eq = AffineEquation(3, 5, 7, 2)
        sets = [random_residue_set(rng, fld, 20) for _ in range(3)]
        direct = av.count_solutions(fld, eq, *sets).count
        monkeypatch.setattr(av, "_PAIRWISE_WORK_LIMIT", 0)
        assert av.count_solutions(fld, eq, *sets).count == direct

    @pytest.mark.parametrize(
        "p, s1, s2",
        [(101, 40, 25), (101, 41, 25), (10007, 100, 100), (10007, 101, 100)],
    )
    def test_pairwise_switch(self, rng, monkeypatch, p, s1, s2):
        # |A1||A2| just below / above max(_PAIRWISE_WORK_LIMIT, p)
        import fpcomb.avoidance as av

        switch = max(av._PAIRWISE_WORK_LIMIT, p)
        assert (s1 - 1) * s2 <= switch < (s1 + 1) * s2
        below = s1 * s2 <= switch
        convolutions = []
        real = av.convolve_add
        monkeypatch.setattr(
            av, "convolve_add", lambda f, g: convolutions.append(1) or real(f, g)
        )
        fld = PrimeField(p)
        eq = AffineEquation(3, 5, 7, 2)
        sets = [
            random_residue_set(rng, fld, s1),
            random_residue_set(rng, fld, s2),
            random_residue_set(rng, fld, 30),
        ]
        got = av.count_solutions(fld, eq, *sets)
        assert type(got.count) is int
        assert got.count == brute_count(fld, eq, *sets)
        assert len(convolutions) == (0 if below else 1)

    def test_field_mismatch(self):
        fld = PrimeField(7)
        other = ResidueSet.of(11, [1])
        mine = ResidueSet.of(7, [1])
        with pytest.raises(FieldMismatch):
            count_solutions(fld, AffineEquation(1, 1, 1), mine, mine, other)


class TestAvoids:
    def test_parity_construction_avoids(self):
        for p, q in ((101, 8), (1009, 16)):
            built = construct_parity_set(PrimeField(p), q)
            assert avoids(built.a, built.family)

    def test_nonavoiding_detected(self):
        fld = PrimeField(7)
        fam = EquationFamily(fld, (AffineEquation(1, 1, 6, 0),))  # x+y=z
        assert not avoids(ResidueSet.of(7, [1, 2, 3]), fam)
        assert avoids(ResidueSet.of(7, [1]), fam)  # 1+1=2 not in A


class TestParityConstruction:
    def test_pinned_example(self):
        built = construct_parity_set(PrimeField(101), 8)
        assert built.a.elements == (1, 3, 5, 7, 9, 11)
        assert len(built.family) == 4

    def test_size_formula(self):
        for p in (101, 1009, 10007):
            for q in (4, 8, 16):
                if q * q >= p:
                    continue
                built = construct_parity_set(PrimeField(p), q)
                want = math.ceil((math.ceil(p / q) - 1) / 2)
                assert len(built.a) == want
                assert len(built.family) == (q // 4) ** 2


class TestBoundCatalog:
    def test_expected_exponents(self):
        kappas = {e.name: e.kappa for e in BOUND_CATALOG}
        assert kappas["avoiding-headline"] == Fraction(3, 20)
        assert kappas["avoiding-T"] == Fraction(10, 31)
        assert kappas["avoiding-Tstar"] == Fraction(3, 10)
        assert kappas["avoiding-Tstar-energy"] == Fraction(35, 159)
        assert kappas["avoiding-family-size"] == Fraction(5, 31)
        assert kappas["non-averaging"] == Fraction(2, 3)
        assert kappas["lower-construction"] == Fraction(1, 2)
        assert kappas["avoiding-simple"] == Fraction(1, 3)

    def test_threshold_monotone_in_t(self):
        entry = BOUND_CATALOG[0]
        assert bound_threshold(entry, 101, 4) < bound_threshold(entry, 101, 2)
        with pytest.raises(ValueError):
            bound_threshold(entry, 101, 0)


class TestMaxAvoiding:
    def test_exhaustive_matches_naive(self, rng):
        for p in (5, 7, 11):
            fld = PrimeField(p)
            fam = random_family(rng, fld, rng.randint(1, 3))
            ex = max_avoiding(fld, fam, "exhaustive")
            assert ex.size == naive_max_avoiding(fld, fam)
            assert ex.size == 0 or avoids(ex.witness, fam)

    def test_pinned_p5(self):
        fld = PrimeField(5)
        fam = EquationFamily(fld, (AffineEquation(1, 1, 4, 0),))  # x+y-z=0
        assert max_avoiding(fld, fam, "exhaustive").size == 2

    def test_heuristics_valid_and_deterministic(self, rng):
        fld = PrimeField(101)
        fam = random_family(rng, fld, 4)
        g1 = max_avoiding(fld, fam, "greedy")
        g2 = max_avoiding(fld, fam, "greedy")
        assert g1 == g2
        assert avoids(g1.witness, fam)
        r1 = max_avoiding(fld, fam, "randomized", budget=8, seed=3)
        r2 = max_avoiding(fld, fam, "randomized", budget=8, seed=3)
        assert r1 == r2
        assert avoids(r1.witness, fam)
        assert r1.size >= g1.size  # first randomized round is the greedy order

    def test_budget_and_empty_family(self, rng):
        fld = PrimeField(37)
        fam = random_family(rng, fld, 2)
        with pytest.raises(BudgetExceeded):
            max_avoiding(fld, fam, "exhaustive")
        with pytest.raises(EmptyFamily):
            max_avoiding(PrimeField(7), EquationFamily(PrimeField(7), ()), "greedy")


    def test_unknown_mode_rejected(self):
        fld = PrimeField(101)
        fam = EquationFamily(fld, (AffineEquation(1, 1, 100, 0),))
        with pytest.raises(BadParameter, match="exhaustive, greedy, randomized"):
            max_avoiding(fld, fam, "exhaustiv")


class TestDeviationRegime:
    def test_thresholds(self, rng):
        fld = PrimeField(101)
        fam = random_family(rng, fld, 3)
        a = random_residue_set(rng, fld, 20)
        entries = deviation_regime(fam, a)
        low = Fraction(len(a) ** 3, 4 * 101)
        high = Fraction(2 * len(a) ** 3, 101)
        for entry in entries:
            assert entry.low == low and entry.high == high
            if entry.count <= low:
                assert entry.regime == "below"
            elif entry.count >= high:
                assert entry.regime == "above"
            else:
                assert entry.regime == "typical"

    def test_full_set_is_typical_or_above(self):
        fld = PrimeField(11)
        fam = EquationFamily(fld, (AffineEquation(1, 1, 10, 0),))
        a = ResidueSet.of(11, range(11))
        (entry,) = deviation_regime(fam, a)
        assert entry.count == 121  # p^2 solutions for a full set
        # |A|^3/(4p) = 30.25 < 121 < 242 = 2|A|^3/p
        assert entry.regime == "typical"
