import math

import pytest

from fpcomb import (
    AffineEquation,
    BadParameter,
    BudgetExceeded,
    EquationFamily,
    PrimeField,
    ProportionalEquations,
    ZeroCoefficient,
    build_family,
    canonicalize,
    dump_family,
    greedy_t_witness,
    parity_family_equations,
    parse_family,
    load_family,
    ratio_set_size,
    t_invariant,
    t_star_invariant,
    verify_witness,
)
from conftest import random_family
from family_oracles import brute_force_t, brute_force_t_star


class TestCanonicalize:
    def test_scaling_invariance(self):
        fld = PrimeField(11)
        p1 = canonicalize(fld, AffineEquation(2, 3, 4, 0))
        p2 = canonicalize(fld, AffineEquation(6, 9, 12, 5))
        assert p1 == p2

    def test_zero_coefficient_rejected(self):
        fld = PrimeField(11)
        for eq in (
            AffineEquation(0, 1, 1),
            AffineEquation(1, 0, 1),
            AffineEquation(1, 1, 0),
            AffineEquation(11, 1, 1),
        ):
            with pytest.raises(ZeroCoefficient):
                canonicalize(fld, eq)


class TestEquationFamily:
    def test_proportional_rejected(self):
        fld = PrimeField(11)
        with pytest.raises(ProportionalEquations):
            EquationFamily(
                fld,
                (AffineEquation(1, 2, 3, 0), AffineEquation(2, 4, 6, 1)),
            )

    def test_attributes_and_planes(self):
        fld = PrimeField(11)
        fam = EquationFamily(fld, (AffineEquation(2, 3, 1, 0),))
        alpha, beta, gamma = fam.attributes(0)
        assert alpha == 2 and beta == 3
        assert gamma == 2 * pow(3, 9, 11) % 11
        za, zb = fam.plane_coordinates(0, "z")
        assert (za, zb) == (2, 3)
        # plane x: (1, b/a, c/a); plane y: (a/b, 1, c/b)
        xa, xb = fam.plane_coordinates(0, "x")
        assert xa == pow(gamma, 9, 11) and xb == pow(alpha, 9, 11)
        ya, yb = fam.plane_coordinates(0, "y")
        assert ya == gamma and yb == pow(beta, 9, 11)


class TestInvariants:
    def test_single_equation(self):
        fld = PrimeField(11)
        fam = EquationFamily(fld, (AffineEquation(1, 2, 3, 0),))
        assert t_invariant(fam).value == 1
        assert t_star_invariant(fam, "exact").value == 1
        assert len(greedy_t_witness(fam).indices) == 1

    def test_subgroup_t_equals_order(self):
        fam = build_family(PrimeField(7), "subgroup", order=3)
        assert len(fam) == 9
        assert t_invariant(fam).value == 3
        assert t_star_invariant(fam, "exact").value == 5

    def test_diagonal_family_t_star_max(self):
        # S(E) = {1} x {1} x [t]: all of E is a valid T* witness
        fld = PrimeField(11)
        eqs = tuple(AffineEquation(1, 1, c, 0) for c in range(1, 6))
        fam = EquationFamily(fld, eqs)
        assert t_star_invariant(fam, "exact").value == 5

    def test_matching_family_t_max(self):
        # distinct alpha and beta everywhere: T = |E|
        fld = PrimeField(11)
        eqs = tuple(AffineEquation(i, i, 1, 0) for i in range(1, 5))
        fam = EquationFamily(fld, eqs)
        assert t_invariant(fam).value == 4

    def test_fuzz_against_brute_force(self, rng):
        for _ in range(40):
            p = rng.choice([11, 13, 17, 19])
            fam = random_family(rng, PrimeField(p), rng.randint(1, 7))
            t = t_invariant(fam)
            assert t.value == brute_force_t(fam)
            assert verify_witness(fam, t.witness)
            ts = t_star_invariant(fam, "exact")
            assert ts.value == brute_force_t_star(fam)
            assert verify_witness(fam, ts.witness)
            assert t.value <= ts.value
            assert ts.value >= ratio_set_size(fam)
            # T* >= 2 sqrt(|E|) - 1, so for an integer T* the bound
            # is ceil(2 sqrt(|E|)) - 1
            assert ts.value >= math.ceil(2 * math.sqrt(len(fam)) - 1e-9) - 1

    def test_greedy_witness_bound(self, rng):
        for _ in range(40):
            p = rng.choice([11, 13, 17, 19, 23])
            fam = random_family(rng, PrimeField(p), rng.randint(1, 10))
            w = greedy_t_witness(fam)
            assert verify_witness(fam, w)
            assert len(w.indices) >= math.ceil(math.sqrt(len(fam)))

    def test_greedy_tstar_is_valid_lower_bound(self, rng):
        for _ in range(25):
            p = rng.choice([11, 13, 17])
            fam = random_family(rng, PrimeField(p), rng.randint(1, 8))
            greedy = t_star_invariant(fam, "greedy")
            exact = t_star_invariant(fam, "exact")
            assert verify_witness(fam, greedy.witness)
            assert greedy.value <= exact.value

    def test_exact_budget(self, rng):
        fam = random_family(rng, PrimeField(101), 25)
        with pytest.raises(BudgetExceeded):
            t_star_invariant(fam, "exact")


class TestVerifyWitness:
    def test_rejects_duplicates_and_clashes(self):
        fld = PrimeField(11)
        fam = EquationFamily(
            fld, (AffineEquation(1, 1, 1, 0), AffineEquation(1, 2, 1, 0))
        )
        from fpcomb import WitnessSubset

        assert not verify_witness(fam, WitnessSubset("z", (0, 0), "T"))
        # same alpha in plane z: not a T witness
        assert not verify_witness(fam, WitnessSubset("z", (0, 1), "T"))
        assert verify_witness(fam, WitnessSubset("z", (0,), "T"))


class TestBuildFamily:
    def test_gamma_shift(self):
        fam = build_family(PrimeField(7), "gamma_shift", order=3)
        assert len(fam) == 3
        for eq in fam.equations:
            assert eq.a == eq.b and eq.c == 6

    def test_lambda(self):
        fam = build_family(PrimeField(11), "lambda", lambdas=[1, 2, 3])
        assert len(fam) == 3
        with pytest.raises(BadParameter):
            build_family(PrimeField(11), "lambda", lambdas=[0, 1])

    def test_parity(self):
        fam = build_family(PrimeField(101), "parity", q=8)
        assert len(fam) == 4  # (i, j) in {2, 4}^2

    def test_explicit(self):
        fam = build_family(
            PrimeField(11), "explicit", equations=[(1, 2, 3, 4)]
        )
        assert fam.equations[0] == AffineEquation(1, 2, 3, 4)

    def test_missing_params(self):
        with pytest.raises(BadParameter):
            build_family(PrimeField(7), "subgroup")
        with pytest.raises(BadParameter):
            build_family(PrimeField(7), "unknown-kind")


class TestParityEquations:
    def test_validation(self):
        with pytest.raises(BadParameter):
            parity_family_equations(PrimeField(101), 7)  # odd
        with pytest.raises(BadParameter):
            parity_family_equations(PrimeField(101), 2)  # too small
        with pytest.raises(BadParameter):
            parity_family_equations(PrimeField(11), 4)  # q^2 >= p

    def test_shape(self):
        eqs = parity_family_equations(PrimeField(1009), 16)
        assert len(eqs) == 16  # (i, j) in {2, 4, 6, 8}^2
        for eq in eqs:
            assert eq.c == 1 and eq.d == 0


class TestFamilyFiles:
    def test_round_trip(self, rng, tmp_path):
        fam = random_family(rng, PrimeField(103), 6)
        text = dump_family(fam)
        back = parse_family(text)
        assert back.p == fam.p
        assert back.equations == fam.equations
        path = tmp_path / "family.txt"
        path.write_text(text)
        assert load_family(str(path)).equations == fam.equations

    def test_comments_and_blanks(self):
        fam = parse_family("# header comment\np=11\n\n1 2 3 0  # inline\n")
        assert fam.p == 11 and len(fam) == 1

    def test_errors(self):
        with pytest.raises(BadParameter):
            parse_family("")
        with pytest.raises(BadParameter):
            parse_family("1 2 3 0\n")  # missing header
        with pytest.raises(BadParameter):
            parse_family("p=11\n1 2 3\n")  # short row
        with pytest.raises(ProportionalEquations) as err:
            parse_family("p=11\n1 2 3 0\n2 4 6 0\n")
        assert "line 3" in str(err.value) and "line 2" in str(err.value)
