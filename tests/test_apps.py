from fractions import Fraction

import numpy as np
import pytest

from fpcomb import (
    BadOrder,
    BadParameter,
    BudgetExceeded,
    ExperimentConfig,
    PrimeField,
    ResidueSet,
    TooSmall,
    ZeroInX,
    additive_energy,
    collinear_deviation,
    collinear_triples,
    is_nonaveraging,
    max_nonaveraging,
    mixed_energy_sum,
    multiplicative_subgroup,
    q_lambda,
    ratio_set,
    run_experiment,
)
from fpcomb import harmonic
from fpcomb.apps import _collinear_brute
from collinear_oracles import collinear_line_sweep, q_lambda_cubic
from conftest import random_residue_set
from search_oracles import has_three_term_progression, naive_max_nonaveraging


class TestQLambda:
    def test_identities(self, rng):
        for p in (11, 101):
            fld = PrimeField(p)
            for _ in range(8):
                a = random_residue_set(rng, fld, rng.randint(2, min(p - 1, 10)))
                q = q_lambda(a)
                n = len(a)
                assert q[0] == n * (n - 1)
                assert q[1] == n * (n - 1)
                assert sum(q.values()) == n * n * (n - 1)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            q_lambda(ResidueSet.of(7, [1]))

    def test_ratio_set_contains_zero_one(self, rng):
        fld = PrimeField(31)
        a = random_residue_set(rng, fld, 5)
        r = ratio_set(a)
        assert 0 in r and 1 in r


class TestQLambdaKernel:
    # 293 / 307 give kernel lengths 292 / 306, one each side of
    # _SCHOOLBOOK_MAX_P, which the one-row fallback dispatches on
    @pytest.mark.parametrize("p", [293, 307])
    def test_matches_cubic_oracle(self, rng, p):
        fld = PrimeField(p)
        for size in (2, 3, 17, 60):
            a = random_residue_set(rng, fld, size)
            assert q_lambda(a) == q_lambda_cubic(a), a.elements

    @pytest.mark.parametrize("p", [293, 307])
    def test_failed_batch_falls_back_row_by_row(self, rng, monkeypatch, p):
        assert 292 <= harmonic._SCHOOLBOOK_MAX_P < 306
        a = random_residue_set(rng, PrimeField(p), 12)
        real_irfft = np.fft.irfft

        def faulty_irfft(spec, n):
            raw = real_irfft(spec, n)
            if raw.ndim == 2:  # only the batched transform
                raw[0, 0] += 0.4
            return raw

        monkeypatch.setattr(np.fft, "irfft", faulty_irfft)
        rows = []
        real_exact = harmonic._cyclic_convolve_exact
        monkeypatch.setattr(
            harmonic,
            "_cyclic_convolve_exact",
            lambda *args: rows.append(args[2]) or real_exact(*args),
        )
        assert q_lambda(a) == q_lambda_cubic(a)
        assert rows == [p - 1] * len(a)


class TestCollinearIdentity:
    """T(A) = sum q(lambda)^2 + 3|A|^4 - 2|A|^3 against both oracles."""

    def test_matches_brute(self, rng):
        for _ in range(40):
            p = rng.choice((5, 7, 11, 13, 31, 101))
            a = random_residue_set(rng, PrimeField(p), rng.randint(0, min(p, 8)))
            assert collinear_triples(a).total == _collinear_brute(a), a.elements

    @pytest.mark.parametrize("p, size", [(101, 40), (151, 60), (307, 25)])
    def test_matches_line_sweep(self, rng, p, size):
        a = random_residue_set(rng, PrimeField(p), size)
        want = collinear_line_sweep(a)
        assert collinear_triples(a).total == want
        assert collinear_deviation(a).total == want

    @pytest.mark.parametrize("elems, total", [((), 0), ((3,), 1), ((0, 5), 40)])
    def test_tiny_sets(self, elems, total):
        a = ResidueSet.of(7, elems)
        stats = collinear_triples(a)
        assert stats.total == total == _collinear_brute(a)
        assert stats.q_profile == ({} if len(a) < 2 else {0: 2, 1: 2})
        assert collinear_deviation(a).total == total


# A collinear experiment (primes 31 and 101, seed 9, density 0.3): its sets,
# T values and q profiles (q(0), ..., q(p - 1)) as the line-sweep count and
# the cubic q loop gave them.
_PINNED_SETS = {
    31: (3, 7, 9, 16, 19, 20, 23, 24, 30),
    101: (0, 1, 5, 11, 21, 24, 26, 27, 29, 32, 36, 46, 47, 53, 56, 58, 63, 67,
          68, 69, 76, 82, 83, 87, 88, 91, 93, 94, 98, 99),
}
_PINNED_T = {31: 37641, 101: 9890190}
_PINNED_Q = {
    31: [72, 72, 12, 18, 18, 14, 24, 14, 18, 14, 18, 18, 20, 20, 20, 18, 12,
         18, 20, 20, 20, 18, 18, 14, 18, 14, 24, 14, 18, 18, 12],
    101: [870, 870, 238, 255, 247, 252, 261, 238, 232, 245, 238, 238, 242, 251,
          244, 259, 244, 261, 238, 244, 261, 252, 250, 250, 250, 252, 247, 259,
          244, 238, 232, 244, 251, 248, 255, 247, 259, 244, 232, 245, 235, 248,
          251, 242, 235, 245, 238, 242, 235, 248, 255, 238, 255, 248, 235, 242,
          238, 245, 235, 242, 251, 248, 235, 245, 232, 244, 259, 247, 255, 248,
          251, 244, 232, 238, 244, 259, 247, 252, 250, 250, 250, 252, 261, 244,
          238, 261, 244, 259, 244, 251, 242, 238, 238, 245, 232, 238, 261, 252,
          247, 255, 238],
}


def test_seeded_collinear_experiment_pinned():
    report = run_experiment(
        ExperimentConfig(
            kind="collinear", primes=[31, 101], seed=9, params={"density": 0.3}
        )
    )
    assert [(r["p"], r["set_size"], r["T"]) for r in report.measurements] == [
        (p, len(_PINNED_SETS[p]), _PINNED_T[p]) for p in (31, 101)
    ]
    assert report.all_passed
    for p, elems in _PINNED_SETS.items():
        a = ResidueSet.of(p, elems)
        q = q_lambda(a)
        assert [q.get(lam, 0) for lam in range(p)] == _PINNED_Q[p]
        assert list(q) == sorted(q)
        assert collinear_triples(a).total == _PINNED_T[p]


class TestCollinear:
    def test_pinned_value(self):
        a = ResidueSet.of(5, [0, 1])
        assert collinear_triples(a, "brute").total == 40
        assert collinear_triples(a, "fast").total == 40

    def test_modes_agree(self, rng):
        for p in (5, 7, 11, 13, 31):
            fld = PrimeField(p)
            for _ in range(4):
                a = random_residue_set(rng, fld, rng.randint(1, min(p - 1, 5)))
                brute = collinear_triples(a, "brute").total
                fast = collinear_triples(a, "fast").total
                assert brute == fast, (p, a.elements)

    def test_brute_budget(self, rng):
        a = random_residue_set(rng, PrimeField(31), 9)
        with pytest.raises(BudgetExceeded):
            collinear_triples(a, "brute")

    def test_full_grid(self):
        # every point triple of the full plane is collinear iff it lies on
        # one of the p^2 + p lines; for A = F_p the count is known exactly:
        # each line has p points, plus the correction for equal triples.
        p = 5
        a = ResidueSet.of(p, range(p))
        total = collinear_triples(a, "fast").total
        assert total == (p * p + p) * p**3 - p * p * p


class TestCollinearDeviation:
    def test_report_fields(self, rng):
        fld = PrimeField(31)
        a = random_residue_set(rng, fld, 8)
        rep = collinear_deviation(a)
        assert rep.expected == Fraction(len(a) ** 6, 31)
        assert rep.deviation == abs(Fraction(rep.total) - rep.expected)
        assert rep.ratio == pytest.approx(float(rep.deviation) / rep.reference)


class TestNonAveraging:
    def test_agrees_with_3ap_scanner(self, rng):
        for p in (7, 11, 31, 101):
            fld = PrimeField(p)
            for _ in range(15):
                a = random_residue_set(rng, fld, rng.randint(1, p - 1))
                assert is_nonaveraging(a, 1) == (
                    not has_three_term_progression(a)
                )

    def test_order_validation(self):
        a = ResidueSet.of(7, [1])
        with pytest.raises(BadOrder):
            is_nonaveraging(a, 0)
        with pytest.raises(BadOrder):
            is_nonaveraging(a, 4)  # 2t >= p

    def test_exhaustive_matches_naive(self):
        for p in (5, 7, 11):
            fld = PrimeField(p)
            for t in (1, 2):
                if 2 * t >= p:
                    continue
                ex = max_nonaveraging(fld, t, "exhaustive")
                assert ex.size == naive_max_nonaveraging(fld, t)
                assert ex.size == 0 or is_nonaveraging(ex.witness, t)

    def test_heuristics_valid(self):
        fld = PrimeField(101)
        g = max_nonaveraging(fld, 2, "greedy")
        assert is_nonaveraging(g.witness, 2)
        r = max_nonaveraging(fld, 2, "randomized", budget=5, seed=1)
        assert is_nonaveraging(r.witness, 2)
        assert r == max_nonaveraging(fld, 2, "randomized", budget=5, seed=1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(BadParameter, match="exhaustive, greedy, randomized"):
            max_nonaveraging(PrimeField(13), 1, "exhaustiv")

    def test_exhaustive_budget(self):
        with pytest.raises(BudgetExceeded):
            max_nonaveraging(PrimeField(37), 1, "exhaustive")


class TestMixedEnergy:
    def test_x_is_one_reduces_to_energy(self, rng):
        for p in (7, 31, 101):
            fld = PrimeField(p)
            for _ in range(5):
                a = random_residue_set(rng, fld, rng.randint(1, min(p - 1, 10)))
                rep = mixed_energy_sum(a, ResidueSet.of(fld, [1]))
                assert rep.total == additive_energy(a, a).value

    def test_subgroup_pinned(self):
        fld = PrimeField(7)
        g = multiplicative_subgroup(fld, 3)
        rep = mixed_energy_sum(g, ResidueSet.of(fld, [2]))
        assert rep.total == 15

    def test_full_set_zero_deviation(self):
        p = 11
        fld = PrimeField(p)
        a = ResidueSet.of(fld, range(p))
        x = ResidueSet.of(fld, range(1, p))
        rep = mixed_energy_sum(a, x)
        assert rep.deviation == 0

    def test_zero_in_x_rejected(self):
        a = ResidueSet.of(7, [1, 2])
        with pytest.raises(ZeroInX):
            mixed_energy_sum(a, ResidueSet.of(7, [0, 1]))

    def test_cauchy_schwarz_lower_bound(self, rng):
        fld = PrimeField(101)
        for _ in range(10):
            a = random_residue_set(rng, fld, rng.randint(1, 30))
            x = ResidueSet.of(
                fld, rng.sample(range(1, 101), rng.randint(1, 10))
            )
            rep = mixed_energy_sum(a, x)
            assert rep.total >= rep.expected
