import pytest

from fpcomb import (
    HypothesisViolated,
    NotInSpectrum,
    PrimeField,
    ResidueSet,
    SpectrumParams,
    dft,
    les_inequality_check,
    spectrum,
    spectrum_mult_energy_report,
    spectrum_size_bound_check,
)
from conftest import random_residue_set


class TestSpectrumParams:
    def test_epsilon_range(self):
        a = ResidueSet.of(7, [1])
        with pytest.raises(ValueError):
            SpectrumParams(a, 0.0)
        with pytest.raises(ValueError):
            SpectrumParams(a, 1.5)
        SpectrumParams(a, 1.0)  # boundary allowed

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            SpectrumParams(ResidueSet.of(7, []), 0.5)

    def test_delta(self):
        params = SpectrumParams(ResidueSet.of(7, [1, 2]), 0.5)
        assert params.delta == pytest.approx(2 / 7)


class TestSpectrum:
    def test_contains_zero_and_symmetric(self, rng):
        for p in (11, 101):
            fld = PrimeField(p)
            for _ in range(10):
                a = random_residue_set(rng, fld, rng.randint(1, p - 1))
                eps = rng.uniform(0.05, 1.0)
                spec = spectrum(SpectrumParams(a, eps))
                assert 0 in spec
                elems = spec.as_set()
                assert all((-x) % p in elems for x in elems)

    def test_point_mass_full_spectrum(self):
        spec = spectrum(SpectrumParams(ResidueSet.of(5, [0]), 1.0))
        assert spec.elements == (0, 1, 2, 3, 4)

    def test_threshold_matches_table(self, rng):
        fld = PrimeField(101)
        a = random_residue_set(rng, fld, 20)
        eps = 0.4
        table = dft(a)
        spec = spectrum(SpectrumParams(a, eps), table)
        thresh = eps * len(a)
        for r in range(101):
            in_spec = r in spec
            if table.magnitudes[r] >= thresh * (1 - 1e-9):
                assert in_spec
            elif table.magnitudes[r] < thresh * (1 - 1e-6):
                assert not in_spec


class TestSizeBound:
    def test_never_violated(self, rng):
        for p in (11, 101, 499):
            fld = PrimeField(p)
            for _ in range(15):
                a = random_residue_set(rng, fld, rng.randint(1, p - 1))
                eps = rng.uniform(0.05, 1.0)
                chk = spectrum_size_bound_check(SpectrumParams(a, eps))
                assert chk.ok
                assert chk.lhs <= chk.rhs


class TestLesInequality:
    def test_point_mass_equality(self):
        # A = {0}, eps = 1: Spec = F_5, T_2(F_5) = 125 = rhs exactly
        params = SpectrumParams(ResidueSet.of(5, [0]), 1.0)
        b = spectrum(params)
        chk = les_inequality_check(params, b, k=2)
        assert chk.lhs == 125.0
        assert chk.rhs == pytest.approx(125.0)
        assert chk.ok

    def test_requires_subset_of_spectrum(self):
        fld = PrimeField(101)
        a = ResidueSet.of(fld, range(0, 101, 2))
        params = SpectrumParams(a, 0.9)
        spec = spectrum(params)
        outside = next(x for x in range(101) if x not in spec)
        with pytest.raises(NotInSpectrum):
            les_inequality_check(params, ResidueSet.of(fld, [outside]))

    def test_k_validation(self):
        params = SpectrumParams(ResidueSet.of(5, [0]), 1.0)
        with pytest.raises(ValueError):
            les_inequality_check(params, spectrum(params), k=1)

    def test_fuzz_k2_k3(self, rng):
        for p in (11, 101):
            fld = PrimeField(p)
            for _ in range(20):
                a = random_residue_set(rng, fld, rng.randint(1, p - 1))
                eps = rng.uniform(0.1, 1.0)
                params = SpectrumParams(a, eps)
                spec = spectrum(params)
                size = rng.randint(1, len(spec))
                b = ResidueSet.of(fld, rng.sample(spec.elements, size))
                for k in (2, 3):
                    assert les_inequality_check(params, b, k=k).ok


class TestMultEnergyReport:
    def test_hypothesis_enforced(self):
        # B = Spec = F_5 has |B| = 5 >= 5^(2/3): hypothesis fails
        params = SpectrumParams(ResidueSet.of(5, [0]), 1.0)
        b = spectrum(params)
        with pytest.raises(HypothesisViolated):
            spectrum_mult_energy_report(params, b)
        rep = spectrum_mult_energy_report(params, b, strict=False)
        assert rep.measured > 0 and rep.ratio > 0

    def test_small_subset_report(self, rng):
        fld = PrimeField(101)
        a = random_residue_set(rng, fld, 30)
        params = SpectrumParams(a, 0.3)
        spec = spectrum(params)
        b = ResidueSet.of(fld, spec.elements[: min(3, len(spec))])
        rep = spectrum_mult_energy_report(params, b)
        assert rep.measured >= len(b) ** 2  # diagonal solutions at least
        assert rep.ratio == pytest.approx(rep.measured / rep.reference)

    def test_outside_spectrum_rejected(self):
        fld = PrimeField(101)
        a = ResidueSet.of(fld, range(0, 101, 2))
        params = SpectrumParams(a, 0.95)
        spec = spectrum(params)
        outside = next(x for x in range(101) if x not in spec)
        with pytest.raises(NotInSpectrum):
            spectrum_mult_energy_report(params, ResidueSet.of(fld, [outside]))


class TestTableArgument:
    """A precomputed dft(A) gives the same answers and skips the transform."""

    def test_checks_agree_with_and_without_table(self, rng, monkeypatch):
        fld = PrimeField(101)
        cases = []
        for _ in range(10):
            a = random_residue_set(rng, fld, rng.randint(1, 60))
            params = SpectrumParams(a, rng.uniform(0.2, 1.0))
            spec = spectrum(params)
            b = ResidueSet.of(fld, rng.sample(spec.elements, min(3, len(spec))))
            outside = ResidueSet.of(fld, [x for x in range(101) if x not in spec][:1])
            want = (
                spectrum_size_bound_check(params),
                les_inequality_check(params, b, k=2),
                spectrum_mult_energy_report(params, b, strict=False),
            )
            cases.append((params, dft(a), spec, b, outside, want))
        monkeypatch.setattr("fpcomb.spectral.dft", None)  # no transform
        for params, table, spec, b, outside, want in cases:
            assert spectrum(params, table) == spec
            assert (
                spectrum_size_bound_check(params, table),
                les_inequality_check(params, b, k=2, table=table),
                spectrum_mult_energy_report(params, b, strict=False, table=table),
            ) == want
            if len(outside):
                with pytest.raises(NotInSpectrum):
                    les_inequality_check(params, outside, table=table)
                with pytest.raises(NotInSpectrum):
                    spectrum_mult_energy_report(params, outside, table=table)
