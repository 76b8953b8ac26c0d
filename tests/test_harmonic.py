import numpy as np
import pytest

import fpcomb.harmonic as harmonic
from fpcomb import (
    FieldMismatch,
    IntegerProfile,
    PrimeField,
    ResidueSet,
    convolve_add,
    convolve_add_iterated,
    convolve_mult,
    correlate_add,
    dft,
    profile_dft,
    sup_norm_nonzero,
)
from conftest import random_residue_set
from harmonic_oracles import inverse_transform


def naive_convolve(f, g, p):
    out = [0] * p
    for i, fv in enumerate(f):
        if fv:
            for j, gv in enumerate(g):
                out[(i + j) % p] += fv * gv
    return out


class TestIntegerProfile:
    def test_validation(self):
        fld = PrimeField(5)
        with pytest.raises(ValueError):
            IntegerProfile(fld, (1, 2, 3))
        with pytest.raises(ValueError):
            IntegerProfile(fld, (1, -1, 0, 0, 0))

    def test_from_set_delta_support(self):
        a = ResidueSet.of(5, [1, 3])
        prof = IntegerProfile.from_set(a)
        assert prof.values.tolist() == [0, 1, 0, 1, 0]
        assert prof.support().elements == (1, 3)
        assert prof.total() == 2
        d = IntegerProfile.delta(PrimeField(5), 7)
        assert d.values.tolist() == [0, 0, 1, 0, 0]
        assert prof[6] == 1  # index reduced mod p

    def test_array_backed_value_semantics(self):
        fld = PrimeField(5)
        prof = IntegerProfile(fld, [0, 1, 0, 1, 0])
        assert prof.values.dtype == np.int64
        assert not prof.values.flags.writeable
        same = IntegerProfile.from_set(ResidueSet.of(5, [1, 3]))
        assert prof == same and hash(prof) == hash(same)
        assert prof != IntegerProfile.delta(fld, 1)
        assert type(prof[1]) is int and type(prof.total()) is int
        with pytest.raises(TypeError):
            IntegerProfile(fld, [0.5, 0, 0, 0, 0])

    def test_object_dtype_only_above_int64(self):
        fld = PrimeField(5)
        fits = IntegerProfile(fld, [2**63 - 1, 0, 0, 0, 0])
        assert fits.values.dtype == np.int64
        wide = IntegerProfile(fld, [2**63, 0, 0, 0, 0])
        assert wide.values.dtype == object
        assert wide[0] == 2**63 and wide.total() == 2**63


class TestPowerSum:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_either_side_of_int64(self, k):
        # the largest v with v**k * 2 < 2**63, then one more
        top = int((2**62) ** (1 / k))
        while (top + 1) ** k * 2 < 2**63:
            top += 1
        while top**k * 2 >= 2**63:
            top -= 1
        for v in (top, top + 1):
            vals = np.array([v, v], dtype=np.int64)
            got = harmonic._power_sum(vals, k)
            assert type(got) is int and got == 2 * v**k

    def test_empty_and_object(self):
        assert harmonic._power_sum(np.zeros(0, dtype=np.int64), 2) == 0
        vals = np.array([10**30, 1], dtype=object)
        assert harmonic._power_sum(vals, 2) == 10**60 + 1


class TestConvolveAdd:
    @pytest.mark.parametrize("p", [5, 11, 101, 521, 1009])
    def test_matches_naive(self, rng, p):
        fld = PrimeField(p)
        for hi in (1, 7, 10_000):
            f = [rng.randint(0, hi) for _ in range(p)]
            g = [rng.randint(0, hi) for _ in range(p)]
            got = convolve_add(
                IntegerProfile(fld, tuple(f)), IntegerProfile(fld, tuple(g))
            )
            assert list(got.values) == naive_convolve(f, g, p)

    def test_huge_values_exact(self):
        # force the widest packing path
        p = 521
        fld = PrimeField(p)
        f = [0] * p
        g = [0] * p
        f[1] = f[2] = 10**30
        g[3] = 10**30
        got = convolve_add(IntegerProfile(fld, tuple(f)), IntegerProfile(fld, tuple(g)))
        assert got[4] == 10**60 and got[5] == 10**60

    # 293 / 307 straddle _SCHOOLBOOK_MAX_P; 509 / 521 straddle its old value
    @pytest.mark.parametrize("p", [293, 307, 509, 521])
    def test_schoolbook_switch(self, rng, monkeypatch, p):
        assert 293 <= harmonic._SCHOOLBOOK_MAX_P < 307
        calls = []
        real = harmonic._fft_cyclic
        monkeypatch.setattr(
            harmonic, "_fft_cyclic", lambda *a: calls.append(a[2]) or real(*a)
        )
        fld = PrimeField(p)
        for hi in (1, 10_000):
            f = [rng.randint(0, hi) for _ in range(p)]
            g = [rng.randint(0, hi) for _ in range(p)]
            got = convolve_add(IntegerProfile(fld, f), IntegerProfile(fld, g))
            assert got.values.tolist() == naive_convolve(f, g, p)
        assert calls == ([] if p <= harmonic._SCHOOLBOOK_MAX_P else [p, p])

    def test_zero_profile(self):
        fld = PrimeField(7)
        z = IntegerProfile(fld, (0,) * 7)
        f = IntegerProfile.delta(fld, 3)
        assert convolve_add(z, f).values.tolist() == [0] * 7

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            convolve_add(
                IntegerProfile.delta(PrimeField(5), 0),
                IntegerProfile.delta(PrimeField(7), 0),
            )

    def test_mass_identity(self, rng):
        fld = PrimeField(101)
        f = IntegerProfile(fld, tuple(rng.randint(0, 9) for _ in range(101)))
        g = IntegerProfile(fld, tuple(rng.randint(0, 9) for _ in range(101)))
        assert convolve_add(f, g).total() == f.total() * g.total()


def _kronecker_spy(monkeypatch):
    calls = []
    real = harmonic._kronecker_cyclic
    monkeypatch.setattr(
        harmonic, "_kronecker_cyclic", lambda *a: calls.append(a[3]) or real(*a)
    )
    return calls


def _bound(f, g):
    return min(max(f) * sum(g), max(g) * sum(f))


class TestFftPath:
    P = 521

    def _sparse(self, rng):
        # sparse inputs leave zeros in the linear convolution
        p = self.P
        f = [0] * p
        g = [0] * p
        for i in rng.sample(range(p), 12):
            f[i] = rng.randint(1, 5)
        for i in rng.sample(range(p), 12):
            g[i] = rng.randint(1, 5)
        return f, g

    def test_exact_without_fallback(self, rng, monkeypatch):
        calls = _kronecker_spy(monkeypatch)
        for hi in (1, 1000):
            f = [rng.randint(0, hi) for _ in range(self.P)]
            g = [rng.randint(0, hi) for _ in range(self.P)]
            fld = PrimeField(self.P)
            got = convolve_add(IntegerProfile(fld, f), IntegerProfile(fld, g))
            assert got.values.tolist() == naive_convolve(f, g, self.P)
        assert calls == []

    @pytest.mark.parametrize("fault", ["residual", "total", "negative"])
    def test_failed_check_falls_back_to_kronecker(self, rng, monkeypatch, fault):
        p = self.P
        f, g = self._sparse(rng)
        want = naive_convolve(f, g, p)
        lin = np.convolve(f, g)
        zero = int(np.flatnonzero(lin == 0)[0])
        top = int(np.argmax(lin))
        real_irfft = np.fft.irfft

        def faulty_irfft(spec, n):
            raw = real_irfft(spec, n)
            if fault == "residual":
                raw[top] += 0.4
            elif fault == "total":
                raw[zero] += 1.0
            else:  # total kept, one value rounds to -1
                raw[zero] -= 1.0
                raw[top] += 1.0
            return raw

        monkeypatch.setattr(np.fft, "irfft", faulty_irfft)
        fa = np.array(f, dtype=np.int64)
        ga = np.array(g, dtype=np.int64)
        total = sum(f) * sum(g)
        assert harmonic._fft_cyclic(fa, ga, p, _bound(f, g), total) is None
        calls = _kronecker_spy(monkeypatch)
        fld = PrimeField(p)
        got = convolve_add(IntegerProfile(fld, f), IntegerProfile(fld, g))
        assert got.values.tolist() == want
        assert len(calls) == 1

    def test_above_a_priori_bound_skips_fft(self, rng, monkeypatch):
        p = self.P
        f = [rng.randint(0, 10**6) for _ in range(p)]
        g = [rng.randint(0, 10**6) for _ in range(p)]
        norms = np.linalg.norm(f) * np.linalg.norm(g)
        k = (2 * p - 2).bit_length()
        assert harmonic._fft_error_bound(norms, k) >= 0.25
        assert 2 * p * _bound(f, g) < 2**63  # only the error bound rules FFT out

        def no_rfft(*args, **kwargs):
            raise AssertionError("FFT path taken above the a-priori bound")

        monkeypatch.setattr(np.fft, "rfft", no_rfft)
        calls = _kronecker_spy(monkeypatch)
        fld = PrimeField(p)
        got = convolve_add(IntegerProfile(fld, f), IntegerProfile(fld, g))
        assert got.values.tolist() == naive_convolve(f, g, p)
        assert len(calls) == 1


class TestRows:
    """The batched kernel matches the one-row kernel row by row."""

    @staticmethod
    def _stack(rng, m, n, hi):
        return np.array(
            [[rng.randint(0, hi) for _ in range(n)] for _ in range(m)], dtype=np.int64
        )

    @pytest.mark.parametrize("n, hi", [(10, 1), (292, 1), (306, 1), (520, 1000)])
    def test_batched_matches_rows(self, rng, monkeypatch, n, hi):
        f = self._stack(rng, 5, n, hi)
        g = self._stack(rng, 5, n, hi)
        f[2] = 0  # an all-zero row
        want = [naive_convolve(fr, gr, n) for fr, gr in zip(f.tolist(), g.tolist())]
        rows = []
        real = harmonic._cyclic_convolve_exact
        monkeypatch.setattr(
            harmonic, "_cyclic_convolve_exact", lambda *a: rows.append(a) or real(*a)
        )
        got = harmonic._cyclic_convolve_rows(f, g, n)
        assert got.dtype == np.int64 and got.tolist() == want
        assert rows == []  # one batched transform, no row-by-row fallback

    def test_failed_row_sends_every_row_to_one_row_kernel(self, rng, monkeypatch):
        n = 400
        f = self._stack(rng, 4, n, 1)
        g = self._stack(rng, 4, n, 1)
        want = [naive_convolve(fr, gr, n) for fr, gr in zip(f.tolist(), g.tolist())]
        real_irfft = np.fft.irfft

        def faulty_irfft(spec, size):
            raw = real_irfft(spec, size)
            if raw.ndim == 2:
                raw[3, 7] += 0.4  # the residual check fails for row 3 only
            return raw

        monkeypatch.setattr(np.fft, "irfft", faulty_irfft)
        sum_f, sum_g = f.sum(axis=1), g.sum(axis=1)
        bound = np.minimum(sum_g, sum_f)  # 0/1 rows
        assert harmonic._fft_cyclic(f, g, n, bound, sum_f * sum_g) is None
        rows = []
        real = harmonic._cyclic_convolve_exact
        monkeypatch.setattr(
            harmonic, "_cyclic_convolve_exact", lambda *a: rows.append(a) or real(*a)
        )
        got = harmonic._cyclic_convolve_rows(f, g, n)
        assert got.tolist() == want
        assert len(rows) == 4

    def test_huge_values_go_row_by_row(self, rng):
        n = 12
        f = self._stack(rng, 3, n, 10**9)
        g = self._stack(rng, 3, n, 10**9)
        want = [naive_convolve(fr, gr, n) for fr, gr in zip(f.tolist(), g.tolist())]
        assert harmonic._cyclic_convolve_rows(f, g, n).tolist() == want


class TestKronecker:
    @pytest.mark.parametrize(
        "hi, slot", [(1, 2), (1000, 4), (10**6, 8), (10**12, 11)]
    )
    def test_slot_widths(self, rng, hi, slot):
        p = 521
        f = [rng.randint(0, hi) for _ in range(p)]
        g = [rng.randint(0, hi) for _ in range(p)]
        bound = _bound(f, g)
        nbytes = (bound.bit_length() + 7) // 8
        assert next((w for w in (2, 4, 8) if nbytes <= w), nbytes) == slot
        got = harmonic._kronecker_cyclic(
            harmonic._exact_array(f), harmonic._exact_array(g), p, bound
        )
        assert got.tolist() == naive_convolve(f, g, p)

    @pytest.mark.parametrize("v, dtype", [(2**63 - 1, np.int64), (2**63, object)])
    def test_int64_edge(self, v, dtype):
        # bound = v: the output is int64 exactly when it fits
        p = 521
        fld = PrimeField(p)
        f = [0] * p
        f[1] = v
        g = [1, 1] + [0] * (p - 2)
        got = convolve_add(IntegerProfile(fld, f), IntegerProfile(fld, g))
        assert got.values.dtype == dtype
        assert got[1] == v and got[2] == v and got.total() == 2 * v


class TestCorrelateAdd:
    def test_matches_naive(self, rng):
        p = 101
        fld = PrimeField(p)
        f = [rng.randint(0, 5) for _ in range(p)]
        g = [rng.randint(0, 5) for _ in range(p)]
        got = correlate_add(
            IntegerProfile(fld, tuple(f)), IntegerProfile(fld, tuple(g))
        )
        want = [0] * p
        for i, fv in enumerate(f):
            for j, gv in enumerate(g):
                want[(j - i) % p] += fv * gv
        assert list(got.values) == want

    def test_autocorrelation_at_zero(self, rng):
        fld = PrimeField(61)
        a = random_residue_set(rng, fld, 9)
        prof = IntegerProfile.from_set(a)
        assert correlate_add(prof, prof)[0] == len(a)


class TestConvolveMult:
    def test_matches_naive(self, rng):
        p = 61
        fld = PrimeField(p)
        f = [rng.randint(0, 3) for _ in range(p)]
        g = [rng.randint(0, 3) for _ in range(p)]
        got = convolve_mult(
            IntegerProfile(fld, tuple(f)), IntegerProfile(fld, tuple(g))
        )
        want = [0] * p
        for y in range(1, p):
            if f[y]:
                for z in range(p):
                    want[z * y % p] += f[y] * g[z]
        assert list(got.values) == want

    def test_length_above_schoolbook_switch(self, rng, monkeypatch):
        # p - 1 = 306 > _SCHOOLBOOK_MAX_P: the FFT path serves the log domain
        p = 307
        assert p - 1 > harmonic._SCHOOLBOOK_MAX_P
        calls = []
        real = harmonic._fft_cyclic
        monkeypatch.setattr(
            harmonic, "_fft_cyclic", lambda *a: calls.append(a[2]) or real(*a)
        )
        fld = PrimeField(p)
        f = [rng.randint(0, 3) for _ in range(p)]
        g = [rng.randint(0, 3) for _ in range(p)]
        got = convolve_mult(IntegerProfile(fld, f), IntegerProfile(fld, g))
        want = [0] * p
        for y in range(1, p):
            for z in range(p):
                want[z * y % p] += f[y] * g[z]
        assert got.values.tolist() == want
        assert calls == [p - 1]

    def test_huge_values_exact(self):
        p = 11
        fld = PrimeField(p)
        f = [0, 10**30, 0, 3] + [0] * (p - 4)
        g = [10**20, 0, 10**25] + [0] * (p - 3)
        got = convolve_mult(IntegerProfile(fld, f), IntegerProfile(fld, g))
        assert got[0] == (10**30 + 3) * 10**20
        assert got[2] == 10**55 and got[6] == 3 * 10**25

    def test_zero_index_of_f_ignored(self):
        fld = PrimeField(7)
        f = IntegerProfile.delta(fld, 0)
        g = IntegerProfile.delta(fld, 3)
        assert convolve_mult(f, g).values.tolist() == [0] * 7


class TestIterated:
    def test_k1_is_identity(self):
        a = ResidueSet.of(7, [1, 2])
        prof = IntegerProfile.from_set(a)
        assert convolve_add_iterated(prof, 1) is prof

    def test_k3_matches_triple_loop(self, rng):
        p = 31
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, 6)
        reps = convolve_add_iterated(IntegerProfile.from_set(a), 3)
        want = [0] * p
        for x in a:
            for y in a:
                for z in a:
                    want[(x + y + z) % p] += 1
        assert list(reps.values) == want

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            convolve_add_iterated(IntegerProfile.delta(PrimeField(5), 0), 0)


class TestDft:
    @pytest.mark.parametrize("p", [5, 11, 101, 499])
    def test_against_direct_sum(self, rng, p):
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, min(p - 1, 70))  # exercise fft path
        table = dft(a)
        for xi in (0, 1, p // 2, p - 1):
            direct = abs(
                sum(np.exp(-2j * np.pi * xi * x / p) for x in a.elements)
            )
            assert table.magnitudes[xi] == pytest.approx(direct, abs=1e-8)

    def test_parseval(self, rng):
        for p in (11, 101, 499):
            fld = PrimeField(p)
            a = random_residue_set(rng, fld, rng.randint(1, p - 1))
            total = sum(dft(a).squared_magnitudes)
            assert total == pytest.approx(p * len(a), rel=1e-9)

    def test_zero_frequency_exact(self):
        a = ResidueSet.of(11, [1, 4, 9])
        assert dft(a).magnitudes[0] == 3.0

    def test_mirror_symmetry(self, rng):
        fld = PrimeField(101)
        a = random_residue_set(rng, fld, 17)
        mags = dft(a).magnitudes
        for xi in range(1, 101):
            assert mags[xi] == mags[101 - xi]

    def test_full_set_spectrum(self):
        p = 13
        a = ResidueSet.of(p, range(p))
        mags = dft(a).magnitudes
        assert mags[0] == p
        assert max(mags[1:]) < 1e-9


class TestTransformRoundTrip:
    def test_inverse_recovers_profile(self, rng):
        fld = PrimeField(101)
        f = IntegerProfile(fld, tuple(rng.randint(0, 5) for _ in range(101)))
        back = inverse_transform(profile_dft(f))
        assert np.allclose(back.real, f.values, atol=1e-9)
        assert np.allclose(back.imag, 0, atol=1e-9)

    def test_convolution_theorem(self, rng):
        p = 101
        fld = PrimeField(p)
        f = IntegerProfile(fld, tuple(rng.randint(0, 4) for _ in range(p)))
        g = IntegerProfile(fld, tuple(rng.randint(0, 4) for _ in range(p)))
        lhs = profile_dft(convolve_add(f, g))
        rhs = profile_dft(f) * profile_dft(g)
        assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-6)


class TestSupNorm:
    def test_point_mass(self):
        a = ResidueSet.of(7, [3])
        assert sup_norm_nonzero(dft(a)) == pytest.approx(1.0)

    def test_interval(self):
        a = ResidueSet.of(11, [0, 1, 2])
        t = dft(a)
        assert 0 < sup_norm_nonzero(t) < 3
