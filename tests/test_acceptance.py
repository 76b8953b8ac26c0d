"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime and asserting its stated budget."""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fpcomb import (
    AffineEquation,
    EquationFamily,
    ExperimentConfig,
    IntegerProfile,
    PrimeField,
    ResidueSet,
    SpectrumParams,
    additive_energy,
    avoids,
    build_family,
    collinear_triples,
    construct_parity_set,
    convolve_add,
    dft,
    energy_star,
    is_nonaveraging,
    les_inequality_check,
    max_avoiding,
    max_nonaveraging,
    mixed_energy_sum,
    moment_T_k,
    multiplicative_energy,
    multiplicative_subgroup,
    profile_dft,
    q_lambda,
    ratio_set_size,
    restricted_energy,
    restricted_sigma,
    run_experiment,
    sigma_k,
    spectrum,
    spectrum_size_bound_check,
    t_invariant,
    t_star_invariant,
)
from conftest import random_family, random_residue_set
from family_oracles import brute_force_t, brute_force_t_star
from search_oracles import (
    has_three_term_progression,
    naive_max_avoiding,
    naive_max_nonaveraging,
)


def report(criterion: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"PASS {criterion} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_01_fourier_identities():
    started = time.time()
    rng = random.Random(101)
    instances = 0
    for p in (11, 101, 499, 4093):
        fld = PrimeField(p)
        for _ in range(125):
            a = random_residue_set(rng, fld, rng.randint(1, min(p - 1, 60)))
            b = random_residue_set(rng, fld, rng.randint(1, min(p - 1, 60)))
            ta, tb = dft(a), dft(b)
            # Parseval
            total = sum(ta.squared_magnitudes)
            assert abs(total - p * len(a)) <= 1e-9 * p * len(a)
            # convolution identity: sum (A*B)^2 = (1/p) sum |A^|^2 |B^|^2
            conv = convolve_add(
                IntegerProfile.from_set(a), IntegerProfile.from_set(b)
            )
            lhs = sum(v * v for v in conv.values)
            rhs = (
                sum(
                    sa * sb
                    for sa, sb in zip(ta.squared_magnitudes, tb.squared_magnitudes)
                )
                / p
            )
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, lhs)
            # transform of the convolution equals the product, pointwise
            fa = profile_dft(IntegerProfile.from_set(a))
            fb = profile_dft(IntegerProfile.from_set(b))
            fc = profile_dft(conv)
            scale = np.maximum(np.abs(fc), 1.0)
            assert np.all(np.abs(fc - fa * fb) <= 1e-8 * scale)
            instances += 1
    assert instances == 500
    report("criterion-1 fourier-identities (500 sets)", started, 30)


def test_criterion_02_energy_oracles():
    started = time.time()
    rng = random.Random(202)
    for _ in range(300):
        p = rng.choice([7, 11, 31, 61, 101])
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, rng.randint(1, min(p - 1, 12)))
        b = random_residue_set(rng, fld, rng.randint(1, min(p - 1, 12)))
        pset = random_residue_set(rng, fld, rng.randint(1, min(p - 1, 12)))
        # E+
        add_counts = [0] * p
        for x in a:
            for y in b:
                add_counts[(x + y) % p] += 1
        assert additive_energy(a, b).value == sum(c * c for c in add_counts)
        # Ex
        mul_counts = [0] * p
        for x in a:
            for y in b:
                mul_counts[x * y % p] += 1
        assert (
            multiplicative_energy(a, b).value == sum(c * c for c in mul_counts)
        )
        # T_k and sigma_k for k <= 3
        reps1 = [0] * p
        for x in a:
            reps1[x] += 1
        reps = reps1
        for k in (1, 2, 3):
            if k > 1:
                nxt = [0] * p
                for s, c in enumerate(reps):
                    if c:
                        for x in a:
                            nxt[(s + x) % p] += c
                reps = nxt
            assert moment_T_k(a, k) == sum(c * c for c in reps)
            assert sigma_k(a, k) == reps[0]
        # sigma_P and E_P
        corr = [0] * p
        for x in a:
            for y in b:
                corr[(y - x) % p] += 1
        auto = [0] * p
        for x in a:
            for y in a:
                auto[(y - x) % p] += 1
        assert restricted_sigma(a, pset) == sum(auto[x] for x in pset)
        assert restricted_energy(a, b, pset) == sum(corr[x] ** 2 for x in pset)
        # E+_* exact rational, non-negative
        es = energy_star(a)
        assert es == Fraction(p * additive_energy(a, a).value - len(a) ** 4, p)
        assert es >= 0
    report("criterion-2 energy-oracles (300 instances)", started, 60)


def test_criterion_03_spectrum_bounds():
    started = time.time()
    rng = random.Random(303)
    for _ in range(200):
        p = rng.choice([11, 31, 101, 211])
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, rng.randint(1, p - 1))
        eps = rng.uniform(0.05, 1.0)
        params = SpectrumParams(a, eps)
        assert spectrum_size_bound_check(params).ok
        spec = spectrum(params)
        b = ResidueSet.of(
            fld, rng.sample(spec.elements, rng.randint(1, len(spec)))
        )
        for k in (2, 3):
            assert les_inequality_check(params, b, k=k).ok
    # point-mass equality at p = 5
    params = SpectrumParams(ResidueSet.of(5, [0]), 1.0)
    chk = les_inequality_check(params, spectrum(params), k=2)
    assert chk.lhs == 125.0 and chk.rhs == pytest.approx(125.0) and chk.ok
    report("criterion-3 spectrum-bounds (200 fuzz + point mass)", started, 60)


def test_criterion_04_family_invariants():
    started = time.time()
    rng = random.Random(404)
    for _ in range(300):
        p = rng.choice([11, 13, 17, 19, 23, 29])
        fam = random_family(rng, PrimeField(p), rng.randint(1, 40))
        t = t_invariant(fam).value
        assert t >= math.ceil(math.sqrt(len(fam)))
        if len(fam) <= 24:
            ts = t_star_invariant(fam, "exact").value
            # integer form of the bound T* >= 2 sqrt(|E|) - 1
            assert ts >= math.ceil(2 * math.sqrt(len(fam)) - 1e-9) - 1
            assert t <= ts
            assert ts >= ratio_set_size(fam)
        if len(fam) <= 10:
            assert t == brute_force_t(fam)
            assert t_star_invariant(fam, "exact").value == brute_force_t_star(
                fam
            )
    fam = build_family(PrimeField(7), "subgroup", order=3)
    assert t_invariant(fam).value == 3
    report("criterion-4 family-invariants (300 fuzz)", started, 300)


def test_criterion_05_parity_construction():
    started = time.time()
    for p in (101, 1009, 10007, 99991):
        fld = PrimeField(p)
        for q in (4, 8, 16, 32):
            if q * q >= p:
                continue
            built = construct_parity_set(fld, q)
            assert avoids(built.a, built.family)
            assert len(built.a) == math.ceil((math.ceil(p / q) - 1) / 2)
            ratio = len(built.a) * math.sqrt(len(built.family)) / p
            # |A| >= (p/q - 1)/2 and sqrt|E| = q/4 give the exact guarantee
            assert ratio >= 1 / 8 - q / (8 * p)
    report("criterion-5 parity-construction", started, 30)


def test_criterion_06_exhaustive_avoiding():
    started = time.time()
    rng = random.Random(606)
    for p in (5, 7, 11, 13):
        fld = PrimeField(p)
        for _ in range(3):
            fam = random_family(rng, fld, rng.randint(1, 3))
            assert (
                max_avoiding(fld, fam, "exhaustive").size
                == naive_max_avoiding(fld, fam)
            )
    fld = PrimeField(5)
    fam = EquationFamily(fld, (AffineEquation(1, 1, 4, 0),))  # x + y - z = 0
    assert max_avoiding(fld, fam, "exhaustive").size == 2
    report("criterion-6 exhaustive-avoiding-search", started, 120)


def test_criterion_07_collinear_triples():
    started = time.time()
    rng = random.Random(707)
    for _ in range(100):
        p = rng.choice([5, 7, 11, 13, 31])
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, rng.randint(1, min(p - 1, 6)))
        assert (
            collinear_triples(a, "brute").total
            == collinear_triples(a, "fast").total
        )
    for _ in range(200):
        p = rng.choice([11, 101, 499])
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, rng.randint(2, min(p - 1, 12)))
        q = q_lambda(a)
        n = len(a)
        assert q[0] == n * (n - 1) and q[1] == n * (n - 1)
        assert sum(q.values()) == n * n * (n - 1)
    assert collinear_triples(ResidueSet.of(5, [0, 1]), "fast").total == 40
    report("criterion-7 collinear-triples", started, 120)


def test_criterion_08_non_averaging():
    started = time.time()
    rng = random.Random(808)
    for _ in range(300):
        p = rng.choice([7, 11, 31, 61, 101])
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, rng.randint(1, p - 1))
        assert is_nonaveraging(a, 1) == (not has_three_term_progression(a))
    for p in (5, 7, 11, 13):
        fld = PrimeField(p)
        for t in (1, 2):
            if 2 * t >= p:
                continue
            assert (
                max_nonaveraging(fld, t, "exhaustive").size
                == naive_max_nonaveraging(fld, t)
            )
    report("criterion-8 non-averaging", started, 120)


def test_criterion_09_mixed_energies():
    started = time.time()
    rng = random.Random(909)
    for _ in range(100):
        p = rng.choice([7, 31, 101])
        fld = PrimeField(p)
        a = random_residue_set(rng, fld, rng.randint(1, min(p - 1, 15)))
        rep = mixed_energy_sum(a, ResidueSet.of(fld, [1]))
        assert rep.total == additive_energy(a, a).value
    fld = PrimeField(7)
    gamma = multiplicative_subgroup(fld, 3)
    assert mixed_energy_sum(gamma, ResidueSet.of(fld, [2])).total == 15
    p = 11
    full = ResidueSet.of(p, range(p))
    nonzero = ResidueSet.of(p, range(1, p))
    assert mixed_energy_sum(full, nonzero).deviation == 0
    report("criterion-9 mixed-energies", started, 30)


def test_criterion_10_trend_reports():
    started = time.time()
    sweeps = [
        ExperimentConfig(
            kind="spectrum_energy",
            primes=[101, 103, 107],
            seed=10,
            params={"epsilons": [0.3, 0.5], "density": 0.2},
        ),
        ExperimentConfig(
            kind="collinear",
            primes=[101, 103, 107],
            seed=10,
            params={"density": 0.3},
        ),
        ExperimentConfig(
            kind="catalog",
            primes=[103, 109, 127],
            seed=10,
            params={
                "family_kind": "subgroup",
                "order": 3,
                "mode": "randomized",
                "budget": 5,
            },
        ),
    ]
    for config in sweeps:
        rep = run_experiment(config)
        assert len(rep.measurements) >= 3
        assert all("error" not in row for row in rep.measurements)
        payload = json.loads(rep.to_json())  # complete, serializable JSON
        assert payload["schema_version"] == 1
        assert rep.all_passed
    report("criterion-10 trend-reports (3 sweeps)", started, 600)
