"""The benchmark's three workloads: seeded inputs, timed operations and
untimed output checks.

A workload is a list of variants.  Each variant is one operation at one
input size, with a weight (its copies per deck) and a few seeded input
instances.  The timed loop replays decks: every deck holds each variant
`weight` times, shuffled by the workload RNG, with instances taken round
robin.  The mix is therefore exact at every deck boundary, whatever the
seed.

The weights also place the 50th and 90th latency percentiles well inside
one variant's block of the sorted latencies (noted per workload below), so
that op_p50_ms and op_p90_ms do not jump between variants from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fpcomb import apps, avoidance, cli, energy, families, spectral
from fpcomb.field import PrimeField, ResidueSet

INSTANCES = 4  # seeded inputs per variant


@dataclass
class Instance:
    """One seeded input; `expected` memoizes its oracle value (untimed)."""

    args: Any
    expected: Any = None


@dataclass
class Variant:
    name: str
    weight: int
    instances: list[Instance]
    run: Callable[[Any], Any]  # timed: args -> output
    check: Callable[[Instance, Any], bool]  # untimed: (instance, output) -> ok


class Workload:
    """Variants plus the RNG that orders them; owns its scratch directory."""

    def __init__(self, variants: list[Variant], rng: random.Random, workdir: Path):
        self.variants = variants
        self.rng = rng
        self.workdir = workdir
        self._decks = 0

    def deck(self) -> list[tuple[Variant, Instance]]:
        entries = []
        for v in self.variants:
            for k in range(v.weight):
                i = (self._decks * v.weight + k) % len(v.instances)
                entries.append((v, v.instances[i]))
        self._decks += 1
        self.rng.shuffle(entries)
        return entries

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _memo(inst: Instance, oracle: Callable[[Any], Any]) -> Any:
    if inst.expected is None:
        inst.expected = oracle(inst.args)
    return inst.expected


# ------------------------------------------------------------ exact oracles


def fft_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Exact cyclic convolution of two non-negative integer arrays of one
    length, by a float FFT rounded to integers.

    Raises if the total sum(f) * sum(g) is too large for float64 to hold
    every value exactly, if any value is 1/4 or more from an integer before
    rounding, or if the rounded total is wrong; a result is either exact or
    refused.
    """
    total = int(f.sum()) * int(g.sum())
    if total >= 1 << 50:
        raise ArithmeticError("FFT oracle total >= 2^50")
    n = f.shape[0]
    raw = np.fft.irfft(np.fft.rfft(f) * np.fft.rfft(g), n)
    out = np.rint(raw)
    if np.max(np.abs(raw - out), initial=0.0) >= 0.25:
        raise ArithmeticError("FFT oracle rounding residual >= 1/4")
    ints = out.astype(np.int64)
    if int(ints.sum()) != total:
        raise ArithmeticError("FFT oracle total != sum(f) * sum(g)")
    return ints


def indicator(a: ResidueSet) -> np.ndarray:
    out = np.zeros(a.p, dtype=np.int64)
    out[list(a.elements)] = 1
    return out


def sum_of_squares(v: np.ndarray) -> int:
    return sum(x * x for x in v.tolist())


def energy_oracle(a: ResidueSet, b: ResidueSet) -> int:
    """E+(A, B) = sum_x (A * B)(x)^2."""
    return sum_of_squares(fft_convolve(indicator(a), indicator(b)))


def moment_oracle(a: ResidueSet, k: int) -> int:
    """T_k(A) = sum_x (A *_k A)(x)^2."""
    ind = indicator(a)
    reps = ind
    for _ in range(k - 1):
        reps = fft_convolve(reps, ind)
    return sum_of_squares(reps)


def _dilate(a: ResidueSet, s: int) -> ResidueSet:
    return ResidueSet(a.field, tuple(s * e % a.p for e in a.elements))


def _random_set(rng: random.Random, fld: PrimeField, size: int) -> ResidueSet:
    return ResidueSet(fld, tuple(rng.sample(range(fld.p), size)))


def _warm_fft(p: int) -> None:
    """numpy caches an FFT plan per length; build it during set-up."""
    np.fft.fft(np.zeros(p))


# ---------------------------------------------------------- exact-large-p
#
# Latency blocks (sorted, share of ops): count_solutions p=10007 and
# moment_T_k and spectrum [0, 0.4); mixed_energy_sum [0.4, 0.6), holding
# p50; the two p=99991 counts [0.6, 0.75); then additive_energy (0.2) and
# avoids (0.05) in either order, so additive_energy holds p90 either way.


def _exact_large_p(rng: random.Random, workdir: Path) -> list[Variant]:
    f_large, f_mid = PrimeField(99991), PrimeField(10007)
    for fld in (f_large, f_mid):
        fld.primitive_root()
    _warm_fft(f_large.p)
    variants = []

    for fld, q, weight in ((f_large, 16, 2), (f_large, 32, 1), (f_mid, 8, 2)):
        built = avoidance.construct_parity_set(fld, q)
        eqs = rng.sample(built.family.equations, min(INSTANCES, len(built.family)))

        def check_count(inst: Instance, out: Any) -> bool:
            fld, eq, a = inst.args
            n = len(a)
            # The parity set avoids every equation of its family.
            return (
                out.equation == eq
                and out.count == 0
                and out.expected == Fraction(n**3, fld.p)
            )

        variants.append(
            Variant(
                f"count_solutions-p{fld.p}-q{q}",
                weight,
                [Instance((fld, eq, built.a)) for eq in eqs],
                lambda args: avoidance.count_solutions(
                    args[0], args[1], args[2], args[2], args[2]
                ),
                check_count,
            )
        )

    built = avoidance.construct_parity_set(f_mid, 16)
    variants.append(
        Variant(
            "avoids-p10007-q16",
            1,
            [Instance((built.a, built.family))],
            lambda args: avoidance.avoids(*args),
            lambda inst, out: out is True,
        )
    )

    n_large = round(0.2 * f_large.p)
    variants.append(
        Variant(
            "additive_energy-p99991",
            4,
            [Instance(_random_set(rng, f_large, n_large)) for _ in range(INSTANCES)],
            lambda a: energy.additive_energy(a, a),
            lambda inst, out: out.kind == "additive"
            and out.value == _memo(inst, lambda a: energy_oracle(a, a)),
        )
    )

    n_mid = round(0.2 * f_mid.p)
    variants.append(
        Variant(
            "moment_T_k-p10007-k3",
            3,
            [Instance(_random_set(rng, f_mid, n_mid)) for _ in range(INSTANCES)],
            lambda a: energy.moment_T_k(a, 3),
            lambda inst, out: out == _memo(inst, lambda a: moment_oracle(a, 3)),
        )
    )

    def check_mixed(inst: Instance, out: Any) -> bool:
        a, x = inst.args
        total = _memo(inst, lambda _: sum(energy_oracle(a, _dilate(a, s)) for s in x))
        expected = Fraction(len(x) * len(a) ** 4, a.p)
        return (
            out.total == total
            and out.expected == expected
            and out.deviation == total - expected
        )

    variants.append(
        Variant(
            "mixed_energy_sum-p10007-x6",
            4,
            [
                Instance(
                    (
                        _random_set(rng, f_mid, n_mid),
                        ResidueSet(f_mid, tuple(rng.sample(range(1, f_mid.p), 6))),
                    )
                )
                for _ in range(INSTANCES)
            ],
            lambda args: apps.mixed_energy_sum(*args),
            check_mixed,
        )
    )

    # A half-dense subset of an interval of length p/5 has a few large
    # Fourier coefficients at small frequencies, so the spectrum is not {0}.
    interval = range(f_large.p // 5)
    eps = 0.3

    def spectrum_oracle(params: Any) -> tuple[set[int], set[int]]:
        """Frequencies that must be in Spec_eps(A), and those that may be:
        the two differ only within a relative 1e-6 of the threshold."""
        a = params.source
        half = np.abs(np.fft.rfft(indicator(a)))
        mags = np.concatenate([half, half[1 : (a.p + 1) // 2][::-1]])
        threshold = eps * len(a)
        must = np.nonzero(mags >= threshold * (1 + 1e-6))[0]
        may = np.nonzero(mags >= threshold * (1 - 1e-6))[0]
        return set(must.tolist()), set(may.tolist())

    def check_spectrum(inst: Instance, out: Any) -> bool:
        must, may = _memo(inst, spectrum_oracle)
        a = inst.args.source
        members = set(out.elements)
        return (
            0 in members
            and all((-r) % a.p in members for r in members)
            and must <= members <= may
            and len(members) <= a.p / (len(a) * eps**2)
        )

    variants.append(
        Variant(
            "spectrum-p99991",
            3,
            [
                Instance(
                    spectral.SpectrumParams(
                        ResidueSet(
                            f_large,
                            tuple(x for x in interval if rng.random() < 0.5),
                        ),
                        eps,
                    )
                )
                for _ in range(INSTANCES)
            ],
            lambda params: spectral.spectrum(params),
            check_spectrum,
        )
    )
    return variants


# ----------------------------------------------------------- report-sweep
#
# Latency blocks: mixed, spectrum_energy and verify [0, 0.45); collinear
# p=151 [0.45, 0.65), holding p50; collinear p=211 [0.65, 0.8); collinear
# p=503 [0.8, 1], holding p90.

_SWEEP: tuple[tuple[str, str, int, dict[str, Any], int], ...] = (
    # (subcommand, kind, p, params, weight)
    ("verify", "verify", 101, {"trials": 10}, 2),
    ("verify", "verify", 1009, {"trials": 10}, 2),
    ("experiment", "collinear", 151, {"density": 0.4}, 4),
    ("experiment", "collinear", 211, {"density": 0.4}, 3),
    ("experiment", "collinear", 503, {"density": 0.1}, 4),
    ("experiment", "spectrum_energy", 1009, {}, 2),
    ("experiment", "mixed", 101, {}, 1),
    ("experiment", "mixed", 1009, {}, 2),
)


def run_cli(args: tuple[list[str], Path | None]) -> tuple[int, str]:
    """fpcomb.cli.main in-process with stdout captured; returns (exit code,
    stdout).  A stale --out report is removed first."""
    argv, out_path = args
    if out_path is not None:
        out_path.unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _report_sweep(rng: random.Random, workdir: Path) -> list[Variant]:
    for p in sorted({p for _, _, p, _, _ in _SWEEP}):
        PrimeField(p).primitive_root()
    _warm_fft(1009)
    variants = []
    for command, kind, p, params, weight in _SWEEP:
        name = f"{command}-{kind}-p{p}" if command == "experiment" else f"verify-p{p}"
        instances = []
        for i in range(INSTANCES):
            seed = rng.randrange(1 << 31)
            config = workdir / f"{name}-{i}.json"
            config.write_text(
                json.dumps({"kind": kind, "primes": [p], "seed": seed, "params": params}),
                encoding="utf-8",
            )
            argv = [command, "--config", str(config)]
            out_path = None
            if command == "verify":  # verify prints check lines, not the report
                out_path = workdir / f"{name}-{i}.out.json"
                argv += ["--out", str(out_path)]
            instances.append(Instance((argv, out_path)))

        def check_report(inst: Instance, out: Any, kind: str = kind, p: int = p) -> bool:
            code, stdout = out
            out_path = inst.args[1]
            text = stdout if out_path is None else out_path.read_text(encoding="utf-8")
            report = json.loads(text)
            summary = report["summary"]
            return (
                code == 0
                and report["config"]["kind"] == kind
                and report["config"]["primes"] == [p]
                and summary["checks_run"] > 0
                and summary["checks_passed"] == summary["checks_run"]
            )

        variants.append(Variant(name, weight, instances, run_cli, check_report))
    return variants


# ----------------------------------------------------------------- search
#
# Latency blocks: randomized non-averaging, exhaustive non-averaging p=19
# and T/T* [0, 0.4); exhaustive avoiding p=29 [0.4, 0.6), holding p50;
# exhaustive avoiding p=31, randomized avoiding p=211 and exhaustive
# non-averaging p=23 [0.6, 0.8); randomized avoiding p=401 [0.8, 1],
# holding p90.

# Exhaustive optima, confirmed by an independent brute force; the searches
# are deterministic, so these hold for every seed.
NONAVG_T1_MAX = {19: 6, 23: 6}
LAMBDA_123_MAX = {29: 5, 31: 6}
SUBGROUP4_T_TSTAR = {109: (4, 7), 113: (4, 7)}


def _search(rng: random.Random, workdir: Path) -> list[Variant]:
    variants = []

    def seeds() -> list[int]:
        return [rng.randrange(1 << 31) for _ in range(INSTANCES)]

    for p, weight in ((19, 1), (23, 1)):

        def check_nonavg_exact(inst: Instance, out: Any, p: int = p) -> bool:
            return (
                out.size == NONAVG_T1_MAX[p] == len(out.witness)
                and apps.is_nonaveraging(out.witness, 1)
            )

        variants.append(
            Variant(
                f"max_nonaveraging-exhaustive-p{p}-t1",
                weight,
                [Instance(PrimeField(p))],
                lambda fld: apps.max_nonaveraging(fld, 1, "exhaustive"),
                check_nonavg_exact,
            )
        )

    for p, weight in ((29, 4), (31, 1)):
        fld = PrimeField(p)
        fam = families.build_family(fld, "lambda", lambdas=[1, 2, 3])

        def check_avoid_exact(inst: Instance, out: Any, p: int = p) -> bool:
            return out.size == LAMBDA_123_MAX[p] == len(out.witness) and avoidance.avoids(
                out.witness, inst.args[1]
            )

        variants.append(
            Variant(
                f"max_avoiding-exhaustive-p{p}-lambda123",
                weight,
                [Instance((fld, fam))],
                lambda args: avoidance.max_avoiding(args[0], args[1], "exhaustive"),
                check_avoid_exact,
            )
        )

    for p, weight in ((211, 2), (401, 4)):
        fld = PrimeField(p)
        fam = families.build_family(fld, "subgroup", order=5)
        variants.append(
            Variant(
                f"max_avoiding-randomized-p{p}-subgroup5",
                weight,
                [Instance((fld, fam, s)) for s in seeds()],
                lambda args: avoidance.max_avoiding(
                    args[0], args[1], "randomized", budget=10, seed=args[2]
                ),
                lambda inst, out: 0 < out.size == len(out.witness)
                and avoidance.avoids(out.witness, inst.args[1]),
            )
        )

    for p in (101, 211):
        variants.append(
            Variant(
                f"max_nonaveraging-randomized-p{p}-t2",
                2,
                [Instance((PrimeField(p), s)) for s in seeds()],
                lambda args: apps.max_nonaveraging(
                    args[0], 2, "randomized", budget=10, seed=args[1]
                ),
                lambda inst, out: 0 < out.size == len(out.witness)
                and apps.is_nonaveraging(out.witness, 2),
            )
        )

    for p, weight in ((109, 2), (113, 1)):
        fam = families.build_family(PrimeField(p), "subgroup", order=4)

        def check_invariants(inst: Instance, out: Any, p: int = p) -> bool:
            t_star, t = out
            fam = inst.args
            return (
                (t.value, t_star.value) == SUBGROUP4_T_TSTAR[p]
                and families.verify_witness(fam, t.witness)
                and families.verify_witness(fam, t_star.witness)
            )

        variants.append(
            Variant(
                f"t_star_and_t-p{p}-subgroup4",
                weight,
                [Instance(fam)],
                lambda fam: (
                    families.t_star_invariant(fam, "exact"),
                    families.t_invariant(fam),
                ),
                check_invariants,
            )
        )
    return variants


SETUPS: dict[str, Callable[[random.Random, Path], list[Variant]]] = {
    "exact-large-p": _exact_large_p,
    "report-sweep": _report_sweep,
    "search": _search,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Set up a workload: fields, seeded inputs and warm lazy caches."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    return Workload(SETUPS[name](rng, workdir), rng, workdir)
