"""Reproducible experiment runner: seeded sweeps and the verification
suite, emitting versioned JSON reports (optionally CSV tables).

Identical configs produce byte-identical payloads apart from the
timestamp field; the RNG is PCG64 with the seed recorded in the report.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from . import apps, avoidance, energy, families, spectral
from .errors import ConfigError, FpcombError
from .field import PrimeField, ResidueSet, is_prime
from .harmonic import dft

SCHEMA_VERSION = 1

_EXPERIMENT_KINDS = (
    "verify",
    "parity",
    "avoid_search",
    "catalog",
    "collinear",
    "nonavg",
    "mixed",
    "spectrum_energy",
)


@dataclass
class ExperimentConfig:
    kind: str
    primes: list[int]
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in _EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not self.primes:
            raise ConfigError("prime list must be nonempty")
        for p in self.primes:
            if not is_prime(p) or p < 3:
                raise ConfigError(f"{p} is not an odd prime")


@dataclass
class ExperimentReport:
    config: dict[str, Any]
    measurements: list[dict[str, Any]]
    checks: list[dict[str, Any]]
    timestamp: float

    @property
    def all_passed(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "rng": "pcg64",
            "config": self.config,
            "measurements": self.measurements,
            "checks": self.checks,
            "summary": {
                "checks_run": len(self.checks),
                "checks_passed": sum(1 for c in self.checks if c["ok"]),
            },
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, default=_jsonable)

    def to_csv(self) -> str:
        buf = io.StringIO()
        rows = self.measurements or self.checks
        if not rows:
            return ""
        keys = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _jsonable(row.get(k)) for k in keys})
        return buf.getvalue()


def _jsonable(v: Any) -> Any:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, ResidueSet):
        return list(v.elements)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _random_subset(rng: np.random.Generator, fld: PrimeField, size: int) -> ResidueSet:
    size = max(0, min(size, fld.p))
    elems = rng.choice(fld.p, size=size, replace=False)
    return ResidueSet(fld, tuple(int(x) for x in elems))


def _check(name: str, lhs: float, rhs: float, ok: bool, **extra: Any) -> dict[str, Any]:
    return {"name": name, "lhs": _jsonable(lhs), "rhs": _jsonable(rhs), "ok": bool(ok), **extra}


# ----------------------------------------------------------------- verify


def run_verify(config: ExperimentConfig) -> ExperimentReport:
    """Drive the core invariant suite at the configured primes."""
    config.validate()
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    trials = int(config.params.get("trials", 20))
    checks: list[dict[str, Any]] = []

    for p in config.primes:
        fld = PrimeField(p)
        for _ in range(trials):
            size = int(rng.integers(1, min(p, 24) + 1))
            a = _random_subset(rng, fld, size)
            table = dft(a)
            # Parseval
            total = sum(table.squared_magnitudes)
            rel = abs(total - p * len(a)) / (p * len(a))
            checks.append(_check(f"parseval-p{p}", total, p * len(a), rel < 1e-9))
            # spectrum size bound and inequality for a random epsilon
            eps = float(rng.uniform(0.05, 1.0))
            params = spectral.SpectrumParams(a, eps)
            sb = spectral.spectrum_size_bound_check(params, table)
            checks.append(_check(f"spec-size-p{p}", sb.lhs, sb.rhs, sb.ok))
            spec = spectral.spectrum(params, table)
            pick = min(len(spec), 4)
            sub = ResidueSet(
                fld,
                tuple(
                    int(x)
                    for x in rng.choice(spec.elements, size=pick, replace=False)
                ),
            )
            lc = spectral.les_inequality_check(params, sub, k=2, table=table)
            checks.append(_check(f"spec-les-p{p}", lc.lhs, lc.rhs, lc.ok))
        # small brute-force energy oracle
        for _ in range(max(3, trials // 4)):
            a = _random_subset(rng, fld, int(rng.integers(1, min(p, 9) + 1)))
            b = _random_subset(rng, fld, int(rng.integers(1, min(p, 9) + 1)))
            brute = sum(
                1
                for a1 in a
                for a2 in a
                for b1 in b
                for b2 in b
                if (a1 + b1) % p == (a2 + b2) % p
            )
            got = energy.additive_energy(a, b).value
            checks.append(_check(f"energy-oracle-p{p}", got, brute, got == brute))
        # invariant lower bounds on random families
        for _ in range(max(3, trials // 4)):
            fam = _random_family(rng, fld, int(rng.integers(1, 13)))
            tval = families.t_invariant(fam).value
            need = math.ceil(math.sqrt(len(fam)))
            checks.append(_check(f"family-T-p{p}", tval, need, tval >= need))

    return ExperimentReport(
        config=asdict(config), measurements=[], checks=checks, timestamp=time.time()
    )


def _random_family(
    rng: np.random.Generator, fld: PrimeField, size: int
) -> families.EquationFamily:
    """Random family with pairwise non-proportional coefficient triples."""
    p = fld.p
    pts: set[tuple[int, int]] = set()
    eqs: list[families.AffineEquation] = []
    guard = 0
    while len(eqs) < size and guard < 10 * size + 100:
        guard += 1
        a = int(rng.integers(1, p))
        b = int(rng.integers(1, p))
        c = int(rng.integers(1, p))
        d = int(rng.integers(0, p))
        cinv = fld.inverse(c)
        key = (a * cinv % p, b * cinv % p)
        if key in pts:
            continue
        pts.add(key)
        eqs.append(families.AffineEquation(a, b, c, d))
    return families.EquationFamily(fld, tuple(eqs))


def _catalog_entry(name: str) -> avoidance.BoundCatalogEntry:
    for entry in avoidance.BOUND_CATALOG:
        if entry.name == name:
            return entry
    raise KeyError(name)


# ------------------------------------------------------------- experiments


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    config.validate()
    if config.kind == "verify":
        return run_verify(config)
    runner = {
        "parity": _run_parity,
        "avoid_search": _run_avoid_search,
        "catalog": _run_catalog,
        "collinear": _run_collinear,
        "nonavg": _run_nonavg,
        "mixed": _run_mixed,
        "spectrum_energy": _run_spectrum_energy,
    }[config.kind]
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    measurements, checks = runner(config, rng)
    return ExperimentReport(
        config=asdict(config),
        measurements=measurements,
        checks=checks,
        timestamp=time.time(),
    )


def _run_parity(config: ExperimentConfig, rng: np.random.Generator):
    q_list = [int(q) for q in config.params.get("q_list", [4, 8, 16])]
    rows = []
    checks = []
    for p in config.primes:
        fld = PrimeField(p)
        for q in q_list:
            if q * q >= p:
                continue
            built = avoidance.construct_parity_set(fld, q)
            ok = avoidance.avoids(built.a, built.family)
            size = len(built.a)
            fam_size = len(built.family)
            ratio = size * math.sqrt(fam_size) / p
            rows.append(
                {
                    "p": p,
                    "q": q,
                    "set_size": size,
                    "family_size": fam_size,
                    "avoids": ok,
                    "size_times_sqrtE_over_p": ratio,
                    "lower_threshold": avoidance.bound_threshold(
                        _catalog_entry("lower-construction"), p, fam_size
                    ),
                }
            )
            checks.append(_check(f"parity-avoids-p{p}-q{q}", int(ok), 1, ok))
            # |A| >= (p/q - 1)/2 and sqrt|E| = q/4, so the exact guarantee
            # is ratio >= 1/8 - q/(8p); plain 1/8 fails to rounding alone.
            floor_ratio = 1 / 8 - q / (8 * p)
            checks.append(
                _check(
                    f"parity-ratio-p{p}-q{q}",
                    ratio,
                    floor_ratio,
                    ratio >= floor_ratio,
                )
            )
    return rows, checks


def _family_from_params(config: ExperimentConfig, fld: PrimeField):
    params = config.params
    if "family_file" in params:
        fam = families.load_family(params["family_file"])
        if fam.p != fld.p:
            raise ConfigError(
                f"family file is over p={fam.p}, requested p={fld.p}"
            )
        return fam
    kind = params.get("family_kind", "subgroup")
    if kind == "subgroup":
        order = int(params.get("order", 2))
        if (fld.p - 1) % order != 0:
            raise ConfigError(f"order {order} does not divide p-1 for p={fld.p}")
        return families.build_family(fld, "subgroup", order=order)
    if kind == "lambda":
        lambdas = params.get("lambdas", [1, 2, 3])
        return families.build_family(fld, "lambda", lambdas=lambdas)
    raise ConfigError(f"unsupported family_kind {kind!r}")


def _run_avoid_search(config: ExperimentConfig, rng: np.random.Generator):
    mode = config.params.get("mode", "greedy")
    rows = []
    checks = []
    for p in config.primes:
        fld = PrimeField(p)
        fam = _family_from_params(config, fld)
        result = avoidance.max_avoiding(
            fld, fam, mode=mode, seed=config.seed, budget=int(config.params.get("budget", 50))
        )
        ok = result.size == 0 or avoidance.avoids(result.witness, fam)
        rows.append(
            {
                "p": p,
                "family_size": len(fam),
                "mode": mode,
                "avoiding_size": result.size,
                "witness": list(result.witness.elements),
            }
        )
        checks.append(_check(f"avoid-witness-valid-p{p}", int(ok), 1, ok))
    return rows, checks


def _run_catalog(config: ExperimentConfig, rng: np.random.Generator):
    """Avoiding-size measurements next to the exponent thresholds."""
    mode = config.params.get("mode", "randomized")
    rows = []
    checks = []
    for p in config.primes:
        fld = PrimeField(p)
        fam = _family_from_params(config, fld)
        t_val = families.t_invariant(fam).value
        if len(fam) <= families._EXACT_TSTAR_BUDGET:
            tstar = families.t_star_invariant(fam, "exact").value
        else:
            tstar = families.t_star_invariant(fam, "greedy").value
        result = avoidance.max_avoiding(
            fld, fam, mode=mode, seed=config.seed, budget=int(config.params.get("budget", 30))
        )
        row = {
            "p": p,
            "family_size": len(fam),
            "T": t_val,
            "Tstar": tstar,
            "avoiding_size": result.size,
        }
        for entry in avoidance.BOUND_CATALOG:
            t_for_entry = {
                "avoiding-T": t_val,
                "avoiding-simple": t_val,
                "avoiding-headline": len(fam),
                "avoiding-family-size": len(fam),
                "lower-construction": len(fam),
            }.get(entry.name, tstar)
            row[f"threshold_{entry.name}"] = avoidance.bound_threshold(
                entry, p, max(1, t_for_entry)
            )
        rows.append(row)
        need = math.ceil(math.sqrt(len(fam)))
        checks.append(
            _check(f"catalog-T-lower-p{p}", t_val, need, t_val >= need)
        )
        checks.append(
            _check(f"catalog-T-le-Tstar-p{p}", t_val, tstar, t_val <= tstar)
        )
    return rows, checks


def _run_collinear(config: ExperimentConfig, rng: np.random.Generator):
    density = float(config.params.get("density", 0.5))
    rows = []
    checks = []
    for p in config.primes:
        fld = PrimeField(p)
        a = _random_subset(rng, fld, max(2, int(round(density * p))))
        profile = apps.q_lambda(a)
        rep = apps._deviation_report(a, profile)
        n = len(a)
        total_q = sum(profile.values())
        rows.append(
            {
                "p": p,
                "set_size": n,
                "T": rep.total,
                "expected": rep.expected,
                "deviation": rep.deviation,
                "reference": rep.reference,
                "ratio": rep.ratio,
            }
        )
        checks.append(
            _check(
                f"collinear-q-mass-p{p}",
                total_q,
                n * n * (n - 1),
                total_q == n * n * (n - 1),
            )
        )
    return rows, checks


def _run_nonavg(config: ExperimentConfig, rng: np.random.Generator):
    t = int(config.params.get("t", 2))
    mode = config.params.get("mode", "randomized")
    rows = []
    checks = []
    for p in config.primes:
        fld = PrimeField(p)
        if 2 * t >= p:
            continue
        result = apps.max_nonaveraging(
            fld, t, mode=mode, seed=config.seed, budget=int(config.params.get("budget", 30))
        )
        ok = result.size == 0 or apps.is_nonaveraging(result.witness, t)
        rows.append(
            {
                "p": p,
                "t": t,
                "mode": mode,
                "nonaveraging_size": result.size,
                "threshold_two_thirds": p / t ** (2 / 3),
                "witness": list(result.witness.elements),
            }
        )
        checks.append(_check(f"nonavg-witness-valid-p{p}", int(ok), 1, ok))
    return rows, checks


def _run_mixed(config: ExperimentConfig, rng: np.random.Generator):
    rows = []
    checks = []
    for p in config.primes:
        fld = PrimeField(p)
        a = _random_subset(rng, fld, max(2, int(rng.integers(2, min(p, 30)))))
        x_size = max(1, int(rng.integers(1, min(p - 1, 10))))
        nonzero = rng.choice(np.arange(1, p), size=x_size, replace=False)
        x = ResidueSet(fld, tuple(int(v) for v in nonzero))
        rep = apps.mixed_energy_sum(a, x)
        rows.append(
            {
                "p": p,
                "set_size": len(a),
                "x_size": len(x),
                "sum": rep.total,
                "expected": rep.expected,
                "deviation": rep.deviation,
            }
        )
        # Cauchy-Schwarz gives E+(A, sA) >= |A|^4/p for every dilate
        checks.append(
            _check(
                f"mixed-lower-p{p}",
                rep.total,
                rep.expected,
                rep.total >= rep.expected,
            )
        )
    return rows, checks


def _run_spectrum_energy(config: ExperimentConfig, rng: np.random.Generator):
    eps_list = [float(e) for e in config.params.get("epsilons", [0.3, 0.5, 0.8])]
    rows = []
    checks = []
    for p in config.primes:
        fld = PrimeField(p)
        size = max(2, int(round(float(config.params.get("density", 0.2)) * p)))
        a = _random_subset(rng, fld, size)
        table = dft(a)
        for eps in eps_list:
            params = spectral.SpectrumParams(a, eps)
            spec = spectral.spectrum(params, table)
            size_chk = spectral.spectrum_size_bound_check(params, table)
            checks.append(
                _check(
                    f"spectrum-size-p{p}-eps{eps}",
                    size_chk.lhs,
                    size_chk.rhs,
                    size_chk.ok,
                )
            )
            delta = len(a) / p
            cap = delta ** (-1 / 6) * eps ** (-2 / 3) * math.sqrt(p)
            take = min(len(spec), max(1, int(cap) - 1))
            b = ResidueSet(
                fld,
                tuple(
                    int(v)
                    for v in rng.choice(spec.elements, size=take, replace=False)
                ),
            )
            try:
                rep = spectral.spectrum_mult_energy_report(params, b, table=table)
            except FpcombError as exc:
                rows.append({"p": p, "epsilon": eps, "error": str(exc)})
                continue
            rows.append(
                {
                    "p": p,
                    "epsilon": eps,
                    "spectrum_size": len(spec),
                    "B_size": len(b),
                    "E_mult": rep.measured,
                    "reference": rep.reference,
                    "ratio": rep.ratio,
                }
            )
    return rows, checks


def write_report(report: ExperimentReport, path: str | None, fmt: str) -> str:
    payload = report.to_json() if fmt == "json" else report.to_csv()
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return payload
