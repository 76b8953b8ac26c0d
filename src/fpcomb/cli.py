"""Command-line entry point.

Subcommands: verify, energy, spectrum, family, avoid {check|search|construct},
collinear, nonavg, mixed.  Every subcommand accepts --p, --seed,
--config <file>, --out <path> and --format {json,csv}.

Exit codes: 0 success, 1 invariant failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from . import apps, avoidance, energy, families, spectral
from .errors import ConfigError, FpcombError
from .field import PrimeField, ResidueSet
from .harmonic import dft, sup_norm_nonzero
from .reports import ExperimentConfig, run_experiment, run_verify, write_report

EXIT_OK = 0
EXIT_INVARIANT_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _parse_residues(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=None, help="prime modulus")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--config", default=None, help="JSON config file")
    sub.add_argument("--out", default=None, help="report output path")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fpcomb parser, built once per process; parse_args keeps no state
    between calls, since no option appends or has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="fpcomb", description="prime-field additive combinatorics workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("verify", help="run the invariant suite")
    _common_options(s)
    s.add_argument("--trials", type=int, default=20)

    s = sub.add_parser("energy", help="energies of one or two sets")
    _common_options(s)
    s.add_argument("--set", dest="set_a", required=True)
    s.add_argument("--set-b", dest="set_b", default=None)
    s.add_argument("--k", type=int, default=2)

    s = sub.add_parser("spectrum", help="spectrum of a set")
    _common_options(s)
    s.add_argument("--set", dest="set_a", required=True)
    s.add_argument("--epsilon", type=float, default=0.5)

    s = sub.add_parser("family", help="family invariants T and T*")
    _common_options(s)
    s.add_argument("--family-file", default=None)
    s.add_argument("--kind", default=None, choices=("subgroup", "lambda", "gamma_shift"))
    s.add_argument("--order", type=int, default=None)
    s.add_argument("--lambdas", default=None)

    s = sub.add_parser("avoid", help="avoiding-set operations")
    avoid_sub = s.add_subparsers(dest="avoid_command", required=True)
    for name in ("check", "search", "construct"):
        ss = avoid_sub.add_parser(name)
        _common_options(ss)
        if name == "check":
            ss.add_argument("--family-file", required=True)
            ss.add_argument("--set", dest="set_a", required=True)
        elif name == "search":
            ss.add_argument("--family-file", required=True)
            ss.add_argument(
                "--mode",
                choices=("exhaustive", "greedy", "randomized"),
                default="greedy",
            )
            ss.add_argument("--budget", type=int, default=50)
        else:
            ss.add_argument("--q", type=int, required=True)

    s = sub.add_parser("collinear", help="collinear triple statistics")
    _common_options(s)
    s.add_argument("--set", dest="set_a", required=True)
    s.add_argument(
        "--mode",
        choices=("brute", "fast"),
        default="fast",
        help="fast: T from the direction profile q(lambda) on the exact kernel;"
        " brute: enumerate all point triples (|A| <= 8)",
    )

    s = sub.add_parser("nonavg", help="non-averaging sets")
    _common_options(s)
    s.add_argument("--t", type=int, default=1)
    s.add_argument("--set", dest="set_a", default=None)
    s.add_argument(
        "--mode", choices=("exhaustive", "greedy", "randomized"), default="greedy"
    )
    s.add_argument("--budget", type=int, default=50)

    s = sub.add_parser("mixed", help="mixed energy sum over dilates")
    _common_options(s)
    s.add_argument("--set", dest="set_a", required=True)
    s.add_argument("--x", dest="set_x", required=True)

    s = sub.add_parser("experiment", help="run a configured sweep")
    _common_options(s)
    s.add_argument("--kind", default=None)
    s.add_argument("--primes", default=None, help="comma-separated prime list")

    return parser


def _load_config(args: argparse.Namespace, default_kind: str) -> ExperimentConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        return ExperimentConfig(
            kind=raw.get("kind", default_kind),
            primes=[int(p) for p in raw["primes"]],
            seed=int(raw.get("seed", args.seed)),
            params=raw.get("params", {}),
        )
    primes = [args.p] if args.p else [101]
    if getattr(args, "primes", None):
        primes = [int(p) for p in args.primes.split(",")]
    kind = getattr(args, "kind", None) or default_kind
    return ExperimentConfig(kind=kind, primes=primes, seed=args.seed, params={})


def _field(args: argparse.Namespace) -> PrimeField:
    if args.p is None:
        raise ConfigError("--p is required for this subcommand")
    try:
        return PrimeField(args.p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(payload: dict[str, Any], args: argparse.Namespace) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)


def _cmd_energy(args: argparse.Namespace) -> int:
    fld = _field(args)
    a = ResidueSet(fld, tuple(_parse_residues(args.set_a)))
    b = (
        ResidueSet(fld, tuple(_parse_residues(args.set_b)))
        if args.set_b
        else a
    )
    payload = {
        "p": fld.p,
        "A": list(a.elements),
        "B": list(b.elements),
        "additive_energy": energy.additive_energy(a, b).value,
        "multiplicative_energy": energy.multiplicative_energy(a, b).value,
        f"T_{args.k}": energy.moment_T_k(a, args.k),
        f"sigma_{args.k}": energy.sigma_k(a, args.k),
        "energy_star": str(energy.energy_star(a)),
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    fld = _field(args)
    a = ResidueSet(fld, tuple(_parse_residues(args.set_a)))
    params = spectral.SpectrumParams(a, args.epsilon)
    table = dft(a)
    spec = spectral.spectrum(params, table)
    size_check = spectral.spectrum_size_bound_check(params, table)
    payload = {
        "p": fld.p,
        "A": list(a.elements),
        "epsilon": args.epsilon,
        "spectrum": list(spec.elements),
        "size": len(spec),
        "size_bound": size_check.rhs,
        "size_bound_ok": size_check.ok,
        "sup_norm_nonzero": sup_norm_nonzero(table),
    }
    _emit(payload, args)
    return EXIT_OK if size_check.ok else EXIT_INVARIANT_FAILURE


def _family_from_args(args: argparse.Namespace) -> families.EquationFamily:
    if getattr(args, "family_file", None):
        return families.load_family(args.family_file)
    fld = _field(args)
    if args.kind == "subgroup" or args.kind == "gamma_shift":
        if args.order is None:
            raise ConfigError(f"--order is required for kind {args.kind}")
        return families.build_family(fld, args.kind, order=args.order)
    if args.kind == "lambda":
        if not args.lambdas:
            raise ConfigError("--lambdas is required for kind lambda")
        return families.build_family(
            fld, "lambda", lambdas=_parse_residues(args.lambdas)
        )
    raise ConfigError("provide --family-file or --kind")


def _cmd_family(args: argparse.Namespace) -> int:
    fam = _family_from_args(args)
    t_res = families.t_invariant(fam)
    payload: dict[str, Any] = {
        "p": fam.p,
        "size": len(fam),
        "T": t_res.value,
        "T_witness": {
            "plane": t_res.witness.plane,
            "indices": list(t_res.witness.indices),
        },
        "ratio_set_size": families.ratio_set_size(fam),
    }
    if len(fam) <= 24:
        payload["Tstar"] = families.t_star_invariant(fam, "exact").value
    payload["Tstar_greedy"] = families.t_star_invariant(fam, "greedy").value
    _emit(payload, args)
    return EXIT_OK


def _cmd_avoid(args: argparse.Namespace) -> int:
    if args.avoid_command == "construct":
        fld = _field(args)
        built = avoidance.construct_parity_set(fld, args.q)
        ok = avoidance.avoids(built.a, built.family)
        _emit(
            {
                "p": fld.p,
                "q": args.q,
                "set": list(built.a.elements),
                "set_size": len(built.a),
                "family_size": len(built.family),
                "avoids": ok,
            },
            args,
        )
        return EXIT_OK if ok else EXIT_INVARIANT_FAILURE
    fam = families.load_family(args.family_file)
    if args.avoid_command == "check":
        a = ResidueSet(fam.field, tuple(_parse_residues(args.set_a)))
        ok = avoidance.avoids(a, fam)
        _emit({"p": fam.p, "set": list(a.elements), "avoids": ok}, args)
        return EXIT_OK
    result = avoidance.max_avoiding(
        fam.field, fam, mode=args.mode, budget=args.budget, seed=args.seed
    )
    _emit(
        {
            "p": fam.p,
            "mode": args.mode,
            "size": result.size,
            "witness": list(result.witness.elements),
        },
        args,
    )
    return EXIT_OK


def _cmd_collinear(args: argparse.Namespace) -> int:
    fld = _field(args)
    a = ResidueSet(fld, tuple(_parse_residues(args.set_a)))
    stats = apps.collinear_triples(a, mode=args.mode)
    payload = {
        "p": fld.p,
        "set": list(a.elements),
        "T": stats.total,
        "expected": str(stats.expected),
        "ratio_set_size": len(stats.ratio_set),
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_nonavg(args: argparse.Namespace) -> int:
    fld = _field(args)
    if args.set_a:
        a = ResidueSet(fld, tuple(_parse_residues(args.set_a)))
        ok = apps.is_nonaveraging(a, args.t)
        _emit({"p": fld.p, "t": args.t, "set": list(a.elements), "nonaveraging": ok}, args)
        return EXIT_OK
    result = apps.max_nonaveraging(
        fld, args.t, mode=args.mode, budget=args.budget, seed=args.seed
    )
    _emit(
        {
            "p": fld.p,
            "t": args.t,
            "mode": args.mode,
            "size": result.size,
            "witness": list(result.witness.elements),
        },
        args,
    )
    return EXIT_OK


def _cmd_mixed(args: argparse.Namespace) -> int:
    fld = _field(args)
    a = ResidueSet(fld, tuple(_parse_residues(args.set_a)))
    x = ResidueSet(fld, tuple(_parse_residues(args.set_x)))
    rep = apps.mixed_energy_sum(a, x)
    _emit(
        {
            "p": fld.p,
            "sum": rep.total,
            "expected": str(rep.expected),
            "deviation": str(rep.deviation),
        },
        args,
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            config = _load_config(args, "verify")
            if getattr(args, "trials", None):
                config.params.setdefault("trials", args.trials)
            report = run_verify(config)
            write_report(report, args.out, args.format)
            failed = [c for c in report.checks if not c["ok"]]
            for c in report.checks:
                status = "ok" if c["ok"] else "FAIL"
                print(f"{status} {c['name']}")
            return EXIT_OK if not failed else EXIT_INVARIANT_FAILURE
        if args.command == "experiment":
            config = _load_config(args, "catalog")
            report = run_experiment(config)
            payload = write_report(report, args.out, args.format)
            if not args.out:
                print(payload)
            return EXIT_OK if report.all_passed else EXIT_INVARIANT_FAILURE
        handler = {
            "energy": _cmd_energy,
            "spectrum": _cmd_spectrum,
            "family": _cmd_family,
            "avoid": _cmd_avoid,
            "collinear": _cmd_collinear,
            "nonavg": _cmd_nonavg,
            "mixed": _cmd_mixed,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FpcombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT_FAILURE
    except (ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
