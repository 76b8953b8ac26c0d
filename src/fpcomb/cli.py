"""Command-line entry point.  Each command accepts only the options it reads,
as listed in the table COMMANDS:

  verify           --p --seed --trials --config --out --format
  energy           --p --set --set-b --k --out
  spectrum         --p --set --epsilon --out
  family           --p --kind --order --lambdas --family-file --out
  avoid check      --family-file --set --out
  avoid search     --family-file --mode --budget --seed --out
  avoid construct  --p --q --out
  collinear        --p --set --mode --out
  nonavg           --p --t --set --mode --budget --seed --out
  mixed            --p --set --x --out
  experiment       --kind --primes --seed --config --out --format

--family-file and --config may not be given with a flag for a value they
set (p, the family, the kind, primes, seed or trials), nor family --order
(subgroup kinds) with --lambdas (lambda kind), nor nonavg --set with the
search options --mode, --budget and --seed.

Exit codes: 0 success, 1 invariant failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, NoReturn

from . import apps, avoidance, energy, families, spectral
from .errors import ConfigError, FpcombError
from .field import PrimeField, ResidueSet
from .harmonic import dft, sup_norm_nonzero
from .reports import (
    ExperimentConfig, ExperimentReport, run_experiment, run_verify, write_report
)

EXIT_OK = 0
EXIT_INVARIANT_FAILURE = 1
EXIT_CONFIG_ERROR = 2

Payload = dict[str, Any] | ExperimentReport


@dataclass(frozen=True)
class Command:
    """A leaf command: its body, the options it reads (specs from _OPTIONS,
    updated by `overrides`) and the option pairs it rejects together."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], tuple[Payload, bool]]
    options: str
    overrides: dict[str, dict[str, Any]] = field(default_factory=dict)
    conflicts: tuple[tuple[str, str], ...] = ()


def _parse_residues(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _field(args: argparse.Namespace) -> PrimeField:
    if args.p is None:
        raise ConfigError("--p is required for this subcommand")
    return PrimeField(args.p)  # a ValueError here is a config error too


def _set(fld: PrimeField, text: str) -> ResidueSet:
    return ResidueSet(fld, tuple(_parse_residues(text)))


def _config(args: argparse.Namespace, kind: str, primes: list[int]) -> ExperimentConfig:
    """The --config file if given, else kind, primes and --seed."""
    if args.config is None:
        return ExperimentConfig(kind=kind, primes=primes, seed=args.seed, params={})
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    return ExperimentConfig(
        kind=raw.get("kind", kind),
        primes=[int(p) for p in raw["primes"]],
        seed=int(raw.get("seed", args.seed)),
        params=raw.get("params", {}),
    )


def _verify(args: argparse.Namespace) -> tuple[Payload, bool]:
    config = _config(args, "verify", [args.p or 101])
    if args.trials:
        config.params.setdefault("trials", args.trials)
    report = run_verify(config)
    return report, report.all_passed


def _experiment(args: argparse.Namespace) -> tuple[Payload, bool]:
    primes = [int(p) for p in args.primes.split(",")] if args.primes else [101]
    report = run_experiment(_config(args, args.kind or "catalog", primes))
    return report, report.all_passed


def _energy(args: argparse.Namespace) -> tuple[Payload, bool]:
    fld = _field(args)
    a = _set(fld, args.set_a)
    b = _set(fld, args.set_b) if args.set_b else a
    return {
        "p": fld.p, "A": list(a.elements), "B": list(b.elements),
        "additive_energy": energy.additive_energy(a, b).value,
        "multiplicative_energy": energy.multiplicative_energy(a, b).value,
        f"T_{args.k}": energy.moment_T_k(a, args.k),
        f"sigma_{args.k}": energy.sigma_k(a, args.k),
        "energy_star": str(energy.energy_star(a)),
    }, True


def _spectrum(args: argparse.Namespace) -> tuple[Payload, bool]:
    a = _set(_field(args), args.set_a)
    params = spectral.SpectrumParams(a, args.epsilon)
    table = dft(a)
    spec = spectral.spectrum(params, table)
    check = spectral.spectrum_size_bound_check(params, table)
    return {
        "p": a.p, "A": list(a.elements), "epsilon": args.epsilon,
        "spectrum": list(spec.elements), "size": len(spec),
        "size_bound": check.rhs, "size_bound_ok": check.ok,
        "sup_norm_nonzero": sup_norm_nonzero(table),
    }, check.ok


def _family(args: argparse.Namespace) -> tuple[Payload, bool]:
    if args.family_file:
        fam = families.load_family(args.family_file)
    elif args.kind is None:
        raise ConfigError("provide --family-file or --kind")
    elif args.kind != "lambda":
        if args.order is None:
            raise ConfigError(f"--order is required for kind {args.kind}")
        fam = families.build_family(_field(args), args.kind, order=args.order)
    elif not args.lambdas:
        raise ConfigError("--lambdas is required for kind lambda")
    else:
        lambdas = _parse_residues(args.lambdas)
        fam = families.build_family(_field(args), "lambda", lambdas=lambdas)
    t_res = families.t_invariant(fam)
    witness = {"plane": t_res.witness.plane, "indices": list(t_res.witness.indices)}
    payload: dict[str, Any] = {
        "p": fam.p, "size": len(fam), "T": t_res.value, "T_witness": witness,
        "ratio_set_size": families.ratio_set_size(fam),
    }
    if len(fam) <= families._EXACT_TSTAR_BUDGET:
        payload["Tstar"] = families.t_star_invariant(fam, "exact").value
    payload["Tstar_greedy"] = families.t_star_invariant(fam, "greedy").value
    return payload, True


def _avoid_check(args: argparse.Namespace) -> tuple[Payload, bool]:
    fam = families.load_family(args.family_file)
    a = _set(fam.field, args.set_a)
    avoids = avoidance.avoids(a, fam)
    return {"p": fam.p, "set": list(a.elements), "avoids": avoids}, True


def _avoid_search(args: argparse.Namespace) -> tuple[Payload, bool]:
    fam = families.load_family(args.family_file)
    found = avoidance.max_avoiding(
        fam.field, fam, mode=args.mode, budget=args.budget, seed=args.seed
    )
    witness = list(found.witness.elements)
    return {"p": fam.p, "mode": args.mode, "size": found.size, "witness": witness}, True


def _avoid_construct(args: argparse.Namespace) -> tuple[Payload, bool]:
    built = avoidance.construct_parity_set(_field(args), args.q)
    ok = avoidance.avoids(built.a, built.family)
    return {
        "p": built.a.p, "q": args.q, "set": list(built.a.elements),
        "set_size": len(built.a), "family_size": len(built.family), "avoids": ok,
    }, ok


def _collinear(args: argparse.Namespace) -> tuple[Payload, bool]:
    a = _set(_field(args), args.set_a)
    stats = apps.collinear_triples(a, mode=args.mode)
    return {
        "p": a.p, "set": list(a.elements), "T": stats.total,
        "expected": str(stats.expected), "ratio_set_size": len(stats.ratio_set),
    }, True


def _nonavg(args: argparse.Namespace) -> tuple[Payload, bool]:
    fld = _field(args)
    if args.set_a:
        a = _set(fld, args.set_a)
        ok = apps.is_nonaveraging(a, args.t)
        payload = {"p": fld.p, "t": args.t, "set": list(a.elements), "nonaveraging": ok}
        return payload, True
    found = apps.max_nonaveraging(
        fld, args.t, mode=args.mode, budget=args.budget, seed=args.seed
    )
    return {
        "p": fld.p, "t": args.t, "mode": args.mode,
        "size": found.size, "witness": list(found.witness.elements),
    }, True


def _mixed(args: argparse.Namespace) -> tuple[Payload, bool]:
    fld = _field(args)
    rep = apps.mixed_energy_sum(_set(fld, args.set_a), _set(fld, args.set_x))
    return {
        "p": fld.p, "sum": rep.total,
        "expected": str(rep.expected), "deviation": str(rep.deviation),
    }, True


_OPTIONS: dict[str, dict[str, Any]] = {
    "--p": {"type": int, "help": "prime modulus"},
    "--seed": {"type": int, "default": 0},
    "--config": {"help": "JSON config file"},
    "--out": {"help": "report output path"},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--trials": {"type": int, "default": 20},
    "--set": {"dest": "set_a", "required": True},
    "--set-b": {"dest": "set_b"},
    "--k": {"type": int, "default": 2},
    "--epsilon": {"type": float, "default": 0.5},
    "--kind": {},
    "--order": {"type": int},
    "--lambdas": {},
    "--family-file": {"required": True},
    "--mode": {"choices": ("exhaustive", "greedy", "randomized"), "default": "greedy"},
    "--budget": {"type": int, "default": 50},
    "--q": {"type": int, "required": True},
    "--t": {"type": int, "default": 1},
    "--x": {"dest": "set_x", "required": True},
    "--primes": {"help": "comma-separated prime list"},
}


def _pairs(first: str, others: str) -> tuple[tuple[str, str], ...]:
    return tuple((first, other) for other in others.split())


_COLLINEAR_MODE = {
    "choices": ("brute", "fast"),
    "default": "fast",
    "help": "fast: T from the direction profile q(lambda) on the exact kernel;"
    " brute: enumerate all point triples (|A| <= 8)",
}

COMMANDS: tuple[Command, ...] = (
    Command("verify", "run the invariant suite", _verify,
            "--p --seed --trials --config --out --format",
            conflicts=_pairs("--config", "--p --seed --trials")),
    Command("energy", "energies of one or two sets", _energy,
            "--p --set --set-b --k --out"),
    Command("spectrum", "spectrum of a set", _spectrum, "--p --set --epsilon --out"),
    Command("family", "family invariants T and T*", _family,
            "--p --kind --order --lambdas --family-file --out",
            {"--kind": {"choices": ("subgroup", "lambda", "gamma_shift")},
             "--family-file": {"required": False}},
            _pairs("--family-file", "--p --kind --order --lambdas")
            + (("--order", "--lambdas"),)),
    Command("avoid check", "does a set avoid a family", _avoid_check,
            "--family-file --set --out"),
    Command("avoid search", "largest avoiding set found", _avoid_search,
            "--family-file --mode --budget --seed --out"),
    Command("avoid construct", "parity construction", _avoid_construct,
            "--p --q --out"),
    Command("collinear", "collinear triple statistics", _collinear,
            "--p --set --mode --out", {"--mode": _COLLINEAR_MODE}),
    Command("nonavg", "non-averaging sets", _nonavg,
            "--p --t --set --mode --budget --seed --out",
            {"--set": {"required": False}}, _pairs("--set", "--mode --budget --seed")),
    Command("mixed", "mixed energy sum over dilates", _mixed, "--p --set --x --out"),
    Command("experiment", "run a configured sweep", _experiment,
            "--kind --primes --seed --config --out --format",
            conflicts=_pairs("--config", "--kind --primes --seed")),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """A usage error is one line on stderr and exit 2."""
        self.exit(EXIT_CONFIG_ERROR, f"{self.prog}: error: {message}\n")


class _Store(argparse.Action):
    """argparse's plain store, also recording the option in `given`, so a
    conflict is caught even when the value given equals the default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.option_strings[0]}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fpcomb parser, built once per process; parse_args keeps no state
    between calls, since no option appends or has a mutable default."""
    parser = _Parser(
        prog="fpcomb", description="prime-field additive combinatorics workbench"
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for cmd in COMMANDS:
        group, _, name = cmd.name.rpartition(" ")
        if group not in groups:
            g = groups[""].add_parser(group, help=f"{group} subcommands")
            groups[group] = g.add_subparsers(dest=f"{group}_command", required=True)
        # No abbreviations: --p would otherwise be taken for --primes.
        s = groups[group].add_parser(name, help=cmd.help, allow_abbrev=False)
        for flag in cmd.options.split():
            spec = {**_OPTIONS[flag], **cmd.overrides.get(flag, {})}
            s.add_argument(flag, action=_Store, **spec)
        s.set_defaults(cmd=cmd, given=frozenset())
    return parser


def check_conflicts(args: argparse.Namespace) -> None:
    """Raise ConfigError naming the first conflicting pair that was given."""
    for first, second in args.cmd.conflicts:
        if first in args.given and second in args.given:
            raise ConfigError(f"{first} and {second} may not be given together")


def _emit(payload: Payload, args: argparse.Namespace) -> str:
    """Write the payload to --out, if given, and return the text for stdout:
    the payload, except that verify prints one ok/FAIL line per check and an
    experiment report written to --out is not echoed."""
    if isinstance(payload, ExperimentReport):
        text = write_report(payload, args.out, args.format)
        if args.command == "verify":
            return "".join(
                f"{'ok' if c['ok'] else 'FAIL'} {c['name']}\n" for c in payload.checks
            )
        return "" if args.out else text + "\n"
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_conflicts(args)
        payload, ok = args.cmd.run(args)
        text = _emit(payload, args)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FpcombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT_FAILURE
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # As the `signal` module docs advise: point stdout at devnull so the
        # flush at exit cannot raise again, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return EXIT_OK if ok else EXIT_INVARIANT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
