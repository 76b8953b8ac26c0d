import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fpcomb import PrimeField, build_family, cli, dump_family
from fpcomb.cli import (
    _OPTIONS,
    COMMANDS,
    EXIT_CONFIG_ERROR,
    EXIT_INVARIANT_FAILURE,
    EXIT_OK,
    build_parser,
    check_conflicts,
    main,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_passes_and_prints_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--p", "11", "--seed", "1", "--trials", "3"
        )
        assert code == EXIT_OK
        assert "ok parseval-p11" in out

    def test_report_written(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, _, _ = run_cli(
            capsys,
            "verify", "--p", "11", "--trials", "2", "--out", str(out_path),
        )
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 1

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "verify", "primes": [11], "seed": 4,
                                   "params": {"trials": 2}}))
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_OK


class TestEnergy:
    def test_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy", "--p", "7", "--set", "0 1 2"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["additive_energy"] == 19
        assert payload["energy_star"] == "52/7"

    def test_missing_p(self, capsys):
        code, _, err = run_cli(capsys, "energy", "--set", "0 1 2")
        assert code == EXIT_CONFIG_ERROR
        assert "config error" in err

    def test_composite_p(self, capsys):
        code, _, err = run_cli(capsys, "energy", "--p", "9", "--set", "1")
        assert code == EXIT_CONFIG_ERROR


class TestSpectrum:
    def test_point_mass(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--p", "5", "--set", "0", "--epsilon", "1.0"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["spectrum"] == [0, 1, 2, 3, 4]
        assert payload["size_bound_ok"]


class TestFamily:
    def test_subgroup(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "--p", "7", "--kind", "subgroup", "--order", "3"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["T"] == 3
        assert payload["Tstar"] == 5

    def test_family_file(self, capsys, tmp_path):
        fam = build_family(PrimeField(103), "subgroup", order=3)
        path = tmp_path / "fam.txt"
        path.write_text(dump_family(fam))
        code, out, _ = run_cli(capsys, "family", "--family-file", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["size"] == 9

    def test_missing_kind(self, capsys):
        code, _, err = run_cli(capsys, "family", "--p", "7")
        assert code == EXIT_CONFIG_ERROR


class TestAvoid:
    def test_construct(self, capsys):
        code, out, _ = run_cli(
            capsys, "avoid", "construct", "--p", "101", "--q", "8"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["avoids"] is True
        assert payload["set"] == [1, 3, 5, 7, 9, 11]

    def test_check_and_search(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("p=7\n1 1 6 0\n")
        code, out, _ = run_cli(
            capsys,
            "avoid", "check", "--family-file", str(path), "--set", "1",
        )
        assert code == EXIT_OK
        assert json.loads(out)["avoids"] is True
        code, out, _ = run_cli(
            capsys,
            "avoid", "search", "--family-file", str(path),
            "--mode", "exhaustive",
        )
        assert code == EXIT_OK
        assert json.loads(out)["size"] >= 1


class TestCollinear:
    def test_pinned(self, capsys):
        code, out, _ = run_cli(
            capsys, "collinear", "--p", "5", "--set", "0,1"
        )
        assert code == EXIT_OK
        assert json.loads(out)["T"] == 40


class TestNonavg:
    def test_check_set(self, capsys):
        code, out, _ = run_cli(
            capsys, "nonavg", "--p", "13", "--t", "1", "--set", "1 2 4"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        # {1, 2, 4} mod 13: every x + y = 2z solution is diagonal
        assert payload["nonaveraging"] is True

    def test_search(self, capsys):
        code, out, _ = run_cli(
            capsys, "nonavg", "--p", "13", "--t", "1", "--mode", "exhaustive"
        )
        assert code == EXIT_OK
        assert json.loads(out)["size"] >= 1


class TestMixed:
    def test_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "mixed", "--p", "7", "--set", "1 2 4", "--x", "2"
        )
        assert code == EXIT_OK
        assert json.loads(out)["sum"] == 15

    def test_zero_in_x(self, capsys):
        code, _, err = run_cli(
            capsys, "mixed", "--p", "7", "--set", "1 2", "--x", "0"
        )
        assert code == EXIT_INVARIANT_FAILURE


class TestExperiment:
    def test_runs_with_no_arguments(self, capsys):
        code, out, _ = run_cli(capsys, "experiment")
        assert code == EXIT_OK
        summary = json.loads(out)["summary"]
        assert summary["checks_passed"] == summary["checks_run"] > 0

    def test_runs_with_flags(self, capsys, tmp_path):
        out_path = tmp_path / "exp.json"
        code, _, _ = run_cli(
            capsys,
            "experiment", "--kind", "mixed", "--primes", "11,13",
            "--seed", "3", "--out", str(out_path),
        )
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text())
        assert payload["config"]["kind"] == "mixed"

    def test_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "exp.csv"
        code, _, _ = run_cli(
            capsys,
            "experiment", "--kind", "mixed", "--primes", "11",
            "--out", str(out_path), "--format", "csv",
        )
        assert code == EXIT_OK
        assert out_path.read_text().startswith("deviation,")

    def test_unknown_search_mode_exits_nonzero(self, capsys, tmp_path):
        config = tmp_path / "avoid.json"
        config.write_text(
            json.dumps(
                {
                    "kind": "avoid_search",
                    "primes": [29],
                    "params": {"family_kind": "lambda", "mode": "exhaustiv"},
                }
            )
        )
        code, out, err = run_cli(capsys, "experiment", "--config", str(config))
        assert code != EXIT_OK
        assert "exhaustiv" in err and out == ""

    def test_unknown_kind(self, capsys):
        code, _, err = run_cli(
            capsys, "experiment", "--kind", "bogus", "--primes", "11"
        )
        assert code == EXIT_CONFIG_ERROR


class TestParserReuse:
    COMMANDS = (
        ("nonavg", "--p", "23", "--t", "1"),
        ("collinear", "--p", "7", "--set", "0,1,3"),
        ("energy", "--p", "7", "--set", "0 1 2", "--k", "3"),
        ("nonavg", "--p", "13", "--t", "1", "--set", "1 2 4"),
    )

    def test_back_to_back_matches_fresh_runs(self, capsys):
        fresh = []
        for argv in self.COMMANDS:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        reused = [run_cli(capsys, *argv) for argv in self.COMMANDS]
        assert build_parser.cache_info().currsize == 1
        assert reused == fresh
        assert all(code == EXIT_OK for code, _, _ in reused)

    def test_help_exits_zero(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert "usage: fpcomb" in capsys.readouterr().out
        assert run_cli(capsys, "collinear", "--p", "5", "--set", "0,1")[0] == EXIT_OK


FAM11 = "p=11\n1 1 1 0\n1 1 2 0\n1 2 3 5\n"
# Randomized search on this family depends on both --seed and --budget.
FAM13 = "p=13\n5 2 10 2\n6 5 2 2\n"
CONFIG = {"kind": "verify", "primes": [13], "seed": 4, "params": {"trials": 2}}
NINE = "0,1,2,3,4,5,6,7,8"

# command -> (base argv, {option: argv differing from the base in that
# option, or (before, after) when the base is the wrong reference}).
EFFECTS = {
    "verify": (["verify", "--p", "11", "--trials", "2"], {
        "--p": ["verify", "--p", "13", "--trials", "2"],
        # stdout names the checks; the seed shows in the report's values
        "--seed": (
            ["verify", "--p", "11", "--trials", "2", "--out", "{out}"],
            ["verify", "--p", "11", "--trials", "2", "--out", "{out}", "--seed", "3"],
        ),
        "--trials": ["verify", "--p", "11", "--trials", "3"],
        "--config": ["verify", "--config", "{cfg}"],
        "--out": ["verify", "--p", "11", "--trials", "2", "--out", "{out}"],
        "--format": (
            ["verify", "--p", "11", "--trials", "2", "--out", "{out}"],
            ["verify", "--p", "11", "--trials", "2", "--out", "{out}", "--format", "csv"],
        ),
    }),
    "energy": (["energy", "--p", "101", "--set", "1,2,3,5,8"], {
        "--p": ["energy", "--p", "103", "--set", "1,2,3,5,8"],
        "--set": ["energy", "--p", "101", "--set", "1,2,3,5,9"],
        "--set-b": ["energy", "--p", "101", "--set", "1,2,3,5,8", "--set-b", "0,4"],
        "--k": ["energy", "--p", "101", "--set", "1,2,3,5,8", "--k", "3"],
        "--out": ["energy", "--p", "101", "--set", "1,2,3,5,8", "--out", "{out}"],
    }),
    "spectrum": (["spectrum", "--p", "101", "--set", "1,2,3,4,5"], {
        "--p": ["spectrum", "--p", "103", "--set", "1,2,3,4,5"],
        "--set": ["spectrum", "--p", "101", "--set", "1,2,3,4,6"],
        "--epsilon": ["spectrum", "--p", "101", "--set", "1,2,3,4,5", "--epsilon", "0.4"],
        "--out": ["spectrum", "--p", "101", "--set", "1,2,3,4,5", "--out", "{out}"],
    }),
    "family": (["family", "--p", "7", "--kind", "subgroup", "--order", "3"], {
        "--p": ["family", "--p", "13", "--kind", "subgroup", "--order", "3"],
        "--kind": ["family", "--p", "7", "--kind", "gamma_shift", "--order", "3"],
        "--order": ["family", "--p", "7", "--kind", "subgroup", "--order", "2"],
        "--lambdas": (
            ["family", "--p", "7", "--kind", "lambda", "--lambdas", "1,2"],
            ["family", "--p", "7", "--kind", "lambda", "--lambdas", "1,2,3"],
        ),
        "--family-file": ["family", "--family-file", "{fam11}"],
        "--out": ["family", "--p", "7", "--kind", "subgroup", "--order", "3", "--out", "{out}"],
    }),
    "avoid check": (["avoid", "check", "--family-file", "{fam11}", "--set", "1,2"], {
        "--family-file": ["avoid", "check", "--family-file", "{fam13}", "--set", "1,2"],
        "--set": ["avoid", "check", "--family-file", "{fam11}", "--set", "1,3"],
        "--out": ["avoid", "check", "--family-file", "{fam11}", "--set", "1,2", "--out", "{out}"],
    }),
    "avoid search": (
        ["avoid", "search", "--family-file", "{fam13}", "--mode", "randomized",
         "--budget", "5", "--seed", "0"],
        {
            "--family-file": ["avoid", "search", "--family-file", "{fam11}", "--mode",
                              "randomized", "--budget", "5", "--seed", "0"],
            "--mode": ["avoid", "search", "--family-file", "{fam13}", "--mode", "greedy",
                       "--budget", "5", "--seed", "0"],
            "--budget": ["avoid", "search", "--family-file", "{fam13}", "--mode",
                         "randomized", "--budget", "1", "--seed", "0"],
            "--seed": ["avoid", "search", "--family-file", "{fam13}", "--mode",
                       "randomized", "--budget", "5", "--seed", "1"],
            "--out": ["avoid", "search", "--family-file", "{fam13}", "--mode", "randomized",
                      "--budget", "5", "--seed", "0", "--out", "{out}"],
        },
    ),
    "avoid construct": (["avoid", "construct", "--p", "101", "--q", "8"], {
        "--p": ["avoid", "construct", "--p", "103", "--q", "8"],
        "--q": ["avoid", "construct", "--p", "101", "--q", "4"],
        "--out": ["avoid", "construct", "--p", "101", "--q", "8", "--out", "{out}"],
    }),
    "collinear": (["collinear", "--p", "101", "--set", "1,2,3,5,8"], {
        "--p": ["collinear", "--p", "103", "--set", "1,2,3,5,8"],
        "--set": ["collinear", "--p", "101", "--set", "1,2,3,5,9"],
        # Both modes give the same T; brute refuses |A| > 8 (exit 1).
        "--mode": (
            ["collinear", "--p", "101", "--set", NINE],
            ["collinear", "--p", "101", "--set", NINE, "--mode", "brute"],
        ),
        "--out": ["collinear", "--p", "101", "--set", "1,2,3,5,8", "--out", "{out}"],
    }),
    "nonavg": (
        ["nonavg", "--p", "41", "--t", "1", "--mode", "randomized", "--budget", "5",
         "--seed", "0"],
        {
            "--p": ["nonavg", "--p", "43", "--t", "1", "--mode", "randomized",
                    "--budget", "5", "--seed", "0"],
            "--t": ["nonavg", "--p", "41", "--t", "2", "--mode", "randomized",
                    "--budget", "5", "--seed", "0"],
            "--set": ["nonavg", "--p", "41", "--t", "1", "--set", "1,2,4"],
            "--mode": ["nonavg", "--p", "41", "--t", "1", "--mode", "greedy",
                       "--budget", "5", "--seed", "0"],
            "--budget": ["nonavg", "--p", "41", "--t", "1", "--mode", "randomized",
                         "--budget", "1", "--seed", "0"],
            "--seed": ["nonavg", "--p", "41", "--t", "1", "--mode", "randomized",
                       "--budget", "5", "--seed", "1"],
            "--out": ["nonavg", "--p", "41", "--t", "1", "--mode", "randomized",
                      "--budget", "5", "--seed", "0", "--out", "{out}"],
        },
    ),
    "mixed": (["mixed", "--p", "101", "--set", "1,2,3", "--x", "1,10"], {
        "--p": ["mixed", "--p", "103", "--set", "1,2,3", "--x", "1,10"],
        "--set": ["mixed", "--p", "101", "--set", "1,2,4", "--x", "1,10"],
        "--x": ["mixed", "--p", "101", "--set", "1,2,3", "--x", "1"],
        "--out": ["mixed", "--p", "101", "--set", "1,2,3", "--x", "1,10", "--out", "{out}"],
    }),
    "experiment": (["experiment", "--kind", "mixed", "--primes", "11"], {
        "--kind": ["experiment", "--kind", "nonavg", "--primes", "11"],
        "--primes": ["experiment", "--kind", "mixed", "--primes", "13"],
        "--seed": ["experiment", "--kind", "mixed", "--primes", "11", "--seed", "3"],
        "--config": ["experiment", "--config", "{cfg}"],
        "--out": ["experiment", "--kind", "mixed", "--primes", "11", "--out", "{out}"],
        "--format": ["experiment", "--kind", "mixed", "--primes", "11", "--format", "csv"],
    }),
}

TABLE = {cmd.name: cmd for cmd in COMMANDS}


@pytest.fixture
def files(tmp_path):
    paths = {"fam11": tmp_path / "fam11.txt", "fam13": tmp_path / "fam13.txt",
             "cfg": tmp_path / "cfg.json", "out": tmp_path / "out.txt"}
    paths["fam11"].write_text(FAM11)
    paths["fam13"].write_text(FAM13)
    paths["cfg"].write_text(json.dumps(CONFIG))
    return paths


def outcome(capsys, files, argv):
    """(exit code, stdout, stderr, --out file text) of one in-process run."""
    files["out"].unlink(missing_ok=True)
    argv = [a.format(**files) if a.startswith("{") else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    out = files["out"].read_text() if files["out"].exists() else None
    return code, captured.out, captured.err, out


def leaf_parsers():
    """(command name, leaf subparser) for every leaf of build_parser()."""
    def walk(parser, prefix):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield prefix, parser
        for action in subs:
            for name, child in action.choices.items():
                yield from walk(child, f"{prefix} {name}".strip())
    return dict(walk(build_parser(), ""))


class TestCommandTable:
    def test_option_count(self):
        leaves = leaf_parsers()
        assert sorted(leaves) == sorted(TABLE) and len(leaves) == 11
        options = {
            name: {a.option_strings[0] for a in parser._actions
                   if a.option_strings and a.option_strings[0] != "-h"}
            for name, parser in leaves.items()
        }
        assert options == {name: set(cmd.options.split()) for name, cmd in TABLE.items()}
        assert sum(len(opts) for opts in options.values()) <= 54

    @pytest.mark.parametrize("name", sorted(EFFECTS))
    def test_every_option_has_an_effect(self, capsys, files, name):
        base, variants = EFFECTS[name]
        assert set(variants) == set(TABLE[name].options.split())
        for flag, variant in variants.items():
            before, after = variant if isinstance(variant, tuple) else (base, variant)
            assert flag in after
            got_before = outcome(capsys, files, before)
            got_after = outcome(capsys, files, after)
            assert got_before[0] in (EXIT_OK, EXIT_INVARIANT_FAILURE), (flag, got_before)
            assert got_before != got_after, flag

    @pytest.mark.parametrize("name", sorted(EFFECTS))
    def test_options_outside_the_table_exit_2(self, capsys, files, name):
        base, _ = EFFECTS[name]
        outside = sorted(set(_OPTIONS) - set(TABLE[name].options.split()))
        assert outside
        for flag in outside:
            code, out, err, _ = outcome(capsys, files, [*base, flag, "1"])
            assert code == EXIT_CONFIG_ERROR and out == "", flag
            assert err.count("\n") == 1 and flag in err, err

    @pytest.mark.parametrize(
        "name,pair", [(cmd.name, pair) for cmd in COMMANDS for pair in cmd.conflicts]
    )
    def test_conflicting_pair_exits_2(self, capsys, files, name, pair):
        values = {"--config": "{cfg}", "--family-file": "{fam11}", "--set": "1,2,4",
                  "--kind": "lambda", "--mode": "greedy", "--primes": "11"}
        argv = name.split()
        for flag in pair:
            argv += [flag, values.get(flag, "3")]
        code, out, err, _ = outcome(capsys, files, argv)
        assert code == EXIT_CONFIG_ERROR and out == ""
        assert err == f"config error: {pair[0]} and {pair[1]} may not be given together\n"

    def test_conflict_caught_when_value_equals_default(self, capsys, files):
        code, _, err, _ = outcome(
            capsys, files, ["nonavg", "--p", "13", "--set", "1,2", "--seed", "0"]
        )
        assert code == EXIT_CONFIG_ERROR and "--set and --seed" in err

    @pytest.mark.parametrize("argv", [
        ["energy", "--p", "101", "--set", "1,2,3", "--format", "csv"],
        ["avoid", "search", "--p", "13", "--family-file", "{fam11}"],
        ["experiment", "--primes", "101", "--p", "103"],
        ["verify", "--config", "{cfg}", "--p", "103", "--trials", "5"],
        ["family", "--family-file", "{fam11}", "--config", "nope.json"],
    ])
    def test_ignored_options_now_rejected(self, capsys, files, argv):
        code, out, err, _ = outcome(capsys, files, argv)
        assert code == EXIT_CONFIG_ERROR and out == ""
        assert err.count("\n") == 1

    def test_docstring_lists_the_table(self):
        lines = cli.__doc__.splitlines()
        for cmd in COMMANDS:
            listed = [ln for ln in lines if ln.startswith(f"  {cmd.name}  ")]
            assert len(listed) == 1, cmd.name
            assert listed[0].split()[len(cmd.name.split()):] == cmd.options.split()


class TestExitOne:
    """Checks that valid input cannot fail still reach exit 1 when they do."""

    def test_spectrum_size_bound(self, capsys, monkeypatch):
        from fpcomb import spectral
        monkeypatch.setattr(
            spectral, "spectrum_size_bound_check",
            lambda params, table=None: spectral.BoundCheck(lhs=9.0, rhs=1.0, ok=False),
        )
        code, out, _ = run_cli(capsys, "spectrum", "--p", "5", "--set", "0")
        assert code == EXIT_INVARIANT_FAILURE
        assert json.loads(out)["size_bound_ok"] is False

    def test_avoid_construct(self, capsys, monkeypatch):
        from fpcomb import avoidance
        monkeypatch.setattr(avoidance, "avoids", lambda a, family: False)
        code, out, _ = run_cli(capsys, "avoid", "construct", "--p", "101", "--q", "8")
        assert code == EXIT_INVARIANT_FAILURE
        assert json.loads(out)["avoids"] is False

    def test_experiment_failed_check(self, capsys, monkeypatch):
        from fpcomb import reports
        monkeypatch.setattr(
            reports, "_run_mixed",
            lambda config, rng: ([], [reports._check("forced", 0, 1, False)]),
        )
        code, out, _ = run_cli(capsys, "experiment", "--kind", "mixed", "--primes", "11")
        assert code == EXIT_INVARIANT_FAILURE
        assert json.loads(out)["summary"] == {"checks_run": 1, "checks_passed": 0}


def test_broken_pipe_exits_1_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fpcomb.cli", "energy", "--p", "101", "--set", "1,2,3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def readme_cli_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    block = block.replace("\\\n", " ")
    return [ln.split("#", 1)[0].strip() for ln in block.splitlines() if ln.strip()]


def test_readme_cli_lines_parse():
    lines = readme_cli_lines()
    assert len(lines) >= 11
    covered = set()
    for line in lines:
        words = shlex.split(line)
        assert words[0] == "fpcomb", line
        args = build_parser().parse_args(words[1:])
        check_conflicts(args)
        covered.add(args.cmd.name)
    assert covered == set(TABLE)


def test_readme_lists_the_table():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = [ln.split("|") for ln in text.splitlines() if ln.startswith("| `")]
    listed = {row[1].strip(" `"): row[2].strip(" `").split() for row in rows}
    assert listed == {name: cmd.options.split() for name, cmd in TABLE.items()}
