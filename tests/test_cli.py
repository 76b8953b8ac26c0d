import json

import pytest

from fpcomb import PrimeField, build_family, dump_family
from fpcomb.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_INVARIANT_FAILURE,
    EXIT_OK,
    build_parser,
    main,
)


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
