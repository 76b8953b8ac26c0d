import json

import pytest

from fpcomb import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    SCHEMA_VERSION,
    run_experiment,
    run_verify,
    write_report,
)
from fpcomb import reports, spectral


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="nope", primes=[7]).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="verify", primes=[]).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="verify", primes=[9]).validate()
        ExperimentConfig(kind="verify", primes=[7]).validate()


class TestRunVerify:
    def test_all_checks_pass(self):
        config = ExperimentConfig(
            kind="verify", primes=[11, 101], seed=7, params={"trials": 5}
        )
        report = run_verify(config)
        assert report.all_passed
        names = {c["name"] for c in report.checks}
        assert any(n.startswith("parseval") for n in names)
        assert any(n.startswith("spec-size") for n in names)
        assert any(n.startswith("spec-les") for n in names)
        assert any(n.startswith("energy-oracle") for n in names)
        assert any(n.startswith("family-T") for n in names)


class TestRunExperiment:
    CASES = [
        ("parity", {"q_list": [4, 8]}, [101, 1009]),
        ("avoid_search", {"family_kind": "subgroup", "order": 3}, [103, 109]),
        ("catalog", {"family_kind": "subgroup", "order": 3}, [103, 109]),
        ("collinear", {"density": 0.4}, [11, 31]),
        ("nonavg", {"t": 1, "mode": "greedy"}, [11, 31]),
        ("mixed", {}, [11, 101]),
        ("spectrum_energy", {"epsilons": [0.5]}, [101, 103]),
    ]

    @pytest.mark.parametrize("kind,params,primes", CASES)
    def test_kind_produces_complete_report(self, kind, params, primes):
        config = ExperimentConfig(kind=kind, primes=primes, seed=2, params=params)
        report = run_experiment(config)
        assert report.measurements
        assert report.all_passed
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["rng"] == "pcg64"
        assert payload["config"]["seed"] == 2
        assert payload["summary"]["checks_run"] == len(report.checks)

    def test_reproducible_modulo_timestamp(self):
        config = ExperimentConfig(
            kind="collinear", primes=[11, 31], seed=9, params={"density": 0.3}
        )
        d1 = run_experiment(config).to_dict()
        d2 = run_experiment(config).to_dict()
        d1.pop("timestamp")
        d2.pop("timestamp")
        assert json.dumps(d1, default=str, sort_keys=True) == json.dumps(
            d2, default=str, sort_keys=True
        )

    def test_seed_changes_measurements(self):
        base = dict(kind="collinear", primes=[31], params={"density": 0.3})
        r1 = run_experiment(ExperimentConfig(seed=1, **base))
        r2 = run_experiment(ExperimentConfig(seed=2, **base))
        assert r1.measurements != r2.measurements

    def test_family_file_param(self, tmp_path):
        from fpcomb import build_family, dump_family, PrimeField

        fam = build_family(PrimeField(103), "subgroup", order=3)
        path = tmp_path / "fam.txt"
        path.write_text(dump_family(fam))
        config = ExperimentConfig(
            kind="avoid_search",
            primes=[103],
            params={"family_file": str(path), "mode": "greedy"},
        )
        report = run_experiment(config)
        assert report.all_passed

    def test_family_file_prime_mismatch(self, tmp_path):
        from fpcomb import build_family, dump_family, PrimeField

        fam = build_family(PrimeField(103), "subgroup", order=3)
        path = tmp_path / "fam.txt"
        path.write_text(dump_family(fam))
        config = ExperimentConfig(
            kind="avoid_search", primes=[101], params={"family_file": str(path)}
        )
        with pytest.raises(ConfigError):
            run_experiment(config)


@pytest.mark.parametrize(
    "kind, params, sets",
    [("verify", {"trials": 4}, 2 * 4), ("spectrum_energy", {}, 2)],
)
def test_one_transform_per_set(monkeypatch, kind, params, sets):
    """The reports transform each random set once and hand the table to
    every spectrum check."""
    calls = []
    real = reports.dft
    monkeypatch.setattr(reports, "dft", lambda a: calls.append(a) or real(a))
    monkeypatch.setattr(spectral, "dft", None)  # no check transforms again
    config = ExperimentConfig(kind=kind, primes=[101, 103], seed=4, params=params)
    assert run_experiment(config).all_passed
    assert len(calls) == sets


class TestWriteReport:
    def test_json_and_csv(self, tmp_path):
        config = ExperimentConfig(
            kind="mixed", primes=[11], seed=0, params={}
        )
        report = run_experiment(config)
        jpath = tmp_path / "out.json"
        payload = write_report(report, str(jpath), "json")
        assert json.loads(jpath.read_text()) == json.loads(payload)
        cpath = tmp_path / "out.csv"
        csv_payload = write_report(report, str(cpath), "csv")
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == csv_payload.strip().splitlines()[0]
        assert len(lines) == 1 + len(report.measurements)

    def test_fractions_serialized(self):
        config = ExperimentConfig(kind="mixed", primes=[11], params={})
        report = run_experiment(config)
        payload = json.loads(report.to_json())
        row = payload["measurements"][0]
        num, den = row["expected"].split("/")
        assert int(num) >= 0 and int(den) >= 1
