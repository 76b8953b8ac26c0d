"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from worker import ROOT, run_workload, set_up

sys.path.insert(0, str(ROOT / "src"))

import fpcomb  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fpcomb import apps, energy, families  # noqa: E402
from fpcomb.field import PrimeField, ResidueSet  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(args: list[str]) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == {n: u for n, u in run.E2E_UNITS.items() if n not in run.UNBOUNDED}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.metric_units()
    assert len(BENCHMARK["per_layer"]) <= 128


@pytest.mark.parametrize("p", [11, 101, 211])
def test_fft_oracles_match_pairwise_counts(p):
    rng = random.Random(p)
    fld = PrimeField(p)
    a = ResidueSet(fld, tuple(rng.sample(range(p), p // 3)))
    b = ResidueSet(fld, tuple(rng.sample(range(p), p // 4)))
    sums = Counter((x + y) % p for x in a for y in b)
    assert workloads.energy_oracle(a, b) == sum(c * c for c in sums.values())
    triples = Counter((x + y + z) % p for x in a for y in a for z in a)
    assert workloads.moment_oracle(a, 3) == sum(c * c for c in triples.values())


def test_fft_oracle_refuses_values_beyond_float_precision():
    f = np.full(8, 1 << 40, dtype=np.int64)
    with pytest.raises(ArithmeticError):
        workloads.fft_convolve(f, f)


def test_deck_mix_is_exact_at_every_deck():
    wl = workloads.Workload(
        [
            workloads.Variant("a", 2, [workloads.Instance(i) for i in range(3)], abs, None),
            workloads.Variant("b", 1, [workloads.Instance(0)], abs, None),
        ],
        random.Random(7),
        ROOT / ".perfbench" / "unused",
    )
    decks = [wl.deck() for _ in range(3)]
    for deck in decks:
        assert Counter(v.name for v, _ in deck) == {"a": 2, "b": 1}
    # instances are taken round robin, so every one is used equally often
    assert Counter(i.args for d in decks for v, i in d if v.name == "a") == {0: 2, 1: 2, 2: 2}


def test_injected_wrong_results_and_errors_are_counted(tmp_path, monkeypatch):
    wl = set_up("search", 1, tmp_path / "work")
    original = families.t_invariant

    def off_by_one(family):
        res = original(family)
        return families.InvariantResult(res.value - 1, res.witness)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(families, "t_invariant", off_by_one)
    monkeypatch.setattr(apps, "max_nonaveraging", broken)
    result = run_workload(wl, seconds=0, min_ops=0)
    weights = {v.name: v.weight for v in wl.variants}
    expected = sum(w for n, w in weights.items() if n.startswith(("t_star_and_t", "max_nonaveraging")))
    assert result["attempted"] == sum(weights.values())
    assert result["failed"] == expected > 0
    assert any("injected" in f for f in result["failures"])
    assert any("output check failed" in f for f in result["failures"])


def test_tracer_wraps_every_binding_and_restores_it():
    t = tracer.Tracer()
    original = fpcomb.harmonic.convolve_add
    assert fpcomb.energy.convolve_add is original
    t.install()
    try:
        assert fpcomb.energy.convolve_add is fpcomb.harmonic.convolve_add is not original
        assert fpcomb.convolve_add is fpcomb.harmonic.convolve_add
        a = ResidueSet(PrimeField(101), tuple(range(0, 101, 3)))
        energy.additive_energy(a, a)  # outside an operation: not recorded
        t.begin_op("probe")
        energy.additive_energy(a, a)
        t.end_op()
    finally:
        t.uninstall()
    assert fpcomb.energy.convolve_add is original
    m = t.metrics()
    assert m["harmonic.convolve_add.calls"] == 1
    assert m["harmonic.convolve_add.p_small_calls"] == 1
    assert m["harmonic.convolve_add.elems"] == 101
    assert m["energy.additive_energy.calls"] == 1
    assert 0 < m["energy.additive_energy.self_s"] < m["energy.additive_energy.total_s"]
    spans = {s[1]: s for s in t.spans}
    assert spans["harmonic.convolve_add"][4] == spans["energy.additive_energy"][0]
    assert spans["energy.additive_energy"][4] == spans["op.probe"][0]


def test_smoke_run_prints_every_metric_with_its_unit():
    lines, summary = _bench(["--workload", "search", "--seed", "3", "--seconds", "1", "--trace", "0"])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 100
    for m in BENCHMARK["end_to_end"]:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]
        assert summary["metrics"][m["name"]]["value"] > 0
    text = "\n".join(lines[:-1])
    for name, unit in run.E2E_UNITS.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines), name
    assert "numpy" in text and "nproc" in text and "OMP_NUM_THREADS=1" in text and "commit" in text

    lines, summary = _bench(["--workload", "search", "--seed", "3", "--seconds", "1", "--trace", "1"])
    assert summary["correct"]
    assert {n: v["unit"] for n, v in summary["metrics"].items()} == tracer.metric_units()
    metrics = {n: v["value"] for n, v in summary["metrics"].items()}
    # search makes no kernel calls
    assert all(v == 0 for n, v in metrics.items() if n.startswith("harmonic.") and n.endswith("calls"))
    assert metrics["avoidance.max_avoiding.calls"] > 0
    assert metrics["bench.trace_overhead_ratio"] > 0
    assert (ROOT / ".perfbench" / "spans-search-seed3.csv").is_file()


def test_missing_source_tree_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

