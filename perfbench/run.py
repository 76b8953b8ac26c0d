"""The fpcomb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is exact-large-p, report-sweep or search (see workloads.py for why
each exists), or `all` to run the three in turn.  Run from any directory;
fpcomb is imported from `src/` of the checkout that holds this file.

Each workload runs in its own worker process (worker.py) as a closed loop
with one client and BLAS/OpenMP threads pinned to 1.  Before it, the
workload is set up SETUP_REPEATS times in set-up-only processes, and
setup_s is the median over them, at reference speed.  Every operation's
output is checked; failed_ops_share counts operations that raised, exited
nonzero or failed their check.

The host's CPU speed drifts, so operation timings are reported at a
reference speed: each operation follows a short fixed probe that does not
use fpcomb, and its wall time is scaled by the probe's reference time over
the probe's (smoothed) measured time; set-up is scaled the same way by an
allocation probe (see worker.py).  Wall-clock figures
are printed beside them and kept in the result file.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics of tracer.py from the traced half of the decks, the tracing
overhead, and writes the spans to .perfbench/.  The full result, with the
environment record, is written to .perfbench/result-*.json, and the last
line of standard output is the JSON summary
{"correct", "attempted", "failed", "metrics"}.

Seeds: tune with the default seed 1; confirm a claimed gain on the
held-out seed 7919, which is not used while a change is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units
from worker import OUT_DIR, PROBE_REF_S, ROOT, THREAD_VARS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact-large-p", "report-sweep", "search")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 7
DEADLINE_S = 175.0  # a run must end within 180 s

E2E_UNITS = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "failed_ops_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Reported as the summary's `failed` / `attempted`, and printed, but left out
# of the summary's metrics: it is 0 on a correct run, and a bounded metric
# must never be 0.
UNBOUNDED = ("failed_ops_share",)


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_REPEATS)]
    result = _worker(common + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    result.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        setup_samples=[s["setup_s"] for s in setups],
        setup_s=statistics.median(s["setup_s"] for s in setups),
        setup_wall_s=statistics.median(s["setup_wall_s"] for s in setups),
        failed_ops_share=result["failed"] / result["attempted"],
    )
    path = OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2), encoding="utf-8")
    return result


def _print_result(r: dict, trace: bool) -> None:
    env = r["env"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"workload {r['workload']}  seed {r['seed']}  seconds {r['seconds']}  trace {int(trace)}")
    print(
        f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"{threads}, commit {env['commit']}"
    )
    for f in r["failures"]:
        print(f"  FAILED {f}")
    if not trace:
        print(
            f"  timings at reference speed: speed probe median {r['probe_ms_median']:.3f} ms, "
            f"reference {PROBE_REF_S * 1e3:g} ms"
        )
        notes = {
            "ops_per_s": (
                f"{r['attempted']} ops in {r['busy_s']:.2f} s; "
                f"wall clock {r['wall_ops_per_s']:.4g}"
            ),
            "op_p50_ms": f"wall clock {r['wall_op_p50_ms']:.4g}",
            "op_p90_ms": (
                f"wall clock {r['wall_op_p90_ms']:.4g}; "
                f"{r['samples']} samples, {r['above_p90']} above p90"
            ),
            "failed_ops_share": f"{r['failed']} of {r['attempted']}",
            "setup_s": (
                f"median of {len(r['setup_samples'])} set-ups; wall clock {r['setup_wall_s']:.4g}"
            ),
        }
        for name, unit in E2E_UNITS.items():
            print(f"  {name:18s} {r[name]:12.6g} {unit:6s} {notes.get(name, '')}")
        return
    busy = r["traced_busy_s"]
    print(
        f"  tracing overhead: {r['ops_per_s_traced']:.4g} op/s traced vs "
        f"{r['ops_per_s_untraced']:.4g} op/s untraced "
        f"(ratio {r['per_layer']['bench.trace_overhead_ratio']:.4f}); "
        f"{r['spans']} spans in {r['spans_file']}"
    )
    for module, self_s in sorted(r["module_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  self time {module:10s} {self_s:9.4f} s  {self_s / busy:7.1%} of traced op time")
    for name, unit in metric_units().items():
        print(f"  {name:52s} {r['per_layer'][name]:14.6g} {unit}")


def _metrics(r: dict, trace: bool) -> dict:
    if trace:
        return {n: {"value": r["per_layer"][n], "unit": u} for n, u in metric_units().items()}
    return {
        n: {"value": r[n], "unit": u} for n, u in E2E_UNITS.items() if n not in UNBOUNDED
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fpcomb benchmark", epilog=f"held-out seed: {HELD_OUT_SEED}"
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fpcomb" / "__init__.py").is_file():
        print(f"perfbench: no fpcomb source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, args.seconds, trace, deadline)
        _print_result(results[name], trace)
    metrics = {}
    for name, r in results.items():
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in _metrics(r, trace).items()})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
