"""Runs one workload in its own process and prints its raw result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The loop is closed with one client: one operation at a time, no think time.
Set-up time (--setup-only) runs from the first statement of this file,
before numpy and fpcomb are imported, to the end of set-up, where the first
timed operation would start.  Each operation runs
with the garbage collector disabled after a collection, and its output is
checked after the clock stops.  `perfbench/run.py` starts this script with
BLAS/OpenMP threads pinned to 1.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

# Enough operations that at least ten latencies lie above the 90th percentile.
MIN_OPS = 100

# The host's CPU speed can drift by +-20% over tens of seconds, more than an
# affordable run length averages out.  So a fixed probe of interpreter
# and big-integer work runs before every operation, and latencies are
# reported at reference speed: wall time * PROBE_REF_S / probe time, with the
# probe time a median over the operation and PROBE_SMOOTHING neighbours on
# each side.  Wall-clock figures are kept in the result as wall_*.
PROBE_LOOP = 20_000
_PROBE_A = (1 << 65_536) - 3
_PROBE_B = (1 << 61_440) - 5
PROBE_REF_S = 0.003
PROBE_SMOOTHING = 2

# Set-up is mostly imports and allocation, whose speed drifts apart from the
# probe above.  It is reported at reference speed by a probe that builds and
# drops fixed Python and numpy allocations, run ALLOC_PROBES times in the
# same set-up-only process after set-up: wall time * ALLOC_REF_S / median
# probe.  The measured process runs no such probe, so its peak RSS is the
# workload's own.
ALLOC_PROBE_N = 200_000
ALLOC_PROBES = 5
ALLOC_REF_S = 0.007

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
        "gc": "collect before each op, disabled during it",
        "commit": git_commit(ROOT),
    }


def quantile_stats(latencies_ms: list[float]) -> dict:
    p90 = statistics.quantiles(latencies_ms, n=10)[8]
    return {
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": p90,
        "samples": len(latencies_ms),
        "above_p90": sum(1 for v in latencies_ms if v > p90),
    }


def set_up(name: str, seed: int, workdir: Path):
    """Import fpcomb from this checkout and build the workload's inputs."""
    import workloads

    source = Path(sys.modules["fpcomb"].__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise RuntimeError(f"fpcomb imported from {source}, not from this checkout")
    wl = workloads.build(name, seed, workdir)
    gc.collect()
    gc.freeze()  # set-up objects are not rescanned before every operation
    return wl


def speed_probe() -> float:
    """Seconds for a fixed piece of interpreter and big-integer work that
    does not touch fpcomb."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    _PROBE_A * _PROBE_B
    return time.perf_counter() - start


def alloc_probe() -> float:
    """Seconds to build and drop a fixed list and numpy array."""
    import numpy as np

    start = time.perf_counter()
    ints = list(range(ALLOC_PROBE_N))
    array = np.arange(ALLOC_PROBE_N) * 2
    del ints, array
    return time.perf_counter() - start


def reference_scale(probes: list[float]) -> list[float]:
    """Per-operation factor that takes a latency to reference speed: the
    probe's reference time over its median time around the operation."""
    h = PROBE_SMOOTHING
    return [
        PROBE_REF_S / statistics.median(probes[max(0, i - h) : i + h + 1])
        for i in range(len(probes))
    ]


def run_workload(
    wl, seconds: float, spans_file: Path | None = None, min_ops: int = MIN_OPS
) -> dict:
    """Replay decks of `wl` until `seconds` of timed work and `min_ops`
    operations are done, checking every output; closes `wl`.

    With a `spans_file` the run is traced: decks alternate untraced and
    traced, starting untraced, so both rates come from one process; the
    per-layer metrics come from the traced decks only.
    """
    from tracer import Tracer

    trace = spans_file is not None
    tracer = Tracer() if trace else None
    ops: list[tuple[str, bool, float, float]] = []  # variant, traced, seconds, probe seconds
    failures: list[str] = []
    try:
        deck_no = 0
        while (
            deck_no < (2 if trace else 1)
            or sum(op[2] for op in ops) < seconds
            or len(ops) < min_ops
        ):
            traced = trace and deck_no % 2 == 1
            if traced:
                tracer.install()
            elif tracer is not None:
                tracer.uninstall()
            for variant, inst in wl.deck():
                probe = speed_probe()
                gc.collect()
                gc.disable()
                if traced:
                    tracer.begin_op(variant.name)
                error = None
                start = time.perf_counter()
                try:
                    out = variant.run(inst.args)
                except Exception:  # counted as a failed operation
                    error = traceback.format_exc(limit=3)
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.end_op()
                gc.enable()
                ops.append((variant.name, traced, elapsed, probe))
                if error is None:
                    try:
                        if not variant.check(inst, out):
                            error = "output check failed"
                    except Exception:
                        error = "output check raised: " + traceback.format_exc(limit=3)
                if error is not None:
                    failures.append(f"{variant.name}: {error}")
            deck_no += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()

    wall_ms = [op[2] * 1e3 for op in ops]
    ref_ms = [ms * k for ms, k in zip(wall_ms, reference_scale([op[3] for op in ops]))]
    per_variant: dict[str, list[float]] = {}
    for op, ms in zip(ops, ref_ms):
        per_variant.setdefault(op[0], []).append(ms)

    def rate(traced: bool | None) -> float:
        picked = [ms for op, ms in zip(ops, ref_ms) if traced is None or op[1] == traced]
        return len(picked) / (sum(picked) / 1e3)

    wall = quantile_stats(wall_ms)
    result = {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:10],
        "busy_s": sum(wall_ms) / 1e3,
        "ops_per_s": rate(None),
        **quantile_stats(ref_ms),
        "wall_ops_per_s": len(ops) / (sum(wall_ms) / 1e3),
        "wall_op_p50_ms": wall["op_p50_ms"],
        "wall_op_p90_ms": wall["op_p90_ms"],
        "probe_ms_median": statistics.median(op[3] for op in ops) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "variants": {
            k: {"ops": len(v), "p50_ms": statistics.median(v)} for k, v in per_variant.items()
        },
    }
    if tracer is not None:
        untraced_rate, traced_rate = rate(False), rate(True)
        per_layer = tracer.metrics()
        per_layer["bench.trace_overhead_ratio"] = traced_rate / untraced_rate
        per_layer["bench.failed_ops_share"] = len(failures) / len(ops)
        tracer.write_spans(spans_file)
        result.update(
            per_layer=per_layer,
            module_self_s=tracer.module_self_s(),
            traced_busy_s=sum(op[2] for op in ops if op[1]),
            ops_per_s_traced=traced_rate,
            ops_per_s_untraced=untraced_rate,
            spans=len(tracer.spans),
            spans_file=str(spans_file),
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    wl = set_up(args.workload, args.seed, workdir)
    if args.setup_only:
        setup_wall_s = time.perf_counter() - _T0
        wl.close()
        alloc_s = statistics.median(alloc_probe() for _ in range(ALLOC_PROBES))
        setup_s = setup_wall_s * ALLOC_REF_S / alloc_s
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv" if args.trace else None
    result = run_workload(wl, args.seconds, spans_file)
    result.update(env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
