"""Outside-in tracing of fpcomb's public functions for the traced run.

`install` replaces each listed function, in every loaded fpcomb module that
binds it, with a wrapper; `PrimeField` and `ResidueSet` construction is
timed by wrapping the classes' `__post_init__`.  While an operation is open
(`begin_op` .. `end_op`) each wrapped call records a span (name, start, end,
parent, op id) on an in-memory stack; outside an operation the wrappers
pass straight through, so the benchmark's own checks are not counted.
`uninstall` restores every binding.  No library code is changed.

Self time is a span's duration minus the durations of its direct wrapped
children; total time is the whole duration.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

# Functions wrapped per fpcomb module.
LAYERS: dict[str, tuple[str, ...]] = {
    "harmonic": ("convolve_add", "correlate_add", "convolve_mult", "dft"),
    "avoidance": ("count_solutions", "avoids", "max_avoiding"),
    "apps": (
        "q_lambda",
        "collinear_deviation",
        "mixed_energy_sum",
        "max_nonaveraging",
        "is_nonaveraging",
    ),
    "energy": ("additive_energy", "multiplicative_energy", "moment_T_k", "energy_star"),
    "spectral": (
        "spectrum",
        "spectrum_size_bound_check",
        "les_inequality_check",
        "spectrum_mult_energy_report",
    ),
    "families": ("t_invariant", "t_star_invariant"),
    "field": ("PrimeField", "ResidueSet", "dilate", "multiplicative_subgroup"),
    "reports": ("run_experiment", "run_verify"),
    "cli": ("main",),
}

# These call no other wrapped function, so total_s would repeat self_s.
LEAVES = frozenset(
    {
        "harmonic.convolve_add",
        "harmonic.correlate_add",
        "harmonic.convolve_mult",
        "harmonic.dft",
        "apps.q_lambda",
        "energy.multiplicative_energy",
        "field.PrimeField",
        "field.ResidueSet",
    }
)

# Functions whose input length p is summed into `elems`.
SIZED = ("harmonic.convolve_add", "harmonic.dft")

# Search results whose `.size` is averaged into witness_size_mean.
SEARCHES = ("avoidance.max_avoiding", "apps.max_nonaveraging")

# convolve_add split by p; the bands stand in for the kernel's dispatch
# path, which is not visible from outside.
BANDS = ("p_small", "p_mid", "p_large")

CONVOLVE = "harmonic.convolve_add"


def band(p: int) -> str:
    if p < 1 << 10:
        return "p_small"
    if p < 1 << 15:
        return "p_mid"
    return "p_large"


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name not in LEAVES:
            units[f"{name}.total_s"] = "s"
        units[f"{name}.errors"] = "count"
        if name in SIZED:
            units[f"{name}.elems"] = "count"
            units[f"{name}.ns_per_elem"] = "ns"
    for b in BANDS:
        units[f"{CONVOLVE}.{b}_calls"] = "count"
        units[f"{CONVOLVE}.{b}_ns_per_elem"] = "ns"
    units["avoidance.count_solutions.conv_share"] = "ratio"
    units["avoidance.avoids.eqs_per_call"] = "count"
    for name in SEARCHES:
        units[f"{name}.witness_size_mean"] = "count"
    units["spectral.spectrum.calls_per_op"] = "count"
    units["harmonic.dft.calls_per_op"] = "count"
    units["bench.trace_overhead_ratio"] = "ratio"
    units["bench.failed_ops_share"] = "ratio"
    return units


class _Stat:
    __slots__ = (
        "calls",
        "errors",
        "self_s",
        "total_s",
        "elems",
        "witness",
        "child_calls",
        "calls_with",
    )

    def __init__(self) -> None:
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.elems = 0
        self.witness = 0
        self.child_calls: Counter[str] = Counter()  # direct wrapped children
        self.calls_with: Counter[str] = Counter()  # calls with >= 1 such child


class Tracer:
    def __init__(self) -> None:
        # (span id, name, start, end, parent span id, op id); times are
        # perf_counter seconds since the tracer was created.
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.stats = {name: _Stat() for name in function_names()}
        self.band_calls = Counter()
        self.band_self_s = Counter()
        self.band_elems = Counter()
        self.ops = 0
        self._origin = time.perf_counter()
        self._op_id: int | None = None
        # Open frames: [name, start, child seconds, span id, child names].
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._patches:
            return
        modules = [
            m for n, m in sys.modules.items() if n == "fpcomb" or n.startswith("fpcomb.")
        ]
        for mod_name, fns in LAYERS.items():
            module = importlib.import_module(f"fpcomb.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name)
                if isinstance(original, type):
                    hook = original.__dict__["__post_init__"]
                    self._patch(original, "__post_init__", hook, self._wrap(name, hook))
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- spans

    def begin_op(self, label: str) -> None:
        self._op_id = self.ops
        self._stack.append([f"op.{label}", time.perf_counter(), 0.0, len(self.spans), None])
        self.spans.append(None)  # type: ignore[arg-type]  # filled by end_op

    def end_op(self) -> None:
        name, start, _, span_id, _ = self._stack.pop()
        end = time.perf_counter()
        self.spans[span_id] = (
            span_id, name, start - self._origin, end - self._origin, -1, self._op_id
        )
        self._op_id = None
        self.ops += 1

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        sized = name in SIZED
        is_convolve = name == CONVOLVE
        is_search = name in SEARCHES
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._op_id is None:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span_id = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            frame = [name, clock(), 0.0, span_id, None]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self_s = duration - frame[2]
                parent[2] += duration
                if parent[4] is None:
                    parent[4] = Counter()
                parent[4][name] += 1
                spans[span_id] = (
                    span_id,
                    name,
                    frame[1] - self._origin,
                    end - self._origin,
                    parent[3],
                    self._op_id,
                )
                stat.calls += 1
                stat.self_s += self_s
                stat.total_s += duration
                if frame[4]:
                    stat.child_calls.update(frame[4])
                    stat.calls_with.update(frame[4].keys())
                if sized:
                    p = args[0].p
                    stat.elems += p
                    if is_convolve:
                        b = band(p)
                        self.band_calls[b] += 1
                        self.band_self_s[b] += self_s
                        self.band_elems[b] += p
                if is_search and result is not None:
                    stat.witness += result.size

        return wrapper

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        """Per-layer values for every name in metric_units() except the
        bench.* entries, which the caller fills in."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            if name not in LEAVES:
                out[f"{name}.total_s"] = st.total_s
            out[f"{name}.errors"] = st.errors
            if name in SIZED:
                out[f"{name}.elems"] = st.elems
                out[f"{name}.ns_per_elem"] = _ratio(st.self_s * 1e9, st.elems)
        for b in BANDS:
            out[f"{CONVOLVE}.{b}_calls"] = self.band_calls[b]
            out[f"{CONVOLVE}.{b}_ns_per_elem"] = _ratio(
                self.band_self_s[b] * 1e9, self.band_elems[b]
            )
        count = self.stats["avoidance.count_solutions"]
        out["avoidance.count_solutions.conv_share"] = _ratio(
            count.calls_with[CONVOLVE], count.calls
        )
        avoids = self.stats["avoidance.avoids"]
        out["avoidance.avoids.eqs_per_call"] = _ratio(
            avoids.child_calls["avoidance.count_solutions"], avoids.calls
        )
        for name in SEARCHES:
            st = self.stats[name]
            out[f"{name}.witness_size_mean"] = _ratio(st.witness, st.calls)
        for name in ("spectral.spectrum", "harmonic.dft"):
            out[f"{name}.calls_per_op"] = _ratio(self.stats[name].calls, self.ops)
        return out

    def module_self_s(self) -> dict[str, float]:
        shares: Counter[str] = Counter()
        for name, st in self.stats.items():
            shares[name.split(".")[0]] += st.self_s
        return dict(shares)

    def write_spans(self, path: Path) -> None:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span_id", "name", "start_s", "end_s", "parent_id", "op_id"))
            writer.writerows(s for s in self.spans if s is not None)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
