"""Golden outputs of the fpcomb CLI: seeded runs recorded as JSON files.

Each case is one `fpcomb` invocation that passes only options its
command reads.  A case file holds the argv, the exit code, stdout (parsed
JSON, else the raw text) and the `--out` file if the case writes one, with
every report's `timestamp` dropped.  `tests/test_golden.py` reruns each
case and compares it with its file.

Rewrite every file with

    PYTHONPATH=src python tests/golden/regen.py

A change that alters a golden value lists each changed file and field in
CHANGES.md and says why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from typing import Any

from fpcomb import cli

GOLDEN_DIR = Path(__file__).resolve().parent
FAMILY_FILE = GOLDEN_DIR / "family_p11.txt"

_SEEDS = (1, 7919)
_KINDS = (
    "verify",
    "parity",
    "avoid_search",
    "catalog",
    "collinear",
    "nonavg",
    "mixed",
    "spectrum_energy",
)

# name -> argv; "{family}" is FAMILY_FILE and "{out}" a fresh output path.
CASES: dict[str, list[str]] = {
    "verify": ["verify", "--p", "31", "--seed", "1", "--trials", "4", "--out", "{out}"],
    "energy": ["energy", "--p", "101", "--set", "1,2,3,5,8", "--set-b", "0,4,9", "--k", "3"],
    "spectrum": ["spectrum", "--p", "101", "--set", "1,2,3,4,5", "--epsilon", "0.4"],
    "family-subgroup": ["family", "--p", "7", "--kind", "subgroup", "--order", "3"],
    "family-lambda": ["family", "--p", "29", "--kind", "lambda", "--lambdas", "1,2,3"],
    "family-file": ["family", "--family-file", "{family}"],
    "avoid-check": ["avoid", "check", "--family-file", "{family}", "--set", "1,2"],
    "avoid-search": [
        "avoid", "search", "--family-file", "{family}",
        "--mode", "randomized", "--budget", "5", "--seed", "3",
    ],
    "avoid-construct": ["avoid", "construct", "--p", "1009", "--q", "8"],
    "collinear-fast": ["collinear", "--p", "101", "--set", "1,2,3,5,8", "--mode", "fast"],
    "collinear-brute": ["collinear", "--p", "101", "--set", "1,2,3,5,8", "--mode", "brute"],
    "nonavg-set": ["nonavg", "--p", "31", "--t", "1", "--set", "1,2,4,8"],
    "nonavg-search": [
        "nonavg", "--p", "31", "--t", "2", "--mode", "randomized", "--budget", "5", "--seed", "2",
    ],
    "mixed": ["mixed", "--p", "101", "--set", "1,2,3", "--x", "1,10"],
    "experiment-mixed-csv": [
        "experiment", "--kind", "mixed", "--primes", "31", "--seed", "1", "--format", "csv",
    ],
}
for _kind in _KINDS:
    for _seed in _SEEDS:
        CASES[f"experiment-{_kind}-s{_seed}"] = [
            "experiment", "--kind", _kind,
            "--primes", "101,1009" if _kind == "parity" else "31,101",
            "--seed", str(_seed),
        ]


def _parsed(text: str) -> Any:
    try:
        payload = json.loads(text)
    except ValueError:
        return text
    if isinstance(payload, dict):
        payload.pop("timestamp", None)
    return payload


def run_case(argv: list[str], workdir: Path) -> dict[str, Any]:
    """Run one case in process; the record that its golden file holds."""
    out = workdir / "out.txt"
    out.unlink(missing_ok=True)
    args = [a.replace("{family}", str(FAMILY_FILE)).replace("{out}", str(out)) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    record: dict[str, Any] = {"argv": argv, "exit": code, "stdout": _parsed(buf.getvalue())}
    if out.exists():
        record["out"] = _parsed(out.read_text(encoding="utf-8"))
    return record


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            record = run_case(argv, Path(tmp))
            text = json.dumps(record, indent=1, sort_keys=True)
            golden_path(name).write_text(text + "\n", encoding="utf-8")
            print(f"{name}: exit {record['exit']}", file=sys.stderr)


if __name__ == "__main__":
    main()
