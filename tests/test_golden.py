"""Every golden CLI output (tests/golden/) is reproduced by the current code.

Ints, strings, bools and lists match exactly; floats match to a relative
1e-9, since they come from numpy FFTs and `math` powers.
"""

import json
import math

import pytest

from golden.regen import CASES, golden_path, run_case


def _assert_same(got, want, where="$"):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0), (where, got, want)
        return
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    want = json.loads(golden_path(name).read_text(encoding="utf-8"))
    got = json.loads(json.dumps(run_case(CASES[name], tmp_path)))
    _assert_same(got, want)
