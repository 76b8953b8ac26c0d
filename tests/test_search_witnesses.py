"""Pinned witnesses of the avoiding-set search engine.

The oracle tests compare sizes only; these pin the full witnesses, so a
change to the candidate order, the shuffle or the rejection rule fails
here even when the sizes stay the same.
"""

import pytest

from fpcomb import PrimeField, build_family, max_avoiding, max_nonaveraging


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_lambda_family_p29(mode):
    fld = PrimeField(29)
    fam = build_family(fld, "lambda", lambdas=[1, 2, 3])
    assert max_avoiding(fld, fam, mode).witness.elements == (1, 2, 3, 4, 5)


def test_subgroup_family_p211_randomized():
    fld = PrimeField(211)
    fam = build_family(fld, "subgroup", order=5)
    got = max_avoiding(fld, fam, "randomized", budget=10, seed=0)
    assert got.witness.elements == (
        8, 11, 12, 18, 27, 28, 32, 42, 43, 44, 48, 63, 65, 66, 72, 86, 88, 89,
        99, 108, 122, 129, 132, 146, 148, 162, 169, 170, 183, 184, 193, 198,
        199, 200, 203,
    )
    assert got.size == 35


def test_nonaveraging_t1_p23_exhaustive():
    got = max_nonaveraging(PrimeField(23), 1, "exhaustive")
    assert got.witness.elements == (0, 1, 3, 4, 9, 10)
    assert got.size == 6


def test_nonaveraging_t2_p101_greedy():
    got = max_nonaveraging(PrimeField(101), 2, "greedy")
    assert got.witness.elements == (0, 1, 4, 5, 11, 19, 20, 24, 59)


def test_nonaveraging_t2_p101_randomized():
    got = max_nonaveraging(PrimeField(101), 2, "randomized", budget=10, seed=5)
    assert got.witness.elements == (8, 16, 17, 23, 27, 34, 69, 80, 82, 97)
