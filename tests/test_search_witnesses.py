"""Pinned witnesses of the avoiding-set search engine.

The oracle tests compare sizes only; these pin the full witnesses, so a
change to the candidate order, the shuffle or the rejection rule fails
here even when the sizes stay the same.  The property test compares full
witnesses with the member-loop engine of `search_oracles`.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpcomb import (
    AffineEquation,
    BudgetExceeded,
    PrimeField,
    build_family,
    max_avoiding,
    max_nonaveraging,
)
from fpcomb.avoidance import _constraint_order, _search
from search_oracles import constraint_order_loop, search_member_loop


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


def test_lambda_family_p31_exhaustive():
    fld = PrimeField(31)
    fam = build_family(fld, "lambda", lambdas=[1, 2, 3])
    got = max_avoiding(fld, fam, "exhaustive")
    assert got.witness.elements == (1, 2, 3, 4, 5, 6)
    assert got.size == 6


def test_nonaveraging_t1_p29_exhaustive():
    got = max_nonaveraging(PrimeField(29), 1, "exhaustive")
    assert got.witness.elements == (0, 1, 3, 4, 9, 10, 12, 13)
    assert got.size == 8


def test_exhaustive_cap_p37():
    fld = PrimeField(37)
    fam = build_family(fld, "lambda", lambdas=[1, 2, 3])
    with pytest.raises(BudgetExceeded):
        max_avoiding(fld, fam, "exhaustive")
    with pytest.raises(BudgetExceeded):
        max_nonaveraging(fld, 1, "exhaustive")


@st.composite
def explicit_equations(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23)))
    coef = st.integers(1, p - 1)
    eqs = draw(
        st.lists(
            st.builds(AffineEquation, coef, coef, coef, coef), min_size=1, max_size=4
        )
    )
    return PrimeField(p), eqs


@given(
    explicit_equations(),
    st.booleans(),
    st.sampled_from(("exhaustive", "greedy", "randomized")),
    st.integers(1, 6),
    st.integers(0, 2**16),
)
def test_matches_member_loop_oracle(fld_eqs, allow_diagonal, mode, budget, seed):
    fld, eqs = fld_eqs
    got = _search(fld, eqs, allow_diagonal, mode, budget, seed)
    want = search_member_loop(fld, eqs, allow_diagonal, mode, budget, seed)
    assert got.witness.elements == want
    assert got.size == len(want)


@st.composite
def order_instances(draw):
    """Equations at p <= 31, some with a + b + c = 0 and d = 0 (every residue
    a diagonal solution) or d != 0 (none)."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
    kinds = st.sampled_from(("any", "sum0-d0", "sum0-d"))
    eqs = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        a = draw(st.integers(1, p - 1))
        b = draw(st.integers(1, p - 1).filter(lambda b: (a + b) % p))
        if kind == "any":
            c, d = draw(st.integers(1, p - 1)), draw(st.integers(0, p - 1))
        else:
            c = (-a - b) % p
            d = 0 if kind == "sum0-d0" else draw(st.integers(1, p - 1))
        eqs.append(AffineEquation(a, b, c, d))
    return p, eqs


@given(order_instances())
def test_constraint_order_matches_loop(instance):
    p, eqs = instance
    assert _constraint_order(p, eqs) == constraint_order_loop(p, eqs)
