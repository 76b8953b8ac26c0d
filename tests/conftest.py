import random

import pytest
from hypothesis import settings

from fpcomb import AffineEquation, EquationFamily, PrimeField, ResidueSet

# Property tests draw the same examples on every run and machine.
settings.register_profile(
    "fpcomb", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("fpcomb")


@pytest.fixture
def rng():
    return random.Random(20260823)


def random_residue_set(rng: random.Random, fld: PrimeField, size: int) -> ResidueSet:
    size = max(0, min(size, fld.p))
    return ResidueSet(fld, tuple(rng.sample(range(fld.p), size)))


def random_family(rng: random.Random, fld: PrimeField, size: int) -> EquationFamily:
    """Random family with pairwise non-proportional coefficient triples."""
    p = fld.p
    seen: set[tuple[int, int]] = set()
    eqs: list[AffineEquation] = []
    guard = 0
    while len(eqs) < size and guard < 20 * size + 100:
        guard += 1
        a, b, c = (rng.randint(1, p - 1) for _ in range(3))
        d = rng.randint(0, p - 1)
        cinv = pow(c, p - 2, p)
        key = (a * cinv % p, b * cinv % p)
        if key in seen:
            continue
        seen.add(key)
        eqs.append(AffineEquation(a, b, c, d))
    return EquationFamily(fld, tuple(eqs))
