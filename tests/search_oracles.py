"""Oracles for the avoiding-set search.

`search_member_loop` is the reference for the forbidden-mask engine in
`fpcomb.avoidance._search`.  It shares the candidate order, the modes and
the shuffle with the engine and differs only in how a newcomer is tested,
so the two must return the same witness on every input.  The 2^p subset
enumerations give the largest avoiding and non-averaging sets at small p.
"""

import random
from typing import Sequence

from fpcomb import AffineEquation, EmptyFamily, EquationFamily, PrimeField, ResidueSet
from fpcomb.apps import is_nonaveraging
from fpcomb.avoidance import avoids


def constraint_order_loop(p: int, equations: Sequence[AffineEquation]) -> list[int]:
    """Residues by ascending count of diagonal solutions, each residue tried
    against each equation; the oracle for `avoidance._constraint_order`."""
    score = [0] * p
    for eq in equations:
        for r in range(p):
            if (eq.a + eq.b + eq.c) * r % p == eq.d % p:
                score[r] += 1
    return sorted(range(p), key=lambda r: (score[r], r))


def search_member_loop(
    fld: PrimeField,
    equations: Sequence[AffineEquation],
    allow_diagonal: bool,
    mode: str,
    budget: int,
    seed: int,
) -> tuple[int, ...]:
    """Witness of the search, testing a newcomer r against every member.

    The chosen set is an int bitmask, and r is tested with its bit set.  A
    solution that uses r either is (r, r, w), probed on its own, or has a
    member u in its x or y slot; pairing r, as x, y or z, with u as y, x or
    y leaves one coordinate to solve for and probe.  Exhaustive mode
    prunes only when the residues left cannot beat the best set.
    """
    p = fld.p
    order = constraint_order_loop(p, equations)
    # per equation and role of r, (d', k_r, k_u): the solved coordinate is
    # (d' - k_r r - k_u u) % p
    roles = []
    for eq in equations:
        ainv, cinv = fld.inverse(eq.a), fld.inverse(eq.c)
        roles.append((
            (eq.d * cinv % p, eq.a * cinv % p, eq.b * cinv % p),  # r=x, u=y: z
            (eq.d * cinv % p, eq.b * cinv % p, eq.a * cinv % p),  # r=y, u=x: z
            (eq.d * ainv % p, eq.c * ainv % p, eq.b * ainv % p),  # r=z, u=y: x
        ))

    def blocked(members: list[int], mask: int, r: int) -> bool:
        for (d1, r1, u1), (d2, r2, u2), (d3, r3, u3) in roles:
            b1, b2, b3 = d1 - r1 * r, d2 - r2 * r, d3 - r3 * r
            w = (b1 - u1 * r) % p
            if mask >> w & 1 and not (allow_diagonal and w == r):
                return True
            for u in members:
                if (
                    mask >> (b1 - u1 * u) % p & 1
                    or mask >> (b2 - u2 * u) % p & 1
                    or mask >> (b3 - u3 * u) % p & 1
                ):
                    return True
        return False

    best: list[int] = []
    if mode == "exhaustive":

        def extend(chosen: list[int], mask: int, pos: int) -> None:
            nonlocal best
            if len(chosen) > len(best):
                best = list(chosen)
            if len(chosen) + (p - pos) <= len(best):
                return
            for i in range(pos, p):
                r = order[i]
                grown = mask | 1 << r
                if not blocked(chosen, grown, r):
                    chosen.append(r)
                    extend(chosen, grown, i + 1)
                    chosen.pop()

        extend([], 0, 0)
    else:
        rng = random.Random(seed)
        for trial in range(1 if mode == "greedy" else max(1, budget)):
            candidates = list(order)
            if mode == "randomized" and trial > 0:
                rng.shuffle(candidates)
            chosen: list[int] = []
            mask = 0
            for r in candidates:
                grown = mask | 1 << r
                if not blocked(chosen, grown, r):
                    chosen.append(r)
                    mask = grown
            if len(chosen) > len(best):
                best = chosen
    return tuple(sorted(best))


def naive_max_avoiding(fld: PrimeField, family: EquationFamily) -> int:
    """2^p subset enumeration (oracle for p <= 13ish)."""
    if len(family) == 0:
        raise EmptyFamily("cannot search against an empty family")
    p = fld.p
    best = 0
    for mask in range(1 << p):
        elems = [r for r in range(p) if mask >> r & 1]
        if len(elems) <= best:
            continue
        if avoids(ResidueSet(fld, tuple(elems)), family):
            best = len(elems)
    return best


def naive_max_nonaveraging(fld: PrimeField, t: int) -> int:
    """2^p oracle for small p."""
    p = fld.p
    best = 0
    for mask in range(1 << p):
        elems = tuple(r for r in range(p) if mask >> r & 1)
        if len(elems) <= best:
            continue
        if is_nonaveraging(ResidueSet(fld, elems), t):
            best = len(elems)
    return best


def has_three_term_progression(a: ResidueSet) -> bool:
    """Direct scanner for x + y = 2z with (x, y, z) not all equal."""
    p = a.p
    elems = a.elements
    aset = a.as_set()
    inv2 = a.field.inverse(2)
    for x in elems:
        for y in elems:
            z = (x + y) * inv2 % p
            if z in aset and not (x == y == z):
                return True
    return False
