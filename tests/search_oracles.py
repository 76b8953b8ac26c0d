"""Reference avoiding-set search with the member-loop check, used as an
oracle for the forbidden-mask engine in `fpcomb.avoidance._search`.

It shares the candidate order, the modes and the shuffle with the engine
and differs only in how a newcomer is tested, so the two must return the
same witness on every input.
"""

import random
from typing import Sequence

from fpcomb import AffineEquation, PrimeField
from fpcomb.avoidance import _constraint_order


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
    order = _constraint_order(p, equations)
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
