"""Exhaustive T and T* over all subsets of a family, oracles for the
invariants in `fpcomb.families` on small families."""

import itertools

from fpcomb import EquationFamily
from fpcomb.families import PLANES, _tstar_valid


def brute_force_t(family: EquationFamily) -> int:
    """Exhaustive T over all subsets and planes (oracle for small |E|)."""
    n = len(family)
    best = 0
    for plane in PLANES:
        coords = [family.plane_coordinates(i, plane) for i in range(n)]
        for r in range(n, best, -1):
            found = False
            for combo in itertools.combinations(range(n), r):
                firsts = {coords[i][0] for i in combo}
                seconds = {coords[i][1] for i in combo}
                if len(firsts) == r and len(seconds) == r:
                    found = True
                    break
            if found:
                best = max(best, r)
                break
    return best


def brute_force_t_star(family: EquationFamily) -> int:
    """Exhaustive T* over all subsets (oracle for small |E|)."""
    n = len(family)
    attrs = [family.attributes(i) for i in range(n)]
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if _tstar_valid([attrs[i] for i in combo]):
                return r
    return 0
