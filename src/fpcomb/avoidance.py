"""Solution counting, avoiding sets, the parity construction, exhaustive
and heuristic avoiding-set search, and the exponent catalog for reports."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .errors import (
    BadParameter,
    BudgetExceeded,
    EmptyFamily,
    FieldMismatch,
)
from .families import AffineEquation, EquationFamily, parity_family_equations
from .field import PrimeField, ResidueSet
from .harmonic import IntegerProfile, _power_sum, convolve_add

_EXHAUSTIVE_MAX_P = 31
_SEARCH_MODES = ("exhaustive", "greedy", "randomized")

# count_solutions convolves once when |A1||A2| > max(_PAIRWISE_WORK_LIMIT, p).
# Measured: pairwise costs about 0.25 us per pair; one convolution costs
# about 0.27 us per unit of p, with a floor near 0.2 ms for small p.
_PAIRWISE_WORK_LIMIT = 1_000


@dataclass(frozen=True)
class SolutionCount:
    equation: AffineEquation
    count: int
    expected: Fraction  # |A1||A2||A3| / p


@dataclass(frozen=True)
class SearchResult:
    size: int
    witness: ResidueSet


@dataclass(frozen=True)
class BoundCatalogEntry:
    """One exponent kappa from the bound table; threshold is p / t^kappa."""

    name: str
    kappa: Fraction
    hypothesis: str
    source: str

    def __post_init__(self) -> None:
        if not 0 < self.kappa <= 1:
            raise ValueError(f"kappa must lie in (0, 1], got {self.kappa}")


BOUND_CATALOG: tuple[BoundCatalogEntry, ...] = (
    BoundCatalogEntry(
        "avoiding-headline", Fraction(3, 20), "|A| >> p^(39/47)", "headline"
    ),
    BoundCatalogEntry(
        "avoiding-T", Fraction(10, 31), "|A| >> p^(39/47)", "main-T"
    ),
    BoundCatalogEntry(
        "avoiding-Tstar", Fraction(3, 10), "|A| >> p^(39/47)", "main-Tstar"
    ),
    BoundCatalogEntry(
        "avoiding-Tstar-energy",
        Fraction(35, 159),
        "|A| >> p^(7/9), T* < p^(2/3); scaled by (E+_*/|A|^3)^(22/159)",
        "main-Tstar-energy",
    ),
    BoundCatalogEntry(
        "avoiding-Tstar-energy-alt",
        Fraction(69, 183),
        "second branch of the energy-weighted bound",
        "main-Tstar-energy",
    ),
    BoundCatalogEntry(
        "avoiding-family-size", Fraction(5, 31), "|A| >> p^(39/47)", "family-size"
    ),
    BoundCatalogEntry(
        "non-averaging", Fraction(2, 3), "t < sqrt(p)", "non-averaging"
    ),
    BoundCatalogEntry(
        "lower-construction", Fraction(1, 2), "parity construction", "lower-bound"
    ),
    BoundCatalogEntry(
        "avoiding-simple", Fraction(1, 3), "general field argument", "simple-proof"
    ),
)


def bound_threshold(entry: BoundCatalogEntry, p: int, t: int) -> float:
    """p / t^kappa; report-only, the implied constants are unspecified."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return p / t ** float(entry.kappa)


def count_solutions(
    fld: PrimeField,
    eq: AffineEquation,
    a1: ResidueSet,
    a2: ResidueSet,
    a3: ResidueSet,
) -> SolutionCount:
    """Exact |{(x,y,z) in A1 x A2 x A3 : a x + b y + c z = d}|."""
    p = fld.p
    for s in (a1, a2, a3):
        if s.p != p:
            raise FieldMismatch(f"set over p={s.p}, equation over p={p}")
    expected = Fraction(len(a1) * len(a2) * len(a3), p)
    if len(a1) * len(a2) > max(_PAIRWISE_WORK_LIMIT, p):
        # one exact convolution: count = sum_z (aA1 * bA2)(d - c z)
        fa = np.bincount([eq.a * x % p for x in a1], minlength=p)
        fb = np.bincount([eq.b * y % p for y in a2], minlength=p)
        conv = convolve_add(IntegerProfile(fld, fa), IntegerProfile(fld, fb))
        count = _power_sum(conv.values[[(eq.d - eq.c * z) % p for z in a3]], 1)
        return SolutionCount(eq, count, expected)
    a3set = a3.as_set()
    cinv = fld.inverse(eq.c)
    count = 0
    for x in a1:
        ax = eq.a * x % p
        for y in a2:
            z = (eq.d - ax - eq.b * y) * cinv % p
            if z in a3set:
                count += 1
    return SolutionCount(eq, count, expected)


def avoids(a: ResidueSet, family: EquationFamily) -> bool:
    """True iff A has no solution of any equation; short-circuits."""
    if a.p != family.p:
        raise FieldMismatch(f"set over p={a.p}, family over p={family.p}")
    for eq in family.equations:
        if count_solutions(family.field, eq, a, a, a).count > 0:
            return False
    return True


@dataclass(frozen=True)
class ParityConstruction:
    a: ResidueSet
    family: EquationFamily


def construct_parity_set(fld: PrimeField, q: int) -> ParityConstruction:
    """Odd residues below p/q avoid the even-coefficient family.

    |A| = ceil((ceil(p/q) - 1) / 2) and |E| = floor(q/4)^2; the parity of
    i x + j y forces a contradiction, so avoids() is true by construction.
    """
    p = fld.p
    eqs = parity_family_equations(fld, q)  # validates q
    if not eqs:
        raise BadParameter(f"q = {q} yields an empty family")
    limit = -(-p // q)  # ceil(p / q)
    elements = tuple(x for x in range(1, limit) if x % 2 == 1)
    return ParityConstruction(
        ResidueSet(fld, elements), EquationFamily(fld, tuple(eqs))
    )


def _constraint_order(p: int, equations: Sequence[AffineEquation]) -> list[int]:
    """Residues ordered by ascending count of diagonal solutions.

    A residue r scores one for each equation that x = y = z = r solves;
    no other solution is counted.  Higher scores are tried last, ties
    broken by value for determinism.  x = y = z = r solves ax + by + cz = d
    iff (a + b + c) r = d: one root when a + b + c != 0, else every residue
    (d = 0) or none, and a score added to every residue leaves the order as
    it is.
    """
    score = [0] * p
    for eq in equations:
        s = (eq.a + eq.b + eq.c) % p
        if s:
            score[eq.d * pow(s, -1, p) % p] += 1
    return sorted(range(p), key=lambda r: (score[r], r))


def _search(
    fld: PrimeField,
    equations: Sequence[AffineEquation],
    allow_diagonal: bool,
    mode: Literal["exhaustive", "greedy", "randomized"],
    budget: int,
    seed: int,
) -> SearchResult:
    """Largest set with no solution of any equation (exhaustive branch and
    bound) or a valid witness (greedy, randomized restarts).

    With allow_diagonal, the solutions x = y = z are allowed.  Sets are p-bit
    int masks.  For each coefficient ratio k = c_j/c_k of the equations,
    N_k = {-k u : u in A}.  The forbidden mask F holds every residue that
    completes a solution with two members of A: accepting r adds r to each
    N_k, then ORs into F, for each equation and each placement of r in slot
    i and a member (or r) in slot j, N_{c_j/c_k} rotated by
    d/c_k - (c_i/c_k) r.  A newcomer r is then tested by its bit of F and by
    three probes per equation for the solutions that use r twice, (r, r, w),
    (r, w, r) and (w, r, r) with w in A or w = r.  Exhaustive mode passes F
    and the N_k down the recursion.  F only grows along a branch, so before
    each candidate the candidates left outside F bound what the branch can
    still add; it is cut only when it cannot beat the best set found, so
    the first optimum in search order is returned.
    """
    if mode not in _SEARCH_MODES:
        raise BadParameter(
            f"unknown search mode {mode!r}; expected one of {', '.join(_SEARCH_MODES)}"
        )
    p = fld.p
    if mode == "exhaustive" and p > _EXHAUSTIVE_MAX_P:
        raise BudgetExceeded(f"exhaustive mode supports p <= {_EXHAUSTIVE_MAX_P}")
    order = _constraint_order(p, equations)
    full = (1 << p) - 1
    # Slot k of an equation solved from the other two, with d' = d/c_k:
    # r in both gives w = d' - ((c_i + c_j)/c_k) r, kept in `twice` as
    # (d', (c_i + c_j)/c_k); r in slot i and u in A in slot j give the
    # residues N_{c_j/c_k} rotated by d' - (c_i/c_k) r, kept in `once` as
    # (index of c_j/c_k, d', c_i/c_k).  Dicts keep each entry once, in order.
    ratios: dict[int, int] = {}
    twice: dict[tuple[int, int], None] = {}
    once: dict[tuple[int, int, int], None] = {}
    for eq in equations:
        coef = (eq.a, eq.b, eq.c)
        for k in range(3):
            kinv = fld.inverse(coef[k])
            dk = eq.d * kinv % p
            i, j = (s for s in range(3) if s != k)
            twice[dk, (coef[i] + coef[j]) * kinv % p] = None
            for i, j in ((i, j), (j, i)):
                idx = ratios.setdefault(coef[j] * kinv % p, len(ratios))
                once[idx, dk, coef[i] * kinv % p] = None
    negated = [-k % p for k in ratios]

    def blocked(mask: int, forbidden: int, r: int) -> bool:
        if forbidden >> r & 1:
            return True
        if not allow_diagonal:
            mask |= 1 << r  # w = r is the solution (r, r, r)
        return any(mask >> (dk - kr * r) % p & 1 for dk, kr in twice)

    def accept(
        ns: tuple[int, ...], forbidden: int, r: int
    ) -> tuple[tuple[int, ...], int]:
        ns = tuple(n | 1 << m * r % p for n, m in zip(ns, negated))
        for idx, dk, ki in once:
            b = (dk - ki * r) % p
            forbidden |= ns[idx] << b | ns[idx] >> p - b
        return ns, forbidden & full

    empty = (0,) * len(ratios)
    best: list[int] = []
    if mode == "exhaustive":
        suffix = [0] * (p + 1)  # suffix[i]: mask of order[i:]
        for i in range(p - 1, -1, -1):
            suffix[i] = suffix[i + 1] | 1 << order[i]

        def extend(
            chosen: list[int], mask: int, ns: tuple[int, ...], forbidden: int, pos: int
        ) -> None:
            nonlocal best
            if len(chosen) > len(best):
                best = list(chosen)
            for i in range(pos, p):
                if len(chosen) + (suffix[i] & ~forbidden).bit_count() <= len(best):
                    return
                r = order[i]
                if not blocked(mask, forbidden, r):
                    chosen.append(r)
                    extend(chosen, mask | 1 << r, *accept(ns, forbidden, r), i + 1)
                    chosen.pop()

        extend([], 0, empty, 0, 0)
    else:
        rng = random.Random(seed)
        for trial in range(1 if mode == "greedy" else max(1, budget)):
            candidates = list(order)
            if mode == "randomized" and trial > 0:
                rng.shuffle(candidates)
            chosen: list[int] = []
            mask = forbidden = 0
            ns = empty
            for r in candidates:
                if not blocked(mask, forbidden, r):
                    chosen.append(r)
                    mask |= 1 << r
                    ns, forbidden = accept(ns, forbidden, r)
            if len(chosen) > len(best):
                best = chosen
    return SearchResult(len(best), ResidueSet(fld, tuple(best)))


def max_avoiding(
    fld: PrimeField,
    family: EquationFamily,
    mode: Literal["exhaustive", "greedy", "randomized"] = "exhaustive",
    budget: int = 50,
    seed: int = 0,
) -> SearchResult:
    """Largest avoiding set (exhaustive) or a valid witness (heuristics)."""
    if len(family) == 0:
        raise EmptyFamily("cannot search against an empty family")
    if family.p != fld.p:
        raise FieldMismatch(f"family over p={family.p}, field p={fld.p}")
    return _search(fld, family.equations, False, mode, budget, seed)


@dataclass(frozen=True)
class RegimeEntry:
    equation: AffineEquation
    count: int
    low: Fraction
    high: Fraction
    regime: Literal["below", "typical", "above"]


def deviation_regime(
    family: EquationFamily, a: ResidueSet
) -> list[RegimeEntry]:
    """Classify each equation's solution count against |A|^3/(4p), 2|A|^3/p."""
    p = family.p
    low = Fraction(len(a) ** 3, 4 * p)
    high = Fraction(2 * len(a) ** 3, p)
    out = []
    for eq in family.equations:
        cnt = count_solutions(family.field, eq, a, a, a).count
        if cnt <= low:
            regime: Literal["below", "typical", "above"] = "below"
        elif cnt >= high:
            regime = "above"
        else:
            regime = "typical"
        out.append(RegimeEntry(eq, cnt, low, high, regime))
    return out
