"""Collinear triples, ratio sets, non-averaging sets and mixed energies.

The collinear-triple count is pinned to the geometric definition: ordered
triples of points of the grid A x A lying on a common affine line, where
triples with repeated points are collinear and an all-equal triple counts
once.  The fast count derives it from the direction profile q(lambda) as
T(A) = sum_lambda q(lambda)^2 + 3|A|^4 - 2|A|^3, and q(lambda) comes from
discrete-log autocorrelations on the exact convolution kernel; the brute
enumerator is the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

import numpy as np

from .avoidance import SearchResult, _search, count_solutions
from .energy import additive_energy
from .errors import BadOrder, BudgetExceeded, TooSmall, ZeroInX
from .families import AffineEquation
from .field import PrimeField, ResidueSet, _log_tables, dilate
from .harmonic import IntegerProfile, _cyclic_convolve_rows

_BRUTE_COLLINEAR_MAX = 8
# q_lambda transforms at most about this many row entries at once: batches
# of 2**12..2**18 entries were fastest near 2**13 at p = 151..1009, with a
# peak of about 1 MiB of arrays.
_ROW_BATCH_ELEMS = 1 << 13


def q_lambda(a: ResidueSet) -> dict[int, int]:
    """q(lambda) = #{(a1, a2, a0) in A^3 : (a1-a0)/(a2-a0) = lambda, a2 != a0}.

    q(0) = q(1) = |A|(|A|-1).  For the primitive root g, the triples with
    a2 - a0 = g^k and a1 - a0 = g^(k+j) give q(g^j) = sum over a0 in A of
    the cyclic autocorrelation at lag j of h(k) = 1_A(a0 + g^k), k mod
    p - 1, that is the convolution of h(-k) with h: the exact kernel runs
    over batches of rows, one row per a0.
    """
    n = len(a)
    if n < 2:
        raise TooSmall("q_lambda needs |A| >= 2")
    p = a.p
    _, antilog = _log_tables(p)
    ind = IntegerProfile.from_set(a).values
    acc = np.zeros(p - 1, dtype=np.int64)
    elems = np.array(a.elements, dtype=np.int64)[:, None]
    step = max(1, _ROW_BATCH_ELEMS // p)
    for start in range(0, n, step):
        h = ind[(antilog + elems[start : start + step]) % p]
        h_neg = np.roll(h[:, ::-1], 1, axis=1)
        acc += _cyclic_convolve_rows(h_neg, h, p - 1).sum(axis=0)
    counts = np.zeros(p, dtype=np.int64)
    counts[antilog] = acc
    counts[0] = n * (n - 1)
    return {lam: c for lam, c in enumerate(counts.tolist()) if c > 0}


def ratio_set(a: ResidueSet) -> ResidueSet:
    """R[A]: support of q(lambda); contains {0, 1} whenever |A| >= 2."""
    if len(a) < 2:
        return ResidueSet(a.field, ())
    return ResidueSet(a.field, tuple(q_lambda(a)))


@dataclass(frozen=True)
class CollinearStats:
    total: int
    expected: Fraction  # |A|^6 / p
    q_profile: dict[int, int]
    ratio_set: ResidueSet


def _collinear_brute(a: ResidueSet) -> int:
    p = a.p
    grid = [(x, y) for x in a for y in a]
    total = 0
    for p1 in grid:
        for p2 in grid:
            dx1 = (p2[0] - p1[0]) % p
            dy1 = (p2[1] - p1[1]) % p
            for p3 in grid:
                dx2 = (p3[0] - p1[0]) % p
                dy2 = (p3[1] - p1[1]) % p
                if (dx1 * dy2 - dy1 * dx2) % p == 0:
                    total += 1
    return total


def _q_profile(a: ResidueSet) -> dict[int, int]:
    """q_lambda(a), or {} when |A| < 2."""
    return q_lambda(a) if len(a) >= 2 else {}


def _triples_from_q(n: int, q: dict[int, int]) -> int:
    """T(A) = sum_lambda q(lambda)^2 + 3|A|^4 - 2|A|^3 for |A| = n.

    For points P = (a0, b0), Q = (a2, b2), R = (a1, b1) with a2 != a0 and
    b2 != b0, R is on the line PQ iff (a1-a0)/(a2-a0) = (b1-b0)/(b2-b0),
    so sum q^2 counts those triples.  The rest have Q = P (n^4 triples) or
    Q on the vertical or horizontal line through P, and then R on it too
    (n^3 (n-1) each).  With q = {} it also holds for n < 2.
    """
    return sum(c * c for c in q.values()) + 3 * n**4 - 2 * n**3


def collinear_triples(
    a: ResidueSet, mode: Literal["brute", "fast"] = "fast"
) -> CollinearStats:
    """T(A): ordered point triples of A x A on a common affine line."""
    if mode == "brute" and len(a) > _BRUTE_COLLINEAR_MAX:
        raise BudgetExceeded(f"brute mode supports |A| <= {_BRUTE_COLLINEAR_MAX}")
    qp = _q_profile(a)
    total = _collinear_brute(a) if mode == "brute" else _triples_from_q(len(a), qp)
    return CollinearStats(
        total=total,
        expected=Fraction(len(a) ** 6, a.p),
        q_profile=qp,
        ratio_set=ResidueSet(a.field, tuple(qp)),
    )


@dataclass(frozen=True)
class DeviationReport:
    total: int
    expected: Fraction
    deviation: Fraction  # |T - |A|^6/p|
    reference: float  # |A|^(40/9) p^(2/9)
    ratio: float


def collinear_deviation(a: ResidueSet) -> DeviationReport:
    """|T(A) - |A|^6/p| against |A|^(40/9) p^(2/9); trend report only."""
    return _deviation_report(a, _q_profile(a))


def _deviation_report(a: ResidueSet, q: dict[int, int]) -> DeviationReport:
    """collinear_deviation(a) from its precomputed q profile."""
    total = _triples_from_q(len(a), q)
    expected = Fraction(len(a) ** 6, a.p)
    deviation = abs(Fraction(total) - expected)
    reference = len(a) ** (40 / 9) * a.p ** (2 / 9) if len(a) else 1.0
    return DeviationReport(
        total=total,
        expected=expected,
        deviation=deviation,
        reference=reference,
        ratio=float(deviation) / reference,
    )


def _averaging_equation(fld: PrimeField, m: int, n: int) -> AffineEquation:
    return AffineEquation(m % fld.p, n % fld.p, (-(m + n)) % fld.p, 0)


def is_nonaveraging(a: ResidueSet, t: int) -> bool:
    """True iff m X1 + n X2 = (m+n) X3 has only diagonal solutions in A
    for every 1 <= m, n <= t."""
    if t < 1 or 2 * t >= a.p:
        raise BadOrder(f"need 1 <= t with 2t < p; got t={t}, p={a.p}")
    fld = a.field
    for m in range(1, t + 1):
        for n in range(1, t + 1):
            eq = _averaging_equation(fld, m, n)
            if count_solutions(fld, eq, a, a, a).count != len(a):
                return False
    return True


def max_nonaveraging(
    fld: PrimeField,
    t: int,
    mode: Literal["exhaustive", "greedy", "randomized"] = "exhaustive",
    budget: int = 50,
    seed: int = 0,
) -> SearchResult:
    """Largest non-averaging set of order t (exhaustive) or a witness.

    A non-averaging set is an avoiding set for the averaging equations with
    the solutions x = y = z allowed, so the avoiding-set search finds it.
    """
    if t < 1 or 2 * t >= fld.p:
        raise BadOrder(f"need 1 <= t with 2t < p; got t={t}, p={fld.p}")
    eqs = [
        _averaging_equation(fld, m, n)
        for m in range(1, t + 1)
        for n in range(1, t + 1)
    ]
    return _search(fld, eqs, True, mode, budget, seed)


@dataclass(frozen=True)
class MixedEnergyReport:
    total: int
    expected: Fraction  # |X| |A|^4 / p
    deviation: Fraction


def mixed_energy_sum(a: ResidueSet, x: ResidueSet) -> MixedEnergyReport:
    """sum over x in X of E+(A, xA), exactly, with its expectation."""
    if 0 in x:
        raise ZeroInX("X must avoid 0")
    total = 0
    for s in x:
        total += additive_energy(a, dilate(a, s)).value
    expected = Fraction(len(x) * len(a) ** 4, a.p)
    return MixedEnergyReport(
        total=total, expected=expected, deviation=Fraction(total) - expected
    )
