"""Energy-type quantities: E+, Ex, T_k, sigma_k, restricted forms,
level sets and the dyadic pigeonhole decomposition.

Every function here returns exact integers (or exact rationals); the
floating-point Fourier expressions of the same quantities live in tests
as cross-checks only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log2
from typing import Literal

from .errors import AsymmetricP, EmptyMass, FieldMismatch
from .field import PrimeField, ResidueSet, is_symmetric
from .harmonic import (
    IntegerProfile,
    _power_sum,
    convolve_add,
    convolve_add_iterated,
    correlate_add,
)


@dataclass(frozen=True)
class EnergyValue:
    """An exact energy count, tagged with its kind."""

    kind: Literal["additive", "multiplicative"]
    value: int

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True)
class Decomposition:
    """Output of the dyadic pigeonhole decomposition: a subset and a level q
    with (A * P)(x) >= q on the subset."""

    subset: ResidueSet
    level: int


def _require_same_field(*sets: ResidueSet) -> None:
    ps = {s.p for s in sets}
    if len(ps) > 1:
        raise FieldMismatch(f"mixed moduli {sorted(ps)}")


def additive_energy(a: ResidueSet, b: ResidueSet) -> EnergyValue:
    """E+(A,B) = #{a1 + b1 = a2 + b2}, computed as sum_x (A*B)(x)^2."""
    _require_same_field(a, b)
    prof_a = IntegerProfile.from_set(a)
    prof_b = prof_a if b == a else IntegerProfile.from_set(b)
    conv = convolve_add(prof_a, prof_b)
    return EnergyValue("additive", _power_sum(conv.values, 2))


def multiplicative_energy(
    a: ResidueSet, b: ResidueSet, exclude_zero: bool = False
) -> EnergyValue:
    """Ex(A,B) = #{a1 b1 = a2 b2}.

    Zeros are included per the bare definition; exclude_zero drops them for
    subgroup experiments where the sets live in F_p*.
    """
    _require_same_field(a, b)
    p = a.p
    ae = [x for x in a if x != 0] if exclude_zero else list(a)
    be = [x for x in b if x != 0] if exclude_zero else list(b)
    counts = [0] * p
    for x in ae:
        for y in be:
            counts[x * y % p] += 1
    return EnergyValue("multiplicative", sum(c * c for c in counts))


def moment_T_k(a: ResidueSet, k: int) -> int:
    """T_k(A) = #{a1+...+ak = a'1+...+a'k}; T_1 = |A|, T_2 = E+(A)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    reps = convolve_add_iterated(IntegerProfile.from_set(a), k)
    return _power_sum(reps.values, 2)


def sigma_k(a: ResidueSet, k: int) -> int:
    """sigma_k(A) = #{a1 + ... + ak = 0} = (A *_k A)(0)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    reps = convolve_add_iterated(IntegerProfile.from_set(a), k)
    return reps[0]


def restricted_sigma(a: ResidueSet, pset: ResidueSet) -> int:
    """sigma_P(A) = sum_{x in P} (A o A)(x)."""
    _require_same_field(a, pset)
    corr = correlate_add(IntegerProfile.from_set(a), IntegerProfile.from_set(a))
    return _power_sum(corr.values[list(pset.elements)], 1)


def restricted_energy(a: ResidueSet, b: ResidueSet, pset: ResidueSet) -> int:
    """E_P(A,B) = sum_{x in P} (A o B)(x)^2."""
    _require_same_field(a, b, pset)
    corr = correlate_add(IntegerProfile.from_set(a), IntegerProfile.from_set(b))
    return _power_sum(corr.values[list(pset.elements)], 2)


def energy_star(a: ResidueSet) -> Fraction:
    """E+_*(A) = E+(A) - |A|^4 / p as an exact rational.

    Non-negative for every A (Parseval): p * E+(A) >= |A|^4.
    """
    e = additive_energy(a, a).value
    return Fraction(a.p * e - len(a) ** 4, a.p)


def sym_level_set(
    q: ResidueSet,
    r: ResidueSet,
    t: int,
    kind: Literal["additive", "multiplicative"] = "additive",
) -> ResidueSet:
    """Sym_t(Q,R) = {x : |Q cap (x - R)| >= t} (additive kind), or the
    multiplicative analogue over nonzero R."""
    _require_same_field(q, r)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    p = q.p
    qset = q.as_set()
    out = []
    if kind == "additive":
        for x in range(p):
            hits = sum(1 for rr in r if (x - rr) % p in qset)
            if hits >= t:
                out.append(x)
    else:
        rinv = [q.field.inverse(rr) for rr in r if rr != 0]
        for x in range(p):
            hits = sum(1 for ri in rinv if x * ri % p in qset)
            if hits >= t:
                out.append(x)
    return ResidueSet(q.field, tuple(out))


def dilate_level_set(a: ResidueSet, b: ResidueSet, tau: int) -> ResidueSet:
    """{ s != 0 : |A cap sB| >= tau }."""
    _require_same_field(a, b)
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    p = a.p
    aset = a.as_set()
    out = []
    for s in range(1, p):
        hits = sum(1 for e in b if s * e % p in aset)
        if hits >= tau:
            out.append(s)
    return ResidueSet(a.field, tuple(out))


def pigeonhole_decompose(a: ResidueSet, pset: ResidueSet) -> Decomposition:
    """Two-round dyadic pigeonholing.

    Returns (A*, q) with (A * P)(x) >= q for every x in A*, where
    q <= 4 (1 + log2 |A|) |A*| and |A*| q is within a factor
    8 (1 + log2 |A|)^2 of sigma_P(A).
    """
    _require_same_field(a, pset)
    if not is_symmetric(pset):
        raise AsymmetricP("P must satisfy P = -P")
    prof_a = IntegerProfile.from_set(a)
    prof_p = IntegerProfile.from_set(pset)
    f = convolve_add(prof_a, prof_p)
    mass = sum(f[x] for x in a)
    if mass == 0:
        raise EmptyMass("sigma_P(A) = 0")

    def dominant_class(profile: IntegerProfile) -> tuple[list[int], int]:
        # dyadic classes by value; keep the one maximizing |class| * min
        classes: dict[int, list[int]] = {}
        for x in a:
            v = profile[x]
            if v > 0:
                classes.setdefault(v.bit_length() - 1, []).append(x)
        best_j = max(classes, key=lambda j: len(classes[j]) << j)
        members = classes[best_j]
        return members, min(profile[x] for x in members)

    a1, q1 = dominant_class(f)
    if q1 <= 4 * (1 + log2(len(a))) * len(a1):
        return Decomposition(ResidueSet(a.field, tuple(a1)), q1)

    # second round: convolve the selected subset with P and pigeonhole again
    g = convolve_add(IntegerProfile.from_set(ResidueSet.of(a.field, a1)), prof_p)
    a2, q2 = dominant_class(g)
    return Decomposition(ResidueSet(a.field, tuple(a2)), q2)
