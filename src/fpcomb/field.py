"""Prime field arithmetic and the residue-set data model.

Residues are canonically stored in [0, p) and all arithmetic is reduced
eagerly, so every quantity downstream is computed with exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidOrder, ZeroDilation, ZeroInverse

# Witness bases making Miller-Rabin deterministic for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64 (and well beyond)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for an odd prime p.

    Primality is verified at construction; every downstream invariant
    assumes it.
    """

    p: int

    def __post_init__(self) -> None:
        if self.p < 3:
            raise ValueError(f"p must be an odd prime >= 3, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")

    def reduce(self, x: int) -> int:
        return x % self.p

    def inverse(self, x: int) -> int:
        """Multiplicative inverse of x mod p (x != 0)."""
        x %= self.p
        if x == 0:
            raise ZeroInverse(f"0 has no inverse mod {self.p}")
        return pow(x, self.p - 2, self.p)

    def primitive_root(self) -> int:
        return _primitive_root(self.p)

    def residues(self) -> range:
        return range(self.p)


@lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    """Smallest primitive root mod p; deterministic for reproducibility."""
    factors = _factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError(f"no primitive root found for {p}")  # unreachable


@lru_cache(maxsize=8)
def _log_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(log, antilog) for the primitive root g of p, built on first use.

    antilog[k] = g^k for 0 <= k < p - 1 and log[antilog[k]] = k; log[0] is
    -1.  With them a multiplicative structure over F_p* becomes a cyclic
    additive one of length p - 1 (Rader's trick).  Both are read-only.
    """
    g = _primitive_root(p)
    powers = [1] * (p - 1)
    for k in range(1, p - 1):
        powers[k] = powers[k - 1] * g % p
    antilog = np.array(powers, dtype=np.int64)
    log = np.full(p, -1, dtype=np.int64)
    log[antilog] = np.arange(p - 1)
    log.flags.writeable = False
    antilog.flags.writeable = False
    return log, antilog


@dataclass(frozen=True)
class ResidueSet:
    """A subset of F_p, stored as a strictly increasing residue tuple."""

    field: PrimeField
    elements: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        p = self.field.p
        elems = tuple(sorted(set(e % p for e in self.elements)))
        object.__setattr__(self, "elements", elems)

    @classmethod
    def of(cls, p: int | PrimeField, elements: Iterable[int]) -> "ResidueSet":
        fld = p if isinstance(p, PrimeField) else PrimeField(p)
        return cls(fld, tuple(elements))

    @property
    def p(self) -> int:
        return self.field.p

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    @cached_property
    def _members(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __contains__(self, x: int) -> bool:
        return x % self.p in self._members

    def as_set(self) -> set[int]:
        return set(self.elements)

    def indicator(self) -> list[int]:
        """0/1 profile of length p."""
        out = [0] * self.p
        for e in self.elements:
            out[e] = 1
        return out

    def negate(self) -> "ResidueSet":
        p = self.p
        return ResidueSet(self.field, tuple((-e) % p for e in self.elements))

    def translate(self, c: int) -> "ResidueSet":
        p = self.p
        return ResidueSet(self.field, tuple((e + c) % p for e in self.elements))

    def complement(self) -> "ResidueSet":
        present = self.as_set()
        return ResidueSet(
            self.field, tuple(x for x in range(self.p) if x not in present)
        )


def dilate(a: ResidueSet, s: int) -> ResidueSet:
    """The dilate s*A = {s a mod p : a in A}; s must be nonzero."""
    s %= a.p
    if s == 0:
        raise ZeroDilation("cannot dilate by 0")
    return ResidueSet(a.field, tuple(s * e % a.p for e in a.elements))


def is_symmetric(a: ResidueSet) -> bool:
    """True iff A = -A (mod p)."""
    elems = a.as_set()
    return all((-e) % a.p in elems for e in elems)


def multiplicative_subgroup(fld: PrimeField, d: int) -> ResidueSet:
    """The unique subgroup of F_p* of order d, for d | p - 1."""
    p = fld.p
    if d < 1 or (p - 1) % d != 0:
        raise InvalidOrder(f"order {d} does not divide p - 1 = {p - 1}")
    g = fld.primitive_root()
    h = pow(g, (p - 1) // d, p)
    elems = []
    x = 1
    for _ in range(d):
        elems.append(x)
        x = x * h % p
    return ResidueSet(fld, tuple(elems))
