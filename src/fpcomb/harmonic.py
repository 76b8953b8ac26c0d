"""Exact convolutions and floating-point Fourier transforms over Z/pZ.

Two parallel computational paths are kept deliberately separate:

* counting quantities (convolutions, energies, solution counts) are
  computed with exact integer arithmetic.  One cyclic kernel, of any
  length, dispatches between three paths: schoolbook for short lengths; a
  float FFT product rounded to integers, taken only when Percival's
  a-priori error bound is below 1/4 and kept only when the rounded result
  passes its run-time checks; and big-integer coefficient packing
  (Kronecker substitution) for huge coefficients or whenever the FFT
  result cannot be certified.  Additive convolutions run it at length p;
  multiplicative ones over F_p* run it at length p - 1 on discrete logs
  (Rader's trick);
* spectrum magnitudes are computed in double precision by an O(p log p)
  transform (numpy's pocketfft, which handles prime lengths via
  Bluestein's chirp).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import FieldMismatch
from .field import PrimeField, ResidueSet, _log_tables

# Up to this length np.convolve beats the FFT path (measured crossover
# near 300 on 0/1 inputs).
_SCHOOLBOOK_MAX_P = 300

_INT64_LIMIT = 1 << 63
_EPS = 2.0**-53


def _exact_array(values: Iterable[int]) -> np.ndarray:
    """A fresh int64 array of `values`, or an object array of Python ints
    when some value does not fit in int64."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "bi":
        return values.astype(np.int64)
    ints = [operator.index(v) for v in values]
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


def _power_sum(values: np.ndarray, k: int) -> int:
    """Exact sum of v**k over non-negative integers, as a Python int.

    Sums in int64 when max**k * len < 2**63, so no term or partial sum can
    overflow; otherwise sums Python ints.
    """
    if values.size == 0:
        return 0
    if values.dtype != object and int(values.max()) ** k * values.size < _INT64_LIMIT:
        return int((values if k == 1 else values**k).sum())
    return sum(v**k for v in values.tolist())


@dataclass(frozen=True, eq=False)
class IntegerProfile:
    """An exact integer-valued function on F_p (e.g. representation counts).

    `values` is a read-only int64 array, or an object array of Python ints
    when some value does not fit in int64; tuples and lists are accepted.
    """

    field: PrimeField
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _exact_array(self.values)
        if vals.shape != (self.field.p,):
            raise ValueError(f"profile length {len(vals)} != p = {self.field.p}")
        if vals.size and vals.min() < 0:
            raise ValueError("profile values must be non-negative")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerProfile):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.field, tuple(self.values.tolist())))

    @classmethod
    def from_set(cls, a: ResidueSet) -> "IntegerProfile":
        vals = np.zeros(a.p, dtype=np.int64)
        vals[list(a.elements)] = 1
        return cls(a.field, vals)

    @classmethod
    def delta(cls, fld: PrimeField, x: int) -> "IntegerProfile":
        vals = np.zeros(fld.p, dtype=np.int64)
        vals[x % fld.p] = 1
        return cls(fld, vals)

    @property
    def p(self) -> int:
        return self.field.p

    def total(self) -> int:
        return _power_sum(self.values, 1)

    def __getitem__(self, x: int) -> int:
        return int(self.values[x % self.p])

    def support(self) -> ResidueSet:
        return ResidueSet(self.field, tuple(np.flatnonzero(self.values).tolist()))


def _check_same_field(f: IntegerProfile, g: IntegerProfile) -> None:
    if f.field.p != g.field.p:
        raise FieldMismatch(f"p = {f.field.p} vs p = {g.field.p}")


def _fold(lin: np.ndarray, n: int) -> np.ndarray:
    """Wrap length-(2n - 1) linear convolutions (last axis) onto Z/nZ."""
    out = lin[..., :n].copy()
    out[..., : n - 1] += lin[..., n:]
    return out


def _fft_error_bound(norm_product: float, k: int) -> float:
    """Percival's bound (Math. Comp. 72, 2003) on the max-norm error of a
    product computed by float64 FFTs of length 2**k, for inputs whose
    Euclidean norms multiply to `norm_product`; the error of the
    precomputed roots of unity is taken as one unit roundoff."""
    log_growth = 6 * k * math.log1p(_EPS) + (3 * k + 1) * math.log1p(
        _EPS * math.sqrt(5)
    )
    return norm_product * math.expm1(log_growth)


def _fft_cyclic(
    f: np.ndarray,
    g: np.ndarray,
    n: int,
    bound: int | np.ndarray,
    total: int | np.ndarray,
) -> np.ndarray | None:
    """Cyclic convolution by a rounded float FFT of length 2**k >= 2n - 1.

    f and g are one length-n array each, or (m, n) stacks convolved row by
    row in one batched transform, with `bound` and `total` given per row.
    Returns None when the a-priori error bound of some row is not below
    1/4, or when some rounded row fails a run-time check: every raw value
    within 1/4 of an integer, every rounded value in [0, bound], and the
    rounded values summing to sum(f) * sum(g) exactly.
    """
    k = (2 * n - 2).bit_length()
    size = 1 << k
    ff = f.astype(np.float64)
    gg = ff if g is f else g.astype(np.float64)
    # einsum, not `@`: a BLAS dot may wake threads that compete with the FFT.
    norm_product = np.sqrt(
        np.einsum("...i,...i->...", ff, ff) * np.einsum("...i,...i->...", gg, gg)
    )
    if not (_fft_error_bound(norm_product, k) < 0.25).all():
        return None
    spec = np.fft.rfft(ff, size)
    spec *= spec if g is f else np.fft.rfft(gg, size)
    raw = np.fft.irfft(spec, size)[..., : 2 * n - 1]
    lin = np.rint(raw)
    raw -= lin
    residual = np.abs(raw, out=raw).max(axis=-1)
    if not (
        (residual <= 0.25).all()
        and lin.min() >= 0
        and (lin.max(axis=-1) <= bound).all()
    ):
        return None
    out = _fold(lin.astype(np.int64), n)
    return out if (out.sum(axis=-1) == total).all() else None


def _kronecker_cyclic(f: np.ndarray, g: np.ndarray, n: int, bound: int) -> np.ndarray:
    """Cyclic convolution by one CPython big-integer multiply (Kronecker
    substitution): coefficients are packed into byte slots wide enough
    for `bound`, so the product's slots are the linear convolution."""
    nbytes = (bound.bit_length() + 7) // 8
    slot = next((w for w in (2, 4, 8) if nbytes <= w), nbytes)
    if slot <= 8:
        dtype = f"<u{slot}"
        big_f = int.from_bytes(f.astype(dtype).tobytes(), "little")
        big_g = int.from_bytes(g.astype(dtype).tobytes(), "little")
        raw = (big_f * big_g).to_bytes(2 * n * slot, "little")
        lin = np.frombuffer(raw, dtype=dtype)[: 2 * n - 1].astype(np.uint64)
        out = _fold(lin, n)  # every cyclic coefficient is <= bound < 2**64
        return out.astype(np.int64 if bound < _INT64_LIMIT else object)

    # Huge coefficients: pack and unpack slot by slot with Python integers.
    def pack(values: np.ndarray) -> int:
        chunks = (v.to_bytes(slot, "little") for v in values.tolist())
        return int.from_bytes(b"".join(chunks), "little")

    raw = (pack(f) * pack(g)).to_bytes(2 * n * slot, "little")
    lin = np.empty(2 * n - 1, dtype=object)
    lin[:] = [
        int.from_bytes(raw[i : i + slot], "little")
        for i in range(0, (2 * n - 1) * slot, slot)
    ]
    return _fold(lin, n)


def _cyclic_convolve_exact(f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Exact cyclic convolution of two non-negative length-n arrays.

    Schoolbook for small n; otherwise the checked float FFT, falling back
    to Kronecker substitution for coefficients too large for it or when
    its result cannot be certified.  Returns int64 when every coefficient
    fits, else an object array of Python ints.
    """
    sum_f = _power_sum(f, 1)
    sum_g = _power_sum(g, 1)
    if sum_f == 0 or sum_g == 0:
        return np.zeros(n, dtype=np.int64)
    # Every linear and every cyclic coefficient is at most this.
    bound = min(int(f.max()) * sum_g, int(g.max()) * sum_f)
    if n <= _SCHOOLBOOK_MAX_P and bound < _INT64_LIMIT:
        return _fold(np.convolve(f, g), n)
    # 2n * bound < 2**63 keeps the checked int64 sum of 2n - 1 rounded
    # values in [0, bound] from overflowing.
    if 2 * n * bound < _INT64_LIMIT:
        out = _fft_cyclic(f, g, n, bound, sum_f * sum_g)
        if out is not None:
            return out
    return _kronecker_cyclic(f, g, n, bound)


def _cyclic_convolve_rows(f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Row i is _cyclic_convolve_exact(f[i], g[i], n), for (m, n) arrays
    with m >= 1; memory is O(m n), so callers bound m.

    One batched FFT serves every row when the values are small enough for
    int64 row bounds and every row passes the a-priori bound and the
    run-time checks; otherwise each row goes through the one-row kernel.
    Unlike the one-row kernel, short rows take the FFT too: one batched
    transform beats m schoolbook calls.
    """
    # Every coefficient is at most n * max(f) * max(g); with 2n times that
    # below 2**63, row sums, bounds and the FFT path's checks fit in int64.
    small = 2 * n * n * int(f.max()) * int(g.max()) < _INT64_LIMIT
    if f.dtype != object and g.dtype != object and small:
        sum_f, sum_g = f.sum(axis=1), g.sum(axis=1)
        bound = np.minimum(f.max(axis=1) * sum_g, g.max(axis=1) * sum_f)
        out = _fft_cyclic(f, g, n, bound, sum_f * sum_g)
        if out is not None:
            return out
    return np.stack([_cyclic_convolve_exact(fr, gr, n) for fr, gr in zip(f, g)])


def convolve_add(f: IntegerProfile, g: IntegerProfile) -> IntegerProfile:
    """(f * g)(x) = sum_y f(y) g(x - y), exact."""
    _check_same_field(f, g)
    return IntegerProfile(f.field, _cyclic_convolve_exact(f.values, g.values, f.p))


def correlate_add(f: IntegerProfile, g: IntegerProfile) -> IntegerProfile:
    """(f o g)(x) = sum_y f(y) g(y + x), exact.

    Equals (f^c * g) where f^c(y) = f(-y).
    """
    _check_same_field(f, g)
    reflected = np.roll(f.values[::-1], 1)
    return IntegerProfile(f.field, _cyclic_convolve_exact(reflected, g.values, f.p))


def convolve_mult(f: IntegerProfile, g: IntegerProfile) -> IntegerProfile:
    """(f (x) g)(x) = sum_{y != 0} f(y) g(x y^{-1}), exact.

    Index 0 of f is ignored per the summation over F_p*.  With r the
    primitive root, out(r^i) for i mod p - 1 is the cyclic convolution of
    f(r^k) and g(r^k); x y^{-1} = 0 only for x = 0, so
    out(0) = g(0) * sum_{y != 0} f(y).
    """
    _check_same_field(f, g)
    _, antilog = _log_tables(f.p)
    conv = _cyclic_convolve_exact(f.values[antilog], g.values[antilog], f.p - 1)
    at_zero = int(g.values[0]) * _power_sum(f.values[1:], 1)
    wide = conv.dtype == object or at_zero >= _INT64_LIMIT
    out = np.zeros(f.p, dtype=object if wide else np.int64)
    out[antilog] = conv
    out[0] = at_zero
    return IntegerProfile(f.field, out)


def convolve_add_iterated(f: IntegerProfile, k: int) -> IntegerProfile:
    """k-fold additive self-convolution; k = 1 returns f itself."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out = f
    for _ in range(k - 1):
        out = convolve_add(out, f)
    return out


@dataclass(frozen=True)
class SpectrumTable:
    """Magnitudes |hat A(xi)| for all frequencies of one source set.

    magnitudes[0] is overwritten with the exact integer |A| to remove
    float noise from the one value the spectrum definition always includes;
    the table is mirror-symmetric (real 0/1 input).
    """

    field: PrimeField
    source_size: int
    magnitudes: tuple[float, ...]

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def squared_magnitudes(self) -> tuple[float, ...]:
        m0 = float(self.source_size)
        return (m0 * m0,) + tuple(m * m for m in self.magnitudes[1:])


def dft(a: ResidueSet) -> SpectrumTable:
    """Magnitude spectrum of the indicator of A."""
    p = a.p
    indicator = np.zeros(p)
    indicator[list(a.elements)] = 1.0
    mags = np.abs(np.fft.fft(indicator))
    # enforce exact mirror symmetry |hat A(xi)| = |hat A(p - xi)|
    if p > 1:
        half = (p - 1) // 2
        mags[p - half :] = mags[1 : half + 1][::-1]
    mags[0] = float(len(a))
    return SpectrumTable(a.field, len(a), tuple(mags.tolist()))


def profile_dft(f: IntegerProfile) -> np.ndarray:
    """Complex transform hat f(xi) = sum_x f(x) e(-xi x / p), double precision."""
    return np.fft.fft(f.values.astype(np.float64))


def sup_norm_nonzero(t: SpectrumTable) -> float:
    """max over xi != 0 of |hat A(xi)|."""
    if t.p == 1:
        return 0.0
    return max(t.magnitudes[1:])
