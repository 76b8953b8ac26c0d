"""Spectrum computation and the spectrum-structure inequality checks.

The size bound and the additive-structure inequality are theorems with
explicit constants, so they are checked as hard pass/fail facts.  The
multiplicative-energy estimate for subsets of the spectrum carries an
unspecified constant and log factors, so it is emitted as a ratio report
only, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .energy import moment_T_k, multiplicative_energy
from .errors import HypothesisViolated, NotInSpectrum
from .field import ResidueSet
from .harmonic import SpectrumTable, dft

# Relative slack toward inclusion: |hat A(r)| is irrational in general and
# threshold ties must not flap across platforms.
_MEMBERSHIP_SLACK = 1e-9


@dataclass(frozen=True)
class SpectrumParams:
    """A source set together with the spectrum threshold epsilon."""

    source: ResidueSet
    epsilon: float

    def __post_init__(self) -> None:
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if len(self.source) == 0:
            raise ValueError("source set must be nonempty")

    @property
    def delta(self) -> Fraction:
        return Fraction(len(self.source), self.source.p)


@dataclass(frozen=True)
class BoundCheck:
    """A checked inequality with both sides recorded."""

    lhs: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class RatioReport:
    """Measured quantity against a reference with unknown constant."""

    measured: int
    reference: float
    ratio: float


def _threshold(params: SpectrumParams) -> float:
    return params.epsilon * len(params.source) * (1 - _MEMBERSHIP_SLACK)


def spectrum(params: SpectrumParams, table: SpectrumTable | None = None) -> ResidueSet:
    """Spec_eps(A) = { r : |hat A(r)| >= eps |A| }.

    Always contains 0 and is symmetric.  `table`, when given, is dft(A);
    a caller asking several questions of one set transforms it once.
    """
    a = params.source
    if table is None:
        table = dft(a)
    threshold = _threshold(params)
    members = [r for r, m in enumerate(table.magnitudes) if m >= threshold]
    return ResidueSet(a.field, tuple(members))


def _require_in_spectrum(
    params: SpectrumParams, b: ResidueSet, table: SpectrumTable | None
) -> None:
    """Raise NotInSpectrum unless B lies in Spec_eps(A); probes only B."""
    if table is None:
        table = dft(params.source)
    mags = table.magnitudes
    threshold = _threshold(params)
    if not all(r < len(mags) and mags[r] >= threshold for r in b):
        raise NotInSpectrum("B must be a subset of Spec_eps(A)")


def spectrum_size_bound_check(
    params: SpectrumParams, table: SpectrumTable | None = None
) -> BoundCheck:
    """|Spec_eps(A)| <= p / (|A| eps^2); always true (Parseval)."""
    size = len(spectrum(params, table))
    bound = params.source.p / (len(params.source) * params.epsilon**2)
    return BoundCheck(lhs=float(size), rhs=bound, ok=size <= bound)


def les_inequality_check(
    params: SpectrumParams,
    b: ResidueSet,
    k: int = 2,
    table: SpectrumTable | None = None,
) -> BoundCheck:
    """T_k(B) >= eps^{2k} |B|^{2k} |A| / p for B inside Spec_eps(A)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    _require_in_spectrum(params, b, table)
    lhs = moment_T_k(b, k)
    rhs = (
        params.epsilon ** (2 * k)
        * len(b) ** (2 * k)
        * len(params.source)
        / params.source.p
    )
    return BoundCheck(lhs=float(lhs), rhs=rhs, ok=lhs >= rhs * (1 - _MEMBERSHIP_SLACK))


def spectrum_mult_energy_report(
    params: SpectrumParams,
    b: ResidueSet,
    strict: bool = True,
    table: SpectrumTable | None = None,
) -> RatioReport:
    """Ex(B) against the reference |B|^2 delta^{-2/3} eps^{-8/3}.

    The theorem hypothesis |B| < delta^{-1/6} eps^{-2/3} sqrt(p) is
    enforced when strict; no pass/fail verdict is attached since the
    constant and log factors are unspecified.
    """
    _require_in_spectrum(params, b, table)
    delta = float(params.delta)
    size_bound = delta ** (-1 / 6) * params.epsilon ** (-2 / 3) * params.source.p**0.5
    if strict and not len(b) < size_bound:
        raise HypothesisViolated(
            f"|B| = {len(b)} >= {size_bound:.3f} = delta^(-1/6) eps^(-2/3) sqrt(p)"
        )
    emult = multiplicative_energy(b, b).value
    reference = len(b) ** 2 * delta ** (-2 / 3) * params.epsilon ** (-8 / 3)
    return RatioReport(measured=emult, reference=reference, ratio=emult / reference)
