"""Scalar algebra of the acceleration.

Fractional-linear and square-root maps between the conductivity plane
and the unit disk, the one definition of where each scheme iterates
(:func:`iteration_point`: t and the reference sigma0, which the solver
and :func:`map_z` read), the solver that converts an assumed singularity
interval [-beta, -alpha] into the complex parameters (p1, p2, p3) of the
augmented field space, the auxiliary coupling constants, and a discrete
resistor-substitution oracle. The matrix phase conductivity is fixed at
1 throughout; rescale inputs for a general matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import BranchCutError, DegenerateParamError, IntervalError, PoleError

_REL_TOL = 1e-12  # double precision headroom over ~10 flops


class SchemeKind(Enum):
    """The four fixed-point iteration families."""

    BASIC = "basic"
    EYRE_MILTON = "em"
    BASIC_SUB = "basic_sub"
    EYRE_MILTON_SUB = "em_sub"

    @property
    def substituted(self) -> bool:
        """True for the schemes running in the augmented space."""
        return self in (SchemeKind.BASIC_SUB, SchemeKind.EYRE_MILTON_SUB)

    @property
    def accelerated(self) -> bool:
        """True for the square-root (Eyre-Milton style) schemes."""
        return self in (SchemeKind.EYRE_MILTON, SchemeKind.EYRE_MILTON_SUB)


@dataclass(frozen=True)
class SpectralInterval:
    """Assumed locus [-beta, -alpha] of singularities on the negative axis."""

    alpha: float
    beta: float

    def __post_init__(self):
        finite = math.isfinite(self.alpha) and math.isfinite(self.beta)
        if not (finite and 0.0 < self.alpha < self.beta):
            raise IntervalError(
                f"need 0 < alpha < beta < inf, got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class SubstitutionParams:
    """Complex triple (p1, p2, p3) realizing a spectral interval.

    Satisfies p1^2 + p2^2 + p3^2 = 1 (plain, unconjugated sum) and
    recovers (alpha, beta) through alpha = -1 - p1^2/(p2^2 - 1),
    beta = -1 - p1^2/p2^2.
    """

    interval: SpectralInterval
    p1: complex
    p2: complex
    p3: complex

    def __post_init__(self):
        sq1, sq2, sq3 = self.p1 ** 2, self.p2 ** 2, self.p3 ** 2
        scale = max(1.0, abs(sq1) + abs(sq2) + abs(sq3))
        if abs(sq1 + sq2 + sq3 - 1.0) > _REL_TOL * scale:
            raise ValueError(f"p1^2+p2^2+p3^2 = {sq1 + sq2 + sq3} is not 1")
        if sq2 == 0 or sq2 == 1:
            raise ValueError(f"p2^2 = {sq2} recovers no interval; it must differ from 0 and 1")
        a_rec = -1.0 - sq1 / (sq2 - 1.0)
        b_rec = -1.0 - sq1 / sq2
        a, b = self.interval.alpha, self.interval.beta
        if any(abs(rec - v) > _REL_TOL * max(1.0, abs(v)) for rec, v in ((a_rec, a), (b_rec, b))):
            raise ValueError(f"params recover ({a_rec}, {b_rec}), expected ({a}, {b})")


def map_t(sigma1: complex, interval: SpectralInterval) -> complex:
    """Fractional-linear map sending [-beta, -alpha] onto the negative reals.

    t = (sigma1 + alpha)(1 + beta) / ((sigma1 + beta)(1 + alpha)); fixes
    sigma1 = 1 and sends sigma1 = -alpha to 0.
    """
    s = complex(sigma1)
    a, b = interval.alpha, interval.beta
    den = (s + b) * (1.0 + a)
    if den == 0:
        raise PoleError(f"map_t has a pole at sigma1 = {-b}")
    return (s + a) * (1.0 + b) / den


def inverse_map_t(t: complex, interval: SpectralInterval) -> complex:
    """Inverse of :func:`map_t`; pole at t = (1+beta)/(1+alpha)."""
    tt = complex(t)
    a, b = interval.alpha, interval.beta
    den = tt * (1.0 + a) - (1.0 + b)
    if den == 0:
        raise PoleError(f"inverse_map_t has a pole at t = {(1.0 + b) / (1.0 + a)}")
    return (a * (1.0 + b) - b * tt * (1.0 + a)) / den


def iteration_point(
    scheme: SchemeKind,
    sigma1: complex,
    interval: SpectralInterval | None = None,
    sigma0: complex | None = None,
) -> tuple[complex, str, complex]:
    """The one definition of where a scheme iterates: (t, label, sigma0).

    t is sigma1, or map_t(sigma1) for the substituted schemes, which need
    ``interval``; ``label``, "sigma1" or "t", names it in errors. The
    scheme's own reference is (t + 1)/2, or the principal sqrt(t) for the
    accelerated schemes, BranchCutError on the closed negative real axis.
    A given ``sigma0`` replaces it before that check. :func:`map_z` and
    ``solvers.solve`` both read this.
    """
    t, label = complex(sigma1), "sigma1"
    if scheme.substituted:
        if interval is None:
            raise IntervalError(f"scheme {scheme.value} requires an interval")
        t, label = map_t(t, interval), "t"
    if sigma0 is not None:
        return t, label, complex(sigma0)
    if not scheme.accelerated:
        return t, label, (t + 1.0) / 2.0
    if t.imag == 0.0 and t.real <= 0.0:
        raise BranchCutError(f"{label} = {t} lies on the closed negative real axis")
    return t, label, cmath.sqrt(t)


def map_z(
    scheme: SchemeKind,
    sigma1: complex,
    interval: SpectralInterval | None = None,
) -> complex:
    """Disk coordinate z of a scheme at a given inclusion conductivity.

    basic:     z = (sigma1 - 1)/(sigma1 + 1)
    em:        z = (sqrt(sigma1) - 1)/(sqrt(sigma1) + 1)
    basic_sub: z = (t - 1)/(t + 1)          with t = map_t(sigma1)
    em_sub:    z = (sqrt(t) - 1)/(sqrt(t) + 1)

    t and sqrt(t), the accelerated schemes' sigma0, come from
    :func:`iteration_point`, which raises :class:`BranchCutError` on the cut.
    """
    t, _, sigma0 = iteration_point(scheme, sigma1, interval)
    s = sigma0 if scheme.accelerated else t
    if s == -1.0:
        raise PoleError(f"map_z pole: argument {s} gives a zero denominator")
    return (s - 1.0) / (s + 1.0)


def solve_p(interval: SpectralInterval) -> SubstitutionParams:
    """Choose (p1, p2, p3) realizing the given spectral interval.

    p1^2 = (1+alpha)(1+beta)/(beta-alpha) is positive, p2^2 and p3^2 are
    negative for every valid interval, so the branch choice is p1 real
    positive and p2, p3 purely imaginary with positive imaginary part.
    """
    a, b = interval.alpha, interval.beta
    p1_sq = (1.0 + a) * (1.0 + b) / (b - a)
    p2_sq = -(1.0 + a) / (b - a)
    p3_sq = 1.0 - p1_sq - p2_sq
    p1 = complex(math.sqrt(p1_sq))
    p2 = 1j * math.sqrt(-p2_sq)
    # complex(p3_sq) has imaginary part +0.0, so the principal root has imag >= 0
    p3 = cmath.sqrt(complex(p3_sq))
    return SubstitutionParams(interval=interval, p1=p1, p2=p2, p3=p3)


def _coupling_denominator(t: complex, params: SubstitutionParams) -> complex:
    den = (t - 1.0) * params.p2 ** 2 + 1.0
    if den == 0:
        raise DegenerateParamError(f"(t-1)*p2^2 + 1 vanishes at t = {t}; coupling is degenerate")
    return den


def aux_constants(t: complex, params: SubstitutionParams) -> tuple[complex, complex]:
    """Coupling constants (E2p, J3p) of the augmented field slots.

    E2p scales the second slot of the gradient-type field, J3p the third
    slot of the flux-type field, both per unit applied field.
    """
    tt = complex(t)
    den = _coupling_denominator(tt, params)
    e2p = (1.0 - tt) * params.p1 * params.p2 / den
    j3p = params.p1 * params.p3 * (tt - 1.0) / den
    return e2p, j3p


def verify_sigma1(t: complex, params: SubstitutionParams) -> complex:
    """Conductivity reproduced by the 3-vector model at parameter t.

    Equals ``inverse_map_t(t, params.interval)`` up to roundoff; used as
    an independent consistency check of the parameter solve.
    """
    tt = complex(t)
    den = _coupling_denominator(tt, params)
    return 1.0 + params.p1 ** 2 * (tt - 1.0) / den


def compound_resistance(r1, r2, k1: float, k2: float, k3: float):
    """Resistance of k1*R2 in series with (k2*R1 parallel to k3*R2)."""
    if k1 <= 0 or k2 <= 0 or k3 <= 0:
        raise ValueError(f"weights must be positive, got {(k1, k2, k3)}")
    par_den = 1.0 / (k2 * r1) + 1.0 / (k3 * r2)
    if par_den == 0:
        raise DegenerateParamError("parallel limb has zero admittance")
    return k1 * r2 + 1.0 / par_den


def resistor_substitution_map(
    sigma1: complex, k1: float, k2: float, k3: float, delta: float = 1.0
) -> complex:
    """Conductivity seen after replacing each phase-1 resistor by a compound.

    Fractional-linear in sigma1; with positive weights it maps the
    nonnegative real axis into the positive reals.
    """
    if k1 <= 0 or k2 <= 0 or k3 <= 0:
        raise ValueError(f"weights must be positive, got {(k1, k2, k3)}")
    s = complex(sigma1)
    den = k1 * s / k2 + k1 / k3 + 1.0
    if den == 0:
        raise PoleError(f"substitution map has a pole at sigma1 = {s}")
    return (s / k2 + 1.0 / k3) * delta / den
