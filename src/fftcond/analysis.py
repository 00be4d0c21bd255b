"""Exact references and convergence-rate prediction.

The exact effective conductivity of the 25% square array (the benchmark
microstructure) gives an independent target for the solvers; predicted
per-scheme rates come from the disk coordinate of each scheme, and a
contour sampler maps those rates over a complex-conductivity window.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import BranchCutError, PoleError
from .geometry import PhaseMap
from .solvers import SolveResult, SolverConfig, TerminationStatus, _tail_rate, solve
from .transform import SchemeKind, SpectralInterval, map_z

#: Exact branch-cut endpoints of the square-array effective conductivity.
SQUARE_ARRAY_CUT = SpectralInterval(alpha=1.0 / 3.0, beta=3.0)


def obnosov(sigma1: complex) -> complex:
    """Exact effective conductivity of the 25% square array.

    sqrt((1 + 3 sigma1) / (3 + sigma1)), principal branch. Real sigma1
    in (-3, -1/3) lands on the branch cut; the principal value is
    returned there (see :func:`obnosov_on_branch_cut`).
    """
    s = complex(sigma1)
    if s == -3.0:
        raise PoleError("the exact formula has a pole at sigma1 = -3")
    return cmath.sqrt((1.0 + 3.0 * s) / (3.0 + s))


def obnosov_on_branch_cut(sigma1: complex) -> bool:
    """True when the formula's square-root argument is real negative."""
    s = complex(sigma1)
    if s == -3.0:
        return True
    arg = (1.0 + 3.0 * s) / (3.0 + s)
    return arg.imag == 0.0 and arg.real < 0.0


def predicted_rate(
    scheme: SchemeKind,
    sigma1: complex,
    interval: SpectralInterval | None = None,
) -> float:
    """Magnitude of the scheme's disk coordinate: the asymptotic rate at its own sigma0."""
    return abs(map_z(scheme, sigma1, interval))


@dataclass
class RateGrid:
    """Dense |z| samples over a rectangular complex-plane window.

    ``values[iy, ix]`` is the rate at re_axis[ix] + 1j * im_axis[iy];
    samples on poles or branch cuts are flagged and carry +inf.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nr: int
    ni: int
    values: np.ndarray
    flags: np.ndarray

    @property
    def re_axis(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nr)

    @property
    def im_axis(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ni)

    def iter_samples(self):
        """Deterministic row-major walk: (re, im, value, flagged)."""
        re_ax, im_ax = self.re_axis, self.im_axis
        for iy in range(self.ni):
            for ix in range(self.nr):
                yield (
                    float(re_ax[ix]),
                    float(im_ax[iy]),
                    float(self.values[iy, ix]),
                    bool(self.flags[iy, ix]),
                )


def rate_contours(
    scheme: SchemeKind,
    interval: SpectralInterval | None,
    window: tuple[float, float, float, float],
    resolution: tuple[int, int],
) -> RateGrid:
    """Sample :func:`predicted_rate` over a window of complex sigma1."""
    re_min, re_max, im_min, im_max = window
    nr, ni = resolution
    if nr < 1 or ni < 1:
        raise ValueError(f"resolution must be >= 1 per axis, got {resolution}")
    if not all(math.isfinite(b) for b in window):
        raise ValueError(f"window bounds must be finite, got {window}")
    if re_min > re_max or im_min > im_max:
        raise ValueError(f"window bounds are not ordered: {window}")
    values = np.empty((ni, nr), dtype=float)
    flags = np.zeros((ni, nr), dtype=bool)
    re_ax = np.linspace(re_min, re_max, nr)
    im_ax = np.linspace(im_min, im_max, ni)
    for iy in range(ni):
        for ix in range(nr):
            s = complex(re_ax[ix], im_ax[iy])
            try:
                values[iy, ix] = predicted_rate(scheme, s, interval)
            except (BranchCutError, PoleError):
                values[iy, ix] = np.inf
                flags[iy, ix] = True
    return RateGrid(re_min, re_max, im_min, im_max, nr, ni, values, flags)


@dataclass
class MisestimationRun:
    interval: SpectralInterval
    status: TerminationStatus
    iterations: int
    estimated_rate: float | None
    sigma_star: complex
    wall_time: float

    @classmethod
    def from_result(cls, interval, result: SolveResult, window, wall_time):
        return cls(
            interval=interval,
            status=result.status,
            iterations=result.iterations,
            estimated_rate=_tail_rate(result.history, window),
            sigma_star=result.sigma_star,
            wall_time=wall_time,
        )


@dataclass
class MisestimationReport:
    """Side-by-side accelerated runs under two singularity estimates."""

    sigma1: complex
    true_run: MisestimationRun
    assumed_run: MisestimationRun

    @property
    def rate_penalty(self) -> float | None:
        if self.true_run.estimated_rate is None or self.assumed_run.estimated_rate is None:
            return None
        return self.assumed_run.estimated_rate - self.true_run.estimated_rate


def misestimation_report(
    pmap: PhaseMap,
    sigma1: complex,
    true_interval: SpectralInterval,
    assumed_interval: SpectralInterval,
    cfg: SolverConfig,
    rate_window: int = 10,
) -> MisestimationReport:
    """Run the accelerated substituted scheme under both interval estimates.

    A mis-estimated interval that still keeps the evaluation point inside
    the series' disk of convergence converges, only slower; the report
    exposes the iteration counts and measured rates for comparison.
    """

    def run(interval: SpectralInterval) -> MisestimationRun:
        local = replace(cfg, scheme=SchemeKind.EYRE_MILTON_SUB, sigma1=sigma1, interval=interval)
        start = time.perf_counter()
        result = solve(pmap, local)
        return MisestimationRun.from_result(
            interval, result, rate_window, time.perf_counter() - start
        )

    return MisestimationReport(
        sigma1=complex(sigma1),
        true_run=run(true_interval),
        assumed_run=run(assumed_interval),
    )
