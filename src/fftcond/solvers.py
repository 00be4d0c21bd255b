"""Fixed-point solvers for the periodic two-phase conductivity problem.

Four schemes share one contract: drive the equilibrium residual of the
flux to zero and report the effective conductivity along the applied
field. :func:`solve` is the one entry point and the one iteration
kernel; ``cfg.scheme`` selects the scheme. It runs on slots coupled on the
inclusion by a coefficient tuple p. Its local operators have the form
on chi'' + off (I - chi'') with chi'' = chi p (x) p: A is (t, 1) and the
shifted inverse (A + sigma0 I)^-1 is (1/(t + sigma0), 1/(1 + sigma0)).
On the inclusion each is a len(p)-square slot matrix; the mean pin is
column 0 of A's matrix. ``basic_sub`` and ``em_sub`` work in the
augmented (Q, S, T) space, p = (p1, p2, p3), where the inclusion
conductivity is replaced by the mapped parameter t = map_t(sigma1) whose
disk coordinate is closer to the origin whenever the singularities of
the effective conductivity are confined to the assumed interval.
``basic`` and ``em`` are the one-slot case, p = (1,) and t = sigma1,
whose slot is the physical electric field. The basic schemes use the
reference sigma0 = (t + 1)/2; the accelerated ones iterate on the
polarization-like variable w = (A + sigma0) F with sigma0 = sqrt(t). All
four converge to the same discrete solution.

All four record the same residual, the one :func:`equilibrium_residual`
and :func:`equilibrium_residual_aug` compute: |gamma1 J_Q|^2 is summed by
Parseval from the FFT of the mean-pinned flux, taken in place when
complex, after which J_field is rebuilt in real space. Each iteration
takes one forward and one inverse 2-D FFT of a vector field. The basic
schemes finish gamma1(J_Q) from the flux transform for their next
update. The accelerated ones keep the Q slot of w in Fourier space: since
F = (A + sigma0 I)^-1 D w, with D the S sign flip,
r = (A - sigma0 I) F = 2 A F - D w has Q slot r_Q = 2 J_Q - w_Q, so the
flux transform yields r_Q with no transform of its own. The mean pin
J_Q - delta (1 + (pin0 - 1) chi) is undone there with the FFT of chi,
taken once per solve. The reflection w_Q = 2 sigma0 e0 - 2 gamma1(r_Q) +
r_Q is formed in Fourier space, in one band sweep that forms each band of
r_Q just before reflecting it, and one inverse FFT returns w_Q to real
space for the local inverse. sigma* is read off the flux of the local
operator A in every path.

The loop runs in real arithmetic when t, sigma0 and e0 are real and the
Green table maps real fields to real fields, as the rotated one does and
the spectral reference does not (``spectral_ops._field_dtype``): its
fields, slots and scalars are float64, its transforms half spectra, and
the slots past Q are stored divided by i. Each slot matrix M then acts
as diag(1, -i, -i) M diag(1, i, i), which is real because p1 is real and
p2 and p3 are imaginary. Otherwise the same loop runs in complex
arithmetic. The public residuals take the real path on a field whose
imaginary part is 0, so they repeat the residual a real solve records.

A solve allocates its working set once, and nothing after its loop: the
full-grid Q slot of the field and the pinned flux, with the FFTs of w_Q
and of chi when accelerated, and on the real path the flux transform,
a half spectrum of its own; the indices of the inclusion pixels and the
slot arrays x = F and y = A F on them, where the accelerated update also
forms w; and one packed scratch of one slot. The loop allocates only
band-sized Fourier temporaries and the residual's |js|^2 of one field
component. The inverse real FFT of the real path runs through a half
spectrum that is dead at that point: the flux transform, which the basic
update's projection consumes and the reflection sweep turns into r_Q,
and which the residual refills. The result keeps the field,
the flux and x: ``E_field`` and ``J_field`` wrap the grids on first
read, complex copies on the real path, and ``aug_field`` unpacks S and T
into full grids, times i on the real path, on first read.

On grids of at least 2^18 pixels per component, with two CPUs to run
on, the FFT pair and the Fourier-space sweeps (the Parseval sum, the
reflection with r_Q, and the basic update's projection) split across two
threads, with the bits of one thread. So does the real-space stretch of
each iteration, from the field the inverse FFT returns to the pinned
flux and its mean, as one split with one field component per thread:
the gathers, the slot updates and kernels, the scatters, the mean pin
and both compensated means. The monitor and the residual's Parseval
combine and |js|^2 total stay on the calling thread.

Stopping: equilibrium residual <= tol and a relative change in the
effective-conductivity estimate <= tol, with a divergence guard at 1e6
times the initial residual. Runs are deterministic for a fixed
configuration, whatever the CPU count.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial

import numpy as np

from .errors import ContractError, DegenerateParamError, IntervalError
from .geometry import PhaseMap
from .spectral_ops import (
    AugmentedField,
    VectorField,
    _chi_of,
    _combine_rows,
    _compensated_ctotal,
    _compensated_total,
    _fft2,
    _field_dtype,
    _gamma1_arr,  # unused here; perfbench/hooks.py wraps this name in this module
    _gamma1_inverse,
    _gamma1_sqnorm,
    _local_arrays,
    _mean_vec,
    _pack,
    _per_pixel,
    _real_if_allowed,
    _reflect_hat,
    _scatter,
    _shifted_inverse_coefs,
    _slot_matrix,
    _slot_sums,
    _split,
    _unpack,
    apply_local_A,
)
from .transform import (
    SchemeKind,
    SpectralInterval,
    SubstitutionParams,
    _require_off_cut,
    map_t,
    solve_p,
)

DIVERGENCE_FACTOR = 1e6
_TINY = 1e-300


class TerminationStatus(Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class HistoryRecord:
    iteration: int
    sigma_star: complex
    residual: float


class ConvergenceHistory:
    """Per-iteration record of the effective-conductivity estimate and residual."""

    def __init__(self):
        self.records: list[HistoryRecord] = []

    def append(self, iteration: int, sigma_star: complex, residual: float):
        if not math.isfinite(residual):
            raise ContractError(f"residual must be finite, got {residual}")
        if self.records and iteration <= self.records[-1].iteration:
            raise ContractError("iteration indices must increase strictly")
        self.records.append(HistoryRecord(iteration, sigma_star, residual))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def residuals(self) -> list[float]:
        return [r.residual for r in self.records]

    def sigma_stars(self) -> list[complex]:
        return [r.sigma_star for r in self.records]


@dataclass
class SolverConfig:
    """Run parameters shared by all schemes.

    ``interval`` is required for the substituted schemes; ``e0`` is the
    applied (average) field direction; ``sigma0_override`` replaces the
    scheme's default reference conductivity.
    """

    scheme: SchemeKind
    sigma1: complex
    interval: SpectralInterval | None = None
    e0: tuple[complex, complex] = (1.0, 0.0)
    tol: float = 1e-8
    max_iters: int = 1000
    sigma0_override: complex | None = None

    def __post_init__(self):
        if not isinstance(self.scheme, SchemeKind):
            raise ValueError(f"scheme must be a SchemeKind, got {self.scheme!r}")
        if not (self.interval is None or isinstance(self.interval, SpectralInterval)):
            raise ValueError(f"interval must be a SpectralInterval or None, got {self.interval!r}")
        if not (isinstance(self.tol, numbers.Real) and self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if self.scheme.substituted and self.interval is None:
            raise IntervalError(f"scheme {self.scheme.value} needs a spectral interval")
        _require_finite("sigma1", self.sigma1)
        if self.sigma0_override is not None:
            _require_finite("sigma0_override", self.sigma0_override)
        if np.shape(self.e0) != (2,):
            raise ValueError(f"e0 must be a pair of numbers, got {self.e0!r}")
        for entry in self.e0:
            _require_finite("e0", entry)
        _e0_vector(self.e0)


def _require_finite(name: str, value):
    """ValueError naming ``name`` unless ``value`` is a finite real or complex number."""
    if not (isinstance(value, numbers.Number) and cmath.isfinite(complex(value))):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _e0_vector(e0) -> np.ndarray:
    """The applied field as a complex 2-vector; ContractError if its squared norm is 0."""
    e0v = np.array([complex(e0[0]), complex(e0[1])], dtype=np.complex128)
    if np.vdot(e0v, e0v).real == 0:
        raise ContractError("applied field e0 must be nonzero")
    return e0v


def _along(e0v: np.ndarray, jmean: np.ndarray) -> complex:
    """Effective conductivity read off a mean flux: its component along e0 per unit e0."""
    return complex(np.vdot(e0v, jmean)) / np.vdot(e0v, e0v).real


@dataclass
class SolveResult:
    """How a solve ended, with its fields built on first read from the loop's arrays.

    ``_grids`` holds the full-grid Q slots of the field and of the flux,
    float64 on the real path; ``_packed`` holds, for a substituted run,
    the support and the packed S and T slots, there S/i and T/i.
    """

    sigma_star: complex
    history: ConvergenceHistory
    status: TerminationStatus
    degenerate_flux: bool = False
    _grids: tuple = field(default=(), repr=False, compare=False)
    _packed: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def E_field(self) -> VectorField:
        """Final electric field; wraps the loop's array when complex."""
        return VectorField(self._grids[0])

    @cached_property
    def J_field(self) -> VectorField:
        """Final flux, with the mean pin of E_field; wraps the loop's array when complex."""
        return VectorField(self._grids[1])

    @cached_property
    def aug_field(self) -> AugmentedField | None:
        """Final iterate of a substituted run, its S and T grids built on first read."""
        if self._packed is None:
            return None
        support, st = self._packed
        if not np.iscomplexobj(st):
            st = st * 1j
        shape = self.E_field.grid_shape
        return AugmentedField(self.E_field, *(VectorField(_unpack(s, support, shape)) for s in st))

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def converged(self) -> bool:
        return self.status is TerminationStatus.CONVERGED


def extract_sigma_star(e: VectorField, pmap: PhaseMap, sigma1: complex, e0=(1.0, 0.0)) -> complex:
    """Effective conductivity along e0 from an electric field iterate."""
    e0v = _e0_vector(e0)
    (flux,) = _local_arrays((e.data,), _chi_of(pmap, e), (1.0,), complex(sigma1), 1.0)
    return _along(e0v, _mean_vec(flux))


def extract_sigma_star_aug(
    f: AugmentedField,
    t: complex,
    params: SubstitutionParams,
    pmap: PhaseMap,
    e0=(1.0, 0.0),
) -> complex:
    """Effective conductivity from an augmented iterate: mean flux Q-slot."""
    e0v = _e0_vector(e0)
    flux = apply_local_A(f, t, params, pmap)
    return _along(e0v, flux.Q.mean())


def recover_physical_fields(
    f: AugmentedField, t: complex, params: SubstitutionParams, pmap: PhaseMap
) -> tuple[VectorField, VectorField]:
    """Electric and current fields encoded by a converged augmented solution.

    E is the Q-slot of the field; J is the Q-slot of the local flux A F.
    No division by the inclusion conductivity occurs, so an insulating
    inclusion (sigma1 = 0) is handled without special casing.
    """
    flux = apply_local_A(f, t, params, pmap)
    return VectorField(f.Q.data.copy()), flux.Q


def _residual(jq: np.ndarray, js: np.ndarray, jmean: np.ndarray, work=None) -> float:
    """Equilibrium residual of a flux with Q slot ``jq`` and mean ``jmean``.

    The gradient-type part (gamma1 jq, js) over the norm of the mean, per
    pixel, with |gamma1 jq|^2 summed by Parseval; ``js`` holds the S slot
    on the inclusion pixels only, and is empty for a physical flux.
    ``work`` receives the FFT of jq and may be jq itself. ContractError
    when the mean flux vanishes.
    """
    den = float(np.linalg.norm(jmean))
    if den < _TINY:
        raise ContractError("mean flux vanishes; residual is undefined")
    npix = jq.shape[-1] * jq.shape[-2]
    total = _gamma1_sqnorm(jq, work)
    # |js|^2 one component at a time, in a buffer the size of one: the
    # total of a 1-D row is the pairwise sum that of a (2, m) array takes
    # of each row, and the two combine as its rows do
    power = np.empty(js.shape[-1])
    rows = [_compensated_total(np.square(np.abs(c, out=power), out=power)) for c in js]
    total += _combine_rows(np.array(rows))
    return math.sqrt(total / npix) / den


def equilibrium_residual(j: VectorField) -> float:
    """Norm of the curl-free part of the flux over the norm of its mean."""
    data = _real_if_allowed(j.data)
    return _residual(data, np.empty(0), _mean_vec(data))


def equilibrium_residual_aug(jaug: AugmentedField, pmap: PhaseMap) -> float:
    """Augmented-space analogue: gradient-type part over constant part."""
    q = _real_if_allowed(jaug.Q.data)
    return _residual(q, jaug.S.data[:, _chi_of(pmap, jaug)], _mean_vec(q))


def estimate_rate(history: ConvergenceHistory, window: int) -> float:
    """Geometric-mean ratio of successive residuals over the final window."""
    if window < 1:
        raise ContractError(f"window must be >= 1, got {window}")
    if len(history) < window + 1:
        raise ContractError(
            f"need {window + 1} records for a window of {window}, got {len(history)}"
        )
    tail = history.residuals()[-(window + 1):]
    if any(r <= 0 for r in tail):
        raise ContractError("rate estimate needs strictly positive residuals")
    return (tail[-1] / tail[0]) ** (1.0 / window)


def _tail_rate(history: ConvergenceHistory, window: int) -> float | None:
    """:func:`estimate_rate`, or None when the history is too short or not positive."""
    if len(history) < window + 1 or any(r <= 0 for r in history.residuals()[-(window + 1):]):
        return None
    return estimate_rate(history, window)


def _reference(cfg: SolverConfig, t: complex, label: str) -> complex:
    """Reference conductivity at inclusion value ``t``, called ``label`` in errors.

    A vanishing A + sigma0 I is caught by :func:`_shifted_inverse_coefs`.
    """
    if cfg.sigma0_override is not None:
        sigma0 = complex(cfg.sigma0_override)
    elif cfg.scheme.accelerated:
        sigma0 = cmath.sqrt(_require_off_cut(t, label))
    else:
        sigma0 = (t + 1.0) / 2.0
    if sigma0 == 0:
        raise DegenerateParamError(
            f"reference sigma0 vanishes ({label} = {t}, sigma0_override = {cfg.sigma0_override})"
        )
    return sigma0


class _Monitor:
    """Shared stopping logic: record, test convergence, guard divergence."""

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        self.history = ConvergenceHistory()
        self.status = TerminationStatus.MAX_ITERS
        self.degenerate_flux = False
        self._res0 = None
        self._prev_sstar = None

    def step(self, k: int, sstar: complex, res: float) -> bool:
        """Record one evaluation; True means stop iterating."""
        if not (math.isfinite(res) and cmath.isfinite(sstar)):
            # iterate blew past double range; report divergence, keep the
            # history free of non-finite records
            self.status = TerminationStatus.DIVERGED
            return True
        self.history.append(k, sstar, res)
        if self._res0 is None:
            self._res0 = res
        tol = self.cfg.tol
        settled = self._prev_sstar is None or abs(sstar - self._prev_sstar) <= tol * abs(sstar)
        if res <= tol and settled:
            self.status = TerminationStatus.CONVERGED
            return True
        if self._res0 > 0 and res > DIVERGENCE_FACTOR * self._res0:
            self.status = TerminationStatus.DIVERGED
            return True
        self._prev_sstar = sstar
        return False

    def flag_degenerate(self):
        self.degenerate_flux = True
        self.status = TerminationStatus.DIVERGED


def _r_q_band(jh, what, chi_hat, delta, pin0, c, npix, band, tmp):
    """Rows ``band`` of the FFT of the accelerated update's r_Q, into ``what``.

    r_Q is the Q slot of r = (A - sigma0 I) F_raw, where
    F_raw = (A + sigma0 I)^-1 D w, with D the S sign flip, so
    r = 2 A F_raw - D w, and D leaves the Q slot: r_Q = 2 J_raw - w_Q, with
    ``c`` = 2 and ``what`` the FFT of w_Q. At the start F = e0, so
    r_Q = J_raw - sigma0 e0: ``c`` = 1 and ``what`` the FFT of the constant
    sigma0 e0. ``jh`` is the FFT of the pinned flux
    jq = J_raw + delta (1 + (pin0 - 1) chi) on a grid of ``npix`` pixels,
    so ``chi_hat``, the FFT of chi, undoes the pin; all three are full or
    half spectra alike. Those rows of ``jh`` and the band buffer ``tmp`` are
    overwritten. :func:`_reflect_hat` calls it on each band before
    reflecting the band, on the thread that reflects it, so like the
    solver's real-space stretch it calls no name that perfbench wraps.
    """
    coef, zero = (c * (pin0 - 1.0)) * delta, (c * npix) * delta
    for i in range(2):
        j, w = jh[i, band], what[i, band]
        np.multiply(chi_hat[band], coef[i], out=tmp)
        j *= c
        j -= tmp
        if band.start == 0:
            j[0, 0] -= zero[i]
        np.subtract(j, w, out=w)


def _apply_A_arrays(q, s, t_arr, t, params, chi):
    """A = t chi'' + (I - chi'') on a raw full-grid (Q, S, T) array triple."""
    return _local_arrays((q, s, t_arr), chi, (params.p1, params.p2, params.p3), t, 1.0)


def _in_slots(m: np.ndarray, real: bool) -> np.ndarray:
    """Slot matrix ``m`` as it acts on the stored slots.

    The real path stores the slots past Q divided by i, where ``m`` acts
    as diag(1, -i, ...) m diag(1, i, ...): real, since p1 is real and p2
    and p3 are imaginary for every interval, and t and sigma0 are real
    there. Scaling by +-i is exact, so the real part drops only zeros.
    """
    if not real:
        return m
    scale = np.full(len(m), 1j)
    scale[0] = 1.0
    return (m * scale / scale[:, None]).real


def solve(pmap: PhaseMap, cfg: SolverConfig) -> SolveResult:
    """Run the scheme selected by ``cfg.scheme``: the one iteration kernel of all four."""
    accelerated = cfg.scheme.accelerated
    sigma1 = complex(cfg.sigma1)
    if cfg.scheme.substituted:
        t = map_t(sigma1, cfg.interval)
        params = solve_p(cfg.interval)
        p, label = (params.p1, params.p2, params.p3), "t"
    else:
        t, p, label = sigma1, (1.0,), "sigma1"
    sigma0 = _reference(cfg, t, label)
    chi = pmap.chi
    e0v = _e0_vector(cfg.e0)
    # Real t, sigma0 and e0 make the whole iteration real when gamma1 maps
    # real fields to real fields: every field, slot and scalar of the loop
    # is then float64, the slots past Q are stored divided by i
    # (:func:`_in_slots`), and the transforms are half spectra.
    dtype = _field_dtype(chi.shape, t, sigma0, e0v)
    real = dtype is np.float64
    if real:
        sigma0, e0v = sigma0.real, e0v.real
    # Slots past Q vanish off the inclusion, so the phase-1 pixels
    # ``support`` carry all len(p) slots packed in ``x``, each (2, m); the
    # full-grid Q slot lives in ``fq``. A is the identity on the Q slot of
    # phase-2 pixels; ``y`` holds A x on phase 1. The S line of the basic
    # update acts on slot 1, which the physical schemes lack. ``scratch``,
    # one packed slot, holds every packed temporary of the loop: the slot
    # kernel's products, x[i] sigma0 of the accelerated update and the
    # pinned flux on phase 1, slot by slot; its S slot ``js`` stays there
    # for the residual and the next basic update.
    support = np.flatnonzero(chi)
    npix = chi.size
    a_mat = _in_slots(_slot_matrix(p, t, 1.0), real)
    # A maps a constant Q-slot shift delta to a_mat[i, 0] delta in slot i on
    # phase 1; the pin reads slots Q and S. It has both rows even for one
    # slot: numpy rounds a one-element complex product in its scalar loop,
    # unlike a longer one, so a one-component pin would change the bits.
    pin = np.zeros((2, 1, 1), dtype=dtype)
    pin[: len(p), 0, 0] = a_mat[:2, 0]
    fq = np.empty((2, *chi.shape), dtype=dtype)
    fq[0], fq[1] = e0v[0], e0v[1]
    x = np.zeros((len(p), 2, support.size), dtype=dtype)
    _pack(fq, support, out=x[0])
    y = np.empty_like(x)
    scratch = np.empty_like(x[0])
    js = scratch if len(p) > 1 else np.empty(0)
    # the pinned flux and its transform ``jh``, which the residual takes:
    # jq itself, in place, when complex, and a half spectrum of its own when
    # real. The basic update finishes gamma1 of jq from it
    jq = np.empty_like(fq)
    jh = np.empty((2, chi.shape[0], chi.shape[1] // 2 + 1), dtype=np.complex128) if real else jq
    # per component: the mean pin delta, A's response to it on phase 1
    # (slots Q and S), and the pinned flux's mean
    delta = np.empty(2, dtype=dtype)
    pin_delta = np.empty((2, 2, 1), dtype=dtype)
    jmean = np.empty(2, dtype=dtype)
    if accelerated:
        inv_on, inv_off = _shifted_inverse_coefs(t, sigma0)
        inv_mat = _slot_matrix(p, inv_on, inv_off)
        # the reflection negates the S slot of r; the inverse applies that sign
        inv_mat[:, 1:2] *= -1
        inv_mat = _in_slots(inv_mat, real)
        if real:
            inv_off = inv_off.real
        two_s0_e0 = 2.0 * sigma0 * e0v
        pin0 = a_mat[0, 0]
        chi_hat = _fft2(chi.astype(dtype))
        # the FFT of w_Q, with the start value that _r_q_band takes at k = 2
        what = np.zeros_like(jh)
        what[:, 0, 0] = sigma0 * e0v * chi.size

    def real_space(cs, update):
        """The real-space stretch of one iteration on the field components ``cs``.

        From the field the inverse FFT left (w_Q in fq when accelerated,
        gamma1 of the last pinned flux in jq when basic) to the pinned
        flux in jq, its S slot ``js`` and its mean. Every step acts on each
        component alone, and scalars stay one-component arrays, so ``cs``
        = c:c+1 on each thread of a split gives the bits of 0:2. Calls no
        splitting helper, and no name that perfbench wraps in this module.
        """
        f, j, s, xs, ys = fq[cs], jq[cs], scratch[cs], x[:, cs], y[:, cs]
        if update and accelerated:
            # w = (2 sigma0 e0 - 2 gamma1(r_Q) + r_Q, -r_S, r_T), whose S
            # sign inv_mat carries, is formed in y; x = (A + sigma0 I)^-1 D w
            _pack(f, support, out=ys[0])
            for i in range(1, len(p)):
                np.multiply(xs[i], sigma0, out=s)
                ys[i] -= s
            _slot_sums(inv_mat, ys, xs, s)
            f *= inv_off
            _scatter(f, support, xs[0])
        elif update:
            # F -= (gamma1 J_Q, J_S) / sigma0, with J_S in scratch
            j /= sigma0
            f -= j
            _pack(f, support, out=xs[0])
            if len(p) > 1:
                s /= sigma0
                xs[1] -= s
        _slot_sums(a_mat, xs, ys, s)
        # Constant Q-slot correction pins the mean field at e0 for
        # reporting; the accelerated update keeps the raw iterate in x and
        # in the transforms so the map stays exact.
        d = delta[cs]
        np.subtract(e0v[cs], [_per_pixel(_compensated_ctotal(c), npix) for c in f], out=d)
        f += d[:, None, None]
        pin_delta[:, cs] = pin * d[:, None]
        j[...] = f
        _scatter(j, support, np.add(ys[0], pin_delta[0, cs], out=s))
        if len(p) > 1:
            np.add(ys[1], pin_delta[1, cs], out=s)
        jmean[cs] = [_per_pixel(_compensated_ctotal(c), npix) for c in j]

    mon = _Monitor(cfg)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iters + 1):
            if k > 1:
                if accelerated:
                    c = 1.0 if k == 2 else 2.0
                    band = partial(_r_q_band, jh, what, chi_hat, delta, pin0, c, npix)
                    # the sweep turns the rows of jh into r_Q, after which
                    # jh is dead until the residual refills it: the inverse
                    # real FFT runs through it, and what stays w_Q's transform
                    _reflect_hat(what, two_s0_e0, fq, band, jh)
                else:
                    # jh holds the transform of the last pinned flux, which
                    # this consumes; the residual refills it
                    _gamma1_inverse(jh, jq)
            halves = ((slice(c, c + 1), k > 1) for c in range(2))
            if _split(npix, real_space, *halves) is None:
                real_space(slice(0, 2), k > 1)
            sstar = _along(e0v, jmean)
            try:
                res = _residual(jq, js, jmean, jh)
            except ContractError:
                mon.flag_degenerate()
                break
            if mon.step(k, sstar, res):
                break

    sigma_star = mon.history.records[-1].sigma_star if len(mon.history) else sstar
    if jh is jq:
        # the residual left jq in Fourier space: rebuild it, bit for bit
        jq[...] = fq
        _scatter(jq, support, np.add(y[0], pin_delta[0], out=scratch))
    return SolveResult(
        sigma_star=sigma_star,
        history=mon.history,
        status=mon.status,
        degenerate_flux=mon.degenerate_flux,
        _grids=(fq, jq),
        _packed=(support, x[1:]) if cfg.scheme.substituted else None,
    )
