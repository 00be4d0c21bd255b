"""Fixed-point solvers for the periodic two-phase conductivity problem.

Four schemes share one contract: drive the equilibrium residual of the
flux to zero and report the effective conductivity along the applied
field. :func:`solve` is the one entry point and the one iteration
kernel; ``cfg.scheme`` selects the scheme. It runs on slots coupled on the
inclusion by a coefficient tuple p. Its local operators have the form
on chi'' + off (I - chi'') with chi'' = chi p (x) p: A is (t, 1) and the
shifted inverse (A + sigma0 I)^-1 is (1/(t + sigma0), 1/(1 + sigma0)).
The mean pin is column 0 of A's slot matrix. ``basic_sub`` and
``em_sub`` work in the augmented (Q, S, T) space, p = (p1, p2, p3), where
the inclusion conductivity is replaced by the mapped parameter
t = map_t(sigma1) whose disk coordinate is closer to the origin whenever
the singularities of the effective conductivity are confined to the
assumed interval. There p . p = 1, so on the inclusion A = I + (t - 1)
p p^T is a rank-one update of I, and so is the shifted inverse,
inv_off I + (inv_on - inv_off) p p^T: the loop keeps the slots x and
their one mix u = p . x, forms each flux slot y_i = x_i + (t - 1) p_i u
where it reads it, and applies the inverse to z as inv_off z +
(inv_on - inv_off) p v with v = p . z, after which u = inv_on v. The
basic update never writes T, which starts at 0, so ``basic_sub`` runs on
p = (p1, p2), where A keeps the form and needs no inverse. ``basic`` and
``em`` are the one-slot case, p = (1,) and t = sigma1, whose slot is the
physical electric field and whose A is t. The basic schemes use the
reference sigma0 = (t + 1)/2; the accelerated ones iterate on the
polarization-like variable w = (A + sigma0) F with sigma0 = sqrt(t). All
four converge to the same discrete solution.

All four record the same residual, the one :func:`equilibrium_residual`
and :func:`equilibrium_residual_aug` compute: |gamma1 J_Q|^2 is summed by
Parseval from the spectrum of div J_Q, one scalar grid and one scalar
FFT (spectral_ops). Each iteration takes that forward FFT and one
inverse scalar FFT. The basic schemes scale the residual's spectrum into
the potential of -gamma1(J_Q) / sigma0 for their next update. The
accelerated ones need only div r_Q, where r = (A - sigma0 I) F_raw of
the raw iterate F_raw = (A + sigma0 I)^-1 D w, with D the S sign flip:
the reflection w_Q = 2 sigma0 e0 + r_Q - 2 gamma1(r_Q) has
div w_Q = -div r_Q, and r = 2 A F_raw - D w has Q slot
r_Q = 2 J_raw - w_Q, so the spectrum of div r_Q follows from that of
div J_raw, the residual's less its mean pin, and the last one
(spectral_ops._reflect_hat). The pin J_Q - J_raw =
delta (1 + (pin0 - 1) chi) enters through the spectrum of chi, taken
once per solve. r_Q itself is formed in real space from the pinned flux,
(1 - sigma0)(J_Q - delta) off the inclusion and y[0] - sigma0 x[0] on
it, and one band pass adds the grad term of the reflection and scales
the result by 1/(1 + sigma0), the local inverse off the inclusion. The
recursion carries its roundoff from iteration to iteration, a random
walk that leaves a residual floor near 1e-13; below _EXACT_BELOW the
update transforms div r_Q itself instead, one more forward FFT per
iteration. sigma* is read off the flux of the local operator A in every
path.

The loop runs in real arithmetic when t, sigma0 and e0 are real and the
Green table maps real fields to real fields, as the rotated one does and
the spectral reference does not (``spectral_ops._field_dtype``): its
fields, slots and scalars are float64, its transforms half spectra, and
the slots past Q are stored divided by i. Each slot matrix M then acts
as diag(1, -i, -i) M diag(1, i, i), which is real because p1 is real and
p2 and p3 are imaginary, and p (x) p as p_out p_in^T, with the real
p_in = (p1, i p2, i p3), with which u = p_in . x, and
p_out = (p1, -i p2, -i p3). Otherwise the same loop runs in complex
arithmetic, where both are p. The public residuals take the real path on a field whose
imaginary part is 0, so they repeat the residual a real solve records.

A solve allocates its working set once, and nothing after its loop: one
real-space grid, the full-grid Q slot of the pinned flux, which off the
inclusion is the pinned field, as A is the identity on the Q slot there;
the scalar grid of div J_Q and of the potential, and its spectrum, a half
spectrum of its own on the real path and the grid itself on the complex
one; the indices of the inclusion pixels and the len(p) packed slots x =
F on them, where the accelerated update also forms w; with more than one
slot, their mix u; and one packed scratch of one slot, which receives
each flux slot as it is read. That is 2, 2, 4 and 5 packed slots for
``basic``, ``em``, ``basic_sub`` and ``em_sub``. The update turns the
grid into the next field, from r_Q through w_Q when accelerated, and
then into the pinned flux. An accelerated solve adds the spectrum of
div r_Q and that of chi.
The loop allocates only band-sized temporaries and the residual's |js|^2
of one field component. The inverse real FFT of the real path runs
through the spectrum, which is dead at that point, and which the
residual refills. The result keeps the flux, x and the mean pin delta:
``J_field`` wraps the flux on first read, a complex copy on the real
path; ``E_field`` is a copy of it whose inclusion pixels are set to
x[0] + delta, the pinned field there, as off them A is the identity on
the Q slot; and ``aug_field`` unpacks S and T into full grids, times i on
the real path, on first read, with T zero for ``basic_sub``.

On grids of at least 2^18 pixels per component, with two CPUs to run
on, each pass of the scalar FFTs, the div stencil and the Fourier-space
sweeps (the Parseval sum, the recursion and the basic update's scaling)
split across two threads, with the bits of one thread. So does the
real-space stretch of each iteration, from the potential to the pinned
flux and its mean, as one split with one field component per thread:
the grad stencil, the gathers, the slot updates and flux slots, the
scatters, the mean pin and both compensated means. The monitor and the
residual's Parseval combine and |js|^2 total stay on the calling thread.

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
from functools import cached_property

import numpy as np

from .errors import ContractError, DegenerateParamError, IntervalError
from .geometry import PhaseMap
from .spectral_ops import (
    AugmentedField,
    VectorField,
    _add_grad,
    _chi_hat,
    _chi_of,
    _combine_rows,
    _compensated_ctotal,
    _compensated_total,
    _div_hat,
    _field_dtype,
    _gamma1_arr,  # unused here; perfbench/hooks.py wraps this name in this module
    _gamma1_sqnorm,
    _grad_buffers,
    _local_arrays,
    _mean_vec,
    _per_pixel,
    _potential,
    _real_if_allowed,
    _reflect_hat,
    _scale_hat,
    _scatter,
    _shifted_inverse_coefs,
    _slot_matrix,
    _split,
    _splits,
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
# Equilibrium residual below which the accelerated update forms div r_Q
# from real space. The recursion of spectral_ops._reflect_hat carries it
# with roundoff that does not decay, a random walk that leaves a residual
# floor of 2e-14 to 9e-14 on the 25% square at n = 128 (em, sigma1 = 2,
# 60 to 500 iterations).
_EXACT_BELOW = 1e-11


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

    ``_grids`` holds the one real-space grid the result keeps, the
    full-grid Q slot of the flux, float64 on the real path, with the
    support, the packed Q slot x[0] of the raw field and the mean pin
    delta: off the support the pinned field is the flux, and on it
    x[0] + delta. ``_packed`` holds, for a substituted run, the packed
    slots past Q, there divided by i: S and T for ``em_sub``, and S only
    for ``basic_sub``, whose T stays 0.
    """

    sigma_star: complex
    history: ConvergenceHistory
    status: TerminationStatus
    degenerate_flux: bool = False
    _grids: tuple = field(default=(), repr=False, compare=False)
    _packed: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def E_field(self) -> VectorField:
        """Final electric field, mean-pinned: a copy of J_field, x[0] + delta on the inclusion."""
        jq, support, x0, delta = self._grids
        e = jq.astype(np.complex128)
        # the loop's own add, so the bits of the pinned field it held
        _scatter(e, support, np.add(x0, delta[:, None]))
        return VectorField(e)

    @cached_property
    def J_field(self) -> VectorField:
        """Final flux, with the mean pin of E_field; wraps the loop's array when complex."""
        return VectorField(self._grids[0])

    @cached_property
    def aug_field(self) -> AugmentedField | None:
        """Final iterate of a substituted run, its S and T grids built on first read."""
        if self._packed is None:
            return None
        st, support = self._packed, self._grids[1]
        if not np.iscomplexobj(st):
            st = st * 1j
        shape = self.E_field.grid_shape
        slots = [VectorField(_unpack(s, support, shape)) for s in st]
        if len(slots) == 1:
            slots.append(VectorField.zeros(*shape))
        return AugmentedField(self.E_field, *slots)

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


def _residual(jq: np.ndarray, js: np.ndarray, jmean: np.ndarray, grid=None, gh=None) -> float:
    """Equilibrium residual of a flux with Q slot ``jq`` and mean ``jmean``.

    The gradient-type part (gamma1 jq, js) over the norm of the mean, per
    pixel, with |gamma1 jq|^2 summed by Parseval from the spectrum of
    div jq; ``js`` holds the S slot on the inclusion pixels only, and is
    empty for a physical flux. ``grid`` and ``gh`` receive div jq and its
    spectrum (:func:`spectral_ops._div_hat`). ContractError when the mean
    flux vanishes, and nan when it overflows.
    """
    den = float(np.linalg.norm(jmean))
    if den < _TINY:
        raise ContractError("mean flux vanishes; residual is undefined")
    if not math.isfinite(den):
        # div cancels the constant part of a flux whose mean overflows
        return math.nan
    npix = jq.shape[-1] * jq.shape[-2]
    total = _gamma1_sqnorm(jq, grid, gh)
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


def _mixer_in_slots(p: tuple, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """(p_in, p_out), with which chi'' = p (x) p acts on the stored slots as p_out p_in^T.

    Both are p on the complex path; on the real path p_in = (p1, i p2, i p3)
    and p_out = (p1, -i p2, -i p3), as in :func:`_in_slots`. In either
    case p_in . p_out = p . p = 1.
    """
    p = np.array(p, dtype=np.complex128)
    if not real:
        return p, p
    scale = np.full(len(p), 1j)
    scale[0] = 1.0
    return (p * scale).real, (p / scale).real


def solve(pmap: PhaseMap, cfg: SolverConfig) -> SolveResult:
    """Run the scheme selected by ``cfg.scheme``: the one iteration kernel of all four."""
    accelerated = cfg.scheme.accelerated
    sigma1 = complex(cfg.sigma1)
    if cfg.scheme.substituted:
        t = map_t(sigma1, cfg.interval)
        params = solve_p(cfg.interval)
        # the basic update never writes T, which starts at 0, so basic_sub
        # runs on (Q, S) alone
        p = (params.p1, params.p2, params.p3) if accelerated else (params.p1, params.p2)
        label = "t"
    else:
        t, p, label = sigma1, (1.0,), "sigma1"
    sigma0 = _reference(cfg, t, label)
    chi = pmap.chi
    nx = chi.shape[1]
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
    # ``support`` carry all len(p) slots packed in ``x``, each (2, m). A
    # is the identity on the Q slot of phase-2 pixels, so there the pinned
    # field is the pinned flux, and one full grid ``jq`` holds both; on
    # phase 1 the field is x[0] + delta. There A is t for one slot, and
    # for more I + (t - 1) p_out p_in^T (:func:`_mixer_in_slots`), so the
    # loop holds only ``u`` = p_in . x and forms each flux slot
    # y_i = x_i + (t - 1) p_out,i u where it reads it. ``scratch``, one
    # packed slot, holds every packed temporary of the loop: the flux
    # slots, r_Q and the products of the accelerated update, and the
    # pinned flux on phase 1, slot by slot; its S slot ``js`` stays there
    # for the residual and the next basic update.
    support = np.flatnonzero(chi)
    npix = chi.size
    a_mat = _in_slots(_slot_matrix(p, t, 1.0), real)
    # A maps a constant Q-slot shift delta to a_mat[i, 0] delta in slot i on
    # phase 1; the pin reads slots Q and S. It has both rows even for one
    # slot: numpy rounds a one-element complex product in its scalar loop,
    # unlike a longer one, so a one-component pin would change the bits.
    # For one slot A is a_mat[0, 0] = pin0.
    pin = np.zeros((2, 1, 1), dtype=dtype)
    pin[: len(p), 0, 0] = a_mat[:2, 0]
    pin0 = a_mat[0, 0]
    jq = np.empty((2, *chi.shape), dtype=dtype)
    jq[0], jq[1] = e0v[0], e0v[1]
    x = np.zeros((len(p), 2, support.size), dtype=dtype)
    x[0] = e0v[:, None]
    scratch = np.empty_like(x[0])
    js = scratch if len(p) > 1 else np.empty(0)
    if len(p) > 1:
        p_in, p_out = _mixer_in_slots(p, real)
        t_less_1 = (t - 1.0).real if real else t - 1.0
        flux_coefs = t_less_1 * p_out
        # x[1:] is 0
        u = x[0] * p_in[0]
    # the scalar grid of div jq, and later of the potential whose grad
    # updates jq, and the spectrum ``gh`` of div jq, which the residual
    # takes: a half spectrum of its own when real, the grid itself,
    # transformed in place, when complex
    grid = np.empty(chi.shape, dtype=dtype)
    gh = np.empty((chi.shape[0], chi.shape[1] // 2 + 1), dtype=np.complex128) if real else grid
    # per component: the mean pin delta, A's response to it on phase 1
    # (slots Q and S), and the pinned flux's mean
    delta = np.empty(2, dtype=dtype)
    pin_delta = np.empty((2, 2, 1), dtype=dtype)
    jmean = np.empty(2, dtype=dtype)
    if accelerated:
        inv_on, inv_off = _shifted_inverse_coefs(t, sigma0)
        if len(p) == 1:
            inv_one = _in_slots(_slot_matrix(p, inv_on, inv_off), real)[0, 0]
        if real:
            inv_on, inv_off = inv_on.real, inv_off.real
        if len(p) > 1:
            # (A + sigma0 I)^-1 = inv_off I + (inv_on - inv_off) p_out p_in^T
            # after the reflection's sign flip of the S slot of r
            flip = np.ones(len(p))
            flip[1] = -1.0
            v_coefs = p_in * flip
            off_coefs = inv_off * flip
            jump_coefs = (inv_on - inv_off) * p_out
        two_s0_e0 = 2.0 * sigma0 * e0v
        # the pin of jq enters div jq through the spectrum of chi; qh
        # carries the spectrum of div r_Q, scaled (:func:`_reflect_hat`)
        chi_hat = _chi_hat(chi.astype(dtype))
        qh = np.empty_like(gh)

    def flux(i, cs, out):
        """Slot i of the flux A x on the inclusion, components ``cs``, into ``out``."""
        if len(p) == 1:
            np.multiply(x[0, cs], pin0, out=out)
        else:
            np.multiply(u[cs], flux_coefs[i], out=out)
            out += x[i, cs]

    def mix(cs, coefs):
        """u = sum_i coefs[i] x[i] on the components ``cs``; scratch is spent."""
        np.multiply(x[0, cs], coefs[0], out=u[cs])
        for i in range(1, len(p)):
            np.multiply(x[i, cs], coefs[i], out=scratch[cs])
            u[cs] += scratch[cs]

    def r_on_support(cs):
        """2 sigma0 e0 + r_Q of the last iterate on the inclusion pixels, into scratch.

        r_Q = ((A - sigma0 I) F_raw)_Q is y[0] - sigma0 x[0] there. x[0] is
        spent: the grad term of the update is gathered into it next.
        """
        s = scratch[cs]
        flux(0, cs, s)
        x[0, cs] *= sigma0
        s -= x[0, cs]
        s += two_s0_e0[cs, None]

    def form_r(cs):
        """2 sigma0 e0 + r_Q of the last iterate in jq, on the components ``cs``.

        Off the inclusion A is the identity on the Q slot, so there
        r_Q = (1 - sigma0)(jq - delta); div drops the constant.
        """
        f = jq[cs]
        f *= 1.0 - sigma0
        f += (two_s0_e0[cs] - (1.0 - sigma0) * delta[cs])[:, None, None]
        r_on_support(cs)
        _scatter(f, support, scratch[cs])

    def real_space(cs, update, space, formed, buffers):
        """The real-space stretch of one iteration on the field components ``cs``.

        From the last pinned flux in jq, the pinned field off the
        inclusion, and the potential ``space`` of the update, to the
        pinned flux in jq, its S slot ``js`` and its mean. One band pass
        adds the update's grad term to jq and gathers it on the inclusion,
        into x[0] when accelerated, where r_Q has spent it, and into
        scratch otherwise; the update there goes into x, scattered into
        jq. When accelerated, the pass acts on r_Q of the last iterate,
        formed in jq unless ``formed`` says it is there already. Every
        step acts on each component alone, and scalars stay one-component
        arrays, so ``cs`` = c:c+1 on each thread of a split gives the bits
        of 0:2. The grad stencil runs in ``buffers`` when given. Calls no
        splitting helper, and no name that perfbench wraps in this module.
        """
        j, s, xs = jq[cs], scratch[cs], x[:, cs]
        if update and not accelerated and len(p) > 1:
            # F_S -= J_S / sigma0, which frees the scratch for the gather
            s /= sigma0
            xs[1] -= s
        if update:
            if not accelerated:
                # F -= (gamma1 J_Q, J_S) / sigma0, the potential carrying
                # -1/sigma0
                scale, shift = 1.0, None
            elif formed:
                scale, shift = inv_off, None
            else:
                r_on_support(cs)
                scale = inv_off * (1.0 - sigma0)
                shift = inv_off * (two_s0_e0[cs] - (1.0 - sigma0) * delta[cs])
            _add_grad(space, jq, cs, scale, shift, support, xs[0] if accelerated else s, buffers)
        if update and accelerated:
            # w = (2 sigma0 e0 + r_Q - 2 gamma1(r_Q), -r_S, r_T) and
            # x = (A + sigma0 I)^-1 D w, with D the S sign flip. The
            # potential carries 1/(1 + sigma0), and the band pass took jq,
            # or 2 sigma0 e0 + r_Q in it when ``formed``, to
            # w_Q / (1 + sigma0), the field off the inclusion, and left
            # the grad term over 1 + sigma0 on the inclusion in x[0];
            # form_r left 2 sigma0 e0 + r_Q there in scratch
            xs[0] *= 1.0 + sigma0
            xs[0] += s
            if len(p) == 1:
                xs[0] *= inv_one
            else:
                # r_i = y_i - sigma0 x_i in place; then, with v = p_in . D w
                # in u, x = inv_off D w + (inv_on - inv_off) p_out v, and
                # u = p_in . x = inv_on v, as p_in . p_out = 1
                for i in range(1, len(p)):
                    flux(i, cs, s)
                    xs[i] *= sigma0
                    np.subtract(s, xs[i], out=xs[i])
                mix(cs, v_coefs)
                us = u[cs]
                for i in range(len(p)):
                    xs[i] *= off_coefs[i]
                    np.multiply(us, jump_coefs[i], out=s)
                    xs[i] += s
                us *= inv_on
        elif update:
            # on the inclusion: the pinned field x[0] + delta, E_field's
            # bits, plus the grad term
            xs[0] += delta[cs, None]
            xs[0] += s
            if len(p) > 1:
                mix(cs, p_in)
        _scatter(j, support, xs[0])
        flux(0, cs, s)
        # Constant Q-slot correction pins the mean field at e0 for
        # reporting; x keeps the raw iterate, and the accelerated update
        # keeps it in div r_Q too, so the map stays exact.
        d = delta[cs]
        np.subtract(e0v[cs], [_per_pixel(_compensated_ctotal(c), npix) for c in j], out=d)
        j += d[:, None, None]
        pin_delta[:, cs] = pin * d[:, None]
        s += pin_delta[0, cs]
        _scatter(j, support, s)
        if len(p) > 1:
            flux(1, cs, s)
            s += pin_delta[1, cs]
        jmean[cs] = [_per_pixel(_compensated_ctotal(c), npix) for c in j]

    mon = _Monitor(cfg)
    space = None
    # whether the accelerated update takes div r_Q from real space, with a
    # transform of its own, rather than from the recursion of _reflect_hat
    exact = False

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iters + 1):
            if k > 1:
                # gh turns into the potential of the update, and the inverse
                # FFT takes it to real space: into grid, through gh when real
                if exact:
                    if _split(npix, form_r, (slice(0, 1),), (slice(1, 2),)) is None:
                        form_r(slice(0, 2))
                    _scale_hat(_div_hat(jq, grid, gh), nx, -2.0 * inv_off)
                elif accelerated:
                    c = 1.0 if k == 2 else 2.0
                    _reflect_hat(gh, qh, chi_hat, (pin0 - 1.0) * delta, c, nx, inv_off)
                else:
                    _scale_hat(gh, nx, -1.0 / sigma0)
                space = _potential(gh, grid)
            # on a split each thread's grad buffers are made before either
            # starts, so what the split holds does not depend on how the
            # threads interleave; one thread makes its own in _add_grad
            if _splits(npix):
                halves = ((slice(i, i + 1), k > 1, space, exact, _grad_buffers(space)) for i in (0, 1))
                _split(npix, real_space, *halves)
            else:
                real_space(slice(0, 2), k > 1, space, exact, None)
            sstar = _along(e0v, jmean)
            try:
                res = _residual(jq, js, jmean, grid, gh)
            except ContractError:
                mon.flag_degenerate()
                break
            if mon.step(k, sstar, res):
                break
            exact = accelerated and (exact or res < _EXACT_BELOW)

    sigma_star = mon.history.records[-1].sigma_star if len(mon.history) else sstar
    return SolveResult(
        sigma_star=sigma_star,
        history=mon.history,
        status=mon.status,
        degenerate_flux=mon.degenerate_flux,
        _grids=(jq, support, x[0], delta),
        _packed=x[1:] if cfg.scheme.substituted else None,
    )
