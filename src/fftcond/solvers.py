"""Fixed-point solvers for the periodic two-phase conductivity problem.

Four schemes share one contract: drive the equilibrium residual of the
flux to zero and report the effective conductivity along the applied
field. :func:`solve` is the one entry point and the one iteration
kernel; ``cfg.scheme`` selects the scheme. It runs on slots coupled on the
inclusion by a coefficient tuple p. Its local operators have the form
on chi'' + off (I - chi'') with chi'' = chi p (x) p: A is (t, 1) and the
shifted inverse (A + sigma0 I)^-1 is (1/(t + sigma0), 1/(1 + sigma0)),
both applied by the rank-one kernel of spectral_ops. The mean pin is
column 0 of A (:func:`_pin_column`). ``basic_sub`` and
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
physical electric field and whose A is t. t and the reference sigma0,
(t + 1)/2 for the basic schemes and sqrt(t) for the accelerated ones,
which iterate on the polarization-like variable w = (A + sigma0) F, come
from transform.iteration_point, as map_z's do. All four converge to the
same discrete solution.

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
once per solve. r is formed in real space by one formula: on the
inclusion A - sigma0 I = (1 - sigma0) I + (t - 1) p (x) p, one rank-one
product per slot, and off it r_Q = (1 - sigma0)(J_Q - delta). One band
pass adds the grad term of the reflection and scales the result by
1/(1 + sigma0), the local inverse off the inclusion. The recursion
carries its roundoff from iteration to iteration, a random
walk that leaves a residual floor near 1e-13; below _EXACT_BELOW the
update transforms div r_Q itself instead, one more forward FFT per
iteration. sigma* is read off the flux of the local operator A in every
path.

The loop runs in real arithmetic when t, sigma0 and e0 are real and the
Green table maps real fields to real fields, as the rotated one does and
the spectral reference does not (``spectral_ops._field_dtype``): its
fields, slots and scalars are float64, its transforms half spectra, and
the slots past Q are stored divided by i. p (x) p then acts as
p_out p_in^T, with the real p_in = (p1, i p2, i p3), with which
u = p_in . x, and p_out = (p1, -i p2, -i p3), real because p1 is real
and p2 and p3 are imaginary (:func:`_mixer_in_slots`). Otherwise the
same loop runs in complex arithmetic, where both are p. The public
residuals take the real path on a field whose imaginary part is 0, so
they repeat the residual a real solve records.

A solve allocates its working set once, and nothing after its loop: one
real-space grid, the full-grid Q slot of the pinned flux, which off the
inclusion is the pinned field, as A is the identity on the Q slot there;
one buffer for the spectrum of div J_Q and the scalar grid of the
potential (spectral_ops._scalar_pair), the grid itself, transformed in
place, on the complex path, and on the real path a float64 array whose
first nx columns are the grid and whose complex view is the half
spectrum; the indices of the inclusion pixels and the len(p) packed
slots x = F on them, where the accelerated update also forms w; with
more than one slot, their mix u; and one packed scratch of one slot,
which receives each flux slot as it is read. That is 2, 2, 4 and 5
packed slots for ``basic``, ``em``, ``basic_sub`` and ``em_sub``. The update turns the
grid into the next field, from r_Q through w_Q when accelerated, and
then into the pinned flux. An accelerated solve adds the spectrum of
div r_Q and that of chi.
The loop allocates only band-sized temporaries: the residual squares
|js|^2, one field component at a time, in the float64 view of the
buffer of the spectrum and the grid, both dead at that point, before
its forward FFT writes the spectrum. On the real path the inverse FFT
runs its column pass in the spectrum, which is dead at that point, and
its row pass into the grid band by band; the residual's forward FFT
refills the spectrum without writing the grid. The result keeps the flux, x and the
mean pin delta: ``J_field`` wraps the flux on first read, a complex copy
on the real path; ``E_field`` is a copy of it whose inclusion pixels are
set to x[0] + delta, the pinned field there, as off them A is the
identity on the Q slot; and ``aug_field`` unpacks S and T into full
grids, times i on the real path, on first read, with T zero for
``basic_sub``.

On grids of at least 2^18 pixels per component, with two CPUs to run
on, read once per pass (spectral_ops._split), each pass of the scalar
FFTs, the div stencil and the Fourier-space sweeps (the Parseval sum,
the recursion and the basic update's scaling) split across two threads,
with the bits of one thread. So does the real-space stretch of each
iteration, from the potential to the pinned flux and its mean, as one
split with one field component per thread: the grad stencil, the
gathers, the slot updates and flux slots, the scatters, the mean pin and
both compensated means. The monitor and the residual's Parseval combine
and |js|^2 total stay on the calling thread.

Stopping: equilibrium residual <= tol and a relative change in the
effective-conductivity estimate <= tol, with a divergence guard at 1e6
times the initial residual. Runs are deterministic for a fixed
configuration, whatever the CPU count, even one that changes mid-run.
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
    _mix,
    _per_pixel,
    _potential,
    _rank_one,
    _real_if_allowed,
    _reflect_hat,
    _scalar_pair,
    _scale_hat,
    _scatter,
    _shifted_inverse_coefs,
    _split,
    _unpack,
)
from .transform import (
    SchemeKind,
    SpectralInterval,
    SubstitutionParams,
    iteration_point,
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
    return _along(e0v, _mean_vec(_flux_q(f, t, params, pmap)))


def recover_physical_fields(
    f: AugmentedField, t: complex, params: SubstitutionParams, pmap: PhaseMap
) -> tuple[VectorField, VectorField]:
    """Electric and current fields encoded by a converged augmented solution.

    E is the Q-slot of the field; J is the Q-slot of the local flux A F.
    No division by the inclusion conductivity occurs, so an insulating
    inclusion (sigma1 = 0) is handled without special casing.
    """
    # the flux first: its packed slots are freed before the copy of E is made
    j = _flux_q(f, t, params, pmap)
    return VectorField(f.Q.data.copy()), VectorField(j)


def _flux_q(f: AugmentedField, t: complex, params: SubstitutionParams, pmap: PhaseMap):
    """The Q slot of the flux A F of an augmented field, the one slot the read-outs use:
    that of :func:`spectral_ops.apply_local_A`, with no S or T grid formed."""
    slots, p = (f.Q.data, f.S.data, f.T.data), (params.p1, params.p2, params.p3)
    (q,) = _local_arrays(slots, _chi_of(pmap, f), p, complex(t), 1.0, q_only=True)
    return q


def _residual(jq: np.ndarray, js: np.ndarray, jmean: np.ndarray, gh=None) -> float:
    """Equilibrium residual of a flux with Q slot ``jq`` and mean ``jmean``.

    The gradient-type part (gamma1 jq, js) over the norm of the mean, per
    pixel, with |gamma1 jq|^2 summed by Parseval from the spectrum of
    div jq; ``js`` holds the S slot on the inclusion pixels only, and is
    empty for a physical flux. ``gh`` receives the spectrum of div jq
    (:func:`spectral_ops._div_hat`); it is the spectrum of a
    :func:`spectral_ops._scalar_pair`, made here when not given. Before
    the transform writes it, its float64 view, which holds at least the
    pixels of one grid, squares |js|^2 one component at a time: the
    residual allocates no buffer of its own. ContractError when the mean
    flux vanishes, and nan when it overflows.
    """
    den = float(np.linalg.norm(jmean))
    if den < _TINY:
        raise ContractError("mean flux vanishes; residual is undefined")
    if not math.isfinite(den):
        # div cancels the constant part of a flux whose mean overflows
        return math.nan
    npix = jq.shape[-1] * jq.shape[-2]
    if gh is None:
        gh = _scalar_pair(jq.shape[-2:], jq.dtype)[1]
    # the total of a 1-D row is the pairwise sum that of a (2, m) array
    # takes of each row, and the two combine as its rows do
    power = gh.view(np.float64).reshape(-1)[: js.shape[-1]]
    rows = [_compensated_total(np.square(np.abs(c, out=power), out=power)) for c in js]
    js_total = _combine_rows(np.array(rows))
    total = _gamma1_sqnorm(jq, gh)
    total += js_total
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
    """A = t chi'' + (I - chi'') on a raw full-grid (Q, S, T) array triple.

    No scheme calls it: perfbench's ``local_A`` hook wraps this name in
    this module, and its smoke test names it.
    """
    return _local_arrays((q, s, t_arr), chi, (params.p1, params.p2, params.p3), t, 1.0)


def _mixer_in_slots(p: tuple, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """(p_in, p_out), with which chi'' = p (x) p acts on the stored slots as p_out p_in^T.

    Both are p on the complex path. The real path stores the slots past
    Q divided by i, so p_in = (p1, i p2, i p3) and p_out = (p1, -i p2,
    -i p3): real, as p1 is real and p2 and p3 are imaginary, the real
    part dropping only zeros. In either case p_in . p_out = p . p = 1.
    """
    p = np.array(p, dtype=np.complex128)
    if not real:
        return p, p
    scale = np.full(len(p), 1j)
    scale[0] = 1.0
    return (p * scale).real, (p / scale).real


def _pin_column(t, p_in: np.ndarray, p_out: np.ndarray) -> np.ndarray:
    """Column 0 of A = t chi'' + (I - chi'') on the stored slots, the mean pin's response.

    t pp + (delta_i0 - pp) for pp = p_out,i p_in,0; with one slot, (t,).
    """
    pp = p_out * p_in[0]
    return t * pp + (np.eye(1, len(pp))[0] - pp)


def solve(pmap: PhaseMap, cfg: SolverConfig) -> SolveResult:
    """Run the scheme selected by ``cfg.scheme``: the one iteration kernel of all four."""
    accelerated = cfg.scheme.accelerated
    t, label, sigma0 = iteration_point(cfg.scheme, cfg.sigma1, cfg.interval, cfg.sigma0_override)
    # a vanishing A + sigma0 I is caught by _shifted_inverse_coefs
    if sigma0 == 0:
        raise DegenerateParamError(
            f"reference sigma0 vanishes ({label} = {t}, sigma0_override = {cfg.sigma0_override})"
        )
    if cfg.scheme.substituted:
        params = solve_p(cfg.interval)
        # the basic update never writes T, which starts at 0, so basic_sub
        # runs on (Q, S) alone
        p = (params.p1, params.p2, params.p3) if accelerated else (params.p1, params.p2)
    else:
        p = (1.0,)
    chi = pmap.chi
    nx = chi.shape[1]
    e0v = _e0_vector(cfg.e0)
    # Real t, sigma0 and e0 make the whole iteration real when gamma1 maps
    # real fields to real fields: every field, slot and scalar of the loop
    # is then float64, the slots past Q are stored divided by i
    # (:func:`_mixer_in_slots`), and the transforms are half spectra.
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
    # loop holds only ``u`` = p_in . x (:func:`_mix`) and forms each flux
    # slot y_i = x_i + (t - 1) p_out,i u where it reads it
    # (:func:`_rank_one`, with ``flux_a`` and ``flux_coefs``). ``scratch``,
    # one packed slot, holds every packed temporary of the loop: the flux
    # slots, r_Q and the products of the accelerated update, and the
    # pinned flux on phase 1, slot by slot; its S slot ``js`` stays there
    # for the residual and the next basic update.
    support = np.flatnonzero(chi)
    npix = chi.size
    mixed = len(p) > 1
    p_in, p_out = _mixer_in_slots(p, real)
    column = _pin_column(t.real if real else t, p_in, p_out)
    # A maps a constant Q-slot shift delta to column[i] delta in slot i on
    # phase 1; the pin reads slots Q and S. It has both rows even for one
    # slot: numpy rounds a one-element complex product in its scalar loop,
    # unlike a longer one, so a one-component pin would change the bits.
    # For one slot A is column[0] = pin0.
    pin = np.zeros((2, 1, 1), dtype=dtype)
    pin[: len(p), 0, 0] = column[:2]
    pin0 = column[0]
    jq = np.empty((2, *chi.shape), dtype=dtype)
    jq[0], jq[1] = e0v[0], e0v[1]
    x = np.zeros((len(p), 2, support.size), dtype=dtype)
    x[0] = e0v[:, None]
    scratch = np.empty_like(x[0])
    js = scratch if mixed else np.empty(0)
    flux_coefs = ((t - 1.0).real if real else t - 1.0) * p_out
    # x[1:] is 0; one slot keeps no mix, and its flux is pin0 x[0]
    flux_a, u = (None, x[0] * p_in[0]) if mixed else (pin0, None)
    # the scalar grid of the potential whose grad updates jq, and the
    # spectrum ``gh`` of div jq, which the residual takes, in one buffer
    grid, gh = _scalar_pair(chi.shape, dtype)
    # per component: the mean pin delta, A's response to it on phase 1
    # (slots Q and S), and the pinned flux's mean
    delta = np.empty(2, dtype=dtype)
    pin_delta = np.empty((2, 2, 1), dtype=dtype)
    jmean = np.empty(2, dtype=dtype)
    if accelerated:
        inv_on, inv_off = _shifted_inverse_coefs(t, sigma0)
        if real:
            inv_on, inv_off = inv_on.real, inv_off.real
        if mixed:
            # (A + sigma0 I)^-1 = inv_off I + (inv_on - inv_off) p_out p_in^T
            # after the reflection's sign flip of the S slot of r
            flip = np.ones(len(p))
            flip[1] = -1.0
            v_coefs = p_in * flip
            off_coefs = inv_off * flip
            jump_coefs = (inv_on - inv_off) * p_out
        # off the inclusion 2 sigma0 e0 + r_Q = r_off jq + r_shift, set with delta
        r_off = 1.0 - sigma0
        r_a = r_off if mixed else pin0 - sigma0
        two_s0_e0 = 2.0 * sigma0 * e0v
        r_shift = np.empty(2, dtype=dtype)
        # the pin of jq enters div jq through the spectrum of chi; qh
        # carries the spectrum of div r_Q, scaled (:func:`_reflect_hat`)
        chi_hat = _chi_hat(chi.astype(dtype))
        qh = np.empty_like(gh)

    def r_on_support(cs):
        """r = (A - sigma0 I) F_raw of the last iterate on the inclusion: r_i = r_a x_i + c_i u.

        A - sigma0 I is r_a I + (t - 1) p_out p_in^T there, r_a = 1 - sigma0,
        or t - sigma0 for one slot. Past Q r goes into x through scratch, and
        2 sigma0 e0 + r_Q into scratch through x[0], which is spent: the
        update gathers its grad term there.
        """
        s, xs, us = scratch[cs], x[:, cs], u[cs] if mixed else None
        for i in range(1, len(p)):
            _rank_one(xs[i], xs[i], r_a, flux_coefs[i], us, s)
        _rank_one(s, xs[0], r_a, flux_coefs[0], us, xs[0])
        s += two_s0_e0[cs, None]

    def form_r(cs):
        """2 sigma0 e0 + r_Q of the last iterate in jq, and r past Q in x, on the components ``cs``."""
        f = jq[cs]
        f *= r_off
        f += r_shift[cs, None, None]
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
        us = u[cs] if mixed else None
        if update and not accelerated and mixed:
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
                scale, shift = inv_off * r_off, inv_off * r_shift[cs]
            _add_grad(space, jq, cs, scale, shift, support, xs[0] if accelerated else s, buffers)
        if update and accelerated:
            # w = (2 sigma0 e0 + r_Q - 2 gamma1(r_Q), -r_S, r_T) and
            # x = (A + sigma0 I)^-1 D w, with D the S sign flip. The
            # potential carries 1/(1 + sigma0), and the band pass took jq,
            # or 2 sigma0 e0 + r_Q in it when ``formed``, to
            # w_Q / (1 + sigma0), the field off the inclusion, and left
            # the grad term over 1 + sigma0 on the inclusion in x[0];
            # r_on_support left 2 sigma0 e0 + r_Q there in scratch
            xs[0] *= 1.0 + sigma0
            xs[0] += s
            if mixed:
                # with v = p_in . D w in u, x = inv_off D w + (inv_on -
                # inv_off) p_out v, and u = p_in . x = inv_on v, as
                # p_in . p_out = 1
                _mix(xs, v_coefs, us, s)
                for i in range(len(p)):
                    _rank_one(xs[i], xs[i], off_coefs[i], jump_coefs[i], us, s)
                us *= inv_on
            else:
                _rank_one(xs[0], xs[0], inv_on)
        elif update:
            # on the inclusion: the pinned field x[0] + delta, E_field's
            # bits, plus the grad term
            xs[0] += delta[cs, None]
            xs[0] += s
            if mixed:
                _mix(xs, p_in, us, s)
        _scatter(j, support, xs[0])
        _rank_one(s, xs[0], flux_a, flux_coefs[0], us)
        # Constant Q-slot correction pins the mean field at e0 for
        # reporting; x keeps the raw iterate, and the accelerated update
        # keeps it in div r_Q too, so the map stays exact.
        d = delta[cs]
        np.subtract(e0v[cs], [_per_pixel(_compensated_ctotal(c), npix) for c in j], out=d)
        j += d[:, None, None]
        pin_delta[:, cs] = pin * d[:, None]
        if accelerated:
            r_shift[cs] = two_s0_e0[cs] - r_off * d
        s += pin_delta[0, cs]
        _scatter(j, support, s)
        if mixed:
            _rank_one(s, xs[1], None, flux_coefs[1], us)
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
                # FFT takes it to real space, into the grid of its buffer
                if exact:
                    _split(
                        npix, form_r, lambda: ((slice(0, 1),), (slice(1, 2),)), lambda: (slice(0, 2),)
                    )
                    _scale_hat(_div_hat(jq, gh), nx, -2.0 * inv_off)
                elif accelerated:
                    c = 1.0 if k == 2 else 2.0
                    _reflect_hat(gh, qh, chi_hat, (pin0 - 1.0) * delta, c, nx, inv_off)
                else:
                    _scale_hat(gh, nx, -1.0 / sigma0)
                space = _potential(gh, grid)
            # grad buffers per thread, made before either starts: what a split holds is fixed
            args = (k > 1, space, exact)
            _split(
                npix,
                real_space,
                lambda: tuple((slice(i, i + 1), *args, _grad_buffers(space)) for i in (0, 1)),
                lambda: (slice(0, 2), *args, None),
            )
            sstar = _along(e0v, jmean)
            try:
                res = _residual(jq, js, jmean, gh)
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
