"""Field containers and the Fourier/local operators of both solver spaces.

A VectorField samples a complex 2-vector on the periodic pixel grid. The
projection gamma1 (zero-mean curl-free part) acts mode-wise in Fourier
space as the real rank-one multiplier d (x) d / |d|^2 of a real vector
d per mode. Every solve reads Willot's rotated finite-difference Green
operator (C. R. Mecanique 343, 2015), d = (sin(xi_x/2) cos(xi_y/2),
cos(xi_x/2) sin(xi_y/2)) at xi = 2 pi m / n: his complex d divided by a
phase, which cancels in the multiplier. d vanishes at the zero mode and,
on even grids, at the checkerboard mode (pi, pi), which gamma1 therefore
drops. The multiplier is even, M(-k) = M(k), on the Nyquist lines too,
so gamma1 maps real fields to real fields. The Moulinec-Suquet d = k on
the integer wave vectors, which this package used before, stays as a
reference table for comparisons (:func:`_spectral_table`); no solve
reads it. It is not even on the Nyquist lines of even grids, so its
table says gamma1 does not map real fields to real fields
(``_Green.maps_real``).

gamma1 is grad (div grad)^+ div, for a div whose symbol is d times a
phase that the multiplier does not see (one cached table per grid,
:func:`_green_table`: the 1-D factors of d and of the phase, and the real
table 1/|d|^2). On the rotated table div and grad are Willot's
finite-difference stencils, 2 D^T and 2 D with integer weights, applied
in real space over bands of rows (:func:`_div_rows`,
:func:`_grad_rows`): div of a field is one scalar grid and one scalar
FFT, whose spectrum gives the squared norm of gamma1(f) by Parseval
(:func:`_hat_sqnorm`) and, scaled by 1/(16 |d|^2), the spectrum of a
potential (:func:`_scale_hat`), which one inverse scalar FFT takes back
to real space (:func:`_potential`) for the grad stencil
(:func:`_add_grad`). So gamma1 costs one scalar FFT pair. On the
spectral reference div is k . f after the FFT of each component, and
grad k phi before the inverse FFT of each, in the same functions. The
Eyre-Milton update needs only the spectrum of div r, which
:func:`_reflect_hat` carries from one iteration to the next. The
Fourier-space sweeps and the stencils run over bands of rows, in band
buffers made once per call, so their temporaries stay small.

The dtype of a field picks its transform (:func:`_fft2`): a complex
field takes the full FFT, a real one its half spectrum, the nx//2 + 1
columns of non-negative x index, whose other half are their conjugates.
The sweeps then run over the half spectrum with the table cut to it
(:func:`_spectrum_table`), and the Parseval sum counts every column but
0 and, on even nx, nx/2 twice.

An AugmentedField is a (Q, S, T) triple of VectorFields whose S and T
slots vanish off the inclusion. Every local operator has the form
on chi'' + off (I - chi''), where chi'' is the rank-one slot mixer
p (x) p on the inclusion for a complex triple p with p.p = 1: A is
(t, 1), its shifted inverse (A + sigma0 I)^-1 is
(1/(t + sigma0), 1/(1 + sigma0)) and chi'' itself is (1, 0). On a
phase-1 pixel such an operator is a len(p)-square slot matrix, applied
by one kernel to slots stored on the inclusion pixels only; on phase-2
pixels it is ``off`` times the Q slot. The public operators, the sigma*
read-out and all four solvers go through that kernel, the physical ones
with the Q slot alone, p = (1,).

Arithmetic is double precision: real where a solve's fields are real
(:func:`_field_dtype`) and complex otherwise; VectorField and the public
operators are complex. Reductions (means, norms) run row-wise with a
pairwise sum and combine rows with an exactly rounded sum, so results
are deterministic for a fixed grid, whatever the CPU count. When a field
component has at least _THREAD_PIXELS pixels and the process may run on
two CPUs, each pass of a scalar FFT (one half of the rows, then one half
of the columns), the div stencil and the Fourier-space sweeps (one half
of the row bands) split across the calling thread and a thread started
for the split (:func:`_split`). The solvers split the real-space stretch
of an iteration the same way, one component per thread, with the grad
stencil, gathers, scatters, slot sums and compensated totals here. The
public operators and the sigma* read-out run on the calling thread
alone. Each thread does the unsplit arithmetic on its part, so the bits
do not change.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .errors import DegenerateParamError, SupportError
from .geometry import PhaseMap
from .transform import SubstitutionParams

# Pixels per row band of the Fourier-space sweeps and the stencils, which
# bounds their temporaries
_BAND_SIZE = 1 << 16
# Elements of numpy's ufunc buffer in the Fourier-space sweeps. numpy
# allocates one such buffer per operand for a mixed-type ufunc call, and
# for a broadcast one on short rows. At 8192, numpy's default, the
# broadcast products of a (64, 1024) band took 2.4 times as long as at
# 1024. The two threads' buffers, coinciding or not, move a split solve's
# memory peak: by 19 KB at 1024 and 11 KB at 512 in the reflection of a
# real solve at n = 256 with bands of 4096 pixels, while the reflection
# at n = 1024 took 3.4 ms at 512 against 3.5 ms at 1024.
_UFUNC_BUFSIZE = 512
# Pixels per field component from which a pass splits across two threads.
# The measured crossover sets it: a scalar FFT at n = 512 took 1.72 ms
# split against 2.14 ms (forward) and 1.79 against 2.41 ms (inverse), and
# at n = 256 0.70 split against 0.56 ms; a whole iteration at n = 256 was
# 20-28% slower split.
_THREAD_PIXELS = 1 << 18


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _splits(npix: int) -> bool:
    """Whether a pass over fields of ``npix`` pixels per component splits across two threads."""
    return npix >= _THREAD_PIXELS and _cpus() >= 2


def _split(npix: int, fn, args0: tuple, args1: tuple):
    """(fn(*args0), fn(*args1)) on two threads, or None when the pass is not split.

    A pass splits when a field component has at least _THREAD_PIXELS
    pixels (``npix``) and the process may run on two CPUs; on None the
    caller runs its whole pass itself. fn(*args1) runs on a thread
    started here and joined before return, under the caller's numpy
    error state, which is thread-local, and fn(*args0) on the calling
    thread. The two calls must write disjoint data. An exception of
    either call is raised here, after both ended.
    """
    if not _splits(npix):
        return None
    err = np.geterr()
    second, error = [], []

    def run():
        try:
            with np.errstate(**err):
                second.append(fn(*args1))
        except BaseException as exc:
            error.append(exc)

    worker = threading.Thread(target=run, name="fftcond")
    worker.start()
    try:
        first = fn(*args0)
    finally:
        # wait even when this thread raised: the worker writes the caller's arrays
        worker.join()
    if error:
        raise error.pop()
    return first, second[0]


def _compensated_total(values: np.ndarray) -> float:
    """Deterministic total of a real array: pairwise rows, exact combine."""
    if values.size == 0:
        return 0.0
    m = values.reshape(-1, values.shape[-1]) if values.ndim > 1 else values.reshape(1, -1)
    return _combine_rows(np.sum(m, axis=-1))


def _combine_rows(rows: np.ndarray) -> float:
    """Exactly rounded total of row sums; non-finite if a row is or the total overflows."""
    try:
        return math.fsum(rows.tolist())
    except (OverflowError, ValueError):  # fsum raises on a total past range, and on inf - inf
        return float(np.sum(rows))


def _compensated_ctotal(values: np.ndarray) -> complex | float:
    """:func:`_compensated_total` of a real array; of a complex one, of each part."""
    if np.iscomplexobj(values):
        return complex(_compensated_total(values.real), _compensated_total(values.imag))
    return _compensated_total(values)


def _per_pixel(total: complex | float, npix: int) -> complex | float:
    """``total`` / ``npix``, the parts of a complex total divided apart.

    Python divides a complex by an int as by npix + 0j, which turns an
    infinite part into a nan in the other part.
    """
    if isinstance(total, complex):
        return complex(total.real / npix, total.imag / npix)
    return total / npix


def _mean_vec(data: np.ndarray) -> np.ndarray:
    """Compensated per-component mean of a (2, ny, nx) array."""
    npix = data.shape[-1] * data.shape[-2]
    return np.array([_per_pixel(_compensated_ctotal(c), npix) for c in data])


@dataclass
class VectorField:
    """Complex 2-vector samples on an ny-by-nx periodic grid.

    ``data[c, j, i]`` is component c (0 = x, 1 = y) at pixel (i, j).
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3 or self.data.shape[0] != 2:
            raise ValueError(f"expected shape (2, ny, nx), got {self.data.shape}")

    @classmethod
    def zeros(cls, ny: int, nx: int) -> "VectorField":
        return cls(np.zeros((2, ny, nx), dtype=np.complex128))

    @classmethod
    def constant(cls, vec, ny: int, nx: int) -> "VectorField":
        v = np.asarray(vec, dtype=np.complex128).reshape(2)
        data = np.empty((2, ny, nx), dtype=np.complex128)
        data[0] = v[0]
        data[1] = v[1]
        return cls(data)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.data.shape[1], self.data.shape[2]

    def mean(self) -> np.ndarray:
        """Pixel mean, a complex 2-vector."""
        return _mean_vec(self.data)

    def copy(self) -> "VectorField":
        return VectorField(self.data.copy())


def inner(f: VectorField, g: VectorField) -> complex:
    """Mean over pixels of conj(f) . g."""
    npix = f.data.shape[-1] * f.data.shape[-2]
    return _per_pixel(_compensated_ctotal(np.conj(f.data) * g.data), npix)


def norm(f: VectorField) -> float:
    """Norm induced by :func:`inner`."""
    npix = f.data.shape[-1] * f.data.shape[-2]
    total = _compensated_total(np.abs(f.data) ** 2)
    return math.sqrt(total / npix)


@dataclass(frozen=True)
class _Green:
    """gamma1 = grad (div grad)^+ div on one grid, the multiplier d (x) d / |d|^2 per mode.

    d is a real vector per mode: component c is the product of the
    factors ``d[c]``, each a row (1, nx) over the x index or a column
    (ny, 1) over the y index. ``inv_d2`` is the real table 1/|d|^2,
    exactly 0 where d vanishes. The symbol of div is d times a phase
    that the multiplier does not see, the product of the factors
    ``phase``, with |phase|^2 = 1/``scale``; grad is the transpose of
    div. ``stencil`` says how the two act: as real-space stencils on
    either side of one scalar FFT, or as products by d in Fourier space,
    after the FFT of each component and before its inverse.
    ``maps_real`` says whether gamma1 maps real fields to real fields,
    which its half spectrum then determines.
    """

    d: tuple
    inv_d2: np.ndarray
    phase: tuple
    scale: float
    stencil: bool
    maps_real: bool


def _mode_index(n: int) -> np.ndarray:
    """Integer wave numbers of an n-point FFT, in its order: 0, 1, ..., -1."""
    m = np.arange(n)
    m[m >= (n + 1) // 2] -= n
    return m


def _half_angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """sin(xi/2) and cos(xi/2) at xi = 2 pi m / n, m in FFT order.

    The cos is the sin of the complementary angle pi (n - 2|m|) / (2n),
    so it keeps full precision near |xi| = pi, where np.cos loses about
    log10(n) digits, and is exactly 0 at 2m = -n, as the sin is at m = 0.
    """
    m = _mode_index(n)
    return np.sin(np.pi * m / n), np.sin(np.pi * (n - 2 * np.abs(m)) / (2 * n))


def _read_only_table(d: tuple, d2: np.ndarray, **kind) -> _Green:
    """A read-only _Green, with 1/|d|^2 set to 0 exactly where ``d2`` = |d|^2 is 0."""
    inv_d2 = np.divide(1.0, d2, out=np.zeros(d2.shape), where=d2 != 0)
    # every caller shares the cached arrays
    for table in (inv_d2, *d[0], *d[1], *kind["phase"]):
        table.flags.writeable = False
    return _Green(d, inv_d2, **kind)


@lru_cache(maxsize=8)
def _green_table(ny: int, nx: int) -> _Green:
    """The Green table of gamma1 on an ny-by-nx grid, cached.

    Willot's rotated operator, d of :func:`_half_angles`, applied as his
    finite-difference gradient D: div is 2 D^T and grad 2 D, stencils
    with integer weights (:func:`_div_rows`, :func:`_grad_rows`). The
    symbol of 2 D is 4i e^{i (xi_x + xi_y)/2} d, so that of 2 D^T is d
    times the phase -4i e^{-i (xi_x + xi_y)/2}, and scale is 1/16. Only
    1-D factors and the real 1/|d|^2 are stored.
    """
    sx, cx = (f[None, :] for f in _half_angles(nx))
    sy, cy = (f[:, None] for f in _half_angles(ny))
    d2 = sx**2 * cy**2 + cx**2 * sy**2
    phase = (
        -4j * np.exp(-1j * np.pi * _mode_index(nx)[None, :] / nx),
        np.exp(-1j * np.pi * _mode_index(ny)[:, None] / ny),
    )
    return _read_only_table(
        ((sx, cy), (cx, sy)), d2, phase=phase, scale=1 / 16, stencil=True, maps_real=True
    )


@lru_cache(maxsize=8)
def _spectral_table(ny: int, nx: int) -> _Green:
    """The Moulinec-Suquet table k (x) k / |k|^2 on an ny-by-nx grid, cached.

    A reference, read by no solve: d = k on the integer wave vectors, real,
    with div the product k . f after the FFT of each component and grad
    k phi before the inverse FFT of each; only k = 0 is dropped. Tests
    and ``tools/bench_per_iteration.py --green`` put it in place of
    :func:`_green_table` to compare the two operators.
    """
    kx = _mode_index(nx)[None, :].astype(np.float64)
    ky = _mode_index(ny)[:, None].astype(np.float64)
    return _read_only_table(
        ((kx,), (ky,)), kx * kx + ky * ky, phase=(), scale=1.0, stencil=False, maps_real=False
    )


def _spectrum_table(ny: int, nx: int, width: int) -> _Green:
    """The Green table of an ny-by-nx grid on the first ``width`` columns of its spectrum.

    ``width`` is nx for the FFT of a complex field, or nx//2 + 1 for the
    half spectrum of a real one; the row factors and 1/|d|^2 are cut to
    it, as views. A half spectrum needs a table that maps real fields to
    real fields.
    """
    g = _green_table(ny, nx)
    if width == nx:
        return g
    if not g.maps_real:
        raise ValueError("this Green table does not map real fields to real fields")
    d = tuple(tuple(f[:, :width] for f in dc) for dc in g.d)
    phase = tuple(f[:, :width] for f in g.phase)
    return replace(g, d=d, inv_d2=g.inv_d2[:, :width], phase=phase)


def _field_dtype(shape: tuple, *values) -> type:
    """float64 when a solve on a grid of ``shape`` may run in real arithmetic, else complex128.

    It may when gamma1 maps real fields to real fields on that grid and
    every one of ``values``, numbers or arrays, is real.
    """
    if _green_table(*shape).maps_real and not any(np.any(np.imag(v)) for v in values):
        return np.float64
    return np.complex128


def _real_if_allowed(data: np.ndarray) -> np.ndarray:
    """A (2, ny, nx) ``data``, as a real copy when :func:`_field_dtype` allows real arithmetic.

    The public operators read a field through it, so that on the flux of
    a solve that ran in real arithmetic the residual repeats its residual
    bit for bit, and gamma1 of a real field is real.
    """
    if np.iscomplexobj(data) and _field_dtype(data.shape[-2:], data) is np.float64:
        return np.ascontiguousarray(data.real)
    return data


def _bands(ny: int, nx: int, size: int) -> list:
    """Row slices of an ny-by-nx grid, each of about ``size`` pixels."""
    step = max(1, size // nx)
    return [slice(lo, lo + step) for lo in range(0, ny, step)]


def _sweep(band_fn, ny: int, nx: int, dtypes: tuple = (), npix: int | None = None) -> list:
    """[band_fn(rows, *buffers) for each row band of an ny-by-nx array], in band order.

    Bands of about _BAND_SIZE pixels bound the temporaries of band_fn,
    which works in ``buffers``: one band-sized array of each of
    ``dtypes``, cut to the rows of the band. The sweep splits as a pass
    over fields of ``npix`` pixels per component does, ny * nx if not
    given: a half spectrum passes the pixels of its grid. On a split each
    thread sweeps one half of the bands, and the bands are half that
    size, so the two threads hold what one does unsplit. Every thread's
    buffers are made here, before any thread starts, so what a sweep holds
    does not depend on how the threads interleave.
    """
    npix = ny * nx if npix is None else npix

    def part(bands):
        rows = len(range(ny)[bands[0]]) if bands else 0
        return bands, [np.empty((rows, nx), dtype) for dtype in dtypes]

    def run(bands, buffers):
        old = np.setbufsize(_UFUNC_BUFSIZE)
        try:
            return [band_fn(band, *(b[: len(range(ny)[band])] for b in buffers)) for band in bands]
        finally:
            np.setbufsize(old)

    if not _splits(npix):
        return run(*part(_bands(ny, nx, _BAND_SIZE)))
    bands = _bands(ny, nx, _BAND_SIZE // 2)
    half = len(bands) // 2
    first, second = _split(npix, run, part(bands[:half]), part(bands[half:]))
    return first + second


def _pass(name: str, data: np.ndarray, out: np.ndarray, axis: int, n, lo: int, hi: int):
    """numpy.fft's 1-D ``name`` over rows (axis -1) or columns (axis -2) lo:hi of data, into out."""
    part = np.s_[lo:hi] if axis == -1 else np.s_[:, lo:hi]
    # looked up at call time, so that wrappers of numpy.fft see the calls
    getattr(np.fft, name)(data[part], n=n, axis=axis, out=out[part])


def _fft2(
    data: np.ndarray,
    out: np.ndarray | None = None,
    inverse: bool = False,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """2-D FFT, or inverse FFT, of an (ny, nx) array or each component of a (2, ny, nx) one.

    The result goes into ``out``. This is the one place that picks the
    transform, by dtype. A real ``data`` takes rfftn to its half
    spectrum, nx//2 + 1 columns wide. A real ``out`` takes the inverse of
    the half spectrum ``data`` onto the grid of ``out`` as irfftn does:
    the inverse FFT of each column into ``scratch``, shaped like
    ``data``, then the inverse real FFT of each row of it. ``scratch``
    may be ``data``, which the call then consumes; when not given, a
    fresh one is made and ``data`` is left intact. The complex
    transforms, fftn and ifftn, ignore ``scratch``, and ``out`` may be
    ``data``. Every transform runs as numpy's n-D transforms do, one
    pass of 1-D transforms over each axis, the rows first but for the
    inverse real FFT. Each pass splits by halves, of the rows or of the
    columns, as a pass over the grid's pixels does, not the half
    spectrum's; the 1-D transforms are those of the unsplit pass, so the
    bits are numpy's.
    """
    real = not np.iscomplexobj(out if inverse and out is not None else data)
    if out is None:
        width = data.shape[-1] // 2 + 1 if real else data.shape[-1]
        out = np.empty((*data.shape[:-1], width), dtype=np.complex128)
    if data.ndim == 3:
        for c in range(len(data)):
            _fft2(data[c], out[c], inverse, None if scratch is None else scratch[c])
        return out
    if real and inverse:
        scratch = np.empty_like(data) if scratch is None else scratch
        passes = (("ifft", data, scratch, -2, None), ("irfft", scratch, out, -1, out.shape[-1]))
    else:
        name = "ifft" if inverse else "fft"
        passes = (("rfft" if real else name, data, out, -1, None), (name, out, out, -2, None))
    npix = out.shape[-2] * max(data.shape[-1], out.shape[-1])
    for name, src, dst, axis, n in passes:
        length = src.shape[-2] if axis == -1 else src.shape[-1]
        half = length // 2
        args = (name, src, dst, axis, n)
        if _split(npix, _pass, (*args, 0, half), (*args, half, length)) is None:
            _pass(*args, 0, length)
    return out


def _div_rows(data: np.ndarray, out: np.ndarray, band: slice, a: np.ndarray, b: np.ndarray):
    """Rows ``band`` of 2 D^T of the (2, ny, nx) ``data`` into ``out``, through band buffers.

    2 D^T J = p(i - 1) - m(i) on row j, with p = a + b and m = a - b for
    a = J_x(j - 1) + J_x(j) and b = J_y(j - 1) - J_y(j); rows and columns
    wrap. The passes run over each band as one flat row, whose shift by one
    pixel is wrong only in column 0, which a column pass then sets: numpy
    runs a 2-D shifted view through a buffer of its own.
    """
    jx, jy = data
    lo, hi = band.start, min(band.stop, len(jx))
    if lo == 0:
        np.add(jx[0], jx[-1], out=a[0])
        np.subtract(jy[-1], jy[0], out=b[0])
        np.add(jx[1:hi], jx[: hi - 1], out=a[1:])
        np.subtract(jy[: hi - 1], jy[1:hi], out=b[1:])
    else:
        np.add(jx[lo:hi], jx[lo - 1 : hi - 1], out=a)
        np.subtract(jy[lo - 1 : hi - 1], jy[lo:hi], out=b)
    o = out[lo:hi]
    np.add(a.ravel()[:-1], b.ravel()[:-1], out=o.ravel()[1:])
    np.add(a[:, -1], b[:, -1], out=o[:, 0])
    a -= b
    o -= a


def _grad_rows(psi: np.ndarray, c: int, band: slice, p: np.ndarray, t: np.ndarray):
    """Rows ``band`` of component c of 2 D psi into the band buffer ``t``, through ``p``.

    2 D_x psi = P(i + 1) - P(i) with P = psi(j) + psi(j + 1), and
    2 D_y psi = Q(i) + Q(i + 1) with Q = psi(j + 1) - psi(j); P or Q goes
    in ``p``. Rows and columns wrap; the shift runs over the band as one
    flat row, as in :func:`_div_rows`, and a column pass sets the last
    column.
    """
    lo, hi = band.start, min(band.stop, len(psi))
    rows = np.add if c == 0 else np.subtract
    if hi == len(psi):
        rows(psi[lo + 1 : hi], psi[lo : hi - 1], out=p[:-1])
        rows(psi[0], psi[-1], out=p[-1])
    else:
        rows(psi[lo + 1 : hi + 1], psi[lo:hi], out=p)
    flat, last = p.ravel(), t.ravel()[:-1]
    if c == 0:
        np.subtract(flat[1:], flat[:-1], out=last)
        np.subtract(p[:, 0], p[:, -1], out=t[:, -1])
    else:
        np.add(flat[:-1], flat[1:], out=last)
        np.add(p[:, -1], p[:, 0], out=t[:, -1])


def _div_hat(data: np.ndarray, grid: np.ndarray | None = None, out: np.ndarray | None = None):
    """The spectrum of div of a (2, ny, nx) field, scalar: into ``out`` and returned.

    On a stencil table div goes into the scalar ``grid``, of the field's
    dtype, band by band, and one FFT takes it to ``out``: a half spectrum
    when real, and ``grid`` itself when complex and not given. Otherwise
    each component is transformed and d . f is formed in Fourier space.
    ``grid`` and ``out`` are made when not given.
    """
    ny, nx = data.shape[-2:]
    g = _green_table(ny, nx)
    if not g.stencil:
        fh = _fft2(data)
        g = _spectrum_table(ny, nx, fh.shape[-1])
        out = np.empty(fh.shape[1:], dtype=np.complex128) if out is None else out
        whole = slice(0, ny)
        np.multiply(fh[0], _d_times(g, 0, 1.0, whole, np.empty(out.shape)), out=out)
        out += fh[1] * _d_times(g, 1, 1.0, whole, np.empty(out.shape))
        return out
    if grid is None:
        grid = np.empty((ny, nx), dtype=data.dtype)
    _sweep(partial(_div_rows, data, grid), ny, nx, (data.dtype, data.dtype))
    if out is None and np.iscomplexobj(grid):
        out = grid
    return _fft2(grid, out)


def _d_times(g: _Green, c: int, coef, band: slice, out: np.ndarray) -> np.ndarray:
    """``out`` = coef d_c on the rows ``band`` of a table's spectrum, from its factors."""
    first, *rest = (f[band] if f.shape[0] > 1 else f for f in g.d[c])
    return np.multiply(first * coef, rest[0] if rest else 1.0, out=out)


def _potential(ph: np.ndarray, grid: np.ndarray):
    """The potential of the spectrum ``ph`` in real space, what :func:`_add_grad` reads.

    On a stencil table the inverse FFT of ``ph`` into the scalar
    ``grid``: a real grid takes the inverse of the half spectrum ``ph``,
    which it consumes as the scratch of its column pass, and a complex
    one may be ``ph`` itself. Otherwise grad in Fourier space, d ph, and
    the inverse FFT of each component, into a (2, ny, nx) array of its own.
    """
    ny, nx = grid.shape
    g = _green_table(ny, nx)
    if g.stencil:
        return _fft2(ph, grid, inverse=True, scratch=ph)
    fields = np.empty((2, ny, nx), dtype=np.complex128)
    for c in range(2):
        np.multiply(ph, _d_times(g, c, 1.0, slice(0, ny), np.empty((ny, nx))), out=fields[c])
    return _fft2(fields, fields, inverse=True)


def _add_grad(
    space: np.ndarray,
    out: np.ndarray,
    components: slice = slice(0, 2),
    scale=1.0,
    shift=None,
    support: np.ndarray | None = None,
    taken: np.ndarray | None = None,
    buffers: tuple | None = None,
):
    """out[c] = scale out[c] + shift[i] + g_c for the i-th c of ``components``.

    g is grad of a potential, and ``space`` what :func:`_potential`
    returned for it: a scalar grid, whose stencils run over row bands of
    about _BAND_SIZE / 2 pixels in the two band buffers of
    :func:`_grad_buffers`, ``buffers`` or made here, or the (2, ny, nx)
    gradient itself. ``shift`` is None or one constant per component.
    With ``support``, sorted flat pixel indices, g_c on them goes into
    taken[i] first; the indices within a band are formed in the dead
    buffer of :func:`_grad_rows`. Each band of each component is done
    alone, so a caller may split the components across threads, each with
    buffers of its own; the buffers of the two then hold what those of
    one _sweep do.
    """
    ny, nx = out.shape[-2:]
    stencil = space.ndim == 2
    bands = _bands(ny, nx, _BAND_SIZE // 2) if stencil else [slice(0, ny)]
    if stencil:
        p, t = buffers or _grad_buffers(space)
    if support is not None:
        edges = np.searchsorted(support, [band.start * nx for band in bands] + [ny * nx])
    for i, c in enumerate(range(2)[components]):
        for k, band in enumerate(bands):
            if stencil:
                g = t[: len(range(ny)[band])]
                _grad_rows(space, c, band, p[: len(g)], g)
            else:
                g = space[c]
            if support is not None:
                i0, i1 = edges[k], edges[k + 1]
                local = support[i0:i1]
                if stencil:
                    local = np.subtract(local, band.start * nx, out=p.view(np.int64).ravel()[: i1 - i0])
                # in range by construction; the checked mode would buffer a copy
                g.ravel().take(local, out=taken[i][i0:i1], mode="wrap")
            o = out[c, band]
            if scale != 1.0:
                o *= scale
            if shift is not None:
                o += shift[i]
            o += g


def _grad_buffers(space: np.ndarray | None) -> tuple | None:
    """The two band buffers :func:`_add_grad` needs on ``space``; None unless a scalar grid."""
    if space is None or space.ndim != 2:
        return None
    ny, nx = space.shape
    rows = len(range(ny)[_bands(ny, nx, _BAND_SIZE // 2)[0]])
    return tuple(np.empty((rows, nx), dtype=space.dtype) for _ in range(2))


def _hat_sqnorm(gh: np.ndarray, nx: int) -> float:
    """Sum over pixels of |gamma1(f)|^2, from the spectrum ``gh`` of div f alone.

    By Parseval the sum is (scale/N) sum_k |gh(k)|^2 / |d|^2, formed
    band by band with gh left intact; over the half spectrum of a real f,
    every column but 0 and, on even nx, nx/2 stands for a conjugate pair
    and counts twice.
    """
    ny, width = gh.shape
    g = _spectrum_table(ny, nx, width)

    def band_power(band, tmp):
        # the two halves of the floats of tmp, each contiguous like a band
        # buffer of its own, hold the power and its squaring scratch
        h = gh[band]
        power, sq = tmp.view(np.float64).reshape(2, len(tmp), width)
        np.multiply(h.real, h.real, out=power)
        power += np.multiply(h.imag, h.imag, out=sq)
        power *= g.inv_d2[band]
        rows = np.sum(power, axis=-1)
        if width < nx:
            rows *= 2.0
            rows -= power[:, 0]
            if nx % 2 == 0:
                rows -= power[:, -1]
        return rows

    rows = np.concatenate(_sweep(band_power, ny, width, (np.complex128,), ny * nx))
    return _combine_rows(rows) * g.scale / (ny * nx)


def _gamma1_sqnorm(data: np.ndarray, grid=None, out=None) -> float:
    """Sum over pixels of |gamma1(data)|^2, with no inverse transform.

    The spectrum of div ``data`` is left in ``out`` (:func:`_div_hat`,
    whose ``grid`` and ``out`` these are).
    """
    return _hat_sqnorm(_div_hat(data, grid, out), data.shape[-1])


def _scale_hat(ph: np.ndarray, nx: int, coef) -> np.ndarray:
    """``ph`` *= coef scale / |d|^2, band by band: the spectrum of div f becomes that of
    a potential whose grad is coef gamma1(f). Returns ``ph``."""
    ny, width = ph.shape
    g = _spectrum_table(ny, nx, width)
    coef = coef * g.scale

    def scale(band):
        h = ph[band]
        h *= g.inv_d2[band]
        h *= coef

    _sweep(scale, ny, width, (), ny * nx)
    return ph


def _chi_hat(chi: np.ndarray) -> np.ndarray:
    """The spectrum of ``chi`` times the phase of div, real or complex as ``chi`` is.

    For a constant 2-vector delta, div(delta chi) has the spectrum
    (delta . d) times it: the mean pin of a solve enters div through it.
    """
    h = _fft2(chi)
    for f in _spectrum_table(*chi.shape, h.shape[-1]).phase:
        h *= f
    return h


def _reflect_hat(
    gh: np.ndarray, qh: np.ndarray, chi_hat: np.ndarray, pin, c: float, nx: int, coef=1.0
):
    """The Fourier side of the Eyre-Milton reflection, on scalar spectra, band by band.

    ``gh`` is the spectrum of div of a flux J_raw + delta + pin chi, for
    constant 2-vectors delta and ``pin``, on a grid ``nx`` wide, and
    ``chi_hat`` that of :func:`_chi_hat`. ``qh`` holds -2 scale s, for a
    running sum s of spectra of div: each band adds c times the spectrum
    of div J_raw to s, or on the first reflection (c = 1) starts s with
    it, and leaves in ``gh`` the potential coef inv_d2 qh, whose grad is
    -2 coef gamma1 of any field whose div has the spectrum s. -2 c scale
    is a power of 2, so the scaling keeps the bits of s.
    """
    ny, width = gh.shape
    g = _spectrum_table(ny, nx, width)
    m = -2.0 * c * g.scale
    vec = m * np.asarray(pin)
    # a real pin forms each term of vec . d in a real buffer and its
    # product with chi_hat in a complex one; a complex pin in one buffer
    dtypes = (vec.dtype,) + (() if np.iscomplexobj(vec) else (np.complex128,))

    def reflect(band, t, pc=None):
        h, q = gh[band], qh[band]
        h *= m
        pc = t if pc is None else pc
        for k in range(2):
            np.multiply(chi_hat[band], _d_times(g, k, vec[k], band, t), out=pc)
            h -= pc
        if c == 1:
            np.copyto(q, h)
        else:
            q += h
        np.multiply(q, g.inv_d2[band], out=h)
        h *= coef

    _sweep(reflect, ny, width, dtypes, ny * nx)


def _gamma1_arr(data: np.ndarray) -> np.ndarray:
    """gamma1 of a (2, ny, nx) array: real when ``data`` is real and the table maps
    real fields to real fields, complex otherwise."""
    ny, nx = data.shape[-2:]
    real = not np.iscomplexobj(data) and _green_table(ny, nx).maps_real
    data = data.astype(np.float64 if real else np.complex128, copy=False)
    grid = np.empty((ny, nx), dtype=data.dtype)
    ph = _scale_hat(_div_hat(data, grid), nx, 1.0)
    out = np.zeros_like(data)
    _add_grad(_potential(ph, grid), out)
    return out


def gamma1(f: VectorField) -> VectorField:
    """Projection onto zero-mean curl-free fields: grad (div grad)^+ div."""
    return VectorField(_gamma1_arr(_real_if_allowed(f.data)))


def gamma0(f: VectorField) -> np.ndarray:
    """Projection onto constants: the compensated pixel mean."""
    return f.mean()


@dataclass
class AugmentedField:
    """Triple (Q, S, T) of vector fields on one grid.

    Q lives on the whole cell; S and T must vanish identically on
    phase-2 pixels of the map they are used with. The local operators
    read S and T on the inclusion pixels only and return them zero
    elsewhere; :func:`gamma1_aug` raises SupportError on off-support data.
    """

    Q: VectorField
    S: VectorField
    T: VectorField

    def __post_init__(self):
        shape = self.Q.grid_shape
        if self.S.grid_shape != shape or self.T.grid_shape != shape:
            raise ValueError("Q, S, T must share one grid")

    @classmethod
    def from_mean(cls, vec, ny: int, nx: int) -> "AugmentedField":
        """(e0, 0, 0): the initial iterate of the substituted schemes."""
        return cls(
            VectorField.constant(vec, ny, nx),
            VectorField.zeros(ny, nx),
            VectorField.zeros(ny, nx),
        )

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.Q.grid_shape

    def copy(self) -> "AugmentedField":
        return AugmentedField(self.Q.copy(), self.S.copy(), self.T.copy())


def _chi_of(pmap: PhaseMap, *fields) -> np.ndarray:
    """``pmap.chi``; ValueError naming both shapes unless every field lies on its grid."""
    for f in fields:
        if f.grid_shape != pmap.chi.shape:
            raise ValueError(f"field grid {f.grid_shape} is not the PhaseMap's {pmap.chi.shape}")
    return pmap.chi


def inner_aug(f: AugmentedField, g: AugmentedField, pmap: PhaseMap) -> complex:
    """Mean of [conj(S).S' + conj(T).T'] chi + conj(Q).Q'."""
    chi = _chi_of(pmap, f, g)
    npix = chi.size
    total = _compensated_ctotal(np.conj(f.Q.data) * g.Q.data)
    total += _compensated_ctotal(
        (np.conj(f.S.data) * g.S.data + np.conj(f.T.data) * g.T.data) * chi
    )
    return _per_pixel(total, npix)


def norm_aug(f: AugmentedField, pmap: PhaseMap) -> float:
    chi = _chi_of(pmap, f)
    npix = chi.size
    total = _compensated_total(np.abs(f.Q.data) ** 2)
    total += _compensated_total((np.abs(f.S.data) ** 2 + np.abs(f.T.data) ** 2) * chi)
    return math.sqrt(total / npix)


def gamma0_aug(f: AugmentedField) -> np.ndarray:
    """Projection onto constant Q-slot fields: the mean of Q."""
    return f.Q.mean()


def gamma1_aug(f: AugmentedField, pmap: PhaseMap) -> AugmentedField:
    """Projection onto gradient-type augmented fields: (gamma1 Q, S, 0)."""
    outside = ~_chi_of(pmap, f)
    if np.any(f.S.data[:, outside]) or np.any(f.T.data[:, outside]):
        raise SupportError("S/T slots carry data on phase-2 pixels")
    ny, nx = f.grid_shape
    return AugmentedField(gamma1(f.Q), f.S.copy(), VectorField.zeros(ny, nx))


def _pack(data: np.ndarray, support: np.ndarray, out=None) -> np.ndarray:
    """(c, ny, nx) slot samples on the flat pixel indices ``support``, as (c, m), into ``out``.

    ``support`` is range-checked once, with numpy's bounds; the gather
    then takes ``mode="wrap"``, which is the same map on that range and,
    unlike the checked mode, writes ``out`` without buffering a copy.
    """
    flat = data.reshape(len(data), -1)
    npix = flat.shape[1]
    if support.size and (support.min() < -npix or support.max() >= npix):
        raise IndexError(f"support index out of bounds for {npix} pixels")
    if out is None:
        out = np.empty((len(data), support.size), dtype=data.dtype)
    for component, packed in zip(flat, out):
        component.take(support, out=packed, mode="wrap")
    return out


def _scatter(dst: np.ndarray, support: np.ndarray, packed: np.ndarray):
    """Write (c, m) samples onto the pixels ``support`` of a C-contiguous (c, ny, nx) array."""
    for component, values in zip(dst.reshape(len(dst), -1), packed):
        component[support] = values


def _unpack(packed: np.ndarray, support: np.ndarray, shape) -> np.ndarray:
    """Inverse of :func:`_pack`: a (2, ny, nx) array, zero off ``support``."""
    out = np.zeros((2, *shape), dtype=np.complex128)
    _scatter(out, support, packed)
    return out


def _slot_matrix(p: tuple, on, off) -> np.ndarray:
    """The len(p)-square slot matrix of on chi'' + off (I - chi'') on a phase-1 pixel.

    chi'' is the rank-one slot mixer p (x) p: p = (p1, p2, p3) on the
    augmented (Q, S, T) slots, or p = (1,) on the Q slot alone, where the
    matrix is the scalar ``on``. Written as on p (x) p + off (I - p (x) p),
    which is off I + (on - off) p (x) p with the one-slot case exact.
    """
    pp = np.outer(p, p)
    return on * pp + off * (np.eye(len(p)) - pp)


def _slot_sums(m, x, out, tmp):
    """out[i] = sum_j m[i, j] x[j] on packed slots, into the caller's ``out``.

    ``tmp``, shaped like one slot, is the scratch of the sums, unused for
    one slot; ``out`` must not alias x, and ``tmp`` neither.
    """
    for i, row in enumerate(m):
        np.multiply(x[0], row[0], out=out[i])
        for j in range(1, len(row)):
            np.multiply(x[j], row[j], out=tmp)
            out[i] += tmp


def _local_arrays(slots: tuple, chi, p: tuple, on, off) -> tuple:
    """on chi'' + off (I - chi'') on full-grid (2, ny, nx) slot arrays, Q first.

    ``slots`` holds one array per entry of p. On phase-2 pixels, where
    chi'' vanishes, the operator is ``off`` times the Q slot; the slots
    past Q are read on chi only and come back zero there.
    """
    support = np.flatnonzero(chi)
    x = np.empty((len(slots), 2, support.size), dtype=np.result_type(*slots))
    for s, xs in zip(slots, x):
        _pack(s, support, out=xs)
    y = np.empty_like(x)
    _slot_sums(_slot_matrix(p, on, off), x, y, np.empty_like(x[0]) if len(p) > 1 else None)
    q_out = np.multiply(slots[0], complex(off), order="C")
    _scatter(q_out, support, y[0])
    return (q_out, *(_unpack(ys, support, chi.shape) for ys in y[1:]))


def _local_aug(f: AugmentedField, params: SubstitutionParams, pmap: PhaseMap, on, off):
    """:func:`_local_arrays` on the (Q, S, T) slots of an augmented field."""
    p = (params.p1, params.p2, params.p3)
    arrays = _local_arrays((f.Q.data, f.S.data, f.T.data), _chi_of(pmap, f), p, on, off)
    return AugmentedField(*map(VectorField, arrays))


def apply_chi_aug(
    f: AugmentedField, params: SubstitutionParams, pmap: PhaseMap
) -> AugmentedField:
    """Rank-one slot mixer chi'' = p (x) p restricted to phase-1 pixels.

    Idempotent because p.p = 1; not self-adjoint for complex p.
    """
    return _local_aug(f, params, pmap, 1.0, 0.0)


def apply_local_A(
    f: AugmentedField, t: complex, params: SubstitutionParams, pmap: PhaseMap
) -> AugmentedField:
    """The local constitutive operator A = t chi'' + (I - chi'')."""
    return _local_aug(f, params, pmap, complex(t), 1.0)


def _shifted_inverse_coefs(t: complex, sigma0: complex) -> tuple[complex, complex]:
    """Eigenvalues (1/(t + sigma0), 1/(1 + sigma0)) of (A + sigma0 I)^-1 on chi'' and I - chi''."""
    tt, s0 = complex(t), complex(sigma0)
    if 1.0 + s0 == 0:
        raise DegenerateParamError(f"shift sigma0 = {s0} = -1 makes A + sigma0 I singular")
    if tt + s0 == 0:
        raise DegenerateParamError(f"shift sigma0 = {s0} = -t makes A + sigma0 I singular")
    return 1.0 / (tt + s0), 1.0 / (1.0 + s0)


def invert_shifted_A(
    f: AugmentedField,
    t: complex,
    sigma0: complex,
    params: SubstitutionParams,
    pmap: PhaseMap,
) -> AugmentedField:
    """Pixel-local closed-form inverse of (A + sigma0 I).

    A is t on the range of chi'' and 1 on that of I - chi'', so the
    inverse divides the first by t + sigma0 and the second by 1 + sigma0.
    """
    return _local_aug(f, params, pmap, *_shifted_inverse_coefs(t, sigma0))
