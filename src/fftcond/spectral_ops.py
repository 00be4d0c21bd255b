"""Field containers and the Fourier/local operators of both solver spaces.

A VectorField samples a complex 2-vector on the periodic pixel grid. The
projection gamma1 (zero-mean curl-free part) acts mode-wise in Fourier
space with the real rank-one multiplier d (x) d / |d|^2 of a real vector
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

The operator is one cached table per grid (:func:`_green_table`): the
1-D factors of d and the real table 1/|d|^2. gamma1 runs in two halves:
a forward FFT, from which the squared norm of gamma1(f) is summed by
Parseval and which is left intact, and the projection with the inverse
FFT. The reflection of the Eyre-Milton update, shift - 2 gamma1(r) + r,
is formed in Fourier space on the transform of r with the same
multiplier, followed by one inverse FFT; the caller may form each band
of that transform in the same sweep, just before the band is reflected.
Each of the three forms d . f first, scales it by 1/|d|^2, then
multiplies by d. These Fourier-space sweeps run over bands of rows, in
band buffers made once per call, so their temporaries stay small.

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
two CPUs, the FFT pair and the Fourier-space sweeps (the Parseval sum,
the reflection and the projection of gamma1) split across the calling
thread and a thread started for the split (:func:`_split`): one
component, or one half of the row bands, each. The solvers split the
real-space stretch of an iteration the same way, one component per
thread, with the gathers, scatters, slot sums and compensated totals
here. The public operators and the sigma* read-out run on the calling
thread alone. Each thread does the unsplit arithmetic on its part, so
the bits do not change.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateParamError, SupportError
from .geometry import PhaseMap
from .transform import SubstitutionParams

# Pixels per row band of the Fourier-space sums and reflection, which
# bounds their temporaries
_BAND_SIZE = 1 << 16
# Elements of numpy's ufunc buffer in the Fourier-space sweeps. numpy
# allocates one such buffer per operand for a broadcast or mixed-type
# ufunc call. At 8192, numpy's default, the broadcast products of a
# (64, 1024) band took 2.4 times as long as at 1024, and with bands of
# 4096 pixels the two threads' buffers, coinciding or not, moved a split
# solve's memory peak by 32 KB.
_UFUNC_BUFSIZE = 1024
# Pixels per field component from which a pass splits across two threads.
# The measured crossover sets it: one (2, n, n) FFT took 0.44-0.54 ms on
# two threads against 0.33 ms on one at n = 128, and 8.1-8.6 against
# 10.3-13.0 ms at n = 512; a whole iteration at n = 256 was 20-28%
# slower split.
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
    """The multiplier d (x) d / |d|^2 of gamma1 on one grid, for a real vector d per mode.

    Component c of d is the product of the factors ``d[c]``, each a row
    (1, nx) over the x index or a column (ny, 1) over the y index.
    ``inv_d2`` is the real table 1/|d|^2, exactly 0 where d vanishes.
    ``maps_real`` says whether gamma1 maps real fields to real fields,
    which its half spectrum then determines.
    """

    d: tuple
    inv_d2: np.ndarray
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


def _read_only_table(d: tuple, d2: np.ndarray, maps_real: bool) -> _Green:
    """A read-only _Green, with 1/|d|^2 set to 0 exactly where ``d2`` = |d|^2 is 0."""
    inv_d2 = np.divide(1.0, d2, out=np.zeros(d2.shape), where=d2 != 0)
    # every caller shares the cached arrays
    for table in (inv_d2, *d[0], *d[1]):
        table.flags.writeable = False
    return _Green(d, inv_d2, maps_real)


@lru_cache(maxsize=8)
def _green_table(ny: int, nx: int) -> _Green:
    """The Green table of gamma1 on an ny-by-nx grid, cached.

    Willot's rotated operator, d of :func:`_half_angles`: his complex
    d_x = a(xi_x) b(xi_y), d_y = b(xi_x) a(xi_y) over 2i e^{i (xi_x + xi_y)/2}.
    Only 1-D factors and the real 1/|d|^2 are stored: complex grid-sized
    tables of d_x and d_y would hold 32 MB more at n = 1024. The factors
    are complex with imaginary part 0: numpy multiplies a complex band by
    a float64 factor through a casting buffer, 1.6-2.2 times slower (see
    README), and x + 0j gives the bits of the real product.
    """
    sx, cx = (f[None, :] for f in _half_angles(nx))
    sy, cy = (f[:, None] for f in _half_angles(ny))
    d2 = sx**2 * cy**2 + cx**2 * sy**2
    d = tuple(tuple(f + 0j for f in dc) for dc in ((sx, cy), (cx, sy)))
    return _read_only_table(d, d2, True)


@lru_cache(maxsize=8)
def _spectral_table(ny: int, nx: int) -> _Green:
    """The Moulinec-Suquet table k (x) k / |k|^2 on an ny-by-nx grid, cached.

    A reference, read by no solve: d = k on the integer wave vectors, real,
    so the band kernels do the arithmetic of the operator this package
    used before the rotated one, bit for bit; only k = 0 is dropped.
    Tests and ``tools/bench_per_iteration.py --green`` put it in place of
    :func:`_green_table` to compare the two operators. The factors are
    k + 0j, as the rotated ones are complex, so that a band product costs
    what it costs there; |k|^2 is formed from the real k.
    """
    kx = _mode_index(nx)[None, :].astype(np.float64)
    ky = _mode_index(ny)[:, None].astype(np.float64)
    return _read_only_table(((kx + 0j,), (ky + 0j,)), kx * kx + ky * ky, False)


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
    return _Green(d, g.inv_d2[:, :width], g.maps_real)


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

    The public residuals read a field through it, so that on the flux of a
    solve that ran in real arithmetic they repeat its residual bit for bit.
    """
    if np.iscomplexobj(data) and _field_dtype(data.shape[-2:], data) is np.float64:
        return np.ascontiguousarray(data.real)
    return data


def _times(out: np.ndarray, factors: tuple, band: slice, src: np.ndarray | None = None):
    """``out`` = ``src`` times each of ``factors``, or out times them when src is None.

    Column factors are taken on the rows ``band``. Returns ``out``.
    """
    for f in factors:
        f = f[band] if f.shape[0] > 1 else f
        if src is None:
            out *= f
        else:
            np.multiply(src, f, out=out)
            src = None
    return out


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


def _transform(name: str, data: np.ndarray, out: np.ndarray, scratch: np.ndarray | None):
    # looked up at call time, so that wrappers of numpy.fft see the calls
    if name == "irfftn":
        # irfftn's own two passes, through ``scratch`` instead of a copy of
        # ``data``; an odd nx and nx + 1 have half spectra of one width, so
        # the row pass takes the grid's
        np.fft.ifft(data, axis=-2, out=scratch)
        np.fft.irfft(scratch, n=out.shape[-1], axis=-1, out=out)
    else:
        getattr(np.fft, name)(data, axes=(-2, -1), out=out)


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
    the half spectrum ``data`` onto the grid of ``out`` in the two passes
    irfftn makes, so with its bits: the inverse FFT of each column into
    ``scratch``, shaped like ``data``, then the inverse real FFT of each
    row of it. ``scratch`` may be ``data``, which the call then consumes;
    when not given, a fresh one is made and ``data`` is left intact. The
    complex transforms, fftn and ifftn, ignore ``scratch``, and ``out``
    may be ``data``. A (2, ny, nx) transform splits, each thread
    transforming one component, with the bits of the stacked call; the
    split counts the grid's pixels, not the half spectrum's. ifftn, not
    ifft2: numpy's ifft2 ignores ``out``.
    """
    real = not np.iscomplexobj(out if inverse and out is not None else data)
    name = ("irfftn" if inverse else "rfftn") if real else ("ifftn" if inverse else "fftn")
    if out is None:
        width = data.shape[-1] // 2 + 1 if real else data.shape[-1]
        out = np.empty((*data.shape[:-1], width), dtype=np.complex128)
    if name == "irfftn" and scratch is None:
        scratch = np.empty_like(data)
    halves = ((name, data[c], out[c], None if scratch is None else scratch[c]) for c in range(2))
    if data.ndim == 2 or _split(max(data[0].size, out[0].size), _transform, *halves) is None:
        _transform(name, data, out, scratch)
    return out


def _gamma1_inverse(fh: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Second half of gamma1 on the FFT ``fh`` of a field: projection, inverse FFT into ``out``.

    The projection runs in place on ``fh`` band by band, so it allocates
    nothing and splits as the other Fourier-space sweeps do. ``out`` is
    ``fh`` when not given; a real ``out`` takes the inverse of the half
    spectrum ``fh`` of a real field, with ``fh`` as the scratch of its
    column pass, so ``fh`` is consumed and no copy of it is made.
    """
    out = fh if out is None else out
    ny, nx = out.shape[-2], out.shape[-1]
    g = _spectrum_table(ny, nx, fh.shape[-1])

    def project(band):
        dot, f1 = fh[0, band], fh[1, band]
        _times(dot, g.d[0], band)
        _times(f1, g.d[1], band)
        dot += f1
        dot *= g.inv_d2[band]
        _times(f1, g.d[1], band, dot)
        _times(dot, g.d[0], band)

    _sweep(project, *fh.shape[-2:], npix=ny * nx)
    return _fft2(fh, out, inverse=True, scratch=fh)


def _gamma1_arr(data: np.ndarray) -> np.ndarray:
    """gamma1 of a (2, ny, nx) array, complex whatever its dtype, as :func:`gamma1`."""
    return _gamma1_inverse(_fft2(data.astype(np.complex128, copy=False)))


def _gamma1_sqnorm(data: np.ndarray, work: np.ndarray | None = None) -> float:
    """Sum over pixels of |gamma1(data)|^2, from the FFT of ``data`` alone.

    By Parseval the sum is (1/N) sum_k |d . f(k)|^2 / |d|^2, so no
    inverse transform is needed; over the half spectrum of a real
    ``data``, every column but 0 and, on even nx, nx/2 stands for a
    conjugate pair and counts twice. It is formed band by band, and the
    transform is left intact: ``work``, if given, is a buffer shaped like
    it, or ``data`` itself when complex, that receives it, for
    :func:`_gamma1_inverse` or :func:`_reflect_hat`.
    """
    ny, nx = data.shape[-2], data.shape[-1]
    fh = _fft2(data, work)
    width = fh.shape[-1]
    g = _spectrum_table(ny, nx, width)

    def band_power(band, dot, tmp):
        _times(dot, g.d[0], band, fh[0, band])
        dot += _times(tmp, g.d[1], band, fh[1, band])
        # tmp is dead: the two halves of its floats, each contiguous like a
        # band buffer of its own, hold the power and its squaring scratch
        power, sq = tmp.view(np.float64).reshape(2, len(tmp), width)
        np.multiply(dot.real, dot.real, out=power)
        power += np.multiply(dot.imag, dot.imag, out=sq)
        power *= g.inv_d2[band]
        rows = np.sum(power, axis=-1)
        if width < nx:
            rows *= 2.0
            rows -= power[:, 0]
            if nx % 2 == 0:
                rows -= power[:, -1]
        return rows

    dtypes = (np.complex128, np.complex128)
    rows = np.concatenate(_sweep(band_power, *fh.shape[-2:], dtypes, ny * nx))
    return _combine_rows(rows) / (ny * nx)


def _reflect_hat(
    rh: np.ndarray, shift: np.ndarray, out: np.ndarray, first=None, scratch=None
) -> np.ndarray:
    """The reflection shift - 2 gamma1(r) + r of the Eyre-Milton update, in Fourier space.

    In place on the FFT ``rh`` of r, band by band, with the multiplier of
    gamma1; ``shift`` is a constant 2-vector, so it enters the zero mode
    only. Returns the inverse FFT of the result in ``out``, which leaves
    ``rh`` holding the transform of the result; a real ``out`` takes the
    inverse of the half spectrum ``rh`` of a real r through ``scratch``,
    a dead half spectrum shaped like ``rh`` that it overwrites, or a fresh
    one when not given (:func:`_fft2`). ``first``, if given, is called as
    first(rows, tmp) on each row band before it is reflected, on the
    thread that reflects it, to form those rows of ``rh``; ``tmp`` is a
    band buffer it may overwrite.
    """
    ny, nx = out.shape[-2], out.shape[-1]
    g = _spectrum_table(ny, nx, rh.shape[-1])

    def reflect(band, dot, tmp):
        if first is not None:
            first(band, tmp)
        _times(dot, g.d[0], band, rh[0, band])
        dot += _times(tmp, g.d[1], band, rh[1, band])
        dot *= g.inv_d2[band]
        dot *= -2.0
        rh[0, band] += _times(tmp, g.d[0], band, dot)
        rh[1, band] += _times(dot, g.d[1], band)

    _sweep(reflect, *rh.shape[-2:], (np.complex128, np.complex128), ny * nx)
    rh[:, 0, 0] += shift * (ny * nx)
    return _fft2(rh, out, inverse=True, scratch=scratch)


def gamma1(f: VectorField) -> VectorField:
    """Projection onto zero-mean curl-free fields (Fourier multiplier)."""
    return VectorField(_gamma1_arr(f.data))


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
