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
:func:`_grad_rows`): div of a field takes one scalar FFT, whose
spectrum gives the squared norm of gamma1(f) by Parseval
(:func:`_hat_sqnorm`) and, scaled by 1/(16 |d|^2), the spectrum of a
potential (:func:`_scale_hat`), which one inverse scalar FFT takes back
to real space (:func:`_potential`) for the grad stencil
(:func:`_add_grad`). So gamma1 costs one scalar FFT pair. On the
spectral reference div is k . f after the FFT of each component, and
grad k phi before the inverse FFT of each, in the same functions. The
Eyre-Milton update needs only the spectrum of div r, which
:func:`_reflect_hat` carries from one iteration to the next. The
Fourier-space sweeps and the stencils run over bands of rows, in band
buffers made once per call, so their temporaries stay small, and none of
their products runs through a ufunc buffer of numpy's (_UFUNC_BUFSIZE).

The dtype of a field picks its transform (:func:`_fft2`): a complex
field takes the full FFT, a real one its half spectrum, the nx//2 + 1
columns of non-negative x index, whose other half are their conjugates.
The sweeps then run over the half spectrum with the table cut to it
(:func:`_spectrum_table`), and the Parseval sum counts every column but
0 and, on even nx, nx/2 twice. The scalar grid and its spectrum share
one buffer on both (:func:`_scalar_pair`): a complex grid is transformed
in place, and a real grid is the first nx columns of the float64 array
whose complex view is its half spectrum. The forward FFT of div runs
the div stencil band by band straight into its row pass, into the rows
of the complex grid itself or, on the real path, through a band buffer,
and never writes the real grid; the real inverse FFT runs its column
pass in place and its row pass band by band through a band buffer
(:func:`_div_hat`, :func:`_fft2`). The public gamma1 reads a real-valued
field through a view of its real part (:func:`_real_if_allowed`) and
adds the gradient into the real part of its complex result.

An AugmentedField is a (Q, S, T) triple of VectorFields whose S and T
slots vanish off the inclusion. Every local operator has the form
on chi'' + off (I - chi''), where chi'' is the rank-one slot mixer
p (x) p on the inclusion for a complex triple p with p.p = 1: A is
(t, 1), its shifted inverse (A + sigma0 I)^-1 is
(1/(t + sigma0), 1/(1 + sigma0)) and chi'' itself is (1, 0). On a
phase-1 pixel such an operator is off I + (on - off) p (x) p, applied by
one rank-one kernel (:func:`_mix`, :func:`_rank_one`) to slots stored
on the inclusion pixels only; on phase-2 pixels it is ``off`` times the
Q slot. The public operators, the sigma* read-out, ``selftest`` and all
four solvers go through that kernel, the physical ones with the Q slot
alone, p = (1,), where it is the product by on.

Arithmetic is double precision: real where a solve's fields are real
(:func:`_field_dtype`) and complex otherwise; VectorField and the public
operators are complex. Reductions (means, norms) run row-wise with a
pairwise sum and combine rows with an exactly rounded sum, so results
are deterministic for a fixed grid, whatever the CPU count. When a field
component has at least _THREAD_PIXELS pixels and the process may run on
two CPUs, read once per pass (:func:`_split`), each pass of a scalar FFT
(one half of the rows, then one half of the columns), the div stencil
and the Fourier-space sweeps (one half of the row bands) split across
the calling thread and a thread started for the split. The solvers split
the real-space stretch of an iteration the same way, one component per
thread, with the grad stencil, gathers, scatters, rank-one kernel and
compensated totals here. The public operators and the sigma* read-out
run on the calling thread alone. Each thread does the unsplit arithmetic
on its part, so a CPU count that changes mid-run changes only which
passes split, never the bits.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DegenerateParamError, SupportError
from .geometry import PhaseMap
from .transform import SubstitutionParams

# Pixels per row band of the Fourier-space sweeps and the stencils, which
# bounds their temporaries
_BAND_SIZE = 1 << 16
# Elements of numpy's ufunc buffer in the band passes: the Fourier-space
# sweeps, the stencils and the band passes of the scalar FFTs. numpy runs a
# 2-D operation with a broadcast or strided operand through buffers of
# this many elements per operand when its rows are shorter, and a
# mixed-type one always; the passes hold no mixed-type product, and at
# 16 no row of a grid of 16 columns or more takes a buffer. So a thread of
# a split allocates none, and what a split holds does not depend on how
# its threads interleave. At 512, the reflection of a real solve at
# n = 256 with bands of 4096 pixels peaked between 111 and 122 KB over
# 30 split solves; the broadcast products of d took 74 against 54 us on
# a (1008, 65) band; and the grad stencil, reading the strided grid of
# the real path (_scalar_pair), allocated 9.5 KB at n = 128.
_UFUNC_BUFSIZE = 16
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


def _split(npix: int, fn, halves, whole):
    """One pass of fn: fn(*whole()) on the calling thread, or its halves on two threads.

    The one place that decides a split, once per pass: when a field
    component has at least _THREAD_PIXELS pixels (``npix``) and the
    process may run on two CPUs. Only then is ``halves()`` called, for
    (args0, args1): fn(*args1) runs on a thread started here and joined
    before return, under the caller's numpy error state, which is
    thread-local, and fn(*args0) on the calling thread. The two calls must
    write disjoint data. An exception of either is raised here, after both
    ended."""
    if not _splits(npix):
        return fn(*whole())
    args0, args1 = halves()
    err, error = np.geterr(), []

    def run():
        try:
            with np.errstate(**err):
                fn(*args1)
        except BaseException as exc:
            error.append(exc)

    worker = threading.Thread(target=run, name="fftcond")
    worker.start()
    try:
        fn(*args0)
    finally:
        # wait even when this thread raised: the worker writes the caller's arrays
        worker.join()
    if error:
        raise error.pop()


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


@dataclass(frozen=True, eq=False)
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
    which its half spectrum then determines. Tables compare, and hash, by
    identity (:func:`_half_table`).
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
    return _half_table(g, width)


@lru_cache(maxsize=8)
def _half_table(g: _Green, width: int) -> _Green:
    """The table ``g`` cut to the first ``width`` columns of its spectrum, cached: the
    sweeps of every real iteration read it, and cutting it took 10 us."""
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
    """A (2, ny, nx) ``data``, as a view of its real part when :func:`_field_dtype` allows
    real arithmetic.

    The public operators read a field through it, so that on the flux of
    a solve that ran in real arithmetic the residual repeats its residual
    bit for bit, and gamma1 of a real field is real. The view is strided;
    the stencils and the means read it as they read a contiguous array,
    with the same bits, and no grid is copied.
    """
    if np.iscomplexobj(data) and _field_dtype(data.shape[-2:], data) is np.float64:
        return data.real
    return data


def _bands(ny: int, nx: int, size: int) -> range:
    """Row bands of an ny-by-nx grid of about ``size`` pixels: rows lo:lo + step per lo."""
    return range(0, ny, max(1, size // nx))


def _sweep(band_fn, ny: int, nx: int, dtypes: tuple = (), npix: int | None = None):
    """band_fn(rows, *buffers) for each row band of an ny-by-nx array, in band order.

    Bands of about _BAND_SIZE pixels bound the temporaries of band_fn,
    which works in ``buffers``: one band-sized array of each of
    ``dtypes``, cut to the rows of the band. The sweep splits as a pass
    over fields of ``npix`` pixels per component does, ny * nx if not
    given: a half spectrum passes the pixels of its grid. On a split each
    thread sweeps one half of the bands, and the bands are half that
    size, so the two threads hold what one does unsplit. Every thread's
    buffers are made before any thread starts, and band_fn returns
    nothing, so what a sweep holds does not depend on how they interleave.
    """

    def part(k=None):
        """The bands of the whole sweep, or of half k of a split one, and their buffers."""
        bands = _bands(ny, nx, _BAND_SIZE if k is None else _BAND_SIZE // 2)
        if k is not None:
            bands = bands[len(bands) // 2 :] if k else bands[: len(bands) // 2]
        rows = min(bands.step, ny - bands[0]) if bands else 0
        return bands, [np.empty((rows, nx), dtype) for dtype in dtypes]

    def run(bands, buffers):
        old = np.setbufsize(_UFUNC_BUFSIZE)
        try:
            for lo in bands:
                band_fn(slice(lo, lo + bands.step), *(b[: ny - lo] for b in buffers))
        finally:
            np.setbufsize(old)

    _split(ny * nx if npix is None else npix, run, lambda: (part(0), part(1)), part)


def _pass(name: str, data: np.ndarray, out: np.ndarray, axis: int, n, lo: int, hi: int):
    """numpy.fft's 1-D ``name`` over rows (axis -1) or columns (axis -2) lo:hi of data, into out."""
    part = np.s_[lo:hi] if axis == -1 else np.s_[:, lo:hi]
    # looked up at call time, so that wrappers of numpy.fft see the calls
    getattr(np.fft, name)(data[part], n=n, axis=axis, out=out[part])


def _passes(passes: tuple, npix: int):
    """Each (name, data, out, axis, n) pass of :func:`_pass` over a whole 2-D array, in turn.

    A pass splits by halves, of the rows or of the columns, as a pass over
    fields of ``npix`` pixels per component does.
    """
    for name, src, dst, axis, n in passes:
        length = src.shape[-2] if axis == -1 else src.shape[-1]
        a, half = (name, src, dst, axis, n), length // 2
        _split(npix, _pass, lambda: ((*a, 0, half), (*a, half, length)), lambda: (*a, 0, length))


def _fft2(data: np.ndarray, out: np.ndarray | None = None, inverse: bool = False) -> np.ndarray:
    """2-D FFT, or inverse FFT, of an (ny, nx) array or each component of a (2, ny, nx) one.

    The result goes into ``out``. This is the one place that picks the
    transform, by dtype. A real ``data`` takes rfftn to its half
    spectrum, nx//2 + 1 columns wide. A real ``out`` takes the inverse of
    the half spectrum ``data`` onto the grid of ``out`` as irfftn does:
    the inverse FFT of each column in place, which consumes ``data``,
    then the inverse real FFT of each row into ``out``, band by band
    through a band buffer (:func:`_sweep`). So ``out`` may share the
    buffer of ``data`` as the pair of :func:`_scalar_pair` does, each row
    of ``out`` on the same row of ``data``, where numpy would copy the
    whole overlapping operand. The complex transforms, fftn and ifftn,
    may take ``data`` as ``out``. Every transform runs as numpy's n-D
    transforms do, one pass of 1-D transforms over each axis, the rows
    first but for the inverse real FFT. Each pass splits by halves, of
    the rows or of the columns, or of the row bands, as a pass over the
    grid's pixels does, not the half spectrum's; the 1-D transforms are
    those of the unsplit pass, so the bits are numpy's.
    """
    real = not np.iscomplexobj(out if inverse and out is not None else data)
    if out is None:
        width = data.shape[-1] // 2 + 1 if real else data.shape[-1]
        out = np.empty((*data.shape[:-1], width), dtype=np.complex128)
    if data.ndim == 3:
        for c in range(len(data)):
            _fft2(data[c], out[c], inverse)
        return out
    npix = out.shape[-2] * max(data.shape[-1], out.shape[-1])
    if real and inverse:
        _passes((("ifft", data, data, -2, None),), npix)

        def rows(band, spectrum):
            np.copyto(spectrum, data[band])
            np.fft.irfft(spectrum, n=out.shape[-1], axis=-1, out=out[band])

        _sweep(rows, *data.shape, (np.complex128,), npix)
        return out
    name = "ifft" if inverse else "fft"
    _passes((("rfft" if real else name, data, out, -1, None), (name, out, out, -2, None)), npix)
    return out


def _scalar_pair(shape: tuple, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(grid, spectrum): the scalar grid of the potential and the spectrum of div, one buffer.

    A complex grid is transformed in place, so it is its own spectrum. A
    real one is the first nx columns of one float64 array of shape
    (ny, 2 (nx//2 + 1)), whose complex view is the half spectrum: the
    forward transform of div never writes the grid (:func:`_div_hat`),
    and the inverse one writes it row band by row band (:func:`_fft2`).
    """
    ny, nx = shape
    if np.dtype(dtype) != np.float64:
        grid = np.empty(shape, dtype=np.complex128)
        return grid, grid
    pair = np.empty((ny, 2 * (nx // 2 + 1)))
    return pair[:, :nx], pair.view(np.complex128)


def _div_rows(data: np.ndarray, o: np.ndarray, band: slice, a: np.ndarray, b: np.ndarray):
    """Rows ``band`` of 2 D^T of the (2, ny, nx) ``data`` into ``o``, shaped like the band.

    2 D^T J = p(i - 1) - m(i) on row j, with p = a + b and m = a - b for
    a = J_x(j - 1) + J_x(j) and b = J_y(j - 1) - J_y(j) in the band
    buffers ``a`` and ``b``; rows and columns wrap. The passes run over
    each band as one flat row, whose shift by one pixel is wrong only in
    column 0, which a column pass then sets: numpy runs a 2-D shifted view
    through a buffer of its own. So ``o`` must be C-contiguous; a
    ValueError says so, as its flat view would be a copy.
    """
    if not o.flags.c_contiguous:
        raise ValueError("the div stencil writes C-contiguous rows only")
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


def _div_hat(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The spectrum of div of a (2, ny, nx) field, scalar: into ``out`` and returned.

    On a stencil table ``out`` is the spectrum of :func:`_scalar_pair`,
    made when not given, and one band pass runs the div stencil and the
    row FFT, then the column FFT runs in place. A complex div goes band
    by band into the rows of ``out`` itself, each band transformed in
    place. A real one goes through a band buffer straight into the row
    real FFT, whose rows land in the half spectrum ``out``: no grid is
    written. Otherwise each component is transformed and d . f is
    formed in Fourier space.
    """
    ny, nx = data.shape[-2:]
    g = _green_table(ny, nx)
    if not g.stencil:
        fh = _fft2(data)
        g = _spectrum_table(ny, nx, fh.shape[-1])
        out = np.empty(fh.shape[1:], dtype=np.complex128) if out is None else out
        np.multiply(fh[0], _d_times(g, 0, 1.0, np.empty(out.shape)), out=out)
        out += fh[1] * _d_times(g, 1, 1.0, np.empty(out.shape))
        return out
    if out is None:
        out = _scalar_pair((ny, nx), data.dtype)[1]
    real = not np.iscomplexobj(data)

    def rows(band, a, b, o=None):
        o = out[band] if o is None else o
        _div_rows(data, o, band, a, b)
        (np.fft.rfft if real else np.fft.fft)(o, axis=-1, out=out[band])

    _sweep(rows, ny, nx, (np.float64,) * 3 if real else (data.dtype,) * 2)
    _passes((("fft", out, out, -2, None),), ny * nx)
    return out


def _d_factors(g: _Green, c: int, coef) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of coef d_c on a table's spectrum: its first factor times coef, and
    the other, or 1, cast to the dtype of that product, so that their product has one."""
    first, *rest = g.d[c]
    first = first * coef
    return first, np.asarray(rest[0] if rest else 1.0, dtype=first.dtype)


def _d_times(g: _Green, c: int, coef, out: np.ndarray) -> np.ndarray:
    """``out`` = coef d_c on a table's spectrum, from its factors."""
    return np.multiply(*_d_factors(g, c, coef), out=out)


def _potential(ph: np.ndarray, grid: np.ndarray):
    """The potential of the spectrum ``ph`` in real space, what :func:`_add_grad` reads.

    On a stencil table the inverse FFT of ``ph`` into the scalar
    ``grid``: a complex grid may be ``ph`` itself, and a real one takes
    the inverse of the half spectrum ``ph``, whose column pass runs in
    place and consumes it, and whose rows go band by band into ``grid``,
    which may be the grid of its :func:`_scalar_pair` (:func:`_fft2`).
    Otherwise grad in Fourier space, d ph, and the inverse FFT of each
    component, into a (2, ny, nx) array of its own.
    """
    ny, nx = grid.shape
    g = _green_table(ny, nx)
    if g.stencil:
        return _fft2(ph, grid, inverse=True)
    fields = np.empty((2, ny, nx), dtype=np.complex128)
    for c in range(2):
        np.multiply(ph, _d_times(g, c, 1.0, np.empty((ny, nx))), out=fields[c])
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
    bands = _bands(ny, nx, _BAND_SIZE // 2) if stencil else range(0, ny, ny)
    if stencil:
        p, t = buffers or _grad_buffers(space)
    if support is not None:
        edges = np.searchsorted(support, [lo * nx for lo in bands] + [ny * nx])
    old = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        for i, c in enumerate(range(2)[components]):
            for k, lo in enumerate(bands):
                band = slice(lo, lo + bands.step)
                if stencil:
                    g = t[: ny - lo]
                    _grad_rows(space, c, band, p[: len(g)], g)
                else:
                    g = space[c]
                if support is not None:
                    i0, i1 = edges[k], edges[k + 1]
                    local = support[i0:i1]
                    if stencil:
                        local = np.subtract(
                            local, lo * nx, out=p.view(np.int64).ravel()[: i1 - i0]
                        )
                    # in range by construction; the checked mode would buffer a copy
                    g.ravel().take(local, out=taken[i][i0:i1], mode="wrap")
                o = out[c, band]
                if scale != 1.0:
                    o *= scale
                if shift is not None:
                    o += shift[i]
                o += g
    finally:
        np.setbufsize(old)


def _grad_buffers(space: np.ndarray | None) -> tuple | None:
    """The two band buffers :func:`_add_grad` needs on ``space``; None unless a scalar grid."""
    if space is None or space.ndim != 2:
        return None
    ny, nx = space.shape
    shape = (min(ny, _bands(ny, nx, _BAND_SIZE // 2).step), nx)
    return np.empty(shape, dtype=space.dtype), np.empty(shape, dtype=space.dtype)


def _hat_sqnorm(gh: np.ndarray, nx: int) -> float:
    """Sum over pixels of |gamma1(f)|^2, from the spectrum ``gh`` of div f alone.

    By Parseval the sum is (scale/N) sum_k |gh(k)|^2 / |d|^2, formed
    band by band with gh left intact; over the half spectrum of a real f,
    every column but 0 and, on even nx, nx/2 stands for a conjugate pair
    and counts twice.
    """
    ny, width = gh.shape
    g = _spectrum_table(ny, nx, width)
    sums = np.empty(ny)

    def band_power(band, tmp):
        # the two halves of the floats of tmp, each contiguous like a band
        # buffer of its own, hold the power and its squaring scratch
        h = gh[band]
        power, sq = tmp.view(np.float64).reshape(2, len(tmp), width)
        np.multiply(h.real, h.real, out=power)
        power += np.multiply(h.imag, h.imag, out=sq)
        power *= g.inv_d2[band]
        rows = np.sum(power, axis=-1, out=sums[band])
        if width < nx:
            rows *= 2.0
            rows -= power[:, 0]
            if nx % 2 == 0:
                rows -= power[:, -1]

    _sweep(band_power, ny, width, (np.complex128,), ny * nx)
    return _combine_rows(sums) * g.scale / (ny * nx)


def _gamma1_sqnorm(data: np.ndarray, out=None) -> float:
    """Sum over pixels of |gamma1(data)|^2, with no inverse transform.

    The spectrum of div ``data`` is left in ``out`` (:func:`_div_hat`).
    """
    return _hat_sqnorm(_div_hat(data, out), data.shape[-1])


def _scale_hat(ph: np.ndarray, nx: int, coef) -> np.ndarray:
    """``ph`` *= coef scale / |d|^2, band by band: the spectrum of div f becomes that of
    a potential whose grad is coef gamma1(f). Returns ``ph``."""
    ny, width = ph.shape
    g = _spectrum_table(ny, nx, width)
    coef = coef * g.scale

    def scale(band, inv_d2):
        # the complex product of a mixed-type one, on 1/|d|^2 cast in a band buffer
        np.copyto(inv_d2, g.inv_d2[band])
        h = ph[band]
        h *= inv_d2
        h *= coef

    _sweep(scale, ny, width, (np.complex128,), ny * nx)
    return ph


def _chi_hat(chi: np.ndarray) -> np.ndarray:
    """The spectrum of ``chi`` times the phase of div, real or complex as ``chi`` is.

    For a constant 2-vector delta, div(delta chi) has the spectrum
    (delta . d) times it: the mean pin of a solve enters div through it.
    The phase goes on band by band, so that its broadcast factors take no
    ufunc buffer of numpy's (_UFUNC_BUFSIZE), which at numpy's default
    size would take 131 KB.
    """
    h = _fft2(chi)
    phase = _spectrum_table(*chi.shape, h.shape[-1]).phase

    def rows(band):
        hb = h[band]
        for f in phase:
            # a factor over the y index is cut to the band; a row is not
            hb *= f[band] if f.shape[0] > 1 else f

    _sweep(rows, *h.shape, npix=chi.size)
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

    Every product multiplies one dtype, so that numpy allocates no ufunc
    buffer inside a thread of the sweep: the factors of vec_k d_k are
    formed here (:func:`_d_factors`), and on the real path vec_k d_k, and
    on both 1/|d|^2, are cast into a complex band buffer before their
    complex products, as numpy's mixed-type products cast them.
    """
    ny, width = gh.shape
    g = _spectrum_table(ny, nx, width)
    m = -2.0 * c * g.scale
    vec = m * np.asarray(pin)
    factors = [_d_factors(g, k, vec[k]) for k in range(2)]

    def rows(f, band):
        # a factor over the y index is cut to the band; a row, or 1, is not
        return f[band] if f.ndim and f.shape[0] > 1 else f

    def reflect(band, t, pc=None):
        h, q = gh[band], qh[band]
        h *= m
        # a real pin forms each term of vec . d in t and casts it into pc;
        # a complex pin forms it in t itself
        pc = t if pc is None else pc
        for first, second in factors:
            np.multiply(rows(first, band), rows(second, band), out=t)
            if pc is not t:
                np.copyto(pc, t)
            np.multiply(chi_hat[band], pc, out=pc)
            h -= pc
        if c == 1:
            np.copyto(q, h)
        else:
            q += h
        np.copyto(pc, g.inv_d2[band])
        np.multiply(q, pc, out=h)
        h *= coef

    dtypes = (vec.dtype,) + (() if np.iscomplexobj(vec) else (np.complex128,))
    _sweep(reflect, ny, width, dtypes, ny * nx)


def _gamma1_arr(data: np.ndarray, dtype=None) -> np.ndarray:
    """gamma1 of a (2, ny, nx) array: real when ``data`` is real and the table maps
    real fields to real fields, complex otherwise.

    A ``dtype`` of complex128 returns a real gamma1 as the real part of a
    complex array, into which the grad stencil adds it. The result is
    made after both transforms, whose band buffers are freed by then, so
    it is held only beside the scalar pair and the grad stencil's band
    buffers.
    """
    ny, nx = data.shape[-2:]
    real = not np.iscomplexobj(data) and _green_table(ny, nx).maps_real
    data = data.astype(np.float64 if real else np.complex128, copy=False)
    grid, ph = _scalar_pair((ny, nx), data.dtype)
    space = _potential(_scale_hat(_div_hat(data, ph), nx, 1.0), grid)
    out = np.zeros(data.shape, dtype=dtype or data.dtype)
    _add_grad(space, out.real if real else out)
    return out


def gamma1(f: VectorField) -> VectorField:
    """Projection onto zero-mean curl-free fields: grad (div grad)^+ div."""
    return VectorField(_gamma1_arr(_real_if_allowed(f.data), np.complex128))


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


def _mix(x: np.ndarray, coefs, out: np.ndarray, tmp: np.ndarray):
    """out = sum_i coefs[i] x[i] on packed slots ``x``, the mix u = p_in . x of the kernel.

    Into the caller's ``out``; ``tmp``, shaped like one slot, is spent.
    Neither may alias ``x``.
    """
    np.multiply(x[0], coefs[0], out=out)
    for i in range(1, len(x)):
        np.multiply(x[i], coefs[i], out=tmp)
        out += tmp


def _rank_one(out, x_i, a, c_i=None, u=None, tmp=None):
    """out = a x_i + c_i u, slot i of a local operator on packed slots, into ``out``.

    on chi'' + off (I - chi'') is off I + (on - off) p_out p_in^T on the
    inclusion: a = off, c_i = (on - off) p_out,i and u = p_in . x
    (:func:`_mix`). An ``a`` of None stands for 1 and skips its product;
    ``out`` then aliases neither x_i nor u. Otherwise ``out`` may be x_i,
    and c_i u goes through ``tmp``. One slot, p = (1,), has no u and a = on:
    one product, as off + (on - off) loses about 1e-16/on at small on.
    """
    if u is None:
        np.multiply(x_i, a, out=out)
    elif a is None:
        np.multiply(u, c_i, out=out)
        out += x_i
    else:
        np.multiply(x_i, a, out=out)
        np.multiply(u, c_i, out=tmp)
        out += tmp


def _local_arrays(slots: tuple, chi, p: tuple, on, off, q_only: bool = False) -> tuple:
    """on chi'' + off (I - chi'') on full-grid (2, ny, nx) slot arrays, Q first.

    ``slots`` holds one array per entry of p. Packed on the inclusion,
    they go through the solvers' kernel (:func:`_rank_one`), with
    p_in = p_out = p. On phase-2 pixels, where chi'' vanishes, the
    operator is ``off`` times the Q slot; the slots past Q are read on chi
    only and come back zero there. With ``q_only`` the kernel forms the
    Q slot alone, which is all the tuple then holds: the mix still reads
    every slot, but no other slot is formed or unpacked.
    """
    support = np.flatnonzero(chi)
    x = np.empty((len(slots), 2, support.size), dtype=np.result_type(*slots))
    for s, xs in zip(slots, x):
        _pack(s, support, out=xs)
    y = np.empty((1 if q_only else len(x), *x.shape[1:]), dtype=x.dtype)
    if len(p) == 1:
        _rank_one(y[0], x[0], on)
    else:
        p = np.array(p, dtype=np.complex128)
        u, tmp = np.empty_like(x[0]), np.empty_like(x[0])
        _mix(x, p, u, tmp)
        for i, c_i in enumerate(((on - off) * p)[: len(y)]):
            _rank_one(y[i], x[i], off, c_i, u, tmp)
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
