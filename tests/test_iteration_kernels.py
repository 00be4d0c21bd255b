"""Kernels of the iteration: the stencils and the scalar FFT pair of
gamma1 and the Parseval residual, the recursion of the accelerated
update, the rank-one kernel of the packed local operators, the residual
the solvers record, the 2-D FFTs one iteration costs, the memory a solve
holds, and the split of large-grid passes across two threads."""

import importlib.util
import itertools
import json
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import numpy.fft  # noqa: F401  numpy imports it on first use; import it outside the traced peaks
import pytest

import fftcond.solvers as solvers
import fftcond.spectral_ops as spectral_ops
from fftcond import (
    AugmentedField,
    BranchCutError,
    PhaseMap,
    SchemeKind,
    SolverConfig,
    SpectralInterval,
    VectorField,
    apply_chi_aug,
    apply_local_A,
    build_disk_array,
    build_square_array,
    equilibrium_residual,
    equilibrium_residual_aug,
    extract_sigma_star,
    gamma1,
    invert_shifted_A,
    map_t,
    solve,
    solve_p,
)
from fftcond.solvers import TerminationStatus, _apply_A_arrays
from fftcond.spectral_ops import (
    _add_grad,
    _chi_hat,
    _compensated_total,
    _div_hat,
    _div_rows,
    _fft2,
    _gamma1_arr,
    _gamma1_sqnorm,
    _hat_sqnorm,
    _mix,
    _pack,
    _potential,
    _rank_one,
    _reflect_hat,
    _scalar_pair,
    _scale_hat,
    _shifted_inverse_coefs,
    _split,
)

BENCH = SpectralInterval(0.25, 4.0)
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def force_split(monkeypatch):
    """Split every pass across two threads, whatever the grid and the CPU count."""
    monkeypatch.setattr(spectral_ops, "_THREAD_PIXELS", 1)
    monkeypatch.setattr(spectral_ops, "_cpus", lambda: 2)


def _pair_grid(gh, nx):
    """The scalar grid that shares the buffer of the spectrum ``gh`` as :func:`_scalar_pair`'s
    does: a complex spectrum itself, and of a half spectrum its first nx float columns; on a
    (2, ny, width) stack, one per component."""
    return gh if gh.shape[-1] == nx else gh.view(np.float64)[..., :nx]


def _gamma1_from_hat(gh, data):
    """gamma1 of ``data`` finished from the spectrum ``gh`` of its div, which it consumes:
    the potential goes into the grid of its buffer, as in a solve."""
    grid = _pair_grid(gh, data.shape[-1])
    out = np.zeros_like(data)
    _add_grad(_potential(_scale_hat(gh, data.shape[-1], 1.0), grid), out)
    return out


class TestGamma1Sqnorm:
    @pytest.mark.parametrize("shape", [(16, 16), (16, 24)])
    def test_matches_real_space_sum(self, shape):
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = random_complex(rng, (2, *shape))
            direct = _compensated_total(np.abs(_gamma1_arr(x)) ** 2)
            assert _gamma1_sqnorm(x) == pytest.approx(direct, rel=1e-12)

    def test_buffers_receive_div_and_its_spectrum_only(self):
        rng = np.random.default_rng(12)
        x = random_complex(rng, (2, 16, 24))
        before = x.copy()
        out = np.empty((16, 24), dtype=complex)
        assert _gamma1_sqnorm(x, out) == _gamma1_sqnorm(x)
        assert np.array_equal(x, before)
        div = _div_rolled(x)
        assert out.tobytes() == np.fft.fft2(div).tobytes()

    def test_spectrum_finishes_gamma1(self):
        # the basic update finishes gamma1(j) from the residual's spectrum
        x = random_complex(np.random.default_rng(13), (2, 16, 24))
        grid = np.empty((16, 24), dtype=complex)
        _gamma1_sqnorm(x, grid)
        assert np.array_equal(_gamma1_from_hat(grid, x), _gamma1_arr(x))

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    def test_parseval_sum_holds_its_band_buffers_and_one_row_sum(self, monkeypatch, split):
        # bands of two rows, or of one on a split: 256 bands, none of which
        # may leave an array of its own, as a list of them would make the
        # split's peak depend on how its threads interleave
        if split:
            force_split(monkeypatch)
        n = 256
        width = n // 2 + 1
        monkeypatch.setattr(spectral_ops, "_BAND_SIZE", 2 * width)
        gh = random_complex(np.random.default_rng(14), (n, width))
        total = _hat_sqnorm(gh, n)
        tracemalloc.start()
        try:
            assert _hat_sqnorm(gh, n) == total
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one complex band buffer of two rows, or one of one row per thread
        assert peak <= 2 * width * 16 + n * 8 + 12 * 1024


class TestBands:
    """Band by band, the stencils, the Fourier-space sums, the reflection and the scaling keep their bits."""

    @pytest.mark.parametrize("shape", [(16, 16), (16, 24), (15, 17)])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_band_size_leaves_bits(self, monkeypatch, shape, real):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, *shape)) if real else random_complex(rng, (2, *shape))
        chi = (rng.random(shape) < 0.3).astype(x.dtype)
        pin = np.array([0.4, -1.1]) if real else np.array([0.4 - 1.1j, 2.0 + 0.3j])
        results = []
        # one band, then bands of 3 rows (the last one ragged) or of 2 rows
        for band_size in (1 << 16, 48):
            monkeypatch.setattr(spectral_ops, "_BAND_SIZE", band_size)
            gh = _div_hat(x)
            qh = gh.copy()
            reflected = gh.copy()
            _reflect_hat(reflected, qh, _chi_hat(chi), pin, 2.0, shape[1])
            results.append((_hat_sqnorm(gh, shape[1]), reflected, qh, _gamma1_arr(x)))
        (s1, r1, q1, g1), (s2, r2, q2, g2) = results
        assert s1 == s2
        assert r1.tobytes() == r2.tobytes() and q1.tobytes() == q2.tobytes()
        assert g1.tobytes() == g2.tobytes()

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_band_size_leaves_solve_bits(self, monkeypatch, scheme, split):
        # bands of one row: the stencils wrap their first and last rows, and
        # the reflection undoes the mean pin band by band
        if split:
            force_split(monkeypatch)
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=0.7 + 0.4j,
            interval=BENCH if scheme.substituted else None,
            e0=(0.6, 0.8),
            tol=1e-10,
            max_iters=60,
        )
        pmap = build_disk_array(32, 0.35)
        one_band = solve(pmap, cfg)
        monkeypatch.setattr(spectral_ops, "_BAND_SIZE", 48)
        rows = solve(pmap, cfg)
        assert rows.status is one_band.status
        assert rows.history.records == one_band.history.records
        assert rows.E_field.data.tobytes() == one_band.E_field.data.tobytes()
        assert rows.J_field.data.tobytes() == one_band.J_field.data.tobytes()


def _div_stencil(f):
    """2 D^T f written out from Willot's stencil, with np.roll: an independent reference."""
    def shift(a, dy, dx):
        # a(i - dx, j - dy)
        return np.roll(a, (dy, dx), axis=(-2, -1))

    fx, fy = f
    return (
        shift(fx, 0, 1) - fx + shift(fx, 1, 1) - shift(fx, 1, 0)
        + shift(fy, 1, 0) - fy + shift(fy, 1, 1) - shift(fy, 0, 1)
    )


def _div_rolled(f):
    """2 D^T f with np.roll, in the stencil's order of operations and so with its bits:
    p(i - 1) - m(i) for p = a + b and m = a - b, a = f_x(j - 1) + f_x(j) and
    b = f_y(j - 1) - f_y(j)."""
    fx, fy = f
    a = fx + np.roll(fx, 1, axis=-2)
    b = np.roll(fy, 1, axis=-2) - fy
    return np.roll(a + b, 1, axis=-1) - (a - b)


def _grad_stencil(phi):
    """2 D phi from the same stencil: 2 D_x phi = phi(i+1, j) - phi + phi(i+1, j+1) - phi(i, j+1)."""
    def ahead(a, dy, dx):
        return np.roll(a, (-dy, -dx), axis=(-2, -1))

    return np.stack([
        ahead(phi, 0, 1) - phi + ahead(phi, 1, 1) - ahead(phi, 1, 0),
        ahead(phi, 1, 0) - phi + ahead(phi, 1, 1) - ahead(phi, 0, 1),
    ])


class TestStencilOperator:
    """gamma1 = D (D^T D)^+ D^T through the stencils and one scalar FFT pair."""

    SHAPES = [(16, 16), (15, 17), (24, 40), (33, 48), (1, 8), (8, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_div_is_the_stencil(self, shape):
        # the kernel of _div_hat's band pass, over one band of the whole grid
        f = random_complex(np.random.default_rng(50), (2, *shape))
        grid, a, b = np.empty((3, *shape), dtype=complex)
        _div_rows(f, grid, slice(0, shape[0]), a, b)
        assert np.max(np.abs(grid - _div_stencil(f))) <= 1e-15 * np.max(np.abs(f))
        assert grid.tobytes() == _div_rolled(f).tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_grad_is_the_stencil(self, shape):
        phi = random_complex(np.random.default_rng(51), shape)
        out = np.zeros((2, *shape), dtype=complex)
        _add_grad(phi, out)
        assert np.max(np.abs(out - _grad_stencil(phi))) <= 1e-15 * np.max(np.abs(phi))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_projection_identities(self, shape, real):
        # gamma1 (D phi) = D phi and D^T gamma1 f = D^T f
        rng = np.random.default_rng(52)
        draw = rng.standard_normal if real else partial(random_complex, rng)
        phi, f = draw(shape), draw((2, *shape))
        grad = _grad_stencil(phi)
        assert np.max(np.abs(_gamma1_arr(grad) - grad)) <= 1e-14 * np.max(np.abs(grad))
        div = _div_stencil(f)
        assert np.max(np.abs(_div_stencil(_gamma1_arr(f)) - div)) <= 1e-14 * np.max(np.abs(f))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_real_input_gives_real_output(self, shape):
        x = np.random.default_rng(53).standard_normal((2, *shape))
        got = _gamma1_arr(x)
        assert got.dtype == np.float64
        assert _max_rel_diff([got], [_gamma1_arr(x.astype(complex))]) <= 1e-15
        # and through the public operator, whose field is complex
        g = gamma1(VectorField(x)).data
        assert not np.any(g.imag) and g.real.tobytes() == got.tobytes()

    @pytest.mark.parametrize("shape", [(16, 16), (15, 17), (24, 40)])
    def test_pin_enters_div_through_chi_hat(self, shape):
        # div(delta chi) has the spectrum (delta . d) chi_hat, real or complex
        rng = np.random.default_rng(54)
        chi = rng.random(shape) < 0.3
        for delta, dtype in ((np.array([0.3, -1.2]), float), (np.array([0.3 - 0.5j, 1.1j]), complex)):
            field = delta[:, None, None] * chi
            expected = _div_hat(field.astype(dtype))
            ny, nx = shape
            g = spectral_ops._spectrum_table(ny, nx, expected.shape[-1])
            d = [np.multiply(*g.d[c]) for c in range(2)]
            got = (delta[0] * d[0] + delta[1] * d[1]) * _chi_hat(chi.astype(dtype))
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("shape", [(512, 512), (512, 257), (257, 513), (33, 48), (15, 17)])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_split_passes_keep_the_bits(self, monkeypatch, shape, real):
        # the scalar FFT pair by halves of rows and of columns, and the
        # stencils by halves of the bands, against one thread, on the grid
        # and spectrum of one buffer; the real forward writes no grid, so
        # div is computed apart
        rng = np.random.default_rng(55)
        x = rng.standard_normal((2, *shape)) if real else random_complex(rng, (2, *shape))
        results = []
        for split in (False, True):
            if split:
                force_split(monkeypatch)
            else:
                monkeypatch.setattr(spectral_ops, "_THREAD_PIXELS", 1 << 60)
            div = _div_rolled(x)
            grid, gh = _scalar_pair(shape, x.dtype)
            forward = _div_hat(x, gh).copy()
            phi = _potential(gh, grid)
            out = np.zeros_like(x)
            _add_grad(phi, out, slice(0, 1))
            _add_grad(phi, out, slice(1, 2))
            results.append((div, forward, phi, out))
        for a, b in zip(*results):
            assert a.tobytes() == b.tobytes()
        # numpy's own transforms of the div grid, split or not
        div, forward, phi = results[0][:3]
        if real:
            assert forward.tobytes() == np.fft.rfftn(div).tobytes()
            assert phi.tobytes() == np.fft.irfftn(forward, s=shape, axes=(-2, -1)).tobytes()
        else:
            assert forward.tobytes() == np.fft.fftn(div).tobytes()
            assert phi.tobytes() == np.fft.ifftn(forward).tobytes()


class TestScalarPair:
    """The real path holds the scalar grid and its half spectrum in one
    buffer: the grid is its first nx columns, the spectrum its complex view."""

    # even and odd ny and nx; with bands of 48 pixels, ny is not a multiple
    # of the rows of a band of the grid or of the spectrum
    SHAPES = [(16, 16), (15, 17), (16, 17), (15, 24), (13, 9)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_layout(self, shape):
        ny, nx = shape
        grid, gh = _scalar_pair(shape, np.float64)
        assert grid.shape == shape and gh.shape == (ny, nx // 2 + 1)
        assert grid.dtype == np.float64 and gh.dtype == np.complex128
        assert gh.flags.c_contiguous and grid.base is gh.base
        assert grid.ctypes.data == gh.ctypes.data and grid.strides[0] == gh.strides[0]
        grid, gh = _scalar_pair(shape, np.complex128)
        assert grid is gh and grid.shape == shape and grid.dtype == np.complex128

    @pytest.mark.parametrize("band_size", [1 << 16, 48], ids=["one_band", "bands"])
    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_transforms_on_the_pair_are_numpys(self, monkeypatch, shape, split, band_size):
        if split:
            force_split(monkeypatch)
        monkeypatch.setattr(spectral_ops, "_BAND_SIZE", band_size)
        x = np.random.default_rng(56).standard_normal((2, *shape))
        div = _div_rolled(x)
        grid, gh = _scalar_pair(shape, np.float64)
        # garbage in the buffer must not leak into either transform
        gh.view(np.float64)[:] = np.nan
        assert _div_hat(x, gh) is gh
        assert gh.tobytes() == np.fft.rfftn(div).tobytes()
        forward = gh.copy()
        assert _potential(gh, grid) is grid
        assert grid.tobytes() == np.fft.irfftn(forward, s=shape, axes=(-2, -1)).tobytes()

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    def test_in_place_inverse_holds_one_band(self, monkeypatch, split):
        # numpy's irfft would copy its whole overlapping input, 0.53 MB here;
        # the rows go through one band buffer, made before any thread starts
        if split:
            force_split(monkeypatch)
        n, band = 256, 4096
        monkeypatch.setattr(spectral_ops, "_BAND_SIZE", band)
        width = n // 2 + 1
        grid, gh = _scalar_pair((n, n), np.float64)
        h = random_complex(np.random.default_rng(57), (n, width))
        np.copyto(gh, h)
        _potential(gh, grid)
        np.copyto(gh, h)
        tracemalloc.start()
        try:
            _potential(gh, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (band // width) * width * 16 + 16 * 1024
        # and the forward transform its stencil's three real band buffers
        x = np.random.default_rng(58).standard_normal((2, n, n))
        _div_hat(x, gh)
        tracemalloc.start()
        try:
            _div_hat(x, gh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * band * 8 + 16 * 1024

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_div_stencil_rejects_a_strided_grid(self, real):
        # its flat views of a strided band would be copies, and the div lost
        rng = np.random.default_rng(59)
        x = rng.standard_normal((2, 16, 24)) if real else random_complex(rng, (2, 16, 24))
        strided = np.zeros((16, 30), dtype=x.dtype)[:, :24]
        a, b = np.empty((2, 16, 24), dtype=x.dtype)
        with pytest.raises(ValueError, match="C-contiguous"):
            _div_rows(x, strided, slice(0, 16), a, b)
        if not real:
            with pytest.raises(ValueError, match="C-contiguous"):
                _div_hat(x, strided)


class TestFourierReflection:
    """The accelerated update's recursion on the spectrum of div r_Q."""

    PMAPS = [build_square_array(16, 0.5), build_disk_array(16, 0.35)]
    DELTA = np.array([0.3 - 0.2j, -1.1 + 0.4j])

    @staticmethod
    def _problem(substituted, sigma1):
        if substituted:
            params = solve_p(BENCH)
            return (params.p1, params.p2, params.p3), map_t(sigma1, BENCH)
        return (1.0,), complex(sigma1)

    @pytest.mark.parametrize("pmap", PMAPS)
    @pytest.mark.parametrize("substituted", [False, True], ids=["one_slot", "three_slots"])
    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j, 10.0])
    @pytest.mark.parametrize("first", [True, False], ids=["first", "later"])
    def test_reflection_undoes_the_pin(self, monkeypatch, pmap, substituted, sigma1, first):
        # from the spectrum of div of the pinned flux, m times that of
        # div J_raw joins the running sum, or starts it, and the potential
        # of the sum, times a coefficient, is left in its place; one band,
        # then bands of 3 rows
        rng = np.random.default_rng(22)
        p, t = self._problem(substituted, sigma1)
        chi = pmap.chi
        ny, nx = chi.shape
        j_raw = random_complex(rng, (2, ny, nx))
        pin0 = solvers._pin_column(t, *solvers._mixer_in_slots(p, False))[0]
        jq = j_raw + self.DELTA[:, None, None] * np.where(chi, pin0, 1.0)
        c = 1.0 if first else 2.0
        m = -2.0 * c / 16
        earlier = random_complex(rng, (ny, nx))
        expected = m * np.fft.fft2(_div_stencil(j_raw)) + (0.0 if first else earlier)
        inv = spectral_ops._green_table(ny, nx).inv_d2
        for band_size in (1 << 16, 48):
            monkeypatch.setattr(spectral_ops, "_BAND_SIZE", band_size)
            gh = _div_hat(jq)
            qh = earlier.copy()
            pin = (pin0 - 1.0) * self.DELTA
            _reflect_hat(gh, qh, _chi_hat(chi.astype(complex)), pin, c, nx, 0.6)
            assert np.max(np.abs(qh - expected)) <= 1e-13 * np.max(np.abs(expected))
            assert gh.tobytes() == (qh * inv * 0.6).tobytes()


    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_products_take_no_ufunc_buffer(self, monkeypatch, real):
        # numpy gives a mixed-type product, or a broadcast one on rows
        # shorter than its buffer size, one buffer of that size per operand,
        # made inside each thread of a split; the reflection and the scaling
        # run no such product, so their peak does not depend on that size
        n = 256
        monkeypatch.setattr(spectral_ops, "_BAND_SIZE", 4096)
        rng = np.random.default_rng(25)
        x = rng.standard_normal((2, n, n)) if real else random_complex(rng, (2, n, n))
        chi_hat = _chi_hat((rng.random((n, n)) < 0.3).astype(x.dtype))
        pin = np.array([0.4, -1.1]) if real else np.array([0.4 - 1.1j, 2.0 + 0.3j])
        gh0 = _div_hat(x)
        sweeps = {
            "reflect": lambda gh, qh: _reflect_hat(gh, qh, chi_hat, pin, 2.0, n, 0.6),
            "scale": lambda gh, qh: _scale_hat(gh, n, -0.5),
        }
        for name, sweep in sweeps.items():
            peaks = {}
            # below the 129 columns of the half spectrum, where numpy runs a
            # same-type broadcast without a buffer; each size twice, as the
            # first call of a size may grow Python's own structures
            for bufsize in (32, 128, 32, 128):
                monkeypatch.setattr(spectral_ops, "_UFUNC_BUFSIZE", bufsize)
                gh, qh = gh0.copy(), gh0.copy()
                tracemalloc.start()
                try:
                    sweep(gh, qh)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                peaks[bufsize] = min(peak, peaks.get(bufsize, peak))
            # one buffer of 96 more complex elements would add 1536 bytes
            assert abs(peaks[128] - peaks[32]) <= 256, name


class TestExactUpdate:
    """Below solvers._EXACT_BELOW the accelerated update transforms div r_Q
    instead of carrying it: the two updates agree to roundoff."""

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j, 0.02], ids=["real", "complex", "low"])
    @pytest.mark.parametrize("scheme", [SchemeKind.EYRE_MILTON, SchemeKind.EYRE_MILTON_SUB])
    def test_exact_update_repeats_the_recursion(self, monkeypatch, scheme, sigma1, split):
        if split:
            force_split(monkeypatch)
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=sigma1,
            interval=BENCH if scheme.substituted else None,
            e0=(0.6, 0.8),
            tol=1e-10,
            max_iters=100,
        )
        pmap = build_disk_array(32, 0.35)
        runs = []
        for below in (0.0, np.inf):
            monkeypatch.setattr(solvers, "_EXACT_BELOW", below)
            runs.append(solve(pmap, cfg))
        recursion, exact = runs
        assert exact.status is recursion.status is TerminationStatus.CONVERGED
        assert exact.iterations == recursion.iterations
        assert abs(exact.sigma_star - recursion.sigma_star) <= 1e-12 * abs(recursion.sigma_star)
        res, ref = np.array(exact.history.residuals()), np.array(recursion.history.residuals())
        assert np.max(np.abs(res - ref)) <= 1e-12 * ref[0]


def _dense_chi_u(q, s, t_arr, params, chi):
    return np.where(chi, params.p1 * q + params.p2 * s + params.p3 * t_arr, 0.0)


def _dense_A(q, s, t_arr, t, params, chi):
    """The local operator A written over the full grid with np.where masks."""
    u = _dense_chi_u(q, s, t_arr, params, chi)
    tm1 = t - 1.0
    return (
        tm1 * params.p1 * u + q,
        np.where(chi, tm1 * params.p2 * u + s, 0.0),
        np.where(chi, tm1 * params.p3 * u + t_arr, 0.0),
    )


def _dense_inverse(q, s, t_arr, t, sigma0, params, chi):
    """(A + sigma0 I)^-1 written over the full grid with np.where masks."""
    u = _dense_chi_u(q, s, t_arr, params, chi)
    c = (t - 1.0) / (t + sigma0)
    scale = 1.0 / (1.0 + sigma0)
    return (
        scale * (q - c * params.p1 * u),
        np.where(chi, scale * (s - c * params.p2 * u), 0.0),
        np.where(chi, scale * (t_arr - c * params.p3 * u), 0.0),
    )


def _max_rel_diff(got, expected):
    scale = max(np.max(np.abs(e)) for e in expected)
    return max(np.max(np.abs(g - e)) for g, e in zip(got, expected)) / scale


class TestPackedLocalOperators:
    """The packed kernels reproduce the full-grid masked formulas."""

    PMAPS = [build_square_array(16, 0.5), build_disk_array(16, 0.35)]
    SIGMA1 = [2.0, 0.7 + 0.4j, 0.0, 10.0]

    def _field(self, rng, pmap):
        shape = (2, *pmap.chi.shape)
        q = random_complex(rng, shape)
        s = np.where(pmap.chi, random_complex(rng, shape), 0.0)
        t_arr = np.where(pmap.chi, random_complex(rng, shape), 0.0)
        return q, s, t_arr

    @pytest.mark.parametrize("pmap", PMAPS)
    def test_apply_chi_aug(self, pmap):
        rng = np.random.default_rng(16)
        params = solve_p(BENCH)
        q, s, t_arr = self._field(rng, pmap)
        u = _dense_chi_u(q, s, t_arr, params, pmap.chi)
        expected = (params.p1 * u, params.p2 * u, params.p3 * u)
        out = apply_chi_aug(
            AugmentedField(VectorField(q), VectorField(s), VectorField(t_arr)), params, pmap
        )
        assert _max_rel_diff((out.Q.data, out.S.data, out.T.data), expected) <= 1e-15

    @pytest.mark.parametrize("pmap", PMAPS)
    @pytest.mark.parametrize("sigma1", SIGMA1)
    def test_apply_local_A(self, pmap, sigma1):
        rng = np.random.default_rng(14)
        params = solve_p(BENCH)
        t = map_t(sigma1, BENCH)
        q, s, t_arr = self._field(rng, pmap)
        expected = _dense_A(q, s, t_arr, t, params, pmap.chi)
        out = apply_local_A(
            AugmentedField(VectorField(q), VectorField(s), VectorField(t_arr)), t, params, pmap
        )
        assert _max_rel_diff((out.Q.data, out.S.data, out.T.data), expected) <= 1e-15
        assert _max_rel_diff(_apply_A_arrays(q, s, t_arr, t, params, pmap.chi), expected) <= 1e-15

    @pytest.mark.parametrize("pmap", PMAPS)
    @pytest.mark.parametrize("sigma1", SIGMA1)
    def test_invert_shifted_A(self, pmap, sigma1):
        rng = np.random.default_rng(15)
        params = solve_p(BENCH)
        t = map_t(sigma1, BENCH)
        for sigma0 in (complex(np.sqrt(complex(t))), 0.3 + 0.1j):
            q, s, t_arr = self._field(rng, pmap)
            expected = _dense_inverse(q, s, t_arr, t, sigma0, params, pmap.chi)
            out = invert_shifted_A(
                AugmentedField(VectorField(q), VectorField(s), VectorField(t_arr)),
                t,
                sigma0,
                params,
                pmap,
            )
            assert _max_rel_diff((out.Q.data, out.S.data, out.T.data), expected) <= 1e-15

    @pytest.mark.parametrize("pmap", PMAPS)
    @pytest.mark.parametrize("sigma1", SIGMA1)
    def test_extract_sigma_star(self, pmap, sigma1):
        rng = np.random.default_rng(18)
        e = random_complex(rng, (2, *pmap.chi.shape))
        dense = np.where(pmap.chi, complex(sigma1), 1.0 + 0j) * e
        for e0 in ((1.0, 0.0), (0.3, 0.8 - 0.2j)):
            e0v = np.array(e0, dtype=np.complex128)
            expected = complex(np.vdot(e0v, VectorField(dense).mean())) / np.vdot(e0v, e0v).real
            got = extract_sigma_star(VectorField(e), pmap, sigma1, e0)
            assert abs(got - expected) <= 1e-15 * np.max(np.abs(dense))


class TestCallerBuffers:
    """The gather and the slot kernel fill caller buffers with the allocating calls' bits."""

    @pytest.mark.parametrize(
        "chi",
        [
            build_square_array(16, 0.5).chi,
            build_disk_array(16, 0.35).chi,
            np.random.default_rng(21).random((16, 24)) < 0.3,
            np.zeros((16, 16), dtype=bool),
        ],
        ids=["square", "disk", "raster_16x24", "empty"],
    )
    def test_pack_into_out(self, chi):
        support = np.flatnonzero(chi)
        data = random_complex(np.random.default_rng(22), (2, *chi.shape))
        expected = data.reshape(2, -1)[:, support]
        out = np.full((2, support.size), np.nan, dtype=np.complex128)
        assert _pack(data, support, out=out) is out
        assert out.tobytes() == expected.tobytes()
        assert _pack(data, support).tobytes() == expected.tobytes()

    def test_pack_checks_the_support_range(self):
        # numpy's bounds: negative indices count from the end, down to -npix
        data = random_complex(np.random.default_rng(24), (2, 16, 24))
        support = np.array([-384, -1, 0, 383])
        assert _pack(data, support).tobytes() == data.reshape(2, -1)[:, support].tobytes()
        for bad in ([0, 384], [-385, 5]):
            with pytest.raises(IndexError):
                _pack(data, np.array(bad))

    @pytest.mark.parametrize("slots", [1, 3])
    @pytest.mark.parametrize("identity_off", [False, True], ids=["off", "off_1"])
    def test_rank_one_into_caller_buffers(self, slots, identity_off):
        # the mix and each slot go into the caller's arrays, as the dense
        # slot matrix off I + (on - off) p (x) p gives them, and a call on
        # one component gives the bits of a call on both
        params = solve_p(BENCH)
        p = np.array((params.p1, params.p2, params.p3) if slots == 3 else (1.0,), dtype=complex)
        on, off = 0.7 + 0.4j, 1.0 if identity_off else 1.3
        m = off * np.eye(slots) + (on - off) * np.outer(p, p)
        x = random_complex(np.random.default_rng(23), (slots, 2, 40))
        dense = np.einsum("ij,jcm->icm", m, x)

        def apply(x):
            y = np.full_like(x, np.nan)
            if slots == 1:
                _rank_one(y[0], x[0], on)
                return y
            u, tmp = np.full_like(x[0], np.nan), np.full_like(x[0], np.nan)
            _mix(x, p, u, tmp)
            for i in range(slots):
                _rank_one(y[i], x[i], None if identity_off else off, (on - off) * p[i], u, tmp)
            return y

        expected = apply(x)
        assert np.max(np.abs(expected - dense)) <= 1e-15 * np.max(np.abs(dense))
        for c in range(2):
            assert apply(x[:, c:c + 1]).tobytes() == expected[:, c:c + 1].tobytes()
        # in place, as the shifted inverse of a solve runs: off x_i into x_i
        if slots == 3 and not identity_off:
            y, u, tmp = x.copy(), np.empty_like(x[0]), np.empty_like(x[0])
            _mix(y, p, u, tmp)
            for i in range(slots):
                _rank_one(y[i], y[i], off, (on - off) * p[i], u, tmp)
            assert y.tobytes() == expected.tobytes()


class TestWorkingSet:
    """A solve allocates its working set once: its tracemalloc peak is the
    loop's live set, the support indices and the largest transient, plus
    SLACK. The largest transient is two complex band buffers: those of the
    div stencil (three real ones on the real path), of the reflection, of
    the in-place inverse FFT or of the Parseval sum; the grad stencil's two
    half-size buffers per thread hold no more, and the residual squares
    |js|^2 in the scalar pair before its transform. gamma1's scalar grid
    shares one buffer with its spectrum, and neither of its transforms
    copies its input. Every scheme holds one real-space grid, jq, the
    pinned flux, which off the inclusion is the pinned field, and in
    which the update forms the next field (from r_Q through w_Q when
    accelerated) and then the next pinned flux. The result takes jq, the
    support, x and the mean pin as they are, and builds no grid of its
    own."""

    # Python objects (the history, the split's thread, the per-band lists
    # of the sweeps): at most 47 KiB measured at n = 256 with bands of 1024
    # pixels, split; the band passes and chi_hat take no numpy ufunc buffer
    SLACK = 96 * 1024

    @staticmethod
    def _peak(pmap, scheme, sigma1, iters):
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=sigma1,
            interval=BENCH if scheme.substituted else None,
            tol=1e-300,
            max_iters=iters,
        )
        tracemalloc.start()
        try:
            r = solve(pmap, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.iterations == iters
        return peak

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    @pytest.mark.parametrize("geometry", ["square", "disk"])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j], ids=["real", "complex"])
    def test_peak_is_the_working_set(self, monkeypatch, sigma1, scheme, geometry, split):
        self._check(monkeypatch, sigma1, scheme, geometry, split, 4096)

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    @pytest.mark.parametrize("geometry", ["square", "disk"])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j], ids=["real", "complex"])
    def test_peak_is_the_working_set_at_small_bands(self, monkeypatch, sigma1, scheme, geometry, split):
        # two complex buffers of a band of 1024 pixels take 32 KiB, less than
        # one packed component of |js|^2, 8 m bytes, so the bound would catch
        # a buffer of the residual's own
        self._check(monkeypatch, sigma1, scheme, geometry, split, 1024)

    def _check(self, monkeypatch, sigma1, scheme, geometry, split, band):
        n = 256
        pmap = build_square_array(n, 0.5) if geometry == "square" else build_disk_array(n, 0.25)
        if split:
            # the two threads' half-size bands hold what one thread's bands
            # do; each split's thread is started and joined inside the peak
            force_split(monkeypatch)
        # small bands, and a cached Green table and FFT plans, keep the sweeps
        # and the first transforms of the process out of the peak
        monkeypatch.setattr(spectral_ops, "_BAND_SIZE", band)
        spectral_ops._green_table(n, n)
        self._peak(pmap, scheme, sigma1, 1)
        # the slots the update keeps: Q for the physical schemes, (Q, S) for
        # basic_sub, whose T stays 0, and (Q, S, T) for em_sub; and, with
        # more than one, their mix u = p_in . x, with the scratch
        slots = {SchemeKind.BASIC_SUB: 2, SchemeKind.EYRE_MILTON_SUB: 3}.get(scheme, 1)
        packed_slots = slots + 1 + (slots > 1)
        m = np.count_nonzero(pmap.chi)
        if isinstance(sigma1, complex):
            grid = 2 * n * n * 16
            packed = 2 * m * 16
            # jq and the scalar grid of div jq, transformed in place, with
            # the running spectrum qh and chi_hat, each half a grid, when
            # accelerated; the packed slots
            loop = (5 if scheme.accelerated else 3) * grid // 2 + packed_slots * packed
        else:
            grid = 2 * n * n * 8
            half = 2 * n * (n // 2 + 1) * 16
            packed = 2 * m * 8
            # jq, real; the half spectrum gh of div jq, whose buffer holds
            # the scalar grid too, and qh and chi_hat when accelerated, each
            # half of ``half``; the packed slots, real
            grids = grid
            spectra = (3 if scheme.accelerated else 1) * half // 2
            loop = grids + spectra + packed_slots * packed
        # the flat int64 indices of the m inclusion pixels
        support = 8 * m
        # two complex band buffers hold at most _BAND_SIZE pixels each over
        # both threads
        transient = band * (16 + 16)
        peak = self._peak(pmap, scheme, sigma1, 6)
        assert peak <= loop + support + transient + self.SLACK
        # nothing accumulates per iteration; 16 KiB covers six more history records
        assert self._peak(pmap, scheme, sigma1, 12) <= peak + 16 * 1024


class TestPublicOperatorPeaks:
    """The public operators hold their result, the scalar pair and band
    buffers, and no grid that they throw away: gamma1 reads a real-valued
    field through a view and makes its result after both transforms, the
    residual copies no grid, and the Q read-outs form the Q slot alone."""

    # Python objects; the band passes take no numpy ufunc buffer
    SLACK = 16 * 1024

    @staticmethod
    def _peak(fn, *args):
        fn(*args)  # the cached tables and the FFT plans stay out of the peak
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _band_bytes(n, band, width, itemsize):
        """Bytes of one band buffer of _sweep's bands of ``band`` pixels over n rows ``width`` wide."""
        return min(n, max(1, band // width)) * width * itemsize

    @pytest.mark.parametrize("n, band", [(256, 4096), (128, 1 << 16)])
    def test_gamma1_of_a_real_field(self, monkeypatch, n, band):
        monkeypatch.setattr(spectral_ops, "_BAND_SIZE", band)
        f = VectorField(np.random.default_rng(60).standard_normal((2, n, n)))
        width = n // 2 + 1
        result, pair = 2 * n * n * 16, n * 2 * width * 8
        # the forward transform's three real band buffers and the inverse
        # one's complex one come and go before the result is made; beside
        # it, the grad stencil's two real ones of half a band
        transient = max(
            3 * self._band_bytes(n, band, n, 8),
            self._band_bytes(n, band, width, 16),
            result + 2 * self._band_bytes(n, band // 2, n, 8),
        )
        # 0.92 MB at n = 128; a result made before the forward transform
        # would hold 1.05 MB there, beside the stencil's three band buffers
        assert self._peak(gamma1, f) <= pair + transient + self.SLACK

    def test_equilibrium_residual_copies_no_grid(self, monkeypatch):
        n, band = 256, 4096
        monkeypatch.setattr(spectral_ops, "_BAND_SIZE", band)
        j = VectorField(np.random.default_rng(61).standard_normal((2, n, n)))
        pair = n * 2 * (n // 2 + 1) * 8
        # the scalar pair and the div stencil's three real band buffers; a
        # copy of the real part would add 2 n n 8 bytes
        peak = self._peak(equilibrium_residual, j)
        assert peak <= pair + 3 * self._band_bytes(n, band, n, 8) + self.SLACK

    @pytest.mark.parametrize("readout", ["recover_physical_fields", "extract_sigma_star_aug"])
    def test_q_readouts_form_the_q_slot_alone(self, readout):
        # n = 512, the 25% square: 8.4 MB per complex field, 2.1 MB per
        # packed slot; the three packed slots, the flux slot, the mix and
        # its scratch, and the Q grid of the flux peak at 21.5 MB; forming
        # and unpacking S and T as well would hold 42.5 MB
        n = 512
        pmap = build_square_array(n, 0.5)
        params, t = solve_p(BENCH), map_t(2.0, BENCH)
        rng = np.random.default_rng(62)
        q, s, t_arr = (
            VectorField(np.where(mask, random_complex(rng, (2, n, n)), 0.0))
            for mask in (True, pmap.chi, pmap.chi)
        )
        f = AugmentedField(q, s, t_arr)
        fn = getattr(solvers, readout)
        assert self._peak(fn, f, t, params, pmap) <= 26e6
        # the Q slot of apply_local_A, to the bit
        flux = apply_local_A(f, t, params, pmap).Q
        if readout == "recover_physical_fields":
            e, j = fn(f, t, params, pmap)
            assert e.data.tobytes() == q.data.tobytes()
            assert j.data.tobytes() == flux.data.tobytes()
        else:
            assert fn(f, t, params, pmap) == solvers._along(np.array([1.0 + 0j, 0j]), flux.mean())


class TestResultFields:
    """A solve keeps one real-space grid, the pinned flux J_field; E_field is
    built from it on first read, with the pinned field's bits."""

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j], ids=["real", "complex"])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_e_field_is_rebuilt_from_the_flux(self, monkeypatch, scheme, sigma1, split):
        if split:
            force_split(monkeypatch)
        pmap = build_disk_array(32, 0.35)
        chi = pmap.chi
        e0 = (0.6, 0.8)
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=sigma1,
            interval=BENCH if scheme.substituted else None,
            e0=e0,
            tol=1e-10,
        )
        r = solve(pmap, cfg)
        jq, support, x0, delta = r._grids
        flux = jq.copy()
        e = r.E_field.data
        # reading E_field leaves the flux untouched
        assert jq.tobytes() == flux.tobytes()
        j = r.J_field.data
        assert j.tobytes() == flux.astype(np.complex128).tobytes()
        # off the inclusion A is the identity on the Q slot: E is J, bit for bit
        assert e[:, ~chi].tobytes() == j[:, ~chi].tobytes()
        # on it, the raw iterate plus the mean pin, with the loop's bits
        pinned = np.add(x0, delta[:, None]).astype(np.complex128)
        assert e.reshape(2, -1)[:, support].tobytes() == pinned.tobytes()
        assert np.max(np.abs(r.E_field.mean() - np.array(e0))) <= 1e-14
        # and J is A applied to it there
        if scheme.substituted:
            t = map_t(sigma1, BENCH)
            assert r.aug_field.Q is r.E_field
            local = apply_local_A(r.aug_field, t, solve_p(BENCH), pmap).Q.data
        else:
            assert r.aug_field is None
            local = np.where(chi, sigma1, 1.0) * e
            got = extract_sigma_star(r.E_field, pmap, sigma1, e0)
            assert abs(got - r.sigma_star) <= 1e-12 * abs(r.sigma_star)
        assert np.max(np.abs(local - j)) <= 1e-14 * np.max(np.abs(j))


def _record_split(npix):
    """Which builders and calls of one _split of ``npix`` pixels ran: the builder names in
    order, and per call its arguments, divmod of them and whether it ran on the main thread."""
    built, calls = [], []

    def fn(a, b):
        calls.append(((a, b), divmod(a, b), threading.current_thread() is threading.main_thread()))

    def halves():
        built.append("halves")
        return (7, 2), (9, 4)

    def whole():
        built.append("whole")
        return (16, 5)

    _split(npix, fn, halves, whole)
    return built, sorted(calls)


def _split_into(queue):
    queue.put(_record_split(1))


# a split pass: both halves, the first on the calling thread, the second on a worker
SPLIT = (["halves"], [((7, 2), (3, 1), True), ((9, 4), (2, 1), False)])
# an unsplit pass: the whole of it, on the calling thread
WHOLE = (["whole"], [((16, 5), (3, 1), True)])


class TestSplit:
    """Passes split across two threads give the bits of the unsplit passes."""

    def test_split_needs_the_threshold_and_two_cpus(self, monkeypatch):
        npix = spectral_ops._THREAD_PIXELS
        monkeypatch.setattr(spectral_ops, "_cpus", lambda: 2)
        assert _record_split(npix - 1) == WHOLE
        assert _record_split(npix) == SPLIT
        monkeypatch.setattr(spectral_ops, "_cpus", lambda: 1)
        assert _record_split(npix) == WHOLE

    @pytest.mark.parametrize("raising", [0, 1])
    def test_split_raises_either_half(self, monkeypatch, raising):
        force_split(monkeypatch)
        done = []

        def half(i):
            if i == raising:
                raise ValueError(i)
            done.append(i)

        with pytest.raises(ValueError):
            _split(1, half, lambda: ((0,), (1,)), lambda: pytest.fail("the pass did not split"))
        # the other half ran to its end before the exception reached the caller
        assert done == [1 - raising]

    def test_hooked_names_run_on_the_calling_thread(self, monkeypatch):
        # perfbench wraps these names of fftcond.solvers in spans whose
        # stack is not thread-safe, so no worker may call them
        force_split(monkeypatch)
        caller = threading.get_ident()
        called = set()
        for name in ("_mean_vec", "_compensated_total", "_gamma1_arr", "_apply_A_arrays"):

            def on_caller(*args, _fn=getattr(solvers, name), _name=name):
                assert threading.get_ident() == caller, f"{_name} ran on a worker"
                called.add(_name)
                return _fn(*args)

            monkeypatch.setattr(solvers, name, on_caller)
        pmap = build_square_array(32, 0.5)
        for scheme in SchemeKind:
            cfg = SolverConfig(
                scheme=scheme,
                sigma1=2.0,
                interval=BENCH if scheme.substituted else None,
                e0=(0.6, 0.8),
                tol=1e-300,
                max_iters=5,
            )
            r = solve(pmap, cfg)
            assert r.iterations == 5
            equilibrium_residual(r.J_field)
        assert called == {"_mean_vec", "_compensated_total"}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_split_in_a_forked_child(self, monkeypatch):
        # the child inherits none of the parent's threads
        force_split(monkeypatch)
        assert _record_split(1) == SPLIT
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_split_into, args=(queue,))
        child.start()
        try:
            assert queue.get(timeout=30) == SPLIT
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0

    @pytest.mark.parametrize("out", ["none", "data", "buffer"])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("split", [False, True])
    def test_fft2_matches_numpy(self, monkeypatch, out, inverse, split):
        if split:
            force_split(monkeypatch)
        data = random_complex(np.random.default_rng(30), (2, 16, 24))
        if inverse:
            expected = np.fft.ifftn(data, axes=(-2, -1))
        else:
            expected = np.fft.fft2(data, axes=(-2, -1))
        buffer = {"none": None, "data": data, "buffer": np.empty_like(data)}[out]
        got = _fft2(data, buffer, inverse)
        if buffer is not None:
            assert got is buffer
        assert got.tobytes() == expected.tobytes()

    # em has no reference conductivity at sigma1 = 0, on the branch cut of sqrt
    CASES = [(scheme, sigma1) for scheme in SchemeKind for sigma1 in (2.0, 0.7 + 0.4j)] + [
        (scheme, 0.0) for scheme in SchemeKind if scheme is not SchemeKind.EYRE_MILTON
    ]

    @pytest.mark.parametrize("e0", [(1.0, 0.0), (0.6, 0.8)])
    @pytest.mark.parametrize("geometry", ["square", "disk"])
    @pytest.mark.parametrize("scheme, sigma1", CASES)
    def test_solve_bits_split_against_unsplit(self, monkeypatch, scheme, sigma1, geometry, e0):
        # e0 = (0.6, 0.8) puts a nonzero mean pin on both components
        pmap = build_square_array(32, 0.5) if geometry == "square" else build_disk_array(32, 0.25)
        self._check_bits(monkeypatch, pmap, scheme, sigma1, e0)

    def test_one_slot_pin_bits(self, monkeypatch):
        # numpy rounds a one-element complex product unlike a two-element
        # one, so a one-slot pin formed per component changes the bits; of
        # the solves tried up to n = 128, only this one shows it
        pmap = build_disk_array(128, 0.25)
        self._check_bits(monkeypatch, pmap, SchemeKind.EYRE_MILTON, 0.7 + 0.4j, (1.0, 0.0))

    @staticmethod
    def _check_bits(monkeypatch, pmap, scheme, sigma1, e0):
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=sigma1,
            interval=BENCH if scheme.substituted else None,
            e0=e0,
            tol=1e-10,
            max_iters=60,
        )
        monkeypatch.setattr(spectral_ops, "_THREAD_PIXELS", 1 << 60)
        unsplit = solve(pmap, cfg)
        force_split(monkeypatch)
        split = solve(pmap, cfg)
        assert split.status is unsplit.status
        assert split.iterations == unsplit.iterations
        assert split.sigma_star == unsplit.sigma_star
        assert split.history.records == unsplit.history.records
        assert split.E_field.data.tobytes() == unsplit.E_field.data.tobytes()
        assert split.J_field.data.tobytes() == unsplit.J_field.data.tobytes()
        if scheme.substituted:
            for a, b in zip(
                (split.aug_field.S, split.aug_field.T), (unsplit.aug_field.S, unsplit.aug_field.T)
            ):
                assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j], ids=["real", "complex"])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_a_cpu_count_that_changes_mid_run_keeps_the_bits(self, monkeypatch, scheme, sigma1):
        # the affinity mask shrinks and grows from one read to the next: each
        # pass splits or not as its one read says, and runs either way
        pmap = build_square_array(32, 0.5)
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=sigma1,
            interval=BENCH if scheme.substituted else None,
            tol=1e-10,
            max_iters=200,
        )
        monkeypatch.setattr(spectral_ops, "_THREAD_PIXELS", 1 << 60)
        unsplit = solve(pmap, cfg)
        monkeypatch.setattr(spectral_ops, "_THREAD_PIXELS", 1)
        monkeypatch.setattr(spectral_ops, "_cpus", itertools.cycle((2, 1)).__next__)
        cycled = solve(pmap, cfg)
        assert unsplit.status is TerminationStatus.CONVERGED
        assert cycled.status is unsplit.status
        assert cycled.iterations == unsplit.iterations
        sigma_stars = (np.complex128(r.sigma_star).tobytes() for r in (cycled, unsplit))
        assert len(set(sigma_stars)) == 1
        assert cycled.E_field.data.tobytes() == unsplit.E_field.data.tobytes()
        assert cycled.J_field.data.tobytes() == unsplit.J_field.data.tobytes()

    def test_each_split_pass_reads_the_cpu_count_once(self, monkeypatch):
        # every pass splits here, so each starts one thread and reads _cpus once
        force_split(monkeypatch)
        reads, started = [], []
        monkeypatch.setattr(spectral_ops, "_cpus", lambda: reads.append(1) or 2)

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(spectral_ops.threading, "Thread", Counted)

        def counted(run):
            reads.clear()
            started.clear()
            run()
            return len(reads), len(started)

        data = np.random.default_rng(47).standard_normal((16, 24))
        assert counted(lambda: spectral_ops._sweep(lambda band: None, 16, 24)) == (1, 1)
        passes = (("fft", data, data.astype(complex), -2, None),)
        assert counted(lambda: spectral_ops._passes(passes, data.size)) == (1, 1)
        # one iteration of each scheme: the difference of solves of 4 and 3, on
        # the recursion and, from the second iteration on, on the exact update
        pmap = build_square_array(32, 0.5)
        for scheme, exact_below in itertools.product(SchemeKind, (0.0, math.inf)):
            monkeypatch.setattr(solvers, "_EXACT_BELOW", exact_below)
            per_solve = []
            for iters in (3, 4):
                cfg = SolverConfig(
                    scheme=scheme,
                    sigma1=2.0,
                    interval=BENCH if scheme.substituted else None,
                    tol=1e-300,
                    max_iters=iters,
                )
                per_solve.append(counted(lambda: solve(pmap, cfg)))
            (reads3, started3), (reads4, started4) = per_solve
            assert reads4 - reads3 == started4 - started3 > 0, scheme
            assert reads4 == started4, scheme

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    @pytest.mark.parametrize("scheme", [SchemeKind.BASIC_SUB, SchemeKind.EYRE_MILTON_SUB])
    def test_aug_field_built_on_first_read(self, monkeypatch, scheme, split):
        if split:
            force_split(monkeypatch)
        pmap = build_disk_array(32, 0.25)
        cfg = SolverConfig(scheme=scheme, sigma1=0.7 + 0.4j, interval=BENCH, max_iters=20)
        r = solve(pmap, cfg)
        aug = r.aug_field
        assert r.aug_field is aug
        assert aug.Q is r.E_field
        assert np.any(aug.S.data[:, pmap.chi])
        # the basic update never writes T, which starts at 0
        assert np.any(aug.T.data[:, pmap.chi]) == scheme.accelerated
        for slot in (aug.S, aug.T):
            assert not np.any(slot.data[:, ~pmap.chi])

    @staticmethod
    def _three_iterations(scheme, n):
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=2.0,
            interval=BENCH if scheme.substituted else None,
            tol=1e-300,
            max_iters=3,
        )
        assert solve(build_square_array(n, 0.5), cfg).iterations == 3

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_no_thread_below_the_threshold(self, monkeypatch, scheme):
        # n = 128, the grid of the small benchmark workloads, stays on one thread
        monkeypatch.setattr(spectral_ops, "_cpus", lambda: 2)

        def no_thread(*args, **kwargs):
            raise AssertionError("a pass below the threshold started a thread")

        monkeypatch.setattr(spectral_ops.threading, "Thread", no_thread)
        self._three_iterations(scheme, 128)

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_no_thread_outlives_a_split_solve(self, monkeypatch, scheme):
        # every split joins the thread it started before it returns
        force_split(monkeypatch)
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(spectral_ops.threading, "Thread", Recorded)
        self._three_iterations(scheme, 32)
        assert started and all(t.name == "fftcond" for t in started)
        assert not any(t.is_alive() for t in started)
        assert not [t for t in threading.enumerate() if t.name == "fftcond"]

    def test_worker_keeps_the_callers_error_state(self, monkeypatch):
        # solve ignores overflow while the iterate blows up; so must the worker
        force_split(monkeypatch)
        cfg = SolverConfig(
            scheme=SchemeKind.BASIC, sigma1=2.0, sigma0_override=0.01, max_iters=500
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = solve(build_square_array(16, 0.5), cfg)
        assert r.status is TerminationStatus.DIVERGED


def _force_complex_path(monkeypatch):
    """Run every solve in complex arithmetic, whatever its parameters."""
    monkeypatch.setattr(solvers, "_field_dtype", lambda *args: np.complex128)


class TestRealArithmetic:
    """With t, sigma0 and e0 real, a solve runs in float64 on half spectra,
    its slots past Q stored divided by i, and gives what the complex path
    gives, to roundoff."""

    @pytest.mark.parametrize("shape", [(64, 64), (31, 31), (33, 48), (48, 33), (24, 40)])
    def test_half_spectrum_kernels_match_the_full_spectrum(self, shape):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((2, *shape))
        xc = x.astype(np.complex128)
        nx = shape[1]
        # Parseval: every column but 0 and, on even nx, nx/2 counts twice
        assert _gamma1_sqnorm(x) == pytest.approx(_gamma1_sqnorm(xc), rel=1e-13)
        gh, full = _div_hat(x), _div_hat(xc)
        width = gh.shape[-1]
        assert _max_rel_diff([gh], [full[:, :width]]) <= 1e-13
        assert _max_rel_diff([_gamma1_from_hat(gh.copy(), x)], [_gamma1_arr(xc)]) <= 1e-13
        # the reflection on the half spectrum is the full one cut to it
        chi = rng.random(shape) < 0.3
        pin = np.array([0.4, -1.1])
        earlier = _div_hat(rng.standard_normal((2, *shape)))
        qh, qh_full = earlier.copy(), np.fft.fft2(np.fft.irfft2(earlier, s=shape))
        _reflect_hat(gh, qh, _chi_hat(chi.astype(float)), pin, 2.0, nx)
        _reflect_hat(full, qh_full, _chi_hat(chi.astype(complex)), pin, 2.0, nx)
        assert _max_rel_diff([qh, gh], [qh_full[:, :width], full[:, :width]]) <= 1e-13

    @pytest.mark.parametrize("out", ["pair", "apart"])
    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "2d"])
    @pytest.mark.parametrize("shape", [(16, 24), (16, 17), (15, 24), (15, 17)])
    def test_fft2_picks_the_real_transforms_by_dtype(
        self, monkeypatch, shape, stacked, split, out
    ):
        # even and odd ny and nx; a 2-D call never splits
        if split:
            force_split(monkeypatch)
        x = np.random.default_rng(41).standard_normal((2, *shape) if stacked else shape)
        h = _fft2(x)
        assert h.tobytes() == np.fft.rfftn(x, axes=(-2, -1)).tobytes()
        # the inverse: irfftn's two passes, the columns in place in the
        # spectrum, which is consumed, and the rows into a grid that shares
        # its buffer as in a scalar pair, or into one apart
        if stacked:
            # one buffer holds a pair per component, laid out as _scalar_pair's
            spectrum = np.empty(h.shape, dtype=complex)
            grid = _pair_grid(spectrum, shape[1])
        else:
            grid, spectrum = _scalar_pair(shape, np.float64)
        if out == "apart":
            grid = np.empty(x.shape)
        np.copyto(spectrum, h)
        assert _fft2(spectrum, grid, inverse=True) is grid
        assert grid.tobytes() == np.fft.irfftn(h, s=shape, axes=(-2, -1)).tobytes()

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    def test_inverse_on_stacked_pairs_copies_nothing(self, monkeypatch, split):
        # irfftn's own peak here is a copy of its input, 1.06 MB; each
        # component's rows go through one band buffer of its own, in turn
        if split:
            force_split(monkeypatch)
        n, band = 256, 4096
        monkeypatch.setattr(spectral_ops, "_BAND_SIZE", band)
        width = n // 2 + 1
        h = random_complex(np.random.default_rng(46), (2, n, width))
        spectrum = np.empty_like(h)
        grid = _pair_grid(spectrum, n)
        np.copyto(spectrum, h)
        _fft2(spectrum, grid, inverse=True)
        np.copyto(spectrum, h)
        tracemalloc.start()
        try:
            _fft2(spectrum, grid, inverse=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (band // width) * width * 16 + 16 * 1024
        assert grid.tobytes() == np.fft.irfftn(h, s=(n, n), axes=(-2, -1)).tobytes()

    def test_half_spectrum_splits_on_the_grid(self, monkeypatch):
        # a 512 x 512 grid has 2^18 pixels per component, its half spectrum
        # 512 x 257 fewer: every pass must count the grid's
        monkeypatch.setattr(spectral_ops, "_cpus", lambda: 2)
        seen, splits = [], spectral_ops._splits
        monkeypatch.setattr(spectral_ops, "_splits", lambda npix: seen.append(npix) or splits(npix))
        x = np.random.default_rng(44).standard_normal((2, 512, 512))
        grid, gh = _scalar_pair((512, 512), np.float64)
        _div_hat(x, gh)
        _hat_sqnorm(gh, 512)
        _reflect_hat(gh, gh.copy(), _chi_hat(np.ones((512, 512))), np.zeros(2), 1.0, 512)
        _potential(_scale_hat(gh, 512, 1.0), grid)
        assert seen and set(seen) == {512 * 512}

    def test_chooser_needs_real_parameters(self):
        e0 = np.array([0.6, 0.8], dtype=np.complex128)
        assert solvers._field_dtype((32, 32), 2.0 + 0j, 1.5 + 0j, e0) is np.float64
        assert solvers._field_dtype((32, 32), 2.0 + 1e-300j, 1.5 + 0j, e0) is np.complex128
        assert solvers._field_dtype((32, 32), 2.0 + 0j, 1.5 - 0.1j, e0) is np.complex128
        assert solvers._field_dtype((32, 32), 2.0 + 0j, 1.5 + 0j, e0 + [0, 1j]) is np.complex128

    @pytest.mark.usefixtures("spectral_green")
    def test_spectral_table_keeps_the_complex_path(self):
        # the spectral multiplier maps real fields to complex ones on even grids
        e0 = np.array([1.0, 0.0], dtype=np.complex128)
        assert solvers._field_dtype((32, 32), 2.0 + 0j, 1.5 + 0j, e0) is np.complex128
        with pytest.raises(ValueError, match="real fields"):
            _gamma1_sqnorm(np.ones((2, 32, 32)))

    @staticmethod
    def _solve_recording(monkeypatch, pmap, cfg):
        """solve, with |J| / |mean J| of the flux of each residual it records."""
        conditioning, residual = [], solvers._residual

        def recording(jq, js, jmean, *args):
            rms = np.sqrt(np.mean(np.abs(jq) ** 2) * 2)
            conditioning.append(rms / np.linalg.norm(jmean))
            return residual(jq, js, jmean, *args)

        monkeypatch.setattr(solvers, "_residual", recording)
        result = solve(pmap, cfg)
        monkeypatch.setattr(solvers, "_residual", residual)
        return result, np.array(conditioning[: result.iterations])

    PMAPS = {
        "square": build_square_array(32, 0.5),
        "disk": build_disk_array(32, 0.25),
        "raster": PhaseMap(np.random.default_rng(42).random((32, 32)) < 0.3),
        "raster_24x40": PhaseMap(np.random.default_rng(43).random((24, 40)) < 0.3),
    }

    # TestSplit holds the real path's split to the bits of its unsplit
    # passes, so one geometry, on a grid that is not square, covers it here
    GEOMETRY_SPLIT = [(geometry, False) for geometry in sorted(PMAPS)] + [("raster_24x40", True)]

    @pytest.mark.parametrize(
        "geometry, split",
        GEOMETRY_SPLIT,
        ids=[f"{g}-{'split' if split else 'unsplit'}" for g, split in GEOMETRY_SPLIT],
    )
    @pytest.mark.parametrize("sigma1", [2.0, 10.0, 0.02, 0.0])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_real_path_matches_complex_path(self, monkeypatch, scheme, sigma1, geometry, split):
        if split:
            force_split(monkeypatch)
        pmap = self.PMAPS[geometry]
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=sigma1,
            interval=BENCH if scheme.substituted else None,
            e0=(0.6, 0.8),
            tol=1e-10,
            max_iters=60,
        )
        if scheme is SchemeKind.EYRE_MILTON and sigma1 == 0:
            # no reference conductivity on the branch cut of sqrt, on either path
            with pytest.raises(BranchCutError):
                solve(pmap, cfg)
            _force_complex_path(monkeypatch)
            with pytest.raises(BranchCutError):
                solve(pmap, cfg)
            return
        real = solve(pmap, cfg)
        assert real.E_field.data.dtype == np.complex128
        assert not np.any(real.E_field.data.imag) and not np.any(real.J_field.data.imag)
        assert real.sigma_star.imag == 0
        _force_complex_path(monkeypatch)
        ref, conditioning = self._solve_recording(monkeypatch, pmap, cfg)
        assert real.status is ref.status
        assert real.iterations == ref.iterations
        assert abs(real.sigma_star - ref.sigma_star) <= 1e-12 * abs(ref.sigma_star)
        # near tol the residuals are 1e-10 of the first, and roundoff in the
        # fields moves them by 1e-16 of it: compare them on that scale, or,
        # where a record is ill-conditioned, on its own: roundoff eps |J|
        # in the mean flux moves the residual by eps |J| / |mean J| of itself
        # (em at sigma1 = 0.02 on the disk: |J| / |mean J| = 59 at a
        # residual of 47, where the paths differ by 1.6 eps |J| / |mean J|)
        res, ref_res = np.array(real.history.residuals()), np.array(ref.history.residuals())
        eps = np.finfo(float).eps
        bound = np.maximum(1e-12 * ref_res[0], 32 * eps * conditioning * ref_res)
        assert np.all(np.abs(res - ref_res) <= bound)
        for field in ("E_field", "J_field"):
            assert _max_rel_diff([getattr(real, field).data], [getattr(ref, field).data]) <= 1e-12
        if scheme.substituted:
            # T of em_sub falls to 1e-10 of the field: the slots on the scale of all three
            got, expected = (
                [f.data for f in (r.aug_field.S, r.aug_field.T, r.E_field)] for r in (real, ref)
            )
            assert _max_rel_diff(got, expected) <= 1e-12


def _stored(m, real):
    """The slot matrix ``m`` as it acts on a solve's stored slots, written out densely: on
    the real path diag(1, -i, ...) m diag(1, i, ...), whose imaginary part must vanish."""
    if not real:
        return m
    scale = np.diag([1.0] + [1j] * (len(m) - 1))
    stored = np.linalg.inv(scale) @ m @ scale
    assert np.max(np.abs(stored.imag)) <= 4 * np.finfo(float).eps * np.max(np.abs(stored))
    return stored.real


class TestRankOneKernel:
    """The rank-one kernel and the coefficients the solvers give it, checked
    against dense slot matrices, without the full-grid wrappers, and the
    loop's use of it."""

    SIGMA1 = [2.0, 0.7 + 0.4j, 0.0, 10.0]

    @staticmethod
    def _one_slot(on):
        x = random_complex(np.random.default_rng(17), (2, 64))
        out = np.empty_like(x)
        _rank_one(out, x, on)
        return out, x

    @pytest.mark.parametrize("sigma1", SIGMA1)
    def test_one_slot_A_multiplies_by_sigma1(self, sigma1):
        out, x = self._one_slot(complex(sigma1))
        # one product, sigma1 x, with its bits
        assert out.tobytes() == (x * complex(sigma1)).tobytes()

    @pytest.mark.parametrize("sigma1", SIGMA1)
    def test_one_slot_shifted_inverse_divides_by_sigma1_plus_sigma0(self, sigma1):
        for sigma0 in ((sigma1 + 1.0) / 2.0, 0.3 + 0.1j):
            out, x = self._one_slot(_shifted_inverse_coefs(sigma1, sigma0)[0])
            expected = 1.0 / (sigma1 + sigma0) * x
            assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("interval", [BENCH, SpectralInterval(0.6, 4.0)], ids=str)
    def test_mixer_is_rank_one_on_the_stored_slots(self, interval, real):
        # solve forms A and its shifted inverse from p_out p_in^T, and takes
        # u = p_in . x after the inverse from p_in . p_out = 1
        params = solve_p(interval)
        p = (params.p1, params.p2, params.p3)
        p_in, p_out = solvers._mixer_in_slots(p, real)
        assert np.isrealobj(p_in) == real and np.isrealobj(p_out) == real
        stored = _stored(np.outer(p, p), real)
        eps = np.finfo(float).eps
        assert np.max(np.abs(np.outer(p_out, p_in) - stored)) <= 4 * eps * np.max(np.abs(stored))
        assert abs(np.dot(p_in, p_out) - 1.0) <= 4 * eps

    @pytest.mark.parametrize("sigma1", SIGMA1)
    def test_mean_pin_is_column_zero_of_A(self, sigma1):
        pmap = build_square_array(16, 0.5)
        params = solve_p(BENCH)
        p = (params.p1, params.p2, params.p3)
        t = map_t(sigma1, BENCH)
        delta = np.array([0.3 - 0.2j, 1.1])
        q = np.broadcast_to(delta[:, None, None], (2, *pmap.chi.shape))
        zero = np.zeros_like(q)
        dense = _dense_A(q, zero, zero, t, params, pmap.chi)
        pin = solvers._pin_column(t, *solvers._mixer_in_slots(p, False))
        for slot, got in zip(pin, dense):
            expected = slot * delta[:, None]
            assert np.max(np.abs(got[:, pmap.chi] - expected)) <= 1e-15 * np.max(np.abs(dense[0]))
        # on the real path, column 0 of A on the stored slots
        if t.imag == 0:
            a_mat = np.eye(3) + (t - 1.0) * np.outer(p, p)
            stored = _stored(a_mat, True)[:, 0]
            real_pin = solvers._pin_column(t.real, *solvers._mixer_in_slots(p, True))
            assert np.isrealobj(real_pin)
            assert np.max(np.abs(real_pin - stored)) <= 4e-16 * np.max(np.abs(stored))

    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j], ids=["real", "complex"])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_solve_runs_the_shared_kernel(self, monkeypatch, scheme, sigma1):
        # the loop applies its local operators through the kernel that the
        # public operators run, with its bits
        pmap = build_disk_array(16, 0.35)
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=sigma1,
            interval=BENCH if scheme.substituted else None,
            tol=1e-300,
            max_iters=4,
        )
        plain = solve(pmap, cfg)
        seen = []

        def recording(name):
            kernel = getattr(spectral_ops, name)

            def call(*args):
                seen.append(name)
                return kernel(*args)

            return call

        for name in ("_rank_one", "_mix"):
            monkeypatch.setattr(solvers, name, recording(name))
        r = solve(pmap, cfg)
        # one slot keeps no mix
        assert "_rank_one" in seen and ("_mix" in seen) == scheme.substituted
        assert r.E_field.data.tobytes() == plain.E_field.data.tobytes()
        assert r.J_field.data.tobytes() == plain.J_field.data.tobytes()


class TestRecordedResidual:
    """The residual a solver records is the one the public functions compute."""

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j])
    def test_last_residual_matches_public_residual(self, scheme, sigma1):
        pmap = build_disk_array(32, 0.35)
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=sigma1,
            interval=BENCH if scheme.substituted else None,
            tol=1e-10,
        )
        r = solve(pmap, cfg)
        if scheme.substituted:
            t = map_t(sigma1, BENCH)
            flux = apply_local_A(r.aug_field, t, solve_p(BENCH), pmap)
            public = equilibrium_residual_aug(flux, pmap)
        else:
            public = equilibrium_residual(r.J_field)
        assert r.history.residuals()[-1] == pytest.approx(public, rel=1e-12)

    @pytest.mark.parametrize("iters", [3, 7, 15])
    @pytest.mark.parametrize("geometry", ["square", "disk"])
    @pytest.mark.parametrize(
        "sigma1", [2.0, 0.5, 10.0, 0.02, 50.0, 0.7 + 0.4j, 3.0 - 1.0j, 0.3 + 2.0j, 5.0 + 0.5j]
    )
    def test_basic_last_residual_is_public_residual(self, iters, geometry, sigma1):
        self._check_bitwise(SchemeKind.BASIC, iters, geometry, sigma1)

    @pytest.mark.parametrize("iters", [3, 7, 15])
    @pytest.mark.parametrize("geometry", ["square", "disk"])
    @pytest.mark.parametrize(
        "sigma1", [2.0, 0.5, 10.0, 0.02, 50.0, 0.7 + 0.4j, 3.0 - 1.0j, 0.3 + 2.0j, 5.0 + 0.5j]
    )
    def test_em_last_residual_is_public_residual(self, iters, geometry, sigma1):
        # em transforms the flux in place and rebuilds J_field after the loop
        self._check_bitwise(SchemeKind.EYRE_MILTON, iters, geometry, sigma1)

    @staticmethod
    def _check_bitwise(scheme, iters, geometry, sigma1):
        pmap = build_square_array(32, 0.5) if geometry == "square" else build_disk_array(32, 0.35)
        cfg = SolverConfig(scheme=scheme, sigma1=sigma1, tol=1e-300, max_iters=iters)
        r = solve(pmap, cfg)
        assert r.iterations == iters
        assert r.history.residuals()[-1] == equilibrium_residual(r.J_field)


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_two_ffts_per_iteration(scheme):
    # counted on a 16 x 16 grid by the benchmark tool's own counter
    assert _load_tool("bench_per_iteration").ffts_per_iteration(scheme, 16) == 2.0


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_two_ffts_per_iteration_at_complex_sigma1(scheme):
    # complex sigma1 keeps the complex transforms, and the count
    tool = _load_tool("bench_per_iteration")
    assert tool.ffts_per_iteration(scheme, 16, tool.COMPLEX_SIGMA1) == 2.0


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_two_ffts_per_iteration_split(monkeypatch, scheme):
    # a split pass counts as two halves, each half a transform's share
    force_split(monkeypatch)
    assert _load_tool("bench_per_iteration").ffts_per_iteration(scheme, 16) == 2.0


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_exact_update_takes_one_more_fft(scheme):
    # below solvers._EXACT_BELOW the accelerated update transforms div r_Q
    tool = _load_tool("bench_per_iteration")
    expected = 3.0 if scheme.accelerated else 2.0
    assert tool.ffts_per_iteration(scheme, 16, exact=True) == expected


@pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j], ids=["real", "complex"])
def test_calls_per_iteration_repeat(sigma1):
    # after the warm-up solve the count is exact, so a change can be held to it
    tool = _load_tool("bench_per_iteration")
    counts = [tool.calls_per_iteration(SchemeKind.EYRE_MILTON_SUB, 16, sigma1) for _ in range(2)]
    assert counts[0] == counts[1] > 0
    assert counts[0] == int(counts[0])


def test_ab_trees_finds_a_tree_equal_to_itself(capsys):
    # the tree against itself: equal calls per iteration and equal bits, and
    # each tree runs under a name of its own
    tool = _load_tool("ab_trees")
    root = Path(__file__).resolve().parents[1]
    try:
        assert tool.main([str(root), str(root), "--sizes", "32", "--rounds", "2"]) == 0
        a, b = (sys.modules[alias] for alias in tool.ALIASES)
        assert a is not b and a.solve is not b.solve and a.solve is not solve
    finally:
        for name in [k for k in sys.modules if k.partition(".")[0] in tool.ALIASES]:
            del sys.modules[name]
    report = json.loads(capsys.readouterr().out)
    assert report["differences"] == []
    assert len(report["cases"]) == 8
    for case in report["cases"]:
        calls = case["calls_per_iteration"]
        assert calls["a"] == calls["b"] > 0
        assert case["a_wins"] + case["b_wins"] <= 1 and case["ratio_min"] > 0


def test_ab_trees_summary_lists_moves_and_the_largest_sigma_star_change():
    tool = _load_tool("ab_trees")
    summary = {"moved": [], "sigma_star_rel_change": {}}

    def row(status, iterations, sigma_star):
        return {"status": status, "iterations": iterations, "sigma_star": tool._hex(sigma_star)}

    cases = [
        ({"n": 1}, row("Converged", 9, 2.0), row("Converged", 9, 2.0 + 2e-12)),
        ({"n": 2}, row("Converged", 9, 2.0), row("Converged", 9, 2.0 + 6e-12)),
        ({"n": 3}, row("MaxIters", 600, 1.0), row("Converged", 566, 1.0)),
        ({"n": 4}, row("MaxIters", 600, 1.0 + 1j), row("MaxIters", 600, 1.0 + 1.1j)),
        ({"n": 5}, {"error": "BranchCutError: x"}, {"error": "BranchCutError: x"}),
        ({"n": 6}, {"error": "BranchCutError: x"}, row("Converged", 3, 1.0)),
    ]
    for case, a, b in cases:
        tool._record_moves(summary, case, (a, b))
    assert summary["moved"] == [
        {"n": 3, "a": "MaxIters 600", "b": "Converged 566"},
        {"n": 6, "a": "BranchCutError: x", "b": "Converged 3"},
    ]
    changes = summary["sigma_star_rel_change"]
    assert changes["Converged"]["case"] == {"n": 2}
    assert changes["Converged"]["max"] == pytest.approx(3e-12, rel=1e-3)
    assert changes["MaxIters"]["max"] == pytest.approx(0.1 / abs(1 + 1j))


def test_ab_trees_command_lines_equal_to_themselves():
    # a config fault, a contours grid and an npz artifact, each run once per tree
    tool = _load_tool("ab_trees")
    root = Path(__file__).resolve().parents[1]
    by_name = {case[0]: case for case in tool.CLI_CASES}
    cases = [by_name[name] for name in ("reject_interval", "contours_basic", "solve_fields")]
    try:
        trees = tuple(tool.load_tree(root, alias) for alias in tool.ALIASES)
        outcomes = [tool.cli_outcome(trees[0], case) for case in cases]
        assert tool.cli_differences(trees, cases) == []
    finally:
        for name in [k for k in sys.modules if k.partition(".")[0] in tool.ALIASES]:
            del sys.modules[name]
    assert [o["exit"] for o in outcomes] == [2, 0, 0]
    assert "sha256:contours.csv" in outcomes[1] and "sha256:fields.npz" in outcomes[2]


def test_green_rows_tell_the_operators_apart():
    # the insulating point on the 25% square: the rotated operator converges
    # at its predicted rate; the spectral one stalls on its residual floor
    tool = _load_tool("bench_per_iteration")
    rows = {
        green: tool.convergence_row(SchemeKind.EYRE_MILTON_SUB, 0.0, 32, green)
        for green in ("rotated", "spectral")
    }
    assert rows["rotated"]["status"] == "Converged"
    assert rows["rotated"]["tail_rate"] <= 1.1 * rows["rotated"]["predicted_rate"]
    assert rows["spectral"]["status"] == "MaxIters"
    assert rows["spectral"]["tail_rate"] > 0.99
    em = tool.convergence_row(SchemeKind.EYRE_MILTON, 0.0, 32, "rotated")
    assert em["status"] == "BranchCutError"
