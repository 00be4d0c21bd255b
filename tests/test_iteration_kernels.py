"""Kernels of the iteration: the stencils and the scalar FFT pair of
gamma1 and the Parseval residual, the recursion of the accelerated
update, packed local operators and their slot matrices, the residual the
solvers record, the 2-D FFTs one iteration costs, the memory a solve
holds, and the split of large-grid passes across two threads."""

import importlib.util
import multiprocessing
import os
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
    _fft2,
    _gamma1_arr,
    _gamma1_sqnorm,
    _hat_sqnorm,
    _pack,
    _potential,
    _reflect_hat,
    _scale_hat,
    _shifted_inverse_coefs,
    _slot_matrix,
    _slot_sums,
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


def _gamma1_from_hat(gh, data):
    """gamma1 of ``data`` finished from the spectrum ``gh`` of its div, which it consumes."""
    grid = np.empty(data.shape[1:], dtype=data.dtype)
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
        grid, out = np.empty((16, 24), dtype=complex), np.empty((16, 24), dtype=complex)
        assert _gamma1_sqnorm(x, grid, out) == _gamma1_sqnorm(x)
        assert np.array_equal(x, before)
        assert out.tobytes() == np.fft.fft2(grid).tobytes()

    def test_spectrum_finishes_gamma1(self):
        # the basic update finishes gamma1(j) from the residual's spectrum
        x = random_complex(np.random.default_rng(13), (2, 16, 24))
        grid = np.empty((16, 24), dtype=complex)
        _gamma1_sqnorm(x, grid, grid)
        assert np.array_equal(_gamma1_from_hat(grid, x), _gamma1_arr(x))


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
        f = random_complex(np.random.default_rng(50), (2, *shape))
        grid = np.empty(shape, dtype=complex)
        _div_hat(f, grid, np.empty_like(grid))
        assert np.max(np.abs(grid - _div_stencil(f))) <= 1e-15 * np.max(np.abs(f))

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
        # stencils by halves of the bands, against one thread
        rng = np.random.default_rng(55)
        x = rng.standard_normal((2, *shape)) if real else random_complex(rng, (2, *shape))
        results = []
        for split in (False, True):
            if split:
                force_split(monkeypatch)
            else:
                monkeypatch.setattr(spectral_ops, "_THREAD_PIXELS", 1 << 60)
            grid = np.empty(shape, dtype=x.dtype)
            gh = _div_hat(x, grid, None if real else np.empty_like(grid))
            forward = gh.copy()
            phi = _potential(gh, np.empty_like(grid) if real else gh)
            out = np.zeros_like(x)
            _add_grad(phi, out, slice(0, 1))
            _add_grad(phi, out, slice(1, 2))
            results.append((grid, forward, phi, out))
        for a, b in zip(*results):
            assert a.tobytes() == b.tobytes()
        # numpy's own transform of the div grid, split or not
        transform = np.fft.rfftn if real else np.fft.fftn
        assert results[0][1].tobytes() == transform(results[0][0]).tobytes()


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
        pin0 = _slot_matrix(p, t, 1.0)[0, 0]
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
    def test_slot_sums_into_caller_buffers(self, slots):
        # into the caller's arrays, for both components or one
        params = solve_p(BENCH)
        p = (params.p1, params.p2, params.p3) if slots == 3 else (1.0,)
        m = _slot_matrix(p, 0.7 + 0.4j, 1.3)
        x = random_complex(np.random.default_rng(23), (slots, 2, 40))
        expected = np.empty_like(x)
        _slot_sums(m, x, expected, np.empty_like(x[0]))
        dense = np.einsum("ij,jcm->icm", m, x)
        assert np.max(np.abs(expected - dense)) <= 1e-15 * np.max(np.abs(dense))
        for c in range(2):
            out, tmp = np.empty_like(x[:, c:c + 1]), np.empty_like(x[0, c:c + 1])
            _slot_sums(m, x[:, c:c + 1], out, tmp)
            assert out.tobytes() == expected[:, c:c + 1].tobytes()


class TestWorkingSet:
    """A solve allocates its working set once: its tracemalloc peak is the
    loop's live set, the support indices and the largest transient, plus
    SLACK. The largest transient is two band buffers: those of the div
    stencil, of the reflection or of the Parseval sum, or after them the
    residual's |js|^2 of one component; the grad stencil's two half-size
    buffers per thread hold no more. gamma1 transforms one scalar grid,
    div of the flux, whose inverse real FFT runs through its dead half
    spectrum, so no copy of its input counts. Every scheme holds one
    real-space grid, jq, the pinned flux, which off the inclusion is the
    pinned field, and in which the update forms the next field (from r_Q
    through w_Q when accelerated) and then the next pinned flux. The
    result takes jq, the support, x and the mean pin as they are, and
    builds no grid of its own."""

    # Python objects (the history, the split's thread) and numpy's ufunc
    # buffers in the sweeps: 35-60 KiB measured at n = 256
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
        n = 256
        pmap = build_square_array(n, 0.5) if geometry == "square" else build_disk_array(n, 0.25)
        if split:
            # the two threads' half-size bands hold what one thread's bands
            # do; each split's thread is started and joined inside the peak
            force_split(monkeypatch)
        # small bands, and a cached Green table and FFT plans, keep the sweeps
        # and the first transforms of the process out of the peak
        band = 4096
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
            # jq and the scalar grid of div jq, real; its half spectrum gh,
            # and qh and chi_hat when accelerated, each half of ``half``; the
            # packed slots, real
            grids = 3 * grid // 2
            spectra = (3 if scheme.accelerated else 1) * half // 2
            loop = grids + spectra + packed_slots * packed
        # the flat int64 indices of the m inclusion pixels
        support = 8 * m
        # two complex band buffers hold at most _BAND_SIZE pixels each over
        # both threads; the sweeps free them before |js|^2 takes one float64
        # component of m pixels
        transient = max(band * (16 + 16), 8 * m if scheme.substituted else 0)
        peak = self._peak(pmap, scheme, sigma1, 6)
        assert peak <= loop + support + transient + self.SLACK
        # nothing accumulates per iteration; 16 KiB covers six more history records
        assert self._peak(pmap, scheme, sigma1, 12) <= peak + 16 * 1024


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


def _split_into(queue):
    queue.put(_split(1, divmod, (7, 2), (9, 4)))


class TestSplit:
    """Passes split across two threads give the bits of the unsplit passes."""

    def test_split_needs_the_threshold_and_two_cpus(self, monkeypatch):
        npix = spectral_ops._THREAD_PIXELS
        monkeypatch.setattr(spectral_ops, "_cpus", lambda: 2)
        assert _split(npix - 1, divmod, (7, 2), (9, 4)) is None
        assert _split(npix, divmod, (7, 2), (9, 4)) == ((3, 1), (2, 1))
        monkeypatch.setattr(spectral_ops, "_cpus", lambda: 1)
        assert _split(npix, divmod, (7, 2), (9, 4)) is None

    @pytest.mark.parametrize("raising", [0, 1])
    def test_split_raises_either_half(self, monkeypatch, raising):
        force_split(monkeypatch)
        done = []

        def half(i):
            if i == raising:
                raise ValueError(i)
            done.append(i)

        with pytest.raises(ValueError):
            _split(1, half, (0,), (1,))
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
        assert _split(1, divmod, (7, 2), (9, 4)) == ((3, 1), (2, 1))
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_split_into, args=(queue,))
        child.start()
        try:
            assert queue.get(timeout=30) == ((3, 1), (2, 1))
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

    @pytest.mark.parametrize("scratch", ["none", "data", "distinct"])
    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "2d"])
    @pytest.mark.parametrize("shape", [(16, 24), (16, 17), (15, 24), (15, 17)])
    def test_fft2_picks_the_real_transforms_by_dtype(
        self, monkeypatch, shape, stacked, split, scratch
    ):
        # even and odd ny and nx; a 2-D call never splits
        if split:
            force_split(monkeypatch)
        x = np.random.default_rng(41).standard_normal((2, *shape) if stacked else shape)
        h = _fft2(x)
        assert h.tobytes() == np.fft.rfftn(x, axes=(-2, -1)).tobytes()
        before = h.copy()
        buffer = {"none": None, "data": h, "distinct": np.empty_like(h)}[scratch]
        out = np.empty_like(x)
        # irfftn's two passes, through the scratch: irfftn's bits
        assert _fft2(h, out, inverse=True, scratch=buffer) is out
        assert out.tobytes() == np.fft.irfftn(before, s=shape, axes=(-2, -1)).tobytes()
        # the input is consumed only when it is the scratch
        if scratch != "data":
            assert np.array_equal(h, before)

    @pytest.mark.parametrize("scratch", ["data", "distinct"])
    def test_inverse_through_scratch_copies_nothing(self, scratch):
        # irfftn's own peak here is a copy of its input, 1.06 MB
        n = 256
        h = random_complex(np.random.default_rng(46), (2, n, n // 2 + 1))
        buffer = h if scratch == "data" else np.empty_like(h)
        out = np.empty((2, n, n))
        _fft2(h, out, inverse=True, scratch=buffer)
        tracemalloc.start()
        try:
            _fft2(h, out, inverse=True, scratch=buffer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    def test_half_spectrum_splits_on_the_grid(self, monkeypatch):
        # a 512 x 512 grid has 2^18 pixels per component, its half spectrum
        # 512 x 257 fewer: every pass must count the grid's
        monkeypatch.setattr(spectral_ops, "_cpus", lambda: 2)
        seen, splits = [], spectral_ops._splits
        monkeypatch.setattr(spectral_ops, "_splits", lambda npix: seen.append(npix) or splits(npix))
        x = np.random.default_rng(44).standard_normal((2, 512, 512))
        gh = _div_hat(x)
        _hat_sqnorm(gh, 512)
        _reflect_hat(gh, gh.copy(), _chi_hat(np.ones((512, 512))), np.zeros(2), 1.0, 512)
        _potential(_scale_hat(gh, 512, 1.0), np.empty((512, 512)))
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


class TestSlotMatrix:
    """The slot matrices the solvers use, checked without the full-grid wrappers."""

    SIGMA1 = [2.0, 0.7 + 0.4j, 0.0, 10.0]

    @staticmethod
    def _one_slot(on, off):
        x = random_complex(np.random.default_rng(17), (1, 2, 64))
        out = np.empty_like(x)
        _slot_sums(_slot_matrix((1.0,), on, off), x, out, None)
        return out, x

    @pytest.mark.parametrize("sigma1", SIGMA1)
    def test_one_slot_A_multiplies_by_sigma1(self, sigma1):
        out, x = self._one_slot(sigma1, 1.0)
        expected = sigma1 * x
        assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("sigma1", SIGMA1)
    def test_one_slot_shifted_inverse_divides_by_sigma1_plus_sigma0(self, sigma1):
        for sigma0 in ((sigma1 + 1.0) / 2.0, 0.3 + 0.1j):
            out, x = self._one_slot(*_shifted_inverse_coefs(sigma1, sigma0))
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
        stored = solvers._in_slots(np.outer(p, p), real)
        eps = np.finfo(float).eps
        assert np.max(np.abs(np.outer(p_out, p_in) - stored)) <= 4 * eps * np.max(np.abs(stored))
        assert abs(np.dot(p_in, p_out) - 1.0) <= 4 * eps

    @pytest.mark.parametrize("sigma1", SIGMA1)
    def test_mean_pin_is_column_zero_of_A(self, sigma1):
        pmap = build_square_array(16, 0.5)
        params = solve_p(BENCH)
        t = map_t(sigma1, BENCH)
        delta = np.array([0.3 - 0.2j, 1.1])
        q = np.broadcast_to(delta[:, None, None], (2, *pmap.chi.shape))
        zero = np.zeros_like(q)
        dense = _dense_A(q, zero, zero, t, params, pmap.chi)
        pin = _slot_matrix((params.p1, params.p2, params.p3), t, 1.0)[:, 0]
        for slot, got in zip(pin, dense):
            expected = slot * delta[:, None]
            assert np.max(np.abs(got[:, pmap.chi] - expected)) <= 1e-15 * np.max(np.abs(dense[0]))


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
