"""Kernels of the iteration: the two halves of gamma1 and the Parseval
residual, packed local operators and their slot matrices, and the
residual the solvers record."""

import numpy as np
import pytest

import fftcond.spectral_ops as spectral_ops
from fftcond import (
    AugmentedField,
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
    invert_shifted_A,
    map_t,
    solve,
    solve_p,
)
from fftcond.solvers import _apply_A_arrays
from fftcond.spectral_ops import (
    _apply_slots,
    _compensated_total,
    _gamma1_arr,
    _gamma1_inverse,
    _gamma1_sqnorm,
    _shifted_inverse_coefs,
    _slot_matrix,
)

BENCH = SpectralInterval(0.25, 4.0)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestGamma1Sqnorm:
    @pytest.mark.parametrize("shape", [(16, 16), (16, 24)])
    @pytest.mark.parametrize("scale", [1.0, 1.001])
    def test_matches_real_space_sum(self, monkeypatch, shape, scale):
        monkeypatch.setattr(spectral_ops, "_gamma1_scale", scale)
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = random_complex(rng, (2, *shape))
            direct = _compensated_total(np.abs(_gamma1_arr(x)) ** 2)
            assert _gamma1_sqnorm(x) == pytest.approx(direct, rel=1e-12)

    def test_work_buffer_receives_transform_only(self):
        rng = np.random.default_rng(12)
        x = random_complex(rng, (2, 16, 24))
        before = x.copy()
        work = np.empty_like(x)
        assert _gamma1_sqnorm(x, work) == _gamma1_sqnorm(x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("scale", [1.0, 1.001])
    def test_inverse_half_finishes_gamma1_from_work(self, monkeypatch, scale):
        # the basic update finishes gamma1(j) from the residual's transform
        monkeypatch.setattr(spectral_ops, "_gamma1_scale", scale)
        x = random_complex(np.random.default_rng(13), (2, 16, 24))
        work = np.empty_like(x)
        _gamma1_sqnorm(x, work)
        assert np.array_equal(_gamma1_inverse(work), _gamma1_arr(x))


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


class TestSlotMatrix:
    """The slot matrices the solvers use, checked without the full-grid wrappers."""

    SIGMA1 = [2.0, 0.7 + 0.4j, 0.0, 10.0]

    @staticmethod
    def _one_slot(on, off):
        x = random_complex(np.random.default_rng(17), (1, 2, 64))
        return _apply_slots(_slot_matrix((1.0,), on, off), x), x

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
        pmap = build_square_array(32, 0.5) if geometry == "square" else build_disk_array(32, 0.35)
        cfg = SolverConfig(scheme=SchemeKind.BASIC, sigma1=sigma1, tol=1e-300, max_iters=iters)
        r = solve(pmap, cfg)
        assert r.iterations == iters
        assert r.history.residuals()[-1] == equilibrium_residual(r.J_field)
