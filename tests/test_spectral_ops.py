"""Fourier projections and the augmented local operators."""

import cmath
import math
import threading

import numpy as np
import pytest

import fftcond.spectral_ops as spectral_ops
from fftcond import (
    AugmentedField,
    DegenerateParamError,
    SpectralInterval,
    SupportError,
    VectorField,
    apply_chi_aug,
    apply_local_A,
    build_square_array,
    equilibrium_residual,
    gamma0,
    gamma0_aug,
    gamma1,
    gamma1_aug,
    inner,
    inner_aug,
    invert_shifted_A,
    map_t,
    norm,
    norm_aug,
    solve_p,
)
from fftcond.spectral_ops import (
    _compensated_total,
    _gamma1_arr,
    _gamma1_sqnorm,
    _green_table,
    _half_angles,
    _spectral_table,
)

BENCH = SpectralInterval(0.25, 4.0)
N = 16


def random_field(rng, n=N):
    return VectorField(rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n)))


def random_aug(rng, pmap):
    n = pmap.ny

    def masked():
        d = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        return VectorField(np.where(pmap.chi, d, 0.0))

    return AugmentedField(random_field(rng, n), masked(), masked())


def aug_diff_norm(a, b, pmap):
    d = AugmentedField(
        VectorField(a.Q.data - b.Q.data),
        VectorField(a.S.data - b.S.data),
        VectorField(a.T.data - b.T.data),
    )
    return norm_aug(d, pmap)


@pytest.mark.parametrize("n", [8, 16, 64])
class TestGamma1:
    """gamma1 on the rotated table and on the spectral reference, on even
    grids of three sizes: an orthogonal projection onto zero-mean
    gradients, with its Parseval sum equal to the pixel sum."""

    def test_kills_constants(self, green, n):
        f = VectorField.constant([2.0 + 1j, -0.5], n, n)
        assert norm(gamma1(f)) < 1e-14

    def test_gradient_mode_is_fixed(self, green, n):
        x = (np.arange(n) + 0.5) / n
        data = np.zeros((2, n, n), dtype=complex)
        data[0] = 2 * np.pi * np.cos(2 * np.pi * x)[None, :]  # d/dx sin(2 pi x)
        f = VectorField(data)
        g = gamma1(f)
        assert norm(VectorField(g.data - f.data)) <= 1e-12 * norm(f)

    def test_divergence_free_mode_killed(self, green, n):
        y = (np.arange(n) + 0.5) / n
        data = np.zeros((2, n, n), dtype=complex)
        data[0] = np.cos(2 * np.pi * y)[:, None]  # x-component varying in y
        g = gamma1(VectorField(data))
        assert norm(g) <= 1e-12

    def test_idempotent(self, green, n):
        rng = np.random.default_rng(0)
        f = random_field(rng, n)
        g = gamma1(f)
        assert norm(VectorField(gamma1(g).data - g.data)) <= 1e-12 * norm(g)

    def test_self_adjoint(self, green, n):
        rng = np.random.default_rng(1)
        f, g = random_field(rng, n), random_field(rng, n)
        defect = abs(inner(gamma1(f), g) - inner(f, gamma1(g)))
        assert defect <= 1e-12 * norm(f) * norm(g)

    def test_zero_mean_output(self, green, n):
        rng = np.random.default_rng(2)
        g = gamma1(random_field(rng, n))
        assert float(np.linalg.norm(gamma0(g))) <= 1e-13

    def test_sqnorm_matches_pixel_sum(self, green, n):
        x = random_field(np.random.default_rng(100 + n), n).data
        direct = _compensated_total(np.abs(_gamma1_arr(x)) ** 2)
        assert _gamma1_sqnorm(x) == pytest.approx(direct, rel=1e-12)

    def test_checkerboard(self, green, n):
        # the rotated d vanishes at (pi, pi), so gamma1 drops that mode
        sign = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
        g = gamma1(VectorField(np.stack([sign, 0.5 * sign])))
        if green == "rotated":
            assert norm(g) <= 1e-15
        else:
            assert norm(g) > 0.1

    def test_table_zeros_are_exact(self, n):
        for table, zeros in (
            (_green_table, {(0, 0), (n // 2, n // 2)}),
            (_spectral_table, {(0, 0)}),
        ):
            inv_d2 = table(n, n).inv_d2
            assert inv_d2.shape == (n, n) and np.all(np.isfinite(inv_d2))
            assert set(zip(*np.nonzero(inv_d2 == 0))) == zeros

    def test_half_angles_vanish_exactly(self, n):
        # index n/2 of an FFT is m = -n/2, xi = -pi
        sin, cos = _half_angles(n)
        assert sin[0] == 0 and cos[n // 2] == 0 and sin[n // 2] == -1 and cos[0] == 1
        assert np.count_nonzero(sin) == n - 1 and np.count_nonzero(cos) == n - 1


def _willot_multiplier(ny, nx):
    """Willot's d (x) conj(d) / |d|^2 in complex arithmetic, 0 where d vanishes.

    d_x = a(xi_x) b(xi_y) and d_y = b(xi_x) a(xi_y), with a = e^{i xi} - 1
    and b = (e^{i xi} + 1)/2 = -a(xi -+ pi)/2, the sign taking xi -+ pi
    into [-pi, pi). Both go through expm1 of an angle formed from
    integers, so neither cancels near its zero and b(-pi) is exactly 0.
    """

    def factors(n):
        m = np.arange(n)
        m[m >= (n + 1) // 2] -= n
        a = np.expm1(1j * np.pi * (2 * m) / n)
        b = -np.expm1(1j * np.pi * (2 * m - np.where(m >= 0, n, -n)) / n) / 2
        return a, b

    (ax, bx), (ay, by) = factors(nx), factors(ny)
    d = np.broadcast_arrays(ax[None, :] * by[:, None], bx[None, :] * ay[:, None])
    d2 = np.abs(d[0]) ** 2 + np.abs(d[1]) ** 2
    inv = np.divide(1.0, d2, out=np.zeros_like(d2), where=d2 != 0)
    return np.array([[d[i] * np.conj(d[j]) * inv for j in range(2)] for i in range(2)])


def _table_multiplier(g):
    """The multiplier M[i, j] = d_i d_j / |d|^2 that a _Green table holds."""
    d = [g.d[c][0] * g.d[c][1] for c in range(2)]
    return np.array([[d[i] * d[j] * g.inv_d2 for j in range(2)] for i in range(2)])


@pytest.mark.parametrize("ny, nx", [(16, 16), (15, 15), (24, 40), (33, 48)])
def test_rotated_table_is_willots_multiplier(ny, nx):
    # the real d (x) d / |d|^2 of the half-angle factors is Willot's complex
    # d (x) conj(d) / |d|^2, whose phase cancels
    g = _green_table(ny, nx)
    assert all(f.dtype == np.float64 for f in (*g.d[0], *g.d[1]))
    M = _table_multiplier(g)
    assert np.max(np.abs(M - _willot_multiplier(ny, nx))) <= 1e-15
    if ny % 2 == 0 and nx % 2 == 0:
        # even in k, Nyquist lines included, and zero exactly at 0 and (pi, pi)
        flip = (-np.arange(ny))[:, None] % ny, (-np.arange(nx))[None, :] % nx
        assert np.array_equal(M[:, :, flip[0], flip[1]], M)
        zeros = np.nonzero(np.all(M == 0, axis=(0, 1)))
        assert set(zip(*zeros)) == {(0, 0), (ny // 2, nx // 2)}


def test_spectral_table_has_integer_wave_numbers():
    # np.fft.fftfreq(98, d=1/98) is not integer: 98 * (1/98) rounds below 1
    g = _spectral_table(98, 98)
    kx, ky = g.d[0][0].ravel(), g.d[1][0].ravel()
    expected = np.r_[0:49, -49:0]
    # stored real, as the rotated factors are
    for k in (kx, ky):
        assert k.dtype == np.float64 and np.array_equal(k, expected)


@pytest.mark.parametrize("ny, nx", [(16, 16), (15, 17), (24, 40), (33, 48), (1, 8)])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_stencil_gamma1_is_willots_multiplier(ny, nx, real):
    # gamma1 through the stencils and one scalar FFT pair, against the
    # multiplier built from Willot's complex d, applied by full FFTs
    rng = np.random.default_rng(6)
    f = rng.standard_normal((2, ny, nx))
    if not real:
        f = f + 1j * rng.standard_normal((2, ny, nx))
    fh = np.fft.fft2(f, axes=(-2, -1))
    expected = np.fft.ifft2(np.einsum("ijyx,jyx->iyx", _willot_multiplier(ny, nx), fh), axes=(-2, -1))
    assert np.max(np.abs(_gamma1_arr(f) - expected)) <= 1e-15 * np.max(np.abs(f))


def test_only_the_rotated_operator_keeps_real_fields_real(green):
    # the rotated multiplier is real and even, M(-k) = M(k), Nyquist lines
    # included, so a real-to-complex transform carries it; the spectral one
    # breaks the symmetry on the Nyquist lines
    data = np.random.default_rng(5).standard_normal((2, 16, 16))
    imag = np.max(np.abs(_gamma1_arr(data).imag))
    if green == "rotated":
        assert imag <= 1e-15
    else:
        assert imag > 0.1


def test_tables_are_cached_and_read_only():
    for table in (_green_table, _spectral_table):
        g = table(16, 24)
        assert table(16, 24) is g
        assert not g.inv_d2.flags.writeable


@pytest.mark.parametrize("split", [False, True])
def test_sweeps_restore_the_ufunc_buffer_size(monkeypatch, split):
    # the sweeps run with their own numpy buffer size, on both threads
    if split:
        monkeypatch.setattr(spectral_ops, "_THREAD_PIXELS", 1)
        monkeypatch.setattr(spectral_ops, "_cpus", lambda: 2)
    # bands of one row, so that each thread of a split sweeps some
    monkeypatch.setattr(spectral_ops, "_BAND_SIZE", 2 * N)
    seen = set()

    def band_fn(band):
        seen.add((threading.get_ident(), np.getbufsize()))

    old = np.setbufsize(4096)
    try:
        spectral_ops._sweep(band_fn, N, N)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)
    assert {size for _, size in seen} == {spectral_ops._UFUNC_BUFSIZE}
    assert len(seen) == (2 if split else 1)


class TestGamma0:
    def test_constant(self):
        c = np.array([1.5, -2j])
        assert np.allclose(gamma0(VectorField.constant(c, N, N)), c)

    def test_single_mode_sinusoid(self):
        x = (np.arange(N) + 0.5) / N
        data = np.zeros((2, N, N), dtype=complex)
        data[1] = np.sin(2 * np.pi * x)[None, :]
        assert float(np.linalg.norm(gamma0(VectorField(data)))) < 1e-14


class TestGamma1Aug:
    def setup_method(self):
        self.pmap = build_square_array(N, 0.5)
        self.rng = np.random.default_rng(3)

    def test_constant_q_killed(self):
        F = AugmentedField.from_mean([1.0, 0.0], N, N)
        out = gamma1_aug(F, self.pmap)
        assert norm_aug(out, self.pmap) < 1e-14

    def test_s_passes_through_t_zeroed(self):
        F = random_aug(self.rng, self.pmap)
        out = gamma1_aug(F, self.pmap)
        assert np.array_equal(out.S.data, F.S.data)
        assert not out.T.data.any()

    def test_idempotent(self):
        F = random_aug(self.rng, self.pmap)
        once = gamma1_aug(F, self.pmap)
        twice = gamma1_aug(once, self.pmap)
        assert aug_diff_norm(twice, once, self.pmap) <= 1e-12 * norm_aug(once, self.pmap)

    def test_support_violation_rejected(self):
        bad = AugmentedField(
            VectorField.zeros(N, N),
            VectorField.constant([1.0, 0.0], N, N),  # nonzero off the inclusion
            VectorField.zeros(N, N),
        )
        with pytest.raises(SupportError):
            gamma1_aug(bad, self.pmap)

    def test_subspace_orthogonality(self):
        # gradient-type, flux-type and constant parts are mutually orthogonal
        F = random_aug(self.rng, self.pmap)
        e_part = gamma1_aug(F, self.pmap)
        mean_q = gamma0_aug(F)
        j_part = AugmentedField(
            VectorField(F.Q.data - mean_q[:, None, None] - gamma1(F.Q).data),
            VectorField.zeros(N, N),
            F.T.copy(),
        )
        u_part = AugmentedField(
            VectorField.constant(mean_q, N, N),
            VectorField.zeros(N, N),
            VectorField.zeros(N, N),
        )
        def cosine(a, b):
            return abs(inner_aug(a, b, self.pmap)) / (
                norm_aug(a, self.pmap) * norm_aug(b, self.pmap)
            )
        assert cosine(e_part, j_part) <= 1e-12
        assert cosine(e_part, u_part) <= 1e-12
        assert cosine(u_part, j_part) <= 1e-12


class TestChiAug:
    def setup_method(self):
        self.pmap = build_square_array(N, 0.5)
        self.params = solve_p(BENCH)
        self.rng = np.random.default_rng(4)

    def test_p_triple_is_eigenvector(self):
        p = self.params
        c = np.array([1.0 - 0.5j, 0.25])
        F = AugmentedField(
            VectorField(np.where(self.pmap.chi, p.p1 * c[:, None, None], 0.0)),
            VectorField(np.where(self.pmap.chi, p.p2 * c[:, None, None], 0.0)),
            VectorField(np.where(self.pmap.chi, p.p3 * c[:, None, None], 0.0)),
        )
        out = apply_chi_aug(F, self.params, self.pmap)
        assert aug_diff_norm(out, F, self.pmap) <= 1e-12 * norm_aug(F, self.pmap)

    def test_phase2_killed(self):
        F = random_aug(self.rng, self.pmap)
        out = apply_chi_aug(F, self.params, self.pmap)
        outside = ~self.pmap.chi
        assert not out.Q.data[:, outside].any()
        assert not out.S.data[:, outside].any()

    def test_idempotent(self):
        F = random_aug(self.rng, self.pmap)
        once = apply_chi_aug(F, self.params, self.pmap)
        twice = apply_chi_aug(once, self.params, self.pmap)
        assert aug_diff_norm(twice, once, self.pmap) <= 1e-12 * norm_aug(once, self.pmap)

    def test_not_self_adjoint(self):
        # complex p makes the slot mixer non-Hermitian; a generic pair shows it
        F = random_aug(self.rng, self.pmap)
        G = random_aug(self.rng, self.pmap)
        lhs = inner_aug(apply_chi_aug(F, self.params, self.pmap), G, self.pmap)
        rhs = inner_aug(F, apply_chi_aug(G, self.params, self.pmap), self.pmap)
        scale = norm_aug(F, self.pmap) * norm_aug(G, self.pmap)
        assert abs(lhs - rhs) > 1e-3 * scale


class TestLocalA:
    def setup_method(self):
        self.pmap = build_square_array(N, 0.5)
        self.params = solve_p(BENCH)
        self.rng = np.random.default_rng(5)

    def test_identity_at_t_one(self):
        F = random_aug(self.rng, self.pmap)
        out = apply_local_A(F, 1.0, self.params, self.pmap)
        assert aug_diff_norm(out, F, self.pmap) <= 1e-14 * norm_aug(F, self.pmap)

    def test_p_triple_scaled_by_t(self):
        p = self.params
        t = map_t(2.0, BENCH)
        c = np.array([0.3, -1.2 + 0.4j])
        parts = []
        for pp in (p.p1, p.p2, p.p3):
            parts.append(VectorField(np.where(self.pmap.chi, pp * c[:, None, None], 0.0)))
        F = AugmentedField(*parts)
        out = apply_local_A(F, t, self.params, self.pmap)
        expected = AugmentedField(
            VectorField(t * F.Q.data), VectorField(t * F.S.data), VectorField(t * F.T.data)
        )
        assert aug_diff_norm(out, expected, self.pmap) <= 1e-12 * norm_aug(F, self.pmap)

    def test_phase2_unchanged(self):
        F = random_aug(self.rng, self.pmap)
        out = apply_local_A(F, map_t(3.0, BENCH), self.params, self.pmap)
        outside = ~self.pmap.chi
        assert np.array_equal(out.Q.data[:, outside], F.Q.data[:, outside])


class TestInvertShiftedA:
    def setup_method(self):
        self.pmap = build_square_array(N, 0.5)
        self.params = solve_p(BENCH)
        self.rng = np.random.default_rng(6)

    def test_t_one_uniform_scaling(self):
        F = random_aug(self.rng, self.pmap)
        s0 = 0.5 + 0.25j
        out = invert_shifted_A(F, 1.0, s0, self.params, self.pmap)
        assert np.allclose(out.Q.data, F.Q.data / (1 + s0))

    def test_p_triple_divided_by_shifted_eigenvalue(self):
        p = self.params
        t = map_t(2.0, BENCH)
        s0 = 0.4
        c = np.array([1.0, 0.5j])
        F = AugmentedField(*[
            VectorField(np.where(self.pmap.chi, pp * c[:, None, None], 0.0))
            for pp in (p.p1, p.p2, p.p3)
        ])
        out = invert_shifted_A(F, t, s0, self.params, self.pmap)
        expected = AugmentedField(
            VectorField(F.Q.data / (t + s0)),
            VectorField(F.S.data / (t + s0)),
            VectorField(F.T.data / (t + s0)),
        )
        assert aug_diff_norm(out, expected, self.pmap) <= 1e-12 * norm_aug(F, self.pmap)

    def test_round_trip(self):
        F = random_aug(self.rng, self.pmap)
        t = map_t(0.0, BENCH)
        s0 = complex(np.sqrt(t))
        inv = invert_shifted_A(F, t, s0, self.params, self.pmap)
        back = apply_local_A(inv, t, self.params, self.pmap)
        recon = AugmentedField(
            VectorField(back.Q.data + s0 * inv.Q.data),
            VectorField(back.S.data + s0 * inv.S.data),
            VectorField(back.T.data + s0 * inv.T.data),
        )
        assert aug_diff_norm(recon, F, self.pmap) <= 1e-12 * norm_aug(F, self.pmap)

    def test_singular_shifts_rejected(self):
        F = random_aug(self.rng, self.pmap)
        with pytest.raises(DegenerateParamError):
            invert_shifted_A(F, 2.0, -1.0, self.params, self.pmap)
        with pytest.raises(DegenerateParamError):
            invert_shifted_A(F, 2.0, -2.0, self.params, self.pmap)


class TestPixelLocality:
    def test_operators_commute_with_site_permutations(self):
        rng = np.random.default_rng(7)
        pmap = build_square_array(8, 0.5)
        params = solve_p(BENCH)
        t = map_t(0.5, BENCH)
        F = random_aug(rng, pmap)
        perm = rng.permutation(64)

        def permute_arr(a):
            flat = a.reshape(2, -1)[:, perm]
            return flat.reshape(2, 8, 8)

        def permute_aug(G):
            return AugmentedField(
                VectorField(permute_arr(G.Q.data)),
                VectorField(permute_arr(G.S.data)),
                VectorField(permute_arr(G.T.data)),
            )

        from fftcond.geometry import PhaseMap

        chi_perm = pmap.chi.reshape(-1)[perm].reshape(8, 8)
        # permuted chi may have odd-shaped content; build map directly
        pmap_perm = PhaseMap(chi_perm)

        for op in (
            lambda G, pm: apply_chi_aug(G, params, pm),
            lambda G, pm: apply_local_A(G, t, params, pm),
            lambda G, pm: invert_shifted_A(G, t, 0.3 + 0.1j, params, pm),
        ):
            direct = permute_aug(op(F, pmap))
            permuted = op(permute_aug(F), pmap_perm)
            assert aug_diff_norm(direct, permuted, pmap_perm) <= 1e-13 * norm_aug(F, pmap)


class TestDeterminism:
    def test_gamma1_bitwise_repeatable(self):
        rng = np.random.default_rng(8)
        f = random_field(rng)
        a = gamma1(f).data
        b = gamma1(VectorField(f.data.copy())).data
        assert np.array_equal(a, b)


class TestReductionOverflow:
    def test_finite_data_whose_total_overflows(self):
        # every row sum is finite, but the total is not: fsum would raise
        pmap = build_square_array(4, 0.5)
        big = VectorField(np.full((2, 4, 4), 5e153 + 0j))
        aug = AugmentedField(big, *2 * (VectorField(np.where(pmap.chi, big.data, 0.0)),))
        huge = VectorField(np.full((2, 4, 4), 3e307 + 0j))
        with np.errstate(over="ignore", invalid="ignore"):
            values = [
                norm(big),
                inner(big, big),
                norm_aug(aug, pmap),
                inner_aug(aug, aug, pmap),
                *huge.mean(),
                equilibrium_residual(huge),
            ]
        assert not any(cmath.isfinite(v) for v in values)
        # every imaginary product is 0: the complex totals divide their parts
        # apart, so an infinite real part leaves the imaginary part 0, not nan
        for v in (values[1], values[3], *values[4:6]):
            assert v.real == math.inf and v.imag == 0

    def test_opposite_infinities(self):
        data = np.zeros((2, 4, 4), dtype=complex)
        data[0, 0, 0], data[0, 3, 3] = np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            assert np.isnan(VectorField(data).mean()[0].real)
