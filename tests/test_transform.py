"""Scalar maps, parameter solve, auxiliary constants, resistor oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fftcond import (
    BranchCutError,
    DegenerateParamError,
    IntervalError,
    PoleError,
    SchemeKind,
    SpectralInterval,
    SubstitutionParams,
    aux_constants,
    compound_resistance,
    inverse_map_t,
    map_t,
    map_z,
    resistor_substitution_map,
    solve_p,
    verify_sigma1,
)

BENCH = SpectralInterval(0.25, 4.0)

# healthy gap beta - alpha >= 0.5: the maps stay well conditioned, so the
# 1e-12 identity tolerances are meaningful rather than conditioning noise
intervals = st.tuples(
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=0.5, max_value=50.0),
).map(lambda ab: SpectralInterval(ab[0], ab[0] + ab[1]))

sigmas = st.tuples(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
).map(lambda p: complex(*p))


class TestSpectralInterval:
    def test_validation(self):
        with pytest.raises(IntervalError):
            SpectralInterval(2.0, 1.0)
        with pytest.raises(IntervalError):
            SpectralInterval(0.0, 1.0)
        with pytest.raises(IntervalError):
            SpectralInterval(1.0, math.inf)


class TestMapT:
    def test_fixes_unity(self):
        assert map_t(1.0, BENCH) == pytest.approx(1.0)
        assert map_t(1.0, SpectralInterval(0.1, 7.0)) == pytest.approx(1.0)

    def test_insulating_benchmark_value(self):
        assert map_t(0.0, BENCH) == pytest.approx(0.25)

    def test_zero_at_minus_alpha(self):
        assert map_t(-0.25, BENCH) == pytest.approx(0.0)

    def test_pole(self):
        with pytest.raises(PoleError):
            map_t(-4.0, BENCH)

    def test_monotone_in_alpha_and_beta(self):
        # decreasing in alpha at fixed beta, increasing in beta at fixed alpha
        for sigma1 in (1.5, 2.0, 5.0, 50.0):
            alphas = np.linspace(0.05, 3.9, 12)
            ts = [map_t(sigma1, SpectralInterval(a, 4.0)).real for a in alphas]
            assert all(x > y for x, y in zip(ts, ts[1:]))
            betas = np.linspace(0.3, 20.0, 12)
            ts = [map_t(sigma1, SpectralInterval(0.25, b)).real for b in betas]
            assert all(x < y for x, y in zip(ts, ts[1:]))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(intervals, sigmas, sigmas, sigmas, sigmas)
    def test_preserves_cross_ratio(self, interval, a, b, c, d):
        pts = [a, b, c, d]
        for i in range(4):
            for k in range(i + 1, 4):
                assume(abs(pts[i] - pts[k]) > 0.1)
            assume(abs(pts[i] + interval.beta) > 0.1)

        def cross(z):
            return ((z[0] - z[2]) * (z[1] - z[3])) / ((z[0] - z[3]) * (z[1] - z[2]))

        assume(abs((a - d) * (b - c)) > 1e-3)
        before = cross(pts)
        after = cross([map_t(z, interval) for z in pts])
        assert abs(after - before) <= 1e-10 * max(1.0, abs(before))


class TestInverseMapT:
    def test_fixed_point(self):
        assert inverse_map_t(1.0, BENCH) == pytest.approx(1.0)

    def test_benchmark_value(self):
        assert inverse_map_t(0.25, BENCH) == pytest.approx(0.0, abs=1e-14)

    def test_zero_maps_back_to_minus_alpha(self):
        assert inverse_map_t(0.0, BENCH) == pytest.approx(-0.25)

    def test_pole_at_image_of_infinity(self):
        with pytest.raises(PoleError):
            inverse_map_t((1 + 4.0) / (1 + 0.25), BENCH)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(intervals, sigmas)
    def test_round_trip(self, interval, sigma1):
        assume(abs(sigma1 + interval.beta) > 1e-2)
        t = map_t(sigma1, interval)
        assume(abs(t * (1 + interval.alpha) - (1 + interval.beta)) > 1e-6)
        back = inverse_map_t(t, interval)
        assert abs(back - sigma1) <= 1e-12 * max(1.0, abs(sigma1))


class TestMapZ:
    def test_basic(self):
        assert map_z(SchemeKind.BASIC, 3.0) == pytest.approx(0.5)

    def test_em_square_root(self):
        assert map_z(SchemeKind.EYRE_MILTON, 9.0) == pytest.approx(0.5)

    def test_em_sub_benchmark(self):
        assert map_z(SchemeKind.EYRE_MILTON_SUB, 0.0, BENCH) == pytest.approx(-1 / 3)

    def test_basic_sub_benchmark(self):
        assert map_z(SchemeKind.BASIC_SUB, 0.0, BENCH) == pytest.approx(-0.6)

    def test_branch_cut_errors(self):
        with pytest.raises(BranchCutError):
            map_z(SchemeKind.EYRE_MILTON, 0.0)
        with pytest.raises(BranchCutError):
            map_z(SchemeKind.EYRE_MILTON, -2.0)
        with pytest.raises(BranchCutError):
            map_z(SchemeKind.EYRE_MILTON_SUB, -1.0, BENCH)  # t = -1 < 0

    def test_basic_pole(self):
        with pytest.raises(PoleError):
            map_z(SchemeKind.BASIC, -1.0)

    def test_sub_needs_interval(self):
        with pytest.raises(IntervalError):
            map_z(SchemeKind.BASIC_SUB, 2.0)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        intervals,
        st.tuples(
            st.floats(min_value=1e-3, max_value=20.0),
            st.floats(min_value=-20.0, max_value=20.0),
        ).map(lambda p: complex(*p)),
    )
    def test_em_sub_contracts_right_half_plane(self, interval, sigma1):
        assert abs(map_z(SchemeKind.EYRE_MILTON_SUB, sigma1, interval)) < 1.0


class TestSolveP:
    def test_benchmark_squares(self):
        p = solve_p(BENCH)
        assert p.p1 ** 2 == pytest.approx(5 / 3, rel=1e-12)
        assert p.p2 ** 2 == pytest.approx(-1 / 3, rel=1e-12)
        assert p.p3 ** 2 == pytest.approx(-1 / 3, rel=1e-12)

    def test_branch_choice(self):
        p = solve_p(BENCH)
        assert p.p1.real > 0 and p.p1.imag == 0
        assert p.p2.imag > 0 and p.p3.imag > 0

    def test_normalization(self):
        p = solve_p(SpectralInterval(0.01, 99.0))
        assert abs(p.p1 ** 2 + p.p2 ** 2 + p.p3 ** 2 - 1.0) < 1e-12

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(intervals)
    def test_interval_recovery(self, interval):
        p = solve_p(interval)
        a = -1.0 - p.p1 ** 2 / (p.p2 ** 2 - 1.0)
        b = -1.0 - p.p1 ** 2 / p.p2 ** 2
        assert abs(a - interval.alpha) <= 1e-12 * max(1.0, interval.alpha)
        assert abs(b - interval.beta) <= 1e-12 * max(1.0, interval.beta)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(intervals)
    def test_p3_branch(self, interval):
        p = solve_p(interval)
        assert p.p3.imag >= 0
        SubstitutionParams(interval, p.p1, p.p2, p.p3)

    @pytest.mark.parametrize("alpha, beta", [(1e-300, 1.0), (1e-12, 4.0)], ids=["p3_zero", "p3_tiny"])
    def test_p3_branch_at_extreme_intervals(self, alpha, beta):
        # p3^2 = -alpha (1 + beta) / (beta - alpha), formed as 1 - p1^2 - p2^2,
        # cancels to 0.0 at the first interval and to within ulps of 1 at the second
        interval = SpectralInterval(alpha, beta)
        p = solve_p(interval)
        assert p.p3.imag >= 0 and p.p3.real == 0
        assert abs(p.p3 - 1j * math.sqrt(alpha * (1 + beta) / (beta - alpha))) <= 1e-9
        SubstitutionParams(interval, p.p1, p.p2, p.p3)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            SubstitutionParams(BENCH, p1=1.0, p2=1.0, p3=1.0)

    @pytest.mark.parametrize("p1, p2, p3", [(1, 0, 0), (0, 1, 0), (0, -1, 0)])
    def test_p2_without_interval_rejected(self, p1, p2, p3):
        with pytest.raises(ValueError, match="p2"):
            SubstitutionParams(BENCH, p1=p1, p2=p2, p3=p3)


class TestAuxConstants:
    def test_homogeneous_point(self):
        e2p, j3p = aux_constants(1.0, solve_p(BENCH))
        assert e2p == 0 and j3p == 0

    def test_benchmark_values(self):
        e2p, j3p = aux_constants(0.25, solve_p(BENCH))
        assert e2p == pytest.approx(1j / math.sqrt(5), rel=1e-12)
        assert j3p == pytest.approx(-1j / math.sqrt(5), rel=1e-12)

    def test_degenerate_denominator(self):
        # (t-1) p2^2 + 1 = 0 at t = 1 + (beta-alpha)/(1+alpha) = 4 for (1/4, 4)
        with pytest.raises(DegenerateParamError):
            aux_constants(4.0, solve_p(BENCH))


class TestVerifySigma1:
    def test_homogeneous_point(self):
        assert verify_sigma1(1.0, solve_p(BENCH)) == pytest.approx(1.0)

    def test_benchmark_point(self):
        assert verify_sigma1(0.25, solve_p(BENCH)) == pytest.approx(0.0, abs=1e-14)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(intervals, sigmas)
    def test_matches_fractional_linear_inverse(self, interval, sigma1):
        assume(abs(sigma1 + interval.beta) > 1e-2)
        t = map_t(sigma1, interval)
        params = solve_p(interval)
        assume(abs((t - 1.0) * params.p2 ** 2 + 1.0) > 1e-6)
        lhs = verify_sigma1(t, params)
        rhs = inverse_map_t(t, interval)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestFieldEquationRows:
    def test_rows_vanish_on_random_draws(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(500):
            a = rng.uniform(0.01, 50.0)
            b = a + rng.uniform(0.5, 50.0)
            interval = SpectralInterval(a, b)
            s = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(s + b) < 0.1:
                continue
            t = map_t(s, interval)
            params = solve_p(interval)
            if abs((t - 1) * params.p2 ** 2 + 1) < 1e-3:
                continue
            e2p, j3p = aux_constants(t, params)
            p1, p2, p3 = params.p1, params.p2, params.p3
            row1 = (t - 1) * (p1 ** 2 + p1 * p2 * e2p) + 1.0 - verify_sigma1(t, params)
            row2 = (t - 1) * (p1 * p2 + p2 ** 2 * e2p) + e2p
            row3 = (t - 1) * (p1 * p3 + p2 * p3 * e2p) - j3p
            scale = max(1.0, abs(e2p), abs(j3p), abs(s))
            worst = max(worst, abs(row1) / scale, abs(row2) / scale, abs(row3) / scale)
        assert worst <= 1e-12


class TestResistorOracle:
    def test_unit_compound(self):
        assert compound_resistance(1.0, 1.0, 1, 1, 1) == pytest.approx(1.5)

    def test_series_limb_limit(self):
        assert compound_resistance(1e12, 1.0, 1, 1, 1) == pytest.approx(2.0, rel=1e-9)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            compound_resistance(1.0, 1.0, 0, 1, 1)
        with pytest.raises(ValueError):
            resistor_substitution_map(1.0, 1, -1, 1)

    def test_unit_weights_map(self):
        assert resistor_substitution_map(0.0, 1, 1, 1) == pytest.approx(0.5)
        assert resistor_substitution_map(1.0, 1, 1, 1) == pytest.approx(2 / 3)
        assert resistor_substitution_map(1e9, 1, 1, 1) == pytest.approx(1.0, rel=1e-8)

    def test_positive_axis_stays_positive(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(0.0, 1e6, size=1000)
        for s in samples:
            v = resistor_substitution_map(s, 2.0, 0.5, 3.0, 1.0)
            assert v.imag == 0.0 and v.real > 0.0
