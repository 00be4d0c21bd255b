"""Exact reference formula, predicted rates, contour grids, mis-estimation."""

import math

import numpy as np
import pytest

from fftcond import (
    IntervalError,
    PoleError,
    SchemeKind,
    SolverConfig,
    SpectralInterval,
    build_square_array,
    misestimation_report,
    obnosov,
    obnosov_on_branch_cut,
    predicted_rate,
    rate_contours,
)

BENCH = SpectralInterval(0.25, 4.0)
TRUE_CUT = SpectralInterval(1 / 3, 3.0)


class TestObnosov:
    def test_contrast_free(self):
        assert obnosov(1.0) == pytest.approx(1.0)

    def test_insulating(self):
        assert obnosov(0.0) == pytest.approx(1 / math.sqrt(3), rel=1e-12)

    def test_conductivity_two(self):
        assert obnosov(2.0) == pytest.approx(math.sqrt(7 / 5), rel=1e-12)

    def test_imaginary_argument(self):
        assert obnosov(1j) == pytest.approx((2 + 1j) / math.sqrt(5), rel=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            obnosov(-3.0)

    def test_phase_interchange_duality(self):
        for s in (0.1, 0.5, 2.0, 7.0, 123.0):
            assert obnosov(s) * obnosov(1.0 / s) == pytest.approx(1.0, rel=1e-12)

    def test_branch_flag(self):
        assert obnosov_on_branch_cut(-1.0)
        assert obnosov_on_branch_cut(-0.5)
        assert not obnosov_on_branch_cut(0.0)
        assert not obnosov_on_branch_cut(-0.5 + 0.1j)


class TestPredictedRate:
    def test_benchmark_em_sub(self):
        assert predicted_rate(SchemeKind.EYRE_MILTON_SUB, 0.0, BENCH) == pytest.approx(1 / 3)

    def test_contrast_free_basic(self):
        assert predicted_rate(SchemeKind.BASIC, 1.0) == pytest.approx(0.0)

    def test_marginal_basic_at_insulating(self):
        assert predicted_rate(SchemeKind.BASIC, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("sigma1", [2.0, 5.0, 10.0, 100.0])
    def test_substitution_beats_plain_acceleration(self, sigma1):
        assert predicted_rate(
            SchemeKind.EYRE_MILTON_SUB, sigma1, BENCH
        ) <= predicted_rate(SchemeKind.EYRE_MILTON, sigma1)

    @pytest.mark.parametrize("sigma1", [2.0, 5.0, 10.0])
    def test_monotone_in_interval(self, sigma1):
        # larger alpha, faster; smaller beta, faster
        lo_a = predicted_rate(SchemeKind.EYRE_MILTON_SUB, sigma1, SpectralInterval(0.05, 4.0))
        hi_a = predicted_rate(SchemeKind.EYRE_MILTON_SUB, sigma1, SpectralInterval(0.25, 4.0))
        assert hi_a < lo_a
        hi_b = predicted_rate(SchemeKind.EYRE_MILTON_SUB, sigma1, SpectralInterval(0.25, 10.0))
        lo_b = predicted_rate(SchemeKind.EYRE_MILTON_SUB, sigma1, SpectralInterval(0.25, 4.0))
        assert lo_b < hi_b

    def test_strictly_decreasing_along_alpha_and_beta_grids(self):
        for sigma1 in (2.0, 5.0, 10.0):
            rates = [
                predicted_rate(SchemeKind.EYRE_MILTON_SUB, sigma1, SpectralInterval(a, 4.0))
                for a in np.linspace(0.05, 1.0, 8)
            ]
            assert all(x > y for x, y in zip(rates, rates[1:]))
            rates = [
                predicted_rate(SchemeKind.EYRE_MILTON_SUB, sigma1, SpectralInterval(0.25, b))
                for b in np.linspace(10.0, 2.0, 8)
            ]
            assert all(x > y for x, y in zip(rates, rates[1:]))


class TestRateContours:
    def test_unit_conductivity_node_is_zero(self):
        grid = rate_contours(SchemeKind.BASIC, None, (0.0, 2.0, -1.0, 1.0), (3, 3))
        # node (re=1, im=0) sits at index [1, 1]
        assert grid.values[1, 1] == pytest.approx(0.0)

    def test_em_sub_right_half_plane_inside_disk(self):
        grid = rate_contours(
            SchemeKind.EYRE_MILTON_SUB, BENCH, (0.01, 4.0, -2.0, 2.0), (21, 21)
        )
        assert not grid.flags.any()
        assert (grid.values < 1.0).all()

    def test_basic_outside_half_plane(self):
        grid = rate_contours(SchemeKind.BASIC, None, (-0.5, -0.5, 0.0, 0.0), (1, 1))
        assert grid.values[0, 0] == pytest.approx(3.0)

    def test_flagged_samples_on_cut(self):
        grid = rate_contours(SchemeKind.EYRE_MILTON, None, (-2.0, 2.0, 0.0, 0.0), (5, 1))
        # negative-real nodes (-2, -1) and 0 are on the closed cut
        assert grid.flags[0, 0] and grid.flags[0, 1] and grid.flags[0, 2]
        assert not grid.flags[0, 3] and not grid.flags[0, 4]
        assert np.isinf(grid.values[0, 0])

    def test_matches_scalar_rate_pointwise(self):
        grid = rate_contours(SchemeKind.EYRE_MILTON_SUB, BENCH, (0.5, 3.0, -1.0, 1.0), (4, 3))
        for re, im, value, flagged in grid.iter_samples():
            assert not flagged
            assert value == predicted_rate(SchemeKind.EYRE_MILTON_SUB, complex(re, im), BENCH)

    def test_substituted_scheme_needs_an_interval(self):
        # map_z's own check, at the first sample
        with pytest.raises(IntervalError, match="em_sub requires an interval"):
            rate_contours(SchemeKind.EYRE_MILTON_SUB, None, (0.5, 3.0, -1.0, 1.0), (2, 2))

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            rate_contours(SchemeKind.BASIC, None, (0.0, 1.0, 0.0, 1.0), (0, 3))

    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", range(4))
    def test_non_finite_window_rejected(self, index, bound):
        window = [0.0, 1.0, 0.0, 1.0]
        window[index] = bound
        with pytest.raises(ValueError, match="finite"):
            rate_contours(SchemeKind.BASIC, None, tuple(window), (3, 3))


class TestMisestimation:
    def setup_method(self):
        self.pmap = build_square_array(64, 0.5)

    def test_widened_estimate_still_converges_at_insulating_point(self):
        # pre-floor tolerance: the insulating point leaves a residual floor
        # near 1e-3 (see README), so stop above it
        cfg = SolverConfig(
            scheme=SchemeKind.EYRE_MILTON_SUB,
            sigma1=0.0,
            interval=BENCH,
            tol=5e-3,
            max_iters=200,
        )
        report = misestimation_report(self.pmap, 0.0, TRUE_CUT, BENCH, cfg, rate_window=3)
        assert report.true_run.status.value == "Converged"
        assert report.assumed_run.status.value == "Converged"

    def test_overestimated_alpha_converges_slower(self):
        # slightly conductive inclusion: deep tolerances are reachable and the
        # asymptotic rates are measurable over the final window
        cfg = SolverConfig(
            scheme=SchemeKind.EYRE_MILTON_SUB,
            sigma1=0.2,
            interval=BENCH,
            tol=1e-8,
            max_iters=400,
        )
        report = misestimation_report(
            self.pmap, 0.2, BENCH, SpectralInterval(0.6, 4.0), cfg, rate_window=10
        )
        assert report.true_run.status.value == "Converged"
        assert report.assumed_run.status.value == "Converged"
        assert report.assumed_run.estimated_rate is not None
        assert report.assumed_run.estimated_rate > report.true_run.estimated_rate
        assert report.assumed_run.iterations > report.true_run.iterations
        assert report.rate_penalty > 0

    def test_contrast_free_is_immediate_for_both(self):
        cfg = SolverConfig(
            scheme=SchemeKind.EYRE_MILTON_SUB,
            sigma1=1.0,
            interval=BENCH,
            tol=1e-10,
            max_iters=50,
        )
        report = misestimation_report(self.pmap, 1.0, BENCH, BENCH, cfg)
        assert report.true_run.iterations == 1
        assert report.assumed_run.iterations == 1
