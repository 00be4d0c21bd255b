"""Solver contracts: fixed points, extraction, recovery, rates, stopping."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fftcond import (
    AugmentedField,
    BranchCutError,
    ContractError,
    DegenerateParamError,
    IntervalError,
    PhaseMap,
    PoleError,
    SchemeKind,
    SolverConfig,
    SpectralInterval,
    TerminationStatus,
    VectorField,
    apply_chi_aug,
    apply_local_A,
    aux_constants,
    build_disk_array,
    build_square_array,
    build_uniform,
    equilibrium_residual,
    equilibrium_residual_aug,
    estimate_rate,
    extract_sigma_star,
    extract_sigma_star_aug,
    gamma1_aug,
    inner_aug,
    invert_shifted_A,
    map_t,
    norm,
    norm_aug,
    obnosov,
    predicted_rate,
    recover_physical_fields,
    solve,
    solve_p,
)
from fftcond.solvers import DIVERGENCE_FACTOR, ConvergenceHistory, _tail_rate

BENCH = SpectralInterval(0.25, 4.0)


def cfg_for(scheme, sigma1, **kw):
    kw.setdefault("interval", BENCH if scheme.substituted else None)
    return SolverConfig(scheme=scheme, sigma1=sigma1, **kw)


def laminate(normal_to_x: bool, n: int = 8) -> PhaseMap:
    chi = np.zeros((n, n), dtype=bool)
    if normal_to_x:
        chi[:, ::2] = True  # 1-pixel strips varying along x
    else:
        chi[::2, :] = True  # strips varying along y, parallel to x-field
    return PhaseMap(chi)


class TestIndependentLinearOracle:
    def test_fixed_point_matches_direct_dense_solve(self):
        # assemble gamma1 sigma gamma1 as a dense matrix and solve the
        # equilibrium system directly, bypassing all fixed-point machinery
        from fftcond.spectral_ops import _gamma1_arr

        n = 8
        pm = build_square_array(n, 0.5)
        sigma1 = 2.0
        sigma = np.where(pm.chi, sigma1, 1.0).astype(complex)
        dim = 2 * n * n
        M = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            unit = np.zeros(dim, dtype=complex)
            unit[i] = 1.0
            M[:, i] = _gamma1_arr(sigma * _gamma1_arr(unit.reshape(2, n, n))).ravel()
        e0 = np.zeros((2, n, n), dtype=complex)
        e0[0] = 1.0
        b = -_gamma1_arr(sigma * e0).ravel()
        x, *_ = np.linalg.lstsq(M, b, rcond=None)
        e = e0 + _gamma1_arr(x.reshape(2, n, n))
        sigma_star_direct = (sigma * e).mean(axis=(1, 2))[0]

        r = solve(pm, cfg_for(SchemeKind.BASIC, sigma1, tol=1e-13, max_iters=2000))
        assert abs(r.sigma_star - sigma_star_direct) <= 1e-12
        assert np.sqrt(np.mean(np.abs(e - r.E_field.data) ** 2)) <= 1e-11


class TestTrivialFixedPoints:
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_all_phase2_is_immediate(self, scheme):
        pm = build_uniform(8, False)
        r = solve(pm, cfg_for(scheme, 3.0))
        assert r.status is TerminationStatus.CONVERGED
        assert r.iterations == 1
        assert r.sigma_star == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_contrast_free_is_immediate(self, scheme):
        pm = build_square_array(8, 0.5)
        r = solve(pm, cfg_for(scheme, 1.0))
        assert r.status is TerminationStatus.CONVERGED
        assert r.iterations == 1
        assert r.sigma_star == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(r.E_field.data, 1.0 * (np.arange(2) == 0)[:, None, None])


class TestLaminates:
    def test_series_laminate_gives_harmonic_mean(self):
        pm = laminate(normal_to_x=True)
        r = solve(pm, cfg_for(SchemeKind.BASIC, 3.0, tol=1e-12))
        assert r.converged
        assert r.sigma_star == pytest.approx(1.5, rel=1e-10)

    def test_parallel_laminate_gives_arithmetic_mean(self):
        pm = laminate(normal_to_x=False)
        r = solve(pm, cfg_for(SchemeKind.BASIC, 3.0, tol=1e-12))
        assert r.converged
        assert r.sigma_star == pytest.approx(2.0, rel=1e-10)


class TestEyreMiltonContraction:
    def test_pixel_factor_magnitude_matches_both_phases(self):
        sigma1, sigma0 = 9.0, cmath.sqrt(9.0)
        r1 = (sigma1 - sigma0) / (sigma1 + sigma0)
        r2 = (1.0 - sigma0) / (1.0 + sigma0)
        assert abs(r1) == pytest.approx(0.5)
        assert abs(r2) == pytest.approx(0.5)

    def test_branch_cut_rejected(self):
        pm = build_square_array(8, 0.5)
        with pytest.raises(BranchCutError):
            solve(pm, cfg_for(SchemeKind.EYRE_MILTON, -0.5))
        with pytest.raises(BranchCutError):
            solve(pm, cfg_for(SchemeKind.EYRE_MILTON, 0.0))

    def test_override_bypasses_square_root(self):
        pm = build_square_array(8, 0.5)
        cfg = cfg_for(
            SchemeKind.EYRE_MILTON, -0.5, sigma0_override=1.0, max_iters=30
        )
        r = solve(pm, cfg)  # runs; convergence not expected here
        assert r.iterations >= 1

    def test_em_sub_inside_assumed_interval_rejected(self):
        # sigma1 = -1 sits inside [-4, -1/4]; its t is real negative
        pm = build_square_array(8, 0.5)
        with pytest.raises(BranchCutError):
            solve(pm, cfg_for(SchemeKind.EYRE_MILTON_SUB, -1.0))


class TestSchemeEquivalence:
    @pytest.mark.parametrize("sigma1", [2.0, 5.0, 0.5 + 0.5j])
    def test_all_four_agree(self, sigma1):
        pm = build_square_array(64, 0.5)
        values = {}
        for scheme in SchemeKind:
            r = solve(pm, cfg_for(scheme, sigma1, tol=1e-10, max_iters=2000))
            assert r.converged, f"{scheme.value} did not converge at {sigma1}"
            values[scheme] = r.sigma_star
        vals = list(values.values())
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert abs(vals[i] - vals[j]) <= 1e-6

    def test_substituted_matches_plain_tightly(self):
        pm = build_square_array(64, 0.5)
        rb = solve(pm, cfg_for(SchemeKind.BASIC, 2.0, tol=1e-10))
        rs = solve(pm, cfg_for(SchemeKind.BASIC_SUB, 2.0, tol=1e-10))
        assert abs(rb.sigma_star - rs.sigma_star) <= 1e-8


class TestBenchmarkValue:
    def test_basic_matches_exact_formula(self):
        pm = build_square_array(64, 0.5)
        r = solve(pm, cfg_for(SchemeKind.BASIC, 2.0, tol=1e-10))
        assert abs(r.sigma_star - obnosov(2.0)) < 1e-2


class TestGeometricSeriesRealization:
    def test_uniform_inclusion_iterates_are_partial_sums(self):
        # On an all-phase-1 cell the iteration is scalar: the estimates form
        # a geometric sequence with ratio (t-1)(1-2 p2^2)/(t+1) converging to
        # sigma1, starting from 1 + (t-1) p1^2.
        sigma1 = 2.0
        pm = build_uniform(8, True)
        r = solve(pm, cfg_for(SchemeKind.BASIC_SUB, sigma1, tol=1e-13, max_iters=200))
        assert r.converged
        params = solve_p(BENCH)
        t = map_t(sigma1, BENCH)
        g = (t - 1.0) * (1.0 - 2.0 * params.p2 ** 2) / (t + 1.0)
        first = 1.0 + (t - 1.0) * params.p1 ** 2
        for k, rec in enumerate(r.history):
            expected = sigma1 + (first - sigma1) * g ** k
            assert abs(rec.sigma_star - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_uniform_inclusion_converges_to_sigma1(self):
        r = solve(
            build_uniform(8, True), cfg_for(SchemeKind.BASIC_SUB, 2.0, tol=1e-13)
        )
        assert r.sigma_star == pytest.approx(2.0, rel=1e-11)


class TestExtraction:
    def test_homogeneous_medium(self):
        pm = build_uniform(8, True)
        e = VectorField.constant([1.0, 0.0], 8, 8)
        assert extract_sigma_star(e, pm, 3.5) == pytest.approx(3.5)

    def test_zero_applied_field_rejected(self):
        pm = build_uniform(8, True)
        e = VectorField.constant([1.0, 0.0], 8, 8)
        with pytest.raises(ContractError):
            extract_sigma_star(e, pm, 2.0, e0=(0.0, 0.0))

    def test_aug_extraction_at_t_one(self):
        pm = build_square_array(8, 0.5)
        F = AugmentedField.from_mean([1.0, 0.0], 8, 8)
        params = solve_p(BENCH)
        assert extract_sigma_star_aug(F, 1.0, params, pm) == pytest.approx(1.0)

    def test_construction_from_converged_h_solution(self):
        # build the augmented pair from a converged plain solution and check
        # the augmented extraction returns the same effective value
        sigma1 = 2.0
        pm = build_square_array(32, 0.5)
        r = solve(pm, cfg_for(SchemeKind.BASIC, sigma1, tol=1e-12))
        assert r.converged
        params = solve_p(BENCH)
        t = map_t(sigma1, BENCH)
        e2p, _ = aux_constants(t, params)
        E = r.E_field.data
        F = AugmentedField(
            VectorField(E.copy()),
            VectorField(np.where(pm.chi, e2p * E, 0.0)),
            VectorField.zeros(32, 32),
        )
        s_aug = extract_sigma_star_aug(F, t, params, pm)
        s_h = extract_sigma_star(r.E_field, pm, sigma1)
        assert abs(s_aug - s_h) <= 1e-10

    def test_aug_extraction_uniform_inclusion_reproduces_sigma1(self):
        r = solve(
            build_uniform(8, True), cfg_for(SchemeKind.BASIC_SUB, 5.0, tol=1e-13)
        )
        assert r.sigma_star == pytest.approx(5.0, rel=1e-11)


class TestGridMismatch:
    """Every public function that takes a field and a PhaseMap rejects a
    field on another grid with one ValueError naming both shapes."""

    PMAP = build_square_array(32, 0.5)
    PARAMS = solve_p(BENCH)
    CALLS = {
        "inner_aug": lambda f, pm: inner_aug(f, f, pm),
        "inner_aug_second": lambda f, pm: inner_aug(
            AugmentedField.from_mean([1.0, 0.0], pm.ny, pm.nx), f, pm
        ),
        "norm_aug": lambda f, pm: norm_aug(f, pm),
        "gamma1_aug": lambda f, pm: gamma1_aug(f, pm),
        "apply_chi_aug": lambda f, pm: apply_chi_aug(f, TestGridMismatch.PARAMS, pm),
        "apply_local_A": lambda f, pm: apply_local_A(f, 2.0, TestGridMismatch.PARAMS, pm),
        "invert_shifted_A": lambda f, pm: invert_shifted_A(
            f, 2.0, 0.5, TestGridMismatch.PARAMS, pm
        ),
        "extract_sigma_star": lambda f, pm: extract_sigma_star(f.Q, pm, 2.0),
        "extract_sigma_star_aug": lambda f, pm: extract_sigma_star_aug(
            f, 2.0, TestGridMismatch.PARAMS, pm
        ),
        "recover_physical_fields": lambda f, pm: recover_physical_fields(
            f, 2.0, TestGridMismatch.PARAMS, pm
        ),
        "equilibrium_residual_aug": lambda f, pm: equilibrium_residual_aug(f, pm),
    }

    @pytest.mark.parametrize("grid", [(64, 64), (16, 16), (32, 48)])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_field_on_another_grid(self, name, grid):
        field = AugmentedField.from_mean([1.0, 0.0], *grid)
        message = re.escape(f"{grid} is not the PhaseMap's (32, 32)")
        with pytest.raises(ValueError, match=message):
            self.CALLS[name](field, self.PMAP)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_field_on_the_grid(self, name):
        self.CALLS[name](AugmentedField.from_mean([1.0, 0.0], 32, 32), self.PMAP)

    def test_sigma_star_of_a_constant_field(self):
        # on 64x64 the 32x32 map's support indices fell inside the field,
        # and sigma* came out 1.0625, not 0.75 + 0.25 * 2
        e = VectorField.constant([1.0, 0.0], 32, 32)
        assert extract_sigma_star(e, self.PMAP, 2.0) == pytest.approx(1.25, rel=1e-15)


class TestConstructionIdentity:
    def test_flux_equals_local_operator_on_built_fields(self):
        # E'' = (E, E2p E chi, 0) and J'' = (J, 0, J3p J / sigma1 chi) from a
        # converged solution satisfy J'' = A E'' pointwise
        sigma1 = 2.0
        pm = build_square_array(32, 0.5)
        r = solve(pm, cfg_for(SchemeKind.BASIC, sigma1, tol=1e-12))
        params = solve_p(BENCH)
        t = map_t(sigma1, BENCH)
        e2p, j3p = aux_constants(t, params)
        E, J = r.E_field.data, r.J_field.data
        E_aug = AugmentedField(
            VectorField(E.copy()),
            VectorField(np.where(pm.chi, e2p * E, 0.0)),
            VectorField.zeros(32, 32),
        )
        J_aug = AugmentedField(
            VectorField(J.copy()),
            VectorField.zeros(32, 32),
            VectorField(np.where(pm.chi, j3p * J / sigma1, 0.0)),
        )
        AE = apply_local_A(E_aug, t, params, pm)
        from fftcond import norm_aug

        diff = AugmentedField(
            VectorField(AE.Q.data - J_aug.Q.data),
            VectorField(AE.S.data - J_aug.S.data),
            VectorField(AE.T.data - J_aug.T.data),
        )
        assert norm_aug(diff, pm) <= 1e-10 * norm_aug(J_aug, pm)


class TestRecovery:
    def test_contrast_free(self):
        pm = build_square_array(16, 0.5)
        r = solve(pm, cfg_for(SchemeKind.EYRE_MILTON_SUB, 1.0))
        assert np.allclose(r.E_field.data[0], 1.0) and np.allclose(r.E_field.data[1], 0.0)
        assert np.allclose(r.J_field.data[0], 1.0)

    def test_matches_plain_solution_fields(self):
        sigma1 = 2.0
        pm = build_square_array(64, 0.5)
        rb = solve(pm, cfg_for(SchemeKind.BASIC, sigma1, tol=1e-10))
        rs = solve(pm, cfg_for(SchemeKind.EYRE_MILTON_SUB, sigma1, tol=1e-10))
        rel_e = norm(VectorField(rb.E_field.data - rs.E_field.data)) / norm(rb.E_field)
        rel_j = norm(VectorField(rb.J_field.data - rs.J_field.data)) / norm(rb.J_field)
        assert rel_e <= 1e-6 and rel_j <= 1e-6

    def test_insulating_inclusion_carries_no_current(self):
        pm = build_square_array(32, 0.5)
        tol = 2e-3  # pre-floor tolerance; see README on the insulating point
        r = solve(pm, cfg_for(SchemeKind.EYRE_MILTON_SUB, 0.0, tol=tol, max_iters=100))
        assert r.converged
        j_inside = np.sqrt(np.mean(np.abs(r.J_field.data[:, pm.chi]) ** 2))
        assert j_inside <= 10 * tol

    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j, 10.0])
    @pytest.mark.parametrize("scheme", [SchemeKind.BASIC_SUB, SchemeKind.EYRE_MILTON_SUB])
    def test_s_slot_consistency_on_converged_run(self, scheme, sigma1):
        # the public operators reproduce the loop's fields, on the real path
        # (real sigma1) and the complex one
        pm = build_square_array(32, 0.5)
        tol = 1e-10
        r = solve(pm, cfg_for(scheme, sigma1, tol=tol))
        assert r.converged and r.aug_field is not None
        params = solve_p(BENCH)
        t = map_t(sigma1, BENCH)
        E, J = recover_physical_fields(r.aug_field, t, params, pm)
        assert norm(VectorField(E.data - r.E_field.data)) <= 1e-12
        assert norm(VectorField(J.data - r.J_field.data)) <= 1e-12
        if scheme is SchemeKind.EYRE_MILTON_SUB:
            e2p, _ = aux_constants(t, params)
            s_expected = np.where(pm.chi, e2p * E.data, 0.0)
            assert norm(VectorField(r.aug_field.S.data - s_expected)) <= 10 * tol * max(
                1.0, norm(E)
            )


class TestInsulatingPointBehavior:
    """The insulating limit sigma1 = 0 (see README, "The insulating point").

    The effective-conductivity estimate converges at the predicted rate,
    while the field iteration keeps marginal interior modes: its residual
    decays geometrically only until a floor. These tests pin the honest
    pre-floor rates and the operator spectra behind both facts.
    """

    def test_pre_floor_rates_match_disk_coordinates(self):
        pm = build_square_array(64, 0.5)
        runs = {}
        for name in ("basic_sub", "em_sub"):
            scheme = SchemeKind(name)
            r = solve(pm, cfg_for(scheme, 0.0, tol=1e-8, max_iters=12))
            runs[name] = r.history.residuals()
        # em_sub: |z| = 1/3 and the mapped singular set sits on the unit circle
        rate_em = (runs["em_sub"][5] / runs["em_sub"][0]) ** (1 / 5)
        assert 0.28 <= rate_em <= 0.42
        # basic_sub: |z| = 0.6 against a series radius of 1.2, giving 0.5
        rate_basic = (runs["basic_sub"][6] / runs["basic_sub"][0]) ** (1 / 6)
        assert 0.40 <= rate_basic <= 0.56

    def test_sigma_star_reaches_discretization_accuracy_fast(self):
        pm = build_square_array(64, 0.5)
        r = solve(pm, cfg_for(SchemeKind.EYRE_MILTON_SUB, 0.0, tol=1e-8, max_iters=12))
        errs = [abs(s - obnosov(0.0)) for s in r.history.sigma_stars()]
        assert min(errs) < 1e-3
        assert errs[-1] < 1e-3

    @staticmethod
    def _em_sub_update_matrix(n, sigma1):
        """Assemble the linear part of the accelerated substituted update."""
        import fftcond.solvers as sv

        pm = build_square_array(n, 0.5)
        chi = pm.chi
        t = map_t(sigma1, BENCH)
        params = solve_p(BENCH)
        sigma0 = cmath.sqrt(complex(t))
        inv_scale = 1.0 / (1.0 + sigma0)
        inv_c = (t - 1.0) / (t + sigma0)
        p1, p2, p3 = params.p1, params.p2, params.p3
        dim = 6 * n * n
        M = np.zeros((dim, dim), dtype=complex)
        for idx in range(dim):
            w = np.zeros(dim, dtype=complex)
            w[idx] = 1.0
            wq = w[: 2 * n * n].reshape(2, n, n)
            ws = w[2 * n * n : 4 * n * n].reshape(2, n, n)
            wt = w[4 * n * n :].reshape(2, n, n)
            u = np.where(chi, p1 * wq + p2 * ws + p3 * wt, 0.0)
            fq = inv_scale * (wq - inv_c * p1 * u)
            fs = np.where(chi, inv_scale * (ws - inv_c * p2 * u), 0.0)
            ft = np.where(chi, inv_scale * (wt - inv_c * p3 * u), 0.0)
            jq, js, jt = sv._apply_A_arrays(fq, fs, ft, t, params, chi)
            rq, rs, rt = jq - sigma0 * fq, js - sigma0 * fs, jt - sigma0 * ft
            oq = -2.0 * sv._gamma1_arr(rq) + rq
            M[:, idx] = np.concatenate([oq.ravel(), (-rs).ravel(), rt.ravel()])
        return M

    def test_update_operator_spectrum(self):
        # regular point: spectral radius |z| (s + sqrt(s^2-1)) with s = 5/3,
        # so 3 |z|; insulating point: marginal interior modes hugging 1
        from fftcond import predicted_rate

        rho_regular = max(abs(np.linalg.eigvals(self._em_sub_update_matrix(8, 2.0))))
        expected = 3.0 * predicted_rate(SchemeKind.EYRE_MILTON_SUB, 2.0, BENCH)
        assert rho_regular == pytest.approx(expected, rel=5e-3)

        rho_insulating = max(abs(np.linalg.eigvals(self._em_sub_update_matrix(8, 0.0))))
        assert 0.995 < rho_insulating <= 1.0 + 1e-9


class TestResidualOps:
    def test_homogeneous_flux_is_equilibrated(self):
        j = VectorField.constant([2.0, 0.0], 8, 8)
        assert equilibrium_residual(j) <= 1e-14

    def test_initial_iterate_has_positive_residual(self):
        pm = build_square_array(16, 0.5)
        sigma = np.where(pm.chi, 2.0, 1.0).astype(complex)
        e0 = np.zeros((2, 16, 16), dtype=complex)
        e0[0] = 1.0
        res = equilibrium_residual(VectorField(sigma * e0))
        assert 0.0 < res < 1.0

    def test_converged_solution_residual_small(self):
        pm = build_square_array(32, 0.5)
        r = solve(pm, cfg_for(SchemeKind.BASIC, 2.0, tol=1e-11))
        assert equilibrium_residual(r.J_field) <= r.history.residuals()[-1] * (1 + 1e-9)

    def test_zero_mean_flux_rejected(self):
        j = VectorField.zeros(8, 8)
        with pytest.raises(ContractError):
            equilibrium_residual(j)

    def test_aug_residual_zero_mean_flux_rejected(self):
        pm = build_square_array(8, 0.5)
        F = AugmentedField.from_mean([0.0, 0.0], 8, 8)
        with pytest.raises(ContractError):
            equilibrium_residual_aug(F, pm)

    def test_degenerate_flux_flagged_by_solver(self):
        # f = 1/4 with sigma1 = -3 makes the mean flux of the first iterate zero
        pm = build_square_array(8, 0.5)
        r = solve(pm, cfg_for(SchemeKind.BASIC, -3.0, max_iters=10))
        assert r.degenerate_flux
        assert r.status is TerminationStatus.DIVERGED


class TestEstimateRate:
    def _history(self, residuals):
        h = ConvergenceHistory()
        for k, r in enumerate(residuals, start=1):
            h.append(k, 1.0 + 0j, r)
        return h

    def test_halving_residuals(self):
        h = self._history([2.0 ** -k for k in range(12)])
        assert estimate_rate(h, 10) == pytest.approx(0.5, rel=1e-12)

    def test_constant_residuals(self):
        h = self._history([0.7] * 12)
        assert estimate_rate(h, 10) == pytest.approx(1.0)

    def test_insufficient_history(self):
        h = self._history([0.5, 0.25])
        with pytest.raises(ContractError):
            estimate_rate(h, 10)

    def test_nonpositive_residuals_rejected(self):
        h = self._history([0.5] * 11 + [0.0])
        with pytest.raises(ContractError):
            estimate_rate(h, 11)

    def test_converging_run_has_rate_below_one(self):
        pm = build_square_array(32, 0.5)
        r = solve(pm, cfg_for(SchemeKind.EYRE_MILTON, 5.0, tol=1e-12))
        assert r.converged
        assert estimate_rate(r.history, min(10, r.iterations - 1)) < 1.0

    def test_tail_rate_is_none_where_estimate_rate_refuses(self):
        assert _tail_rate(self._history([0.5, 0.25]), 10) is None
        assert _tail_rate(self._history([0.5] * 11 + [0.0]), 11) is None
        h = self._history([2.0 ** -k for k in range(12)])
        assert _tail_rate(h, 10) == estimate_rate(h, 10)


class TestStoppingAndGuards:
    def test_max_iters_status(self):
        pm = build_square_array(16, 0.5)
        r = solve(pm, cfg_for(SchemeKind.BASIC, 50.0, tol=1e-14, max_iters=3))
        assert r.status is TerminationStatus.MAX_ITERS
        assert r.iterations == 3

    def test_divergence_guard(self):
        # a tiny reference conductivity makes the iteration blow up
        pm = build_square_array(16, 0.5)
        cfg = cfg_for(SchemeKind.BASIC, 2.0, sigma0_override=0.01, max_iters=500)
        r = solve(pm, cfg)
        assert r.status is TerminationStatus.DIVERGED
        assert not r.degenerate_flux

    @pytest.mark.parametrize(
        "scheme, sigma1, iterations",
        [(SchemeKind.EYRE_MILTON_SUB, -1 + 1e-6j, 49), (SchemeKind.BASIC, -4 + 1e-9j, 101)],
        ids=["em_sub", "basic"],
    )
    def test_residual_growth_guard(self, scheme, sigma1, iterations):
        # sigma1 near the negative axis: the residual grows geometrically but
        # stays finite, so the run stops on the growth factor, not on overflow.
        # em_sub's count moves with roundoff: its residual ratio after 48
        # iterations is 9.0e5, within a factor 1.2 of the guard's 1e6
        pm = build_square_array(32, 0.5)
        r = solve(pm, cfg_for(scheme, sigma1, tol=1e-10, max_iters=300))
        assert r.status is TerminationStatus.DIVERGED
        assert not r.degenerate_flux
        assert r.iterations == iterations
        res = r.history.residuals()
        assert len(res) == iterations and np.isfinite(res).all()
        assert all(cmath.isfinite(rec.sigma_star) for rec in r.history)
        assert res[-1] > DIVERGENCE_FACTOR * res[0]

    def test_history_monotone_iterations(self):
        pm = build_square_array(16, 0.5)
        r = solve(pm, cfg_for(SchemeKind.BASIC, 3.0, tol=1e-10))
        iters = [rec.iteration for rec in r.history]
        assert iters == sorted(set(iters))
        assert r.converged and r.history.residuals()[-1] <= 1e-10

    @pytest.mark.parametrize("scheme", [SchemeKind.BASIC, SchemeKind.EYRE_MILTON])
    def test_physical_schemes_carry_no_aug_field(self, scheme):
        r = solve(build_square_array(16, 0.5), cfg_for(scheme, 2.0, max_iters=3))
        assert r.aug_field is None

    def test_mean_field_pinned_to_applied(self):
        pm = build_square_array(32, 0.5)
        r = solve(pm, cfg_for(SchemeKind.EYRE_MILTON_SUB, 2.0, tol=1e-10))
        mean = r.E_field.mean()
        assert abs(mean[0] - 1.0) <= 1e-10 and abs(mean[1]) <= 1e-10


class TestConfigValidation:
    def test_sub_scheme_requires_interval(self):
        with pytest.raises(IntervalError):
            SolverConfig(scheme=SchemeKind.EYRE_MILTON_SUB, sigma1=2.0)

    def test_bad_tolerance(self):
        for tol in (0.0, math.inf, math.nan, "1e-8", None, 1e-8j):
            with pytest.raises(ValueError, match="tol"):
                SolverConfig(scheme=SchemeKind.BASIC, sigma1=2.0, tol=tol)

    @pytest.mark.parametrize("e0", [(1.0,), (1.0, 0.0, 0.0), 1.0, ((1.0, 0.0),)])
    def test_applied_field_not_a_pair(self, e0):
        with pytest.raises(ValueError, match="e0"):
            SolverConfig(scheme=SchemeKind.BASIC, sigma1=2.0, e0=e0)

    @pytest.mark.parametrize(
        "name, value",
        [("sigma1", None)]
        + [
            (name, value)
            for name in ("sigma1", "sigma0_override")
            for value in ("2", math.nan, math.inf, complex(1.0, -math.inf))
        ],
    )
    def test_conductivity_not_a_finite_number(self, name, value):
        # the real path is chosen from these values; nan used to end as
        # "Diverged after 0 iterations", and None or a string inside solve.
        # sigma0_override = None asks for the scheme's default
        kwargs = {"sigma1": 2.0, name: value}
        with pytest.raises(ValueError, match=name):
            SolverConfig(scheme=SchemeKind.BASIC, **kwargs)

    @pytest.mark.parametrize("e0", [(math.nan, 0.0), (1.0, math.inf), ("1", "0"), (1.0, None)])
    def test_applied_field_not_finite(self, e0):
        with pytest.raises(ValueError, match="e0"):
            SolverConfig(scheme=SchemeKind.BASIC, sigma1=2.0, e0=e0)

    @pytest.mark.parametrize("max_iters", [0, -3, 2.5, 3.0, "10"])
    def test_bad_max_iters(self, max_iters):
        # a float, even an integral one, would fail later inside range()
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(scheme=SchemeKind.BASIC, sigma1=2.0, max_iters=max_iters)

    @pytest.mark.parametrize("scheme", ["em", None, SchemeKind])
    def test_scheme_not_a_scheme_kind(self, scheme):
        # a string used to raise AttributeError on .substituted
        with pytest.raises(ValueError, match="scheme"):
            SolverConfig(scheme=scheme, sigma1=2.0)

    @pytest.mark.parametrize("interval", [(0.25, 4.0), [0.25, 4.0], 4.0])
    @pytest.mark.parametrize("scheme", [SchemeKind.BASIC, SchemeKind.EYRE_MILTON_SUB])
    def test_interval_not_a_spectral_interval(self, scheme, interval):
        # a tuple used to pass, and solve raised AttributeError on .alpha
        with pytest.raises(ValueError, match="interval"):
            SolverConfig(scheme=scheme, sigma1=2.0, interval=interval)

    def test_numpy_integer_max_iters(self):
        cfg = SolverConfig(scheme=SchemeKind.BASIC, sigma1=2.0, tol=1e-300, max_iters=np.int64(3))
        assert solve(build_square_array(8, 0.5), cfg).iterations == 3

    @pytest.mark.parametrize("e0", [(0.0, 0.0), (1e-200, 0.0)], ids=["zero", "norm_underflows"])
    def test_zero_applied_field(self, e0):
        with pytest.raises(ContractError):
            SolverConfig(scheme=SchemeKind.BASIC, sigma1=2.0, e0=e0)

    def test_basic_degenerate_reference(self):
        pm = build_square_array(8, 0.5)
        from fftcond import DegenerateParamError

        with pytest.raises(DegenerateParamError):
            solve(pm, cfg_for(SchemeKind.BASIC, -1.0))


class TestKellerDuality:
    """sigma*(chi, sigma1) sigma*(not chi, sigma1) = sigma1 in 2-D, for a
    geometry symmetric under a quarter turn: a check that needs no exact
    formula. The spectral operator keeps it to roundoff; the rotated one
    only to its discretization error, which falls under grid refinement."""

    @staticmethod
    def _defect(pmap, sigma1):
        cfg = SolverConfig(scheme=SchemeKind.EYRE_MILTON, sigma1=sigma1, tol=1e-14, max_iters=500)
        stars = []
        for phase in (pmap, PhaseMap(~pmap.chi)):
            r = solve(phase, cfg)
            assert r.converged
            stars.append(r.sigma_star)
        return abs(stars[0] * stars[1] - sigma1) / abs(sigma1)

    @pytest.mark.usefixtures("spectral_green")
    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j])
    @pytest.mark.parametrize("geometry", ["square", "disk"])
    def test_spectral_to_roundoff(self, geometry, sigma1):
        n = 64
        pmap = build_square_array(n, 0.5) if geometry == "square" else build_disk_array(n, 0.35)
        assert self._defect(pmap, sigma1) <= 1e-13

    def test_rotated_to_discretization_error(self):
        # measured on the 25% square at sigma1 = 2: 2.6e-8 at n = 64 and
        # 2.4e-9 at n = 128, so the defect is the grid's, not roundoff
        coarse = self._defect(build_square_array(64, 0.5), 2.0)
        fine = self._defect(build_square_array(128, 0.5), 2.0)
        assert 1e-9 <= fine <= 3e-9
        assert fine <= coarse / 8


class TestInvariance:
    """Moving, mirroring or turning the raster, with e0 turned along, leaves
    sigma* unchanged: a metamorphic check that needs no exact formula. On a
    random raster it also exercises geometry that no builder makes."""

    CHI = np.random.default_rng(31).random((32, 32)) < 0.3
    # (name, raster, e0): chi[y, x], so a transpose or quarter turn maps
    # the x direction to y
    MOVES = [
        ("roll", np.roll(CHI, (5, 11), axis=(0, 1)), (1.0, 0.0)),
        ("transpose", CHI.T, (0.0, 1.0)),
        ("x_flip", CHI[:, ::-1], (1.0, 0.0)),
        ("rot90", np.rot90(CHI), (0.0, 1.0)),
    ]

    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_sigma_star_is_invariant(self, scheme, sigma1):
        base = solve(PhaseMap(self.CHI), cfg_for(scheme, sigma1, tol=1e-12))
        assert base.converged
        for name, chi, e0 in self.MOVES:
            moved = solve(PhaseMap(chi), cfg_for(scheme, sigma1, e0=e0, tol=1e-12))
            assert moved.status is base.status, name
            assert moved.iterations == base.iterations, name
            assert abs(moved.sigma_star - base.sigma_star) <= 1e-14 * abs(base.sigma_star), name


class TestDeterminism:
    def test_bit_identical_histories(self):
        pm = build_square_array(32, 0.5)
        r1 = solve(pm, cfg_for(SchemeKind.EYRE_MILTON_SUB, 2.0, tol=1e-10))
        r2 = solve(pm, cfg_for(SchemeKind.EYRE_MILTON_SUB, 2.0, tol=1e-10))
        assert len(r1.history) == len(r2.history)
        for a, b in zip(r1.history, r2.history):
            assert a.iteration == b.iteration
            assert a.sigma_star == b.sigma_star
            assert a.residual == b.residual


# the ValueError subclasses that solve and predicted_rate document for a point they refuse
SET_UP_ERRORS = (BranchCutError, PoleError, DegenerateParamError)


class TestSetUpParity:
    """predicted_rate and solve read one iteration point, so each refuses where the other does.

    The one documented mismatch is t = -1 for the basic-type schemes, at
    sigma1 = -1 for both (map_t(-1) = -1 on BENCH): the pole of z for
    predicted_rate, a vanishing sigma0 = (t + 1)/2 for solve.
    """

    REFUSED = {
        SchemeKind.BASIC: {-1.0: PoleError},
        SchemeKind.EYRE_MILTON: dict.fromkeys((0.0, -0.5, -1.0, -4.0), BranchCutError),
        SchemeKind.BASIC_SUB: {-1.0: PoleError, -4.0: PoleError},
        SchemeKind.EYRE_MILTON_SUB: {-0.5: BranchCutError, -1.0: BranchCutError, -4.0: PoleError},
    }

    @staticmethod
    def _raised(run):
        try:
            run()
        except ValueError as exc:
            assert isinstance(exc, SET_UP_ERRORS), repr(exc)
            return type(exc)
        return None

    @pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j, 1e-6, 0.0, -0.5, -1.0, -4.0, -1 + 1e-9j])
    @pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda s: s.value)
    def test_predicted_rate_raises_where_solve_refuses(self, scheme, sigma1):
        cfg = cfg_for(scheme, sigma1, max_iters=1)
        rate_error = self._raised(lambda: predicted_rate(scheme, sigma1, cfg.interval))
        solve_error = self._raised(lambda: solve(build_square_array(8, 0.5), cfg))
        assert rate_error is self.REFUSED[scheme].get(sigma1)
        if not scheme.accelerated and sigma1 == -1.0:
            assert solve_error is DegenerateParamError
        else:
            assert solve_error is rate_error


def _near(center, radius):
    """Points within ``radius`` of ``center``, the centre itself included."""
    return st.builds(cmath.rect, st.floats(0.0, radius), st.floats(-math.pi, math.pi)).map(
        lambda d: center + d
    )


class TestHardInputsEndExplicitly:
    """Near the pole, just off the cut, at extreme contrast and below the roundoff
    floor, every scheme raises a documented error at set-up or ends with an
    explicit status and a finite history."""

    PMAP = build_square_array(16, 0.5)
    SIGMA1 = st.one_of(
        _near(-BENCH.beta, 1e-6),
        # -x +- 1e-12i for x in [1e-3, 1e3]: just off the negative axis, where em and em_sub cut
        st.builds(
            complex,
            st.floats(-3.0, 3.0).map(lambda e: -(10.0 ** e)),
            st.sampled_from([1e-12, -1e-12]),
        ),
        # contrast from 1e-8 to 1e8, at any phase
        st.builds(cmath.rect, st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e), st.floats(-math.pi, math.pi)),
    )

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(sigma1=SIGMA1, tol=st.sampled_from([1e-8, 1e-15]))
    def test_every_scheme_raises_or_reports_a_status(self, sigma1, tol):
        # 60 examples reach all three statuses and both set-up errors
        for scheme in SchemeKind:
            try:
                r = solve(self.PMAP, cfg_for(scheme, sigma1, tol=tol, max_iters=40))
            except SET_UP_ERRORS:
                continue
            assert isinstance(r.status, TerminationStatus)
            assert 1 <= r.iterations <= 40 or r.status is TerminationStatus.DIVERGED
            residuals = r.history.residuals()
            assert np.isfinite(residuals).all()
            if r.converged:
                assert residuals[-1] <= tol
