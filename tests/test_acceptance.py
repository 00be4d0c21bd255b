"""Acceptance suite: each numbered check prints one pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
Checks 2, 3, 4 and 7 probe iteration residuals at the insulating point
sigma1 = 0. With the default rotated Green operator, checks 2 and 7
pass; checks 3 and 4 fail on sub-clauses that encode the worst-case
|z| behaviour of the spectral operator there (see README, "The
insulating point"): basic_sub runs faster than the window around its
predicted rate, and basic converges where it was expected to stall. The
failure lines document exactly how far the runs get.
"""

import math
import time

import numpy as np
import pytest

from fftcond import (
    BranchCutError,
    SchemeKind,
    SolverConfig,
    SpectralInterval,
    TerminationStatus,
    aux_constants,
    build_square_array,
    estimate_rate,
    inverse_map_t,
    map_t,
    misestimation_report,
    predicted_rate,
    resistor_substitution_map,
    solve,
    solve_p,
    verify_sigma1,
)

BENCH = SpectralInterval(0.25, 4.0)
EXACT_S2 = math.sqrt(7 / 5)
EXACT_S0 = 1 / math.sqrt(3)


def check(num: int, clauses: dict, detail: str = ""):
    failed = [k for k, v in clauses.items() if not v]
    status = "PASS" if not failed else "FAIL"
    line = f"ACCEPTANCE {num} {status}"
    if failed:
        line += f" (failed: {', '.join(failed)})"
    if detail:
        line += f" | {detail}"
    print(line)
    assert not failed, line


@pytest.fixture(scope="module")
def sq128():
    return build_square_array(128, 0.5)


@pytest.fixture(scope="module")
def runs_sigma2(sq128):
    out = {}
    for scheme in SchemeKind:
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=2.0,
            interval=BENCH if scheme.substituted else None,
            tol=1e-10,
            max_iters=1000,
        )
        start = time.perf_counter()
        out[scheme.value] = (solve(sq128, cfg), time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def runs_sigma0(sq128):
    """Benchmark runs at the insulating point, tol 1e-8, capped at 200."""
    out = {}
    for name in ("basic", "basic_sub", "em_sub"):
        scheme = SchemeKind(name)
        cfg = SolverConfig(
            scheme=scheme,
            sigma1=0.0,
            interval=BENCH if scheme.substituted else None,
            tol=1e-8,
            max_iters=200,
        )
        out[name] = solve(sq128, cfg)
    try:
        cfg = SolverConfig(scheme=SchemeKind.EYRE_MILTON, sigma1=0.0, tol=1e-8, max_iters=200)
        out["em"] = solve(sq128, cfg)
    except BranchCutError as exc:
        out["em"] = exc
    return out


def test_criterion_1_benchmark_sigma2(runs_sigma2):
    values = {}
    clauses = {}
    for name, (result, wall) in runs_sigma2.items():
        values[name] = result.sigma_star
        clauses[f"{name}_converged"] = result.status is TerminationStatus.CONVERGED
        clauses[f"{name}_near_exact"] = abs(result.sigma_star - EXACT_S2) <= 1e-2
        clauses[f"{name}_under_30s"] = wall <= 30.0
    names = list(values)
    worst_pair = max(
        abs(values[a] - values[b]) for i, a in enumerate(names) for b in names[i + 1:]
    )
    clauses["pairwise_1e-6"] = worst_pair <= 1e-6
    detail = (
        f"sigma*={values['basic']:.8f}, exact={EXACT_S2:.8f}, "
        f"worst pair diff={worst_pair:.2e}"
    )
    check(1, clauses, detail)


def test_criterion_2_benchmark_sigma0(runs_sigma0):
    r = runs_sigma0["em_sub"]
    err = abs(r.sigma_star - EXACT_S0)
    clauses = {
        "sigma_star_within_2e-2": err <= 2e-2,
        "converged_at_1e-8": r.status is TerminationStatus.CONVERGED,
        "within_80_iterations": r.converged and r.iterations <= 80,
    }
    detail = (
        f"|sigma*-exact|={err:.2e}, status={r.status.value}, "
        f"iters={r.iterations}, min residual={min(r.history.residuals()):.2e}"
    )
    check(2, clauses, detail)


def test_criterion_3_rate_prediction(runs_sigma0):
    rate_em = estimate_rate(runs_sigma0["em_sub"].history, 10)
    rate_basic = estimate_rate(runs_sigma0["basic_sub"].history, 10)
    clauses = {
        "em_sub_rate_in_window": 0.23 <= rate_em <= 0.43,
        "basic_sub_rate_in_window": 0.50 <= rate_basic <= 0.70,
    }
    detail = (
        f"em_sub final-10 rate={rate_em:.4f} (predicted 1/3), "
        f"basic_sub={rate_basic:.4f} (predicted 0.6)"
    )
    check(3, clauses, detail)


def test_criterion_4_acceleration_ordering(runs_sigma0):
    basic = runs_sigma0["basic"]
    em = runs_sigma0["em"]
    bsub = runs_sigma0["basic_sub"]
    esub = runs_sigma0["em_sub"]
    basic_min = min(basic.history.residuals())
    em_failed = isinstance(em, BranchCutError) or min(em.history.residuals()) > 1e-3
    clauses = {
        "basic_stays_above_1e-3": basic_min > 1e-3,
        "em_stays_above_1e-3": em_failed,
        "basic_sub_reaches_1e-8": bsub.converged and bsub.iterations <= 200,
        "em_sub_reaches_1e-8": esub.converged and esub.iterations <= 200,
        "em_sub_strictly_fewer_iters": esub.iterations < bsub.iterations,
    }
    detail = (
        f"basic min res={basic_min:.2e}; em={'branch-cut error' if isinstance(em, BranchCutError) else 'ran'}; "
        f"basic_sub min res={min(bsub.history.residuals()):.2e} ({bsub.iterations} it); "
        f"em_sub min res={min(esub.history.residuals()):.2e} ({esub.iterations} it)"
    )
    check(4, clauses, detail)


def test_criterion_5_algebraic_identities():
    # draws cover 0 < alpha < beta <= 100 with gap >= 1 and points clear of
    # the map's pole, keeping the identities' conditioning within the stated
    # 1e-12 headroom of double precision
    rng = np.random.default_rng(20260809)
    start = time.perf_counter()
    worst = 0.0
    draws = 0
    while draws < 1000:
        a = rng.uniform(1e-2, 50.0)
        b = a + rng.uniform(1.0, 50.0)
        interval = SpectralInterval(a, b)
        s = complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))
        if abs(s + b) < 0.1:
            continue
        t = map_t(s, interval)
        if abs(t * (1 + a) - (1 + b)) < 1e-3:
            continue
        params = solve_p(interval)
        if abs((t - 1) * params.p2 ** 2 + 1) < 1e-3:
            continue
        draws += 1
        rel = lambda d, ref: abs(d) / max(1.0, abs(ref))
        worst = max(worst, rel(inverse_map_t(t, interval) - s, s))
        a_rec = -1.0 - params.p1 ** 2 / (params.p2 ** 2 - 1.0)
        b_rec = -1.0 - params.p1 ** 2 / params.p2 ** 2
        worst = max(worst, rel(a_rec - a, a), rel(b_rec - b, b))
        s_ver = verify_sigma1(t, params)
        worst = max(worst, rel(s_ver - s, s))
        e2p, j3p = aux_constants(t, params)
        p1, p2, p3 = params.p1, params.p2, params.p3
        scale = max(1.0, abs(e2p), abs(j3p), abs(s))
        worst = max(
            worst,
            abs((t - 1) * (p1 ** 2 + p1 * p2 * e2p) + 1.0 - s_ver) / scale,
            abs((t - 1) * (p1 * p2 + p2 ** 2 * e2p) + e2p) / scale,
            abs((t - 1) * (p1 * p3 + p2 * p3 * e2p) - j3p) / scale,
        )
    elapsed = time.perf_counter() - start
    clauses = {
        "all_identities_1e-12": worst <= 1e-12,
        "runtime_1s": elapsed <= 1.0,
    }
    check(5, clauses, f"worst rel defect={worst:.2e} over 1000 draws in {elapsed:.2f}s")


def test_criterion_6_operator_properties():
    from fftcond import (
        AugmentedField,
        VectorField,
        apply_chi_aug,
        apply_local_A,
        gamma0,
        gamma1,
        gamma1_aug,
        inner,
        norm,
        norm_aug,
    )

    n = 32
    pm = build_square_array(n, 0.5)
    rng = np.random.default_rng(11)
    params = solve_p(BENCH)
    worst = {}

    f = VectorField(rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n)))
    g = VectorField(rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n)))
    g1f = gamma1(f)
    worst["gamma1_idempotent"] = norm(VectorField(gamma1(g1f).data - g1f.data)) / norm(g1f)
    worst["gamma1_self_adjoint"] = abs(inner(g1f, g) - inner(f, gamma1(g))) / (
        norm(f) * norm(g)
    )
    worst["gamma1_zero_mean"] = float(np.linalg.norm(gamma0(g1f)))

    def rand_aug():
        def masked():
            d = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            return VectorField(np.where(pm.chi, d, 0.0))

        return AugmentedField(
            VectorField(rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))),
            masked(),
            masked(),
        )

    def aug_diff(x, y):
        return norm_aug(
            AugmentedField(
                VectorField(x.Q.data - y.Q.data),
                VectorField(x.S.data - y.S.data),
                VectorField(x.T.data - y.T.data),
            ),
            pm,
        )

    F = rand_aug()
    once = gamma1_aug(F, pm)
    worst["gamma1_aug_idempotent"] = aug_diff(gamma1_aug(once, pm), once) / norm_aug(once, pm)
    worst["gamma1_aug_components"] = max(
        norm(once.T),
        norm(VectorField(once.S.data - F.S.data)),
        norm(VectorField(once.Q.data - gamma1(F.Q).data)),
    )
    cf = apply_chi_aug(F, params, pm)
    worst["chi_aug_idempotent"] = aug_diff(apply_chi_aug(cf, params, pm), cf) / norm_aug(cf, pm)

    # construction identity from a converged plain solution
    sigma1 = 2.0
    t = map_t(sigma1, BENCH)
    cfg = SolverConfig(scheme=SchemeKind.BASIC, sigma1=sigma1, tol=1e-12, max_iters=500)
    res = solve(pm, cfg)
    e2p, j3p = aux_constants(t, params)
    E, J = res.E_field.data, res.J_field.data
    E_aug = AugmentedField(
        VectorField(E.copy()),
        VectorField(np.where(pm.chi, e2p * E, 0.0)),
        VectorField.zeros(n, n),
    )
    J_aug = AugmentedField(
        VectorField(J.copy()),
        VectorField.zeros(n, n),
        VectorField(np.where(pm.chi, j3p * J / sigma1, 0.0)),
    )
    AE = apply_local_A(E_aug, t, params, pm)
    worst["construction_identity"] = aug_diff(AE, J_aug) / norm_aug(J_aug, pm)

    clauses = {name: value <= 1e-10 for name, value in worst.items()}
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    check(6, clauses, detail)


def test_criterion_7_misestimation(sq128):
    cfg = SolverConfig(
        scheme=SchemeKind.EYRE_MILTON_SUB,
        sigma1=0.0,
        interval=BENCH,
        tol=1e-6,
        max_iters=500,
    )
    report = misestimation_report(
        sq128, 0.0, BENCH, SpectralInterval(0.6, 4.0), cfg, rate_window=10
    )
    assumed, true = report.assumed_run, report.true_run
    clauses = {
        "assumed_converges_1e-6_within_500": assumed.status is TerminationStatus.CONVERGED,
        "rates_available": assumed.estimated_rate is not None
        and true.estimated_rate is not None,
        "assumed_rate_strictly_greater": (
            assumed.estimated_rate is not None
            and true.estimated_rate is not None
            and assumed.estimated_rate > true.estimated_rate
        ),
    }
    detail = (
        f"assumed(0.6,4): {assumed.status.value} in {assumed.iterations} it, "
        f"rate={assumed.estimated_rate}; true(1/4,4): {true.status.value} in "
        f"{true.iterations} it, rate={true.estimated_rate}"
    )
    check(7, clauses, detail)


def test_criterion_8_rate_monotonicity():
    clauses = {}
    for sigma1 in (2.0, 5.0, 10.0):
        lo_alpha = predicted_rate(SchemeKind.EYRE_MILTON_SUB, sigma1, SpectralInterval(0.05, 4.0))
        hi_alpha = predicted_rate(SchemeKind.EYRE_MILTON_SUB, sigma1, SpectralInterval(0.25, 4.0))
        clauses[f"alpha_raise_s{sigma1:g}"] = hi_alpha < lo_alpha
        hi_beta = predicted_rate(SchemeKind.EYRE_MILTON_SUB, sigma1, SpectralInterval(0.25, 10.0))
        lo_beta = predicted_rate(SchemeKind.EYRE_MILTON_SUB, sigma1, SpectralInterval(0.25, 4.0))
        clauses[f"beta_lower_s{sigma1:g}"] = lo_beta < hi_beta
    check(8, clauses)


def test_criterion_9_resistor_oracle():
    rng = np.random.default_rng(5)
    clauses = {
        "maps_zero_to_half": abs(resistor_substitution_map(0.0, 1, 1, 1) - 0.5) < 1e-15,
        "maps_one_to_two_thirds": abs(resistor_substitution_map(1.0, 1, 1, 1) - 2 / 3) < 1e-15,
        "maps_infinity_to_one": abs(resistor_substitution_map(1e12, 1, 1, 1) - 1.0) < 1e-9,
    }
    positives = True
    for s in rng.uniform(0.0, 1e6, size=1000):
        v = resistor_substitution_map(float(s), 1, 1, 1)
        positives = positives and v.imag == 0.0 and 0.0 < v.real <= 1.0
    clauses["positive_axis_into_positives"] = positives
    check(9, clauses)
