"""Built-in invariant checks for the scalar algebra and the operators.

Each check runs at a fixed seed, measures a worst-case defect against a
pinned threshold and reports pass/fail; the CLI exposes the suite as
``fftcond selftest``. Output is deterministic byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import build_square_array
from .spectral_ops import (
    AugmentedField,
    VectorField,
    apply_chi_aug,
    apply_local_A,
    gamma0,
    gamma1,
    gamma1_aug,
    inner,
    inner_aug,
    invert_shifted_A,
    norm,
    norm_aug,
)
from .transform import (
    SpectralInterval,
    aux_constants,
    inverse_map_t,
    map_t,
    solve_p,
    verify_sigma1,
)

SEED = 20260809
GRID = 16


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name:<34} err={self.measured:.3e}  tol={self.threshold:.0e}"


def _rel(delta: complex, ref: complex) -> float:
    return abs(delta) / max(1.0, abs(ref))


def _random_interval(rng) -> SpectralInterval:
    a = float(rng.uniform(0.05, 5.0))
    b = a + float(rng.uniform(0.1, 20.0))
    return SpectralInterval(a, b)


def _random_sigma1(rng, interval) -> complex:
    while True:
        s = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if abs(s + interval.beta) < 0.2:
            continue
        t = map_t(s, interval)
        if abs((t - 1.0) * (-(1.0 + interval.alpha) / (interval.beta - interval.alpha)) + 1.0) < 0.05:
            continue
        return s


def _random_field(rng, n: int) -> VectorField:
    data = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    return VectorField(data)


def _random_aug(rng, pmap) -> AugmentedField:
    n = pmap.ny
    mask = pmap.chi
    def masked():
        d = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        return VectorField(np.where(mask, d, 0.0))
    return AugmentedField(_random_field(rng, n), masked(), masked())


def _slotwise(op, *fields: AugmentedField) -> AugmentedField:
    """``op`` applied to the data of the fields' Q slots, then S, then T."""
    slots = zip(*((f.Q.data, f.S.data, f.T.data) for f in fields))
    return AugmentedField(*(VectorField(op(*arrays)) for arrays in slots))


def run_selftest(seed: int = SEED) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def check(name: str, measured: float, threshold: float):
        results.append(CheckResult(name, measured <= threshold, measured, threshold))

    # scalar algebra: 200 random draws
    worst_rt = worst_rec = worst_ver = worst_rows = 0.0
    for _ in range(200):
        interval = _random_interval(rng)
        s = _random_sigma1(rng, interval)
        t = map_t(s, interval)
        worst_rt = max(worst_rt, _rel(inverse_map_t(t, interval) - s, s))
        params = solve_p(interval)
        a_rec = -1.0 - params.p1 ** 2 / (params.p2 ** 2 - 1.0)
        b_rec = -1.0 - params.p1 ** 2 / params.p2 ** 2
        worst_rec = max(
            worst_rec,
            _rel(a_rec - interval.alpha, interval.alpha),
            _rel(b_rec - interval.beta, interval.beta),
        )
        worst_ver = max(worst_ver, _rel(verify_sigma1(t, params) - s, s))
        e2p, j3p = aux_constants(t, params)
        p1, p2, p3 = params.p1, params.p2, params.p3
        row2 = (t - 1.0) * (p1 * p2 + p2 ** 2 * e2p) + e2p
        row3 = (t - 1.0) * (p1 * p3 + p2 * p3 * e2p) - j3p
        worst_rows = max(worst_rows, _rel(row2, e2p), _rel(row3, j3p))
    check("t_map_round_trip", worst_rt, 1e-12)
    check("interval_recovery_from_p", worst_rec, 1e-12)
    check("sigma1_reconstruction", worst_ver, 1e-12)
    check("field_equation_rows", worst_rows, 1e-12)

    # operator properties on a random grid field
    f = _random_field(rng, GRID)
    g1 = gamma1(f)
    check("gamma1_idempotent", norm(VectorField(gamma1(g1).data - g1.data)) / max(norm(g1), 1e-30), 1e-12)
    h = _random_field(rng, GRID)
    adj = abs(inner(g1, h) - inner(f, gamma1(h))) / max(norm(f) * norm(h), 1e-30)
    check("gamma1_self_adjoint", adj, 1e-12)
    check("gamma1_zero_mean", float(np.linalg.norm(gamma0(g1))), 1e-13)

    pmap = build_square_array(GRID, 0.5)
    interval = SpectralInterval(0.25, 4.0)
    params = solve_p(interval)
    t = map_t(2.0, interval)
    F = _random_aug(rng, pmap)
    G1F = gamma1_aug(F, pmap)
    G1G1F = gamma1_aug(G1F, pmap)
    diff = _slotwise(np.subtract, G1G1F, G1F)
    check(
        "gamma1_aug_idempotent",
        norm_aug(diff, pmap) / max(norm_aug(G1F, pmap), 1e-30),
        1e-12,
    )
    check("gamma1_aug_kills_T", norm(G1F.T), 1e-30)
    check(
        "gamma1_aug_passes_S",
        norm(VectorField(G1F.S.data - F.S.data)),
        1e-30,
    )

    CF = apply_chi_aug(F, params, pmap)
    CCF = apply_chi_aug(CF, params, pmap)
    dd = _slotwise(np.subtract, CCF, CF)
    check(
        "chi_aug_idempotent",
        norm_aug(dd, pmap) / max(norm_aug(CF, pmap), 1e-30),
        1e-12,
    )

    inv = invert_shifted_A(F, t, 0.7 + 0.3j, params, pmap)
    back = apply_local_A(inv, t, params, pmap)
    resid = _slotwise(lambda b, i, f: b + (0.7 + 0.3j) * i - f, back, inv, F)
    check(
        "shifted_A_inverse_round_trip",
        norm_aug(resid, pmap) / max(norm_aug(F, pmap), 1e-30),
        1e-12,
    )

    # orthogonality of the three augmented subspaces
    G = _random_aug(rng, pmap)
    e_part = gamma1_aug(F, pmap)
    mean_g = G.Q.mean()
    j_part = AugmentedField(
        VectorField(G.Q.data - mean_g[:, None, None] - gamma1(G.Q).data),
        VectorField.zeros(GRID, GRID),
        G.T.copy(),
    )
    u_part = AugmentedField.from_mean(mean_g, GRID, GRID)
    scale = max(norm_aug(e_part, pmap) * norm_aug(j_part, pmap), 1e-30)
    ortho = max(
        abs(inner_aug(e_part, j_part, pmap)) / scale,
        abs(inner_aug(e_part, u_part, pmap))
        / max(norm_aug(e_part, pmap) * norm_aug(u_part, pmap), 1e-30),
        abs(inner_aug(u_part, j_part, pmap))
        / max(norm_aug(u_part, pmap) * norm_aug(j_part, pmap), 1e-30),
    )
    check("augmented_subspaces_orthogonal", ortho, 1e-12)

    return results


def format_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
