"""Frozen solver behaviour: statuses, iteration counts and sigma_star.

FROZEN was recorded from the full-grid implementation that preceded the
packed S/T storage and the Parseval residual; FROZEN_OVERRIDE, with the
reference conductivity fixed at SIGMA0_OVERRIDE, from the implementation
that still ran the physical schemes in a loop of their own. Those
changes only reorder floating-point work, so every scheme must stop for
the same reason after the same number of iterations, with sigma_star
equal to roundoff.

Each row: geometry, sigma1, scheme, status, iterations, sigma_star, for
n = 64, tol = 1e-8, max_iters = 200 and the interval (1/4, 4).
"""

import pytest

from fftcond import (
    SchemeKind,
    SolverConfig,
    SpectralInterval,
    build_disk_array,
    build_square_array,
    solve,
)

BENCH = SpectralInterval(0.25, 4.0)
N = 64
GEOMETRY = {
    "square": build_square_array(N, 0.5),
    "disk": build_disk_array(N, 0.35),
}

FROZEN = [
    ("square", (2+0j), "basic", "Converged", 12, (1.1832158890936078-2.1871317140392094e-19j)),
    ("square", (2+0j), "em", "Converged", 11, (1.1832158889526256+8.98271823118285e-19j)),
    ("square", (2+0j), "basic_sub", "Converged", 12, (1.1832158890639817-1.0367550925494628e-19j)),
    ("square", (2+0j), "em_sub", "Converged", 11, (1.183215889068349-5.301565981974865e-19j)),
    ("square", (0.7+0.4j), "basic", "Converged", 10, (0.9370249359459171+0.12328752002253533j)),
    ("square", (0.7+0.4j), "em", "Converged", 10, (0.9370249362521691+0.12328752001003669j)),
    ("square", (0.7+0.4j), "basic_sub", "Converged", 11, (0.9370249360379133+0.12328752003894276j)),
    ("square", (0.7+0.4j), "em_sub", "Converged", 9, (0.9370249360420937+0.1232875200447746j)),
    ("square", (0.02+0j), "basic", "MaxIters", 200, (0.5923959935318563-6.798498192899828e-19j)),
    ("square", (0.02+0j), "em", "Converged", 63, (0.592395979723619-1.6591257854343608e-18j)),
    ("square", (0.02+0j), "basic_sub", "MaxIters", 200, (0.5923959936186596+9.63817614856987e-19j)),
    ("square", (0.02+0j), "em_sub", "MaxIters", 200, (0.5923959865186528+2.857995043154416e-18j)),
    ("disk", (2+0j), "basic", "Converged", 13, (1.2929620227318908+5.029258124322408e-21j)),
    ("disk", (2+0j), "em", "Converged", 11, (1.2929620233057366+4.0514644658357253e-19j)),
    ("disk", (2+0j), "basic_sub", "Converged", 13, (1.292962022656433-4.071052102740981e-20j)),
    ("disk", (2+0j), "em_sub", "Converged", 12, (1.2929620226151264-5.504655365968884e-19j)),
    ("disk", (0.7+0.4j), "basic", "Converged", 11, (0.8984543796821398+0.1825573019722074j)),
    ("disk", (0.7+0.4j), "em", "Converged", 10, (0.898454380309267+0.18255730189049632j)),
    ("disk", (0.7+0.4j), "basic_sub", "Converged", 12, (0.8984543796420271+0.18255730202857695j)),
    ("disk", (0.7+0.4j), "em_sub", "Converged", 10, (0.8984543797356507+0.18255730203213194j)),
    ("disk", (0.02+0j), "basic", "MaxIters", 200, (0.45628684900854827-3.4474240953250024e-19j)),
    ("disk", (0.02+0j), "em", "Converged", 66, (0.45628680045597514-1.0360748192136992e-17j)),
    ("disk", (0.02+0j), "basic_sub", "MaxIters", 200, (0.4562868501475733+5.358012786975484e-19j)),
    ("disk", (0.02+0j), "em_sub", "MaxIters", 200, (0.4562868068120081+2.2885771443627127e-19j)),
]

SIGMA0_OVERRIDE = 1.7
FROZEN_OVERRIDE = [
    ("square", (2+0j), "basic", "Converged", 14, (1.1832158895302987-1.6889042874862698e-19j)),
    ("square", (2+0j), "em", "Converged", 10, (1.1832158887444855+7.184559928390577e-20j)),
    ("square", (2+0j), "basic_sub", "Converged", 19, (1.1832158892035294+1.4723814903443893e-20j)),
    ("square", (2+0j), "em_sub", "Converged", 13, (1.1832158891707758+5.383092903148091e-19j)),
    ("square", (0.7+0.4j), "basic", "Converged", 28, (0.9370249356365797+0.1232875201749012j)),
    ("square", (0.7+0.4j), "em", "Converged", 17, (0.9370249360119903+0.1232875195130012j)),
    ("square", (0.7+0.4j), "basic_sub", "Converged", 25, (0.9370249360106293+0.12328751985402954j)),
    ("square", (0.7+0.4j), "em_sub", "Converged", 16, (0.9370249362053246+0.12328752000534292j)),
]


def _check_frozen(geometry, sigma1, scheme, status, iterations, sigma_star, sigma0_override=None):
    kind = SchemeKind(scheme)
    cfg = SolverConfig(
        scheme=kind,
        sigma1=sigma1,
        interval=BENCH if kind.substituted else None,
        tol=1e-8,
        max_iters=200,
        sigma0_override=sigma0_override,
    )
    r = solve(GEOMETRY[geometry], cfg)
    assert r.status.value == status
    assert r.iterations == iterations
    assert abs(r.sigma_star - sigma_star) <= 1e-12 * abs(sigma_star)


@pytest.mark.parametrize("geometry, sigma1, scheme, status, iterations, sigma_star", FROZEN)
def test_matches_frozen_run(geometry, sigma1, scheme, status, iterations, sigma_star):
    _check_frozen(geometry, sigma1, scheme, status, iterations, sigma_star)


@pytest.mark.parametrize(
    "geometry, sigma1, scheme, status, iterations, sigma_star", FROZEN_OVERRIDE
)
def test_matches_frozen_run_with_sigma0_override(
    geometry, sigma1, scheme, status, iterations, sigma_star
):
    _check_frozen(geometry, sigma1, scheme, status, iterations, sigma_star, SIGMA0_OVERRIDE)


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("geometry", sorted(GEOMETRY))
@pytest.mark.parametrize("sigma1", [2.0, 0.7 + 0.4j])
def test_applied_field_direction(scheme, geometry, sigma1):
    """Both geometries are symmetric under x <-> y, so e0 = (0, 1) must
    repeat the run along e0 = (1, 0): same count, sigma_star to roundoff."""
    runs = [
        solve(
            GEOMETRY[geometry],
            SolverConfig(
                scheme=scheme,
                sigma1=sigma1,
                interval=BENCH if scheme.substituted else None,
                e0=e0,
                tol=1e-10,
                max_iters=200,
            ),
        )
        for e0 in [(1.0, 0.0), (0.0, 1.0)]
    ]
    assert runs[0].converged
    assert runs[1].iterations == runs[0].iterations
    assert abs(runs[1].sigma_star - runs[0].sigma_star) <= 1e-14 * abs(runs[0].sigma_star)
