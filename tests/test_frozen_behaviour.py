"""Frozen solver behaviour: statuses, iteration counts and sigma_star.

FROZEN and FROZEN_OVERRIDE pin the spectral (Moulinec-Suquet) Green
operator, which this package used before the rotated one and which the
tests put in place of the rotated table (the ``spectral_green``
fixture): they check that the band kernels, fed that table, still do the
earlier arithmetic. FROZEN was recorded from the full-grid implementation that
preceded the packed S/T storage and the Parseval residual;
FROZEN_OVERRIDE, with the reference conductivity fixed at
SIGMA0_OVERRIDE, from the implementation that still ran the physical
schemes in a loop of their own. Those changes only reorder
floating-point work, so every scheme must stop for the same reason after
the same number of iterations, with sigma_star equal to roundoff.
FROZEN_ROTATED and FROZEN_ROTATED_OVERRIDE pin the rotated (Willot)
operator, the one every solve uses, from the change that made it so;
they add sigma1 = 0, where every scheme but em converges on it.

Each row: geometry, sigma1, scheme, status, iterations, sigma_star, for
n = 64, tol = 1e-8, max_iters = 200 and the interval (1/4, 4).

FROZEN_DIGESTS pins the bits, not just the numbers, of the physical
schemes' fields on the rotated operator (``TestPinnedDigests``).
"""

import hashlib

import numpy as np
import pytest

import fftcond.spectral_ops as spectral_ops
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

FROZEN_ROTATED = [
    ("square", (2+0j), "basic", "Converged", 10, (1.1832159732578473-1.2924500935181116e-19j)),
    ("square", (2+0j), "em", "Converged", 11, (1.1832159719103739-1.192233356368764e-19j)),
    ("square", (2+0j), "basic_sub", "Converged", 11, (1.1832159720633586+1.351252527610335e-19j)),
    ("square", (2+0j), "em_sub", "Converged", 9, (1.1832159720209823-4.455807225709864e-19j)),
    ("square", (0.7+0.4j), "basic", "Converged", 10, (0.937024915895684+0.12328751131200294j)),
    ("square", (0.7+0.4j), "em", "Converged", 10, (0.9370249162199561+0.1232875112966885j)),
    ("square", (0.7+0.4j), "basic_sub", "Converged", 10, (0.9370249159768296+0.12328751132857071j)),
    ("square", (0.7+0.4j), "em_sub", "Converged", 8, (0.9370249159713354+0.12328751137286091j)),
    ("square", (0.02+0j), "basic", "Converged", 24, (0.5924498601873177-4.602151212285077e-20j)),
    ("square", (0.02+0j), "em", "Converged", 63, (0.5924498643890569-2.0644889686135508e-18j)),
    ("square", (0.02+0j), "basic_sub", "Converged", 25, (0.5924498609683082+1.4994057859247324e-19j)),
    ("square", (0.02+0j), "em_sub", "Converged", 17, (0.5924498607371081+1.7519736793798295e-18j)),
    ("square", 0j, "basic", "Converged", 26, (0.5773541670794531-6.717473775238753e-19j)),
    ("square", 0j, "basic_sub", "Converged", 26, (0.5773541674193038+5.733935979176583e-19j)),
    ("square", 0j, "em_sub", "Converged", 18, (0.5773541676875781-5.783859431774456e-18j)),
    ("disk", (2+0j), "basic", "Converged", 11, (1.2929412153972595-1.9308137204349538e-19j)),
    ("disk", (2+0j), "em", "Converged", 11, (1.2929412156326268-3.408657985169728e-19j)),
    ("disk", (2+0j), "basic_sub", "Converged", 11, (1.2929412149773787-3.8982992112035894e-20j)),
    ("disk", (2+0j), "em_sub", "Converged", 9, (1.2929412151042792+1.2052077088690682e-18j)),
    ("disk", (0.7+0.4j), "basic", "Converged", 10, (0.8984457908920103+0.18255874604016573j)),
    ("disk", (0.7+0.4j), "em", "Converged", 10, (0.8984457917260297+0.1825587459281966j)),
    ("disk", (0.7+0.4j), "basic_sub", "Converged", 10, (0.8984457910719555+0.18255874607690578j)),
    ("disk", (0.7+0.4j), "em_sub", "Converged", 8, (0.8984457913018673+0.18255874587288037j)),
    ("disk", (0.02+0j), "basic", "Converged", 34, (0.45742513946953445+1.7903001758626823e-19j)),
    ("disk", (0.02+0j), "em", "Converged", 68, (0.45742514177318777-1.2351165914907655e-17j)),
    ("disk", (0.02+0j), "basic_sub", "Converged", 35, (0.45742513949147046+4.539886555911897e-19j)),
    ("disk", (0.02+0j), "em_sub", "Converged", 23, (0.4574251394932599+4.0417982789653516e-18j)),
    ("disk", 0j, "basic", "Converged", 37, (0.44093740860093694-6.837035930733464e-19j)),
    ("disk", 0j, "basic_sub", "Converged", 39, (0.4409374085618972+2.9153061168357983e-19j)),
    ("disk", 0j, "em_sub", "Converged", 25, (0.44093740856653235-1.036107095311962e-18j)),
]
FROZEN_ROTATED_OVERRIDE = [
    ("square", (2+0j), "basic", "Converged", 14, (1.183215972484886-4.3740905961848386e-20j)),
    ("square", (2+0j), "em", "Converged", 10, (1.1832159716511519-7.608280902928897e-19j)),
    ("square", (2+0j), "basic_sub", "Converged", 19, (1.1832159721575355+1.569486716604145e-20j)),
    ("square", (2+0j), "em_sub", "Converged", 13, (1.1832159721261675+7.700310019118857e-19j)),
    ("square", (0.7+0.4j), "basic", "Converged", 28, (0.9370249155985588+0.12328751146739589j)),
    ("square", (0.7+0.4j), "em", "Converged", 17, (0.9370249159706424+0.12328751080195885j)),
    ("square", (0.7+0.4j), "basic_sub", "Converged", 25, (0.9370249159697085+0.12328751114249152j)),
    ("square", (0.7+0.4j), "em_sub", "Converged", 16, (0.9370249161651953+0.12328751129211314j)),
]


def _check_frozen(geometry, sigma1, scheme, status, iterations, sigma_star,
                  sigma0_override=None):
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


@pytest.mark.usefixtures("spectral_green")
@pytest.mark.parametrize("geometry, sigma1, scheme, status, iterations, sigma_star", FROZEN)
def test_matches_frozen_run(geometry, sigma1, scheme, status, iterations, sigma_star):
    _check_frozen(geometry, sigma1, scheme, status, iterations, sigma_star)


@pytest.mark.usefixtures("spectral_green")
@pytest.mark.parametrize(
    "geometry, sigma1, scheme, status, iterations, sigma_star", FROZEN_OVERRIDE
)
def test_matches_frozen_run_with_sigma0_override(
    geometry, sigma1, scheme, status, iterations, sigma_star
):
    _check_frozen(geometry, sigma1, scheme, status, iterations, sigma_star, SIGMA0_OVERRIDE)


@pytest.mark.parametrize("geometry, sigma1, scheme, status, iterations, sigma_star", FROZEN_ROTATED)
def test_matches_frozen_rotated_run(geometry, sigma1, scheme, status, iterations, sigma_star):
    _check_frozen(geometry, sigma1, scheme, status, iterations, sigma_star)


@pytest.mark.parametrize(
    "geometry, sigma1, scheme, status, iterations, sigma_star", FROZEN_ROTATED_OVERRIDE
)
def test_matches_frozen_rotated_run_with_sigma0_override(
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


# SHA-256 of the rotated Green table at n = 32, with one real FFT of its
# 1/|d|^2: the platform the digests below were recorded on
TABLE_DIGEST = "a71943f563edec0bfff266cba6f3a4998abe6384bc865ae28466f4e250c940bf"
# scheme, sigma1, iterations, SHA-256 of E_field and of J_field, for the
# n = 32 square of side 1/2 at tol 1e-10
FROZEN_DIGESTS = [
    ("basic", 2.0, 13,
     "eabcd7a2a29394fd6120143b5dbae228f977d4f692dd27e719c6e61429ab3cb9",
     "a5f6c442e2d06f5ac6f5063b958cbc3583ede5ffe7a5441afef6e363662c4770"),
    ("basic", 0.7 + 0.4j, 12,
     "f220498f28e81ae6715aa6a727b681f465c298e47842ef7f7574bc07d303097a",
     "24fa65da524d5a283b7c27cdfe1a5af2f99cc53d525e1548d134b013723df716"),
    ("em", 2.0, 14,
     "94d00603e5e45fe751a9a5239d8e4653a68f42a8b5af05c818efa51c93f72a70",
     "373466ae9b02b1b1396379d28f8658a29cb6a9af5b46c41ec4d7f262bd885dfe"),
    ("em", 0.7 + 0.4j, 12,
     "633ac7168d4adacb09a6672030ee7ca53b74dc5cf49631863486b309b1c99991",
     "409657f79a332514ef483172477684f42c28452fddc9dd5d5514ee1117fdf5fe"),
]


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestPinnedDigests:
    """``basic`` and ``em`` keep their fields' bits from change to change.

    The numbers the other tests compare hide changes at roundoff: for the
    basic schemes the mean pin delta is itself roundoff-sized, because
    gamma1 has zero mean, so an update that drops it still passes them.
    The digests see any such change. They hold for one libm and one FFT:
    another ``sin`` changes the Green table and every bit downstream, so
    the test skips when the table's digest differs."""

    @pytest.fixture(autouse=True)
    def _same_platform(self):
        g = spectral_ops._green_table(32, 32)
        digest = _sha256(*g.d[0], *g.d[1], g.inv_d2, *g.phase, np.fft.rfftn(g.inv_d2))
        if digest != TABLE_DIGEST:
            pytest.skip("the Green table or its FFT has other bits here (libm sin or numpy FFT)")

    @pytest.mark.parametrize(
        "scheme, sigma1, iterations, e_digest, j_digest",
        FROZEN_DIGESTS,
        ids=[f"{row[0]}-{row[1]}" for row in FROZEN_DIGESTS],
    )
    def test_fields_keep_their_bits(self, scheme, sigma1, iterations, e_digest, j_digest):
        cfg = SolverConfig(scheme=SchemeKind(scheme), sigma1=sigma1, tol=1e-10)
        r = solve(build_square_array(32, 0.5), cfg)
        assert r.converged and r.iterations == iterations
        assert _sha256(r.E_field.data) == e_digest
        assert _sha256(r.J_field.data) == j_digest
