"""Benchmark workloads: each is a fixed list of ``fftcond`` CLI invocations.

Every invocation starts from a shipped config (``configs/compare.cfg`` or
``configs/benchmark.cfg``) and patches it with ``--override`` only. All
workloads use the shipped spectral interval (0.25, 4). The seed selects
only the complex ``sweep`` points.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, replace

SWEEP_CELLS = 8  # two sweep points per cell
SWEEP_LATTICE = 5  # cell i covers argument stratum (SWEEP_LATTICE * i) mod SWEEP_CELLS
SWEEP_MAG = (0.2, 10.0)  # |sigma1|, drawn log-uniform
SWEEP_ARG = math.pi / 3  # arg(sigma1), drawn uniform in [-SWEEP_ARG, SWEEP_ARG]
DISK_RADIUS = 0.35

ALL_SCHEMES = ("basic", "em", "basic_sub", "em_sub")


@dataclass(frozen=True)
class Invocation:
    """One ``fftcond`` command: what to run and what the gate may check."""

    command: str  # "solve" or "compare"
    config: str  # relative to the checkout root
    overrides: tuple[str, ...]
    schemes: tuple[str, ...]  # the solves it runs, in order
    sigma1: complex
    square: bool  # the 25% square array, where obnosov() is exact
    n: int

    def argv(self, root, out_dir) -> list[str]:
        """CLI arguments; every artifact goes to ``out_dir`` by absolute path."""
        outputs = (
            f"output.history_csv={out_dir / 'history.csv'}",
            f"output.summary_csv={out_dir / 'summary.csv'}",
            f"output.result_json={out_dir / 'result.json'}",
        )
        argv = [self.command, str(root / self.config)]
        for item in self.overrides + outputs:
            argv += ["--override", item]
        return argv


def _compare(overrides=(), schemes=ALL_SCHEMES, sigma1=2.0, square=True, n=128):
    return Invocation("compare", "configs/compare.cfg", tuple(overrides), schemes, sigma1, square, n)


def _sigma1_overrides(sigma1: complex) -> tuple[str, ...]:
    return (f"physics.sigma1_re={sigma1.real!r}", f"physics.sigma1_im={sigma1.imag!r}")


def sweep_points(seed: int) -> list[complex]:
    """Stratified, antithetic draw of 2 * SWEEP_CELLS complex sigma1 values.

    In the unit square of (log|sigma1|, arg sigma1) coordinates, cell i
    is magnitude stratum i and argument stratum (SWEEP_LATTICE * i) mod
    SWEEP_CELLS, so every stratum of either coordinate holds one cell and
    a point drawn at random from the set is log-uniform in |sigma1| and
    uniform in its argument. Each cell holds a point at a seeded offset
    (r, s) and its mirror (1 - r, 1 - s). Strata and mirrors cancel most of
    the seed-to-seed change in the work of a pass; the seed still moves
    every point.
    """
    rng = random.Random(seed)
    lo, hi = math.log(SWEEP_MAG[0]), math.log(SWEEP_MAG[1])
    points = []
    for i in range(SWEEP_CELLS):
        r, s = rng.random(), rng.random()
        for u, v in ((r, s), (1.0 - r, 1.0 - s)):
            mag = math.exp(lo + (hi - lo) * (i + u) / SWEEP_CELLS)
            arg = SWEEP_ARG * (2.0 * ((SWEEP_LATTICE * i) % SWEEP_CELLS + v) / SWEEP_CELLS - 1.0)
            points.append(cmath.rect(mag, arg))
    return points


def hires() -> list[Invocation]:
    return [
        _compare(
            ("geometry.n=1024", "scheme.names=em, em_sub", "physics.sigma1_re=2.0",
             "physics.sigma1_im=0.0", "scheme.tol=1e-8"),
            schemes=("em", "em_sub"),
            n=1024,
        )
    ]


def sweep(points: list[complex]) -> list[Invocation]:
    """The shipped compare.cfg, then the points, cells alternating in geometry."""
    invocations = [_compare()]
    for i, sigma1 in enumerate(points):
        square = (i // 2) % 2 == 0
        geometry = () if square else ("geometry.kind=disk", f"geometry.radius={DISK_RADIUS!r}")
        invocations.append(
            _compare(geometry + _sigma1_overrides(sigma1), sigma1=sigma1, square=square)
        )
    return invocations


def insulating() -> list[Invocation]:
    slow = ("scheme.tol=1e-8", "scheme.max_iters=400")
    return [
        Invocation("solve", "configs/benchmark.cfg", (), ("em_sub",), 0.0, True, 128),
        # em refuses sigma1 = 0 by design (BranchCutError), so it sits out here
        _compare(("physics.sigma1_re=0.0", "scheme.names=basic, basic_sub, em_sub") + slow,
                 schemes=("basic", "basic_sub", "em_sub"), sigma1=0.0),
        _compare(("physics.sigma1_re=0.02",) + slow, sigma1=0.02),
    ]


WORKLOADS = ("hires", "sweep", "insulating")
SMOKE_N = 32
SMOKE_MAX_ITERS = 20


def build(name: str, seed: int, smoke: bool = False) -> tuple[list[Invocation], list[complex]]:
    """The invocations of workload ``name`` and the sweep points drawn for it.

    ``smoke`` shrinks every invocation to n = SMOKE_N, at most
    SMOKE_MAX_ITERS iterations and a single sweep point, for the harness
    test.
    """
    points = sweep_points(seed)[: 1 if smoke else None] if name == "sweep" else []
    if name == "hires":
        invocations = hires()
    elif name == "sweep":
        invocations = sweep(points)
    else:
        invocations = insulating()
    if smoke:
        shrink = (f"geometry.n={SMOKE_N}", f"scheme.max_iters={SMOKE_MAX_ITERS}")
        invocations = [replace(i, overrides=i.overrides + shrink, n=SMOKE_N) for i in invocations]
    return invocations, points
