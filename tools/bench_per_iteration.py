"""Milliseconds, 2-D FFTs and Python calls per iteration of the four schemes, and peak memory.

Each scheme runs the 25% square array at sigma1 = 2, which solves in
real arithmetic, with an unreachable tolerance, so every run does
exactly ITERS = 30 iterations; the time per iteration is the median over
``--repeats`` runs of wall time divided by iterations. The ``_complex``
entries repeat the timing and the peak at sigma1 = COMPLEX_SIGMA1, which
solves in complex arithmetic. Every run keeps the accelerated update on
the recursion for div r_Q (:func:`update_mode`), which a solve uses
until its residual falls below ``solvers._EXACT_BELOW``; those runs
would reach it within their ITERS iterations. 2-D FFTs are counted by
wrapping the ``numpy.fft`` transforms, complex and real, on a small
grid: the count
per iteration is the difference between a run of ITERS and one of
ITERS - 10 iterations, divided by 10. Each call counts the share of the
grid it transforms: a 2-D or n-D call on one grid counts as one
transform, on a (2, ny, nx) stack as two, and a 1-D pass over one axis
as half of one times the share of the rows or columns it covers, so
the inverse real FFT, a column ``ifft`` and then a row ``irfft``,
counts as one, and so does a transform whose passes split in halves.
``ffts_per_iteration_exact`` counts the update that forms div r_Q in
real space instead, as a solve does below ``solvers._EXACT_BELOW``. The
peak is the ``tracemalloc`` peak, in MB, of a solve of PEAK_ITERS = 5
iterations, taken after an untraced warm-up solve so that the cached
Green table does not count. ``calls_per_iteration`` (and
``calls_per_iteration_complex``, at COMPLEX_SIGMA1) counts the
Python-level calls of an iteration at n = CALLS_N, the function calls and
the calls of built-in functions and methods that ``cProfile`` sees: the
calls of a solve of ITERS iterations less those of one of ITERS - 10,
divided by 10, after an unprofiled warm-up solve, as the
first solve of a process also builds its tables. The counter is
``tools/ab_trees.py``'s, so the two tools count alike. These solves run as a
solve does, the accelerated update switching to the exact one below
``solvers._EXACT_BELOW``. The count repeats exactly from run to run.

``cpus`` is the number of CPUs the process may run on; on two or more,
passes over large grids split across two threads. The single-thread
baseline ``ms_per_iteration_one_cpu`` is timed the same way in a child
process pinned to one of them (``--one-cpu``), where no pass splits.

    PYTHONPATH=src python tools/bench_per_iteration.py --sizes 128 512 1024

prints one JSON object to stdout. With ``--green`` it compares the
rotated Green operator that every solve uses with the spectral reference
table (``spectral_ops._spectral_table``, put in place of the rotated one
for its rows) instead: for each scheme, sigma1 in GREEN_SIGMA1 and n in
GREEN_SIZES, the status, iterations, tail rate over the last RATE_WINDOW
residuals, ``predicted_rate`` and the relative error against ``obnosov``
of a solve at tol 1e-8 (sigma1 = 0) or 1e-10, at most GREEN_MAX_ITERS
iterations; and, at each of ``--sizes``, ms per iteration and the peak
of each scheme, measured on one operator and then the other.

    PYTHONPATH=src python tools/bench_per_iteration.py --green --sizes 1024
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import fftcond
from fftcond import (
    SchemeKind,
    SolverConfig,
    SpectralInterval,
    build_square_array,
    obnosov,
    predicted_rate,
    solve,
)
import fftcond.solvers as solvers
import fftcond.spectral_ops as spectral_ops
from fftcond.solvers import _tail_rate

# the one calls-per-iteration counter, shared with tools/ab_trees.py
sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab_trees  # noqa: E402

INTERVAL = SpectralInterval(0.25, 4.0)
COMPLEX_SIGMA1 = 0.7 + 0.4j
ITERS = 30
PEAK_ITERS = 5
CALLS_N = 128
GREEN_SIGMA1 = (0.0, 2.0, 10.0, 0.3 + 0.5j)
GREEN_SIZES = (64, 128, 256)
GREEN_MAX_ITERS = 300
RATE_WINDOW = 5
GREEN_OPERATORS = ("rotated", "spectral")


@contextlib.contextmanager
def green_operator(green: str):
    """gamma1 reads the table of ``green``, one of GREEN_OPERATORS, inside the block."""
    rotated = spectral_ops._green_table
    if green == "spectral":
        spectral_ops._green_table = spectral_ops._spectral_table
    try:
        yield
    finally:
        spectral_ops._green_table = rotated


@contextlib.contextmanager
def update_mode(exact: bool):
    """Inside the block the accelerated update forms div r_Q in real space from
    its first iteration (``exact``) or never, whatever the residual."""
    saved = getattr(solvers, "_EXACT_BELOW", None)
    solvers._EXACT_BELOW = math.inf if exact else 0.0
    try:
        yield
    finally:
        if saved is None:
            del solvers._EXACT_BELOW
        else:
            solvers._EXACT_BELOW = saved


def _config(scheme: SchemeKind, iters: int = ITERS, sigma1: complex = 2.0) -> SolverConfig:
    return SolverConfig(
        scheme=scheme,
        sigma1=sigma1,
        interval=INTERVAL if scheme.substituted else None,
        tol=1e-300,
        max_iters=iters,
    )


def ms_per_iteration(scheme: SchemeKind, n: int, repeats: int, sigma1: complex = 2.0) -> float:
    pmap = build_square_array(n, 0.5)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        with update_mode(exact=False):
            result = solve(pmap, _config(scheme, sigma1=sigma1))
        elapsed = time.perf_counter() - start
        if result.iterations != ITERS:
            raise RuntimeError(f"{scheme.value} stopped early: {result.status.value}")
        samples.append(1e3 * elapsed / ITERS)
    return statistics.median(samples)


# the numpy.fft transforms the counter wraps, with the 2-D transforms
# each call makes per grid: a 1-D pass over one axis is half of one
FFT_WEIGHTS = {
    **dict.fromkeys(("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn"), 1.0),
    **dict.fromkeys(("fft", "ifft", "rfft", "irfft"), 0.5),
}


def ffts_per_iteration(
    scheme: SchemeKind, n: int = 16, sigma1: complex = 2.0, exact: bool = False
) -> float:
    """2-D FFTs per iteration on an n x n grid, each call weighted by the share it transforms.

    A call's share is the size of its input over that of the whole array
    of its kind: the half spectrum, n (n//2 + 1), for the inverse real
    transforms and, in real arithmetic, for the column passes between
    them; the grid, n n, otherwise.
    """
    originals = {name: getattr(np.fft, name) for name in FFT_WEIGHTS}
    real = complex(sigma1).imag == 0
    half = n * (n // 2 + 1)
    shares = []

    def counted(fn, name):
        spectrum = name.startswith("irfft") or (real and name in ("fft", "ifft"))

        def wrapper(a, *args, **kwargs):
            # list.append is atomic, so the two threads of a split count alike
            shares.append(FFT_WEIGHTS[name] * a.size / (half if spectrum else n * n))
            return fn(a, *args, **kwargs)

        return wrapper

    pmap = build_square_array(n, 0.5)
    totals = []
    for name, fn in originals.items():
        setattr(np.fft, name, counted(fn, name))
    try:
        for k in (ITERS - 10, ITERS):
            shares.clear()
            with update_mode(exact):
                solve(pmap, _config(scheme, k, sigma1))
            totals.append(sum(shares))
    finally:
        for name, fn in originals.items():
            setattr(np.fft, name, fn)
    return round((totals[1] - totals[0]) / 10, 6)


def calls_per_iteration(scheme: SchemeKind, n: int = CALLS_N, sigma1: complex = 2.0) -> float:
    """Python-level calls per iteration on the n x n square, as cProfile counts them: the
    counter of ``tools/ab_trees.py``, on this package."""
    pmap = build_square_array(n, 0.5)
    return ab_trees.calls_per_iteration(fftcond, pmap, scheme.value, sigma1)


def peak_mb(scheme: SchemeKind, n: int, sigma1: complex = 2.0) -> float:
    pmap = build_square_array(n, 0.5)
    solve(pmap, _config(scheme, PEAK_ITERS, sigma1))
    tracemalloc.start()
    try:
        with update_mode(exact=False):
            solve(pmap, _config(scheme, PEAK_ITERS, sigma1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def ms_table(sizes: list[int], repeats: int, sigma1: complex = 2.0) -> dict:
    return {
        str(n): {
            scheme.value: round(ms_per_iteration(scheme, n, repeats, sigma1), 2)
            for scheme in SchemeKind
        }
        for n in sizes
    }


def peak_table(sizes: list[int], sigma1: complex = 2.0) -> dict:
    return {
        str(n): {scheme.value: round(peak_mb(scheme, n, sigma1), 1) for scheme in SchemeKind}
        for n in sizes
    }


def one_cpu_ms_table(sizes: list[int], repeats: int) -> dict:
    """:func:`ms_table` from a child process pinned to one CPU."""
    argv = [sys.executable, __file__, "--one-cpu", "--repeats", str(repeats), "--sizes"]
    child = subprocess.run(
        argv + [str(n) for n in sizes], capture_output=True, text=True, check=True
    )
    return json.loads(child.stdout)["ms_per_iteration"]


def _complex_json(z: complex):
    return z.real if z.imag == 0 else [z.real, z.imag]


def convergence_row(scheme: SchemeKind, sigma1: complex, n: int, green: str) -> dict:
    """One solve of the 25% square: how it ended, how fast, and how far from obnosov."""
    cfg = SolverConfig(
        scheme=scheme,
        sigma1=sigma1,
        interval=INTERVAL if scheme.substituted else None,
        tol=1e-8 if sigma1 == 0 else 1e-10,
        max_iters=GREEN_MAX_ITERS,
    )
    row = {"green": green, "scheme": scheme.value, "sigma1": _complex_json(sigma1), "n": n}
    try:
        with green_operator(green):
            result = solve(build_square_array(n, 0.5), cfg)
    except ValueError as exc:
        return {**row, "status": type(exc).__name__}
    rate = _tail_rate(result.history, RATE_WINDOW)
    exact = obnosov(sigma1)
    return {
        **row,
        "status": result.status.value,
        "iterations": result.iterations,
        "tail_rate": None if rate is None else round(rate, 4),
        "predicted_rate": round(predicted_rate(scheme, sigma1, cfg.interval), 4),
        "rel_err_obnosov": float(f"{abs(result.sigma_star - exact) / abs(exact):.2e}"),
    }


def green_report(sizes: list[int], repeats: int) -> dict:
    rows = [
        convergence_row(scheme, sigma1, n, green)
        for n in GREEN_SIZES
        for sigma1 in GREEN_SIGMA1
        for scheme in SchemeKind
        for green in GREEN_OPERATORS
    ]
    ms = {green: {str(n): {} for n in sizes} for green in GREEN_OPERATORS}
    peak = {green: {str(n): {} for n in sizes} for green in GREEN_OPERATORS}
    for n in sizes:
        for scheme in SchemeKind:
            for green in GREEN_OPERATORS:
                with green_operator(green):
                    ms[green][str(n)][scheme.value] = round(ms_per_iteration(scheme, n, repeats), 2)
                    peak[green][str(n)][scheme.value] = round(peak_mb(scheme, n), 1)
    return {
        "cpus": spectral_ops._cpus(),
        "convergence": rows,
        "ms_per_iteration": ms,
        "peak_mb": peak,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 512, 1024])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--one-cpu", action="store_true", help="pin to one CPU and report ms_per_iteration only"
    )
    parser.add_argument(
        "--green", action="store_true", help="compare the rotated and spectral Green operators"
    )
    args = parser.parse_args(argv)
    if args.green:
        print(json.dumps(green_report(args.sizes, args.repeats), indent=1))
        return 0
    if args.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        print(json.dumps({"ms_per_iteration": ms_table(args.sizes, args.repeats)}))
        return 0
    report = {
        "cpus": spectral_ops._cpus(),
        "complex_sigma1": [COMPLEX_SIGMA1.real, COMPLEX_SIGMA1.imag],
        "calls_per_iteration": {s.value: calls_per_iteration(s) for s in SchemeKind},
        "calls_per_iteration_complex": {
            s.value: calls_per_iteration(s, sigma1=COMPLEX_SIGMA1) for s in SchemeKind
        },
        "ffts_per_iteration": {s.value: ffts_per_iteration(s) for s in SchemeKind},
        "ffts_per_iteration_complex": {
            s.value: ffts_per_iteration(s, sigma1=COMPLEX_SIGMA1) for s in SchemeKind
        },
        "ffts_per_iteration_exact": {s.value: ffts_per_iteration(s, exact=True) for s in SchemeKind},
        "ms_per_iteration": ms_table(args.sizes, args.repeats),
        "ms_per_iteration_complex": ms_table(args.sizes, args.repeats, COMPLEX_SIGMA1),
        "ms_per_iteration_one_cpu": one_cpu_ms_table(args.sizes, args.repeats),
        "peak_mb": peak_table(args.sizes),
        "peak_mb_complex": peak_table(args.sizes, COMPLEX_SIGMA1),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
