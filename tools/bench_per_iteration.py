"""Milliseconds per iteration of the four schemes, 2-D FFTs per iteration, and peak memory.

Each scheme runs the 25% square array at sigma1 = 2 with an unreachable
tolerance, so every run does exactly ITERS = 30 iterations; the time per
iteration is the median over ``--repeats`` runs of wall time divided by
iterations. 2-D FFTs are counted by wrapping the ``numpy.fft`` 2-D and
n-D transforms on a small grid: the count per iteration is the
difference between a run of ITERS and one of ITERS - 10
iterations, divided by 10, and a transform of a (2, ny, nx) stack counts
as two. The peak is the ``tracemalloc`` peak, in MB, of a solve of
PEAK_ITERS = 5 iterations, taken after an untraced warm-up solve so that
cached wave vectors do not count.

``cpus`` is the number of CPUs the process may run on; on two or more,
passes over large grids split across two threads. The single-thread
baseline ``ms_per_iteration_one_cpu`` is timed the same way in a child
process pinned to one of them (``--one-cpu``), where no pass splits.

    PYTHONPATH=src python tools/bench_per_iteration.py --sizes 128 512 1024

prints one JSON object to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from fftcond import SchemeKind, SolverConfig, SpectralInterval, build_square_array, solve

INTERVAL = SpectralInterval(0.25, 4.0)
ITERS = 30
PEAK_ITERS = 5


def _config(scheme: SchemeKind, iters: int = ITERS) -> SolverConfig:
    return SolverConfig(
        scheme=scheme,
        sigma1=2.0,
        interval=INTERVAL if scheme.substituted else None,
        tol=1e-300,
        max_iters=iters,
    )


def ms_per_iteration(scheme: SchemeKind, n: int, repeats: int) -> float:
    pmap = build_square_array(n, 0.5)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = solve(pmap, _config(scheme))
        elapsed = time.perf_counter() - start
        if result.iterations != ITERS:
            raise RuntimeError(f"{scheme.value} stopped early: {result.status.value}")
        samples.append(1e3 * elapsed / ITERS)
    return statistics.median(samples)


def ffts_per_iteration(scheme: SchemeKind, n: int = 16) -> float:
    names = ("fft2", "ifft2", "fftn", "ifftn")
    originals = {name: getattr(np.fft, name) for name in names}
    count = 0

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            nonlocal count
            count += a.shape[0] if a.ndim == 3 else 1
            return fn(a, *args, **kwargs)

        return wrapper

    pmap = build_square_array(n, 0.5)
    totals = []
    for name, fn in originals.items():
        setattr(np.fft, name, counted(fn))
    try:
        for k in (ITERS - 10, ITERS):
            count = 0
            solve(pmap, _config(scheme, k))
            totals.append(count)
    finally:
        for name, fn in originals.items():
            setattr(np.fft, name, fn)
    return (totals[1] - totals[0]) / 10


def peak_mb(scheme: SchemeKind, n: int) -> float:
    pmap = build_square_array(n, 0.5)
    solve(pmap, _config(scheme, PEAK_ITERS))
    tracemalloc.start()
    try:
        solve(pmap, _config(scheme, PEAK_ITERS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def ms_table(sizes: list[int], repeats: int) -> dict:
    return {
        str(n): {
            scheme.value: round(ms_per_iteration(scheme, n, repeats), 2) for scheme in SchemeKind
        }
        for n in sizes
    }


def one_cpu_ms_table(sizes: list[int], repeats: int) -> dict:
    """:func:`ms_table` from a child process pinned to one CPU."""
    argv = [sys.executable, __file__, "--one-cpu", "--repeats", str(repeats), "--sizes"]
    child = subprocess.run(
        argv + [str(n) for n in sizes], capture_output=True, text=True, check=True
    )
    return json.loads(child.stdout)["ms_per_iteration"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 512, 1024])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--one-cpu", action="store_true", help="pin to one CPU and report ms_per_iteration only"
    )
    args = parser.parse_args(argv)
    if args.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        print(json.dumps({"ms_per_iteration": ms_table(args.sizes, args.repeats)}))
        return 0
    report = {"cpus": len(os.sched_getaffinity(0)), "ffts_per_iteration": {}}
    for scheme in SchemeKind:
        report["ffts_per_iteration"][scheme.value] = ffts_per_iteration(scheme)
    report["ms_per_iteration"] = ms_table(args.sizes, args.repeats)
    report["ms_per_iteration_one_cpu"] = one_cpu_ms_table(args.sizes, args.repeats)
    report["peak_mb"] = {
        str(n): {scheme.value: round(peak_mb(scheme, n), 1) for scheme in SchemeKind}
        for n in args.sizes
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
