"""fftcond benchmark: drives ``fftcond.cli.main`` on one workload and prints metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {hires,sweep,insulating} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics: fresh-process set-up time,
untraced passes repeated for ``--seconds`` (at least one), then one
untimed pass under ``tracemalloc`` for peak memory. ``--trace 1`` runs
one untraced pass, then traced passes for ``--seconds`` (at least one),
and prints the per-layer metrics. Every solve is checked (see ``gate``),
and every artifact is hashed and compared across the passes of the run.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (counted in solves) and ``metrics``.

Artifacts, spans and a full record of each run go to ``perfbench/.work``.
"""

import os

# One process, one thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cmath  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from hooks import Probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REQUIRED = ("src/fftcond/__init__.py", "configs/compare.cfg", "configs/benchmark.cfg")

SETUP_REPS = 5  # timed fresh processes, after one untimed warm-up spawn
OBNOSOV_GATE = 1e-3  # a converged solve on the square array further off fails
AGREE_GATE = 1e-6  # converged schemes at one point further apart fail
RATE_WINDOW = 10  # residual window of the tail rate, as the CLI uses
EPS = 2.0**-52  # floor for the digit metrics: agreement to the last bit

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "iterations": "count",
    "peak_mb": "MB",
    "obnosov_digits": "digits",
    "scheme_agree_digits": "digits",
    "converged_frac": "ratio",
}
MS_PER_ITER_SCHEMES = ("em", "em_sub")  # the schemes every workload runs
PER_LAYER = {
    "spectral_ops.fft.calls": "count",
    "spectral_ops.fft.self_s": "s",
    "spectral_ops.fft.gflop_s_computed": "GFLOP/s",
    "spectral_ops.local_A.calls": "count",
    "spectral_ops.local_A.self_s": "s",
    "spectral_ops.reduce.calls": "count",
    "spectral_ops.reduce.self_s": "s",
    "solvers.loop_self_s": "s",
    **{f"solvers.ms_per_iter.{s}": "ms" for s in MS_PER_ITER_SCHEMES},
    **{f"solvers.iters.{s}": "count" for s in MS_PER_ITER_SCHEMES},
    "solvers.settled_iter_frac": "ratio",
    "solvers.rate_vs_predicted": "ratio",
    "geometry.build_s": "s",
    "cli.overhead_s": "s",
    "cli.artifact_bytes": "bytes",
}
NOTES = (
    "FLOP figures are computed (4 FFTs of 5 N log2 N each per projection), not counted "
    "by hardware; no bandwidth or roofline claim is made.",
    "The array >= 4x last-level-cache rule cannot be met where the L3 is larger than "
    "the largest field (a (2, 1024, 1024) complex field is 32 MiB).",
)


def _die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


@dataclass
class Pass:
    times: list  # per invocation: wall seconds of fftcond.cli.main
    solves: list  # per invocation: list of hooks.Solve
    codes: list  # per invocation: CLI exit code, or the exception it raised
    artifacts: list  # per invocation: {file name: sha256}
    artifact_bytes: int
    probe: object  # hooks.Probe

    @property
    def wall_s(self) -> float:
        return sum(self.times)

    @property
    def iterations(self) -> int:
        return sum(s.iterations for solves in self.solves for s in solves)


def run_pass(invocations, trace: bool) -> Pass:
    """Run every invocation once through ``fftcond.cli.main``."""
    from fftcond import cli

    gc.collect()
    times, solves, codes, artifacts, nbytes = [], [], [], [], 0
    with Probe(trace) as probe:
        for i, inv in enumerate(invocations):
            out = WORK / f"inv{i}"
            out.mkdir(parents=True, exist_ok=True)
            for stale in out.iterdir():
                stale.unlink()
            argv = inv.argv(ROOT, out)
            first = len(probe.solves)
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    code = cli.main(argv)
            except Exception as exc:  # the gate counts it as failed; keep measuring
                code = repr(exc)
            times.append(time.perf_counter() - start)
            solves.append(probe.solves[first:])
            codes.append(code)
            hashes = {}
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                hashes[path.name] = hashlib.sha256(data).hexdigest()
                nbytes += len(data)
            artifacts.append(hashes)
    return Pass(times, solves, codes, artifacts, nbytes, probe)


def timed_passes(invocations, seconds: float, trace: bool) -> list:
    """Passes until ``seconds`` have elapsed; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(invocations, trace))
    return passes


def memory_pass(invocations) -> tuple[float, Pass]:
    """An untimed pass under tracemalloc; returns its peak in MB and the pass."""
    tracemalloc.start()
    try:
        result = run_pass(invocations, trace=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6, result


def measure_setup(invocations) -> list[float]:
    """Seconds per fresh process that does the workload's set-up (setup_probe.py)."""
    spec = json.dumps([[inv.config, list(inv.overrides)] for inv in invocations])
    cmd = [sys.executable, str(HERE / "setup_probe.py"), spec]
    times = []
    for rep in range(SETUP_REPS + 1):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls on a coarse sleep schedule
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if rep:  # the first spawn only warms the file and bytecode caches
            times.append(time.perf_counter() - start)
    return times


@dataclass
class Verdict:
    failed: set  # (invocation index, scheme) pairs
    reasons: list
    attempted: int
    converged: int
    errs: list  # relative error against obnosov, converged square-array solves
    spreads: list  # relative spread of the converged schemes, per point


def gate(invocations, p: Pass, reference: Pass) -> Verdict:
    """Check one pass: statuses, finite results, obnosov, scheme agreement,
    CLI exit codes, and artifacts byte-identical to ``reference``."""
    from fftcond.analysis import obnosov

    failed, reasons = set(), []
    attempted = converged = 0
    errs, spreads = [], []

    def fail(i, schemes, why):
        failed.update((i, s) for s in schemes)
        reasons.append(f"invocation {i} {'/'.join(schemes)}: {why}")

    for i, inv in enumerate(invocations):
        attempted += len(inv.schemes)
        by_scheme = {s.scheme: s for s in p.solves[i]}
        done = []
        for name in inv.schemes:
            s = by_scheme.get(name)
            if s is None:
                fail(i, [name], "did not run")
            elif s.error is not None:
                fail(i, [name], f"raised {s.error}")
            elif not cmath.isfinite(s.sigma_star):
                fail(i, [name], f"non-finite sigma_star {s.sigma_star}")
            elif s.status == "Converged":
                done.append(s)
        converged += len(done)
        if inv.square:
            exact = obnosov(inv.sigma1)
            for s in done:
                err = abs(s.sigma_star - exact) / abs(exact)
                errs.append(err)
                if err > OBNOSOV_GATE:
                    fail(i, [s.scheme], f"relative error {err:.3g} against obnosov")
        if len(done) >= 2:
            stars = [s.sigma_star for s in done]
            scale = max(abs(z) for z in stars)
            spread = max(abs(a - b) for a in stars for b in stars) / scale if scale else 0.0
            spreads.append(spread)
            if spread > AGREE_GATE:
                fail(i, [s.scheme for s in done], f"schemes disagree by {spread:.3g}")
        expected_code = 0 if len(done) == len(inv.schemes) else 1
        if p.codes[i] != expected_code:
            fail(i, inv.schemes, f"exit code {p.codes[i]!r}, expected {expected_code}")
        if p.artifacts[i] != reference.artifacts[i]:
            fail(i, inv.schemes, "artifacts differ between passes")
    return Verdict(failed, reasons, attempted, converged, errs, spreads)


def _digits(rel: float) -> float:
    """Correct decimal digits of a relative difference, floored at 2^-52."""
    return -math.log10(max(rel, EPS))


def _wasted_iterations(history, tol: float) -> int:
    """Iterations run after sigma_star stayed within tol of its final value."""
    stars = history.sigma_stars()
    band = tol * abs(stars[-1])
    first = len(stars)
    while first > 0 and abs(stars[first - 1] - stars[-1]) <= band:
        first -= 1
    return len(stars) - 1 - first


def _rate_ratio(solve) -> float | None:
    from fftcond.analysis import predicted_rate
    from fftcond.errors import BranchCutError, PoleError
    from fftcond.solvers import estimate_rate

    tail = solve.history.residuals()[-(RATE_WINDOW + 1):]
    if len(tail) < RATE_WINDOW + 1 or min(tail) <= 0:
        return None
    cfg = solve.cfg
    try:
        predicted = predicted_rate(cfg.scheme, cfg.sigma1, cfg.interval)
    except (BranchCutError, PoleError, ValueError):
        return None
    return estimate_rate(solve.history, RATE_WINDOW) / predicted if predicted > 0 else None


def layer_metrics(p: Pass) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the per-scheme table."""
    probe = p.probe
    totals = probe.layer_totals()
    m = {}
    for layer in ("spectral_ops.fft", "spectral_ops.local_A", "spectral_ops.reduce"):
        m[f"{layer}.calls"] = totals[layer]["calls"]
        m[f"{layer}.self_s"] = totals[layer]["self_s"]
    fft_s = totals["spectral_ops.fft"]["self_s"]
    m["spectral_ops.fft.gflop_s_computed"] = probe.fft_flops / fft_s / 1e9 if fft_s else 0.0
    m["solvers.loop_self_s"] = totals["solvers"]["self_s"]

    solves = [s for per_inv in p.solves for s in per_inv if s.history is not None]
    table = {}
    for s in solves:
        row = table.setdefault(s.scheme, {"solves": 0, "iters": 0, "seconds": 0.0})
        row["solves"] += 1
        row["iters"] += s.iterations
        row["seconds"] += probe.span_seconds(s.span)
    for row in table.values():
        row["ms_per_iter"] = 1e3 * row["seconds"] / row["iters"] if row["iters"] else 0.0
    for name in MS_PER_ITER_SCHEMES:
        row = table.get(name, {"ms_per_iter": 0.0, "iters": 0})
        m[f"solvers.ms_per_iter.{name}"] = row["ms_per_iter"]
        m[f"solvers.iters.{name}"] = row["iters"]
    total_iters = sum(s.iterations for s in solves)
    wasted = sum(_wasted_iterations(s.history, s.cfg.tol) for s in solves)
    m["solvers.settled_iter_frac"] = wasted / total_iters if total_iters else 0.0
    ratios = [r for r in map(_rate_ratio, solves) if r is not None]
    m["solvers.rate_vs_predicted"] = statistics.median(ratios) if ratios else 0.0
    m["geometry.build_s"] = totals["geometry"]["self_s"]
    m["cli.overhead_s"] = totals["cli"]["self_s"]
    m["cli.artifact_bytes"] = p.artifact_bytes
    return m, table


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


def provenance(args, points) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "sweep_sigma1": [[z.real, z.imag] for z in points],
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "l3": _l3_size(),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "notes": list(NOTES),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="shrunk workloads for the harness test")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        return _die(f"not a fftcond checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    import fftcond

    if not Path(fftcond.__file__).resolve().is_relative_to(ROOT / "src"):
        return _die(f"fftcond imported from {fftcond.__file__}, not from this checkout")
    from fftcond.spectral_ops import VectorField, gamma1

    invocations, points = workloads.build(args.workload, args.seed, smoke=args.smoke)
    WORK.mkdir(exist_ok=True)
    record = {"provenance": provenance(args, points)}

    for n in sorted({inv.n for inv in invocations}):
        gamma1(VectorField.zeros(n, n))  # warm the FFT plan and wave-vector cache

    if args.trace == 0:
        setup = measure_setup(invocations)
        timed = timed_passes(invocations, args.seconds, trace=False)
        peak_mb, mem = memory_pass(invocations)
        passes = timed + [mem]
    else:
        untraced = run_pass(invocations, trace=False)
        traced = timed_passes(invocations, args.seconds, trace=True)
        passes = [untraced] + traced

    verdicts = [gate(invocations, p, passes[0]) for p in passes]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(len(v.failed) for v in verdicts)
    first = verdicts[0]

    if args.trace == 0:
        walls = [p.wall_s for p in timed]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "iterations": timed[0].iterations,
            "peak_mb": peak_mb,
            # the mean over solves: the worst one jumps with the seeded points
            "obnosov_digits": statistics.fmean(map(_digits, first.errs)) if first.errs else 0.0,
            "scheme_agree_digits": _digits(max(first.spreads)) if first.spreads else 0.0,
            "converged_frac": first.converged / first.attempted,
        }
        units = END_TO_END
        record["wall_s"] = _quartiles(walls)
        record["invocation_s"] = [p.times for p in timed]
        record["setup_s"] = _quartiles(setup)
        record["rel_err"] = first.errs
        record["scheme_spread"] = first.spreads
    else:
        per_pass = [layer_metrics(p) for p in traced]
        values = {
            name: per_pass[0][0][name] if unit in ("count", "bytes", "ratio")
            else statistics.median(m[name] for m, _ in per_pass)
            for name, unit in PER_LAYER.items()
        }
        units = PER_LAYER
        record["schemes"] = per_pass[0][1]
        record["trace_overhead_s"] = statistics.median(p.wall_s for p in traced) - untraced.wall_s
        record["absent_hooks"] = traced[0].probe.absent
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
        spans_path.write_text("pass,index,layer,start_ns,end_ns,parent\n")
        for k, p in enumerate(traced):
            p.probe.dump_spans(spans_path, k)
        record["spans"] = str(spans_path.relative_to(ROOT))
    record["failures"] = sorted({r for v in verdicts for r in v.reasons})
    record["converged"] = f"{first.converged}/{first.attempted}"

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    for name, unit in units.items():
        print(f"{args.workload:>10}  {name:<36} {values[name]:>14.6g} {unit}")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
