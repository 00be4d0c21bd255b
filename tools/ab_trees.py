"""Two source trees of fftcond side by side in one process: time ratios, calls and bits.

Each tree's package is loaded under a name of its own (``fftcond_a`` and
``fftcond_b``) through ``importlib.util.spec_from_file_location``; the
package imports its modules relatively, so each tree runs its own code.
A tree is a repository root, whose package is ``src/fftcond``, or the
package directory itself.

The default run times the two trees against each other. For each of the
four schemes, each n of ``--sizes`` and each sigma1 of SIGMA1 (real,
which solves in real arithmetic, and complex) on the 25% square, it
makes a warm-up solve in each tree and then ``--rounds`` rounds of one
solve of ITERS iterations (an unreachable tolerance) in each tree,
the tree that goes first alternating from round to round. It reports,
per case, the minimum and median of the ratio b/a of the two solves'
wall times in a round, the share of rounds each side was faster, and
the Python-level calls per iteration of each tree: the calls ``cProfile``
counts in a solve of ITERS iterations less those of one of ITERS - 10,
divided by 10, after the warm-up solve (:func:`calls_per_iteration`, the
counter ``tools/bench_per_iteration.py`` imports). One more solve of each case is
compared across the trees: status, iterations, sigma*, and the SHA-256
of the residual history, of ``E_field`` and ``J_field`` and, for a
substituted scheme, of the S and T slots of ``aug_field``.

With ``--bits`` it times nothing and compares the trees on the grid of
BITS_* cases instead, each with the split of large-grid passes forced
across two threads and not: the same fields of each solve, an exception
by its type and message, and the bytes of the public operators on its
result (``gamma1`` of E and J, ``equilibrium_residual`` of J and, for a
substituted scheme, ``equilibrium_residual_aug`` of the augmented flux,
``extract_sigma_star_aug`` and ``recover_physical_fields``). It then runs
each command line of CLI_CASES as ``python -m fftcond.cli`` once per
tree, in a fresh directory that holds a copy of the case's shipped
config from the tree's ``configs`` and the raster ``cell.txt``, with
``PYTHONPATH`` set to the tree's ``src`` alone, and compares the exit
code, stdout, stderr and the SHA-256 of each file the run wrote; the
tree's path and the run's directory are masked in the text.

    python tools/ab_trees.py PARENT_TREE CHANGED_TREE --rounds 10
    python tools/ab_trees.py PARENT_TREE CHANGED_TREE --bits

prints one JSON object to stdout, with every difference of bits, status
or iterations listed under ``differences``, and exits 1 when there is
one. With ``--bits`` its ``summary`` lists under ``moved`` the solves
whose status or iteration count differs, and under
``sigma_star_rel_change``, per status, the largest relative change of
sigma* among the solves that keep their status and count, with its case.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ALIASES = ("fftcond_a", "fftcond_b")
SIGMA1 = (2.0, 0.7 + 0.4j)
ITERS = 30
INTERVAL = (0.25, 4.0)
BITS_GEOMETRIES = ("square", "disk")
BITS_SIZES = (32, 128)
BITS_SIGMA1 = (2.0, 0.7 + 0.4j, 0.0, 1e3, 0.02, 5 - 3j, 1e-3)
BITS_TOLS = (1e-10, 1e-13)
BITS_MAX_ITERS = 600

# (name, command, shipped config, overrides) run in both trees by --bits
_N32 = ("geometry.n=32",)
_DISK = ("geometry.kind=disk", "geometry.radius=0.35")
CLI_CASES = (
    ("compare_square", "compare", "compare.cfg", _N32),
    ("compare_disk_complex", "compare", "compare.cfg", _N32 + _DISK + ("physics.sigma1_im=0.4",)),
    ("compare_insulating_em_error", "compare", "compare.cfg",
     _N32 + ("physics.sigma1_re=0", "scheme.max_iters=50")),
    ("compare_negative", "compare", "compare.cfg",
     _N32 + ("physics.sigma1_re=-2", "scheme.max_iters=50")),
    ("solve_fields", "solve", "benchmark.cfg", _N32 + ("output.fields_npz=fields.npz",)),
    ("contours_em_sub", "contours", "contours.cfg", ()),
    ("contours_basic", "contours", "contours.cfg", ("scheme.name=basic",)),
    ("selftest", "selftest", None, ()),
    ("solve_max_iters", "solve", "benchmark.cfg", _N32 + ("scheme.max_iters=3",)),
    ("solve_sigma0_im", "solve", "benchmark.cfg",
     _N32 + ("scheme.name=em", "physics.sigma1_re=2", "scheme.sigma0_im=0.5")),
    ("solve_degenerate", "solve", "benchmark.cfg",
     _N32 + ("scheme.name=basic", "physics.sigma1_re=-1")),
    ("solve_disk", "solve", "benchmark.cfg", _N32 + _DISK + ("physics.sigma1_re=2",)),
    ("solve_raster", "solve", "benchmark.cfg",
     ("geometry.kind=raster", "geometry.path=cell.txt", "scheme.name=basic", "physics.sigma1_re=2")),
    ("reject_max_iters", "solve", "benchmark.cfg", ("scheme.max_iters=0",)),
    ("reject_interval", "solve", "benchmark.cfg", ("scheme.alpha=5",)),
    ("reject_window_order", "contours", "contours.cfg", ("contours.re_min=5",)),
    ("reject_resolution", "contours", "contours.cfg", ("contours.nr=0",)),
    ("reject_contours_sigma0", "contours", "contours.cfg", ("scheme.sigma0_re=0.5",)),
    ("solve_missing_output_dir", "solve", "benchmark.cfg",
     _N32 + ("output.result_json=missing/r.json",)),
    ("compare_missing_output_dir", "compare", "compare.cfg",
     _N32 + ("output.summary_csv=missing/s.csv",)),
    ("solve_fields_dat", "solve", "benchmark.cfg", _N32 + ("output.fields_npz=fields.dat",)),
)
CLI_RASTER = "P-PHASE 8 8\n" + "0 0 0 0 0 0 0 0\n" * 2 + "0 0 1 1 1 0 0 0\n" * 3 + "0 0 0 0 0 0 0 0\n" * 3


def load_tree(tree: str | Path, alias: str):
    """The fftcond package of ``tree`` imported as the module ``alias``."""
    tree = Path(tree).resolve()
    for package in (tree / "src" / "fftcond", tree):
        if (package / "__init__.py").is_file():
            break
    else:
        raise FileNotFoundError(f"no fftcond package in {tree}")
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    # its relative imports look the package up by this name
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def forced_split(pkg, force: bool):
    """Inside the block every pass of ``pkg`` splits across two threads when ``force``."""
    ops = sys.modules[f"{pkg.__name__}.spectral_ops"]
    saved = ops._THREAD_PIXELS, ops._cpus
    if force:
        ops._THREAD_PIXELS, ops._cpus = 1, lambda: 2
    try:
        yield
    finally:
        ops._THREAD_PIXELS, ops._cpus = saved


def _pmap(pkg, geometry: str, n: int):
    return pkg.build_square_array(n, 0.5) if geometry == "square" else pkg.build_disk_array(n, 0.35)


def _config(pkg, scheme: str, sigma1: complex, tol: float, max_iters: int):
    kind = pkg.SchemeKind(scheme)
    return pkg.SolverConfig(
        scheme=kind,
        sigma1=sigma1,
        interval=pkg.SpectralInterval(*INTERVAL) if kind.substituted else None,
        tol=tol,
        max_iters=max_iters,
    )


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _hex(z: complex) -> str:
    z = complex(z)
    return f"{z.real.hex()} {z.imag.hex()}"


def outcome(pkg, pmap, cfg, operators: bool = False) -> dict:
    """What a solve of ``pkg`` gave, as bits: the fields, digests and, with ``operators``,
    the public operators on its result; an exception as its type and message."""
    try:
        return _outcome(pkg, pmap, cfg, operators)
    except Exception as exc:  # both trees must raise alike
        return {"error": f"{type(exc).__name__}: {exc}"}


def _outcome(pkg, pmap, cfg, operators: bool) -> dict:
    r = pkg.solve(pmap, cfg)
    records = [(h.iteration, h.sigma_star.real, h.sigma_star.imag, h.residual) for h in r.history]
    row = {
        "status": r.status.value,
        "iterations": r.iterations,
        "sigma_star": _hex(r.sigma_star),
        "history": _sha(np.array(records, dtype=np.float64)),
        "E_field": _sha(r.E_field.data),
        "J_field": _sha(r.J_field.data),
    }
    aug = r.aug_field
    if aug is not None:
        row["S_T"] = _sha(aug.S.data, aug.T.data)
    if not operators:
        return row
    row["gamma1"] = _sha(pkg.gamma1(r.E_field).data, pkg.gamma1(r.J_field).data)
    row["equilibrium_residual"] = pkg.equilibrium_residual(r.J_field).hex()
    if aug is not None:
        params = pkg.solve_p(cfg.interval)
        t = pkg.map_t(cfg.sigma1, cfg.interval)
        flux = pkg.apply_local_A(aug, t, params, pmap)
        row["equilibrium_residual_aug"] = pkg.equilibrium_residual_aug(flux, pmap).hex()
        row["extract_sigma_star_aug"] = _hex(pkg.extract_sigma_star_aug(aug, t, params, pmap))
        e, j = pkg.recover_physical_fields(aug, t, params, pmap)
        row["recover_physical_fields"] = _sha(e.data, j.data)
    return row


def calls_per_iteration(pkg, pmap, scheme: str, sigma1: complex) -> float:
    """Python-level calls per iteration of ``pkg``'s solve, as cProfile counts them."""
    pkg.solve(pmap, _config(pkg, scheme, sigma1, 1e-300, ITERS))
    totals = []
    for k in (ITERS - 10, ITERS):
        profile = cProfile.Profile()
        profile.runcall(pkg.solve, pmap, _config(pkg, scheme, sigma1, 1e-300, k))
        # per function object: pstats keys by file, line and name, and keeps
        # one of the dataclass __init__s that all read "<string>:2"
        totals.append(sum(entry.callcount for entry in profile.getstats()))
    return (totals[1] - totals[0]) / 10


def _differences(case: dict, rows: tuple) -> list:
    a, b = rows
    return [
        {**case, "field": key, "a": a.get(key), "b": b.get(key)}
        for key in sorted(set(a) | set(b))
        if a.get(key) != b.get(key)
    ]


def timing_case(trees: tuple, scheme: str, n: int, sigma1: complex, rounds: int) -> dict:
    """Alternating timed solves of one case in the two trees, and their calls and bits."""
    pmaps = [_pmap(pkg, "square", n) for pkg in trees]
    configs = [_config(pkg, scheme, sigma1, 1e-300, ITERS) for pkg in trees]
    # its unprofiled solve is the warm-up of the timed ones
    calls = [calls_per_iteration(pkg, pm, scheme, sigma1) for pkg, pm in zip(trees, pmaps)]
    ratios = []
    for k in range(rounds):
        seconds = [0.0, 0.0]
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            trees[side].solve(pmaps[side], configs[side])
            seconds[side] = time.perf_counter() - start
        ratios.append(seconds[1] / seconds[0])
    case = {"scheme": scheme, "n": n, "sigma1": _json_number(sigma1)}
    bits = tuple(outcome(pkg, pm, cfg) for pkg, pm, cfg in zip(trees, pmaps, configs))
    return {
        **case,
        "ratio_min": round(min(ratios), 4),
        "ratio_median": round(statistics.median(ratios), 4),
        "a_wins": sum(r > 1 for r in ratios) / rounds,
        "b_wins": sum(r < 1 for r in ratios) / rounds,
        "calls_per_iteration": {"a": calls[0], "b": calls[1]},
        "differences": _differences(case, bits),
    }


def _record_moves(summary: dict, case: dict, rows: tuple):
    """Adds one case of the bits grid to ``summary``: to ``moved`` when its status and
    iteration count, or its error, differ between the trees, and otherwise its relative
    sigma* change to the largest one of its status in ``sigma_star_rel_change``."""
    ends = [f"{r['status']} {r['iterations']}" if "status" in r else r["error"] for r in rows]
    if ends[0] != ends[1]:
        summary["moved"].append({**case, "a": ends[0], "b": ends[1]})
    elif "status" in rows[0]:
        sa, sb = (complex(*map(float.fromhex, r["sigma_star"].split())) for r in rows)
        change = abs(sb - sa) / (abs(sa) or 1.0)
        status = rows[0]["status"]
        worst = summary["sigma_star_rel_change"].get(status)
        if math.isfinite(change) and (worst is None or change > worst["max"]):
            summary["sigma_star_rel_change"][status] = {"max": change, "case": case}


def bits_cases(trees: tuple, sizes, geometries) -> tuple[dict, list, dict]:
    """Every case of the bits grid in both trees: how many solves of the first tree ended
    in each status or error, the differences, and their summary (:func:`_record_moves`)."""
    statuses, differences = {}, []
    summary = {"moved": [], "sigma_star_rel_change": {}}
    for scheme in (kind.value for kind in trees[0].SchemeKind):
        for geometry in geometries:
            for n in sizes:
                pmaps = [_pmap(pkg, geometry, n) for pkg in trees]
                for sigma1 in BITS_SIGMA1:
                    for tol in BITS_TOLS:
                        for split in (False, True):
                            case = {
                                "scheme": scheme, "geometry": geometry, "n": n,
                                "sigma1": _json_number(sigma1), "tol": tol, "split": split,
                            }
                            rows = []
                            for pkg, pm in zip(trees, pmaps):
                                cfg = _config(pkg, scheme, sigma1, tol, BITS_MAX_ITERS)
                                with forced_split(pkg, split):
                                    rows.append(outcome(pkg, pm, cfg, operators=True))
                            ended = rows[0].get("status", rows[0].get("error"))
                            statuses[ended] = statuses.get(ended, 0) + 1
                            differences += _differences(case, tuple(rows))
                            _record_moves(summary, case, tuple(rows))
    return statuses, differences, summary


def cli_outcome(pkg, case) -> dict:
    """What one command line of CLI_CASES gave with ``pkg``'s tree, flattened for ``_differences``."""
    name, command, config, overrides = case
    src = Path(pkg.__file__).resolve().parent.parent
    argv = [sys.executable, "-m", "fftcond.cli", command]
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        if config:
            shutil.copy(src.parent / "configs" / config, run_dir / config)
            argv.append(config)
        for item in overrides:
            argv += ["--override", item]
        (run_dir / "cell.txt").write_text(CLI_RASTER)
        inputs = set(run_dir.iterdir())
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(argv, cwd=run_dir, env=env, capture_output=True, text=True)

        def masked(text: str) -> str:
            return text.replace(str(src.parent), "<tree>").replace(str(run_dir), "<run>")

        row = {"exit": proc.returncode, "stdout": masked(proc.stdout), "stderr": masked(proc.stderr)}
        for path in sorted(run_dir.rglob("*")):
            if path.is_file() and path not in inputs:
                relative = path.relative_to(run_dir).as_posix()
                row[f"sha256:{relative}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return row


def cli_differences(trees: tuple, cases=CLI_CASES) -> list:
    """The differences of each command line of ``cases`` between the two trees."""
    return [
        d for case in cases
        for d in _differences({"cli": case[0]}, tuple(cli_outcome(pkg, case) for pkg in trees))
    ]


def _json_number(z: complex):
    z = complex(z)
    return z.real if z.imag == 0 else [z.real, z.imag]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the first tree, the reference of the ratios b/a")
    parser.add_argument("b", help="the second tree")
    parser.add_argument("--sizes", type=int, nargs="+", default=None)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--bits", action="store_true", help="compare the bits grid, time nothing")
    args = parser.parse_args(argv)
    trees = tuple(load_tree(tree, alias) for tree, alias in zip((args.a, args.b), ALIASES))
    report = {"a": str(Path(args.a).resolve()), "b": str(Path(args.b).resolve())}
    if args.bits:
        statuses, differences, summary = bits_cases(
            trees, args.sizes or BITS_SIZES, BITS_GEOMETRIES
        )
        report.update(
            solves=sum(statuses.values()),
            statuses=statuses,
            summary=summary,
            cli_cases=len(CLI_CASES),
            differences=differences + cli_differences(trees),
        )
    else:
        cases = [
            timing_case(trees, kind.value, n, sigma1, args.rounds)
            for n in args.sizes or (128, 512)
            for sigma1 in SIGMA1
            for kind in trees[0].SchemeKind
        ]
        report.update(
            rounds=args.rounds,
            iterations=ITERS,
            cases=[{k: v for k, v in c.items() if k != "differences"} for c in cases],
            differences=[d for c in cases for d in c["differences"]],
        )
    print(json.dumps(report, indent=1))
    return 1 if report["differences"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
