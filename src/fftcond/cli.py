"""Batch front end: configured runs, scheme comparisons, rate grids.

Commands
--------
``fftcond solve <config>``     one scheme, history CSV + result JSON
``fftcond compare <config>``   several schemes on one problem + summary CSV
``fftcond contours <config>``  predicted-rate samples over a complex window
``fftcond selftest``           built-in invariant suite

Configuration is a single INI-style file with sections ``[geometry]``,
``[physics]``, ``[scheme]``, ``[output]`` and (for contours)
``[contours]``; unknown keys are rejected. ``--override section.key=value``
(repeatable) patches file values. Relative paths resolve against the
config file's directory. Numbers in CSV artifacts carry 17 significant
digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import obnosov, predicted_rate, rate_contours
from .errors import BranchCutError, ConfigError, DegenerateParamError, PoleError
from .geometry import PhaseMap, build_disk_array, build_square_array, load_raster
from .selftest import format_report, run_selftest
from .solvers import (
    SolveResult,
    SolverConfig,
    TerminationStatus,
    _tail_rate,
    solve,
)
from .transform import SchemeKind, SpectralInterval

# The type of each key's value: text, int, float, or a float that must be finite
_FINITE = "finite"
_SCHEMA = {
    "geometry": {"kind": str, "n": int, "side_fraction": float, "radius": float, "path": str},
    "physics": {"sigma1_re": _FINITE, "sigma1_im": _FINITE},
    "scheme": {
        "name": str, "names": str, "alpha": float, "beta": float, "tol": float,
        "max_iters": int, "sigma0_re": _FINITE, "sigma0_im": _FINITE,
    },
    "output": dict.fromkeys(
        ("history_csv", "result_json", "fields_npz", "summary_csv", "grid_csv"), str
    ),
    "contours": {
        "re_min": _FINITE, "re_max": _FINITE, "im_min": _FINITE, "im_max": _FINITE,
        "nr": int, "ni": int,
    },
}

# The keys each geometry kind reads; it ignores the others
_GEOMETRY_KEYS = {"square": ("n", "side_fraction"), "disk": ("n", "radius"), "raster": ("path",)}

_SCHEME_NAMES = {kind.value: kind for kind in SchemeKind}

RATE_WINDOW = 10

# The summary CSV of ``compare``; a scheme whose solve raised fills the first two
_SUMMARY_COLUMNS = (
    "scheme", "status", "iterations", "abs_err_exact", "estimated_rate", "predicted_rate"
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class RunConfig:
    """Validated contents of a configuration file, and the set-up of each named scheme."""

    base_dir: Path
    geometry: dict
    physics: dict
    scheme: dict
    output: dict
    contours: dict
    runs: dict[str, SolverConfig]

    def echo(self) -> dict:
        return {
            "geometry": self.geometry,
            "physics": self.physics,
            "scheme": self.scheme,
            "output": self.output,
            **({"contours": self.contours} if self.contours else {}),
        }


def _parse(section: str, key: str, raw: str):
    """The value of ``raw`` as the type ``_SCHEMA`` gives the key."""
    kind = _SCHEMA[section][key]
    number = float if kind == _FINITE else kind
    try:
        value = number(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {number.__name__}") from None
    if kind == _FINITE and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {value}")
    return value


def parse_config(path: Path, overrides: list[str] = ()) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = (part.strip() for part in target.split(".", 1))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    raw = {
        section: {k: v for k, v in parser[section].items() if v.strip() != ""}
        if parser.has_section(section)
        else {}
        for section in _SCHEMA
    }

    kind = raw["geometry"].get("kind")
    if kind not in _GEOMETRY_KEYS:
        raise ConfigError(f"[geometry] kind must be square, disk or raster, got {kind!r}")
    required = (
        ("geometry", f"{kind} ", _GEOMETRY_KEYS[kind]),
        ("physics", "", ("sigma1_re",)),
        ("contours", "", tuple(_SCHEMA["contours"]) if raw["contours"] else ()),
    )
    for section, what, keys in required:
        for key in keys:
            if key not in raw[section]:
                raise ConfigError(f"[{section}] {what}needs {key}")
    if ("alpha" in raw["scheme"]) != ("beta" in raw["scheme"]):
        raise ConfigError("[scheme] alpha and beta must be given together")
    raw["geometry"] = {key: raw["geometry"][key] for key in ("kind", *_GEOMETRY_KEYS[kind])}
    raw["physics"].setdefault("sigma1_im", "0")
    raw["scheme"] = {"tol": "1e-8", "max_iters": "1000", **raw["scheme"]}
    if "sigma0_re" in raw["scheme"] or "sigma0_im" in raw["scheme"]:
        raw["scheme"] = {"sigma0_re": "0", "sigma0_im": "0", **raw["scheme"]}
    cfg = {
        section: {k: _parse(section, k, raw[section][k]) for k in keys if k in raw[section]}
        for section, keys in _SCHEMA.items()
    }

    scheme = cfg["scheme"]
    if "name" in scheme and "names" in scheme:
        raise ConfigError("[scheme] give either name or names, not both")
    if "names" in scheme:
        scheme["names"] = [n.strip() for n in scheme["names"].split(",") if n.strip()]
    listed = [scheme["name"]] if "name" in scheme else scheme.get("names", [])
    unknown = [n for n in listed if n not in _SCHEME_NAMES]
    if unknown:
        raise ConfigError(f"[scheme] unknown scheme {', '.join(map(repr, unknown))}")
    if "names" in scheme and len(listed) < 2:
        raise ConfigError("[scheme] names must list at least two schemes")
    if len(set(listed)) != len(listed):
        raise ConfigError("[scheme] names must be distinct")
    substituted = [n for n in listed if _SCHEME_NAMES[n].substituted]
    if substituted and "alpha" not in scheme:
        raise ConfigError(f"[scheme] scheme {', '.join(substituted)} needs alpha and beta")
    sigma1 = complex(cfg["physics"]["sigma1_re"], cfg["physics"]["sigma1_im"])
    sigma0 = complex(scheme["sigma0_re"], scheme["sigma0_im"]) if "sigma0_re" in scheme else None
    try:
        interval = SpectralInterval(scheme["alpha"], scheme["beta"]) if "alpha" in scheme else None
        runs = {
            name: SolverConfig(
                scheme=_SCHEME_NAMES[name],
                sigma1=sigma1,
                interval=interval,
                tol=scheme["tol"],
                max_iters=scheme["max_iters"],
                sigma0_override=sigma0,
            )
            for name in listed
        }
    except ValueError as exc:
        raise ConfigError(f"[scheme] {exc}") from None
    run = RunConfig(base_dir=path.parent, **cfg, runs=runs)
    for key in run.output:
        folder = _out_path(run, key).parent
        if not folder.is_dir():
            raise ConfigError(f"[output] {key}: directory {folder} does not exist")
    return run


def build_phase_map(cfg: RunConfig) -> PhaseMap:
    geo = cfg.geometry
    try:
        if geo["kind"] == "square":
            return build_square_array(geo["n"], geo["side_fraction"])
        if geo["kind"] == "disk":
            return build_disk_array(geo["n"], geo["radius"])
        raster_path = cfg.base_dir / geo["path"]
        return load_raster(raster_path.read_text())
    except (ValueError, OSError) as exc:
        raise ConfigError(f"geometry: {exc}") from None


def _out_path(cfg: RunConfig, key: str) -> Path | None:
    if key not in cfg.output:
        return None
    p = Path(cfg.output[key])
    return p if p.is_absolute() else cfg.base_dir / p


def _write_history_csv(path: Path, history):
    with open(path, "w", newline="\n") as fh:
        fh.write("iter,sigma_star_re,sigma_star_im,residual\n")
        for rec in history:
            fh.write(
                f"{rec.iteration},{_fmt(rec.sigma_star.real)},"
                f"{_fmt(rec.sigma_star.imag)},{_fmt(rec.residual)}\n"
            )


def _report(run: SolverConfig, result: SolveResult) -> dict:
    """What ``solve``'s result JSON and ``compare``'s summary CSV report of one solve."""
    try:
        # the rate at the scheme's own sigma0, so none under an override
        own = run.sigma0_override is None
        predicted = predicted_rate(run.scheme, run.sigma1, run.interval) if own else None
    except ValueError:
        predicted = None
    return {
        "status": result.status.value,
        "iterations": result.iterations,
        "estimated_rate": _tail_rate(result.history, RATE_WINDOW),
        "predicted_rate": predicted,
    }


def _exact_reference(geo: dict, sigma1: complex) -> complex | None:
    """Exact effective conductivity when the geometry is the benchmark array."""
    if geo["kind"] != "square" or geo.get("side_fraction") != 0.5:
        return None
    try:
        return obnosov(sigma1)
    except PoleError:
        return None


def _run(cfg: RunConfig, pmap: PhaseMap, name: str, history: Path | None) -> SolveResult:
    """Solve scheme ``name``, write its history CSV and print its summary line."""
    result = solve(pmap, cfg.runs[name])
    if history:
        _write_history_csv(history, result.history)
    print(
        f"{name}: {result.status.value} after {result.iterations} iterations, "
        f"sigma_star = {result.sigma_star:.10g}"
    )
    return result


def cmd_solve(config_path: Path, overrides: list[str]) -> int:
    cfg = parse_config(config_path, overrides)
    if "name" not in cfg.scheme:
        raise ConfigError("[scheme] solve needs a single scheme name")
    pmap = build_phase_map(cfg)
    name = cfg.scheme["name"]
    result = _run(cfg, pmap, name, _out_path(cfg, "history_csv"))

    json_path = _out_path(cfg, "result_json")
    if json_path:
        payload = {
            "sigma_star": {"re": result.sigma_star.real, "im": result.sigma_star.imag},
            **_report(cfg.runs[name], result),
            "config": cfg.echo(),
        }
        with open(json_path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    npz_path = _out_path(cfg, "fields_npz")
    if npz_path:
        # through an open file, which np.savez does not give an ".npz" suffix
        with open(npz_path, "wb") as fh:
            np.savez(fh, E=result.E_field.data, J=result.J_field.data, chi=pmap.chi)
    return 0 if result.status is TerminationStatus.CONVERGED else 1


def _compare_row(cfg: RunConfig, pmap: PhaseMap, name: str) -> dict:
    """Run scheme ``name`` for ``compare`` and return its summary CSV row by column.

    A scheme that raises ValueError gets an ``Error`` row and a history CSV
    with the header only. The result's fields are freed on return, before
    the next scheme's solve.
    """
    history = _out_path(cfg, "history_csv")
    if history:
        history = history.with_name(f"{history.stem}_{name}{history.suffix}")
    try:
        result = _run(cfg, pmap, name, history)
    except ValueError as exc:
        if history:
            _write_history_csv(history, ())
        print(f"{name}: error: {exc}")
        return {"scheme": name, "status": "Error"}
    run = cfg.runs[name]
    exact = _exact_reference(cfg.geometry, run.sigma1)
    err = abs(result.sigma_star - exact) if exact is not None else None
    return {"scheme": name, "abs_err_exact": err, **_report(run, result)}


def _cell(value) -> str:
    """A summary CSV cell: empty for None, 17 digits for a float."""
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, float) else str(value)


def cmd_compare(config_path: Path, overrides: list[str]) -> int:
    cfg = parse_config(config_path, overrides)
    if "names" not in cfg.scheme:
        raise ConfigError("[scheme] compare needs names with at least two schemes")
    pmap = build_phase_map(cfg)
    rows = [_compare_row(cfg, pmap, name) for name in cfg.scheme["names"]]

    summary_path = _out_path(cfg, "summary_csv")
    if summary_path:
        with open(summary_path, "w", newline="\n") as fh:
            fh.write(",".join(_SUMMARY_COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(_cell(row.get(column)) for column in _SUMMARY_COLUMNS) + "\n")
    return 0 if all(row["status"] == TerminationStatus.CONVERGED.value for row in rows) else 1


def cmd_contours(config_path: Path, overrides: list[str]) -> int:
    cfg = parse_config(config_path, overrides)
    if "name" not in cfg.scheme:
        raise ConfigError("[scheme] contours needs a single scheme name")
    if not cfg.contours:
        raise ConfigError("contours needs a [contours] section")
    path = _out_path(cfg, "grid_csv")
    if path is None:
        raise ConfigError("[output] contours needs grid_csv")
    run = cfg.runs[cfg.scheme["name"]]
    if run.sigma0_override is not None:
        raise ConfigError("[scheme] contours rates each scheme at its own sigma0: no sigma0_re/_im")
    win = cfg.contours
    try:
        grid = rate_contours(
            run.scheme,
            run.interval,
            (win["re_min"], win["re_max"], win["im_min"], win["im_max"]),
            (win["nr"], win["ni"]),
        )
    except ValueError as exc:
        raise ConfigError(f"[contours] {exc}") from None
    with open(path, "w", newline="\n") as fh:
        fh.write("re,im,abs_z,flag\n")
        for re, im, value, flagged in grid.iter_samples():
            fh.write(f"{_fmt(re)},{_fmt(im)},{_fmt(value)},{int(flagged)}\n")
    print(f"contours: wrote {grid.nr * grid.ni} samples to {path}")
    return 0


def cmd_selftest() -> int:
    results = run_selftest()
    report = format_report(results)
    sys.stdout.write(report)
    return 0 if all(r.passed for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fftcond",
        description="FFT fixed-point homogenization for two-phase periodic conductivity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "compare", "contours"):
        p = sub.add_parser(name)
        p.add_argument("config", type=Path)
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="patch a config value (repeatable)",
        )
    sub.add_parser("selftest")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args.config, args.override)
        if args.command == "compare":
            return cmd_compare(args.config, args.override)
        if args.command == "contours":
            return cmd_contours(args.config, args.override)
        return cmd_selftest()
    except (ConfigError, BranchCutError, PoleError, DegenerateParamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
