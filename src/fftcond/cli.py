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

from .analysis import (
    RateGrid,
    obnosov,
    predicted_rate,
    rate_contours,
)
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

_SCHEMA = {
    "geometry": {"kind", "n", "side_fraction", "radius", "path"},
    "physics": {"sigma1_re", "sigma1_im"},
    "scheme": {"name", "names", "alpha", "beta", "tol", "max_iters", "sigma0_re", "sigma0_im"},
    "output": {"history_csv", "result_json", "fields_npz", "summary_csv", "grid_csv"},
    "contours": {"re_min", "re_max", "im_min", "im_max", "nr", "ni"},
}

_SCHEME_NAMES = {kind.value: kind for kind in SchemeKind}

RATE_WINDOW = 10


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class RunConfig:
    """Validated contents of a configuration file."""

    base_dir: Path
    geometry: dict
    physics: dict
    scheme: dict
    output: dict
    contours: dict

    def echo(self) -> dict:
        return {
            "geometry": self.geometry,
            "physics": self.physics,
            "scheme": self.scheme,
            "output": self.output,
            **({"contours": self.contours} if self.contours else {}),
        }


def _parse_number(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}") from None


def _parse_finite(section: str, key: str, raw: str) -> float:
    value = _parse_number(section, key, raw, float)
    if not math.isfinite(value):
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

    geometry = _validate_geometry(raw["geometry"])
    physics = _validate_physics(raw["physics"])
    scheme = _validate_scheme(raw["scheme"])
    contours = _validate_contours(raw["contours"]) if raw["contours"] else {}
    output = dict(raw["output"])
    return RunConfig(
        base_dir=path.parent,
        geometry=geometry,
        physics=physics,
        scheme=scheme,
        output=output,
        contours=contours,
    )


def _validate_geometry(raw: dict) -> dict:
    kind = raw.get("kind")
    if kind not in {"square", "disk", "raster"}:
        raise ConfigError(f"[geometry] kind must be square, disk or raster, got {kind!r}")
    out = {"kind": kind}
    if kind == "raster":
        if "path" not in raw:
            raise ConfigError("[geometry] raster needs a path")
        out["path"] = raw["path"]
        return out
    if "n" not in raw:
        raise ConfigError(f"[geometry] {kind} needs n")
    out["n"] = _parse_number("geometry", "n", raw["n"], int)
    if kind == "square":
        if "side_fraction" not in raw:
            raise ConfigError("[geometry] square needs side_fraction")
        out["side_fraction"] = _parse_number(
            "geometry", "side_fraction", raw["side_fraction"], float
        )
    else:
        if "radius" not in raw:
            raise ConfigError("[geometry] disk needs radius")
        out["radius"] = _parse_number("geometry", "radius", raw["radius"], float)
    return out


def _validate_physics(raw: dict) -> dict:
    if "sigma1_re" not in raw:
        raise ConfigError("[physics] needs sigma1_re")
    return {
        "sigma1_re": _parse_finite("physics", "sigma1_re", raw["sigma1_re"]),
        "sigma1_im": _parse_finite("physics", "sigma1_im", raw.get("sigma1_im", "0")),
    }


def _validate_scheme(raw: dict) -> dict:
    out = {}
    if "name" in raw and "names" in raw:
        raise ConfigError("[scheme] give either name or names, not both")
    if "name" in raw:
        if raw["name"] not in _SCHEME_NAMES:
            raise ConfigError(f"[scheme] unknown scheme {raw['name']!r}")
        out["name"] = raw["name"]
    if "names" in raw:
        names = [n.strip() for n in raw["names"].split(",") if n.strip()]
        unknown = [n for n in names if n not in _SCHEME_NAMES]
        if unknown:
            raise ConfigError(f"[scheme] unknown schemes {unknown}")
        if len(names) < 2:
            raise ConfigError("[scheme] names must list at least two schemes")
        if len(set(names)) != len(names):
            raise ConfigError("[scheme] names must be distinct")
        out["names"] = names
    if "alpha" in raw or "beta" in raw:
        if not ("alpha" in raw and "beta" in raw):
            raise ConfigError("[scheme] alpha and beta must be given together")
        alpha = _parse_number("scheme", "alpha", raw["alpha"], float)
        beta = _parse_number("scheme", "beta", raw["beta"], float)
        try:
            SpectralInterval(alpha, beta)
        except ValueError as exc:
            raise ConfigError(f"[scheme] bad interval: {exc}") from None
        out["alpha"], out["beta"] = alpha, beta
    out["tol"] = _parse_number("scheme", "tol", raw.get("tol", "1e-8"), float)
    if not (out["tol"] > 0 and math.isfinite(out["tol"])):
        raise ConfigError(f"[scheme] tol must be positive and finite, got {out['tol']}")
    out["max_iters"] = _parse_number("scheme", "max_iters", raw.get("max_iters", "1000"), int)
    if out["max_iters"] < 1:
        raise ConfigError("[scheme] max_iters must be >= 1")
    if "sigma0_re" in raw or "sigma0_im" in raw:
        out["sigma0_re"] = _parse_finite("scheme", "sigma0_re", raw.get("sigma0_re", "0"))
        out["sigma0_im"] = _parse_finite("scheme", "sigma0_im", raw.get("sigma0_im", "0"))
    return out


def _validate_contours(raw: dict) -> dict:
    out = {}
    for key in ("re_min", "re_max", "im_min", "im_max"):
        if key not in raw:
            raise ConfigError(f"[contours] needs {key}")
        out[key] = _parse_finite("contours", key, raw[key])
    for key in ("nr", "ni"):
        if key not in raw:
            raise ConfigError(f"[contours] needs {key}")
        out[key] = _parse_number("contours", key, raw[key], int)
        if out[key] < 1:
            raise ConfigError(f"[contours] {key} must be >= 1")
    if out["re_min"] > out["re_max"] or out["im_min"] > out["im_max"]:
        raise ConfigError("[contours] window bounds are not ordered")
    return out


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


def _interval(cfg: RunConfig, scheme: SchemeKind) -> SpectralInterval | None:
    """The [scheme] spectral interval; None, when it is absent, for a physical scheme only."""
    if "alpha" in cfg.scheme:
        return SpectralInterval(cfg.scheme["alpha"], cfg.scheme["beta"])
    if scheme.substituted:
        raise ConfigError(f"scheme {scheme.value} needs [scheme] alpha and beta")
    return None


def _sigma1(cfg: RunConfig) -> complex:
    """The inclusion conductivity of the [physics] section."""
    return complex(cfg.physics["sigma1_re"], cfg.physics["sigma1_im"])


def _solver_config(cfg: RunConfig, scheme_name: str) -> SolverConfig:
    scheme = _SCHEME_NAMES[scheme_name]
    sch = cfg.scheme
    sigma0 = None
    if "sigma0_re" in sch:
        sigma0 = complex(sch["sigma0_re"], sch.get("sigma0_im", 0.0))
    return SolverConfig(
        scheme=scheme,
        sigma1=_sigma1(cfg),
        interval=_interval(cfg, scheme),
        tol=sch["tol"],
        max_iters=sch["max_iters"],
        sigma0_override=sigma0,
    )


def _out_path(cfg: RunConfig, key: str) -> Path | None:
    if key not in cfg.output:
        return None
    p = Path(cfg.output[key])
    return p if p.is_absolute() else cfg.base_dir / p


def _write_history_csv(path: Path, result: SolveResult | None):
    with open(path, "w", newline="\n") as fh:
        fh.write("iter,sigma_star_re,sigma_star_im,residual\n")
        if result is None:
            return
        for rec in result.history:
            fh.write(
                f"{rec.iteration},{_fmt(rec.sigma_star.real)},"
                f"{_fmt(rec.sigma_star.imag)},{_fmt(rec.residual)}\n"
            )


def _predicted_rate_or_none(cfg: RunConfig, scheme_name: str) -> float | None:
    scheme = _SCHEME_NAMES[scheme_name]
    try:
        return predicted_rate(scheme, _sigma1(cfg), _interval(cfg, scheme))
    except ValueError:
        return None


def _exact_reference(cfg: RunConfig) -> complex | None:
    """Exact effective conductivity when the geometry is the benchmark array."""
    geo = cfg.geometry
    if geo["kind"] != "square" or geo.get("side_fraction") != 0.5:
        return None
    try:
        return obnosov(_sigma1(cfg))
    except PoleError:
        return None


def cmd_solve(config_path: Path, overrides: list[str]) -> int:
    cfg = parse_config(config_path, overrides)
    if "name" not in cfg.scheme:
        raise ConfigError("[scheme] solve needs a single scheme name")
    pmap = build_phase_map(cfg)
    scheme_name = cfg.scheme["name"]
    solver_cfg = _solver_config(cfg, scheme_name)
    result = solve(pmap, solver_cfg)

    hist_path = _out_path(cfg, "history_csv")
    if hist_path:
        _write_history_csv(hist_path, result)
    json_path = _out_path(cfg, "result_json")
    if json_path:
        payload = {
            "sigma_star": {"re": result.sigma_star.real, "im": result.sigma_star.imag},
            "status": result.status.value,
            "iterations": result.iterations,
            "estimated_rate": _tail_rate(result.history, RATE_WINDOW),
            "predicted_rate": _predicted_rate_or_none(cfg, scheme_name),
            "config": cfg.echo(),
        }
        with open(json_path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    npz_path = _out_path(cfg, "fields_npz")
    if npz_path:
        np.savez(npz_path, E=result.E_field.data, J=result.J_field.data, chi=pmap.chi)

    print(
        f"{scheme_name}: {result.status.value} after {result.iterations} iterations, "
        f"sigma_star = {result.sigma_star:.10g}"
    )
    return 0 if result.status is TerminationStatus.CONVERGED else 1


def cmd_compare(config_path: Path, overrides: list[str]) -> int:
    cfg = parse_config(config_path, overrides)
    if "names" not in cfg.scheme:
        raise ConfigError("[scheme] compare needs names with at least two schemes")
    pmap = build_phase_map(cfg)
    exact = _exact_reference(cfg)

    rows = []
    all_converged = True
    for name in cfg.scheme["names"]:
        result = None
        error = None
        try:
            solver_cfg = _solver_config(cfg, name)
            result = solve(pmap, solver_cfg)
        except ValueError as exc:
            error = exc
        hist_path = _out_path(cfg, "history_csv")
        if hist_path:
            per_scheme = hist_path.with_name(f"{hist_path.stem}_{name}{hist_path.suffix}")
            _write_history_csv(per_scheme, result)
        if result is None:
            rows.append((name, "Error", "", "", "", ""))
            all_converged = False
            print(f"{name}: error: {error}")
            continue
        status = result.status.value
        if result.status is not TerminationStatus.CONVERGED:
            all_converged = False
        err_exact = abs(result.sigma_star - exact) if exact is not None else None
        est = _tail_rate(result.history, RATE_WINDOW)
        pred = _predicted_rate_or_none(cfg, name)
        rows.append(
            (
                name,
                status,
                str(result.iterations),
                _fmt(err_exact) if err_exact is not None else "",
                _fmt(est) if est is not None else "",
                _fmt(pred) if pred is not None else "",
            )
        )
        print(
            f"{name}: {status} after {result.iterations} iterations, "
            f"sigma_star = {result.sigma_star:.10g}"
        )

    summary_path = _out_path(cfg, "summary_csv")
    if summary_path:
        with open(summary_path, "w", newline="\n") as fh:
            fh.write(
                "scheme,status,iterations,abs_err_exact,estimated_rate,"
                "predicted_rate\n"
            )
            for row in rows:
                fh.write(",".join(row) + "\n")
    return 0 if all_converged else 1


def cmd_contours(config_path: Path, overrides: list[str]) -> int:
    cfg = parse_config(config_path, overrides)
    if "name" not in cfg.scheme:
        raise ConfigError("[scheme] contours needs a single scheme name")
    if not cfg.contours:
        raise ConfigError("contours needs a [contours] section")
    path = _out_path(cfg, "grid_csv")
    if path is None:
        raise ConfigError("[output] contours needs grid_csv")
    scheme = _SCHEME_NAMES[cfg.scheme["name"]]
    win = cfg.contours
    grid: RateGrid = rate_contours(
        scheme,
        _interval(cfg, scheme),
        (win["re_min"], win["re_max"], win["im_min"], win["im_max"]),
        (win["nr"], win["ni"]),
    )
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
