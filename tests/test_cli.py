"""Command-line front end: configs, artifacts, determinism, selftest."""

import csv
import dataclasses
import gc
import json
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import fftcond.cli as cli
import fftcond.spectral_ops as spectral_ops
from fftcond.cli import main
from fftcond.selftest import format_report, run_selftest

BENCH_SOLVE = """
[geometry]
kind = square
n = 128
side_fraction = 0.5

[physics]
sigma1_re = 0.0

[scheme]
name = em_sub
alpha = 0.25
beta = 4.0
tol = 2e-3
max_iters = 200

[output]
history_csv = history.csv
result_json = result.json
fields_npz = fields.npz
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSolveCommand:
    def test_benchmark_run(self, tmp_path):
        cfg = write_config(tmp_path, BENCH_SOLVE)
        assert main(["solve", str(cfg)]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["status"] == "Converged"
        assert abs(result["sigma_star"]["re"] - 1 / math.sqrt(3)) < 2e-2
        assert abs(result["sigma_star"]["im"]) < 1e-10
        assert result["predicted_rate"] == pytest.approx(1 / 3)
        assert "estimated_rate" in result  # null when the run is too short
        assert result["config"]["scheme"]["name"] == "em_sub"
        with open(tmp_path / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"iter", "sigma_star_re", "sigma_star_im", "residual"}
        assert int(rows[-1]["iter"]) == result["iterations"]
        with np.load(tmp_path / "fields.npz") as data:
            assert data["E"].shape == (2, 128, 128)
            assert data["J"].shape == (2, 128, 128)

    def test_contrast_free_immediate(self, tmp_path):
        cfg = write_config(
            tmp_path, BENCH_SOLVE.replace("sigma1_re = 0.0", "sigma1_re = 1.0")
        )
        assert main(["solve", str(cfg)]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["iterations"] == 1
        assert result["sigma_star"]["re"] == pytest.approx(1.0)

    def test_invalid_interval_rejected(self, tmp_path):
        bad = BENCH_SOLVE.replace("alpha = 0.25", "alpha = 5.0")
        cfg = write_config(tmp_path, bad)
        assert main(["solve", str(cfg)]) == 2

    def test_duplicate_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_SOLVE + "\n[scheme]\nbogus = 1\n")
        assert main(["solve", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse ")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_SOLVE)
        assert main(["solve", str(cfg), "--override", "scheme.bogus=1"]) == 2
        assert capsys.readouterr().err == "error: unknown key 'bogus' in [scheme]\n"
        assert not (tmp_path / "result.json").exists()

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_rejected(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path, BENCH_SOLVE)
        assert main(["solve", str(cfg), "--override", f"scheme.tol={tol}"]) == 2
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "key", ["physics.sigma1_re", "physics.sigma1_im", "scheme.sigma0_re", "scheme.sigma0_im"]
    )
    def test_non_finite_conductivity_rejected(self, tmp_path, capsys, key, value):
        # a nan sigma1 used to end as "Diverged after 0 iterations", exit 1
        cfg = write_config(tmp_path, BENCH_SOLVE)
        assert main(["solve", str(cfg), "--override", f"{key}={value}"]) == 2
        assert f"{key.split('.')[1]} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            ("scheme.name=basic", "physics.sigma1_re=-1"),
            ("scheme.name=em", "physics.sigma1_re=2", "scheme.sigma0_re=-1"),
        ],
        ids=["basic_sigma0_zero", "em_shift_minus_one"],
    )
    def test_degenerate_reference_exits_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, BENCH_SOLVE)
        argv = ["solve", str(cfg)]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_fields_written_at_the_configured_path(self, tmp_path):
        # np.savez given a path would write fields.dat.npz
        cfg = write_config(tmp_path, BENCH_SOLVE.replace("fields.npz", "fields.dat"))
        assert main(["solve", str(cfg), "--override", "geometry.n=16"]) == 0
        assert not (tmp_path / "fields.dat.npz").exists()
        with np.load(tmp_path / "fields.dat") as data:
            assert data["E"].shape == (2, 16, 16)

    def test_override(self, tmp_path):
        cfg = write_config(tmp_path, BENCH_SOLVE)
        assert main(["solve", str(cfg), "--override", "physics.sigma1_re=1.0"]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["iterations"] == 1

    def test_deterministic_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, BENCH_SOLVE)
        main(["solve", str(cfg)])
        first = (tmp_path / "history.csv").read_bytes(), (tmp_path / "result.json").read_bytes()
        main(["solve", str(cfg)])
        second = (tmp_path / "history.csv").read_bytes(), (tmp_path / "result.json").read_bytes()
        assert first == second

    def test_raster_geometry(self, tmp_path):
        raster = "P-PHASE 4 4\n0 0 0 0\n0 1 1 0\n0 1 1 0\n0 0 0 0\n"
        (tmp_path / "cell.pgm").write_text(raster)
        text = """
[geometry]
kind = raster
path = cell.pgm

[physics]
sigma1_re = 2.0

[scheme]
name = basic
tol = 1e-10

[output]
result_json = result.json
"""
        cfg = write_config(tmp_path, text)
        assert main(["solve", str(cfg)]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["status"] == "Converged"


COMPARE_CFG = """
[geometry]
kind = square
n = 32
side_fraction = 0.5

[physics]
sigma1_re = 2.0

[scheme]
names = basic, em, basic_sub, em_sub
alpha = 0.25
beta = 4.0
tol = 1e-10
max_iters = 500

[output]
history_csv = history.csv
summary_csv = summary.csv
"""


class TestCompareCommand:
    def test_four_scheme_comparison(self, tmp_path):
        cfg = write_config(tmp_path, COMPARE_CFG)
        assert main(["compare", str(cfg)]) == 0
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["scheme"] for r in rows] == ["basic", "em", "basic_sub", "em_sub"]
        for row in rows:
            assert row["status"] == "Converged"
            assert float(row["abs_err_exact"]) < 1e-2
            assert float(row["predicted_rate"]) < 1.0
        finals = []
        for name in ("basic", "em", "basic_sub", "em_sub"):
            with open(tmp_path / f"history_{name}.csv") as fh:
                last = list(csv.DictReader(fh))[-1]
            finals.append(complex(float(last["sigma_star_re"]), float(last["sigma_star_im"])))
        for i, a in enumerate(finals):
            for b in finals[i + 1:]:
                assert abs(a - b) <= 1e-6
        first = (tmp_path / "summary.csv").read_bytes()
        assert main(["compare", str(cfg)]) == 0
        assert (tmp_path / "summary.csv").read_bytes() == first

    def test_each_result_freed_before_the_next_solve(self, tmp_path, monkeypatch):
        # a result kept alive through the next solve adds its fields to the peak
        solve, previous = cli.solve, []

        def tracked(pmap, config):
            assert all(ref() is None for ref in previous)
            result = solve(pmap, config)
            previous.append(weakref.ref(result))
            return result

        monkeypatch.setattr(cli, "solve", tracked)
        cfg = write_config(tmp_path, COMPARE_CFG)
        assert main(["compare", str(cfg)]) == 0
        assert len(previous) == 4

    def test_single_scheme_rejected(self, tmp_path):
        cfg = write_config(tmp_path, COMPARE_CFG.replace(
            "names = basic, em, basic_sub, em_sub", "names = basic"
        ))
        assert main(["compare", str(cfg)]) == 2

    def test_errored_scheme_reported_not_fatal(self, tmp_path):
        # em at sigma1 = 0 cannot build its square-root reference; the
        # other schemes still run, and converge there
        text = COMPARE_CFG.replace("sigma1_re = 2.0", "sigma1_re = 0.0").replace(
            "max_iters = 500", "max_iters = 50"
        )
        cfg = write_config(tmp_path, text)
        assert main(["compare", str(cfg)]) == 1

        with open(tmp_path / "summary.csv") as fh:
            rows = {r["scheme"]: r for r in csv.DictReader(fh)}
        assert rows["em"]["status"] == "Error"
        assert [rows[s]["status"] for s in ("basic", "basic_sub", "em_sub")] == ["Converged"] * 3
        header = (tmp_path / "history_em.csv").read_text().splitlines()
        assert header == ["iter,sigma_star_re,sigma_star_im,residual"]


CONTOURS_CFG = """
[geometry]
kind = square
n = 8
side_fraction = 0.5

[physics]
sigma1_re = 1.0

[scheme]
name = em_sub
alpha = 0.25
beta = 4.0

[contours]
re_min = 0.0
re_max = 2.0
im_min = -1.0
im_max = 1.0
nr = 3
ni = 3

[output]
grid_csv = grid.csv
"""


class TestContoursCommand:
    def test_grid_csv(self, tmp_path):
        cfg = write_config(tmp_path, CONTOURS_CFG)
        assert main(["contours", str(cfg)]) == 0
        with open(tmp_path / "grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        center = [r for r in rows if float(r["re"]) == 1.0 and float(r["im"]) == 0.0]
        assert center and float(center[0]["abs_z"]) == pytest.approx(0.0)
        # re = 0 on the real axis sits at the edge of the mapped cut: flagged or not,
        # every unflagged rate in the right half plane stays below one
        for r in rows:
            if r["flag"] == "0" and float(r["re"]) > 0:
                assert float(r["abs_z"]) < 1.0

    def test_zero_resolution_rejected(self, tmp_path):
        cfg = write_config(tmp_path, CONTOURS_CFG.replace("nr = 3", "nr = 0"))
        assert main(["contours", str(cfg)]) == 2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["re_min", "re_max", "im_min", "im_max"])
    def test_non_finite_window_rejected(self, tmp_path, capsys, key, value):
        # a nan bound passes the ordering check, and used to write nan rows, exit 0
        cfg = write_config(tmp_path, CONTOURS_CFG)
        assert main(["contours", str(cfg), "--override", f"contours.{key}={value}"]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("key", ["sigma0_re", "sigma0_im"])
    def test_sigma0_override_rejected(self, tmp_path, capsys, key):
        # the grid samples each scheme's rate at its own sigma0, which an
        # override would leave unreported
        cfg = write_config(tmp_path, CONTOURS_CFG)
        assert main(["contours", str(cfg), "--override", f"scheme.{key}=0.5"]) == 2
        assert "own sigma0" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    def test_output_path_checked_before_the_window(self, tmp_path, monkeypatch):
        def no_window(*args, **kwargs):
            raise AssertionError("contours evaluated the window without an output path")

        monkeypatch.setattr(cli, "rate_contours", no_window)
        cfg = write_config(tmp_path, CONTOURS_CFG.replace("grid_csv = grid.csv", ""))
        assert main(["contours", str(cfg)]) == 2

    def test_requires_contours_section(self, tmp_path):
        text = "\n".join(
            line for line in CONTOURS_CFG.splitlines() if not line.startswith(("[contours]", "re_", "im_", "nr", "ni"))
        )
        cfg = write_config(tmp_path, text)
        assert main(["contours", str(cfg)]) == 2


def _drop(text, keys):
    """``text`` without the lines that set any of ``keys``."""
    return "\n".join(
        line for line in text.splitlines() if line.split("=")[0].strip() not in keys
    )


# (command, base config, keys dropped from it, overrides, fragments of the message)
REJECTIONS = {
    "unknown_section": ("solve", BENCH_SOLVE, (), ("bogus.x=1",), ("[bogus]",)),
    "unknown_key": ("solve", BENCH_SOLVE, (), ("geometry.bogus=1",), ("[geometry]", "bogus")),
    "bad_int": ("solve", BENCH_SOLVE, (), ("geometry.n=12.5",), ("[geometry]", "n = '12.5'")),
    "bad_float": ("solve", BENCH_SOLVE, (), ("scheme.tol=small",), ("[scheme]", "tol = 'small'")),
    "override_without_value": (
        "solve", BENCH_SOLVE, (), ("physics.sigma1_re",), ("section.key=value", "physics.sigma1_re")
    ),
    "override_without_section": (
        "solve", BENCH_SOLVE, (), ("sigma1_re=1",), ("section.key=value", "sigma1_re")
    ),
    "bad_kind": ("solve", BENCH_SOLVE, (), ("geometry.kind=hex",), ("[geometry]", "kind", "'hex'")),
    "raster_without_path": (
        "solve", BENCH_SOLVE, (), ("geometry.kind=raster",), ("[geometry]", "raster", "path")
    ),
    "missing_n": ("solve", BENCH_SOLVE, ("n",), (), ("[geometry]", "square", "n")),
    "square_without_side_fraction": (
        "solve", BENCH_SOLVE, ("side_fraction",), (), ("[geometry]", "square", "side_fraction")
    ),
    "disk_without_radius": (
        "solve", BENCH_SOLVE, ("side_fraction",), ("geometry.kind=disk",),
        ("[geometry] disk", "radius"),
    ),
    "missing_sigma1_re": ("solve", BENCH_SOLVE, ("sigma1_re",), (), ("[physics]", "sigma1_re")),
    "name_and_names": (
        "solve", BENCH_SOLVE, (), ("scheme.names=basic, em",), ("[scheme]", "name", "names")
    ),
    "unknown_name": ("solve", BENCH_SOLVE, (), ("scheme.name=fast",), ("[scheme]", "'fast'")),
    "unknown_names": (
        "compare", COMPARE_CFG, (), ("scheme.names=basic, fast",), ("[scheme]", "'fast'")
    ),
    "duplicate_names": (
        "compare", COMPARE_CFG, (), ("scheme.names=em, em",), ("[scheme]", "names", "distinct")
    ),
    "alpha_without_beta": ("solve", BENCH_SOLVE, ("beta",), (), ("[scheme]", "alpha", "beta")),
    "beta_without_alpha": ("solve", BENCH_SOLVE, ("alpha",), (), ("[scheme]", "alpha", "beta")),
    "substituted_without_interval": (
        "solve", BENCH_SOLVE, ("alpha", "beta"), (), ("[scheme]", "alpha", "beta")
    ),
    "compare_substituted_without_interval": (
        "compare", COMPARE_CFG, (),
        ("scheme.names=basic,basic_sub,em", "scheme.alpha=", "scheme.beta="),
        ("[scheme]", "basic_sub", "alpha", "beta"),
    ),
    # a value rule: the library's whole message, after the section
    "zero_max_iters": (
        "solve", BENCH_SOLVE, (), ("scheme.max_iters=0",),
        ("[scheme] max_iters must be an integer >= 1, got 0\n",),
    ),
    "bad_interval": (
        "solve", BENCH_SOLVE, (), ("scheme.alpha=5.0",),
        ("[scheme] need 0 < alpha < beta < inf, got alpha=5.0, beta=4.0\n",),
    ),
    "missing_contours_bound": (
        "contours", CONTOURS_CFG, ("im_max",), (), ("[contours]", "im_max")
    ),
    "missing_contours_resolution": (
        "contours", CONTOURS_CFG, ("ni",), (), ("[contours]", "ni")
    ),
    "unordered_contours_bounds": (
        "contours", CONTOURS_CFG, (), ("contours.re_min=3",),
        ("[contours] window bounds are not ordered: (3.0, 2.0, -1.0, 1.0)\n",),
    ),
    "zero_contours_resolution": (
        "contours", CONTOURS_CFG, (), ("contours.nr=0",),
        ("[contours] resolution must be >= 1 per axis, got (0, 3)\n",),
    ),
    "odd_n": ("solve", BENCH_SOLVE, (), ("geometry.n=31",), ("geometry", "even", "31")),
    "disk_radius_too_large": (
        "solve", BENCH_SOLVE, ("side_fraction",), ("geometry.kind=disk", "geometry.radius=0.5"),
        ("geometry", "radius", "0.5"),
    ),
}


class TestConfigRejections:
    @pytest.mark.parametrize("case", REJECTIONS.values(), ids=REJECTIONS.keys())
    def test_rejected_with_named_section_and_key(self, tmp_path, capsys, case):
        command, base, dropped, overrides, fragments = case
        cfg = write_config(tmp_path, _drop(base, dropped))
        argv = [command, str(cfg)]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        for fragment in fragments:
            assert fragment in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_disk_solve(self, tmp_path):
        text = BENCH_SOLVE.replace("kind = square", "kind = disk").replace(
            "side_fraction = 0.5", "radius = 0.35"
        )
        cfg = write_config(tmp_path, text)
        argv = ["solve", str(cfg), "--override", "geometry.n=32", "--override", "physics.sigma1_re=2"]
        assert main(argv) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["status"] == "Converged"
        assert result["config"]["geometry"] == {"kind": "disk", "n": 32, "radius": 0.35}
        with np.load(tmp_path / "fields.npz") as data:
            f = data["chi"].mean()
        # the disk covers about pi 0.35^2 = 38.5% of the cell, and sigma*
        # lies strictly inside the Wiener bounds of its volume fraction
        assert f == pytest.approx(math.pi * 0.35 ** 2, rel=0.05)
        assert 1 / (1 - f + f / 2) < result["sigma_star"]["re"] < 1 + f


class TestRunRules:
    def test_contours_values_apply_to_contours_only(self, tmp_path):
        # solve type-checks the section and requires its keys, but reads no value
        window = CONTOURS_CFG[CONTOURS_CFG.index("[contours]"):CONTOURS_CFG.index("[output]")]
        cfg = write_config(tmp_path, BENCH_SOLVE + window.replace("nr = 3", "nr = 0"))
        argv = ["solve", str(cfg), "--override", "geometry.n=16"]
        assert main(argv) == 0
        assert main([*argv, "--override", "contours.nr=x"]) == 2
        assert main([*argv, "--override", "contours.ni="]) == 2

    @pytest.mark.parametrize(
        "command, base, key",
        [("solve", BENCH_SOLVE, "result_json"), ("compare", COMPARE_CFG, "summary_csv")],
        ids=["solve", "compare"],
    )
    def test_missing_output_directory_rejected_before_any_solve(
        self, tmp_path, capsys, command, base, key
    ):
        cfg = write_config(tmp_path, base)
        argv = [command, str(cfg), "--override", "geometry.n=16"]
        assert main([*argv, "--override", f"output.{key}=missing/out"]) == 2
        captured = capsys.readouterr()
        folder = tmp_path / "missing"
        assert captured.err == f"error: [output] {key}: directory {folder} does not exist\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize(
        "command, base", [("solve", BENCH_SOLVE), ("compare", COMPARE_CFG)], ids=["solve", "compare"]
    )
    def test_each_run_solves_the_config_parse_config_built(
        self, tmp_path, monkeypatch, command, base
    ):
        # perfbench replaces cli.solve and reads the SolverConfig it is given
        parsed, given = [], []
        parse, solve = cli.parse_config, cli.solve

        def parse_once(*args):
            parsed.append(parse(*args))
            return parsed[-1]

        def recorded(pmap, config):
            given.append(config)
            return solve(pmap, config)

        monkeypatch.setattr(cli, "parse_config", parse_once)
        monkeypatch.setattr(cli, "solve", recorded)
        cfg = write_config(tmp_path, base)
        main([command, str(cfg), "--override", "geometry.n=16"])
        (run,) = parsed
        assert len(given) == len(run.runs) and all(
            config is run.runs[name] for config, name in zip(given, run.runs)
        )

    def test_solve_and_compare_report_alike(self, tmp_path):
        cfg = write_config(tmp_path, COMPARE_CFG)
        names = ("basic", "em")
        assert main(["compare", str(cfg), "--override", f"scheme.names={', '.join(names)}"]) == 0
        with open(tmp_path / "summary.csv") as fh:
            rows = {r["scheme"]: r for r in csv.DictReader(fh)}
        for name in names:
            argv = ["solve", str(cfg), "--override", "scheme.names=",
                    "--override", f"scheme.name={name}", "--override", "output.result_json=r.json"]
            assert main(argv) == 0
            result = json.loads((tmp_path / "r.json").read_text())
            row = rows[name]
            assert row["status"] == result["status"]
            assert int(row["iterations"]) == result["iterations"]
            for key in ("estimated_rate", "predicted_rate"):
                assert result[key] is not None and float(row[key]) == result[key]

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_no_predicted_rate_under_a_sigma0_override(self, tmp_path, command):
        # predicted_rate is the rate at the scheme's own sigma0: basic at
        # sigma1 = 2 predicts 1/3 there, and diverges at sigma0 = 0.5
        cfg = write_config(tmp_path, COMPARE_CFG)
        argv = [command, str(cfg), "--override", "scheme.sigma0_re=0.5"]
        if command == "solve":
            argv += ["--override", "scheme.names=", "--override", "scheme.name=basic",
                     "--override", "output.result_json=r.json"]
        main(argv)
        if command == "solve":
            reports = [json.loads((tmp_path / "r.json").read_text())]
        else:
            with open(tmp_path / "summary.csv") as fh:
                reports = list(csv.DictReader(fh))
        assert reports[0]["status"] == "Diverged"
        assert len(reports) == (1 if command == "solve" else 4)
        assert all(r["predicted_rate"] in (None, "") for r in reports)


class TestReadmeConfig:
    """The README's example config lists every key and is a valid config."""

    @staticmethod
    def block():
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        return section.split("```ini\n", 1)[1].split("```", 1)[0]

    def test_lists_exactly_the_schema(self):
        listed = {}
        for line in self.block().splitlines():
            if line.startswith("["):
                keys = listed.setdefault(line.strip("[]"), set())
            elif match := re.match(r";?\s*(\w+)\s*=", line):
                keys.add(match.group(1))
        assert listed == {section: set(keys) for section, keys in cli._SCHEMA.items()}

    def test_parses(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, self.block()))
        assert cfg.scheme["name"] == "em_sub" and cfg.contours["nr"] == 41


class TestCyclicGarbage:
    @pytest.mark.parametrize(
        "command, base, extra",
        [
            ("solve", BENCH_SOLVE, []),
            ("compare", COMPARE_CFG, []),
            ("contours", CONTOURS_CFG, []),
            ("solve", BENCH_SOLVE, ["--override", "scheme.tol=0"]),
        ],
        ids=["solve", "compare", "contours", "config_error"],
    )
    def test_main_leaves_no_cyclic_garbage(self, tmp_path, command, base, extra):
        # argparse and configparser build their parsers in reference cycles;
        # left to a later collection, they moved the benchmark's peak memory
        cfg = write_config(tmp_path, base)
        argv = [command, str(cfg), "--override", "geometry.n=16", *extra]
        gc.collect()
        assert main(argv) == (2 if extra else 0)
        assert gc.collect() == 0


class TestSelftestCommand:
    def test_passes_and_deterministic(self, capsys):
        assert main(["selftest"]) == 0
        first = capsys.readouterr().out
        assert main(["selftest"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "checks passed" in first

    def test_perturbed_projection_fails_named_invariant(self, monkeypatch):
        # gamma1 scaled by 1.001 off the zero mode: no longer a projection
        green_table = spectral_ops._green_table

        def perturbed(ny, nx):
            g = green_table(ny, nx)
            return dataclasses.replace(g, inv_d2=1.001 * g.inv_d2)

        monkeypatch.setattr(spectral_ops, "_green_table", perturbed)
        results = run_selftest()
        failed = [r.name for r in results if not r.passed]
        assert "gamma1_idempotent" in failed
        report = format_report(results)
        assert "[FAIL] gamma1_idempotent" in report
