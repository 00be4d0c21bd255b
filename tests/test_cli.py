"""Command-line front end: configs, artifacts, determinism, selftest."""

import csv
import dataclasses
import json
import math

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

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, BENCH_SOLVE + "\n[scheme]\nbogus = 1\n")
        assert main(["solve", str(cfg)]) == 2

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
        assert not (tmp_path / "result.json").exists()

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
