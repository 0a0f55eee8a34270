import math
from pathlib import Path

import numpy as np
import pytest

from latkern.cli import cli
from latkern.experiments import (
    StudyConfig,
    fit_rate,
    run_dim_truncation,
    run_interp_convergence,
    sobol_points,
)
from latkern.interpolant import build, evaluate_shifted_union, build_many
from latkern.kernel import KernelSpec
from latkern.lattice import Lattice, read_genvec, write_genvec
from latkern.pde import (
    DiffusionModel,
    FemMesh,
    fem_solve,
    h1_seminorm,
    truncated_solve,
)
from latkern.weights import WeightScheme


class TestSobol:
    def test_frozen_first_points(self):
        # unscrambled Sobol' sequence after skipping the origin
        pts = sobol_points(2, 3)
        np.testing.assert_allclose(pts[0], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(pts[1], [0.75, 0.25], atol=1e-15)
        np.testing.assert_allclose(pts[2], [0.25, 0.75], atol=1e-15)

    def test_range_and_shape(self):
        pts = sobol_points(10, 64)
        assert pts.shape == (64, 10)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)

    def test_deterministic(self):
        np.testing.assert_array_equal(sobol_points(5, 16), sobol_points(5, 16))

    def test_seed_offset_shifts_sequence(self):
        a = sobol_points(2, 4, seed_offset=0)
        b = sobol_points(2, 3, seed_offset=1)
        np.testing.assert_array_equal(a[1:], b)


class TestFitRate:
    def test_exact_power_law(self):
        ns = [16, 32, 64, 128]
        errs = [1.0 / n for n in ns]
        fit = fit_rate(ns, errs)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_flat_errors(self):
        fit = fit_rate([8, 16, 32], [0.3, 0.3, 0.3])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        ns = [10, 20, 40, 80]
        errs = [0.9, 0.31, 0.12, 0.05]
        a = fit_rate(ns, errs).slope
        b = fit_rate(ns, [7.0 * e for e in errs]).slope
        assert a == pytest.approx(b, rel=1e-12)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            fit_rate([8, 16], [0.1, 0.05])

    def test_nonpositive_error(self):
        with pytest.raises(ValueError):
            fit_rate([8, 16, 32], [0.1, 0.0, 0.01])


class TestStudyConfig:
    def test_decreasing_schedule_rejected(self):
        with pytest.raises(ValueError):
            StudyConfig("interp-convergence", n_schedule=(16, 8))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StudyConfig("bogus")

    def test_unknown_weights(self):
        with pytest.raises(ValueError):
            StudyConfig("interp-convergence", weights="uniform")


class TestSharedSpectrumPath:
    def test_matches_per_node_builds(self):
        # the study evaluates all shifted-union interpolants through one
        # shared-spectrum batch; verify against independent single builds
        spec = KernelSpec(2, WeightScheme("product", gamma_j=np.array([0.5, 0.3])))
        lat = Lattice(8, np.array([1, 3]))
        mesh = FemMesh(3)
        model = DiffusionModel(0.2, 2.4, 2)
        pts = lat.points()
        data = np.empty((mesh.n_unknowns, 8))
        for k in range(8):
            data[:, k] = fem_solve(mesh, model, pts[k]).interior_values
        batch = build_many(spec, lat, data)
        y = np.array([0.37, 0.81])
        su = batch.shifted_union(y)
        for i in range(mesh.n_unknowns):
            itp = build(spec, lat, data[i])
            want = evaluate_shifted_union(itp, y)
            np.testing.assert_allclose(su[i], want, rtol=1e-12, atol=1e-12)


class TestRunInterpConvergence:
    def test_degenerate_tiny_run(self, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = StudyConfig(
            "interp-convergence",
            weights="product",
            s=2,
            n_schedule=(2, 4),
            mesh_level=2,
            L=1,
            out=str(out),
        )
        rows, fit = run_interp_convergence(cfg)
        assert len(rows) == 2
        assert fit is None  # fewer than 3 sizes
        lines = out.read_text().splitlines()
        assert lines[0] == "n,error,slope_so_far"
        assert len(lines) == 3

    def test_estimator_invariant_under_point_permutation(self):
        # the averaged error does not depend on the order of the test points
        base = dict(
            weights="product", s=2, n_schedule=(4,), mesh_level=2, L=4
        )
        cfg = StudyConfig("interp-convergence", **base)
        rows, _ = run_interp_convergence(cfg)
        err = float(rows[0].split(",")[1])
        # same points via one long sequence read in a different order is not
        # exposed; instead check determinism across repeat runs
        rows2, _ = run_interp_convergence(cfg)
        assert rows2[0].split(",")[1] == rows[0].split(",")[1]
        assert err > 0.0


class TestRunDimTruncation:
    def test_rows_match_independent_recomputation(self, tmp_path):
        # each row is the lattice RMS of the H^1_0 error of the s-term
        # truncation; recompute it by zeroing y beyond s in the full model
        n, s_ref = 64, 16
        z = [pow(3, j, n) for j in range(s_ref)]
        genvec = tmp_path / "z.txt"
        write_genvec(genvec, z, n)
        out = tmp_path / "dimtrunc.csv"
        cfg = StudyConfig(
            "dim-truncation",
            theta=2.4,
            c=0.4,
            s_ref=s_ref,
            quad_n=n,
            mesh_level=3,
            genvec=str(genvec),
            out=str(out),
        )
        rows, fit = run_dim_truncation(cfg)
        assert fit is None  # s = 4, 8: fewer than 3 rows
        assert out.read_text().splitlines() == ["s,error"] + [
            r.strip() for r in rows
        ]
        mesh = FemMesh(3)
        model = DiffusionModel(0.4, 2.4, s_ref)
        pts = Lattice(n, np.array(z)).points()
        ref = [fem_solve(mesh, model, y).interior_values for y in pts]
        assert [int(r.split(",")[0]) for r in rows] == [4, 8]
        for row in rows:
            s, err = row.strip().split(",")
            acc = 0.0
            for u, y in zip(ref, pts):
                trunc = truncated_solve(mesh, model, y, int(s)).interior_values
                acc += h1_seminorm(mesh, u - trunc) ** 2
            assert float(err) == pytest.approx(math.sqrt(acc / n), rel=1e-8)


class TestCli:
    def test_cbc_writes_genvec(self, tmp_path):
        out = tmp_path / "z.txt"
        rc = cli(
            [
                "cbc",
                "--weights", "product",
                "--s", "3",
                "--n-list", "16",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lat = read_genvec(out)
        assert lat.n == 16 and lat.s == 3 and lat.z[0] == 1

    def test_cbc_stdout_csv(self, capsys):
        rc = cli(["cbc", "--weights", "product", "--s", "2", "--n-list", "8"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "dimension,z_d,S_d,bound_d"
        assert len(out) == 3

    def test_selftest_passes(self, capsys):
        assert cli(["selftest"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_bad_schedule_exits_1(self, capsys):
        rc = cli(
            ["interp-study", "--weights", "product", "--n-list", "16,8"]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_config_file(self, tmp_path):
        conf = tmp_path / "study.conf"
        conf.write_text("weights = product\ns = 3\nn_list = 16\n")
        out = tmp_path / "z.txt"
        rc = cli(["--config", str(conf), "cbc", "--out", str(out)])
        assert rc == 0
        assert read_genvec(out).s == 3

    def test_flag_overrides_config(self, tmp_path, capsys):
        conf = tmp_path / "study.conf"
        conf.write_text("weights = product\ns = 5\nn_list = 8\n")
        rc = cli(["--config", str(conf), "cbc", "--s", "2"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3  # header + 2 dimensions

    def test_unknown_command_exits_1(self):
        assert cli(["frobnicate"]) == 1

    @staticmethod
    def _no_solves(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("fem_solve ran before the vector check")

        monkeypatch.setattr("latkern.experiments.fem_solve", fail)

    @pytest.mark.parametrize(
        "command,sizes",
        [
            ("interp-study", ["--s", "4", "--n-list", "16", "--L", "1"]),
            ("dimtrunc-study", []),
        ],
    )
    def test_short_genvec_exits_1_before_solving(
        self, command, sizes, tmp_path, monkeypatch, capsys
    ):
        # dimtrunc-study needs s_ref = 512 components at quad_n = 8192
        genvec = tmp_path / "short.txt"
        n = 16 if command == "interp-study" else 8192
        write_genvec(genvec, [1, 3, 5], n)
        self._no_solves(monkeypatch)
        rc = cli(
            [command, "--weights", "product", "--mesh-level", "1",
             "--genvec", str(genvec), *sizes]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "short.txt" in err and "3 components" in err

    def test_genvec_header_n_outside_schedule_exits_1(
        self, tmp_path, monkeypatch, capsys
    ):
        genvec = tmp_path / "z.txt"
        write_genvec(genvec, [1, 3, 5, 7], 64)
        self._no_solves(monkeypatch)
        rc = cli(
            ["interp-study", "--weights", "product", "--s", "4",
             "--n-list", "16,32,64", "--mesh-level", "1", "--L", "1",
             "--genvec", str(genvec)]
        )
        assert rc == 1
        assert "n=64" in capsys.readouterr().err

    def test_singular_spectrum_exits_2(self, tmp_path, monkeypatch, capsys):
        # SPOD weights on the first 10 components of the bundled n = 8192
        # vector: min/max |lambda| is about 1.7e-15.  The spectrum depends
        # only on the lattice and the kernel, so the solves are stubbed.
        full = read_genvec(
            Path(__file__).resolve().parent.parent
            / "src" / "latkern" / "data" / "genvec-default.txt"
        )
        genvec = tmp_path / "z10.txt"
        write_genvec(genvec, full.z[:10], full.n)
        mesh = FemMesh(1)

        class Zero:
            interior_values = np.zeros(mesh.n_unknowns)

        monkeypatch.setattr(
            "latkern.experiments.fem_solve", lambda *a, **k: Zero
        )
        rc = cli(
            ["interp-study", "--weights", "spod", "--s", "10",
             "--n-list", "8192", "--mesh-level", "1", "--L", "1",
             "--genvec", str(genvec)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "near-singular circulant spectrum" in err
        assert "min/max |lambda|" in err
