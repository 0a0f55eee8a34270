import argparse
import dataclasses
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latkern.cli import _COMMANDS, _TYPES, _cmd_cbc, _parser, cli
from latkern.experiments import (
    StudyConfig,
    derive_for_family,
    fit_rate,
    random_shifts,
    run_dim_truncation,
    run_interp_convergence,
)
from latkern.interpolant import build
from latkern.kernel import KernelSpec
from latkern.lattice import Lattice, cbc_construct, read_genvec, write_genvec
from latkern.pde import (
    DiffusionModel,
    FemMesh,
    decay_sequence,
    fem_solve,
    h1_seminorm,
    l2_norm,
)
from latkern.weights import (
    PdeWeightInput,
    Scaled,
    WeightScheme,
    squared_weight_prefixes,
)
from reference import kernel_eval, truncated_solve


class TestSobol:
    def test_frozen_first_points(self):
        # numpy's generator, seeded once: a longer draw extends a shorter
        shifts = random_shifts(3, 8, 5)
        want = np.random.default_rng(5).random((8, 3))
        np.testing.assert_array_equal(shifts, want)
        assert np.all(shifts >= 0.0) and np.all(shifts < 1.0)
        np.testing.assert_array_equal(random_shifts(3, 20, 5)[:8], shifts)

    def test_range_and_shape(self):
        pts = random_shifts(10, 64, 0)
        assert pts.shape == (64, 10)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_shifts(5, 16, 3), random_shifts(5, 16, 3)
        )

    def test_seeds_give_different_shifts(self):
        a, b = random_shifts(2, 4, 0), random_shifts(2, 4, 1)
        assert not np.any(a == b)

    def test_any_dimension(self):
        assert random_shifts(21202, 4, 0).shape == (4, 21202)

    def test_large_seed(self):
        # no bound on seed + L: any seed >= 0 gives L shifts
        shifts = random_shifts(2, 2, 2**30 - 2)
        np.testing.assert_array_equal(
            shifts, np.random.default_rng(2**30 - 2).random((2, 2))
        )
        assert random_shifts(2, 2, 2**64).shape == (2, 2)


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            StudyConfig("interp-convergence", seed=-1)


def test_unknown_family_named():
    inp = PdeWeightInput(0.5, np.array([0.5, 0.25]), 0.1)
    with pytest.raises(ValueError, match="'bogus'"):
        derive_for_family("bogus", inp, 2)


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
        batch = build(spec, lat, data)
        y = np.array([0.37, 0.81])
        su = batch.shifted_union(y)
        for i in range(mesh.n_unknowns):
            itp = build(spec, lat, data[i])
            want = itp.shifted_union(y)
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


    def test_rows_match_independent_recomputation(self):
        # each row is the RMS over the L shifted lattices of the L2(D)
        # error; recompute it from a dense Gram solve and per-point norms
        cfg = StudyConfig(
            "interp-convergence", weights="product", s=2,
            n_schedule=(8, 16, 32), mesh_level=3, L=2,
        )
        rows, _ = run_interp_convergence(cfg)
        assert [int(r.split(",")[0]) for r in rows] == [8, 16, 32]
        model = DiffusionModel(cfg.c, cfg.theta, cfg.s)
        inp = PdeWeightInput(cfg.p, decay_sequence(model, cfg.s), cfg.delta)
        params = derive_for_family(cfg.weights, inp, cfg.s)
        spec = KernelSpec(params.alpha, params.scheme)
        mesh = FemMesh(cfg.mesh_level)
        shifts = random_shifts(cfg.s, cfg.L, cfg.seed)

        def u(y):
            return fem_solve(mesh, model, y).interior_values

        for row in rows:
            n = int(row.split(",")[0])
            pts = cbc_construct(spec, n, cfg.s).lattice().points()
            gram = np.array(
                [[kernel_eval(spec, a, b) for b in pts] for a in pts]
            )
            coeffs = np.linalg.solve(gram, np.array([u(p) for p in pts]))
            acc = 0.0
            for y in shifts:
                for x in (y + pts) % 1.0:
                    k_x = np.array([kernel_eval(spec, x, b) for b in pts])
                    acc += l2_norm(mesh, u(x) - k_x @ coeffs) ** 2
            want = math.sqrt(acc / (cfg.L * n))
            assert float(row.split(",")[1]) == pytest.approx(want, rel=1e-8)


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

    def test_module_run_writes_what_cli_writes(self, tmp_path):
        # `python -m latkern.cli` runs the CLI from a checkout, uninstalled
        argv = ["cbc", "--weights", "product", "--s", "4", "--n-list", "64"]
        assert cli([*argv, "--out", str(tmp_path / "lib.txt")]) == 0
        subprocess.run(
            [sys.executable, "-m", "latkern.cli", *argv,
             "--out", str(tmp_path / "module.txt")],
            check=True,
        )
        got = (tmp_path / "module.txt").read_bytes()
        assert got == (tmp_path / "lib.txt").read_bytes()

    def test_cbc_stdout_csv(self, capsys):
        rc = cli(["cbc", "--weights", "product", "--s", "2", "--n-list", "8"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "dimension,z_d,S_d,bound_d"
        assert len(out) == 3

    def test_pod_search_with_fast_growing_order_factors(self, capsys):
        # Gamma_ell of these POD weights passes 2^800, far above the
        # kernel values; the search used to die on an uncaught error
        rc = cli(["cbc", "--weights", "pod", "--theta", "3.6", "--p", "0.3",
                  "--s", "40", "--n-list", "64"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 40
        for row in rows:
            sd = float(row.split(",")[2])
            assert math.isfinite(sd) and sd >= 0.0

    def test_pod_search_past_double_range_of_the_order_factor_input(
        self, capsys
    ):
        # ell z2^ell overflows a double from ell = 279 with these weights;
        # the search used to exit 1 or 2 on it
        rc = cli(["cbc", "--weights", "pod", "--s", "300", "--n-list", "16"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 300
        for row in rows:
            sd = float(row.split(",")[2])
            assert math.isfinite(sd) and sd >= 0.0

    def test_criterion_cancellation_exits_2(self, monkeypatch, capsys):
        # a subtracted term twice too large leaves S_d far below zero
        def doubled(*args):
            return [Scaled(q.mantissa, q.exponent + 1)
                    for q in squared_weight_prefixes(*args)]

        monkeypatch.setattr(
            "latkern.lattice.squared_weight_prefixes", doubled
        )
        rc = cli(["cbc", "--weights", "product", "--s", "2", "--n-list", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical failure: criterion cancellation beyond tolerance"
        )
        assert "Traceback" not in err

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
        """Fail any FEM solve, and the search of `latkern cbc`."""

        def fail(*args, **kwargs):
            raise AssertionError("the work ran before the input checks")

        monkeypatch.setattr("latkern.experiments.fem_solve", fail)
        monkeypatch.setattr("latkern.cli.cbc_construct", fail)

    @pytest.mark.parametrize(
        "command,sizes",
        [
            (
                "interp-study",
                ["--weights", "product", "--s", "4", "--n-list", "16",
                 "--L", "1"],
            ),
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
            [command, "--mesh-level", "1", "--genvec", str(genvec), *sizes]
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
        # only on the lattice and the kernel, so no solve may run first.
        full = read_genvec(
            Path(__file__).resolve().parent.parent
            / "src" / "latkern" / "data" / "genvec-default.txt"
        )
        genvec = tmp_path / "z10.txt"
        write_genvec(genvec, full.z[:10], full.n)
        self._no_solves(monkeypatch)
        rc = cli(
            ["interp-study", "--weights", "spod", "--s", "10",
             "--n-list", "8192", "--mesh-level", "1", "--L", "1",
             "--genvec", str(genvec)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "near-singular circulant spectrum" in err
        assert "min/max |lambda|" in err

    @pytest.mark.parametrize(
        "argv,missing",
        [
            (["interp-study", "--s", "4", "--n-list", "16", "--L", "1",
              "--genvec", "{dir}/none.txt"], "none.txt"),
            (["dimtrunc-study", "--genvec", "{dir}/none.txt"], "none.txt"),
            (["interp-study", "--s", "4", "--n-list", "16", "--L", "1",
              "--out", "{dir}/none/out.csv"], "none"),
            (["dimtrunc-study", "--mesh-level", "1",
              "--out", "{dir}/none/out.csv"], "none"),
            (["cbc", "--s", "2", "--n-list", "8",
              "--out", "{dir}/none/z.txt"], "none"),
        ],
    )
    def test_file_error_exits_1(
        self, argv, missing, tmp_path, monkeypatch, capsys
    ):
        # a missing --genvec or an --out in no directory is an input error
        # and fails before the first solve or CBC search
        self._no_solves(monkeypatch)
        rc = cli([a.format(dir=tmp_path) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(tmp_path / missing) in err

    def test_negative_seed_exits_1(self, monkeypatch, capsys):
        self._no_solves(monkeypatch)
        rc = cli(["interp-study", "--seed", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("seed", [2**32, 2**30])
    def test_large_seed_runs(self, seed, capsys):
        # default_rng takes any seed >= 0; past 2**32 numpy's
        # OverflowError once exited 2
        rc = cli(
            ["interp-study", "--weights", "product", "--s", "2",
             "--n-list", "8,16,32", "--mesh-level", "1", "--L", "1",
             "--seed", str(seed)]
        )
        assert rc == 0
        assert "# fitted slope" in capsys.readouterr().out

    def test_floating_point_error_exits_2(self, monkeypatch, capsys):
        def fail(cfg):
            raise FloatingPointError("2 of 5 solutions not finite")

        monkeypatch.setattr("latkern.cli.run_interp_convergence", fail)
        assert cli(["interp-study"]) == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: 2 of 5 solutions not finite\n"

    def test_runtime_error_is_not_a_numerical_failure(
        self, monkeypatch, capsys
    ):
        # a RuntimeError (RecursionError, NotImplementedError, ...) is a
        # defect in the program: it propagates with its traceback
        def fail(cfg):
            raise RuntimeError("no such path")

        monkeypatch.setattr("latkern.cli.run_interp_convergence", fail)
        with pytest.raises(RuntimeError, match="no such path"):
            cli(["interp-study"])
        assert "numerical failure" not in capsys.readouterr().err

    def test_cbc_failed_search_keeps_the_out_file(
        self, tmp_path, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise ArithmeticError("search failed")

        monkeypatch.setattr("latkern.cli.cbc_construct", fail)
        out = tmp_path / "z.txt"
        out.write_text("# n=8\n1 1\n")
        rc = cli(["cbc", "--s", "2", "--n-list", "8", "--out", str(out)])
        assert rc == 2
        assert out.read_text() == "# n=8\n1 1\n"

    def test_cbc_several_n_exits_1(self, capsys):
        rc = cli(["cbc", "--weights", "product", "--s", "2",
                  "--n-list", "16,32,64"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "16,32,64" in captured.err

    @pytest.mark.parametrize(
        "argv,config,name",
        [
            (["dimtrunc-study", "--s", "64"], None, "--s"),
            (["dimtrunc-study", "--n-list", "2048"], None, "--n-list"),
            (["cbc", "--L", "5"], None, "--L"),
            (["dimtrunc-study", "--weights", "pod"], None, "--weights"),
            (["interp-study", "--threads", "4"], None, "--threads"),
            (["interp-study"], "threads = 4\n", "'threads'"),
            (["cbc"], "L = 5\n", "'L'"),
            (["cbc", "--n", "8"], None, "--n"),  # no prefix of --n-list
        ],
    )
    def test_option_the_command_does_not_read_exits_1(
        self, argv, config, name, tmp_path, monkeypatch, capsys
    ):
        self._no_solves(monkeypatch)
        if config is not None:
            conf = tmp_path / "study.conf"
            conf.write_text(config)
            argv = ["--config", str(conf), *argv]
        assert cli(argv) == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_cli_csv_matches_library(self, via, tmp_path):
        # every value differs from the StudyConfig default and changes the
        # CSV, so a flag or key that the CLI drops or mistypes shows here
        values = dict(
            weights="product", theta=2.7, c=0.3, p=0.45, delta=0.05, s=3,
            n_list="8,16", mesh_level=2, L=2, seed=5,
        )
        lib_out = tmp_path / "lib.csv"
        cfg = dict(values, n_schedule=(8, 16), out=str(lib_out))
        del cfg["n_list"]
        run_interp_convergence(StudyConfig("interp-convergence", **cfg))
        cli_out = tmp_path / "cli.csv"
        if via == "flags":
            argv = [
                t for k, v in values.items()
                for t in ("--" + k.replace("_", "-"), str(v))
            ]
            argv = ["interp-study", *argv]
        else:
            conf = tmp_path / "study.conf"
            conf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            argv = ["--config", str(conf), "interp-study"]
        assert cli([*argv, "--out", str(cli_out)]) == 0
        assert cli_out.read_bytes() == lib_out.read_bytes()


_FIELDS = {f.name for f in dataclasses.fields(StudyConfig)}


class _ReadRecorder(StudyConfig):
    """A StudyConfig that records the fields read after __post_init__."""

    def __post_init__(self):
        super().__post_init__()
        self.reads = set()

    def __getattribute__(self, name):
        if name in _FIELDS:
            reads = object.__getattribute__(self, "__dict__").get("reads")
            if reads is not None:
                reads.add(name)
        return object.__getattribute__(self, name)


class TestEveryOptionIsRead:
    COMMANDS = ["cbc", "interp-study", "dimtrunc-study"]

    @staticmethod
    def _subparsers():
        return next(
            a for a in _parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ).choices

    def test_every_command_covered(self):
        assert sorted(self._subparsers()) == sorted(self.COMMANDS)

    def _fields_read(self, command, tmp_path):
        out = str(tmp_path / "out.txt")
        if command == "cbc":
            cfg = _ReadRecorder(
                "cbc-only", weights="product", s=2, n_schedule=(8,), out=out
            )
            _cmd_cbc(cfg)
        elif command == "interp-study":
            cfg = _ReadRecorder(
                "interp-convergence", weights="product", s=2,
                n_schedule=(4, 8), mesh_level=2, L=1, out=out,
            )
            run_interp_convergence(cfg)
        else:
            # the CLI pins quad_n = 8192; call the study at a small one
            n, s_ref = 16, 8
            genvec = tmp_path / "z.txt"
            write_genvec(genvec, [pow(3, j, n) for j in range(s_ref)], n)
            cfg = _ReadRecorder(
                "dim-truncation", s_ref=s_ref, quad_n=n, mesh_level=2,
                genvec=str(genvec), out=out,
            )
            run_dim_truncation(cfg)
        return cfg.reads

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_accepted_option_is_read(self, command, tmp_path):
        accepted = {
            "n_schedule" if a.dest == "n_list" else a.dest
            for a in self._subparsers()[command]._actions
            if a.dest != "help"
        }
        unread = accepted - self._fields_read(command, tmp_path)
        assert not unread, f"{command} accepts options it never reads"


class TestReadmeOptionTable:
    """README's option table under "Command-line interface" is the CLI's."""

    @staticmethod
    def _table():
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text().split("\n## Command-line interface\n")[1]
        section = section.split("\n## ", 1)[0]
        block = re.search(r"^\|.*(?:\n\|.*)*", section, re.MULTILINE)
        header, _, *body = (
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in block.group().splitlines()
        )
        return header, body

    def test_command_columns_are_the_commands(self):
        header, _ = self._table()
        assert [h.strip("`") for h in header[2:]] == list(_COMMANDS)

    def test_cells_mark_the_options_each_command_accepts(self):
        header, body = self._table()
        commands = [h.strip("`") for h in header[2:]]
        listed = []
        for option, _, *cells in body:
            for name in re.findall(r"`--([\w-]+)`", option):
                key = name.replace("-", "_")
                listed.append(key)
                marked = {cmd for cmd, cell in zip(commands, cells) if cell}
                accepting = {
                    cmd for cmd in commands if key in _COMMANDS[cmd][1]
                }
                assert marked == accepting, f"--{name}"
        assert sorted(listed) == sorted(_TYPES)
