"""Tests of the benchmark itself: quick runs, checks that reject, tracing.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from latkern import interpolant, pde  # noqa: E402
from latkern.experiments import RateFit  # noqa: E402
from latkern.lattice import cbc_construct  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_quick_runs_pass_every_check_and_print_every_metric():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "all", "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--quick")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert [ln.split()[0] for ln in lines] == [
            w["name"] for w in SPEC["workloads"]
        ]
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for line in lines:
            res = json.loads(line.split(" ", 1)[1])
            assert res["correct"] and res["failed"] == 0, line
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(*"--workload cbc --seed 1 --seconds 1 --trace 0".split(),
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_cbc_check_rejects_a_wrong_trace_and_a_wrong_vector():
    spec = workloads.kernel_spec("product", 0.2, 2.4, 6)
    rng = np.random.default_rng(0)
    report = cbc_construct(spec, 64, 6)
    assert workloads.check_cbc(spec, report, 6, rng) is None
    crit = list(report.criterion_trace)
    crit[3] *= 1.0 + 1e-8
    bad = dataclasses.replace(
        report, criterion_trace=crit,
        wce_bound_trace=[2**0.5 * c**0.25 for c in crit],
    )
    assert "closed form" in workloads.check_cbc(spec, bad, 6, rng)
    bad = dataclasses.replace(report, z=report.z * 0 + 1)
    assert workloads.check_cbc(spec, bad, 6, rng) is not None


def test_study_checks_reject_wrong_rates():
    dt = workloads.DimTrunc(quick=True)
    dt.setup(0)
    flat = ["4,1e-3\n", "8,1e-3\n", "16,5e-4\n"]
    assert "fall" in dt._check(flat, RateFit(-1.9, 0.0, 0.0))
    falling = ["4,1e-3\n", "8,5e-4\n", "16,2.5e-4\n"]
    assert "slope" in dt._check(falling, RateFit(-1.0, 0.0, 0.0))
    it = workloads.Interp(quick=True)
    it.setup(0)
    rows = [f"{n},1e-3,nan\n" for n in it.cfg.n_schedule]
    assert "slope" in it._check(rows, RateFit(-0.5, 0.0, 0.0))
    assert "dense" in it._check(rows, RateFit(-1.5, 0.0, 0.0))


def test_tracer_nests_spans_and_restores_the_originals():
    original = pde.fem_solve
    spec = workloads.kernel_spec("product", 0.2, 2.4, 4)
    lat = cbc_construct(spec, 32, 4).lattice()
    tracer = spans.Tracer()
    tracer.install()
    try:
        interpolant.build(spec, lat, np.ones(32))
    finally:
        tracer.uninstall()
    assert pde.fem_solve is original
    outer, inner = tracer.spans
    assert (outer["layer"], inner["layer"]) == ("interpolant.build",
                                                "kernel.batch")
    assert inner["parent"] == outer["id"]
    totals = spans.layer_totals(tracer.spans)
    whole = outer["end"] - outer["start"]
    assert abs(totals["interpolant.build_s"] + totals["kernel.batch_s"]
               - whole) < 1e-12
    assert totals["kernel.batch_rows"] == 32 * 4
    assert totals["interpolant.fft_points"] == 32
