"""Benchmark of latkern: CBC search, both PDE studies and surrogate evaluation.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

NAME is cbc, interp, dimtrunc or surrogate (see README.md), or ``all``,
which runs each in its own process.  The run first starts a few fresh
interpreters that only set the workload up and reports the median time
to that point as ``setup_s``.  It then sets up in-process and runs whole
rounds of the main work until T seconds have passed, checking the
outputs of every round.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end: ``setup_s``, ``wall_s``
(median main-work time per round) and ``peak_rss_mb``.  Both times are
given at a reference speed: each is measured in multiples of a fixed
calibration loop timed just before and after it, times CALIB_REF_S (see
``calibrate`` and README.md, "Steadiness").  With ``--trace 1`` untraced
and traced rounds alternate, and the metrics are per layer, in measured
seconds, each for one set-up plus one round (median over traced rounds);
the spans are written to perfbench/results/.  ``--quick`` runs tiny sizes
with every check, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
NAMES = ("cbc", "interp", "dimtrunc", "surrogate")
SETUP_PROBES = 5
# Reference speed: times are reported as if the calibration loop took this.
CALIB_REF_S = 0.050


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, every check, one probe")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # a set-up probe's mode
    return p


def _import_latkern():
    """Put the checkout's src/ first on the path; fail without it."""
    if not (SRC / "latkern" / "__init__.py").is_file():
        sys.exit(f"error: no latkern sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import latkern

    if Path(latkern.__file__).resolve().parent != SRC / "latkern":
        sys.exit(f"error: latkern imported from {latkern.__file__}")


class Clock:
    """Times ``with`` blocks (wall spans and summed CPU); traces inside them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.segments = []  # (start, end) of each block
        self.cpu = 0.0
        self.raised = False

    @property
    def wall(self) -> float:
        return sum(end - start for start, end in self.segments)

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.segments.append((self._wall, time.perf_counter()))
        self.cpu += time.process_time() - self._cpu
        if self.tracer is not None:
            self.tracer.uninstall()
        self.raised |= exc_type is not None
        return False


def _blas_threads() -> str:
    """OpenBLAS thread count of the numpy in use, if it can be read."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*.so"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return str(fn())
    return "unknown"


def _environment() -> str:
    import numpy
    import scipy

    return (
        f"cores={len(os.sched_getaffinity(0))} blas_threads={_blas_threads()}"
        f" python={platform.python_version()} numpy={numpy.__version__}"
        f" scipy={scipy.__version__}"
    )


def calibrate() -> float:
    """Seconds that a fixed mix of pure Python, small-array numpy and FFTs takes.

    The mix runs no latkern code, so its time follows only the speed the
    machine gives this process at the moment (README.md, "Steadiness").
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for k in range(100_000):
        acc += k * k % 7
    v = np.linspace(0.0, 1.0, 512)
    for _ in range(1_500):
        v = np.sin(v) + 0.5 * v[::-1]
    block = np.full((32, 8192), 1.0 + 1.0j)
    for _ in range(4):
        block = np.fft.ifft(np.fft.fft(block, axis=1), axis=1)
    return time.perf_counter() - start


def _calibration() -> tuple:
    """(midpoint, seconds) of one calibration."""
    start = time.perf_counter()
    secs = calibrate()
    return start + secs / 2, secs


def _in_calibrations(segments, before, after) -> float:
    """Sum of the segments' times, each in multiples of the calibration.

    The calibration at a segment's midpoint is interpolated linearly
    between the ones taken just before and just after the round.
    """
    (t0, c0), (t1, c1) = before, after
    total = 0.0
    for start, end in segments:
        calib = c0 + (c1 - c0) * ((start + end) / 2 - t0) / (t1 - t0)
        total += (end - start) / calib
    return total


def _probe_setup(args, count: int) -> list:
    """Times from starting a fresh interpreter to the end of set-up.

    Each time is in multiples of the calibrations taken around it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.quick:
        cmd.append("--quick")
    times = []
    calib = _calibration()
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        after = _calibration()
        times.append(_in_calibrations([(start, ready)], calib, after))
        calib = after
    return times


def _per_layer(setup_spans, traced, untraced) -> dict:
    """Per-layer metrics for one set-up plus one (median) traced round."""
    import spans

    base = spans.layer_totals(setup_spans)
    rounds = [spans.layer_totals(r["spans"]) for r in traced]
    vals = {
        k: base[k] + (statistics.median_low if k in spans.COUNTS
                      else statistics.median)(r[k] for r in rounds)
        for k in base
    }

    def per(num, den, unit):
        return vals[num] / vals[den] * unit if vals[den] else 0.0

    vals["lattice.cbc_us_per_candidate"] = per(
        "lattice.cbc_s", "lattice.cbc_candidates", 1e6)
    vals["pde.solve_ms"] = per("pde.solve_s", "pde.solves", 1e3)
    vals["kernel.ns_per_row"] = per("kernel.batch_s", "kernel.batch_rows", 1e9)
    vals["run.cpu_s"] = statistics.median(r["cpu"] for r in traced)
    vals["run.trace_overhead_s"] = CALIB_REF_S * (
        statistics.median(r["in_calib"] for r in traced)
        - statistics.median(r["in_calib"] for r in untraced)
    )
    vals["run.calib_s"] = statistics.median(r["calib"] for r in traced)
    units = {k: "count" for k in spans.COUNTS}
    units.update({
        "lattice.cbc_us_per_candidate": "us",
        "pde.solve_ms": "ms",
        "kernel.ns_per_row": "ns",
    })
    return {k: {"value": v, "unit": units.get(k, "s")} for k, v in vals.items()}


def run_workload(args) -> dict:
    setup_calib = _probe_setup(args, 1 if args.quick else SETUP_PROBES)
    import spans
    import workloads

    print(_environment(), file=sys.stderr)
    wl = workloads.make(args.workload, args.quick)
    tracer = spans.Tracer([workloads]) if args.trace else None
    with Clock(tracer):
        wl.setup(args.seed)
    setup_spans = list(tracer.spans) if tracer else []

    rounds = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    calib = _calibration()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        clock = Clock(tracer if traced else None)
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.round = len(rounds)
        try:
            verdicts = wl.round(clock)
            if len(verdicts) != wl.ops:
                raise RuntimeError(f"{len(verdicts)} verdicts for {wl.ops} ops")
        except Exception as exc:  # one failed round must not end the run
            print(f"round {len(rounds)}: {exc!r}", file=sys.stderr)
            verdicts = [repr(exc)] * wl.ops
            correct &= clock.raised  # an error in a check is a wrong output
        else:
            correct &= all(v is None for v in verdicts)
        for v in verdicts:
            if v is not None:
                print(f"round {len(rounds)}: {v}", file=sys.stderr)
        attempted += wl.ops
        failed += sum(v is not None for v in verdicts)
        after = _calibration()
        rounds.append({
            "traced": traced, "wall": clock.wall, "cpu": clock.cpu,
            "calib": (calib[1] + after[1]) / 2,
            "in_calib": _in_calibrations(clock.segments, calib, after),
            "spans": tracer.spans[first_span:] if tracer else [],
        })
        calib = after
        kinds = {r["traced"] for r in rounds}
        if (time.perf_counter() - start >= args.seconds
                and len(kinds) == 1 + args.trace):
            break
    untraced = [r for r in rounds if not r["traced"]]
    print(
        f"{args.workload}: {len(rounds)} rounds; measured untraced wall "
        + ", ".join(f"{r['wall']:.3f}" for r in untraced)
        + " s; calibration "
        + ", ".join(f"{r['calib'] * 1e3:.1f}" for r in untraced) + " ms",
        file=sys.stderr,
    )
    if tracer:
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = _per_layer(
            setup_spans, [r for r in rounds if r["traced"]], untraced
        )
    else:
        # At the reference speed: multiples of the calibration loop times
        # the time CALIB_REF_S that the loop is taken to last.
        wall = statistics.median(r["in_calib"] for r in untraced)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {
                "value": statistics.median(setup_calib) * CALIB_REF_S,
                "unit": "s",
            },
            "wall_s": {"value": wall * CALIB_REF_S, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; one result line per workload."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name} {lines[-1] if lines else '(no result)'}", flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
        elif not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_latkern()
    if args.setup_only:
        import workloads

        workloads.make(args.workload, args.quick).setup(args.seed)
        print("ready", flush=True)
        return 0
    print(json.dumps(run_workload(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
