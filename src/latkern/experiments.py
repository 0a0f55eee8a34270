"""Convergence studies for the PDE surrogate and their CSV emission.

Two studies: kernel-interpolation convergence of the parameterized FEM
solution over a schedule of lattice sizes, and dimension-truncation error
against a high-dimensional reference.  Both are deterministic for a fixed
config and seed; all reductions run in a fixed order, so results do not
depend on thread counts.
"""

from __future__ import annotations

import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.stats import qmc

from .interpolant import build_many
from .kernel import KernelSpec, frac
from .lattice import Lattice, cbc_construct, read_genvec
from .pde import (
    DiffusionModel,
    FemMesh,
    decay_sequence,
    fem_solve,
    h1_seminorm,
    l2_norm,
)
from .weights import (
    PdeWeightInput,
    derive_pod,
    derive_product,
    derive_spod,
)

__all__ = [
    "StudyConfig",
    "RateFit",
    "sobol_points",
    "fit_rate",
    "run_interp_convergence",
    "run_dim_truncation",
    "derive_for_family",
]

_SOBOL_MAX_DIM = 21201  # scipy's Joe-Kuo direction-number table


@dataclass
class StudyConfig:
    kind: str
    weights: str = "spod"
    theta: float = 2.4
    c: float = 0.2
    p: float = 1.0 / 2.2
    delta: float = 0.1
    s: int = 10
    n_schedule: tuple = (16, 32, 64, 128, 256, 512, 1024)
    mesh_level: int = 5
    L: int = 100
    s_ref: int = 512
    quad_n: int = 8192
    seed: int = 0
    genvec: str | None = None
    out: str | None = None
    threads: int = 1

    def __post_init__(self):
        if self.kind not in ("interp-convergence", "dim-truncation", "cbc-only"):
            raise ValueError(f"unknown study kind {self.kind!r}")
        if self.weights not in ("product", "pod", "spod"):
            raise ValueError(f"unknown weight family {self.weights!r}")
        ns = tuple(int(n) for n in self.n_schedule)
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n schedule must be strictly increasing")
        if self.L < 1 or self.mesh_level < 1 or self.s < 1:
            raise ValueError("L, mesh level, and s must be positive")


@dataclass
class RateFit:
    slope: float
    intercept: float
    residual: float
    table: list = field(default_factory=list)


def fit_rate(ns, errors) -> RateFit:
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(ns) < 3 or len(ns) != len(errors):
        raise ValueError("need at least 3 (n, error) pairs")
    if np.any(ns <= 0) or np.any(errors <= 0):
        raise ValueError("rate fit needs positive sizes and errors")
    slope, intercept = np.polyfit(np.log(ns), np.log(errors), 1)
    resid = np.log(errors) - (slope * np.log(ns) + intercept)
    return RateFit(
        float(slope),
        float(intercept),
        float(np.sqrt(np.mean(resid**2))),
        table=list(zip(ns.tolist(), errors.tolist())),
    )


def sobol_points(s: int, L: int, seed_offset: int = 0) -> np.ndarray:
    """First L Sobol' points after skipping the all-zeros point."""
    if s > _SOBOL_MAX_DIM:
        raise ValueError(
            f"s={s} exceeds the direction-number table; use a random-uniform"
            " fallback instead"
        )
    eng = qmc.Sobol(d=s, scramble=False)
    eng.fast_forward(1 + seed_offset)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return eng.random(L)


def derive_for_family(family: str, inp: PdeWeightInput, s: int):
    if family == "spod":
        return derive_spod(inp, s)
    if family == "pod":
        return derive_pod(inp, s)
    return derive_product(inp, s)


def _write_rows(path: str | None, header: str, rows: list[str]) -> None:
    if path is None:
        return
    Path(path).write_text(header + "\n" + "".join(rows))


def _genvec_prefix(path: str, n: int, s: int) -> Lattice:
    """The first s components of the generating vector in path."""
    lat = read_genvec(path, n)
    if lat.s < s:
        raise ValueError(
            f"{path}: generating vector has {lat.s} components, "
            f"fewer than the {s} required"
        )
    return Lattice(lat.n, lat.z[:s])


def run_interp_convergence(cfg: StudyConfig):
    """(n, error, slope_so_far) rows plus a final RateFit.

    The error is the RMS over shifted lattice points of the L2(D) norm of
    the interpolation error.
    """
    model = DiffusionModel(cfg.c, cfg.theta, cfg.s)
    inp = PdeWeightInput(cfg.p, decay_sequence(model, cfg.s), cfg.delta)
    params = derive_for_family(cfg.weights, inp, cfg.s)
    spec = KernelSpec(params.alpha, params.scheme)
    mesh = FemMesh(cfg.mesh_level)
    sob = sobol_points(cfg.s, cfg.L, cfg.seed)
    # read every vector before the first solve, so a bad file fails fast
    given = (
        {}
        if cfg.genvec is None
        else {n: _genvec_prefix(cfg.genvec, n, cfg.s) for n in cfg.n_schedule}
    )
    header = "n,error,slope_so_far"
    rows: list[str] = []
    ns: list[int] = []
    errs: list[float] = []
    for n in cfg.n_schedule:
        t0 = time.perf_counter()
        if cfg.genvec is not None:
            lat = given[n]
        else:
            lat = cbc_construct(spec, n, cfg.s).lattice()
        pts = lat.points()
        data = np.empty((mesh.n_unknowns, n))
        for k in range(n):
            data[:, k] = fem_solve(mesh, model, pts[k]).interior_values
        batch = build_many(spec, lat, data)
        acc = 0.0
        for ell in range(cfg.L):
            y = sob[ell]
            approx = batch.shifted_union(y)
            shifted = frac(y[None, :] + pts)
            for k in range(n):
                truth = fem_solve(mesh, model, shifted[k]).interior_values
                acc += l2_norm(mesh, truth - approx[:, k]) ** 2
        err = math.sqrt(acc / (cfg.L * n))
        ns.append(n)
        errs.append(err)
        slope = (
            fit_rate(ns, errs).slope
            if len(ns) >= 3 and min(errs) > 0
            else float("nan")
        )
        secs = time.perf_counter() - t0
        # timing goes to stderr, not the CSV: identical config + seed must
        # yield byte-identical output regardless of thread count
        print(f"n={n}: {secs:.1f}s", file=sys.stderr)
        rows.append(f"{n},{err!r},{slope!r}\n")
        _write_rows(cfg.out, header, rows)  # flush partial results
    fit = fit_rate(ns, errs) if len(ns) >= 3 and min(errs) > 0 else None
    return rows, fit


def _quadrature_lattice(cfg: StudyConfig) -> Lattice:
    if cfg.genvec is not None:
        return _genvec_prefix(cfg.genvec, cfg.quad_n, cfg.s_ref)
    ref = resources.files("latkern").joinpath("data", "genvec-default.txt")
    with resources.as_file(ref) as path:
        lat = read_genvec(path)
    if lat.n != cfg.quad_n or lat.s < cfg.s_ref:
        raise ValueError(
            "bundled quadrature vector does not cover the requested "
            f"(n={cfg.quad_n}, s'={cfg.s_ref}); supply --genvec"
        )
    return Lattice(lat.n, lat.z[: cfg.s_ref])


def run_dim_truncation(cfg: StudyConfig):
    """(s, error) rows for s = 4, 8, ..., s_ref/2, plus a RateFit.

    The error is the RMS over the quadrature lattice of |u_ref - u_s| in
    the H^1_0 seminorm (`h1_seminorm`), the norm of V = H^1_0(D) in which
    the dimension-truncation bound O(s^-(1/p - 1/2)) holds.  The
    interpolation study (`run_interp_convergence`) reports L2(D) instead.
    """
    model = DiffusionModel(cfg.c, cfg.theta, cfg.s_ref)
    mesh = FemMesh(cfg.mesh_level)
    lat = _quadrature_lattice(cfg)
    pts = lat.points()
    nq = lat.n
    ref = np.empty((nq, mesh.n_unknowns))
    for k in range(nq):
        ref[k] = fem_solve(mesh, model, pts[k]).interior_values
    header = "s,error"
    rows: list[str] = []
    svals: list[int] = []
    errs: list[float] = []
    s = 4
    while s <= cfg.s_ref // 2:
        # zeroing y beyond s is the same as solving with the s-term model
        tmodel = DiffusionModel(cfg.c, cfg.theta, s)
        acc = 0.0
        for k in range(nq):
            trunc = fem_solve(mesh, tmodel, pts[k]).interior_values
            acc += h1_seminorm(mesh, ref[k] - trunc) ** 2
        err = math.sqrt(acc / nq)
        svals.append(s)
        errs.append(err)
        rows.append(f"{s},{err!r}\n")
        _write_rows(cfg.out, header, rows)
        s *= 2
    fit = fit_rate(svals, errs) if len(svals) >= 3 and min(errs) > 0 else None
    return rows, fit
