"""Convergence studies for the PDE surrogate and their CSV emission.

Two studies: kernel-interpolation convergence of the parameterized FEM
solution over a schedule of lattice sizes, and dimension-truncation error
against a high-dimensional reference.  Both are deterministic: all
reductions run in a fixed order, so the same config and seed give the same
CSV, byte for byte.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .interpolant import build, circulant_spectrum, l2_error_estimate
from .kernel import KernelSpec
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
    "random_shifts",
    "sobol_points",
    "fit_rate",
    "run_interp_convergence",
    "run_dim_truncation",
    "derive_for_family",
    "study_kernel",
]

# Truncated solves per block of points: only the reference is held in full.
_POINT_BLOCK = 512
# Each weight family and its derivation's name, looked up per call, so that a
# wrapper put on the name (the benchmark's spans) is what runs.
_DERIVE = dict(product="derive_product", pod="derive_pod", spod="derive_spod")


@dataclass
class StudyConfig:
    kind: str
    weights: str = "spod"
    theta: float = 2.4
    c: float = 0.2
    p: float = 1.0 / 2.2
    delta: float = PdeWeightInput.delta
    s: int = 10
    n_schedule: tuple = (16, 32, 64, 128, 256, 512, 1024)
    mesh_level: int = 5
    L: int = 100
    s_ref: int = 512
    quad_n: int | None = None  # None: the genvec file's '# n=' header
    seed: int = 0
    genvec: str | None = None
    out: str | None = None

    def __post_init__(self):
        if self.kind not in ("interp-convergence", "dim-truncation", "cbc-only"):
            raise ValueError(f"unknown study kind {self.kind!r}")
        if self.weights not in _DERIVE:
            raise ValueError(f"unknown weight family {self.weights!r}")
        ns = tuple(int(n) for n in self.n_schedule)
        if any(b <= a for a, b in zip((1, *ns), ns)):
            raise ValueError("n schedule must be strictly increasing, n >= 2")
        for name in ("L", "mesh_level", "s"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be positive, got {name}={getattr(self, name)}"
                )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class RateFit:
    slope: float
    intercept: float
    residual: float


def fit_rate(ns, errors) -> RateFit:
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(ns) < 3 or len(ns) != len(errors):
        raise ValueError("need at least 3 (n, error) pairs")
    if np.any(ns <= 0) or np.any(errors <= 0):
        raise ValueError("rate fit needs positive sizes and errors")
    slope, intercept = np.polyfit(np.log(ns), np.log(errors), 1)
    resid = np.log(errors) - (slope * np.log(ns) + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return RateFit(float(slope), float(intercept), rms)


def _fit_so_far(ns, errs) -> RateFit | None:
    """The rate fit, once there are 3 points and every error is positive."""
    return fit_rate(ns, errs) if len(ns) >= 3 and min(errs) > 0 else None


def random_shifts(s: int, L: int, seed: int) -> np.ndarray:
    """L i.i.d. uniform shifts in [0, 1)^s, the same for the same seed."""
    return np.random.default_rng(seed).random((L, s))


# The benchmark imports this name, so it stays as an alias.
sobol_points = random_shifts


def derive_for_family(family: str, inp: PdeWeightInput, s: int):
    if family not in _DERIVE:
        raise ValueError(f"unknown weight family {family!r}")
    return globals()[_DERIVE[family]](inp, s)


def study_kernel(cfg: StudyConfig) -> KernelSpec:
    """The kernel of cfg's weight family for its diffusion model."""
    if cfg.c <= 0.0:  # b_j = 0; NaN goes on to the model's message
        raise ValueError(f"the weights need c > 0, got c={cfg.c}")
    model = DiffusionModel(cfg.c, cfg.theta, cfg.s)
    inp = PdeWeightInput(cfg.p, decay_sequence(model, cfg.s), cfg.delta)
    params = derive_for_family(cfg.weights, inp, cfg.s)
    return KernelSpec(params.alpha, params.scheme)


def _write_rows(path: str | None, header: str, rows: list[str]) -> None:
    if path is None:
        return
    Path(path).write_text(header + "\n" + "".join(rows))


def _genvec_prefix(path: str | Path, n: int, s: int) -> Lattice:
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

    The error is `l2_error_estimate` over L i.i.d. uniform shifts of the
    lattice: the RMS over the shifted points of the L2(D) norm (mass-matrix
    form, `l2_norm`) of the interpolation error.
    """
    model = DiffusionModel(cfg.c, cfg.theta, cfg.s)
    spec = study_kernel(cfg)
    mesh = FemMesh(cfg.mesh_level)
    shifts = random_shifts(cfg.s, cfg.L, cfg.seed)

    def solves(points, guess=None):
        """(unknowns, len(points)) FEM solutions, one column per point,
        started from guess, of the same shape, when one is given."""
        x0 = None if guess is None else guess.T
        return fem_solve(mesh, model, points, x0=x0).interior_values.T

    def sq_norm(err):
        return l2_norm(mesh, err.T) ** 2

    # read every vector before the first solve, so a bad file fails fast
    given = (
        {}
        if cfg.genvec is None
        else {n: _genvec_prefix(cfg.genvec, n, cfg.s) for n in cfg.n_schedule}
    )
    header = "n,error,slope_so_far"
    _write_rows(cfg.out, header, [])  # a bad path fails before any solve
    rows: list[str] = []
    ns: list[int] = []
    errs: list[float] = []
    for n in cfg.n_schedule:
        t0 = time.perf_counter()
        if cfg.genvec is not None:
            lat = given[n]
        else:
            lat = cbc_construct(spec, n, cfg.s).lattice()
        # the spectrum needs no solve, so a singular one fails before any
        spectrum = circulant_spectrum(spec, lat)
        itp = build(spec, lat, solves(lat.points()), spectrum)
        err = l2_error_estimate(itp, solves, shifts, sq_norm)
        ns.append(n)
        errs.append(err)
        fit = _fit_so_far(ns, errs)
        slope = float("nan") if fit is None else fit.slope
        secs = time.perf_counter() - t0
        # timing goes to stderr, not the CSV: identical config + seed must
        # yield byte-identical output
        print(f"n={n}: {secs:.1f}s", file=sys.stderr)
        rows.append(f"{n},{err!r},{slope!r}\n")
        _write_rows(cfg.out, header, rows)  # flush partial results
    return rows, _fit_so_far(ns, errs)


def _quadrature_lattice(cfg: StudyConfig) -> Lattice:
    """The first s_ref components of cfg.genvec or the bundled vector."""
    if cfg.genvec is not None:
        return _genvec_prefix(cfg.genvec, cfg.quad_n, cfg.s_ref)
    ref = resources.files("latkern").joinpath("data", "genvec-default.txt")
    with resources.as_file(ref) as path:
        return _genvec_prefix(path, cfg.quad_n, cfg.s_ref)


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
    header = "s,error"
    _write_rows(cfg.out, header, [])  # a bad path fails before any solve
    ref = fem_solve(mesh, model, pts).interior_values
    rows: list[str] = []
    svals: list[int] = []
    errs: list[float] = []
    s = 4
    while s <= cfg.s_ref // 2:
        # zeroing y beyond s is the same as solving with the s-term model
        tmodel = DiffusionModel(cfg.c, cfg.theta, s)
        acc = 0.0
        for k in range(0, nq, _POINT_BLOCK):
            part = slice(k, k + _POINT_BLOCK)
            trunc = fem_solve(mesh, tmodel, pts[part], x0=ref[part])
            err2 = h1_seminorm(mesh, ref[part] - trunc.interior_values) ** 2
            acc += float(np.sum(err2))
        err = math.sqrt(acc / nq)
        svals.append(s)
        errs.append(err)
        rows.append(f"{s},{err!r}\n")
        _write_rows(cfg.out, header, rows)
        s *= 2
    return rows, _fit_so_far(svals, errs)
