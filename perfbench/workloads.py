"""The benchmark's four workloads: their inputs, main work and output checks.

A workload object has ``ops``, the number of operations one round
attempts, ``setup(seed)``, which makes the inputs, and ``round(clock)``,
which runs one round of the main work and returns one verdict per
operation: None when its outputs pass their checks, else a message.  Only
the work done inside ``with clock:`` is timed (and traced in a traced run);
the checks run outside it.  Each check compares with a computation made
another way (see oracles.py) or with a property the method must have,
never with a stored copy of earlier output.
"""

from __future__ import annotations

import math
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

import oracles
from latkern.experiments import (
    StudyConfig,
    derive_for_family,
    run_dim_truncation,
    run_interp_convergence,
    sobol_points,
)
from latkern.interpolant import build, build_many, evaluate
from latkern.kernel import KernelSpec, frac
from latkern.lattice import Lattice, cbc_construct, criterion_S, read_genvec
from latkern.pde import DiffusionModel, FemMesh, decay_sequence
from latkern.special import zeta
from latkern.weights import PdeWeightInput, squared_weight_sum

DATA = Path(__file__).resolve().parent / "data"
QUADVEC = DATA / "quadvec-n128-s128.txt"
DEFAULTS = StudyConfig(kind="cbc-only")  # the package's p, delta, c, theta
SOBOL_SKIP = 2**20  # the study seed (Sobol' skip) is the run seed mod this
# Criterion 6 requires the interpolation study's slope to be at most this,
# criterion 7 the truncation study's H^1_0 slope to lie in this window.
INTERP_SLOPE_MAX = -0.7
DIMTRUNC_SLOPE = (-2.2, -1.6)
# cbc_construct only replaces its best candidate on an improvement beyond
# this share of the mean-square kernel, so ties within it go either way.
CBC_TIE = 1e-12
# S from the closed form and from the search differ by rounding in the two
# mean squares they subtract from: up to 3e-15 of the mean square measured.
CLOSED_FORM_TOL = 1e-13


def kernel_spec(family: str, c: float, theta: float, s: int):
    """Weights derived from the diffusion model, as the studies derive them."""
    model = DiffusionModel(c, theta, s)
    inp = PdeWeightInput(DEFAULTS.p, decay_sequence(model, s), DEFAULTS.delta)
    params = derive_for_family(family, inp, s)
    return KernelSpec(params.alpha, params.scheme)


def _parse_rows(rows):
    pairs = [row.strip().split(",")[:2] for row in rows]
    return [int(a) for a, _ in pairs], [float(b) for _, b in pairs]


def check_cbc(spec, report, s: int, rng, dims: int = 3, cands: int = 4):
    """Properties of one CBC result; None when all hold."""
    n, z = report.n, report.z
    crit = np.asarray(report.criterion_trace)
    if len(z) != s or z[0] != 1:
        return f"z has length {len(z)} and z_1 = {z[0]}; want {s} and 1"
    if any(math.gcd(int(zj), n) != 1 for zj in z):
        return f"some z_j shares a factor with n = {n}"
    for d, (sd, bd) in enumerate(zip(crit, report.wce_bound_trace), 1):
        if not math.isclose(bd, math.sqrt(2.0) * sd**0.25, rel_tol=1e-15):
            return f"d={d}: bound {bd!r} is not sqrt(2) S^(1/4), S = {sd!r}"
    if spec.scheme.kind == "product":
        if spec.alpha != 2:
            return f"closed-form check needs alpha 2, got {spec.alpha}"
        want, mean_sq = oracles.product_criterion(spec.scheme.gamma_j, n, z)
        err = np.abs(crit - want) / mean_sq
        if np.max(err) > CLOSED_FORM_TOL:
            d = int(np.argmax(err)) + 1
            return f"d={d}: S {crit[d - 1]!r}, closed form {want[d - 1]!r}"
    x = 2.0 * zeta(2 * spec.alpha)
    units = np.array([c for c in range(2, n) if math.gcd(c, n) == 1])
    picks = rng.choice(np.arange(1, s + 1), size=min(dims, s), replace=False)
    for d in sorted(int(v) for v in picks):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            chosen = criterion_S(spec, Lattice(n, z[:d]))
            mean_sq = chosen + squared_weight_sum(spec.scheme, d, x).to_float()
            tol = 1.01 * CBC_TIE * mean_sq
            if abs(chosen - crit[d - 1]) > tol:
                return f"d={d}: trace S {crit[d - 1]!r}, recomputed {chosen!r}"
            others = units[units != z[d - 1]]
            for c in rng.choice(others, size=min(cands, len(others)),
                                replace=False):
                other = criterion_S(spec, Lattice(n, np.r_[z[: d - 1], c]))
                if chosen > other + tol:
                    return (
                        f"d={d}: z_d = {z[d - 1]} scores {chosen!r}, "
                        f"candidate {c} scores {other!r}"
                    )
    return None


class Cbc:
    """CBC search for the product, POD and SPOD families (lattice, kernel)."""

    name = "cbc"

    def __init__(self, quick: bool):
        self.runs = (
            (("product", 64, 8), ("pod", 32, 4), ("spod", 32, 4)) if quick
            else (("product", 1024, 32), ("pod", 256, 10), ("spod", 256, 10))
        )
        self.ops = len(self.runs)

    def setup(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.specs = [
            kernel_spec(fam, DEFAULTS.c, DEFAULTS.theta, s)
            for fam, _, s in self.runs
        ]

    def round(self, clock):
        reports = []
        for spec, (_, n, s) in zip(self.specs, self.runs):
            with clock:
                reports.append(cbc_construct(spec, n, s))
        return [
            check_cbc(spec, rep, s, self.rng)
            for spec, rep, (_, _, s) in zip(self.specs, reports, self.runs)
        ]


class Interp:
    """The interpolation study: SPOD, CBC inside, FEM at every point."""

    name = "interp"
    ops = 1

    def __init__(self, quick: bool):
        self.sizes = (
            dict(s=10, n_schedule=(16, 32, 64), mesh_level=3, L=2) if quick
            else dict(s=10, n_schedule=(16, 32, 64, 128), mesh_level=4, L=2)
        )

    def setup(self, seed: int) -> None:
        self.cfg = StudyConfig(
            kind="interp-convergence", weights="spod",
            seed=seed % SOBOL_SKIP, **self.sizes,
        )
        self.reference = None

    def _dense_error(self) -> float:
        cfg = self.cfg
        spec = kernel_spec(cfg.weights, cfg.c, cfg.theta, cfg.s)
        lat = cbc_construct(spec, cfg.n_schedule[0], cfg.s).lattice()
        return oracles.dense_interp_error(
            spec, lat, FemMesh(cfg.mesh_level),
            DiffusionModel(cfg.c, cfg.theta, cfg.s),
            sobol_points(cfg.s, cfg.L, cfg.seed),
        )

    def _check(self, rows, fit):
        ns, errs = _parse_rows(rows)
        if tuple(ns) != self.cfg.n_schedule:
            return f"rows for n = {ns}, want {self.cfg.n_schedule}"
        if fit is None or not fit.slope <= INTERP_SLOPE_MAX:
            return f"fitted slope {fit and fit.slope!r} above {INTERP_SLOPE_MAX}"
        if self.reference is None:
            self.reference = self._dense_error()
        if not math.isclose(errs[0], self.reference, rel_tol=1e-9):
            return (
                f"n={ns[0]}: error {errs[0]!r}, dense Gram solve gives "
                f"{self.reference!r}"
            )
        return None

    def round(self, clock):
        with clock:
            rows, fit = run_interp_convergence(self.cfg)
        return [self._check(rows, fit)]


class DimTrunc:
    """The truncation study on the committed product-weight quadrature."""

    name = "dimtrunc"
    ops = 1

    def __init__(self, quick: bool):
        self.sizes = (
            dict(s_ref=32, mesh_level=2) if quick
            else dict(s_ref=128, mesh_level=4)
        )

    def setup(self, seed: int) -> None:
        lat = read_genvec(QUADVEC)
        if lat.s < self.sizes["s_ref"]:
            raise ValueError(f"{QUADVEC} has {lat.s} dimensions, too few")
        self.cfg = StudyConfig(
            kind="dim-truncation", c=0.4, theta=2.4, quad_n=lat.n,
            genvec=str(QUADVEC), **self.sizes,
        )

    def _check(self, rows, fit):
        svals, errs = _parse_rows(rows)
        want = [4 * 2**i for i in range(len(svals))]
        if not svals or svals != want or 2 * svals[-1] != self.cfg.s_ref:
            return f"rows for s = {svals}, want 4, 8, ..., s_ref/2"
        if any(b >= a for a, b in zip(errs, errs[1:])):
            return f"errors do not fall strictly with s: {errs}"
        lo, hi = DIMTRUNC_SLOPE
        if fit is None or not lo <= fit.slope <= hi:
            return f"H1_0 slope {fit and fit.slope!r} outside [{lo}, {hi}]"
        return None

    def round(self, clock):
        with clock:
            rows, fit = run_dim_truncation(self.cfg)
        return [self._check(rows, fit)]


class Surrogate:
    """Interpolate a(x, y) at every mesh node; evaluate on shifts and points.

    The lattice is the first s components of the bundled n = 8192 vector
    with product weights.  `build_many` + `shifted_union` evaluates all
    nodes on Sobol' shifts of the lattice; `build` + `evaluate` evaluates
    single nodes at scattered random points.
    """

    name = "surrogate"
    C, THETA = 0.4, 2.4  # the model the bundled vector was built for
    NODE_TOL = 1e-12
    AGREE_TOL = 1e-12
    PROBES = 4  # scattered points compared with shifted_union per round

    def __init__(self, quick: bool):
        self.level, self.s, self.n_shifts, self.n_nodes, self.n_points = (
            (2, 4, 2, 2, 4) if quick else (4, 16, 12, 4, 32)
        )
        self.ops = 1 + self.n_shifts + self.n_nodes

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.spec = kernel_spec("product", self.C, self.THETA, self.s)
        ref = resources.files("latkern").joinpath("data", "genvec-default.txt")
        with resources.as_file(ref) as path:
            full = read_genvec(path)
        self.lat = Lattice(full.n, full.z[: self.s])
        mesh = FemMesh(self.level)
        self.psi = oracles.psi(self.C, self.THETA, self.s, mesh.nodes)
        self.pts = self.lat.points()
        self.data = oracles.diffusion(self.psi, self.pts)
        self.shifts = sobol_points(self.s, self.n_shifts, seed % SOBOL_SKIP)
        interior = np.flatnonzero(mesh.interior_mask)
        self.nodes = rng.choice(interior, size=self.n_nodes, replace=False)
        self.points = rng.random((self.n_points, self.s))
        self.rng = rng
        self.bound = None

    def _error_bound(self):
        """sqrt(2) S^(1/4) ||a(x, .)||_H per node, S in closed form."""
        if self.bound is None:
            gamma = self.spec.scheme.gamma_j
            crit, _ = oracles.product_criterion(gamma, self.lat.n, self.lat.z)
            self.bound = (
                math.sqrt(2.0) * crit[-1] ** 0.25
                * oracles.diffusion_h_norm(self.psi, gamma)
            )
        return self.bound

    def _check_nodes(self, batch):
        at_nodes = batch.shifted_union(np.zeros(self.s))
        err = float(np.max(np.abs(at_nodes - self.data)))
        return None if err <= self.NODE_TOL else f"node residual {err!r}"

    def _check_shift(self, y, approx):
        truth = oracles.diffusion(self.psi, frac(y[None, :] + self.pts))
        rms = np.sqrt(np.mean((approx - truth) ** 2, axis=1))
        ratio = float(np.max(rms / self._error_bound()))
        return None if ratio < 1.0 else f"RMS error {ratio!r} of its bound"

    def _check_scattered(self, itp, node, values, probes):
        if not itp.residual <= self.NODE_TOL:
            return f"node {node}: build residual {itp.residual!r}"
        for i, ref in probes.items():
            diff = abs(values[i] - ref[node])
            if not diff <= self.AGREE_TOL:
                return (
                    f"node {node}: evaluate and shifted_union differ by "
                    f"{diff!r}"
                )
        return None

    def round(self, clock):
        with clock:
            batch = build_many(self.spec, self.lat, self.data)
        verdicts = [self._check_nodes(batch)]
        for y in self.shifts:
            with clock:
                approx = batch.shifted_union(y)
            verdicts.append(self._check_shift(y, approx))
        picks = self.rng.choice(
            self.n_points, size=min(self.PROBES, self.n_points), replace=False
        )
        # f_n(y + t_0) = f_n(y): column 0 of a shifted union at y
        probes = {
            int(i): batch.shifted_union(self.points[i])[:, 0] for i in picks
        }
        for node in self.nodes:
            with clock:
                itp = build(self.spec, self.lat, self.data[node])
                values = [evaluate(itp, y) for y in self.points]
            verdicts.append(self._check_scattered(itp, node, values, probes))
        return verdicts


WORKLOADS = {w.name: w for w in (Cbc, Interp, DimTrunc, Surrogate)}


def make(name: str, quick: bool):
    return WORKLOADS[name](quick)
