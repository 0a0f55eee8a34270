"""Parameterized diffusion on the unit square with P1 finite elements.

The coefficient a(x, y) = a0 + (1/sqrt(6)) sum_j sin(2 pi y_j) psi_j(x)
with psi_j(x) = c j^{-theta} sin(j pi x1) sin(j pi x2) is 1-periodic in
every parameter y_j.  The mesh is the uniform lower-left-to-upper-right
diagonal split of a 2^m x 2^m grid; homogeneous Dirichlet conditions, so
only interior nodes carry unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .special import zeta

__all__ = [
    "DiffusionModel",
    "FemMesh",
    "FemSolution",
    "fem_solve",
    "l2_norm",
    "h1_seminorm",
    "decay_sequence",
]

_SQRT6 = math.sqrt(6.0)
# Node values per block of points, so memory does not grow with the batch.
_SOLVE_BLOCK = 2**16


@dataclass(frozen=True)
class DiffusionModel:
    c: float
    theta: float
    s: int
    a0: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.c < 0 or self.theta <= 1.0 or self.s < 0:
            raise ValueError("need c >= 0, theta > 1, s >= 0")
        # zeta sums 10^4 terms, so once per model
        object.__setattr__(self, "_spread", self.c / _SQRT6 * zeta(self.theta))
        if self.a_min <= 0.0:
            raise ValueError(
                f"fluctuation too large: a_min = {self.a_min} <= 0"
            )

    @property
    def a_min(self) -> float:
        return self.a0 - self._spread

    @property
    def a_max(self) -> float:
        return self.a0 + self._spread


def decay_sequence(model: DiffusionModel, s: int) -> np.ndarray:
    """b_j = |psi_j|_sup / (sqrt(6) a_min), the weight-derivation input."""
    j = np.arange(1, s + 1, dtype=float)
    return model.c * j**-model.theta / (_SQRT6 * model.a_min)


def _parameters(model: DiffusionModel, y) -> np.ndarray:
    """y (s',) or (B, s') as floats, cut to the model's first s <= s'."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] < model.s:
        raise ValueError(
            f"y has {y.shape[-1]} components, the model needs s = {model.s}"
        )
    return y[..., : model.s]


class FemMesh:
    """Uniform triangulation of (0,1)^2 at mesh size h = 2^{-m}."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("refinement level m must be >= 1")
        self.m = m
        self.h = 2.0**-m
        N = 2**m
        self.N = N
        g = np.arange(N + 1) / N
        gx, gy = np.meshgrid(g, g, indexing="ij")
        self.nodes = np.column_stack([gx.ravel(), gy.ravel()])
        nid = np.arange((N + 1) ** 2).reshape(N + 1, N + 1)
        ll = nid[:-1, :-1].ravel()
        lr = nid[1:, :-1].ravel()
        ul = nid[:-1, 1:].ravel()
        ur = nid[1:, 1:].ravel()
        lower = np.column_stack([ll, lr, ur])
        upper = np.column_stack([ll, ur, ul])
        self.triangles = np.vstack([lower, upper])
        self.centroids = self.nodes[self.triangles].mean(axis=1)
        interior = np.zeros((N + 1, N + 1), dtype=bool)
        interior[1:N, 1:N] = True
        self.interior_mask = interior.ravel()
        self.n_unknowns = (N - 1) ** 2
        self._psi_cache: dict[tuple, np.ndarray] = {}
        # the unit 5-point Laplacian in the orthonormal sine basis
        k = np.arange(1, N)
        self._sine = math.sqrt(2.0 / N) * np.sin(np.outer(k, k) * math.pi / N)
        lam = 4.0 * np.sin(k * math.pi / (2 * N)) ** 2
        self._inv_laplace = 1.0 / (lam[:, None] + lam[None, :])

    def psi_at_centroids(self, model: DiffusionModel) -> np.ndarray:
        """(T, s) table of psi_j sampled at element centroids, cached.

        One table per (c, theta), the widest asked for; a model with fewer
        terms gets its first s columns, a view.  Each column is computed
        on its own, so a prefix has the bits of a table built narrow.
        """
        key = (model.c, model.theta)
        tab = self._psi_cache.get(key)
        if tab is None or tab.shape[1] < model.s:
            j = np.arange(1, model.s + 1, dtype=float)
            tab = (
                model.c
                * j**-model.theta
                * np.sin(j * math.pi * self.centroids[:, 0:1])
                * np.sin(j * math.pi * self.centroids[:, 1:2])
            )
            self._psi_cache[key] = tab
        return tab[:, : model.s]


@dataclass
class FemSolution:
    mesh: FemMesh
    interior_values: np.ndarray

    def full_values(self) -> np.ndarray:
        """Values at every node, 0 on the boundary: (nodes,) or (B, nodes)."""
        v = self.interior_values
        full = np.zeros(v.shape[:-1] + self.mesh.interior_mask.shape)
        full[..., self.mesh.interior_mask] = v
        return full


def _load_vector(mesh: FemMesh, source) -> np.ndarray:
    """Interior load by the exact barycentric rule for nodal-linear sources.

    integral_T f phi_i = area/12 (2 f_i + f_j + f_k) is exact when f is
    linear on T (as the default q(x) = x2 is) and O(h^2)-consistent
    otherwise.  Over the six triangles at node i it sums to
    area/6 (6 f_i + the values at the six neighbours).
    """
    F = np.asarray(source(mesh.nodes), dtype=float).reshape(mesh.N + 1, -1)
    near = F[:-2, 1:-1] + F[2:, 1:-1] + F[1:-1, :-2] + F[1:-1, 2:]
    near += F[:-2, :-2] + F[2:, 2:]  # the neighbours along the diagonals
    return (mesh.h**2 / 12.0 * (6.0 * F[1:-1, 1:-1] + near)).ravel()


def _default_source(x):
    return x[:, 1]


def _edge_weights(mesh: FemMesh, a_T: np.ndarray):
    """Half the sum of a_T (B, T) over each axis edge's two triangles: wx
    joins nodes (i, j), (i + 1, j) and wy (i, j), (i, j + 1).  P1 on this
    mesh weighs the diagonal edges 0, so K is a 5-point stencil."""
    lo, up = a_T.reshape(len(a_T), 2, mesh.N, mesh.N).transpose(1, 0, 2, 3)
    return 0.5 * (lo[:, :, 1:] + up[:, :, :-1]), 0.5 * (lo[:, :-1] + up[:, 1:])


def _stencil(w, u: np.ndarray) -> np.ndarray:
    """K u for interior node values u (B, N-1, N-1), K from edge weights w.

    Each direction's edge differences go straight into one flux array, no
    padded copy: the boundary edges take u and 0.0 - u, what differences
    against zero Dirichlet values give, signed zeros included.
    """
    fx, fy = np.empty(w[0].shape), np.empty(w[1].shape)
    for f, v in ((fx, u), (fy.swapaxes(1, 2), u.swapaxes(1, 2))):
        np.subtract(v[:, 1:], v[:, :-1], out=f[:, 1:-1])
        f[:, 0] = v[:, 0]
        np.subtract(0.0, v[:, -1], out=f[:, -1])
    fx *= w[0]
    fy *= w[1]
    Ku = fx[:, :-1] - fx[:, 1:]
    Ku += fy[:, :, :-1]
    Ku -= fy[:, :, 1:]
    return Ku


def fem_solve(
    mesh: FemMesh,
    model: DiffusionModel,
    y,
    source=_default_source,
) -> FemSolution:
    """P1 solution at one parameter point y (s,) or at each row of y (B, s).

    Chebyshev iteration on L^-1 K, L the unit 5-point Laplacian (Saad, Alg.
    12.1): edge weights in [a_min, a_max] put its spectrum there, which fixes
    the steps for an energy-norm error bound 1/T_k(mid/half) <= 1e-12.  No
    inner products: a point's iterates use only its own data.  The first
    step L^-1 b / mid is formed once per call; the later steps update the
    residual, direction and solution in place.
    """
    psi = mesh.psi_at_centroids(model)
    S, inv_l = mesh._sine, mesh._inv_laplace  # L is diagonal in the sine basis
    lo, hi = model.a_min, model.a_max
    mid, half = (hi + lo) / 2, (hi - lo) / 2
    # c = 0 gives K = a0 L, so the first step is exact
    steps = math.ceil(math.acosh(1e12) / math.acosh(mid / half)) if half else 1
    Y = _parameters(model, np.atleast_2d(y))
    b = _load_vector(mesh, source).reshape(1, mesh.N - 1, mesh.N - 1)
    d0 = S @ ((S @ b @ S) * inv_l) @ S / mid  # the first step, L^-1 b / mid
    u = np.empty((len(Y),) + b.shape[1:])
    block = max(1, _SOLVE_BLOCK // mesh.nodes.shape[0])
    for i in range(0, len(Y), block):
        sines = np.sin(2.0 * math.pi * Y[i : i + block])
        w = _edge_weights(mesh, model.a0 + sines @ psi.T / _SQRT6)
        ub = u[i : i + block]
        ub[...] = d0
        r, rho, d = np.repeat(b, len(ub), axis=0), half / mid, ub.copy()
        for _ in range(steps - 1):
            r -= _stencil(w, d)
            rho_next = 1.0 / (2.0 * mid / half - rho)
            z = S @ ((S @ r @ S) * inv_l) @ S  # L^-1 r
            d *= rho_next * rho
            z *= 2.0 * rho_next / half
            d += z
            ub += d
            rho = rho_next
    u = u.reshape(len(Y), mesh.n_unknowns)
    if bad := np.count_nonzero(~np.isfinite(u).all(axis=1)):
        raise FloatingPointError(
            f"mesh level {mesh.m}: {bad} of {len(Y)} solutions not finite"
        )
    return FemSolution(mesh, u[0] if np.ndim(y) == 1 else u)


def _norm_by_squares(mesh: FemMesh, v, form):
    """sqrt of form(ll, lr, ul, ur) at each square's corners, summed, for one
    vector v (a float) or a batch (B, ...), interior or full."""
    if isinstance(v, FemSolution):
        v = v.full_values()
    v = np.asarray(v, dtype=float)
    V = np.atleast_2d(v)
    nodes = mesh.nodes.shape[0]
    if V.shape[1] not in (mesh.n_unknowns, nodes):
        raise ValueError("vector length matches neither unknowns nor nodes")
    idx = mesh.interior_mask if V.shape[1] < nodes else slice(None)
    out = np.empty(len(V))
    block = max(1, _SOLVE_BLOCK // nodes)
    for i in range(0, len(V), block):
        g = np.zeros((len(V[i : i + block]), nodes))
        g[:, idx] = V[i : i + block]
        g = g.reshape(-1, mesh.N + 1, mesh.N + 1)
        q = form(g[:, :-1, :-1], g[:, 1:, :-1], g[:, :-1, 1:], g[:, 1:, 1:])
        out[i : i + block] = q.sum(axis=(1, 2))
    return float(np.sqrt(out[0])) if v.ndim == 1 else np.sqrt(out)


def l2_norm(mesh: FemMesh, v):
    """sqrt(v^T M v) with the consistent mass matrix; v interior or full.

    Triangle (a, b, c) adds area/12 (a^2 + b^2 + c^2 + (a + b + c)^2).
    """
    def form(ll, lr, ul, ur):  # triangles (ll, lr, ur) and (ll, ur, ul)
        sq = 2 * ll * ll + lr * lr + 2 * ur * ur + ul * ul
        return sq + (ll + lr + ur) ** 2 + (ll + ur + ul) ** 2

    return mesh.h / math.sqrt(24.0) * _norm_by_squares(mesh, v, form)


def h1_seminorm(mesh: FemMesh, v):
    """|v|_H1 = sqrt(v^T K v), K the unit-coefficient stiffness matrix.

    On interior vectors (zero boundary values) this is the norm of
    V = H^1_0(D); v interior or full.  A triangle adds half the squares of
    the differences along its two axis edges.
    """
    def form(ll, lr, ul, ur):
        return (lr - ll) ** 2 + (ur - lr) ** 2 + (ur - ul) ** 2 + (ul - ll) ** 2

    return math.sqrt(0.5) * _norm_by_squares(mesh, v, form)
