"""Parameterized diffusion on the unit square with P1 finite elements.

The coefficient a(x, y) = a0 + (1/sqrt(6)) sum_j sin(2 pi y_j) psi_j(x)
with psi_j(x) = c j^{-theta} sin(j pi x1) sin(j pi x2) is 1-periodic in
every parameter y_j.  The mesh is the uniform lower-left-to-upper-right
diagonal split of a 2^m x 2^m grid; homogeneous Dirichlet conditions, so
only interior nodes carry unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# k Chebyshev steps meet 1/T_k(mid/half) <= 1e-12 once k acosh(mid/half) >= this
_ACOSH_BOUND = math.acosh(1e12)


@dataclass(frozen=True)
class DiffusionModel:
    c: float
    theta: float
    s: int
    a_min: float = field(init=False)
    a0: ClassVar[float] = 1.0

    def __post_init__(self):
        if not (0.0 <= self.c < math.inf and 1.0 < self.theta < math.inf
                and self.s >= 0):
            raise ValueError(
                "need finite c >= 0 and theta > 1, and s >= 0; got "
                f"c={self.c}, theta={self.theta}, s={self.s}"
            )
        # zeta sums 10^4 terms, so once per model
        a_min = self.a0 - self.c / _SQRT6 * zeta(self.theta)
        if not a_min > 0.0:
            raise ValueError(f"fluctuation too large: a_min = {a_min} <= 0")
        object.__setattr__(self, "a_min", a_min)


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
    interior_values: np.ndarray


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
    x0=None,
) -> FemSolution:
    """P1 solution at one parameter point y (s,) or at each row of y (B, s).

    Chebyshev iteration on L^-1 K, L the unit 5-point Laplacian (Saad, Alg.
    12.1).  K and L are 5-point stencils on the same axis edges, so the
    spectrum of L^-1 K lies in [lo, hi], the min and max of the point's own
    edge weights.  That interval fixes the point's steps k for an
    energy-norm error bound 1/T_k(mid/half) <= 1e-12; a constant
    coefficient (lo = hi) takes one step.  No inner products: a point's
    iterates use only its own data.  A block runs its points in order of
    descending k, so the points with steps left are a prefix at every step.
    The first step L^-1 b / mid scales one solve per call by each point's
    mid; the later steps update the residual, direction and solution in
    place.

    x0, interior node values shaped like the solution, is a guess to start
    from.  From any start, ||u - u_k||_K <= ||u - x0||_K / T_k(mid/half),
    and with r0 = b - K x0 and lo L <= K <= hi L,
    ||u - x0||_K / ||u||_K <= rho = sqrt(hi/lo r0^T L^-1 r0 / b^T L^-1 b).
    So a point whose computed rho is < 1 starts from its guess and takes
    the least k >= 1 with T_k(mid/half) >= 1e12 rho, which keeps the bound
    1e-12 ||u||_K.  Any other point, a NaN or inf guess included, takes the
    start from zero and the steps it takes without x0, with the same bits.
    Each guess costs one residual, about one step.
    """
    psi = mesh.psi_at_centroids(model)
    S, inv_l = mesh._sine, mesh._inv_laplace  # L is diagonal in the sine basis

    def solve_laplace(v):  # L^-1 v for a stack v (B, N-1, N-1)
        return S @ ((S @ v @ S) * inv_l) @ S

    Y = _parameters(model, np.atleast_2d(y))
    b = _load_vector(mesh, source).reshape(1, mesh.N - 1, mesh.N - 1)
    Lb = solve_laplace(b)
    u = np.empty((len(Y),) + b.shape[1:])
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        want = np.shape(y)[:-1] + (mesh.n_unknowns,)  # the solution shape
        if x0.shape != want:
            raise ValueError(f"x0 of shape {x0.shape}: expected {want}")
        x0 = x0.reshape(len(Y), mesh.n_unknowns)
        bLb = float(np.sum(b * Lb))
    block = max(1, _SOLVE_BLOCK // mesh.nodes.shape[0])
    for i in range(0, len(Y), block):
        sines = np.sin(2.0 * math.pi * Y[i : i + block])
        wx, wy = _edge_weights(mesh, model.a0 + sines @ psi.T / _SQRT6)
        lo = np.minimum(wx.min(axis=(1, 2)), wy.min(axis=(1, 2)))
        hi = np.maximum(wx.max(axis=(1, 2)), wy.max(axis=(1, 2)))
        mid, half = (hi + lo) / 2, (hi - lo) / 2
        ratio = np.divide(mid, half, out=np.full_like(mid, np.inf), where=half > 0)
        decay = np.arccosh(ratio)  # T_k(ratio) = cosh(k decay)
        steps = np.maximum(1, np.ceil(_ACOSH_BOUND / decay))
        if x0 is None:
            r, z = np.repeat(b, len(wx), axis=0), Lb  # the start from zero
        else:
            # the stencil runs on C-ordered rows; a C-ordered x0 is not copied
            guess = np.ascontiguousarray(x0[i : i + block])
            guess = guess.reshape((-1,) + b.shape[1:])
            # a guess far off or not finite gives rho >= 1 or NaN: no warning
            with np.errstate(all="ignore"):
                r = _stencil((wx, wy), guess)
                np.subtract(b, r, out=r)  # r0 = b - K x0
                z = solve_laplace(r)
                rLr = np.einsum("ijk,ijk->i", r, z)
                rho0 = np.sqrt(hi / lo * rLr / bLb)
                k0 = np.ceil(np.arccosh(np.maximum(1.0, 1e12 * rho0)) / decay)
            warm = rho0 < 1
            steps[warm] = np.maximum(1, k0[warm])
            r[~warm], z[~warm] = b, Lb  # the start from zero
        order = np.argsort(-steps, kind="stable")
        steps, wx, wy = steps[order], wx[order], wy[order]
        mid, half = mid[order, None, None], half[order, None, None]
        if x0 is not None:
            r, z, guess, warm = (a[order] for a in (r, z, guess, warm))
        ub = z / mid
        rho, d = half / mid, ub.copy()
        if x0 is not None:
            np.add(ub, guess, out=ub, where=warm[:, None, None])
        for t in range(1, int(steps[0])):
            k = np.count_nonzero(steps > t)  # the points with steps left
            r[:k] -= _stencil((wx[:k], wy[:k]), d[:k])
            # rho_next = 1 / (2 mid/half - rho), finite when half = 0
            den = 2.0 * mid[:k] - rho[:k] * half[:k]
            rho_next = half[:k] / den
            z = solve_laplace(r[:k])
            d[:k] *= rho_next * rho[:k]
            z *= 2.0 / den
            d[:k] += z
            ub[:k] += d[:k]
            rho[:k] = rho_next
        u[i : i + block][order] = ub
    u = u.reshape(len(Y), mesh.n_unknowns)
    if bad := np.count_nonzero(~np.isfinite(u).all(axis=1)):
        raise FloatingPointError(
            f"mesh level {mesh.m}: {bad} of {len(Y)} solutions not finite"
        )
    return FemSolution(u[0] if np.ndim(y) == 1 else u)


def _norm_by_squares(mesh: FemMesh, v, form):
    """sqrt of form(ll, lr, ul, ur) at each square's corners, summed, for one
    vector v of interior node values (a float) or a batch (B, n_unknowns);
    the boundary nodes take the zero Dirichlet values."""
    v = np.asarray(v, dtype=float)
    V = np.atleast_2d(v)
    if V.shape[1:] != (mesh.n_unknowns,):
        raise ValueError(
            f"vectors of shape {v.shape}: expected {mesh.n_unknowns} "
            "interior node values each"
        )
    N = mesh.N
    out = np.empty(len(V))
    block = max(1, _SOLVE_BLOCK // mesh.nodes.shape[0])
    for i in range(0, len(V), block):
        part = V[i : i + block]
        g = np.zeros((len(part), N + 1, N + 1))
        g[:, 1:-1, 1:-1] = part.reshape(-1, N - 1, N - 1)
        q = form(g[:, :-1, :-1], g[:, 1:, :-1], g[:, :-1, 1:], g[:, 1:, 1:])
        out[i : i + block] = q.sum(axis=(1, 2))
    return float(np.sqrt(out[0])) if v.ndim == 1 else np.sqrt(out)


def l2_norm(mesh: FemMesh, v):
    """sqrt(v^T M v) with the consistent mass matrix, v interior node values.

    Triangle (a, b, c) adds area/12 (a^2 + b^2 + c^2 + (a + b + c)^2).
    """
    def form(ll, lr, ul, ur):  # triangles (ll, lr, ur) and (ll, ur, ul)
        sq = 2 * ll * ll + lr * lr + 2 * ur * ur + ul * ul
        return sq + (ll + lr + ur) ** 2 + (ll + ur + ul) ** 2

    return mesh.h / math.sqrt(24.0) * _norm_by_squares(mesh, v, form)


def h1_seminorm(mesh: FemMesh, v):
    """|v|_H1 = sqrt(v^T K v), K the unit-coefficient stiffness matrix.

    v holds interior node values, so the boundary values are zero and this
    is the norm of V = H^1_0(D).  A triangle adds half the squares of the
    differences along its two axis edges.
    """
    def form(ll, lr, ul, ur):
        return (lr - ll) ** 2 + (ur - lr) ** 2 + (ur - ul) ** 2 + (ul - ll) ** 2

    return math.sqrt(0.5) * _norm_by_squares(mesh, v, form)
