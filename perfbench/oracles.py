"""Computations the benchmark checks latkern's outputs against.

Each one reaches its result by another route than the code it checks:
closed forms evaluated in numpy, or a dense linear solve in place of the
circulant FFT solve.
"""

from __future__ import annotations

import math

import numpy as np

from latkern.kernel import frac, kernel_values_batch
from latkern.pde import fem_solve, l2_norm

A0 = 1.0  # mean of the diffusion coefficient, DiffusionModel's default


def product_criterion(gamma, n: int, z) -> tuple[np.ndarray, np.ndarray]:
    """(S_d, mean-square kernel M_d) for d = 1..len(z), product weights, alpha 2.

    Closed form of the CBC criterion for the lattice (n, z[:d]):
    M_d = (1/n) sum_k prod_{j<=d} (1 + gamma_j 2 pi^2 B_2({k z_j / n}))^2
    and S_d = M_d - prod_{j<=d} (1 + gamma_j^2 pi^4 / 45).
    """
    z = np.asarray(z, dtype=np.int64)
    g = np.asarray(gamma, dtype=float)[: len(z)]
    x = (np.arange(n, dtype=np.int64)[:, None] * z[None, :] % n) / n
    b2 = x * x - x + 1.0 / 6.0
    prods = np.cumprod(1.0 + g[None, :] * 2.0 * math.pi**2 * b2, axis=1)
    mean_sq = np.mean(prods**2, axis=0)
    sub = np.cumprod(1.0 + g**2 * math.pi**4 / 45.0)
    return mean_sq - sub, mean_sq


def psi(c: float, theta: float, s: int, x: np.ndarray) -> np.ndarray:
    """(len(x), s) table of psi_j(x) = c j^-theta sin(j pi x_1) sin(j pi x_2)."""
    j = np.arange(1, s + 1, dtype=float)
    return (
        c * j**-theta
        * np.sin(j * math.pi * x[:, 0:1])
        * np.sin(j * math.pi * x[:, 1:2])
    )


def diffusion(psi_x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a(x, y) = a0 + sum_j sin(2 pi y_j) psi_j(x) / sqrt(6) for all x and y.

    psi_x is the (nodes, s) table of `psi`, y an (m, s) array; the result
    is (nodes, m).
    """
    return A0 + psi_x @ np.sin(2.0 * math.pi * y).T / math.sqrt(6.0)


def diffusion_h_norm(psi_x: np.ndarray, gamma) -> np.ndarray:
    """||a(x, .)||_H per node x, for product weights gamma_j.

    a(x, .) has Fourier coefficients a0 at h = 0 and psi_j(x) / (2 i sqrt 6)
    at h = +-e_j, where r(h) = 1 / gamma_j, so
    ||a(x, .)||_H^2 = a0^2 + sum_j psi_j(x)^2 / (12 gamma_j).
    """
    g = np.asarray(gamma, dtype=float)[: psi_x.shape[1]]
    return np.sqrt(A0**2 + np.sum(psi_x**2 / (12.0 * g[None, :]), axis=1))


def _pair_kernel(spec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense matrix [K(a_i - b_j)]_{ij}, one kernel value per pair."""
    diff = frac(a[:, None, :] - b[None, :, :]).reshape(-1, a.shape[1])
    return kernel_values_batch(spec, diff).reshape(len(a), len(b))


def dense_interp_error(spec, lat, mesh, model, shifts) -> float:
    """The interpolation study's error for one lattice, by a dense solve.

    Node data come from `fem_solve` at every lattice point, the
    coefficients from `numpy.linalg.solve` on the dense Gram matrix, and
    the interpolant's values at the shifted points from the dense kernel
    matrix; no FFT is used.  The error is the RMS over the shifted points
    of the L2(D) norm of truth minus interpolant.
    """
    pts = lat.points()
    data = np.array([fem_solve(mesh, model, p).interior_values for p in pts])
    coeffs = np.linalg.solve(_pair_kernel(spec, pts, pts), data)
    acc = 0.0
    for y in shifts:
        shifted = frac(y[None, :] + pts)
        approx = _pair_kernel(spec, shifted, pts) @ coeffs
        for k, point in enumerate(shifted):
            truth = fem_solve(mesh, model, point).interior_values
            acc += l2_norm(mesh, truth - approx[k]) ** 2
    return math.sqrt(acc / (len(shifts) * lat.n))
