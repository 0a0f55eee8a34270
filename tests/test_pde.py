import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import latkern.pde
from latkern.lattice import Lattice
from latkern.pde import (
    DiffusionModel,
    FemMesh,
    _edge_weights,
    _load_vector,
    _stencil,
    decay_sequence,
    fem_solve,
    h1_seminorm,
    l2_norm,
)
from latkern.special import zeta
from reference import diffusion_at, padded_stencil, truncated_solve


def _model(c=0.2, theta=2.4, s=4):
    return DiffusionModel(c, theta, s)


# -- oracle: general P1 assembly by sparse COO, element by element ----------


def _local_matrices(mesh):
    """Per-triangle gradient products A_T (grad l_i . grad l_j)."""
    out = []
    T = mesh.triangles.shape[0] // 2
    for t in (0, T):  # one representative of each orientation
        p = mesh.nodes[mesh.triangles[t]]
        B = np.column_stack([p[1] - p[0], p[2] - p[0]])
        area = abs(np.linalg.det(B)) / 2.0
        grads = np.linalg.inv(B).T @ np.array(
            [[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]
        )
        out.append(area * grads.T @ grads)
    return out


def _assemble_all_nodes(mesh, a_T):
    """P1 stiffness matrix of the coefficient a_T over all nodes."""
    tri = mesh.triangles
    T = tri.shape[0]
    half = T // 2
    local = _local_matrices(mesh)
    data = np.empty((T, 3, 3))
    data[:half] = a_T[:half, None, None] * local[0]
    data[half:] = a_T[half:, None, None] * local[1]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    nn = mesh.nodes.shape[0]
    return sp.coo_matrix((data.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()


def _assemble_stiffness(mesh, a_T):
    """The stiffness matrix restricted to the interior unknowns."""
    A = _assemble_all_nodes(mesh, a_T)
    idx = np.where(mesh.interior_mask)[0]
    return A[np.ix_(idx, idx)].tocsr()


def _mass_matrix(mesh):
    """Consistent P1 mass matrix over all nodes (boundary included)."""
    area = mesh.h * mesh.h / 2.0
    local = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    data = np.tile(local.ravel(), tri.shape[0])
    nn = mesh.nodes.shape[0]
    return sp.coo_matrix((data, (rows, cols)), shape=(nn, nn)).tocsr()


def _load_oracle(mesh, source):
    """Interior load summed triangle by triangle: area/12 (2 f_i + f_j + f_k)."""
    ft = np.asarray(source(mesh.nodes), dtype=float)[mesh.triangles]
    contrib = mesh.h**2 / 24.0 * (ft + ft.sum(axis=1, keepdims=True))
    b = np.zeros(mesh.nodes.shape[0])
    np.add.at(b, mesh.triangles.ravel(), contrib.ravel())
    return b[mesh.interior_mask]


def _a_T(mesh, model, y):
    psi = mesh.psi_at_centroids(model)
    return model.a0 + (psi @ np.sin(2 * math.pi * np.asarray(y))) / math.sqrt(6.0)


def _dense_solve(mesh, model, y):
    """(solution, interior stiffness matrix) by a dense direct solve."""
    A = _assemble_stiffness(mesh, _a_T(mesh, model, y)).toarray()
    return np.linalg.solve(A, _load_oracle(mesh, lambda x: x[:, 1])), A


def _interval(mesh, model, y):
    """lo, hi: the min and max edge weight at y."""
    w = _edge_weights(mesh, _a_T(mesh, model, y)[None])
    return min(x.min() for x in w), max(x.max() for x in w)


def _steps_needed(mesh, model, y, rho=1.0):
    """The least k >= 1 with T_k(mid/half) >= 1e12 rho, [lo, hi] the point's
    interval: from a start whose energy-norm error is at most rho ||u||_K,
    k Chebyshev steps meet the 1e-12 energy-norm bound."""
    lo, hi = _interval(mesh, model, y)
    x = math.inf if hi == lo else (hi + lo) / (hi - lo)
    k, t_prev, t = 1, 1.0, x  # T_0, T_1
    while t < 1e12 * rho:
        k, t_prev, t = k + 1, t, 2.0 * x * t - t_prev
    return k


def _start_error(mesh, model, y, x0):
    """rho = sqrt(hi/lo r0^T L^-1 r0 / b^T L^-1 b), r0 = b - K x0, by dense
    matrices: the certified bound on ||u - x0||_K / ||u||_K."""
    K = _assemble_stiffness(mesh, _a_T(mesh, model, y)).toarray()
    L = _assemble_stiffness(mesh, np.ones(len(mesh.triangles))).toarray()
    b = _load_oracle(mesh, lambda x: x[:, 1])
    r0 = b - K @ x0
    lo, hi = _interval(mesh, model, y)
    return math.sqrt(hi / lo * (r0 @ np.linalg.solve(L, r0))
                     / (b @ np.linalg.solve(L, b)))


class TestDiffusionModel:
    def test_bounds(self):
        m = _model(c=0.2, theta=2.4, s=100)
        want = 0.2 * zeta(2.4) / math.sqrt(6.0)
        assert m.a_min == pytest.approx(1.0 - want, rel=1e-10)
        assert m.a_min == pytest.approx(0.8869, abs=5e-4)

    def test_zeta_summed_once_per_model(self, monkeypatch):
        calls = []

        def counting_zeta(x):
            calls.append(x)
            return zeta(x)

        monkeypatch.setattr(latkern.pde, "zeta", counting_zeta)
        m = _model()
        for _ in range(3):
            assert m.a_min < 1.0
        assert calls == [2.4]

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            DiffusionModel(10.0, 2.0, 4)

    @pytest.mark.parametrize(
        "c,theta,named",
        [(math.nan, 2.4, "c=nan"), (math.inf, 2.4, "c=inf"),
         (0.2, math.nan, "theta=nan"), (0.2, math.inf, "theta=inf")],
    )
    def test_non_finite_parameters_rejected(self, c, theta, named):
        # NaN fails every comparison, so a check of the invalid range
        # (c < 0, theta <= 1) once let it through to a NaN coefficient
        with pytest.raises(ValueError, match=named):
            DiffusionModel(c, theta, 4)

    def test_at_zero_parameter(self):
        m = _model()
        x = np.array([[0.3, 0.7], [0.5, 0.5]])
        np.testing.assert_allclose(diffusion_at(m, x, np.zeros(4)), 1.0)

    def test_at_spatial_boundary(self):
        m = _model()
        x = np.array([[0.0, 0.3], [1.0, 0.6], [0.4, 0.0]])
        y = np.random.default_rng(0).random(4)
        np.testing.assert_allclose(diffusion_at(m, x, y), 1.0, atol=1e-12)

    def test_hand_value(self):
        m = _model(c=0.2, theta=2.4, s=1)
        x = np.array([[0.5, 0.5]])
        got = diffusion_at(m, x, [0.25])
        want = 1.0 + 0.2 * 1.0 * 1.0 / math.sqrt(6.0)
        assert got[0] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("shape", [(3,), (2,), (5, 3)])
    def test_short_parameter_vector_rejected(self, shape):
        x = np.array([[0.3, 0.7], [0.5, 0.5]])
        with pytest.raises(ValueError, match=f"{shape[-1]} .* s = 4"):
            diffusion_at(_model(), x, np.full(shape, 0.25))

    def test_batch_of_points(self):
        m = _model()
        x = np.array([[0.3, 0.7], [0.5, 0.5], [0.1, 0.9]])
        Y = np.random.default_rng(3).random((5, 6))  # cut to s = 4
        got = diffusion_at(m, x, Y)
        assert got.shape == (5, 3)
        for k in range(5):
            np.testing.assert_allclose(
                got[k], diffusion_at(m, x, Y[k, :4]), rtol=1e-15
            )

    def test_decay_sequence(self):
        m = _model(c=0.2, theta=2.4, s=3)
        b = decay_sequence(m, 3)
        assert b[0] == pytest.approx(0.2 / (math.sqrt(6.0) * m.a_min))
        assert b[1] == pytest.approx(b[0] * 2.0**-2.4)
        assert np.all(np.diff(b) < 0)


class TestMesh:
    def test_counts(self):
        mesh = FemMesh(3)
        assert mesh.N == 8
        assert mesh.nodes.shape == (81, 2)
        assert mesh.triangles.shape == (128, 3)
        assert mesh.n_unknowns == 49

    def test_triangle_areas(self):
        mesh = FemMesh(2)
        p = mesh.nodes[mesh.triangles]
        v1 = p[:, 1] - p[:, 0]
        v2 = p[:, 2] - p[:, 0]
        areas = 0.5 * np.abs(v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
        np.testing.assert_allclose(areas, mesh.h**2 / 2.0)
        assert areas.sum() == pytest.approx(1.0)

    def test_mass_matrix_total(self):
        mesh = FemMesh(3)
        M = _mass_matrix(mesh)
        assert M.sum() == pytest.approx(1.0)  # integral of 1*1
        # symmetry
        assert abs(M - M.T).max() == 0.0


class TestPsiTable:
    def test_narrower_model_gets_a_prefix_view(self):
        mesh = FemMesh(3)
        wide = mesh.psi_at_centroids(_model(s=16))
        narrow = mesh.psi_at_centroids(_model(s=5))
        assert np.shares_memory(narrow, wide)
        fresh = FemMesh(3).psi_at_centroids(_model(s=5))
        assert narrow.shape == fresh.shape == (mesh.triangles.shape[0], 5)
        assert np.array_equal(narrow, fresh)

    def test_wider_model_rebuilds(self):
        mesh = FemMesh(3)
        narrow = mesh.psi_at_centroids(_model(s=5))
        wide = mesh.psi_at_centroids(_model(s=16))
        assert wide.shape == (mesh.triangles.shape[0], 16)
        assert not np.shares_memory(narrow, wide)
        assert np.array_equal(wide[:, :5], narrow)
        assert np.shares_memory(mesh.psi_at_centroids(_model(s=5)), wide)

    def test_other_c_or_theta_gets_its_own_table(self):
        mesh = FemMesh(3)
        base = mesh.psi_at_centroids(_model(c=0.2, theta=2.4, s=8))
        for m in (_model(c=0.4, theta=2.4, s=4), _model(c=0.2, theta=3.0, s=4)):
            tab = mesh.psi_at_centroids(m)
            assert not np.shares_memory(tab, base)
            assert np.array_equal(tab, FemMesh(3).psi_at_centroids(m))
        again = mesh.psi_at_centroids(_model(c=0.2, theta=2.4, s=8))
        assert np.shares_memory(again, base)

    def test_solve_with_a_prefix_view_keeps_the_bits(self):
        # the view is strided, so BLAS sees another leading dimension
        m = _model(c=0.4, s=5)
        Y = np.random.default_rng(43).random((7, 5))
        shared = FemMesh(4)
        shared.psi_at_centroids(_model(c=0.4, s=64))
        for y in (Y, Y[0]):
            want = fem_solve(FemMesh(4), m, y).interior_values
            assert np.array_equal(fem_solve(shared, m, y).interior_values, want)


class TestStiffness:
    def test_five_point_stencil_for_unit_coefficient(self):
        # a == 1: the P1 stiffness matrix on this mesh is the standard
        # 5-point Laplacian (4 on the diagonal, -1 to the 4 neighbours)
        mesh = FemMesh(3)
        A = _assemble_stiffness(mesh, np.ones(mesh.triangles.shape[0]))
        n = mesh.N - 1
        D = sp.diags([4.0] * n) + sp.diags([-1.0] * (n - 1), 1) + sp.diags(
            [-1.0] * (n - 1), -1
        )
        I_off = sp.diags([-1.0] * n)
        want = sp.kron(sp.eye(n), D) + sp.kron(
            sp.diags([1.0] * (n - 1), 1) + sp.diags([1.0] * (n - 1), -1),
            I_off,
        )
        assert abs(A - want).max() <= 1e-13

    def test_symmetric_positive_definite(self):
        mesh = FemMesh(2)
        m = _model()
        psi = mesh.psi_at_centroids(m)
        a_T = 1.0 + (psi @ np.sin(2 * math.pi * np.array([0.1, 0.7, 0.3, 0.9]))) / math.sqrt(6.0)
        A = _assemble_stiffness(mesh, a_T).toarray()
        np.testing.assert_allclose(A, A.T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(A)) > 0.0


    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_stencil_matches_oracle(self, level):
        mesh = FemMesh(level)
        m = _model(c=0.4, s=16)
        rng = np.random.default_rng(level)
        Y = rng.random((3, 16))
        a_T = np.array([_a_T(mesh, m, y) for y in Y])
        u = rng.standard_normal((3, mesh.n_unknowns))
        n = mesh.N - 1
        got = _stencil(_edge_weights(mesh, a_T), u.reshape(3, n, n))
        for k in range(3):
            want = _assemble_stiffness(mesh, a_T[k]) @ u[k]
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got[k].ravel() - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_stencil_bits_match_padded_oracle(self, level):
        # level 1 has one unknown, so the interior differences are empty
        mesh = FemMesh(level)
        n = mesh.N - 1
        rng = np.random.default_rng(40 + level)
        a_T = 1.0 + 0.3 * rng.random((4, mesh.triangles.shape[0]))
        w = _edge_weights(mesh, a_T)
        zero = np.zeros((4, n, n))
        for u in (rng.standard_normal((4, n, n)), zero, -zero):
            got, want = _stencil(w, u), padded_stencil(w, u)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        # the first Chebyshev step: one iterate for all B weight blocks
        u = rng.standard_normal((1, n, n))
        got = _stencil(w, np.repeat(u, 4, axis=0))
        assert np.array_equal(got, padded_stencil(w, u))


    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_load_vector_matches_triangle_sums(self, level):
        mesh = FemMesh(level)
        for f in (lambda x: x[:, 1], lambda x: np.exp(x[:, 0]) * np.cos(3 * x[:, 1])):
            want = _load_oracle(mesh, f)
            got = _load_vector(mesh, f)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestSolve:
    def test_manufactured_convergence(self):
        # a == 1 (c -> 0 limit via y=0), u = sin(pi x1) sin(pi x2),
        # f = 2 pi^2 u: successive-refinement error ratio ~ 4
        def u_exact(x):
            return np.sin(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1])

        def f(x):
            return 2.0 * math.pi**2 * u_exact(x)

        m = _model()
        errs = []
        for lvl in (3, 4, 5):
            mesh = FemMesh(lvl)
            sol = fem_solve(mesh, m, np.zeros(4), source=f)
            inner = mesh.nodes[mesh.interior_mask]
            errs.append(l2_norm(mesh, sol.interior_values - u_exact(inner)))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)

    def test_spatial_symmetry(self):
        # at y=0 the problem data q(x) = x2 and a = 1 are symmetric under
        # x1 -> 1 - x1
        mesh = FemMesh(4)
        sol = fem_solve(mesh, _model(), np.zeros(4))
        u = sol.interior_values.reshape(mesh.N - 1, mesh.N - 1)
        np.testing.assert_allclose(u, u[::-1, :], atol=1e-10)

    def test_periodicity_in_y(self):
        mesh = FemMesh(3)
        m = _model()
        y = np.array([0.12, 0.77, 0.31, 0.55])
        a = fem_solve(mesh, m, y).interior_values
        b = fem_solve(mesh, m, y + np.array([1.0, -2.0, 3.0, 0.0])).interior_values
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_galerkin_orthogonality(self):
        # residual of the discrete system is zero: A u = b to solver accuracy
        mesh = FemMesh(4)
        m = _model()
        y = np.array([0.3, 0.8, 0.1, 0.6])
        psi = mesh.psi_at_centroids(m)
        a_T = 1.0 + (psi @ np.sin(2 * math.pi * y)) / math.sqrt(6.0)
        A = _assemble_stiffness(mesh, a_T)
        b = _load_vector(mesh, lambda x: x[:, 1])
        u = fem_solve(mesh, m, y).interior_values
        assert np.max(np.abs(A @ u - b)) <= 1e-8 * max(1.0, np.max(np.abs(b)))

    @pytest.mark.parametrize("level,c", [(3, 0.2), (4, 0.4), (5, 0.2)])
    def test_against_dense_solve(self, level, c):
        # relative energy-norm error of the iteration at one point
        mesh = FemMesh(level)
        m = _model(c=c, s=8)
        y = np.random.default_rng(level).random(8)
        want, A = _dense_solve(mesh, m, y)
        got = fem_solve(mesh, m, y).interior_values
        e = got - want
        assert math.sqrt(e @ A @ e) <= 1e-12 * math.sqrt(want @ A @ want)

    def test_batch_against_dense_solves(self):
        # each point's own interval meets the bound: a narrow first point
        # next to random ones, whose step counts differ
        mesh = FemMesh(4)
        m = _model(c=0.4, s=8)
        rng = np.random.default_rng(41)
        Y = np.vstack([0.02 * rng.random(8), rng.random((11, 8))])
        got = fem_solve(mesh, m, Y).interior_values
        assert len({_steps_needed(mesh, m, y) for y in Y}) > 1
        for y, u in zip(Y, got):
            want, A = _dense_solve(mesh, m, y)
            e = u - want
            assert math.sqrt(e @ A @ e) <= 1e-12 * math.sqrt(want @ A @ want)

    def test_steps_meet_the_bound_per_point(self, monkeypatch):
        # the operator is applied to the points with steps left: a point
        # with k steps is in k - 1 calls, and k is the least count with
        # 1/T_k(mid/half) <= 1e-12 on its own edge weights' interval
        mesh = FemMesh(3)
        m = _model(c=0.4, s=6)
        Y = np.random.default_rng(42).random((40, 6))
        sizes = []

        def counting(w, u):
            sizes.append(len(u))
            return _stencil(w, u)

        monkeypatch.setattr(latkern.pde, "_stencil", counting)
        fem_solve(mesh, m, Y)
        got = [1 + sum(n > j for n in sizes) for j in range(len(Y))]
        want = sorted((_steps_needed(mesh, m, y) for y in Y), reverse=True)
        assert got == want and len(set(want)) > 1

    @pytest.mark.parametrize("level", [3, 4])
    @pytest.mark.parametrize("c", [0.2, 0.4])
    @pytest.mark.parametrize("dist", [0.0, 1e-6, 1e-2, "zeros"])
    def test_against_dense_solve_from_a_guess(self, level, c, dist):
        # the bound holds from any guess: the exact solution, one off by a
        # relative 1e-6 or 1e-2 at each node, and zeros (rho >= 1, cold)
        mesh = FemMesh(level)
        m = _model(c=c, s=8)
        rng = np.random.default_rng(level)
        Y = rng.random((3, 8))
        for y in Y:
            want, A = _dense_solve(mesh, m, y)
            x0 = (np.zeros_like(want) if dist == "zeros" else
                  want * (1.0 + dist * rng.standard_normal(len(want))))
            got = fem_solve(mesh, m, y, x0=x0).interior_values
            e = got - want
            assert math.sqrt(e @ A @ e) <= 1e-12 * math.sqrt(want @ A @ want)

    def test_steps_meet_the_bound_from_a_guess(self, monkeypatch):
        # one residual for the whole block, then a point with k steps is in
        # k - 1 step calls: k calls in all, k the least count with
        # T_k(mid/half) >= 1e12 rho on the point's own interval and rho.
        # Each guess puts 1e12 rho 1 % above T_j(mid/half), j = 1 ... 5, so
        # k = j + 1, where a rho without the factor hi/lo would give j.
        mesh = FemMesh(3)
        m = _model(c=0.4, s=6)
        rng = np.random.default_rng(45)
        Y = rng.random((40, 6))
        x0 = []
        for i, y in enumerate(Y):
            u = _dense_solve(mesh, m, y)[0]
            v = u * rng.standard_normal(len(u))
            lo, hi = _interval(mesh, m, y)
            t_j = math.cosh((1 + i % 5) * math.acosh((hi + lo) / (hi - lo)))
            eps = 1.01 * t_j / (1e12 * _start_error(mesh, m, y, u + v))
            x0.append(u + eps * v)
        sizes = []

        def counting(w, u):
            sizes.append(len(u))
            return _stencil(w, u)

        monkeypatch.setattr(latkern.pde, "_stencil", counting)
        fem_solve(mesh, m, Y, x0=x0)
        got = [sum(n > j for n in sizes) for j in range(len(Y))]
        rhos = [_start_error(mesh, m, y, g) for y, g in zip(Y, x0)]
        want = sorted(
            (_steps_needed(mesh, m, y, r) for y, r in zip(Y, rhos)),
            reverse=True,
        )
        assert got == want and len(set(want)) > 2 and max(rhos) < 1

    def test_f_ordered_guess_runs_c_ordered(self, monkeypatch):
        # an F-ordered x0, such as the transpose of a node-major array,
        # is copied to C order block by block: the stencil sees C-contiguous
        # iterates only, and the bits are those of the C-ordered x0
        mesh = FemMesh(4)
        m = _model(c=0.2, s=6)
        rng = np.random.default_rng(47)
        Y = rng.random((20, 6))
        u = fem_solve(mesh, m, Y).interior_values
        x0 = u + 1e-7 * rng.standard_normal(u.shape)
        want = fem_solve(mesh, m, Y, x0=x0).interior_values
        contiguous = []

        def spy(w, v):
            contiguous.append(v.flags.c_contiguous)
            return _stencil(w, v)

        monkeypatch.setattr(latkern.pde, "_stencil", spy)
        got = fem_solve(mesh, m, Y, x0=np.asfortranarray(x0)).interior_values
        assert contiguous and all(contiguous)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", ["far", "huge", "nan", "inf"])
    def test_guess_without_certificate_keeps_the_bits(self, bad):
        # rho >= 1, inf or NaN: the point starts from zero with its cold
        # steps.  Point 2 has a zero-width interval (y = 0), where a huge
        # guess meets rho = inf with acosh(mid/half) = inf.
        mesh = FemMesh(4)
        m = _model(c=0.4, s=6)
        rng = np.random.default_rng(46)
        Y = rng.random((5, 6))
        Y[2] = 0.0
        want = fem_solve(mesh, m, Y).interior_values
        cold = [0, 1, 2, 3, 4]
        if bad == "far":
            x0 = 1e3 * rng.random(want.shape)
            assert all(_start_error(mesh, m, y, g) >= 1 for y, g in zip(Y, x0))
        elif bad == "huge":
            x0 = np.full(want.shape, 1e200)  # r0 finite, r0^T L^-1 r0 inf
        else:
            x0 = want + 0.0
            x0[1:4, 7] = float(bad)
            cold = [1, 2, 3]
        got = fem_solve(mesh, m, Y, x0=x0).interior_values
        assert np.array_equal(got[cold], want[cold])
        if bad in ("nan", "inf"):  # the finite guesses start from themselves
            assert not np.array_equal(got[[0, 4]], want[[0, 4]])
        one = fem_solve(mesh, m, Y[3], x0=x0[3]).interior_values
        assert np.array_equal(one, fem_solve(mesh, m, Y[3]).interior_values)

    @pytest.mark.parametrize("shape", [(49,), (3, 48), (2, 49), (3, 49, 1)])
    def test_guess_of_the_wrong_shape_rejected(self, shape):
        mesh = FemMesh(3)
        Y = np.full((3, 4), 0.25)
        with pytest.raises(ValueError, match=re.escape("expected (3, 49)")):
            fem_solve(mesh, _model(), Y, x0=np.zeros(shape))
        with pytest.raises(ValueError, match=re.escape("expected (49,)")):
            fem_solve(mesh, _model(), Y[0], x0=np.zeros((1, 49)))

    def test_zero_width_interval_in_a_batch(self):
        # every sine is 0 at y = 0 and round-off at y = 1/2: lo = hi
        mesh = FemMesh(3)
        m = _model(c=0.4, s=6)
        Y = np.random.default_rng(43).random((6, 6))
        Y[1], Y[4] = 0.0, 0.5
        batch = fem_solve(mesh, m, Y).interior_values
        assert np.isfinite(batch).all()
        single = np.array([fem_solve(mesh, m, y).interior_values for y in Y])
        assert np.max(np.abs(batch - single)) <= 1e-14 * np.max(np.abs(single))

    def test_zero_width_batch_takes_one_step(self, monkeypatch):
        mesh = FemMesh(4)
        m = _model(c=0.4, s=6)
        Y = np.array([np.zeros(6), np.full(6, 0.5), np.zeros(6)])
        want = np.array([_dense_solve(mesh, m, y)[0] for y in Y])

        def no_operator(w, u):
            pytest.fail("a zero-width interval applied the operator")

        monkeypatch.setattr(latkern.pde, "_stencil", no_operator)
        got = fem_solve(mesh, m, Y).interior_values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_permuted_batch_permutes_solutions(self, blocks):
        mesh = FemMesh(3)
        m = _model(c=0.4, s=6)
        B = latkern.pde._SOLVE_BLOCK // mesh.nodes.shape[0] if blocks == 2 else 50
        rng = np.random.default_rng(44)
        Y = rng.random((blocks * B, 6))
        perm = rng.permutation(len(Y))
        want = fem_solve(mesh, m, Y).interior_values[perm]
        assert np.array_equal(fem_solve(mesh, m, Y[perm]).interior_values, want)

    def test_constant_coefficient(self, monkeypatch):
        # c = 0: every edge weight is a0, so lo = hi and the one
        # preconditioned step is exact
        mesh = FemMesh(4)
        m = DiffusionModel(0.0, 2.4, 4)
        y = np.array([0.3, 0.8, 0.1, 0.6])
        want, _ = _dense_solve(mesh, m, y)

        def no_operator(w, u):
            pytest.fail("c = 0 applied the operator")

        monkeypatch.setattr(latkern.pde, "_stencil", no_operator)
        got = fem_solve(mesh, m, y).interior_values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_batch_matches_single_solves(self):
        mesh = FemMesh(3)
        m = _model(c=0.4, s=6)
        rng = np.random.default_rng(23)
        Y = rng.random((300, 6))
        batch = fem_solve(mesh, m, Y).interior_values
        assert batch.shape == (300, mesh.n_unknowns)
        single = np.array([fem_solve(mesh, m, y).interior_values for y in Y])
        assert np.max(np.abs(batch - single)) <= 1e-14 * np.max(np.abs(single))
        # and from guesses off by a relative 1e-9 ... 1e-1
        scale = 10.0 ** -rng.uniform(1, 9, size=(300, 1))
        X0 = batch * (1.0 + scale * rng.standard_normal(batch.shape))
        batch = fem_solve(mesh, m, Y, x0=X0).interior_values
        single = np.array(
            [fem_solve(mesh, m, y, x0=g).interior_values for y, g in zip(Y, X0)]
        )
        assert np.max(np.abs(batch - single)) <= 1e-14 * np.max(np.abs(single))

    def test_two_blocks_match_separate_calls(self):
        mesh = FemMesh(3)
        m = _model(c=0.4, s=6)
        block = latkern.pde._SOLVE_BLOCK // mesh.nodes.shape[0]
        Y = np.random.default_rng(24).random((2 * block, 6))
        both = fem_solve(mesh, m, Y).interior_values
        first = fem_solve(mesh, m, Y[:block]).interior_values
        second = fem_solve(mesh, m, Y[block:]).interior_values
        assert np.array_equal(both, np.concatenate([first, second]))

    @pytest.mark.parametrize("size", ["one", "block_plus_one", "beyond_two"])
    def test_point_layout_keeps_the_bits(self, size):
        # Lattice.points() is an F-ordered view of the (s, n) columns; the
        # solutions must not depend on that layout, for the one-row path
        # and for full and partial blocks
        mesh = FemMesh(5)
        m = _model(c=0.4, s=6)
        block = latkern.pde._SOLVE_BLOCK // mesh.nodes.shape[0]
        n = 2 * block + 7
        z = [c for c in range(1, n, 7) if math.gcd(c, n) == 1][:6]
        pts = Lattice(n, np.array(z)).points()
        Y = pts[-{"one": 1, "block_plus_one": block + 1, "beyond_two": n}[size]:]
        assert not Y.flags.c_contiguous
        got = fem_solve(mesh, m, Y).interior_values
        want = fem_solve(mesh, m, np.ascontiguousarray(Y)).interior_values
        assert np.array_equal(got, want)

    def test_empty_batch(self):
        mesh = FemMesh(3)
        sol = fem_solve(mesh, _model(), np.empty((0, 4)))
        assert sol.interior_values.shape == (0, mesh.n_unknowns)

    @pytest.mark.parametrize("shape", [(3,), (2,), (5, 3)])
    def test_short_parameter_vector_rejected(self, shape):
        with pytest.raises(ValueError, match=f"{shape[-1]} .* s = 4"):
            fem_solve(FemMesh(3), _model(), np.full(shape, 0.25))

    def test_non_finite_solution_raises(self):
        mesh = FemMesh(3)
        Y = np.random.default_rng(29).random((5, 4))
        with pytest.raises(
            FloatingPointError, match="mesh level 3: 5 of 5 solutions"
        ):
            fem_solve(mesh, _model(), Y, source=lambda x: np.full(len(x), np.nan))

    def test_a_priori_bound(self):
        # energy estimate: a_min |u|_H1^2 <= (f, u) <= ||f|| ||u|| and the
        # Poincare chain gives ||u|| <= ||f|| / (a_min lambda_1)
        mesh = FemMesh(4)
        m = _model()
        y = np.random.default_rng(5).random(4)
        sol = fem_solve(mesh, m, y)
        unorm = l2_norm(mesh, sol.interior_values)
        fnorm = 1.0 / math.sqrt(3.0)  # ||x2|| on the unit square
        lam1 = 2.0 * math.pi**2
        assert unorm <= fnorm / (m.a_min * lam1) * (1.0 + 1e-6)


def _hat(mesh):
    """The interior node values of the hat function at one interior node."""
    v = np.zeros(mesh.n_unknowns)
    v[mesh.n_unknowns // 2] = 1.0
    return v


class TestL2Norm:
    @pytest.mark.parametrize("level", [2, 4])
    def test_hat_at_one_node(self, level):
        # the integral of the hat squared is M_ii = h^2 / 2
        mesh = FemMesh(level)
        assert l2_norm(mesh, _hat(mesh)) == pytest.approx(
            mesh.h / math.sqrt(2.0), rel=1e-15
        )

    def test_zero(self):
        mesh = FemMesh(3)
        assert l2_norm(mesh, np.zeros(mesh.n_unknowns)) == 0.0

    def test_against_quadrature_oracle(self):
        # compare v^T M v with per-triangle degree-2 exact quadrature of the
        # square of the linear interpolant (3 edge-midpoint rule)
        mesh = FemMesh(3)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(mesh.n_unknowns)
        full = np.zeros(mesh.nodes.shape[0])
        full[mesh.interior_mask] = v
        vt = full[mesh.triangles]
        mids = np.stack(
            [
                (vt[:, 0] + vt[:, 1]) / 2.0,
                (vt[:, 1] + vt[:, 2]) / 2.0,
                (vt[:, 2] + vt[:, 0]) / 2.0,
            ],
            axis=1,
        )
        area = mesh.h**2 / 2.0
        integral = np.sum(area / 3.0 * np.sum(mids**2, axis=1))
        assert l2_norm(mesh, v) == pytest.approx(math.sqrt(integral), rel=1e-12)

    def test_bad_length(self):
        mesh = FemMesh(3)
        with pytest.raises(ValueError):
            l2_norm(mesh, np.zeros(5))


class TestBatchedNorms:
    @pytest.mark.parametrize("f_ordered", [True, False])
    def test_against_oracle_quadratic_forms(self, f_ordered):
        # F-ordered: the transposed view the interpolation study passes
        mesh = FemMesh(4)
        rng = np.random.default_rng(31)
        V = rng.standard_normal((7, mesh.n_unknowns))
        if f_ordered:
            V = np.ascontiguousarray(V.T).T
        full = np.zeros((7, mesh.nodes.shape[0]))
        full[:, mesh.interior_mask] = V
        K = _assemble_all_nodes(mesh, np.ones(mesh.triangles.shape[0]))
        for norm, Q in ((l2_norm, _mass_matrix(mesh)), (h1_seminorm, K)):
            got = norm(mesh, V)
            assert got.shape == (7,)
            want = np.sqrt(np.einsum("bi,bi->b", full, (Q @ full.T).T))
            np.testing.assert_allclose(got, want, rtol=1e-13)
            assert norm(mesh, V[2]) == got[2]

    def test_batch_solution(self):
        mesh = FemMesh(3)
        m = _model()
        Y = np.random.default_rng(37).random((3, 4))
        U = fem_solve(mesh, m, Y).interior_values
        assert U.shape == (3, mesh.n_unknowns)
        for norm in (l2_norm, h1_seminorm):
            got = norm(mesh, U)
            for k in range(3):
                assert got[k] == norm(mesh, U[k])
        for k in range(3):
            one = fem_solve(mesh, m, Y[k]).interior_values
            assert np.max(np.abs(U[k] - one)) <= 1e-14 * np.max(np.abs(one))

    @pytest.mark.parametrize("norm", [l2_norm, h1_seminorm])
    def test_full_length_vector_refused(self, norm):
        # only interior nodes carry values; the boundary ones are zero
        mesh = FemMesh(3)
        for shape in ((81,), (2, 81)):
            with pytest.raises(ValueError, match="expected 49 interior"):
                norm(mesh, np.zeros(shape))


def test_import_leaves_out_scipy_sparse():
    code = "import sys, latkern; print('scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_leaves_out_scipy():
    # the runtime needs numpy alone: neither a CBC search nor a study
    # loads any scipy module
    code = """
import json, sys
import latkern.cli
rc = [
    latkern.cli.cli(["cbc", "--weights", "pod", "--s", "4", "--n-list", "32"]),
    latkern.cli.cli(["interp-study", "--weights", "product", "--s", "2",
                     "--n-list", "8,16,32", "--mesh-level", "1", "--L", "2"]),
]
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
    )
    last = out.stdout.strip().splitlines()[-1]
    assert json.loads(last) == [[0, 0], []]


class TestH1Seminorm:
    @staticmethod
    def _gradient_oracle(mesh, full):
        # sum over triangles of area * |grad v_T|^2, with the constant P1
        # gradient of each element solved from its two edge differences
        p = mesh.nodes[mesh.triangles]
        vt = full[mesh.triangles]
        E = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=1)
        dv = np.stack([vt[:, 1] - vt[:, 0], vt[:, 2] - vt[:, 0]], axis=1)
        grads = np.linalg.solve(E, dv[:, :, None])[:, :, 0]
        areas = 0.5 * np.abs(np.linalg.det(E))
        return math.sqrt(np.sum(areas * np.sum(grads**2, axis=1)))

    @pytest.mark.parametrize("level", [2, 4])
    def test_hat_at_one_node(self, level):
        # K_ii = 4, the centre of the 5-point Laplacian
        mesh = FemMesh(level)
        assert h1_seminorm(mesh, _hat(mesh)) == pytest.approx(2.0, rel=1e-15)

    def test_interior_vector_against_gradient_oracle(self):
        mesh = FemMesh(3)
        v = np.random.default_rng(19).standard_normal(mesh.n_unknowns)
        full = np.zeros(mesh.nodes.shape[0])
        full[mesh.interior_mask] = v
        assert h1_seminorm(mesh, v) == pytest.approx(
            self._gradient_oracle(mesh, full), rel=1e-12
        )

    def test_bad_length(self):
        mesh = FemMesh(3)
        with pytest.raises(ValueError):
            h1_seminorm(mesh, np.zeros(5))


class TestTruncatedSolve:
    def test_full_truncation_identity(self):
        mesh = FemMesh(3)
        m = _model()
        y = np.random.default_rng(9).random(4)
        a = truncated_solve(mesh, m, y, 4).interior_values
        b = fem_solve(mesh, m, y).interior_values
        np.testing.assert_array_equal(a, b)

    def test_zero_truncation_is_deterministic(self):
        mesh = FemMesh(3)
        m = _model()
        rng = np.random.default_rng(11)
        a = truncated_solve(mesh, m, rng.random(4), 0).interior_values
        b = truncated_solve(mesh, m, rng.random(4), 0).interior_values
        np.testing.assert_array_equal(a, b)

    def test_truncation_error_decreases(self):
        mesh = FemMesh(3)
        m = _model(c=0.4, theta=2.4, s=16)
        rng = np.random.default_rng(13)
        Y = rng.random((6, 16))
        errs = []
        for s in (1, 4, 12):
            acc = 0.0
            for y in Y:
                full = fem_solve(mesh, m, y)
                trunc = truncated_solve(mesh, m, y, s)
                acc += l2_norm(
                    mesh, full.interior_values - trunc.interior_values
                ) ** 2
            errs.append(math.sqrt(acc / len(Y)))
        assert errs[0] > errs[1] > errs[2]

    def test_too_large_truncation_rejected(self):
        mesh = FemMesh(2)
        with pytest.raises(ValueError):
            truncated_solve(mesh, _model(), np.zeros(4), 5)

    def test_batch_rejected(self):
        mesh = FemMesh(2)
        with pytest.raises(ValueError, match=r"shape \(2, 4\), one point"):
            truncated_solve(mesh, _model(), np.zeros((2, 4)), 4)

    def test_short_parameter_vector_rejected(self):
        mesh = FemMesh(2)
        with pytest.raises(
            ValueError, match="y has 2 components, the truncation needs s = 3"
        ):
            truncated_solve(mesh, _model(), np.zeros(2), 3)
