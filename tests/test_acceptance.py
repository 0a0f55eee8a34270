"""Acceptance gate: the nine end-to-end criteria at stated tolerances.

Each test prints a one-line PASS summary with the measured quantities so a
reviewer can audit the margins without re-running.
"""

import itertools
import math
import time

import numpy as np
import pytest

from latkern.cli import cli
from latkern.experiments import (
    StudyConfig,
    fit_rate,
    run_dim_truncation,
    run_interp_convergence,
)
from latkern.interpolant import build, evaluate
from latkern.kernel import KernelSpec, kernel_values_batch
from latkern.lattice import Lattice, cbc_construct, criterion_S
from latkern.pde import DiffusionModel, FemMesh, decay_sequence, fem_solve, l2_norm
from latkern.weights import PdeWeightInput, WeightScheme
from latkern.experiments import derive_for_family
from reference import (
    TrigPolynomial,
    fooling_vector,
    h_norm,
    kernel_eval,
    kernel_eval_bruteforce,
    rnorm,
)


def _korobov(n: int, s: int, a: int = 3) -> Lattice:
    z = np.array([pow(a, j, n) for j in range(s)], dtype=np.int64)
    return Lattice(n, z)


def _family_spec(family: str, s: int, c: float = 0.2, theta: float = 2.4):
    model = DiffusionModel(c, theta, s)
    inp = PdeWeightInput(1.0 / 2.2, decay_sequence(model, s), 0.1)
    params = derive_for_family(family, inp, s)
    return KernelSpec(params.alpha, params.scheme)


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_interpolation_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(1)
    for family, s, n in itertools.product(
        ("product", "pod", "spod"), (3, 10), (16, 64, 257)
    ):
        spec = _family_spec(family, s)
        lat = _korobov(n, s)
        vals = rng.standard_normal(n)
        itp = build(spec, lat, vals)
        rel = itp.residual / np.max(np.abs(vals))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    print(
        f"\n[criterion 1] PASS max relative node residual {worst:.2e} "
        f"(<= 1e-8), {elapsed:.1f}s (< 10s)"
    )


def test_criterion_1_nodes_through_evaluate():
    # Companion to criterion 1, whose residual re-applies the spectrum that
    # build divided by and so reads round-off whatever the spectrum is.
    # evaluate and shifted_union(0) form the kernel column afresh; a solve
    # with a wrong spectrum misses the nodes by more than eps * cond(lambda).
    rng = np.random.default_rng(1)
    worst = 0.0
    for family, s, n in itertools.product(
        ("product", "pod", "spod"), (3, 10), (16, 64, 257)
    ):
        spec = _family_spec(family, s)
        lat = _korobov(n, s)
        vals = rng.standard_normal(n)
        itp = build(spec, lat, vals)
        lam = np.abs(itp.spectrum)
        bound = np.finfo(float).eps * lam.max() / lam.min() * np.max(
            np.abs(vals)
        )
        at_nodes = np.array([evaluate(itp, t) for t in lat.points()])
        err = max(
            np.max(np.abs(at_nodes - vals)),
            np.max(np.abs(itp.shifted_union(np.zeros(s)) - vals)),
        )
        assert err <= bound, (family, s, n)
        worst = max(worst, err / bound)
    print(
        f"\n[criterion 1, companion] PASS max node error through evaluate "
        f"{worst:.2f} of eps * cond(lambda) * max|v|"
    )


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_oracle_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    # (a) FFT circulant solve vs dense Gram solve, n <= 64
    spec = _family_spec("spod", 4)
    lat = cbc_construct(spec, 64, 4).lattice()
    vals = rng.standard_normal(64)
    itp = build(spec, lat, vals)
    pts = lat.points()
    G = np.array(
        [[kernel_eval(spec, pts[i], pts[j]) for j in range(64)]
         for i in range(64)]
    )
    dense = np.linalg.solve(G, vals)
    rel_a = np.max(np.abs(itp.coeffs - dense)) / np.max(np.abs(dense))
    assert rel_a <= 1e-9

    # (b) recursive POD/SPOD kernel vs 2^s brute-force subset sum, s <= 6
    rel_b = 0.0
    for family in ("pod", "spod"):
        fspec = _family_spec(family, 6)
        for _ in range(5):
            y, yp = rng.random(6), rng.random(6)
            fast = kernel_eval(fspec, y, yp)
            brute = kernel_eval_bruteforce(fspec, y, yp)
            rel_b = max(rel_b, abs(fast - brute) / abs(brute))
    assert rel_b <= 1e-10

    # (c) criterion identity vs truncated dual-lattice double sum, s=2, n<=8
    alpha = 4
    sch = WeightScheme("product", gamma_j=np.array([0.8, 0.6]))
    cspec = KernelSpec(alpha, sch)
    n, z = 8, (1, 3)
    H = 20
    hs = np.arange(-H, H + 1)
    by_res = np.zeros(n)
    sum_sq = 0.0
    for h1, h2 in itertools.product(hs, hs):
        rinv = 1.0 / rnorm(alpha, sch, [h1, h2]).to_float()
        by_res[(h1 * z[0] + h2 * z[1]) % n] += rinv
        sum_sq += rinv * rinv
    oracle = float(np.sum(by_res**2) - sum_sq)
    got = criterion_S(cspec, Lattice(n, np.array(z)))
    k00 = kernel_eval(cspec, np.zeros(2), np.zeros(2))
    partial = sum(2.0 / k**alpha for k in range(1, H + 1))
    box = 1.0
    for g in sch.gamma_j:
        box *= 1.0 + g * partial
    tail = 2.0 * (k00 - box) * k00
    gap_c = abs(got - oracle)
    assert gap_c <= tail

    # (d) shifted_union vs direct evaluation
    spec3 = _family_spec("product", 3)
    lat3 = cbc_construct(spec3, 32, 3).lattice()
    itp3 = build(spec3, lat3, rng.standard_normal(32))
    y = rng.random(3)
    su = itp3.shifted_union(y)
    direct = np.array(
        [evaluate(itp3, (y + lat3.points()[k]) % 1.0) for k in range(32)]
    )
    rel_d = np.max(np.abs(su - direct)) / np.max(np.abs(direct))
    assert rel_d <= 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"\n[criterion 2] PASS gram {rel_a:.1e} brute {rel_b:.1e} "
        f"dual-sum gap {gap_c:.1e} (tail {tail:.1e}) union {rel_d:.1e}, "
        f"{elapsed:.1f}s (< 60s)"
    )


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_rkhs_properties():
    rng = np.random.default_rng(3)
    sch = WeightScheme("product", gamma_j=np.array([0.9, 0.6]))
    spec = KernelSpec(4, sch)
    lat = Lattice(16, np.array([1, 7]))
    pts = lat.points()

    # reproducing property, route 1: a kernel section at a node is its own
    # interpolant (coefficients = unit vector) and is reproduced everywhere
    j = 5
    col = np.array([kernel_eval(spec, pts[j], pts[k]) for k in range(16)])
    itp = build(spec, lat, col)
    e_j = np.zeros(16)
    e_j[j] = 1.0
    rep1 = np.max(np.abs(itp.coeffs - e_j))
    assert rep1 <= 1e-8
    y = rng.random(2)
    rep2 = abs(evaluate(itp, y) - kernel_eval(spec, pts[j], y)) / abs(
        kernel_eval(spec, pts[j], y)
    )
    assert rep2 <= 1e-8

    # reproducing property, route 2: <f, K(., y)> = f(y) for a trig
    # polynomial, with the kernel's Fourier coefficients recovered by a
    # dense-grid DFT of the closed-form kernel (independent of rnorm)
    N = 256
    g = np.arange(N) / N
    y0 = np.array([0.3, 0.7])
    X1, X2 = np.meshgrid(g, g, indexing="ij")
    dy = np.column_stack([X1.ravel() - y0[0], X2.ravel() - y0[1]])
    K_slice = kernel_values_batch(spec, dy).reshape(N, N)
    Khat = np.fft.fft2(K_slice) / N**2
    terms = {}
    for h in [(0, 0), (1, 0), (0, 2), (1, 1), (2, -1)]:
        c = complex(rng.standard_normal(), rng.standard_normal())
        if h == (0, 0):
            c = complex(c.real, 0.0)
        terms[h] = c
        terms[tuple(-v for v in h)] = np.conj(c)
    f = TrigPolynomial(terms)
    inner = 0.0
    for h, fc in terms.items():
        # K(., y0) has Fourier coefficient e^{-2 pi i h . y0} / r(h),
        # recovered by the grid DFT at index h mod N
        kc = Khat[h[0] % N, h[1] % N]
        r = rnorm(spec.alpha, sch, h).to_float()
        inner += np.real(fc * np.conj(kc)) * r
    fy = float(np.real(f(y0[None, :])[0]))
    rep3 = abs(inner - fy) / max(abs(fy), 1e-3)
    assert rep3 <= 1e-6

    # Pythagoras: <f, f_n> = ||f_n||^2 by two independent routes
    vals = np.real(f(pts))
    fitp = build(spec, lat, vals)
    inner2 = 0.0
    for h, fc in terms.items():
        phase = np.exp(-2j * np.pi * (pts @ np.asarray(h, float)))
        r = rnorm(spec.alpha, sch, h).to_float()
        fn_hat = np.sum(fitp.coeffs * phase) / r
        inner2 += np.real(fc * np.conj(fn_hat)) * r
    norm_sq = float(np.dot(fitp.coeffs, vals))
    pyth = abs(inner2 - norm_sq) / abs(norm_sq)
    assert pyth <= 1e-6

    # fooling function: vanishes at every lattice point and has dense
    # L1 norm 4/pi
    n, z = 64, np.array([1, 27])
    h = fooling_vector(n, z)
    fpts = Lattice(n, z).points()
    q = np.exp(2j * np.pi * h[0] * fpts[:, 0]) - np.exp(
        -2j * np.pi * h[1] * fpts[:, 1]
    )
    vanish = float(np.max(np.abs(q)))
    assert vanish <= 1e-12
    gg = np.linspace(0.0, 1.0, 800, endpoint=False)
    Y1, Y2 = np.meshgrid(gg, gg, indexing="ij")
    l1 = float(
        np.mean(
            np.abs(
                np.exp(2j * np.pi * h[0] * Y1)
                - np.exp(-2j * np.pi * h[1] * Y2)
            )
        )
    )
    assert abs(l1 - 4.0 / math.pi) <= 1e-3
    print(
        f"\n[criterion 3] PASS reproducing {max(rep1, rep2):.1e}/"
        f"{rep3:.1e}, pythagoras {pyth:.1e} (<= 1e-6), fooling "
        f"{vanish:.1e} (<= 1e-12), L1 {l1:.6f} vs 4/pi (+/- 1e-3)"
    )


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_cbc_per_step_optimality():
    spec = KernelSpec(
        2, WeightScheme("product", gamma_j=np.array([0.9, 0.6, 0.4]))
    )
    for n in (7, 13):
        rep = cbc_construct(spec, n, 3)
        prefix: list[int] = []
        for d in range(3):
            scores = {
                c: criterion_S(spec, Lattice(n, np.array(prefix + [c])))
                for c in range(1, n)
                if math.gcd(c, n) == 1
            }
            best = min(scores.values())
            assert scores[int(rep.z[d])] <= best * (1.0 + 1e-12) + 1e-300
            prefix.append(int(rep.z[d]))
    print("\n[criterion 4] PASS exhaustive per-step minimum attained, n in {7, 13}")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_worst_case_bound():
    sch = WeightScheme("product", gamma_j=np.array([0.9, 0.6, 0.4]))
    spec = KernelSpec(2, sch)
    rng = np.random.default_rng(5)
    support = [
        h
        for h in itertools.product(range(-4, 5), repeat=3)
        if any(v != 0 for v in h)
    ]
    margins = []
    for n in (64, 128, 256):
        rep = cbc_construct(spec, n, 3)
        lat = rep.lattice()
        bound = rep.wce_bound_trace[-1]
        pts = lat.points()
        sample = rng.random((512, 3))
        for _ in range(20):
            terms = {}
            for idx in rng.choice(len(support), size=6, replace=False):
                h = support[idx]
                c = complex(rng.standard_normal(), rng.standard_normal())
                terms[h] = terms.get(h, 0.0) + c
                mh = tuple(-v for v in h)
                terms[mh] = terms.get(mh, 0.0) + np.conj(c)
            f = TrigPolynomial(terms)
            nrm = h_norm(spec, f)
            terms = {h: c / nrm for h, c in terms.items()}
            f = TrigPolynomial(terms)
            vals = np.real(f(pts))
            itp = build(spec, lat, vals)
            approx = np.array([evaluate(itp, yy) for yy in sample])
            err = math.sqrt(np.mean((np.real(f(sample)) - approx) ** 2))
            assert err <= bound
            margins.append(err / bound)
    print(
        f"\n[criterion 5] PASS L2 error below sqrt(2) S^(1/4) for 60 "
        f"unit-norm trig polys; worst margin {max(margins):.3f} of bound"
    )


# -- criteria 6 and 9 --------------------------------------------------------


def _study_config(out):
    return StudyConfig(
        "interp-convergence",
        weights="spod",
        theta=2.4,
        c=0.2,
        p=1.0 / 2.2,
        delta=0.1,
        s=10,
        n_schedule=(16, 32, 64, 128, 256, 512, 1024),
        mesh_level=5,
        L=20,
        seed=0,
        out=str(out),
    )


@pytest.fixture(scope="module")
def interp_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study") / "interp.csv"
    t0 = time.perf_counter()
    rows, fit = run_interp_convergence(_study_config(out))
    elapsed = time.perf_counter() - t0
    return out, rows, fit, elapsed


def test_criterion_6_pde_interpolation_rate(interp_study):
    out, rows, fit, elapsed = interp_study
    assert fit is not None
    assert fit.slope <= -0.7
    assert elapsed < 1800.0
    errs = [float(r.split(",")[1]) for r in rows]
    assert all(e > 0 for e in errs)
    print(
        f"\n[criterion 6] PASS fitted slope {fit.slope:.3f} (<= -0.7), "
        f"{elapsed / 60:.1f} min (< 30 min)"
    )


def test_criterion_6_error_falls_to_the_last_n(interp_study):
    # Companion to criterion 6, whose slope bound also passes a curve that
    # stops falling: CBC picks decided by round-off in the full score left
    # the error at 5.94e-8 for n = 512 and 6.81e-8 for n = 1024.
    _, rows, _, _ = interp_study
    errs = dict((int(n), float(e)) for n, e in (r.split(",")[:2] for r in rows))
    assert errs[1024] < errs[512]
    print(
        f"\n[criterion 6, companion] PASS error {errs[512]:.3e} at n = 512, "
        f"{errs[1024]:.3e} at n = 1024"
    )


def test_criterion_6_single_shift_is_not_a_lattice_symmetry():
    # Companion to criterion 6: with L = 1 the error comes from one shift.
    # A shift of (1/2, ..., 1/2) maps an even-n lattice with odd z_j onto
    # itself, where the interpolant is exact, so the errors fell to
    # round-off (2.3e-18 ... 3.2e-18) and the slope was +0.115.
    cfg = StudyConfig(
        kind="interp-convergence",
        weights="spod",
        s=10,
        n_schedule=(16, 32, 64, 128, 256),
        mesh_level=3,
        L=1,
        seed=0,
    )
    rows, fit = run_interp_convergence(cfg)
    errs = [float(r.split(",")[1]) for r in rows]
    assert min(errs) > 1e-12
    assert fit.slope < 0.0
    print(
        f"\n[criterion 6, one shift] PASS errors {max(errs):.3e} ... "
        f"{min(errs):.3e} (> 1e-12), slope {fit.slope:.3f} (< 0)"
    )


def test_criterion_9_thread_count_determinism(interp_study, tmp_path):
    # The same configuration and seed give a byte-identical CSV: criterion
    # 6's configuration again, through a config file and the CLI, against
    # the library run.  A setting the CLI mistypes fails here, and so does
    # one it drops whose value is not the StudyConfig default (L here);
    # TestCli::test_cli_csv_matches_library moves every value off its
    # default at a small size.
    ref_out, _, _, _ = interp_study
    cfg = _study_config(ref_out)
    conf = tmp_path / "interp.conf"
    conf.write_text(
        f"weights = {cfg.weights}\ntheta = {cfg.theta!r}\nc = {cfg.c!r}\n"
        f"p = {cfg.p!r}\ndelta = {cfg.delta!r}\ns = {cfg.s}\n"
        f"n_list = {','.join(map(str, cfg.n_schedule))}\n"
        f"mesh_level = {cfg.mesh_level}\nL = {cfg.L}\nseed = {cfg.seed}\n"
    )
    out2 = tmp_path / "interp-cli.csv"
    assert cli(["--config", str(conf), "interp-study", "--out", str(out2)]) == 0
    a = ref_out.read_bytes()
    b = out2.read_bytes()
    assert a == b
    print(
        f"\n[criterion 9] PASS byte-identical CSV, CLI against library "
        f"({len(a)} bytes)"
    )


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_dimension_truncation_rate(tmp_path):
    out = tmp_path / "dimtrunc.csv"
    cfg = StudyConfig(
        "dim-truncation",
        theta=2.4,
        c=0.4,
        s_ref=512,
        quad_n=8192,
        mesh_level=5,
        out=str(out),
    )
    t0 = time.perf_counter()
    rows, _ = run_dim_truncation(cfg)
    elapsed = time.perf_counter() - t0
    pairs = [tuple(r.strip().split(",")) for r in rows]
    sub = [(int(s), float(e)) for s, e in pairs if int(s) <= 128]
    assert len(sub) >= 3
    fit = fit_rate([s for s, _ in sub], [e for _, e in sub])
    # The window is the dimension-truncation rate of the periodic model,
    # |u - u_s|_V = O(s^-(1/p - 1/2)) -> s^-(theta - 1/2) = s^-1.9 for
    # theta = 2.4, +- 0.3, in the norm of V = H^1_0(D) that the study
    # reports.  The L2(D) error cannot test it: duality gains a factor 1/j
    # per coefficient mode, so its resolved rate is about -(theta + 1/2) =
    # -2.9, and at this mesh (N = 32) the modes j >= N alias and level it
    # off between s = 16 and 32; the L2(D) fit read -1.589 with centroid
    # coefficient quadrature and -2.895 with exact element averages, which
    # damp the modes j > N by about (N/j)^2.  Every parameter is pinned
    # above and the window is asserted as stated.
    assert -2.2 <= fit.slope <= -1.6
    assert elapsed < 1800.0
    print(
        f"\n[criterion 7] PASS fitted slope {fit.slope:.3f} in "
        f"[-2.2, -1.6], {elapsed / 60:.1f} min (< 30 min)"
    )


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_fem_rate():
    t0 = time.perf_counter()

    def u_exact(x):
        return np.sin(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1])

    def f(x):
        return 2.0 * math.pi**2 * u_exact(x)

    model = DiffusionModel(0.2, 2.4, 4)
    errs = {}
    for lvl in (4, 5):
        mesh = FemMesh(lvl)
        sol = fem_solve(mesh, model, np.zeros(4), source=f)
        errs[lvl] = l2_norm(mesh, sol.full_values() - u_exact(mesh.nodes))
    ratio = errs[4] / errs[5]
    elapsed = time.perf_counter() - t0
    assert 3.5 <= ratio <= 4.5
    assert elapsed < 10.0
    print(
        f"\n[criterion 8] PASS refinement error ratio {ratio:.3f} in "
        f"[3.5, 4.5], {elapsed:.1f}s (< 10s)"
    )
