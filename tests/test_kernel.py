import itertools
import math

import numpy as np
import pytest

from latkern.extended import ExtendedReal, RangeError, xfactorial
from latkern.kernel import (
    BatchKernelState,
    KernelSpec,
    eta,
    frac,
    kernel_eval,
    kernel_eval_bruteforce,
    kernel_values_batch,
    rnorm,
    scaled_to_float,
)
from latkern.special import zeta
from latkern.weights import (
    PdeWeightInput,
    WeightScheme,
    derive_pod,
    derive_product,
    derive_spod,
)


def _derived(family, s=6, p=1 / 2.2):
    b = 0.1 * np.arange(1, s + 1, dtype=float) ** -2.0
    inp = PdeWeightInput(p, b, 0.1)
    fn = {"product": derive_product, "pod": derive_pod, "spod": derive_spod}
    return fn[family](inp, s)


class TestEta:
    def test_alpha2_at_zero(self):
        # oracle: direct Fourier sum over |h| <= 1e6 of |h|^{-2} = 2 zeta(2)
        assert eta(2, 0.0) == pytest.approx(2.0 * zeta(2), rel=1e-12)
        assert eta(2, 0.0) == pytest.approx(math.pi**2 / 3.0, rel=1e-12)

    def test_alpha2_at_half(self):
        # oracle: alternating sum 2 sum (-1)^h / h^2 = -pi^2/6
        assert eta(2, 0.5) == pytest.approx(-math.pi**2 / 6.0, rel=1e-12)

    def test_alpha4_at_zero(self):
        assert eta(4, 0.0) == pytest.approx(2.0 * zeta(4), rel=1e-12)

    def test_fourier_sum_oracle(self):
        # partial Fourier sum of |h|^{-alpha} e^{2 pi i h delta}
        h = np.arange(1.0, 200_000.0)
        for alpha, delta in [(2, 0.3), (4, 0.125), (6, 0.77)]:
            want = 2.0 * np.sum(np.cos(2 * np.pi * h * delta) / h**alpha)
            assert eta(alpha, delta) == pytest.approx(want, abs=1e-8)

    def test_odd_alpha_rejected(self):
        with pytest.raises(ValueError):
            eta(3, 0.1)

    def test_periodic(self):
        assert eta(2, 0.3) == pytest.approx(eta(2, 5.3), rel=1e-12)

    def test_frac_clamps_to_zero(self):
        assert frac(1.0) == 0.0
        assert frac(-1e-18) == 0.0  # 1 - 1e-18 rounds to 1.0


class TestRnorm:
    def test_zero_vector(self):
        sch = WeightScheme("product", gamma_j=np.array([0.5, 0.5]))
        spec = KernelSpec(2, sch)
        assert rnorm(2, sch, [0, 0]).to_float() == 1.0
        del spec

    def test_product_example(self):
        sch = WeightScheme("product", gamma_j=np.array([0.5, 0.7, 0.9]))
        assert rnorm(2, sch, [3, 0, 0]).to_float() == pytest.approx(18.0)

    def test_scaling_power_law(self):
        sch = WeightScheme("product", gamma_j=np.array([0.5, 0.7]))
        h = np.array([2, 3])
        ratio = rnorm(4, sch, 2 * h) / rnorm(4, sch, h)
        assert ratio.to_float() == pytest.approx(2.0 ** (4 * 2), rel=1e-12)


class TestKernelEval:
    def test_product_s1_diag(self):
        sch = WeightScheme("product", gamma_j=np.array([1.0]))
        spec = KernelSpec(2, sch)
        got = kernel_eval(spec, [0.3], [0.3])
        assert got == pytest.approx(1.0 + math.pi**2 / 3.0, rel=1e-12)

    def test_gamma_to_zero_limit(self):
        sch = WeightScheme("product", gamma_j=np.full(3, 1e-16))
        spec = KernelSpec(2, sch)
        assert kernel_eval(spec, np.zeros(3), np.zeros(3)) == pytest.approx(
            1.0, abs=1e-14
        )

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_matches_bruteforce(self, family):
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        rng = np.random.default_rng(42)
        for _ in range(5):
            y, yp = rng.random(6), rng.random(6)
            a = kernel_eval(spec, y, yp)
            b = kernel_eval_bruteforce(spec, y, yp)
            assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("family", ["product", "spod"])
    def test_plain_float_mode_agrees(self, family):
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        rng = np.random.default_rng(1)
        y, yp = rng.random(6), rng.random(6)
        a = kernel_eval(spec, y, yp, extended=True)
        b = kernel_eval(spec, y, yp, extended=False)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_symmetry_exact(self, family):
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        rng = np.random.default_rng(5)
        y, yp = rng.random(6), rng.random(6)
        assert kernel_eval(spec, y, yp) == kernel_eval(spec, yp, y)

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_shift_invariance(self, family):
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        rng = np.random.default_rng(9)
        y, yp = rng.random(6), rng.random(6)
        a = kernel_eval(spec, y, yp)
        b = kernel_eval(spec, frac(y - yp), np.zeros(6))
        assert a == pytest.approx(b, rel=1e-12)

    def test_bruteforce_refuses_large_s(self):
        sch = WeightScheme("product", gamma_j=np.ones(16))
        spec = KernelSpec(2, sch)
        with pytest.raises(ValueError):
            kernel_eval_bruteforce(spec, np.zeros(16), np.zeros(16))

    def test_overflow_diagnostic_carries_magnitude(self):
        # POD order factors (ell!)^4 at s=60 push K(0,0) far past doubles
        s = 60
        G = tuple(xfactorial(ell).powf(4.0) for ell in range(s + 1))
        sch = WeightScheme("pod", gamma_j=np.ones(s), Gamma=G)
        spec = KernelSpec(2, sch)
        with pytest.raises(RangeError) as err:
            kernel_eval(spec, np.zeros(s), np.zeros(s))
        assert err.value.log2_magnitude > 1024


class TestBatchPath:
    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_matches_scalar(self, family):
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        rng = np.random.default_rng(17)
        dy = rng.random((8, 6)) - rng.random((8, 6))
        got = kernel_values_batch(spec, dy)
        want = [kernel_eval(spec, frac(row), np.zeros(6)) for row in dy]
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_overflow_diagnostic(self):
        s = 60
        G = tuple(xfactorial(ell).powf(4.0) for ell in range(s + 1))
        sch = WeightScheme("pod", gamma_j=np.ones(s), Gamma=G)
        spec = KernelSpec(2, sch)
        with pytest.raises(RangeError):
            kernel_values_batch(spec, np.zeros((3, s)))


    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_affine_split_matches_commit(self, family):
        # A + eta * B is the kernel value after committing eta, per point
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        rng = np.random.default_rng(5)
        dy = rng.random((16, 6))
        state = BatchKernelState(spec, 16, 6)
        for j in range(6):
            ev = eta(spec.alpha, dy[:, j])
            (sa, fa), (sb, fb) = state.affine_split()
            got = scaled_to_float(sa, fa) + ev * scaled_to_float(sb, fb)
            state.commit(ev)
            want = scaled_to_float(*state.values())
            np.testing.assert_allclose(got, want, rtol=1e-13)
        with pytest.raises(ValueError, match="committed"):
            state.affine_split()

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_dimension_beyond_weights_rejected(self, family):
        d = _derived(family, s=4)
        spec = KernelSpec(d.alpha, d.scheme)
        with pytest.raises(ValueError, match="exceeds the weight sequence"):
            BatchKernelState(spec, 3, 5)
        with pytest.raises(ValueError, match="exceeds the weight sequence"):
            kernel_values_batch(spec, np.zeros((3, 5)))


class TestStructuralProperties:
    def test_positive_definite_small(self):
        d = _derived("spod", s=3)
        spec = KernelSpec(d.alpha, d.scheme)
        rng = np.random.default_rng(23)
        pts = rng.random((8, 3))
        G = np.array(
            [[kernel_eval(spec, a, b) for b in pts] for a in pts]
        )
        np.linalg.cholesky(G)  # raises LinAlgError if not PD

    def test_fourier_truncation_consistency(self):
        # truncated sum over |h_j| <= H of e^{2 pi i h.(t-y)} / r(h)
        sch = WeightScheme("product", gamma_j=np.array([0.7, 0.4]))
        spec = KernelSpec(4, sch)
        t = np.array([0.15, 0.6])
        y = np.array([0.33, 0.91])
        want = kernel_eval(spec, t, y)
        gaps = []
        for H in (5, 200):
            # product weights factor the truncated sum per coordinate
            total = 1.0
            h = np.arange(1, H + 1)
            for j, g in enumerate(sch.gamma_j):
                d = t[j] - y[j]
                total *= 1.0 + g * 2.0 * np.sum(
                    np.cos(2 * np.pi * h * d) / h**4
                )
            gaps.append(abs(total - want))
        assert gaps[1] < 1e-4
        assert gaps[1] <= gaps[0]
