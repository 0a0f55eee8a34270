import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from latkern.kernel import (
    BatchKernelState,
    KernelSpec,
    _committed,
    eta,
    frac,
    kernel_values_batch,
)
from latkern.special import zeta
from latkern.weights import (
    PdeWeightInput,
    RangeError,
    WeightScheme,
    _to_floats,
    derive_pod,
    derive_product,
    derive_spod,
)
from reference import (
    gamma_arrays,
    kernel_eval,
    kernel_eval_bruteforce,
    rnorm,
    xfactorial,
)


def _scaled_add(S, F, T, Te):
    """In-place (S, F) <- (S, F) + (T, Te) for value arrays S * 2^F.

    One row at a time: the oracle for ``BatchKernelState._contract``.
    """
    live = T != 0.0
    empty = S == 0.0
    nf = np.where(live, np.where(empty, Te, np.maximum(F, Te)), F)
    sh_s = np.clip(F - nf, -1100, 0).astype(np.int64)
    sh_t = np.clip(Te - nf, -1100, 0).astype(np.int64)
    S2 = np.ldexp(S, sh_s) + np.where(live, np.ldexp(T, sh_t), 0.0)
    S[:] = S2
    F[:] = np.where(S2 == 0.0, 0, nf)


def _contract_oracle(state, P):
    """Sum_ell Gamma_ell P[ell] 2^E by one _scaled_add per live row."""
    S = np.zeros(P.shape[1])
    F = np.zeros(P.shape[1], dtype=np.int64)
    gm, ge = state.scheme.Gamma
    for ell in range(P.shape[0]):
        if np.any(P[ell]):
            _scaled_add(S, F, P[ell] * gm[ell], state.E + ge[ell])
    return S, F


def _canonical(S, F):
    """Scaled pairs as (mantissa in [0.5, 1), exponent); zero is (0, 0)."""
    mant, ex = np.frexp(S)
    return mant, np.where(S == 0.0, 0, ex + F)


def _wide_state(rng, m=64, mag_bits=300, power=100.0):
    """A POD state with Gamma_ell = (ell!)^power, about 4,400 bits from
    first to last at power 100, and random rows P: normal entries times
    2^k, |k| <= mag_bits, with all-zero rows, all-zero samples and
    scattered zeros."""
    s = 16
    G = gamma_arrays(xfactorial(ell).powf(power) for ell in range(s + 1))
    sch = WeightScheme("pod", gamma_j=np.ones(s), Gamma=G)
    state = BatchKernelState(sch, m)
    P = rng.standard_normal((s + 1, m))
    P *= np.ldexp(1.0, rng.integers(-mag_bits, mag_bits + 1, P.shape))
    P[rng.random(P.shape) < 0.2] = 0.0
    P[rng.choice(s + 1, 3, replace=False)] = 0.0
    P[:, rng.choice(m, m // 16, replace=False)] = 0.0
    state.E = rng.integers(-3000, 3001, m)
    return state, P


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
        # the float path is the batch evaluator; the oracle stays extended
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        rng = np.random.default_rng(1)
        y, yp = rng.random(6), rng.random(6)
        a = kernel_eval(spec, y, yp)
        b = kernel_values_batch(spec, (y - yp)[None, :])[0]
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
        G = gamma_arrays(xfactorial(ell).powf(4.0) for ell in range(s + 1))
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
        G = gamma_arrays(xfactorial(ell).powf(4.0) for ell in range(s + 1))
        sch = WeightScheme("pod", gamma_j=np.ones(s), Gamma=G)
        spec = KernelSpec(2, sch)
        with pytest.raises(RangeError):
            kernel_values_batch(spec, np.zeros((3, s)))

    def test_product_value_with_exponent_past_1024_fits(self):
        # 18 factors 1 + 1e20 eta(0), about 2^68 each, and 34 factors
        # 1 + 0.6 eta(1/2), about 2^-6.3 each: the running exponent passes
        # 1024 while the row itself is renormalized small, and the value,
        # 1.69e305, fits a double
        g = np.array([1e20] * 18 + [0.6] * 34)
        spec = KernelSpec(2, WeightScheme("product", gamma_j=g))
        dy = np.array([[0.0] * 18 + [0.5] * 34])
        got = kernel_values_batch(spec, dy)[0]
        exact = math.prod(
            1 + Fraction(gj) * Fraction(e) for gj, e in zip(g, eta(2, dy[0]))
        )
        assert got == pytest.approx(1.6910e305, rel=1e-4)
        assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_values_are_normalized_pairs(self, family):
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        dy = np.random.default_rng(3).random((32, 6))
        S, F = _committed(spec, dy.T).values()
        assert np.all((0.5 <= np.abs(S)) & (np.abs(S) < 1.0))
        np.testing.assert_array_equal(
            np.ldexp(S, F), kernel_values_batch(spec, dy)
        )

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_affine_split_matches_commit(self, family):
        # A + eta * B is the kernel value after committing eta, per point
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        rng = np.random.default_rng(5)
        dy = rng.random((16, 6))
        state = BatchKernelState(spec.scheme, 16)
        for j in range(6):
            ev = eta(spec.alpha, dy[:, j])
            a, b, top = state.affine_split()
            got = np.ldexp(a + ev * b, top)
            state.commit(ev)
            want = _to_floats(*state.values())
            np.testing.assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_empty_batch(self, family):
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        assert kernel_values_batch(spec, np.zeros((0, 6))).shape == (0,)

    def test_product_leaving_renorm_range_partway(self):
        # gamma_j = 10: a factor 1 + 10 eta(0) = 33.9 per coordinate lifts
        # the running product past 2^200 by coordinate 40, and factors near
        # 1/33.9 (or 33.9 after tiny ones) bring it back into range; at
        # s = 250 the all-zero difference, 33.9^250 ~ 2^1271, is out of range
        s, half = 250, 125
        sch = WeightScheme("product", gamma_j=np.full(s, 10.0))
        spec = KernelSpec(2, sch)
        big = 1.0 + 10.0 * eta(2, 0.0)
        # eta(2, d) = 2 pi^2 (d^2 - d + 1/6); solve 1 + 10 eta = 1 / big
        q = 1.0 / 6.0 - (1.0 / big - 1.0) / (20.0 * math.pi**2)
        back = (1.0 - math.sqrt(1.0 - 4.0 * q)) / 2.0
        dy = np.empty((4, s))
        dy[0, :half], dy[0, half:] = 0.0, back
        dy[1, :half], dy[1, half:] = back, 0.0
        dy[2] = np.where(np.arange(s) % 2 == 0, 0.0, back)
        dy[3, :half], dy[3, half:] = 0.5, -back
        dy += 1e-4 * np.random.default_rng(7).standard_normal((4, s))
        state = BatchKernelState(spec.scheme, 4)
        for j in range(half):
            state.commit(eta(2, dy[:, j]))
        assert state.E[0] > 200 and state.E[1] < -200 and state.E[3] > 200
        got = kernel_values_batch(spec, dy)
        want = [kernel_eval(spec, frac(row), np.zeros(s)) for row in dy]
        np.testing.assert_allclose(got, want, rtol=1e-11)
        with pytest.raises(RangeError):
            kernel_eval(spec, np.zeros(s), np.zeros(s))
        with pytest.raises(RangeError):
            kernel_values_batch(spec, np.vstack([dy, np.zeros(s)]))

    def test_product_falling_below_renorm_range(self):
        # every sample shrinks and none grows, so only the lower end of the
        # range calls for renormalizing: 250 factors near 1/33.9 take the
        # product to about 2^-1271, past the smallest double
        s = 250
        spec = KernelSpec(2, WeightScheme("product", gamma_j=np.full(s, 10.0)))
        big = 1.0 + 10.0 * eta(2, 0.0)
        q = 1.0 / 6.0 - (1.0 / big - 1.0) / (20.0 * math.pi**2)
        back = (1.0 - math.sqrt(1.0 - 4.0 * q)) / 2.0
        dy = back + 1e-5 * np.random.default_rng(9).standard_normal((3, s))
        S, F = _committed(spec, dy.T).values()
        assert np.all(F < -1200)
        for i, row in enumerate(dy):
            exact = math.prod(1 + 10 * Fraction(e) for e in eta(2, row))
            got = Fraction(float(S[i])) * Fraction(2) ** int(F[i])
            assert abs(got - exact) <= Fraction(1e-12) * exact

    @pytest.mark.parametrize("m", [1, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_contract_matches_scaled_add_loop(self, seed, m):
        # the one-step contraction against the row-by-row oracle: same
        # values S * 2^F, with order factors spreading past 1100 bits
        state, P = _wide_state(np.random.default_rng(seed), m)
        assert np.ptp(state.scheme.Gamma[1]) > 1100
        got = _canonical(*state._contract(P))
        want = _canonical(*_contract_oracle(state, P))
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("m", [1, 64])
    def test_contract_sums_in_row_order(self, m):
        # terms of one size, where the order of the additions shows in the
        # bits; one sample (m = 1) is a single column, which numpy's
        # pairwise sum would split up
        for seed in range(20):
            state, P = _wide_state(np.random.default_rng(seed), m, 0, 0.0)
            got = _canonical(*state._contract(P))
            want = _canonical(*_contract_oracle(state, P))
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_contract_exact_beyond_the_oracle(self):
        # with row entries themselves 2^+-1000 apart, the oracle's 1100-bit
        # shift cap leaves part of far smaller terms in its sum; the
        # contraction scales every term exactly, so it is the exact sum
        # rounded, to the error bound of a 17-term float sum
        state, P = _wide_state(np.random.default_rng(99), mag_bits=1000)
        S, F = state._contract(P)
        gm, ge = state.scheme.Gamma
        for i in range(P.shape[1]):
            terms = [
                Fraction(float(P[ell, i] * gm[ell]))
                * Fraction(2) ** int(state.E[i] + ge[ell])
                for ell in range(P.shape[0])
            ]
            got = Fraction(float(S[i])) * Fraction(2) ** int(F[i])
            bound = Fraction(17, 2**53) * sum(abs(x) for x in terms)
            assert abs(got - sum(terms)) <= bound

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_dimension_beyond_weights_rejected(self, family):
        # the fifth coordinate of a four-coordinate weight sequence is
        # named, whichever call reaches it
        d = _derived(family, s=4)
        spec = KernelSpec(d.alpha, d.scheme)
        past = "coordinate 5 is past the weight sequence"
        state = _committed(spec, np.zeros((4, 3)))
        with pytest.raises(ValueError, match=past):
            state.affine_split()
        with pytest.raises(ValueError, match=past):
            state.commit(np.zeros(3))
        assert state.dims_done == 4
        with pytest.raises(ValueError, match=past):
            kernel_values_batch(spec, np.zeros((3, 5)))

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_rows_grow_with_coordinates(self, family):
        # one row of ones at the start; each POD/SPOD coordinate adds the
        # sigma orders it can newly reach, and product weights keep one row
        d = _derived(family, p=0.3)
        state = BatchKernelState(d.scheme, 5)
        np.testing.assert_array_equal(state.P, np.ones((1, 5)))
        ev = eta(d.alpha, np.random.default_rng(11).random((6, 5)))
        for j, row in enumerate(ev, start=1):
            state.commit(row)
            rows = 1 if family == "product" else j * d.scheme.sigma + 1
            assert state.P.shape == (rows, 5)
        if family == "spod":
            assert d.scheme.sigma == 3


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
