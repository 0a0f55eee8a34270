import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from latkern.kernel import (
    BatchKernelState,
    KernelSpec,
    _block_points,
    eta,
    frac,
    kernel_values_batch,
)
from latkern.lattice import Lattice, cbc_construct
from latkern.pde import DiffusionModel, decay_sequence
from latkern.special import zeta
from latkern.weights import (
    PdeWeightInput,
    WeightScheme,
    derive_pod,
    derive_product,
    derive_spod,
    squared_weight_prefixes,
)
from reference import (
    OutOfDoubleRange,
    full_contraction,
    full_shift_rows,
    full_squared_weight_prefixes,
    full_state_rows,
    gamma_arrays,
    kernel_eval,
    kernel_eval_bruteforce,
    rnorm,
    xfactorial,
)


def _wide_state(rng, m=64, mag_bits=300, power=14.0, s=16):
    """A POD state of s coordinates with Gamma_ell = (ell!)^power, about
    620 bits from first to last at power 14 and s = 16, and random rows P:
    normal entries times 2^k, |k| <= mag_bits, with all-zero rows, all-zero
    samples and scattered zeros."""
    G = gamma_arrays(xfactorial(ell).powf(power) for ell in range(s + 1))
    sch = WeightScheme("pod", gamma_j=np.ones(s), Gamma=G)
    state = BatchKernelState(sch, m)
    P = rng.standard_normal((s + 1, m))
    P *= np.ldexp(1.0, rng.integers(-mag_bits, mag_bits + 1, P.shape))
    P[rng.random(P.shape) < 0.2] = 0.0
    P[rng.choice(s + 1, 3, replace=False)] = 0.0
    P[:, rng.choice(m, m // 16, replace=False)] = 0.0
    return state, P


def _row_loop(state, P):
    """Sum_ell Gamma_ell P[ell], one row at a time: the oracle for
    ``BatchKernelState._contract``."""
    acc = np.zeros(P.shape[1])
    for G, row in zip(state.scheme.Gamma, P):
        acc = acc + G * row
    return acc + 0.0


def _past_range_pod(s=60):
    """POD weights with gamma_j = 1 and Gamma_ell = (ell!)^4: +inf from
    order 58, where (ell!)^4 passes 2^1024, while the kernel rows at the
    difference 0, binomial(s, ell) eta(0)^ell, stay nonzero."""
    G = gamma_arrays(xfactorial(ell).powf(4.0) for ell in range(s + 1))
    return KernelSpec(2, WeightScheme("pod", gamma_j=np.ones(s), Gamma=G))


def _committed_by_hand(spec, cols):
    """A state with the (s, m) differences cols committed as one block."""
    state = BatchKernelState(spec.scheme, cols.shape[1])
    state.commit(eta(spec.alpha, cols))
    return state


def _derived(family, s=6, p=1 / 2.2):
    b = 0.1 * np.arange(1, s + 1, dtype=float) ** -2.0
    inp = PdeWeightInput(p, b, 0.1)
    fn = {"product": derive_product, "pod": derive_pod, "spod": derive_spod}
    return fn[family](inp, s)


def _back(g: float) -> float:
    """The difference d < 1/2 where 1 + g eta(2, d) = 1 / (1 + g eta(2, 0)):
    eta(2, d) = 2 pi^2 (d^2 - d + 1/6)."""
    big = 1.0 + g * eta(2, 0.0)
    q = 1.0 / 6.0 - (1.0 / big - 1.0) / (2.0 * g * math.pi**2)
    return (1.0 - math.sqrt(1.0 - 4.0 * q)) / 2.0


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
        # POD order factors (ell!)^4 at s=60 push K(0,0) far past doubles:
        # Gamma_58.. are stored as +inf, and the oracle refuses them
        spec = _past_range_pod()
        G = spec.scheme.Gamma
        assert np.isinf(G[58]) and np.isfinite(G[57])
        with pytest.raises(OutOfDoubleRange) as err:
            kernel_eval(spec, np.zeros(60), np.zeros(60))
        assert err.value.log2_magnitude > 1024
        # an ExtendedReal that ends past doubles carries its own magnitude
        G = gamma_arrays(xfactorial(ell).powf(4.0) for ell in range(21))
        big = KernelSpec(2, WeightScheme("pod", gamma_j=np.full(20, 1e60),
                                         Gamma=G))
        with pytest.raises(OutOfDoubleRange) as err:
            kernel_eval(big, np.zeros(20), np.zeros(20))
        assert 1024 < err.value.log2_magnitude < math.inf


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
        # Gamma_58 = +inf meets the nonzero row 58 at the difference 0
        spec = _past_range_pod()
        with pytest.raises(FloatingPointError, match="Gamma_58 = inf"):
            kernel_values_batch(spec, np.zeros((3, 60)))
        # at the difference 1/2 as well: eta(1/2) < 0, so the rows
        # alternate in sign, and inf - inf is NaN
        with pytest.raises(FloatingPointError, match="Gamma_58 = inf"):
            kernel_values_batch(spec, np.full((2, 60), 0.5))

    def test_product_overflowing_partway_is_refused(self):
        # 18 factors 1 + 1e20 eta(0), about 2^68 each, and 34 factors
        # 1 + 0.6 eta(1/2), about 2^-6.3 each: the exact value, 1.69e305,
        # fits a double, but the running product passes 2^1024 on the way
        g = np.array([1e20] * 18 + [0.6] * 34)
        spec = KernelSpec(2, WeightScheme("product", gamma_j=g))
        dy = np.array([[0.0] * 18 + [0.5] * 34])
        with pytest.raises(FloatingPointError, match="row overflowed"):
            kernel_values_batch(spec, dy)
        # with the coordinates reversed the product stays in range
        spec = KernelSpec(2, WeightScheme("product", gamma_j=g[::-1]))
        got = kernel_values_batch(spec, dy[:, ::-1])[0]
        exact = math.prod(
            1 + Fraction(gj) * Fraction(e) for gj, e in zip(g, eta(2, dy[0]))
        )
        assert got == pytest.approx(1.6910e305, rel=1e-4)
        assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_values_are_the_batch_values(self, family):
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        dy = np.random.default_rng(3).random((32, 6))
        K = _committed_by_hand(spec, dy.T).values()
        assert K.dtype == np.float64 and np.all(np.isfinite(K))
        np.testing.assert_array_equal(K, kernel_values_batch(spec, dy))

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
            a, b = state.affine_split()
            got = a + ev * b
            state.commit(ev)
            want = state.values()
            np.testing.assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_affine_split_outlives_commit(self, family):
        # a product-weight commit multiplies the state's row in place; the
        # A and B taken before it keep their values
        d = _derived(family)
        ev = eta(d.alpha, np.random.default_rng(6).random((2, 16)))
        state = BatchKernelState(d.scheme, 16)
        state.commit(ev[0])
        a, b = state.affine_split()
        want = a.copy(), b.copy()
        state.commit(ev[1])
        np.testing.assert_array_equal(a, want[0])
        np.testing.assert_array_equal(b, want[1])

    def test_product_split_refuses_b_past_range(self):
        # A = 1 + eta(0) after one coordinate is finite, but B = gamma_2 A
        # is not for gamma_2 = 1e308
        spec = KernelSpec(2, WeightScheme("product", gamma_j=[1.0, 1e308]))
        state = _committed_by_hand(spec, np.zeros((1, 3)))
        with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match="kernel value inf is not finite"
        ):
            state.affine_split()

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_empty_batch(self, family):
        d = _derived(family)
        spec = KernelSpec(d.alpha, d.scheme)
        assert kernel_values_batch(spec, np.zeros((0, 6))).shape == (0,)

    def test_product_far_from_one_partway(self):
        # gamma_j = 10: a factor 1 + 10 eta(0) = 33.9 per coordinate lifts
        # the running product to about 2^636 by coordinate 125, and factors
        # near 1/33.9 (or 33.9 after tiny ones) bring it back; at s = 250
        # the all-zero difference, 33.9^250 ~ 2^1271, is out of range
        s, half = 250, 125
        sch = WeightScheme("product", gamma_j=np.full(s, 10.0))
        spec = KernelSpec(2, sch)
        back = _back(10.0)
        dy = np.empty((4, s))
        dy[0, :half], dy[0, half:] = 0.0, back
        dy[1, :half], dy[1, half:] = back, 0.0
        dy[2] = np.where(np.arange(s) % 2 == 0, 0.0, back)
        dy[3, :half], dy[3, half:] = 0.5, -back
        dy += 1e-4 * np.random.default_rng(7).standard_normal((4, s))
        state = BatchKernelState(spec.scheme, 4)
        for j in range(half):
            state.commit(eta(2, dy[:, j]))
        assert np.abs(state.P[0, [0, 3]]).min() > 2.0**400
        assert state.P[0, 1] < 2.0**-400
        got = kernel_values_batch(spec, dy)
        want = [kernel_eval(spec, frac(row), np.zeros(s)) for row in dy]
        np.testing.assert_allclose(got, want, rtol=1e-11)
        with pytest.raises(OutOfDoubleRange):
            kernel_eval(spec, np.zeros(s), np.zeros(s))
        with pytest.raises(FloatingPointError, match="row overflowed"):
            kernel_values_batch(spec, np.vstack([dy, np.zeros(s)]))

    @staticmethod
    def _within_product_bound(got, factors):
        # the bound in BatchKernelState.commit's docstring, from a fresh
        # state, in exact arithmetic on the float factors f_1 .. f_k:
        # |got - f_1 ... f_k| <= k u / (1 - k u) |f_1 ... f_k|
        #                        + k 2^-1074 max_i |f_(i+1) ... f_k|
        f = [Fraction(x) for x in factors]
        k, exact = len(f), math.prod(f)
        tails, tail = [], Fraction(1)  # |f_(i+1) ... f_k| for i = k .. 1
        for x in reversed(f):
            tails.append(tail)
            tail *= abs(x)
        u = Fraction(1, 2**53)
        bound = k * u / (1 - k * u) * abs(exact) \
            + k * Fraction(1, 2**1074) * max(tails)
        assert abs(Fraction(got) - exact) <= bound
        return exact

    def test_product_underflowing_is_kept(self):
        # 250 factors near 1/33.9 take the product to about 2^-1271, below
        # the smallest double: the values underflow to 0.0, within the
        # absolute term of commit's bound, 250 * 2^-1074 here
        s = 250
        spec = KernelSpec(2, WeightScheme("product", gamma_j=np.full(s, 10.0)))
        dy = _back(10.0) + 1e-5 * np.random.default_rng(9).standard_normal(
            (3, s))
        got = kernel_values_batch(spec, dy)
        assert got.tolist() == [0.0] * 3
        for value, row in zip(got, dy):
            exact = self._within_product_bound(value, 1.0 + 10.0 * eta(2, row))
            assert 0 < exact < Fraction(2) ** -1200

    def test_product_dipping_below_range_is_kept(self):
        # 210 factors near 1/33.9 take the running product into the
        # subnormals, and 40 factors 33.9 bring the exact value back to
        # about 2^-864: the bits lost on the way stay within commit's bound,
        # about 2^-862.7 from these factors
        s = 250
        spec = KernelSpec(2, WeightScheme("product", gamma_j=np.full(s, 10.0)))
        dy = np.zeros((1, s))
        dy[0, :210] = _back(10.0)
        partway = BatchKernelState(spec.scheme, 1)
        partway.commit(eta(2, dy[:, :210].T))
        assert 0 < partway.values()[0] < 2.0**-1022
        got = kernel_values_batch(spec, dy)[0]
        exact = self._within_product_bound(got, 1.0 + 10.0 * eta(2, dy[0]))
        assert Fraction(2) ** -900 < exact < Fraction(2) ** -800
        # an exact zero factor is no underflow: the value is 0.0
        sch = WeightScheme("product", gamma_j=np.full(3, 1.0))
        state = BatchKernelState(sch, 2)
        state.commit(np.array([-1.0, 0.5]))
        state.commit(np.array([0.5, 0.5]))
        assert state.values().tolist() == [0.0, 2.25]

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_offset_must_have_s_components(self, family):
        # a (1,) offset was broadcast over all s coordinates without a word,
        # and a list one failed on numpy's indexing
        d = _derived(family, s=3)
        spec = KernelSpec(d.alpha, d.scheme)
        dy = np.random.default_rng(4).random((5, 3))
        for y, got in ((np.array([0.25]), "(1,)"), ([0.25, 0.5], "(2,)"),
                       (np.zeros((1, 3)), "(1, 3)")):
            msg = f"y has shape {got}; the differences need shape (3,)"
            with pytest.raises(ValueError, match=re.escape(msg)):
                kernel_values_batch(spec, dy, y)
        y = [0.25, 0.5, -0.75]
        np.testing.assert_array_equal(
            kernel_values_batch(spec, dy, y),
            kernel_values_batch(spec, dy - frac(y)),
        )

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_offset_is_wrapped(self, family):
        # the kernel is 1-periodic, so y and y + k give the same bits for an
        # integer vector k; y has 20 bits, so y + k is exact
        d = _derived(family, s=3)
        spec = KernelSpec(d.alpha, d.scheme)
        rng = np.random.default_rng(6)
        dy = rng.random((64, 3))
        y = rng.integers(0, 2**20, 3) / 2**20
        want = kernel_values_batch(spec, dy, y)
        for k in ([1, 0, 0], [-1, -1, -1], [3, -2, 7], [-8, 5, 1]):
            np.testing.assert_array_equal(
                kernel_values_batch(spec, dy, y + np.array(k)), want
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_offset_must_be_finite(self, bad):
        # a NaN or infinite offset is an input error, not an overflow
        d = _derived("spod", s=3)
        spec = KernelSpec(d.alpha, d.scheme)
        msg = f"the offset must be finite: y_2 = {bad}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            kernel_values_batch(spec, np.zeros((5, 3)), [0.25, bad, 0.5])

    # m = 1 takes the contraction's one-column route, m = 2 is the
    # smallest batch that the row-order reduction sums
    @pytest.mark.parametrize("m", [1, 2, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_contract_matches_row_loop(self, seed, m):
        # the one-step contraction against the row-by-row oracle, bit for
        # bit, with order factors spreading over 620 bits
        state, P = _wide_state(np.random.default_rng(seed), m)
        assert np.log2(state.scheme.Gamma[-1]) > 600
        np.testing.assert_array_equal(state._contract(P), _row_loop(state, P))

    # 61 rows of 1024 points: at least the 56 order rows that a SPOD
    # s = 300 search at n = 1024 keeps
    @pytest.mark.parametrize("s, m", [(16, 1), (16, 2), (16, 64), (60, 1024)])
    def test_contract_sums_in_row_order(self, s, m):
        # terms of one size, where the order of the additions shows in the
        # bits; one sample (m = 1) is a single column, which numpy's
        # pairwise sum would split up
        for seed in range(20):
            state, P = _wide_state(np.random.default_rng(seed), m, 0, 0.0, s)
            np.testing.assert_array_equal(
                state._contract(P), _row_loop(state, P)
            )

    @staticmethod
    def _within_sum_bound(state, P):
        # 17 terms Gamma_ell P[ell], each rounded once as a product and then
        # added in turn: a term meets at most 1 + 16 roundings, so the
        # error is below gamma_17 = 17u / (1 - 17u) < 18u times the sum of
        # the exact |terms|, u = 2^-53
        K = state._contract(P)
        G = state.scheme.Gamma
        for i in range(P.shape[1]):
            terms = [Fraction(P[ell, i]) * Fraction(G[ell])
                     for ell in range(P.shape[0])]
            bound = Fraction(18, 2**53) * sum(abs(x) for x in terms)
            assert abs(Fraction(K[i]) - sum(terms)) <= bound

    def test_contract_within_the_float_sum_bound(self):
        # row entries 2^+-350 apart against order factors 620 bits apart
        state, P = _wide_state(np.random.default_rng(99), mag_bits=350)
        self._within_sum_bound(state, P)

    def test_contract_within_the_float_sum_bound_at_the_widest_spread(self):
        # order factors from 1 to about 2^1022 and rows from about 1 down
        # to 2^-1042, subnormal there, so every product is near 2^+-20
        rng = np.random.default_rng(98)
        s, m = 16, 64
        e = np.round(np.linspace(0, 1022, s + 1)).astype(int)
        G = np.ldexp(1.0 + rng.random(s + 1), e)
        G[0] = 1.0
        sch = WeightScheme("pod", gamma_j=np.ones(s), Gamma=G)
        P = rng.standard_normal((s + 1, m))
        P *= np.ldexp(1.0, rng.integers(-20, 21, P.shape) - e[:, None])
        P[rng.random(P.shape) < 0.2] = 0.0
        assert G.max() > 2.0**1022 and 0 < np.abs(P[-1][P[-1] != 0]).min() \
            < 2.0**-1022
        self._within_sum_bound(BatchKernelState(sch, m), P)

    def test_trailing_zero_rows_are_dropped(self):
        # gamma_j = 1e-200: order 2 is about 1e-400 and falls to 0.0 at
        # every point, so the state keeps rows 0 and 1 only, and its
        # values are the full recursion's bit for bit
        s = 8
        G = gamma_arrays(xfactorial(ell).powf(2.0) for ell in range(s + 1))
        sch = WeightScheme("pod", gamma_j=np.full(s, 1e-200), Gamma=G)
        etas = eta(2, np.random.default_rng(2).random((s, 5)))
        state = BatchKernelState(sch, 5)
        for j, row in enumerate(etas, start=1):
            state.commit(row)
            assert len(state.P) == 2
            full = full_state_rows(sch, etas[:j])
            assert len(full) == j + 1 and not full[2:].any()
            np.testing.assert_array_equal(
                state.values(), full_contraction(sch, full)
            )

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_dimension_beyond_weights_rejected(self, family):
        # the fifth coordinate of a four-coordinate weight sequence is
        # named, whichever call reaches it
        d = _derived(family, s=4)
        spec = KernelSpec(d.alpha, d.scheme)
        past = "coordinate 5 is past the weight sequence"
        state = _committed_by_hand(spec, np.zeros((4, 3)))
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


class TestBlocks:
    # A (k, m) commit is k one-row commits, and kernel_values_batch's
    # point blocks are one whole block, bit for bit

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_block_commit_matches_row_commits(self, family):
        d = _derived(family, s=9, p=0.3)
        etas = eta(d.alpha, np.random.default_rng(31).random((9, 40)))
        rows = BatchKernelState(d.scheme, 40)
        for row in etas:
            rows.commit(row)
        block = BatchKernelState(d.scheme, 40)
        block.commit(etas[:4])
        block.commit(etas[4:])
        assert block.dims_done == rows.dims_done == 9
        np.testing.assert_array_equal(block.P, rows.P)
        np.testing.assert_array_equal(block.values(), rows.values())

    def test_product_block_with_small_and_signed_factors(self):
        # gamma_j = 10 gives factors 1 + 10 eta from about -15 to 34, some
        # near 0 and one exactly 0 (eta = -1/10 needs no rounding here), so
        # the running products change sign and one falls to 0; one reduce
        # over the block gives the bits of the row commits
        s, m = 12, 33
        sch = WeightScheme("product", gamma_j=np.full(s, 10.0))
        etas = eta(2, np.random.default_rng(5).random((s, m)))
        etas[3, 7] = -0.1
        rows = BatchKernelState(sch, m)
        for row in etas:
            rows.commit(row)
        block = BatchKernelState(sch, m)
        block.commit(etas)
        assert rows.P[0, 7] == 0.0
        np.testing.assert_array_equal(block.P, rows.P)

    @pytest.mark.parametrize("case", ["dipping", "underflowing"])
    def test_block_matches_row_commits_through_the_subnormals(self, case):
        # the inputs of test_product_dipping_below_range_is_kept and
        # test_product_underflowing_is_kept, committed as one block and
        # row by row
        s = 250
        sch = WeightScheme("product", gamma_j=np.full(s, 10.0))
        if case == "dipping":
            dy = np.zeros((1, s))
            dy[0, :210] = _back(10.0)
        else:
            dy = _back(10.0) + 1e-5 * np.random.default_rng(9) \
                .standard_normal((3, s))
        etas = eta(2, dy.T)
        rows = BatchKernelState(sch, len(dy))
        for row in etas:
            rows.commit(row)
        block = BatchKernelState(sch, len(dy))
        block.commit(etas)
        assert block.dims_done == rows.dims_done == s
        assert block.P.tobytes() == rows.P.tobytes()

    @pytest.mark.parametrize("family", ["product", "spod"])
    @pytest.mark.parametrize("s", [1, 16, 40])
    def test_point_blocks_match_one_block(self, family, s):
        # m = b - 1 and b are one block, b + 1 two; with an offset y, the
        # differences are formed block by block, from y wrapped into [0, 1)
        d = _derived(family, s=s)
        spec = KernelSpec(d.alpha, d.scheme)
        b = _block_points(s)
        rng = np.random.default_rng(s)
        y = rng.random(s) - 0.5
        for m in (b - 1, b, b + 1):
            cols = rng.random((s, m))
            np.testing.assert_array_equal(
                kernel_values_batch(spec, cols.T),
                _committed_by_hand(spec, cols).values(),
            )
            np.testing.assert_array_equal(
                kernel_values_batch(spec, cols.T, y),
                _committed_by_hand(spec, cols - frac(y)[:, None]).values(),
            )


class TestTrim:
    # Dropping the trailing rows that are 0.0 at every point is exact: the
    # trimmed state, its affine split and the order-pair prefixes equal
    # the plain recursions that keep every row, bit for bit.  SPOD at
    # s = 100 reaches orders 0..200; on its n = 64 CBC lattice the state
    # keeps 56 of them, and Gamma_ell is +inf from order 121 on.

    @pytest.fixture(scope="class")
    def spod100(self):
        model = DiffusionModel(0.2, 2.4, 100)
        inp = PdeWeightInput(1 / 2.2, decay_sequence(model, 100), 0.1)
        d = derive_spod(inp, 100)
        spec = KernelSpec(d.alpha, d.scheme)
        lat = Lattice(64, cbc_construct(spec, 64, 100).z)
        return spec, eta(d.alpha, lat.columns())

    def test_state_matches_full_recursion(self, spod100):
        spec, etas = spod100
        sch = spec.scheme
        assert np.isinf(sch.Gamma[121]) and np.isfinite(sch.Gamma[120])
        state = BatchKernelState(sch, etas.shape[1])
        for d, row in enumerate(etas):
            full = full_state_rows(sch, etas[:d])
            a, b = state.affine_split()
            np.testing.assert_array_equal(a, full_contraction(sch, full))
            np.testing.assert_array_equal(
                b, full_contraction(sch, full_shift_rows(sch, full))
            )
            state.commit(row)
        full = full_state_rows(sch, etas)
        assert len(full) == 201 and len(state.P) == 56
        assert state.P[-1].any() and not full[56:].any()
        np.testing.assert_array_equal(state.values(),
                                      full_contraction(sch, full))

    def test_prefixes_match_full_table(self, spod100):
        spec, _ = spod100
        x = 2.0 * zeta(2 * spec.alpha)
        assert squared_weight_prefixes(spec.scheme, 100, x) == \
            full_squared_weight_prefixes(spec.scheme, 100, x)

    @pytest.mark.parametrize("sigma", [2, 3])
    def test_prefixes_add_pair_terms_in_order(self, sigma):
        # gamma_{j,nu} of one size, so that the order in which the sigma^2
        # shifted terms reach an entry of the order-pair table sets its
        # rounding (the derived SPOD weights above fall off too fast in
        # nu for that): the prefixes still equal the loop that adds them
        # in (nu, nu') order, bit for bit
        rng = np.random.default_rng(5)
        s = 12
        sch = WeightScheme(
            "spod", Gamma=rng.uniform(0.5, 2.0, s * sigma + 1),
            gamma_jnu=rng.uniform(0.5, 1.0, (s, sigma)),
        )
        assert squared_weight_prefixes(sch, s, 1.7) == \
            full_squared_weight_prefixes(sch, s, 1.7)


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
