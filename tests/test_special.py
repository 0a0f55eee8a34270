import math

import mpmath
import numpy as np
import pytest

from latkern.pde import DiffusionModel, decay_sequence
from latkern.special import (
    bell_touchard,
    bernoulli_poly,
    bernoulli_poly_coeffs,
    stirling2,
    zeta,
)


class TestBernoulliPoly:
    def test_b2_at_zero(self):
        assert bernoulli_poly(2, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_b4_at_zero(self):
        assert bernoulli_poly(4, 0.0) == pytest.approx(-1.0 / 30.0, abs=1e-15)

    def test_b2_at_half(self):
        assert bernoulli_poly(2, 0.5) == pytest.approx(-1.0 / 12.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [1, 3, 5, 0, 18])
    def test_rejects_odd_zero_or_large(self, bad):
        with pytest.raises(ValueError, match="degree"):
            bernoulli_poly(bad, 0.25)

    @pytest.mark.parametrize("degree", [2, 4, 6, 8, 10, 12])
    def test_zero_mean(self, degree):
        x = np.linspace(0.0, 1.0, 10_001)
        assert abs(np.trapezoid(bernoulli_poly(degree, x), x)) <= 1e-8

    def test_vectorized_matches_scalar(self):
        x = np.linspace(0.0, 1.0, 37, endpoint=False)
        vec = bernoulli_poly(6, x)
        scal = [bernoulli_poly(6, float(t)) for t in x]
        np.testing.assert_allclose(vec, scal, rtol=0, atol=0)

    @pytest.mark.parametrize("degree", range(2, 17, 2))
    def test_monic(self, degree):
        # bernoulli_poly starts Horner from x + p1, dropping 1.0 * x
        assert bernoulli_poly_coeffs(degree)[0] == 1.0

    @pytest.mark.parametrize("degree", range(2, 17, 2))
    def test_bits_equal_polyval(self, degree):
        # oracle: np.polyval, whose order of operations the Horner loop keeps
        p = bernoulli_poly_coeffs(degree)
        rng = np.random.default_rng(degree)
        edges = [0.0, -0.0, 1.0 - 2.0**-53, 2.0**-1074, 0.5, -0.25, -3.75]
        x = np.concatenate([edges, rng.random(200), 8.0 * rng.random(50) - 4.0])
        assert bernoulli_poly(degree, x).tobytes() == np.polyval(p, x).tobytes()
        ints = np.arange(-5, 6)
        assert bernoulli_poly(degree, ints).tobytes() == \
            np.polyval(p, ints).tobytes()
        for t in edges + [3, -2]:
            got = bernoulli_poly(degree, t)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.polyval(p, t).tobytes()


class TestZeta:
    def test_two(self):
        assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)

    def test_four(self):
        assert zeta(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-12)

    @pytest.mark.parametrize("x", [1.05, 1.2, 2.4, 3.6, 8.0])
    def test_against_mpmath_oracle(self, x):
        assert zeta(x) == pytest.approx(float(mpmath.zeta(x)), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            zeta(1.0)
        with pytest.raises(ValueError):
            zeta(0.5)
        with pytest.raises(ValueError, match="nan"):
            zeta(math.nan)
        with pytest.raises(ValueError, match="inf"):
            zeta(math.inf)

    @pytest.mark.parametrize("x", [64.0, 1074.0, 1075.0, 1e103, 1e200, 1e308])
    def test_one_for_large_x(self, x):
        # past about 5.6e102, x (x + 1) (x + 2) overflows to inf and met
        # n^(-x - 3) = 0 in the Euler-Maclaurin tail: the sum was NaN
        assert zeta(x) == 1.0


class TestStirling2:
    def test_diagonal(self):
        assert stirling2(2, 2) == 1

    def test_3_2(self):
        assert stirling2(3, 2) == 3

    def test_zero_convention(self):
        assert stirling2(2, 0) == 0
        assert stirling2(0, 0) == 1

    def test_above_diagonal_is_zero(self):
        assert stirling2(3, 5) == 0

    def test_bell_row_sums(self):
        bells = [1, 1, 2, 5, 15, 52]
        for sigma, want in enumerate(bells):
            assert sum(stirling2(sigma, m) for m in range(sigma + 1)) == want


class TestBellTouchard:
    def test_sigma2_at_one(self):
        assert bell_touchard(2, 1.0) == pytest.approx(2.0)

    def test_sigma0(self):
        assert bell_touchard(0, 5.0) == pytest.approx(1.0)

    def test_sigma2_at_half(self):
        assert bell_touchard(2, 0.5) == pytest.approx(0.75)

    def test_terms_added_left_to_right(self):
        # one rounding per term, in order, whatever the Python version:
        # the builtin sum of floats is compensated from 3.12 on.  The b_j
        # are those of `cbc --weights pod --p 0.30303 --theta 3.6 --s 300`
        # (sigma = 3 there), as numpy floats and as Python floats
        b = decay_sequence(DiffusionModel(0.2, 3.6, 300), 300)
        for sigma in range(7):
            for x in (*b, *b.tolist()):
                want = 0.0
                for m in range(sigma + 1):
                    want += stirling2(sigma, m) * x**m
                got = bell_touchard(sigma, x)
                assert type(got) is float and got == want
