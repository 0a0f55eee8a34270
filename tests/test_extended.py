import math

import pytest
from hypothesis import given, strategies as st

from reference import ExtendedReal, OutOfDoubleRange, xfactorial

finite = st.floats(
    allow_nan=False,
    allow_infinity=False,
    min_value=-1e150,
    max_value=1e150,
).filter(lambda x: x == 0.0 or abs(x) >= 1e-150)


class TestRoundTrip:
    @given(finite)
    def test_from_to_float(self, x):
        assert ExtendedReal.from_float(x).to_float() == x

    def test_zero(self):
        z = ExtendedReal.zero()
        assert z.is_zero and z.to_float() == 0.0

    def test_normalization_invariant(self):
        v = ExtendedReal.from_float(123.456)
        assert 1.0 <= v.mantissa < 2.0


class TestArithmeticAgreesWithFloats:
    @given(finite, finite)
    def test_mul(self, a, b):
        got = (ExtendedReal.from_float(a) * ExtendedReal.from_float(b))
        assert got.to_float() == pytest.approx(a * b, rel=1e-14, abs=1e-300)

    @given(finite, finite)
    def test_add(self, a, b):
        got = (ExtendedReal.from_float(a) + ExtendedReal.from_float(b))
        assert got.to_float() == pytest.approx(a + b, rel=1e-14, abs=1e-300)

    @given(finite, finite.filter(lambda b: abs(b) > 1e-150))
    def test_div(self, a, b):
        got = (ExtendedReal.from_float(a) / ExtendedReal.from_float(b))
        assert got.to_float() == pytest.approx(a / b, rel=1e-14, abs=1e-300)

    @given(finite, finite)
    def test_ordering(self, a, b):
        ea, eb = ExtendedReal.from_float(a), ExtendedReal.from_float(b)
        assert (ea < eb) == (a < b)
        assert (ea <= eb) == (a <= b)


class TestBeyondDoubleRange:
    def test_large_product_and_back(self):
        big = ExtendedReal.from_float(1e300)
        sq = big * big  # 1e600, not a double
        back = sq / big
        assert back.to_float() == pytest.approx(1e300, rel=1e-14)

    def test_overflow_diagnostic(self):
        big = ExtendedReal.from_float(1e300)
        with pytest.raises(OutOfDoubleRange) as err:
            (big * big).to_float()
        assert err.value.log2_magnitude == pytest.approx(
            2 * math.log2(1e300), rel=1e-6
        )

    def test_powf(self):
        v = ExtendedReal.from_float(2.0).powf(100.5)
        assert v.log2 == pytest.approx(100.5, rel=1e-12)


class TestXFactorial:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20])
    def test_small_exact(self, n):
        assert xfactorial(n).to_float() == pytest.approx(
            float(math.factorial(n)), rel=1e-14
        )

    def test_large_matches_exact_log2(self):
        # 200! overflows doubles; compare against exact integer log2
        want = math.log2(math.factorial(200))
        assert xfactorial(200).log2 == pytest.approx(want, rel=1e-12)
