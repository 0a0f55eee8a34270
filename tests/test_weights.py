import math

import numpy as np
import pytest

from latkern.extended import ExtendedReal, xfactorial
from latkern.special import zeta
from latkern.weights import (
    DerivedParams,
    PdeWeightInput,
    WeightScheme,
    derive_pod,
    derive_product,
    derive_spod,
    squared_weight_prefixes,
    squared_weight_sum,
    theory_error_constant,
    weight_of,
)


def _input(p, s=10, delta=0.1):
    b = 0.05 * np.arange(1, s + 1, dtype=float) ** -2.4
    return PdeWeightInput(p, b, delta)


class TestDeriveSpod:
    def test_p_1_over_2_2(self):
        d = derive_spod(_input(1 / 2.2), 10)
        assert (d.alpha, d.sigma) == (4, 2)
        assert d.lam == pytest.approx(5 / 17)

    def test_p_1_over_1_1(self):
        d = derive_spod(_input(1 / 1.1), 10)
        assert (d.alpha, d.sigma) == (2, 1)
        assert d.lam == pytest.approx(5 / 6)

    def test_lambda_in_range(self):
        for p in (1 / 1.1, 1 / 2.2, 1 / 3.3):
            d = derive_spod(_input(p), 6)
            assert 1.0 / d.alpha < d.lam <= 1.0


class TestDerivePod:
    def test_p_1_over_2_2(self):
        d = derive_pod(_input(1 / 2.2), 10)
        assert (d.alpha, d.sigma) == (4, 2)
        assert d.lam == pytest.approx(5 / 17)

    def test_boundary_p_rejected_with_interval_hint(self):
        with pytest.raises(ValueError, match="admissible interval"):
            derive_pod(_input(0.5), 10)

    def test_gamma0_is_one(self):
        d = derive_pod(_input(1 / 2.2), 6)
        assert d.scheme.Gamma[0].to_float() == pytest.approx(1.0)
        assert weight_of(d.scheme, ()).to_float() == 1.0

    def test_gamma_100_matches_stirling(self):
        # POD order factor at ell=100, sigma=2: finite in ExtendedReal and
        # log2 within 1% of the Stirling approximation of the formula
        d = derive_pod(_input(1 / 2.2, s=100), 100)
        got = d.scheme.Gamma[100].log2
        ell, sigma, lam = 100, 2, 5 / 17
        n = sigma * ell
        log_fact = n * math.log(n) - n + 0.5 * math.log(2 * math.pi * n)
        want = (
            2 * log_fact
            - math.log(ell)
            - ell * math.log(2 * zeta(d.alpha * lam))
        ) / (1 + lam) / math.log(2)
        assert got == pytest.approx(want, rel=0.01)
        assert d.scheme.Gamma[100].sign == 1


class TestDeriveProduct:
    def test_scenario_b_example(self):
        d = derive_product(_input(1 / 2.2), 10)
        assert d.scenario == "B"
        assert (d.alpha, d.sigma) == (2, 1)
        assert d.lam == pytest.approx(1.0)
        assert d.rate == pytest.approx(0.25)

    def test_scenario_a_example(self):
        d = derive_product(_input(1 / 3.3), 10)
        assert d.scenario == "A"
        assert (d.alpha, d.sigma) == (2, 1)

    def test_p_too_large_rejected(self):
        with pytest.raises(ValueError):
            derive_product(_input(0.6), 10)

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            derive_product(_input(1 / 2.2, delta=5.0), 10)


class TestWeightOf:
    def test_product_pair(self):
        sch = WeightScheme("product", gamma_j=np.array([0.5, 0.25]))
        assert weight_of(sch, (1, 2)).to_float() == pytest.approx(0.125)

    def test_empty_set(self):
        sch = WeightScheme("product", gamma_j=np.array([0.5]))
        assert weight_of(sch, ()).to_float() == 1.0

    def test_spod_single_coordinate(self):
        g1, g2 = 0.3, 0.07
        G = tuple(ExtendedReal.from_float(v) for v in (1.0, 2.0, 5.0))
        sch = WeightScheme(
            "spod", sigma=2, Gamma=G, gamma_jnu=np.array([[g1, g2]])
        )
        want = 2.0 * g1 + 5.0 * g2
        assert weight_of(sch, (1,)).to_float() == pytest.approx(want)

    def test_product_monotone_when_gamma_below_one(self):
        sch = WeightScheme("product", gamma_j=np.array([0.5, 0.9, 0.2]))
        small = weight_of(sch, (1, 3)).to_float()
        base = weight_of(sch, (1,)).to_float()
        assert small < base

    def test_enumeration_limit(self):
        sch = WeightScheme("product", gamma_j=np.ones(20))
        with pytest.raises(ValueError):
            weight_of(sch, tuple(range(1, 14)))


class TestSpodPodCrossCheck:
    def test_sigma1_spod_equals_pod_form(self):
        # With sigma = 1 the SPOD sum collapses to POD shape with
        # Gamma_ell = (ell!)^{2/(1+lam)} and gamma_j = gamma_{j,1}
        lam = 0.5
        expo = 2.0 / (1.0 + lam)
        gj = np.array([0.8, 0.5, 0.3, 0.2, 0.15, 0.1])
        G = tuple(xfactorial(ell).powf(expo) for ell in range(7))
        spod = WeightScheme(
            "spod", sigma=1, Gamma=G, gamma_jnu=gj[:, None]
        )
        pod = WeightScheme("pod", sigma=1, gamma_j=gj, Gamma=G)
        for u in [(1,), (2, 4), (1, 3, 5), (1, 2, 3, 4, 5, 6)]:
            a = weight_of(spod, u).to_float()
            b = weight_of(pod, u).to_float()
            assert a == pytest.approx(b, rel=1e-12)


class TestTheoryErrorConstant:
    def test_kappa_formula(self):
        # lam=1, alpha=2: kappa = sqrt(2) * 34.5^{1/4}; tiny gamma makes the
        # weighted sum ~ the empty-set term 1
        sch = WeightScheme("product", gamma_j=np.full(1, 1e-30))
        params = DerivedParams(2, 1, 1.0, sch)
        got = theory_error_constant(params, 1, 16)
        kappa = math.sqrt(2.0) * 34.5**0.25
        assert got == pytest.approx(kappa * 16 ** (-0.25), rel=1e-6)

    def test_power_law_in_n(self):
        sch = WeightScheme("product", gamma_j=np.array([0.5, 0.25]))
        params = DerivedParams(2, 1, 0.75, sch)
        r = theory_error_constant(params, 2, 64) / theory_error_constant(
            params, 2, 128
        )
        assert r == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)

    def test_refuses_large_s(self):
        sch = WeightScheme("product", gamma_j=np.ones(20))
        params = DerivedParams(2, 1, 1.0, sch)
        with pytest.raises(ValueError):
            theory_error_constant(params, 13, 16)


def _squared_weight_sum_loop(scheme, s, x):
    """Q_s by the factored recursion for s coordinates, summed term by term
    in ExtendedReal: the oracle for the one-pass prefixes."""
    if scheme.kind == "product":
        acc = ExtendedReal.one()
        for g in scheme.gamma_j[:s]:
            acc = acc * ExtendedReal.from_float(1.0 + g * g * x)
        return acc
    if scheme.kind == "pod":
        q = np.zeros(s + 1)
        q[0] = 1.0
        for j in range(s):
            gx = scheme.gamma_j[j] ** 2 * x
            for ell in range(j + 1, 0, -1):
                q[ell] += gx * q[ell - 1]
        pairs = [(ell, ell, q[ell]) for ell in range(s + 1)]
    else:
        sigma = scheme.sigma
        span = s * sigma
        r = np.zeros((span + 1, span + 1))
        r[0, 0] = 1.0
        for j in range(s):
            g = scheme.gamma_jnu[j]
            new = r.copy()
            for nu in range(1, sigma + 1):
                for nup in range(1, sigma + 1):
                    c = x * g[nu - 1] * g[nup - 1]
                    new[nu:, nup:] += c * r[: span + 1 - nu, : span + 1 - nup]
            r = new
        pairs = [
            (ell, ellp, r[ell, ellp])
            for ell in range(span + 1)
            for ellp in range(span + 1)
        ]
    total = ExtendedReal.zero()
    for ell, ellp, v in pairs:
        if v != 0.0:
            total = total + scheme.Gamma[ell] * scheme.Gamma[ellp] * \
                ExtendedReal.from_float(v)
    return total


class TestSquaredWeightSum:
    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_matches_subset_enumeration(self, family):
        import itertools

        inp = _input(1 / 2.2, s=5)
        d = {
            "product": derive_product,
            "pod": derive_pod,
            "spod": derive_spod,
        }[family](inp, 5)
        x = 2.0 * zeta(2 * d.alpha)
        got = squared_weight_sum(d.scheme, 5, x).to_float()
        want = 0.0
        for r in range(6):
            for u in itertools.combinations(range(1, 6), r):
                gu = weight_of(d.scheme, u).to_float()
                want += gu * gu * x**r
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    @pytest.mark.parametrize("p", [1 / 2.2, 0.3])
    def test_prefixes_match_termwise_loop(self, family, p):
        # one pass gives every prefix: product prefixes bit for bit, POD
        # and SPOD ones to 1e-15 relative (the sums run in another order)
        s = 12
        d = {
            "product": derive_product,
            "pod": derive_pod,
            "spod": derive_spod,
        }[family](_input(p, s=s), s)
        x = 2.0 * zeta(2 * d.alpha)
        got = squared_weight_prefixes(d.scheme, s, x)
        assert len(got) == s
        assert squared_weight_sum(d.scheme, s, x) == got[-1]
        for q, got_q in enumerate(got, start=1):
            want = _squared_weight_sum_loop(d.scheme, q, x)
            if family == "product":
                assert got_q == want
            else:
                rel = (got_q - want) / want
                assert abs(rel.to_float()) <= 1e-15
