import math
from fractions import Fraction

import numpy as np
import pytest

from latkern.kernel import KernelSpec, kernel_values_batch
from latkern.special import zeta
from latkern.weights import (
    DerivedParams,
    PdeWeightInput,
    WeightScheme,
    _order_factors,
    _pod_order_logs,
    _power,
    _spod_order_logs,
    derive_pod,
    derive_product,
    derive_spod,
    squared_weight_prefixes,
    squared_weight_sum,
)
from reference import (
    ExtendedReal,
    gamma_arrays,
    order_factor,
    pod_order_factors,
    spod_order_factors,
    theory_error_constant,
    weight_of,
    xfactorial,
)


def _input(p, s=10, delta=0.1):
    b = 0.05 * np.arange(1, s + 1, dtype=float) ** -2.4
    return PdeWeightInput(p, b, delta)


class TestDeriveSpod:
    def test_p_1_over_2_2(self):
        d = derive_spod(_input(1 / 2.2), 10)
        assert (d.alpha, d.scheme.sigma) == (4, 2)
        assert d.lam == pytest.approx(5 / 17)

    def test_p_1_over_1_1(self):
        d = derive_spod(_input(1 / 1.1), 10)
        assert (d.alpha, d.scheme.sigma) == (2, 1)
        assert d.lam == pytest.approx(5 / 6)

    def test_lambda_in_range(self):
        for p in (1 / 1.1, 1 / 2.2, 1 / 3.3):
            d = derive_spod(_input(p), 6)
            assert 1.0 / d.alpha < d.lam <= 1.0


class TestDerivePod:
    def test_p_1_over_2_2(self):
        d = derive_pod(_input(1 / 2.2), 10)
        assert (d.alpha, d.scheme.sigma) == (4, 1)
        assert d.lam == pytest.approx(5 / 17)

    def test_boundary_p_rejected_with_interval_hint(self):
        with pytest.raises(ValueError, match="admissible interval"):
            derive_pod(_input(0.5), 10)

    def test_gamma0_is_one(self):
        d = derive_pod(_input(1 / 2.2), 6)
        assert order_factor(d.scheme, 0).to_float() == pytest.approx(1.0)
        assert weight_of(d.scheme, ()).to_float() == 1.0

    def test_gamma_60_matches_stirling(self):
        # POD order factor at ell=60, sigma=2: about 2^847, log2 within 1%
        # of the Stirling approximation of the formula; from order 70 on,
        # past 2^1024, it is +inf
        d = derive_pod(_input(1 / 2.2, s=100), 100)
        got = order_factor(d.scheme, 60).log2
        ell, sigma, lam = 60, 2, 5 / 17
        n = sigma * ell
        log_fact = n * math.log(n) - n + 0.5 * math.log(2 * math.pi * n)
        want = (
            2 * log_fact
            - math.log(ell)
            - ell * math.log(2 * zeta(d.alpha * lam))
        ) / (1 + lam) / math.log(2)
        assert got == pytest.approx(want, rel=0.01)
        G = d.scheme.Gamma
        first = int(np.argmax(np.isinf(G)))
        assert np.all(np.isfinite(G[:first])) and np.all(np.isinf(G[first:]))
        assert np.log2(G[first - 1]) > 1000


class TestDeriveProduct:
    def test_scenario_b_example(self):
        d = derive_product(_input(1 / 2.2), 10)
        assert d.scenario == "B"
        assert (d.alpha, d.scheme.sigma) == (2, 1)
        assert d.lam == pytest.approx(1.0)
        assert d.rate == pytest.approx(0.25)

    def test_scenario_a_example(self):
        d = derive_product(_input(1 / 3.3), 10)
        assert d.scenario == "A"
        assert (d.alpha, d.scheme.sigma) == (2, 1)

    def test_p_too_large_rejected(self):
        with pytest.raises(ValueError):
            derive_product(_input(0.6), 10)

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            derive_product(_input(1 / 2.2, delta=5.0), 10)


class TestNonFiniteInputs:
    # NaN fails every comparison, so checks of the invalid range (b <= 0,
    # gamma <= 0) once let it through to NaN weights

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_b_entry_named(self, bad):
        b = _input(0.4).b.copy()
        b[1] = bad
        with pytest.raises(ValueError, match=f"b_2 = {bad}"):
            PdeWeightInput(0.4, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_gamma_entry(self, bad):
        with pytest.raises(ValueError, match="gamma_j / gamma_jnu"):
            WeightScheme("product", gamma_j=np.array([0.5, bad]))
        with pytest.raises(ValueError, match="gamma_j / gamma_jnu"):
            WeightScheme("spod",
                         Gamma=_order_factors(_spod_order_logs(0.5, 2)),
                         gamma_jnu=np.array([[0.5, bad]]))

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, -math.inf])
    def test_order_factor_entry(self, bad):
        G = _order_factors(_spod_order_logs(0.5, 2))
        G[1] = bad
        with pytest.raises(ValueError, match="Gamma entries"):
            WeightScheme("spod", Gamma=G, gamma_jnu=np.full((1, 2), 0.5))

    def test_order_factor_past_double_range_is_inf(self):
        # +inf is how an order factor past 2^1024 is stored
        G = _order_factors(_spod_order_logs(0.5, 2))
        G[2] = math.inf
        sch = WeightScheme("spod", Gamma=G, gamma_jnu=np.full((1, 2), 0.5))
        assert sch.Gamma[2] == math.inf


class TestWeightOf:
    def test_product_pair(self):
        sch = WeightScheme("product", gamma_j=np.array([0.5, 0.25]))
        assert weight_of(sch, (1, 2)).to_float() == pytest.approx(0.125)

    def test_empty_set(self):
        sch = WeightScheme("product", gamma_j=np.array([0.5]))
        assert weight_of(sch, ()).to_float() == 1.0

    def test_spod_single_coordinate(self):
        g1, g2 = 0.3, 0.07
        G = gamma_arrays(ExtendedReal.from_float(v) for v in (1.0, 2.0, 5.0))
        sch = WeightScheme("spod", Gamma=G, gamma_jnu=np.array([[g1, g2]]))
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
        G = gamma_arrays(xfactorial(ell).powf(expo) for ell in range(7))
        spod = WeightScheme("spod", Gamma=G, gamma_jnu=gj[:, None])
        pod = WeightScheme("pod", gamma_j=gj, Gamma=G)
        for u in [(1,), (2, 4), (1, 3, 5), (1, 2, 3, 4, 5, 6)]:
            a = weight_of(spod, u).to_float()
            b = weight_of(pod, u).to_float()
            assert a == pytest.approx(b, rel=1e-12)


class TestWeightScheme:
    @pytest.mark.parametrize("kind,sigma", [("pod", 1), ("spod", 1),
                                            ("spod", 3)])
    def test_order_factors_cover_every_order(self, kind, sigma):
        # 4 coordinates of sigma orders each reach order 4 sigma, so Gamma
        # needs 4 sigma + 1 entries; one fewer fails when the scheme is
        # built, not partway through a search
        table = np.full((4, sigma), 0.5)
        col = {"gamma_j": table[:, 0]} if kind == "pod" else {
            "gamma_jnu": table}

        def scheme(G):
            return WeightScheme(kind, Gamma=G, **col)

        G = _order_factors(_spod_order_logs(0.5, 4 * sigma))
        assert scheme(G).dimension == 4
        need = f"needs {4 * sigma + 1} entries"
        with pytest.raises(ValueError, match=need):
            scheme(G[:-1])
        with pytest.raises(ValueError, match=need):
            scheme(G[None, :])


class TestRescaling:
    @pytest.mark.parametrize("k", [3, 11])
    def test_kernel_and_squared_sums_keep_their_bits(self, k):
        # gamma_jnu 2^(k nu) and Gamma_ell 2^(-k ell) are the same weights
        # gamma_u and scale kernel row ell by 2^(k ell): while no row or
        # factor is subnormal, every kernel value and Q_d keeps its bits
        d = derive_spod(_input(1 / 2.2), 10)
        sch, sigma = d.scheme, d.scheme.sigma
        lg = _spod_order_logs(d.lam, 10 * sigma)
        np.testing.assert_array_equal(sch.Gamma, _order_factors(lg))
        scaled = WeightScheme(
            "spod", Gamma=_order_factors(lg, k),
            gamma_jnu=np.ldexp(sch.gamma_jnu, k * np.arange(1, sigma + 1)))
        dy = np.vstack([np.zeros(10),
                        np.random.default_rng(4).random((63, 10))])
        np.testing.assert_array_equal(
            kernel_values_batch(KernelSpec(d.alpha, scaled), dy),
            kernel_values_batch(KernelSpec(d.alpha, sch), dy))
        x = 2.0 * zeta(2 * d.alpha)
        assert squared_weight_prefixes(scaled, 10, x) == \
            squared_weight_prefixes(sch, 10, x)


class TestOrderFactors:
    # the Gamma arrays against their defining formulas evaluated in
    # ExtendedReal, bit for bit, far past double range

    @pytest.mark.parametrize("lam", [0.15, 5 / 17, 0.5, 5 / 6, 1.0])
    def test_spod_matches_extended_real(self, lam):
        got = _order_factors(_spod_order_logs(lam, 3000))
        want = gamma_arrays(spod_order_factors(lam, 3000))
        np.testing.assert_array_equal(got, want)
        assert np.isinf(got[-1]) and np.isfinite(got[100])

    @pytest.mark.parametrize(
        "alpha,sigma,lam", [(2, 1, 9 / 11), (4, 2, 5 / 17), (6, 3, 0.5),
                            (8, 4, 0.3)]
    )
    def test_pod_matches_extended_real(self, alpha, sigma, lam, s=250):
        got = _order_factors(_pod_order_logs(alpha, sigma, lam, s))
        want = gamma_arrays(pod_order_factors(alpha, sigma, lam, s))
        np.testing.assert_array_equal(got, want)
        assert np.isinf(got[-1]) and np.log2(got[20]) > 40

    @pytest.mark.parametrize(
        "alpha,sigma,lam", [(2, 1, 9 / 11), (4, 2, 5 / 17), (6, 3, 0.5),
                            (8, 4, 0.3), (6, 3, 0.3 / 1.7)]
    )
    def test_pod_matches_extended_real_at_s_300(self, alpha, sigma, lam):
        # ell z2^ell leaves double range from ell = 279 at lambda = 5/17
        # (z2 = 12.5) and from ell = 198 at 0.3/1.7 (z2 = 35.2)
        self.test_pod_matches_extended_real(alpha, sigma, lam, s=300)

    @pytest.mark.parametrize(
        "x,ell", [(12.4, 300), (35.1, 1023), (1.999, 2500), (35.1, 2047)]
    )
    def test_power_matches_exact_rational(self, x, ell):
        # past 2^1024, and past the mantissa's 1023-factor steps
        m, e = _power(x, ell)
        assert 1.0 <= m < 2.0
        ratio = Fraction(m) * 2**e / Fraction(x) ** ell
        assert abs(float(ratio) - 1.0) < 1e-15

    def test_derived_schemes_carry_them(self):
        inp = _input(1 / 2.2, s=12)
        spod, pod = derive_spod(inp, 12), derive_pod(inp, 12)
        for got, want in [
            (spod.scheme.Gamma, _spod_order_logs(spod.lam, 24)),
            (pod.scheme.Gamma, _pod_order_logs(4, 2, pod.lam, 12)),
        ]:
            np.testing.assert_array_equal(got, _order_factors(want))


class TestTheoryErrorConstant:
    def test_kappa_formula(self):
        # lam=1, alpha=2: kappa = sqrt(2) * 34.5^{1/4}; tiny gamma makes the
        # weighted sum ~ the empty-set term 1
        sch = WeightScheme("product", gamma_j=np.full(1, 1e-30))
        params = DerivedParams(2, 1.0, sch)
        got = theory_error_constant(params, 1, 16)
        kappa = math.sqrt(2.0) * 34.5**0.25
        assert got == pytest.approx(kappa * 16 ** (-0.25), rel=1e-6)

    def test_power_law_in_n(self):
        sch = WeightScheme("product", gamma_j=np.array([0.5, 0.25]))
        params = DerivedParams(2, 0.75, sch)
        r = theory_error_constant(params, 2, 64) / theory_error_constant(
            params, 2, 128
        )
        assert r == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)

    def test_refuses_large_s(self):
        sch = WeightScheme("product", gamma_j=np.ones(20))
        params = DerivedParams(2, 1.0, sch)
        with pytest.raises(ValueError):
            theory_error_constant(params, 13, 16)


def _squared_weight_sum_loop(scheme, s, x):
    """Q_s by the factored recursion for s coordinates, each term formed in
    ExtendedReal: the oracle for the one-pass prefixes.

    Product weights multiply the factors in ExtendedReal.  POD runs its
    own one-index recursion on the diagonal, with the coefficient formed
    as (x gamma_j) gamma_j, as the package's sigma = 1 order-pair recursion
    forms it.  POD and SPOD terms Gamma_ell Gamma_ell' v are each formed
    in ExtendedReal, then summed as the package sums them, in one numpy
    sum in (ell, ell') order, scaled to the top exponent: power-of-two
    scaling is exact, so this is the package's sum bit for bit, whatever
    numpy's summation order.
    """
    if scheme.kind == "product":
        acc = ExtendedReal.one()
        for g in scheme.gamma_j[:s]:
            acc = acc * ExtendedReal.from_float(1.0 + g * g * x)
        return acc.to_float()
    if scheme.kind == "pod":
        q = np.zeros(s + 1)
        q[0] = 1.0
        for j in range(s):
            gx = x * scheme.gamma_j[j] * scheme.gamma_j[j]
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
    terms = [
        order_factor(scheme, ell) * order_factor(scheme, ellp)
        * ExtendedReal.from_float(v)
        for ell, ellp, v in pairs
        if v != 0.0
    ]
    top = max(t.exponent for t in terms)
    total = np.sum([math.ldexp(t.mantissa, t.exponent - top) for t in terms])
    total = ExtendedReal.from_float(float(total)) * ExtendedReal(1.0, top, 1)
    return total.to_float()


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
        # one pass gives every prefix, bit for bit
        s = 12
        d = {
            "product": derive_product,
            "pod": derive_pod,
            "spod": derive_spod,
        }[family](_input(p, s=s), s)
        x = 2.0 * zeta(2 * d.alpha)
        got = squared_weight_prefixes(d.scheme, s, x)
        assert len(got) == s
        assert all(type(q) is float for q in got)
        assert squared_weight_sum(d.scheme, s, x).to_float() == got[-1]
        for q, got_q in enumerate(got, start=1):
            assert got_q == _squared_weight_sum_loop(d.scheme, q, x)
