import copy
import hashlib
import itertools
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from latkern.cli import cli
from latkern.experiments import derive_for_family
from latkern.kernel import BatchKernelState, KernelSpec, eta
from latkern.lattice import (
    _TIE,
    Lattice,
    _eta_table,
    _first_within,
    _prime_powers,
    _primitive_root,
    _unit_torus,
    _UnitScorer,
    _criterion_from_parts,
    _mean_square_kernel,
    cbc_construct,
    criterion_S,
    read_genvec,
    write_genvec,
)
from latkern.pde import DiffusionModel, decay_sequence
from latkern.special import zeta
from latkern.weights import (
    PdeWeightInput,
    WeightScheme,
    squared_weight_sum,
)
from reference import (
    ExtendedReal,
    fooling_vector,
    kernel_eval,
    rnorm,
    weight_of,
)

ROOT = Path(__file__).resolve().parent.parent


def _product_spec(gammas, alpha=2):
    return KernelSpec(alpha, WeightScheme("product", gamma_j=np.asarray(gammas)))


def _study_spec(family, s, c=0.2, theta=2.4, p=1.0 / 2.2):
    """Weights derived from the diffusion model, as the studies derive them."""
    model = DiffusionModel(c, theta, s)
    inp = PdeWeightInput(p, decay_sequence(model, s), 0.1)
    params = derive_for_family(family, inp, s)
    return KernelSpec(params.alpha, params.scheme)


def _cbc_oracle(spec, n, z):
    """What the CBC tie rule may pick after each prefix of z, judged from
    each candidate's own committed kernel values; and each prefix's
    mean-square kernel, from its kernel values as floats.

    z_1 must be 1.  After the prefix z[:d-1], every unit c is committed on a
    copy of the kernel state, with eta tabulated at k/n as given, and
    D(c) = sum_k K_k(c)^2 - A_k^2 = sum_k (K_k(c) - A_k)(K_k(c) + A_k) is
    formed from its kernel values K(c) and the current ones A.  The rule
    takes the smallest unit whose D lies within 1e-13 of the spread of D
    above the lowest.  This D carries the rounding of the kernel values,
    up to R(c) = 2^-51 sum_k (|K_k(c)| + |A_k|)^2 (measured: below R/10),
    which for POD and SPOD can exceed that margin.  So a unit may be the
    pick unless it lies outside the margin by more than 2R, or a smaller
    unit lies inside it by more than 2R.
    """
    cands = np.array([c for c in range(1, n) if math.gcd(c, n) == 1])
    etable = eta(spec.alpha, np.arange(n, dtype=float) / n)
    k = np.arange(n, dtype=np.int64)
    state = BatchKernelState(spec.scheme, n)
    allowed, mean_sq = [[1]], []
    for d, zd in enumerate(z):
        if d:
            a = state.values()
            trials = []
            for c in cands:
                trial = copy.deepcopy(state)
                trial.commit(etable[(k * c) % n])
                trials.append(trial.values())
            D, R = np.array([
                (np.sum((K - a) * (K + a)),
                 2.0**-51 * np.sum((np.abs(K) + np.abs(a)) ** 2))
                for K in trials
            ]).T
            edge = D.min() + 1e-13 * (D.max() - D.min())
            # no unit after the first one surely inside can be the pick
            inside = np.flatnonzero(D <= edge - 2.0 * R)
            last = inside[0] + 1 if len(inside) else len(cands)
            near = D[:last] <= edge + 2.0 * R[:last]
            allowed.append(cands[:last][near].tolist())
        state.commit(etable[(k * int(zd)) % n])
        K = state.values()
        mean_sq.append(float(np.sum(K * K)) / n)
    return allowed, mean_sq


def _direct_D(u, v, etable, cands):
    """D(c) = sum_k u_k eta_kc + v_k eta_kc^2 per candidate, in long double."""
    n = len(etable)
    k = np.arange(n, dtype=np.int64)
    rows = etable[np.outer(cands, k) % n].astype(np.longdouble)
    return rows @ u.astype(np.longdouble) + (rows * rows) @ v.astype(
        np.longdouble
    )


def _affine_inputs(spec, n, z):
    """(u, v) = (2AB, B^2), on the affine split's scale, for the dimension
    after the prefix z."""
    state = BatchKernelState(spec.scheme, n)
    k = np.arange(n, dtype=np.int64)
    etable = _eta_table(spec.alpha, n)
    for c in z:
        state.commit(etable[k * c % n])
    a, b = state.affine_split()
    return 2.0 * a * b, b * b


def _exact_s2(spec, n):
    """{c: S_2(1, c)} for the units c <= n/2, at mpmath's working precision.

    S_2 = (1/n) sum_k K(t_k)^2 - sum_u gamma_u^2 (2 zeta(2 alpha))^|u|, with
    K(t) = sum over u of {1, 2} of gamma_u prod_{j in u} eta(t_j).
    """
    alpha = spec.alpha
    g1, g2, g12 = (
        mpmath.ldexp(mpmath.mpf(w.sign * w.mantissa), w.exponent)
        for w in (weight_of(spec.scheme, u) for u in ([1], [2], [1, 2]))
    )
    coef = (2 * mpmath.pi) ** alpha / (
        (-1) ** (alpha // 2 + 1) * mpmath.factorial(alpha)
    )
    e = [coef * mpmath.bernpoly(alpha, mpmath.mpf(k) / n) for k in range(n)]
    x = 2 * mpmath.zeta(2 * alpha)
    q = 1 + (g1**2 + g2**2) * x + g12**2 * x**2
    return {
        c: mpmath.fsum(
            (1 + g1 * e[k] + (g2 + g12 * e[k]) * e[k * c % n]) ** 2
            for k in range(n)
        ) / n - q
        for c in range(1, n // 2 + 1)
        if math.gcd(c, n) == 1
    }


class TestLattice:
    def test_point_example(self):
        lat = Lattice(5, np.array([1, 2]))
        np.testing.assert_allclose(lat.points()[1], [0.2, 0.4])

    def test_group_property(self):
        lat = Lattice(7, np.array([1, 3, 5]))
        pts = lat.points()
        for k, kp in itertools.product(range(7), repeat=2):
            diff = (pts[k] - pts[kp]) % 1.0
            np.testing.assert_allclose(
                diff, pts[(k - kp) % 7], atol=1e-12
            )

    def test_points_computed_once_and_read_only(self):
        lat = Lattice(11, np.array([1, 3, 7]))
        pts = lat.points()
        assert lat.points().base is lat.columns()
        closed = np.array(
            [[(k * zj % 11) / 11 for zj in (1, 3, 7)] for k in range(11)]
        )
        np.testing.assert_array_equal(pts, closed)
        with pytest.raises(ValueError, match="read-only"):
            pts[1, 0] = 0.5
        np.testing.assert_array_equal(lat.points(), closed)

    @pytest.mark.parametrize("n", [11, 64])
    def test_columns_computed_once_and_read_only(self, n):
        # the lattice's one point array: kept, read-only, C-contiguous
        # (s, n), and bit for bit the transpose of points()
        lat = Lattice(n, np.array([1, 3, 7]))
        cols = lat.columns()
        assert lat.columns() is cols
        assert cols.shape == (3, n) and cols.flags.c_contiguous
        np.testing.assert_array_equal(cols, lat.points().T)
        with pytest.raises(ValueError, match="read-only"):
            cols[0, 1] = 0.5
        np.testing.assert_array_equal(lat.columns(), lat.points().T)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            Lattice(6, np.array([1, 2]))

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            Lattice(5, np.array([0, 1]))
        with pytest.raises(ValueError):
            Lattice(5, np.array([5, 1]))

    def test_non_integral_entry_rejected(self):
        for bad in (2.5, 1.0 + 1e-12, float("nan")):
            with pytest.raises(ValueError, match="not an integer"):
                Lattice(5, [1, bad])
        # integer-valued input of any dtype is accepted
        for z in ([1.0, 2.0], np.r_[np.array([1]), np.array([2])]):
            lat = Lattice(5, z)
            assert lat.z.dtype == np.int64 and lat.z.tolist() == [1, 2]


class TestCriterion:
    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_lattice_past_the_weights(self, family, monkeypatch):
        # Q_4 of weights with 3 coordinates is refused before any kernel
        # value is formed
        def unreachable(*args):
            raise AssertionError("the kernel was evaluated")

        monkeypatch.setattr("latkern.lattice._mean_square_kernel", unreachable)
        spec = _study_spec(family, 3)
        with pytest.raises(
            ValueError, match="coordinate 4 is past the weight sequence"
        ):
            criterion_S(spec, Lattice(16, np.array([1, 3, 5, 7])))

    def test_n1_closed_form(self):
        spec = _product_spec([1.0])
        got = criterion_S(spec, Lattice(1, np.array([1])))
        want = (1.0 + 2.0 * zeta(2)) ** 2 - 1.0 - 2.0 * zeta(4)
        assert got == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(15.238, abs=5e-4)

    def test_vanishing_weights(self):
        spec = _product_spec([1e-300, 1e-300])
        got = criterion_S(spec, Lattice(4, np.array([1, 3])))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        spec = _product_spec([0.9, 0.5, 0.3])
        for n, z in [(8, [1, 3, 5]), (13, [1, 5, 8])]:
            assert criterion_S(spec, Lattice(n, np.array(z))) >= 0.0

    @pytest.mark.parametrize("n,z", [(5, [1, 2]), (8, [1, 3]), (7, [1, 5])])
    def test_dual_lattice_double_sum_oracle(self, n, z):
        # S equals sum over pairs h != m with (h-m).z = 0 (mod n) of
        # 1/(r(h) r(m)); truncate |h_j| <= H and group by residue class
        alpha = 4
        sch = WeightScheme("product", gamma_j=np.array([0.8, 0.6]))
        spec = KernelSpec(alpha, sch)
        H = 20
        hs = np.arange(-H, H + 1)
        by_res = np.zeros(n)
        sum_sq = 0.0
        for h1, h2 in itertools.product(hs, hs):
            rinv = 1.0 / rnorm(alpha, sch, [h1, h2]).to_float()
            by_res[(h1 * z[0] + h2 * z[1]) % n] += rinv
            sum_sq += rinv * rinv
        oracle = float(np.sum(by_res**2) - sum_sq)
        got = criterion_S(spec, Lattice(n, np.array(z)))
        # analytic truncation tail: every missed pair has one index outside
        # the box, so |gap| <= 2 (K(0,0) - K_box(0,0)) K(0,0) with K_box the
        # per-coordinate sums truncated at H
        k00 = kernel_eval(spec, np.zeros(2), np.zeros(2))
        box = 1.0
        partial = sum(2.0 / k**alpha for k in range(1, H + 1))
        for g in sch.gamma_j:
            box *= 1.0 + g * partial
        bound = 2.0 * (k00 - box) * k00
        assert abs(got - oracle) <= bound
        assert got == pytest.approx(oracle, rel=5e-3)


    def test_difference_rounds_once_as_extended_real_did(self):
        # S_d = minuend - subtrahend, one float subtraction: the bits of
        # the ExtendedReal subtraction, also past its 64-bit shift cut-off
        rng = np.random.default_rng(3)
        for _ in range(2000):
            ma, mb = rng.uniform(1.0, 2.0, 2)
            eb = int(rng.integers(-1000, 900))
            ea = eb + int(rng.choice([0, 1, 2, 30, 52, 53, 54, 64, 65, 70]))
            a, b = math.ldexp(ma, ea), math.ldexp(mb, eb)
            if a <= b:
                continue
            old = ExtendedReal(ma, ea, 1) - ExtendedReal(mb, eb, 1)
            got, lost = _criterion_from_parts(a, b)
            assert type(got) is float
            assert got == old.to_float() == a - b
            assert lost == pytest.approx(math.log10(a / got), abs=1e-12)
        assert _criterion_from_parts(6.0, 5.0) == (1.0, math.log10(6.0))

    def test_cancellation_beyond_tolerance_is_arithmetic(self):
        with pytest.raises(ArithmeticError, match="cancellation beyond"):
            _criterion_from_parts(1.0, 1.0000001)
        # within the tolerance the value clamps to 0, with every digit lost
        assert _criterion_from_parts(1.0, 1.0 + 1e-12) == (0.0, math.inf)

    def test_mean_square_with_fast_growing_order_factors(self):
        # POD with theta = 3.6, p = 0.3 at s = 40: Gamma_40 is about 2^944
        # while the kernel values stay near 1
        spec = _study_spec("pod", 40, theta=3.6, p=0.3)
        assert 900 < np.log2(spec.scheme.Gamma[40]) < 1024
        x = 2.0 * zeta(2 * spec.alpha)
        sub = squared_weight_sum(spec.scheme, 40, x).to_float()
        rng = np.random.default_rng(11)
        for n in (7, 16):
            units = [c for c in range(1, n) if math.gcd(c, n) == 1]
            lat = Lattice(n, rng.choice(units, 40))
            want = np.mean([
                kernel_eval(spec, t, np.zeros(40)) ** 2 for t in lat.points()
            ])
            got = _mean_square_kernel(spec, lat)
            assert type(got) is float
            assert got == pytest.approx(want, rel=1e-13)
            assert criterion_S(spec, lat) + sub == pytest.approx(
                want, rel=1e-13
            )


class TestCbc:
    def test_dimension_one_all_units_equal(self):
        spec = _product_spec([0.7])
        vals = [
            criterion_S(spec, Lattice(7, np.array([c]))) for c in range(1, 7)
        ]
        assert max(vals) - min(vals) < 1e-12 * max(vals)
        assert cbc_construct(spec, 7, 1).z[0] == 1

    # n = 1000 raises the known cancellation warning for POD and SPOD
    @pytest.mark.filterwarnings("ignore:criterion value dominated")
    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    @pytest.mark.parametrize("n", [97, 256, 1000])
    def test_first_component_is_one(self, family, n):
        # every unit gives the same one-dimensional point set, so the scores
        # of d = 1 differ by rounding only: z_1 = 1 by the tie rule
        spec = _study_spec(family, 3)
        assert cbc_construct(spec, n, 3).z[0] == 1

    def test_n2_only_candidate(self):
        spec = _product_spec([0.7, 0.3])
        rep = cbc_construct(spec, 2, 2)
        np.testing.assert_array_equal(rep.z, [1, 1])

    def test_exhaustive_global_minimum_n13(self):
        gammas = 0.5 ** np.arange(1, 3)
        spec = _product_spec(gammas)
        rep = cbc_construct(spec, 13, 2)
        best = min(
            criterion_S(spec, Lattice(13, np.array([z1, z2])))
            for z1 in range(1, 13)
            for z2 in range(1, 13)
        )
        got = criterion_S(spec, Lattice(13, rep.z))
        assert got == pytest.approx(best, rel=1e-10)

    @pytest.mark.parametrize("n", [7, 13])
    def test_per_step_optimality(self, n):
        spec = _product_spec([0.9, 0.6, 0.4])
        rep = cbc_construct(spec, n, 3)
        prefix: list[int] = []
        for d in range(3):
            scores = {
                c: criterion_S(
                    spec, Lattice(n, np.array(prefix + [c]))
                )
                for c in range(1, n)
                if math.gcd(c, n) == 1
            }
            best = min(scores.values())
            # smallest candidate among the (possibly tied) exact minimizers;
            # mirrored candidates c and n-c tie by symmetry of eta
            winner = min(
                c for c, v in scores.items() if v <= best * (1 + 1e-9)
            )
            assert rep.z[d] == winner
            prefix.append(int(rep.z[d]))

    def test_trace_and_bound_shapes(self):
        spec = _product_spec([0.9, 0.6, 0.4])
        rep = cbc_construct(spec, 13, 3)
        assert len(rep.criterion_trace) == 3
        for s, b in zip(rep.criterion_trace, rep.wce_bound_trace):
            assert s >= 0.0
            assert b == pytest.approx(math.sqrt(2.0) * s**0.25)
        assert rep.criterion_trace == sorted(rep.criterion_trace)

    # At n = 97 and 100, and at alpha = 6 (POD and SPOD weights of the
    # last case), the mirror-symmetric eta table that the search scores with
    # differs from eta(k/n), which the oracle uses, in its last bits.
    @pytest.mark.parametrize(
        "n,p,c,theta",
        [
            pytest.param(n, 1.0 / 2.2, 0.2, 2.4, id=str(n))
            for n in (2, 13, 16, 64, 97, 100, 256, 257)
        ]
        + [
            # SPOD raises the known cancellation warning here, which
            # test_digits_lost_behind_cancellation_warning checks
            pytest.param(
                64, 0.3, 0.2, 3.6, id="64-theta3.6",
                marks=pytest.mark.filterwarnings(
                    "ignore:criterion value dominated"
                ),
            )
        ],
    )
    @pytest.mark.parametrize(
        "family,s", [("product", 6), ("pod", 5), ("spod", 5)]
    )
    def test_matches_per_candidate_oracle(self, family, s, n, p, c, theta):
        spec = _study_spec(family, s, c, theta, p)
        rep = cbc_construct(spec, n, s)
        allowed, mean_sq = _cbc_oracle(spec, n, rep.z.tolist())
        for zd, ok in zip(rep.z.tolist(), allowed):
            assert zd in ok
        x = 2.0 * zeta(2 * spec.alpha)
        for d in range(1, s + 1):
            want = mean_sq[d - 1] - squared_weight_sum(
                spec.scheme, d, x
            ).to_float()
            got = rep.criterion_trace[d - 1]
            assert abs(got - max(want, 0.0)) <= 1e-13 * mean_sq[d - 1]

    @pytest.mark.parametrize("alpha", [2, 4, 6, 8])
    @pytest.mark.parametrize("n", [7, 97, 100, 1000])
    def test_candidates_mirror_symmetric(self, n, alpha):
        etable = _eta_table(alpha, n)
        units = [c for c in range(1, n // 2 + 1) if math.gcd(c, n) == 1]
        assert _UnitScorer(n, etable).cands.tolist() == units
        # entry k equals entry n - k bit for bit, so every candidate row
        # eta[(k c) mod n] does too, and the unranked mirror n - c of each
        # candidate c scores the same
        np.testing.assert_array_equal(etable[1:], etable[:0:-1])
        want = eta(alpha, np.arange(n) / n)
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(etable, want, rtol=0, atol=1e-12 * scale)

    def test_tie_rule_on_score_vector(self):
        # D(c) is S_d(c) less a constant shared by all candidates, times a
        # positive factor, and may be negative.  Here the spread of S is 1,
        # so a candidate ties when it lies within _TIE of the lowest; ties
        # go to the smallest candidate.
        for shift in (0.0, -7.0):
            S = np.array([2.0, 1.0 + 0.5 * _TIE, 1.0, 1.0])
            assert _first_within(S + shift) == 1
            S = np.array([2.0, 1.0 + 3.0 * _TIE, 1.0, 1.0])
            assert _first_within(S + shift) == 2
            # the rule compares with the lowest, not along a chain: an
            # ascending scan that replaces its best only on a gain above
            # _TIE would end at index 2
            S = np.array([1.0 + 1.5 * _TIE, 1.0 + 0.6 * _TIE, 1.0, 2.0])
            assert _first_within(S + shift) == 1
            assert _first_within(np.array([5.0]) + shift) == 0
        # the rule reads differences of scores, so a shift shared by every
        # score moves no pick, even where min + margin would round: x is the
        # first multiple of 2^-54 above the margin 0.5 _TIE, and so just
        # outside it, and -0.5 + x is exact
        x = math.ceil(0.5 * _TIE * 2.0**54) * 2.0**-54
        for shift in (0.0, -0.5):
            assert _first_within(np.array([0.5, x, 0.0]) + shift) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_refused(self, bad, monkeypatch):
        # one score that is not finite: the tie rule picks nothing, and the
        # search raises, naming the dimension (the CLI's exit 2)
        assert _first_within(np.array([2.0, bad, 1.0])) is None
        score = _UnitScorer.__call__

        def spoiled(self, x, mix):
            D = score(self, x, mix)
            D[-1] = bad
            return D

        monkeypatch.setattr(_UnitScorer, "__call__", spoiled)
        with pytest.raises(
            FloatingPointError,
            match="candidate scores of dimension 2 are past double range",
        ):
            cbc_construct(_product_spec([0.9, 0.6, 0.4]), 64, 3)

    @pytest.mark.parametrize("n", [13, 64, 257])
    def test_mirror_pairs_go_to_smaller_candidate(self, n):
        # c and n - c give the same kernel values up to rounding of eta
        spec = _product_spec([0.9, 0.6, 0.4, 0.3])
        rep = cbc_construct(spec, n, 4)
        prefix = rep.z[:1].tolist()
        for zd in rep.z[1:]:
            mirror = n - int(zd)
            assert zd < mirror
            mine = criterion_S(spec, Lattice(n, np.array(prefix + [zd])))
            other = criterion_S(spec, Lattice(n, np.array(prefix + [mirror])))
            assert other == pytest.approx(mine, rel=1e-12)
            prefix.append(int(zd))

    def test_reproduces_bundled_vector(self, tmp_path):
        # the command that regenerates the bundled vector
        out = tmp_path / "genvec.txt"
        rc = cli(
            ["cbc", "--weights", "product", "--c", "0.4", "--theta", "2.4",
             "--s", "512", "--n-list", "8192", "--out", str(out)]
        )
        assert rc == 0
        bundled = ROOT / "src" / "latkern" / "data" / "genvec-default.txt"
        assert out.read_bytes() == bundled.read_bytes()
        # the components the benchmark's surrogate workload reads
        assert read_genvec(bundled).z[:16].tolist() == [
            1, 2431, 3739, 985, 3175, 3827, 1473, 2823,
            1045, 2673, 435, 189, 2105, 3703, 2289, 1761,
        ]

    # the fast searches of CHANGES.md's sha1 table, at the CLI's defaults
    # (c = 0.2, theta = 2.4, p = 1/2.2); z only, since the last bits of
    # S_d may depend on the machine
    @pytest.mark.filterwarnings("ignore:criterion value dominated")
    @pytest.mark.parametrize(
        "family, s, n, theta, p, z",
        [
            ("pod", 10, 256, 2.4, 1 / 2.2,
             [1, 99, 111, 27, 91, 121, 31, 87, 63, 19]),
            ("spod", 10, 256, 2.4, 1 / 2.2,
             [1, 99, 67, 113, 107, 119, 45, 35, 47, 91]),
            ("spod", 12, 128, 3.6, 0.3,
             [1, 47, 53, 29, 39, 19, 37, 15, 59, 61, 11, 61]),
            # a multi-axis torus, a prime, and a power of 2
            ("product", 16, 1000, 2.4, 1 / 2.2,
             [1, 367, 419, 297, 221, 281, 241, 137, 57, 479, 309, 489, 271,
              177, 287, 461]),
            ("product", 16, 1021, 2.4, 1 / 2.2,
             [1, 390, 442, 214, 174, 375, 284, 96, 492, 182, 248, 112, 66,
              354, 434, 322]),
            ("product", 32, 1024, 2.4, 1 / 2.2,
             [1, 283, 359, 163, 125, 263, 219, 193, 199, 407, 183, 269, 157,
              393, 69, 49, 451, 323, 479, 187, 473, 299, 169, 335, 423, 231,
              137, 401, 379, 447, 139, 481]),
        ],
    )
    def test_pinned_picks(self, family, s, n, theta, p, z):
        spec = _study_spec(family, s, theta=theta, p=p)
        assert cbc_construct(spec, n, s).z.tolist() == z

    @pytest.mark.filterwarnings("ignore:criterion value dominated")
    def test_pinned_picks_at_high_s(self):
        # the 300 picks of `cbc --weights spod --s 300 --n-list 1024`, whose
        # kernel state keeps 56 of its 601 order rows; no candidate lies
        # within 1 % of a tie margin there (ROADMAP, Baselines)
        z = cbc_construct(_study_spec("spod", 300), 1024, 300).z.tolist()
        assert z[:8] == [1, 275, 179, 319, 109, 299, 143, 191]
        digest = hashlib.sha1(",".join(map(str, z)).encode()).hexdigest()
        assert digest == "e1f739505accf58ee2326a26f3b8ab6e7bd11100"

    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    def test_target_dimension_past_the_weights(self, family, monkeypatch):
        # the kernel state names the first missing coordinate, before any
        # candidate is scored
        def unreachable(*args):
            raise AssertionError("the search began")

        monkeypatch.setattr("latkern.lattice._UnitScorer", unreachable)
        spec = _study_spec(family, 4)
        with pytest.raises(
            ValueError, match="coordinate 5 is past the weight sequence"
        ):
            cbc_construct(spec, 64, 5)
        with pytest.raises(ValueError, match="s must be at least 1"):
            cbc_construct(spec, 64, 0)

    def test_pick_is_the_exact_minimum_spod_256(self):
        # The search's pick must be within _TIE of the spread of S_2 above
        # the exact minimum.  Ranking by the full score, whose 1e-12 tie
        # margin is about 1e-12 * 10^11.5 S_2 here, picked c = 75 at
        # 1.0005 times the minimum (c = 99), 2.3e-10 of the spread above it.
        spec = _study_spec("spod", 10)
        pick = int(cbc_construct(spec, 256, 2).z[1])
        with mpmath.workdps(40):
            S = _exact_s2(spec, 256)
            lo, hi = min(S.values()), max(S.values())
            assert lo > 0
            assert S[pick] - lo <= _TIE * (hi - lo)

    def test_digits_lost_behind_cancellation_warning(self):
        spec = _study_spec("spod", 10)
        with pytest.warns(RuntimeWarning, match="significance lost"):
            rep = cbc_construct(spec, 1024, 10)
        assert len(rep.digits_lost) == 10
        x = 2.0 * zeta(2 * spec.alpha)
        for d, (sd, lost) in enumerate(
            zip(rep.criterion_trace, rep.digits_lost), start=1
        ):
            mean_sq = sd + squared_weight_sum(spec.scheme, d, x).to_float()
            assert lost == pytest.approx(math.log10(mean_sq / sd), abs=1e-9)
        # the warning fires once more than 13 of the ~16 digits cancel
        assert max(rep.digits_lost) > 13.0
        assert rep.to_csv().count("\n") == 11

    def test_csv_dump(self):
        spec = _product_spec([0.9, 0.6])
        csv = cbc_construct(spec, 7, 2).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "dimension,z_d,S_d,bound_d"
        assert len(lines) == 3


class TestUnitScorer:
    # cyclic groups (prime n, odd prime powers and their doubles), U(4) =
    # <3>, the {+-1} x <5> of 2^e, and mixed CRT products
    GROUP_NS = (
        2, 3, 4, 8, 9, 18, 27, 54, 72, 90, 97, 100, 194, 243, 256, 257,
        1000, 1021, 1024,
    )

    @pytest.mark.parametrize("n", GROUP_NS)
    def test_torus_is_the_unit_group(self, n):
        units = _unit_torus(n)
        want = [c for c in range(1, n) if math.gcd(c, n) == 1]
        assert sorted(units.ravel().tolist()) == want
        # a step along an axis multiplies by that axis's generator, so
        # multiplying units adds coordinates
        for axis in range(units.ndim):
            step = [0] * units.ndim
            step[axis] = 1 % units.shape[axis]
            gen = units[tuple(step)]
            np.testing.assert_array_equal(
                np.roll(units, -1, axis=axis), units * gen % n
            )

    @pytest.mark.parametrize("p", [3, 5, 7, 29, 487, 40487])
    def test_primitive_root_generates_mod_p_squared(self, p):
        # 5 is the smallest primitive root mod 40487 but has order p - 1
        # mod 40487^2, so the units mod higher powers need 5 + p
        g = _primitive_root(p)
        order = p * (p - 1)
        for q, _ in _prime_powers(order):
            assert pow(g, order // q, p * p) != 1
        if p == 40487:
            assert g == 5 + p

    @pytest.mark.parametrize(
        "n,folded",
        [(n, True) for n in (3, 4, 8, 9, 18, 97, 256)]
        + [(n, False) for n in (72, 100, 1000)],
    )
    def test_torus_folds_where_minus_one_is_a_half_turn(self, n, folded):
        # -1 is the half turn of the one axis of a cyclic U(n), and of the
        # length-2 axis of 2^e; at 72, 100 and 1000 it turns two axes
        phi = sum(math.gcd(c, n) == 1 for c in range(1, n))
        scorer = _UnitScorer(n, _eta_table(2, n))
        size = phi // 2 if folded else phi
        assert scorer.idx.shape[1] == math.prod(scorer.shape) == size
        # a class for every divisor m > 1 of n: the point k = 0 alone meets
        # eta(0) whatever the candidate, and no class reads it
        classes = len(scorer.idx)
        assert classes == sum(n % m == 0 for m in range(1, n + 1)) - 1
        assert np.all(scorer.idx != 0)
        # per row of basis: the eta or eta^2 spectrum of every class, as
        # pairs of floats, and nothing else
        *lead, last = scorer.shape
        spectrum = math.prod(lead) * (last // 2 + 1)
        assert scorer.basis.shape == (2, classes * 2 * spectrum)
        # every candidate c <= n/2 is one position of the torus: all of
        # them where it is folded
        assert scorer.cands.tolist() == [
            c for c in range(1, n // 2 + 1) if math.gcd(c, n) == 1
        ]

    @pytest.mark.parametrize("alpha", [2, 4])
    @pytest.mark.parametrize("n", GROUP_NS)
    def test_fft_matches_direct_formula(self, n, alpha):
        etable = _eta_table(alpha, n)
        scorer = _UnitScorer(n, etable)
        rng = np.random.default_rng(n)
        spec = _study_spec("spod", 5)
        cases = [
            (rng.standard_normal(n), rng.random(n)),
            (rng.standard_normal(n) * np.exp(4 * rng.standard_normal(n)),
             rng.random(n) ** 4),
        ]
        if alpha == spec.alpha:
            cases.append(_affine_inputs(spec, n, [1, n - 1]))
        # the scorer gives D up to a shift shared by every candidate, which
        # moves no ranking; n <= 4 has one candidate, and nothing to rank
        for u, v in cases:
            got = scorer(np.stack([u, v]), np.eye(2))
            want = _direct_D(u, v, etable, scorer.cands)
            assert np.ptp(got - want) <= 1e-13 * np.ptp(want)
            # the mirror n - c of each candidate scores the same
            mirror = _direct_D(u, v, etable, n - scorer.cands)
            np.testing.assert_array_equal(mirror, want)
        # product weights: b = gamma_2 a, scored as the one sequence a^2
        # against 2 gamma_2 eta + gamma_2^2 eta^2, as the search does; the
        # direct D takes u = 2ab and v = b^2 from the affine split
        spec = _product_spec([0.9, 0.6, 0.4], alpha)
        state = BatchKernelState(spec.scheme, n)
        state.commit(etable)
        a, b = state.affine_split()
        g = spec.scheme.gamma_jnu[1, 0]
        got = scorer((a * a)[None], np.array([[2.0 * g, g * g]]))
        want = _direct_D(2.0 * a * b, b * b, etable, scorer.cands)
        assert np.ptp(got - want) <= 1e-13 * np.ptp(want)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="the direct reference needs a long double wider than float64",
    )
    @pytest.mark.parametrize(
        "family,n,s", [("product", 1024, 32), ("pod", 1024, 10),
                       ("spod", 1024, 10), ("spod", 257, 10),
                       ("product", 1021, 32)]
    )
    def test_tie_margin_above_fft_noise(self, family, n, s, monkeypatch):
        # the scores the search ranks differ from the direct long-double D
        # by less than _TIE / 100 of the spread of D, up to a shift shared
        # by every candidate, which moves no ranking; product weights are
        # ranked by their one-sequence route
        spec = _study_spec(family, s)
        ranked = []
        score = _UnitScorer.__call__

        def spy(self, x, mix):
            ranked.append(score(self, x, mix))
            return ranked[-1]

        monkeypatch.setattr(_UnitScorer, "__call__", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            z = cbc_construct(spec, n, s).z.tolist()
        assert len(ranked) == s - 1
        etable = _eta_table(spec.alpha, n)
        scorer = _UnitScorer(n, etable)
        for d, got in enumerate(ranked, start=2):
            u, v = _affine_inputs(spec, n, z[: d - 1])
            want = _direct_D(u, v, etable, scorer.cands)
            err = got - want
            spread = float(want.max() - want.min())
            assert float(err.max() - err.min()) <= _TIE / 100 * spread
            # and the pick is the smallest within the margin of the direct D
            lo = want.min()
            i = int(np.argmax(want <= lo + _TIE * spread))
            assert scorer.cands[i] == z[d - 1]


class TestFoolingVector:
    def test_n4_example(self):
        h = fooling_vector(4, np.array([1, 1]))
        assert np.any(h != 0)
        assert abs(h[0]) <= 2 and abs(h[1]) <= 2
        assert (h[0] + h[1]) % 4 == 0

    @pytest.mark.parametrize("n,z", [(16, (1, 7)), (13, (1, 5)), (64, (1, 27))])
    def test_congruence_and_bound(self, n, z):
        h = fooling_vector(n, np.array(z))
        assert int(h @ np.array(z)) % n == 0
        assert np.max(np.abs(h)) <= math.isqrt(n)
        assert np.any(h != 0)

    def test_fooling_function_vanishes_on_lattice(self):
        n, z = 32, np.array([1, 13])
        h = fooling_vector(n, z)
        lat = Lattice(n, z)
        pts = lat.points()
        q = np.exp(2j * np.pi * h[0] * pts[:, 0]) - np.exp(
            -2j * np.pi * h[1] * pts[:, 1]
        )
        assert np.max(np.abs(q)) <= 1e-12

    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            fooling_vector(8, np.array([1]))


class TestGenvecIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "z.txt"
        z = np.array([1, 182667, 13])
        write_genvec(path, z, 2**20)
        lat = read_genvec(path)
        assert lat.n == 2**20
        np.testing.assert_array_equal(lat.z, z)

    def test_literal_format(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("1 1\n2 182667\n")
        lat = read_genvec(path, n=2**20)
        np.testing.assert_array_equal(lat.z, [1, 182667])

    def test_header_n_must_match_requested_n(self, tmp_path):
        path = tmp_path / "z.txt"
        write_genvec(path, np.array([1, 27]), 64)
        assert read_genvec(path, 64).n == 64
        with pytest.raises(ValueError, match="n=64.*n=16"):
            read_genvec(path, 16)

    def test_missing_n_errors(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("1 1\n")
        with pytest.raises(ValueError, match="n"):
            read_genvec(path)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("# n=8\n1 1\nbroken\n")
        with pytest.raises(ValueError, match=":3"):
            read_genvec(path)

    def test_dimension_gap_rejected(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("# n=8\n1 1\n3 5\n")
        with pytest.raises(ValueError, match="sequence"):
            read_genvec(path)

    def test_non_integer_token(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("# n=8\n1 x\n")
        with pytest.raises(ValueError, match="non-integer"):
            read_genvec(path)

    def test_non_integer_header_reports_lineno(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("\n# n=abc\n1 1\n")
        with pytest.raises(ValueError, match=r"z\.txt:2: non-integer n"):
            read_genvec(path)
