import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from latkern.experiments import derive_for_family
from latkern.interpolant import (
    SingularSpectrumError,
    _check_spectrum,
    build,
    circulant_spectrum,
    evaluate,
    l2_error_estimate,
)
from latkern.kernel import KernelSpec, frac, kernel_values_batch
from latkern.lattice import Lattice, cbc_construct
from latkern.pde import DiffusionModel, decay_sequence
from latkern.weights import PdeWeightInput, WeightScheme
from reference import (
    TrigPolynomial,
    fooling_vector,
    h_norm,
    kernel_eval,
    rnorm,
)
from test_fourier import naive_dft


def _spec(gammas=(0.9, 0.6, 0.4), alpha=2):
    return KernelSpec(
        alpha, WeightScheme("product", gamma_j=np.asarray(gammas))
    )


def _dense_gram_solve(spec, lat, values):
    pts = lat.points()
    G = np.array(
        [[kernel_eval(spec, pts[k], pts[kp]) for k in range(lat.n)]
         for kp in range(lat.n)]
    )
    return np.linalg.solve(G, values)


def _family_spec(family):
    s = 4
    model = DiffusionModel(0.2, 2.4, s)
    inp = PdeWeightInput(1.0 / 2.2, decay_sequence(model, s), 0.1)
    params = derive_for_family(family, inp, s)
    return KernelSpec(params.alpha, params.scheme)


class TestSpectrum:
    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    @pytest.mark.parametrize("n", [7, 64, 97, 100, 257])
    def test_matches_naive_dft_of_kernel_column(self, family, n):
        # the column a_k = K(t_k, 0) is symmetric, so its DFT is real
        spec = _family_spec(family)
        lat = cbc_construct(spec, n, 4).lattice()
        pts = lat.points()
        col = [kernel_eval(spec, pts[k], np.zeros(4)) for k in range(n)]
        want = naive_dft(col)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(want.imag)) <= 1e-12 * scale
        got = build(spec, lat, np.zeros(n)).spectrum
        assert got.shape == (n // 2 + 1,)
        assert np.max(np.abs(got - want[: n // 2 + 1].real)) <= 1e-10 * scale


class TestCoordinateMajorColumns:
    # the kernel column and spectrum are formed from the (s, n) columns;
    # the reference is kernel_values_batch on the C-contiguous (n, s)
    # differences t_j - {y}, the row-major route
    @pytest.mark.parametrize("family", ["product", "pod", "spod"])
    @pytest.mark.parametrize("n", [64, 257])
    def test_bit_equal_to_row_major_differences(self, family, n):
        spec = _family_spec(family)
        lat = Lattice(n, np.array([1, 27, 15, 5]))
        rng = np.random.default_rng(n)
        ys = [rng.random(4), -rng.random(4), 1.0 + 3.0 * rng.random(4),
              np.array([0.0, -2.5, 1.0, 0.75])]
        for y in ys:
            dy = np.ascontiguousarray(lat.points() - frac(y))
            np.testing.assert_array_equal(
                kernel_values_batch(spec, lat.points(), y),
                kernel_values_batch(spec, dy),
            )
        want = np.fft.rfft(
            kernel_values_batch(spec, np.ascontiguousarray(lat.points()))
        ).real
        np.testing.assert_array_equal(circulant_spectrum(spec, lat), want)


class TestLazyTransforms:
    @pytest.mark.parametrize("shape", [(64,), (3, 64)])
    def test_bit_equal_to_eager_formulas(self, shape):
        spec = _family_spec("spod")
        lat = Lattice(64, np.array([1, 27, 15, 5]))
        values = np.random.default_rng(1).standard_normal(shape)
        spectrum = circulant_spectrum(spec, lat)
        coeff_fft = np.fft.rfft(values) / spectrum
        coeffs = np.fft.irfft(coeff_fft, n=64)
        node_vals = np.fft.irfft(coeff_fft * spectrum, n=64)
        residual = float(np.max(np.abs(node_vals - values)))
        itp = build(spec, lat, values)
        np.testing.assert_array_equal(itp.coeff_fft, coeff_fft)
        np.testing.assert_array_equal(itp.coeffs, coeffs)
        assert itp.coeffs.shape == shape
        assert itp.residual == residual

    def test_values_held_by_reference(self):
        values = np.arange(16.0)
        itp = build(_spec(), Lattice(16, np.array([1, 7, 5])), values)
        assert itp.values is values

    def test_inverse_transforms_run_only_when_read(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(np.fft, name)

            def transform(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return transform

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(name))
        lat = Lattice(16, np.array([1, 7, 5]))
        itp = build(_spec(), lat, np.ones((2, 16)))
        assert "irfft" not in calls
        calls.clear()
        coeffs = itp.coeffs
        assert calls == ["irfft"]
        assert itp.coeffs is coeffs
        assert itp.residual <= 1e-12
        assert calls == ["irfft", "irfft"]
        itp.residual
        assert calls == ["irfft", "irfft"]


class TestBuild:
    def test_n1(self):
        spec = _spec((0.5,))
        lat = Lattice(1, np.array([1]))
        itp = build(spec, lat, np.array([3.7]))
        k00 = kernel_eval(spec, [0.0], [0.0])
        assert itp.coeffs[0] == pytest.approx(3.7 / k00, rel=1e-14)
        assert evaluate(itp, [0.25]) == pytest.approx(
            itp.coeffs[0] * kernel_eval(spec, [0.0], [0.25]), rel=1e-13
        )

    def test_constant_values(self):
        spec = _spec()
        lat = Lattice(16, np.array([1, 7, 5]))
        itp = build(spec, lat, np.full(16, 2.5))
        assert itp.residual <= 1e-10 * 2.5

    def test_matches_dense_gram_oracle(self):
        spec = _spec((0.9, 0.6, 0.4, 0.2))
        lat = cbc_construct(spec, 16, 4).lattice()
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(16)
        itp = build(spec, lat, vals)
        dense = _dense_gram_solve(spec, lat, vals)
        np.testing.assert_allclose(itp.coeffs, dense, rtol=1e-9, atol=1e-12)

    def test_hand_solved_n2(self):
        spec = _spec((0.8,))
        lat = Lattice(2, np.array([1]))
        v = np.array([1.3, -0.4])
        a = kernel_eval(spec, [0.0], [0.0])
        b = kernel_eval(spec, [0.5], [0.0])
        det = a * a - b * b
        want = np.array(
            [(a * v[0] - b * v[1]) / det, (a * v[1] - b * v[0]) / det]
        )
        itp = build(spec, lat, v)
        np.testing.assert_allclose(itp.coeffs, want, rtol=1e-12)

    def test_hand_solved_n3(self):
        spec = _spec((0.8,))
        lat = Lattice(3, np.array([1]))
        v = np.array([0.2, 1.0, -0.7])
        pts = lat.points()
        G = np.array(
            [[kernel_eval(spec, pts[i], pts[j]) for j in range(3)]
             for i in range(3)]
        )
        want = np.linalg.solve(G, v)
        itp = build(spec, lat, v)
        np.testing.assert_allclose(itp.coeffs, want, rtol=1e-11)

    def test_spectrum_nonzero(self):
        spec = _spec()
        lat = Lattice(32, np.array([1, 13, 9]))
        itp = build(spec, lat, np.zeros(32))
        assert np.min(np.abs(itp.spectrum)) > 0.0

    def test_nan_spectrum_is_singular(self):
        # NaN fails min < 1e-13 max as it fails every comparison
        with pytest.raises(SingularSpectrumError):
            _check_spectrum(np.array([1.0, math.nan, 0.5]))

    def test_wrong_length_rejected(self):
        spec = _spec()
        with pytest.raises(ValueError):
            build(spec, Lattice(8, np.array([1, 3, 5])), np.zeros(7))

    @pytest.mark.parametrize("shape", [(15,), (3, 15)])
    def test_given_spectrum_keeps_the_bits(self, shape):
        # a caller that formed the spectrum first gets the interpolant that
        # build forms on its own
        spec = _spec()
        lat = Lattice(15, np.array([1, 4, 11]))
        v = np.random.default_rng(3).standard_normal(shape)
        want = build(spec, lat, v)
        got = build(spec, lat, v, circulant_spectrum(spec, lat))
        for name in ("spectrum", "coeff_fft", "coeffs"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()
        assert got.residual == want.residual

    def test_spectrum_of_the_wrong_shape_refused(self):
        spec = _spec()
        lat = Lattice(16, np.array([1, 7, 5]))
        spectrum = circulant_spectrum(spec, lat)  # 9 entries
        for bad in (spectrum[:-1], np.append(spectrum, 1.0), spectrum[None]):
            with pytest.raises(ValueError, match=r"must have shape \(9,\)"):
                build(spec, lat, np.zeros(16), bad)


class TestEvaluate:
    def test_interpolation_condition(self):
        spec = _spec()
        lat = cbc_construct(spec, 16, 3).lattice()
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(16)
        itp = build(spec, lat, vals)
        for k in range(16):
            assert evaluate(itp, lat.points()[k]) == pytest.approx(
                vals[k], rel=1e-8, abs=1e-10
            )

    def test_linearity(self):
        spec = _spec()
        lat = Lattice(16, np.array([1, 7, 5]))
        rng = np.random.default_rng(4)
        f, g = rng.standard_normal(16), rng.standard_normal(16)
        combo = build(spec, lat, 2.0 * f + 3.0 * g)
        fi, gi = build(spec, lat, f), build(spec, lat, g)
        for y in rng.random((5, 3)):
            want = 2.0 * evaluate(fi, y) + 3.0 * evaluate(gi, y)
            assert evaluate(combo, y) == pytest.approx(
                want, rel=1e-10, abs=1e-10
            )

    def test_periodicity(self):
        spec = _spec()
        lat = Lattice(8, np.array([1, 3, 5]))
        itp = build(spec, lat, np.arange(8.0))
        y = np.array([0.12, 0.77, 0.31])
        shift = y + np.array([2.0, -1.0, 5.0])
        assert evaluate(itp, y) == pytest.approx(
            evaluate(itp, shift), rel=1e-12
        )


class TestShiftedUnion:
    def test_zero_shift_gives_node_values(self):
        spec = _spec()
        lat = Lattice(16, np.array([1, 7, 5]))
        rng = np.random.default_rng(6)
        vals = rng.standard_normal(16)
        itp = build(spec, lat, vals)
        su = itp.shifted_union(np.zeros(3))
        np.testing.assert_allclose(su, vals, rtol=1e-10, atol=1e-12)

    def test_matches_direct_evaluation(self):
        spec = _spec()
        lat = cbc_construct(spec, 32, 3).lattice()
        rng = np.random.default_rng(8)
        itp = build(spec, lat, rng.standard_normal(32))
        y = rng.random(3)
        su = itp.shifted_union(y)
        direct = [
            evaluate(itp, (y + lat.points()[k]) % 1.0) for k in range(32)
        ]
        np.testing.assert_allclose(su, direct, rtol=1e-10, atol=1e-12)

    def test_row_blocks_match_single_functions(self):
        # n = 8192 takes 2^16 // 4097 = 15 rows per block, so 64 functions
        # run in five blocks, the last one short; each row is the single
        # function's union bit for bit.  The whole product coeff_fft * chat
        # at once would be as large as the result again; the blocks keep
        # the transient below the result plus 2 MiB
        spec = _spec((0.9, 0.6, 0.4, 0.3))
        lat = Lattice(8192, np.array([1, 3455, 2865, 1019]))
        rng = np.random.default_rng(13)
        V = rng.standard_normal((64, 8192))
        batch = build(spec, lat, V)
        y = rng.random(4)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            su = batch.shifted_union(y)
            transient = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert su.shape == (64, 8192)
        assert transient < su.nbytes + 2 * 2**20
        for i in (0, 14, 15, 44, 60, 63):
            np.testing.assert_array_equal(
                su[i], build(spec, lat, V[i]).shifted_union(y)
            )
        # F-ordered values (the study's solves) give an F-ordered union,
        # whose transpose the warm-started solves read at unit stride
        su_f = build(spec, lat, np.asfortranarray(V)).shifted_union(y)
        assert su_f.flags.f_contiguous
        np.testing.assert_array_equal(su_f, su)


class TestParameterLength:
    @pytest.mark.parametrize("y", [[0.3], 0.3, [0.1] * 5, np.zeros((1, 4))])
    def test_y_must_have_s_components(self, y):
        # a 1-vector once broadcast over all s coordinates without a word
        lat = Lattice(16, np.array([1, 7, 5, 3]))
        itp = build(_spec((0.9, 0.6, 0.4, 0.3)), lat, np.arange(16.0))
        msg = re.escape(
            f"y has shape {np.shape(y)}; the differences need shape (4,)"
        )
        with pytest.raises(ValueError, match=msg):
            evaluate(itp, y)
        with pytest.raises(ValueError, match=msg):
            itp.shifted_union(y)
        assert np.isfinite(evaluate(itp, [0.3] * 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_y_must_be_finite(self, bad):
        # once a FloatingPointError that blamed an overflow
        lat = Lattice(16, np.array([1, 7, 5, 3]))
        itp = build(_spec((0.9, 0.6, 0.4, 0.3)), lat, np.arange(16.0))
        y = [0.3, 0.1, bad, 0.7]
        msg = re.escape(f"the offset must be finite: y_3 = {bad}")
        with pytest.raises(ValueError, match=msg):
            evaluate(itp, y)
        with pytest.raises(ValueError, match=msg):
            itp.shifted_union(y)

    @pytest.mark.parametrize(
        "z, y, got",
        [([1], 0.25, "()"), ([1, 3], [[0.1, 0.2]], "(1, 2)")],
    )
    def test_message_names_both_shapes(self, z, y, got):
        # a scalar at s = 1 and a (1, s) row have as many entries as y
        # needs, so a count of components named no difference
        lat = Lattice(8, np.array(z))
        itp = build(_spec((0.9, 0.6)[: len(z)]), lat, np.arange(8.0))
        want = f"({len(z)},)"
        msg = f"y has shape {got}; the differences need shape {want}"
        for call in (lambda: evaluate(itp, y), lambda: itp.shifted_union(y)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value).startswith(msg)


class TestHNorm:
    def test_constant(self):
        f = TrigPolynomial({(0, 0, 0): -2.5})
        assert h_norm(_spec(), f) == pytest.approx(2.5)

    def test_single_frequency(self):
        spec = _spec()
        h = (2, 0, 1)
        f = TrigPolynomial({h: 1.0})
        want = math.sqrt(rnorm(spec.alpha, spec.scheme, h).to_float())
        assert h_norm(spec, f) == pytest.approx(want, rel=1e-12)

    def test_pythagoras(self):
        # Pythagoras ||f||^2 = ||f - f_n||^2 + ||f_n||^2 is equivalent to
        # <f, f_n> = ||f_n||^2.  Both sides are computed by independent
        # exact routes: the inner product as a finite Fourier sum (f is
        # band-limited) and the norm as coeffs . values by kernel algebra.
        spec = _spec((0.9, 0.6), alpha=2)
        lat = Lattice(8, np.array([1, 3]))
        pts = lat.points()
        terms = {}
        rng = np.random.default_rng(11)
        for h in [(0, 0), (1, 0), (0, 2), (1, 1), (2, -1), (-1, 3)]:
            c = complex(rng.standard_normal(), rng.standard_normal())
            terms[h] = c
            terms[tuple(-v for v in h)] = np.conj(c)
        f = TrigPolynomial(terms)
        vals = np.real(f(pts))
        itp = build(spec, lat, vals)
        inner = 0.0
        for h, fc in terms.items():
            phase = np.exp(-2j * np.pi * (pts @ np.asarray(h, float)))
            r = rnorm(spec.alpha, spec.scheme, h).to_float()
            fn_hat = np.sum(itp.coeffs * phase) / r
            inner += np.real(fc * np.conj(fn_hat)) * r
        norm_sq = float(np.dot(itp.coeffs, vals))
        assert inner == pytest.approx(norm_sq, rel=1e-6)
        # and the implied error norm is nonnegative
        assert h_norm(spec, f) ** 2 - norm_sq >= -1e-10


class TestL2ErrorEstimate:
    def _setup(self):
        spec = _spec()
        lat = Lattice(16, np.array([1, 7, 5]))
        rng = np.random.default_rng(13)
        itp = build(spec, lat, rng.standard_normal(16))
        sampler = rng.random((4, 3))
        return spec, lat, itp, sampler

    def test_self_is_zero(self):
        _, _, itp, sampler = self._setup()
        err = l2_error_estimate(
            itp, lambda P, guess: [evaluate(itp, p) for p in P], sampler,
            np.square,
        )
        assert err <= 1e-12

    def test_constant_offset(self):
        _, _, itp, sampler = self._setup()
        err = l2_error_estimate(
            itp,
            lambda P, guess: np.array([evaluate(itp, p) for p in P]) + 0.75,
            sampler,
            np.square,
        )
        assert err == pytest.approx(0.75, rel=1e-10)

    def test_aliased_frequency_error(self):
        # f = cos(2 pi h.y) with h in the dual lattice, h not an aliasing
        # representative of 0 of its own class... the interpolant sees node
        # data identical to the aliased representative and the estimated
        # error matches dense sampling
        spec = _spec((0.9, 0.6))
        n, z = 8, np.array([1, 3])
        lat = Lattice(n, z)
        h = fooling_vector(n, z)
        f = TrigPolynomial({tuple(h): 0.5, tuple(-h): 0.5})
        vals = np.real(f(lat.points()))
        itp = build(spec, lat, vals)
        g = np.linspace(0.0, 1.0, 60, endpoint=False)
        G = np.array([[a, b] for a in g for b in g])
        approx = np.array([evaluate(itp, p) for p in G])
        dense = math.sqrt(np.mean((np.real(f(G)) - approx) ** 2))
        sampler = np.random.default_rng(17).random((30, 2))
        est = l2_error_estimate(
            itp, lambda P, guess: np.real(f(P)), sampler, np.square
        )
        assert est == pytest.approx(dense, rel=0.15)
        assert est > 0.1  # genuinely nonzero aliasing error

    def test_truth_receives_the_shifted_union(self):
        # the guess a truth may start from is the interpolant at its points
        _, lat, itp, sampler = self._setup()
        seen = []

        def truth(P, guess):
            seen.append((P, guess))
            return guess

        assert l2_error_estimate(itp, truth, sampler, np.square) == 0.0
        assert len(seen) == len(sampler)
        for y, (P, guess) in zip(sampler, seen):
            np.testing.assert_array_equal(P, frac(y + lat.points()))
            np.testing.assert_array_equal(guess, itp.shifted_union(y))


class TestLowerBound:
    def test_fooling_function_and_l1_norm(self):
        n, z = 64, np.array([1, 27])
        h = fooling_vector(n, z)
        lat = Lattice(n, z)
        pts = lat.points()
        q = np.exp(2j * np.pi * h[0] * pts[:, 0]) - np.exp(
            -2j * np.pi * h[1] * pts[:, 1]
        )
        assert np.max(np.abs(q)) <= 1e-12
        # interpolating its (zero) node data yields the zero interpolant
        spec = _spec((0.9, 0.6))
        itp = build(spec, lat, np.real(q))
        assert np.max(np.abs(itp.coeffs)) <= 1e-12
        # dense L1 norm = 4/pi
        g = np.linspace(0.0, 1.0, 1000, endpoint=False)
        Y1, Y2 = np.meshgrid(g, g, indexing="ij")
        qv = np.abs(
            np.exp(2j * np.pi * h[0] * Y1) - np.exp(-2j * np.pi * h[1] * Y2)
        )
        assert np.mean(qv) == pytest.approx(4.0 / math.pi, abs=1e-3)


class TestBatchSharedSpectrum:
    def test_matches_individual_builds(self):
        spec = _spec()
        lat = cbc_construct(spec, 16, 3).lattice()
        rng = np.random.default_rng(19)
        V = rng.standard_normal((5, 16))
        batch = build(spec, lat, V)
        y = rng.random(3)
        su = batch.shifted_union(y)
        for i in range(5):
            itp = build(spec, lat, V[i])
            want = itp.shifted_union(y)
            np.testing.assert_allclose(su[i], want, rtol=1e-12, atol=1e-12)


class TestOptimalitySanity:
    def test_beats_truncated_fourier_quadrature(self):
        # kernel interpolant error <= truncated-Fourier-by-quadrature error
        # on the same lattice data (within 2x sampling noise)
        spec = _spec((0.9, 0.6), alpha=2)
        lat = cbc_construct(spec, 32, 2).lattice()
        pts = lat.points()
        rng = np.random.default_rng(23)
        terms = {}
        for h in [(1, 0), (0, 1), (2, 3), (1, -2), (4, 1), (3, -4)]:
            c = complex(rng.standard_normal(), rng.standard_normal())
            terms[h] = c
            terms[tuple(-v for v in h)] = np.conj(c)
        f = TrigPolynomial(terms)
        norm = h_norm(spec, f)
        terms = {h: c / norm for h, c in terms.items()}
        f = TrigPolynomial(terms)
        vals = np.real(f(pts))
        itp = build(spec, lat, vals)
        H = 8
        quad_terms = {}
        for h1, h2 in itertools.product(range(-H, H + 1), repeat=2):
            phase = np.exp(-2j * np.pi * (pts @ np.array([h1, h2])))
            quad_terms[(h1, h2)] = np.sum(vals * phase) / lat.n
        fq = TrigPolynomial(quad_terms)
        G = np.random.default_rng(29).random((4000, 2))
        e_kernel = math.sqrt(
            np.mean(
                (np.real(f(G)) - [evaluate(itp, p) for p in G]) ** 2
            )
        )
        e_quad = math.sqrt(np.mean((np.real(f(G)) - np.real(fq(G))) ** 2))
        assert e_kernel <= 2.0 * e_quad + 1e-12
