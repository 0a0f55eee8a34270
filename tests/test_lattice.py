import copy
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from latkern.experiments import derive_for_family
from latkern.kernel import (
    BatchKernelState,
    KernelSpec,
    eta,
    kernel_eval,
    rnorm,
)
from latkern.lattice import (
    Lattice,
    _first_best,
    _scaled_sumsq,
    cbc_construct,
    criterion_S,
    fooling_vector,
    lattice_point,
    read_genvec,
    write_genvec,
)
from latkern.pde import DiffusionModel, decay_sequence
from latkern.special import zeta
from latkern.weights import PdeWeightInput, WeightScheme, squared_weight_sum

ROOT = Path(__file__).resolve().parent.parent


def _product_spec(gammas, alpha=2):
    return KernelSpec(alpha, WeightScheme("product", gamma_j=np.asarray(gammas)))


def _study_spec(family, s, c=0.2, theta=2.4):
    """Weights derived from the diffusion model, as the studies derive them."""
    model = DiffusionModel(c, theta, s)
    inp = PdeWeightInput(1.0 / 2.2, decay_sequence(model, s), 0.1)
    params = derive_for_family(family, inp, s)
    return KernelSpec(params.alpha, params.scheme)


def _cbc_oracle(spec, n, s):
    """CBC by a loop over candidates, each scored from its own kernel values.

    Each candidate is committed on a copy of the kernel state and its
    kernel values are squared and summed with `_scaled_sumsq`.  A candidate
    replaces the best so far only if it scores below best * (1 - 1e-12).
    Returns z and the mean-square kernel of each chosen prefix.
    """
    cands = [c for c in range(1, n) if math.gcd(c, n) == 1]
    etable = eta(spec.alpha, np.arange(n, dtype=float) / n)
    k = np.arange(n, dtype=np.int64)
    state = BatchKernelState(spec, n, s)
    z, mean_sq = [], []
    for _ in range(s):
        best_c, best = None, None
        for c in cands:
            trial = copy.deepcopy(state)
            trial.commit(etable[(k * c) % n])
            score = _scaled_sumsq(*trial.values())
            if best is None or score < best * (1.0 - 1e-12):
                best_c, best = c, score
        state.commit(etable[(k * best_c) % n])
        z.append(best_c)
        mean_sq.append((best / float(n)).to_float())
    return z, mean_sq


class TestLattice:
    def test_point_example(self):
        lat = Lattice(5, np.array([1, 2]))
        np.testing.assert_allclose(lattice_point(lat, 1), [0.2, 0.4])

    def test_wraparound_point(self):
        lat = Lattice(5, np.array([1, 2]))
        np.testing.assert_allclose(lattice_point(lat, 5), [0.0, 0.0])

    def test_k_out_of_range(self):
        lat = Lattice(5, np.array([1, 2]))
        with pytest.raises(ValueError):
            lattice_point(lat, 6)

    def test_group_property(self):
        lat = Lattice(7, np.array([1, 3, 5]))
        pts = lat.points()
        for k, kp in itertools.product(range(7), repeat=2):
            diff = (pts[k] - pts[kp]) % 1.0
            np.testing.assert_allclose(
                diff, pts[(k - kp) % 7], atol=1e-12
            )

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            Lattice(6, np.array([1, 2]))

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            Lattice(5, np.array([0, 1]))
        with pytest.raises(ValueError):
            Lattice(5, np.array([5, 1]))


class TestCriterion:
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


class TestCbc:
    def test_dimension_one_all_units_equal(self):
        spec = _product_spec([0.7])
        vals = [
            criterion_S(spec, Lattice(7, np.array([c]))) for c in range(1, 7)
        ]
        assert max(vals) - min(vals) < 1e-12 * max(vals)
        assert cbc_construct(spec, 7, 1).z[0] == 1

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
        assert not rep.n_is_prime == (13 != 13)  # 13 is prime
        assert rep.n_is_prime
        assert len(rep.criterion_trace) == 3
        for s, b in zip(rep.criterion_trace, rep.wce_bound_trace):
            assert s >= 0.0
            assert b == pytest.approx(math.sqrt(2.0) * s**0.25)
        assert rep.criterion_trace == sorted(rep.criterion_trace)
        assert not cbc_construct(spec, 8, 2).n_is_prime

    @pytest.mark.parametrize("n", [2, 13, 16, 64, 256, 257])
    @pytest.mark.parametrize(
        "family,s", [("product", 6), ("pod", 5), ("spod", 5)]
    )
    def test_matches_per_candidate_oracle(self, family, s, n):
        spec = _study_spec(family, s)
        rep = cbc_construct(spec, n, s)
        z, mean_sq = _cbc_oracle(spec, n, s)
        assert rep.z.tolist() == z
        x = 2.0 * zeta(2 * spec.alpha)
        for d in range(1, s + 1):
            want = mean_sq[d - 1] - squared_weight_sum(
                spec.scheme, d, x
            ).to_float()
            got = rep.criterion_trace[d - 1]
            assert abs(got - max(want, 0.0)) <= 1e-13 * mean_sq[d - 1]

    def test_tie_rule_on_score_vector(self):
        # ties within 1e-12 stay with the earlier (smaller) candidate, and
        # the rule is applied in ascending order, not to the global minimum
        assert _first_best(np.array([3.0, 1.0, 1.0 - 1e-13, 2.0])) == 1
        assert _first_best(np.array([3.0, 1.0, 1.0 - 2e-12])) == 2
        chain = np.array([1.0, 1.0 - 0.6e-12, 1.0 - 1.2e-12])
        assert _first_best(chain) == 2
        assert _first_best(np.array([5.0])) == 0

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

    def test_reproduces_bundled_vector(self):
        # the weights scripts/make_default_genvec.py builds the vector with
        path = ROOT / "scripts" / "make_default_genvec.py"
        mod_spec = importlib.util.spec_from_file_location("make_genvec", path)
        script = importlib.util.module_from_spec(mod_spec)
        mod_spec.loader.exec_module(script)
        rep = cbc_construct(script.default_spec(), 8192, 6)
        bundled = read_genvec(
            ROOT / "src" / "latkern" / "data" / "genvec-default.txt"
        )
        assert rep.z.tolist() == [1, 2431, 3739, 985, 3175, 3827]
        assert rep.z.tolist() == bundled.z[:6].tolist()

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
