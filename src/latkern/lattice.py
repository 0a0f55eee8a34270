"""Rank-1 lattices, the component-by-component search, and diagnostics.

The search criterion S_s(z) is evaluated through the computable identity

    S_s(z) = (1/n) sum_k K(t_k, 0)^2  -  sum_u gamma_u^2 (2 zeta(2 alpha))^{|u|}

whose subtracted term is computed in factored form per weight family; the
equality with the aliasing double sum over the dual lattice is exercised
against a brute-force oracle in the tests.  Both terms are floats, and S_s
is their difference, one subtraction; only its tolerance, warning and
digits lost are decided here.

The CBC search ranks the candidates of a dimension by the part of the
mean-square kernel that depends on the candidate, D(c), not by the full
sum, which the candidate-independent sum_k A_k^2 dominates.  D is a
correlation over the multiplicative group of units mod n (Nuyens and
Cools, Math. Comp. 75, 2006), so one FFT scores every candidate
(``_UnitScorer``, which gives the cost and the fold by +-1).
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .kernel import BatchKernelState, KernelSpec, eta, kernel_values_batch
from .special import zeta
from .weights import squared_weight_prefixes

__all__ = [
    "Lattice",
    "CbcReport",
    "criterion_S",
    "cbc_construct",
    "read_genvec",
    "write_genvec",
]


@dataclass(frozen=True)
class Lattice:
    """Point count n and generating vector z; points are t_k = {k z / n}."""

    n: int
    z: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        z = np.asarray(self.z)
        if z.ndim != 1 or len(z) == 0:
            raise ValueError("z must be a nonempty integer vector")
        for zj in z.tolist():
            if not 0 < zj < max(self.n, 2) or zj != int(zj):
                raise ValueError(f"z entry {zj!r} is not an integer in 1..n-1")
            if math.gcd(int(zj), self.n) != 1:
                raise ValueError(f"z entry {zj} is not coprime with n={self.n}")
        object.__setattr__(self, "z", z.astype(np.int64))

    @property
    def s(self) -> int:
        return len(self.z)

    def points(self) -> np.ndarray:
        """All n points as an (n, s) array; row k is t_k, row 0 is 0.

        A view: the transpose of the lattice's one point array, C-contiguous
        (s, n), computed on the first call and kept, read-only.
        """
        cols = self.__dict__.get("_columns")
        if cols is None:
            k = np.arange(self.n, dtype=np.int64)
            cols = (self.z[:, None] * k % self.n) / self.n
            cols.flags.writeable = False
            object.__setattr__(self, "_columns", cols)
        return cols.T


@dataclass
class CbcReport:
    n: int
    z: np.ndarray
    criterion_trace: list[float] = field(default_factory=list)
    wce_bound_trace: list[float] = field(default_factory=list)
    # per dimension, log10(mean-square kernel / S_d): the decimal digits
    # the subtraction forming S_d cancels (inf when S_d is 0)
    digits_lost: list[float] = field(default_factory=list)

    def lattice(self) -> Lattice:
        return Lattice(self.n, self.z)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("dimension,z_d,S_d,bound_d\n")
        for d, (zd, sd, bd) in enumerate(
            zip(self.z, self.criterion_trace, self.wce_bound_trace), start=1
        ):
            buf.write(f"{d},{zd},{sd!r},{bd!r}\n")
        return buf.getvalue()


def _mean_square_kernel(spec: KernelSpec, lat: Lattice) -> float:
    K = kernel_values_batch(spec, lat.points())
    with np.errstate(over="ignore"):
        return float(np.sum(np.square(K))) / lat.n


def _criterion_from_parts(
    minuend: float, subtrahend: float
) -> tuple[float, float]:
    """(minuend - subtrahend clamped at 0, decimal digits it cancels).

    The digits lost are log10(minuend / value): inf when nothing is left.
    FloatingPointError when the minuend, the mean-square kernel, is not
    finite.
    """
    if not math.isfinite(minuend):
        raise FloatingPointError(
            f"the mean-square kernel is {minuend}, past double range"
        )
    val = minuend - subtrahend
    if val < -1e-10 * minuend:
        raise ArithmeticError(
            f"criterion cancellation beyond tolerance: {val} vs minuend "
            f"{minuend}"
        )
    if 0.0 < abs(val) < 1e-13 * minuend:
        warnings.warn(
            "criterion value dominated by cancellation; significance lost",
            RuntimeWarning,
        )
    if val <= 0.0:
        return 0.0, math.inf
    return val, math.log10(minuend) - math.log10(val)


def criterion_S(spec: KernelSpec, lat: Lattice) -> float:
    """Search criterion S_s(z) >= 0 via the kernel-square identity."""
    x = 2.0 * zeta(2 * spec.alpha)
    sub = squared_weight_prefixes(spec.scheme, lat.s, x)[-1]
    return _criterion_from_parts(_mean_square_kernel(spec, lat), sub)[0]


# Candidates tie when their S_d differ by at most _TIE times the spread of
# S_d over all candidates; the smallest of the tied ones is taken.  The FFT
# scores' error, up to a shift shared by every candidate, is measured, not
# bounded: 1.3e-16 to 3.5e-16 of the spread at nine sampled dimensions of
# `cbc --weights pod --p 0.30303 --theta 3.6 --s 300 --n-list 1024` (3.5e-16
# at d = 50), below _TIE / 100 in test_tie_margin_above_fft_noise.  Rounding
# can thus decide a tie for a candidate within about 0.35 % of the margin of
# its edge.  ROADMAP item 23 plans a bound.
_TIE = 1e-13


def _eta_table(alpha: int, n: int) -> np.ndarray:
    """eta at min(k, n - k)/n for k = 0..n-1: bitwise even in k."""
    k = np.arange(n, dtype=np.int64)
    return eta(alpha, np.minimum(k, n - k) / n)


def _first_within(D: np.ndarray) -> int | None:
    """Index of the first score within _TIE of the spread above the lowest,
    or None when a score is not finite.

    D(c) - D(c') is S_d(c) - S_d(c') up to a positive factor, so the rule
    reads on the S_d scale: with the candidates ascending, the smallest
    whose S_d is at most min S_d + _TIE (max S_d - min S_d).  It compares
    D - min D, exact near the lowest score, with the margin: min D + margin
    would round at the scale of min D, which the shift that ``_UnitScorer``
    leaves in D moves.  The same two reductions decide finiteness: both
    are NaN when a score is NaN, and one of them is infinite when one is.
    """
    lo, hi = D.min(), D.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    return int(np.argmax(D - lo <= _TIE * (hi - lo)))


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, e) for every prime power p^e exactly dividing n, p ascending."""
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _primitive_root(p: int) -> int:
    """A primitive root mod the odd prime p that is primitive mod p^2 too,
    and so generates the units mod every power of p."""
    qs = [q for q, _ in _prime_powers(p - 1)]
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g if pow(g, p - 1, p * p) != 1 else g + p


def _unit_torus(n: int) -> np.ndarray:
    """The units mod n on their torus of discrete-log coordinates.

    By CRT, U(n) is the product of the unit groups mod the prime powers q
    exactly dividing n: cyclic for odd q (a primitive root generates it),
    <3> for q = 4, {+-1} x <5> for q = 2^e with e >= 3, trivial for q = 2.
    Each cyclic factor of order L with generator g is one axis of length
    L; g is lifted to the unit G = g mod q, 1 mod n/q.  Entry a of the
    returned array is prod_i G_i^{a_i} mod n, so multiplying two units adds
    their coordinates, and every unit appears once.
    """
    gens = []
    for p, e in _prime_powers(n):
        q = p**e
        if p == 2 and e >= 3:
            gens += [(q, q - 1, 2), (q, 5, q // 4)]
        elif p == 2 and e == 2:
            gens.append((q, 3, 2))
        elif p != 2:
            gens.append((q, _primitive_root(p), q - q // p))
    units = np.ones((), dtype=np.int64)
    for q, g, order in gens:
        r = n // q
        lift = 1 + r * ((g - 1) * pow(r, -1, q) % q)
        powers = np.ones(1, dtype=np.int64)
        while len(powers) < order:  # doubling: G^0..G^(2m-1) from G^0..G^(m-1)
            step = pow(lift, len(powers), n)
            powers = np.concatenate([powers, powers * step % n])
        units = units[..., None] * powers[:order] % n
    return units.reshape(units.shape or (1,))


class _UnitScorer:
    """The candidate-dependent part of the CBC score, by FFT over U(n).

    For one dimension, with A and B from the affine split, the score of
    candidate c is sum_k (A_k + eta_kc B_k)^2 = sum_k A_k^2 + D(c),
    D(c) = sum_k u_k eta_kc + v_k eta_kc^2 with u = 2AB, v = B^2 and
    eta_kc = eta({k c / n}).  A call takes D as r sequences x_i, each met
    by its own mix of eta and eta^2: D(c) = sum_i sum_k x_ik (mix_i0 eta_kc
    + mix_i1 eta_kc^2).  POD and SPOD pass u and v with the identity mix.
    Product weights have B = gamma_d A, so they pass the one sequence A^2
    with the mix (2 gamma_d, gamma_d^2): one gather, one mean and one
    forward transform set in place of two.

    The points k with gcd(k, n) = g are g k' for the units k' mod m = n/g,
    and k c = g (k' c mod m), so their share of D is a correlation over
    U(m).  Each class is lifted onto U(n), where every unit mod m has
    phi(n)/phi(m) preimages, with the weight phi(m)/phi(n).  On the torus
    of ``_unit_torus`` every class is then a cyclic correlation, and one
    batched forward transform of the r sequences' classes per dimension
    meets the eta and eta^2 spectra, built once per search and mixed by
    two scalars per sequence; one inverse transform gives D up to a shift
    shared by every candidate: a unit c permutes each class, so the class
    means of eta and eta^2 do not depend on c, and the class m = 1, the
    point k = 0, meets eta(0) whatever c is.  Both are left out, and d(n) - 1
    classes are transformed, one at a prime n.  A dimension costs
    O(r (d(n) - 1) phi(n) log n), whatever the weight family, plus some 20
    numpy calls: on a 2-core VM about 41 us at n = 1024 for product
    weights, and 31 us at n = 256 for POD and SPOD.  On a 1-D torus (every
    n with a fold, below) the transforms are rfft and irfft, which rfftn
    and irfftn call on one axis, without their per-call overhead.

    eta is even, so the unit n - c scores as c does, and only the
    candidates c <= n/2 are ranked.  Likewise the points a and -a of a
    class meet the same eta: where -1 is the half turn of one torus axis
    (n = 4, p^e and 2 p^e, and 2^e), the classes are correlated on
    U(n)/{+-1}, the first half of that axis, against x_k + x_{n-k}.  That
    halves the transforms, the spectra and the indices, and so the cost,
    and leaves a 1-D torus.  At other n the fold is empty.

    Memory is O((d(n) - 1) phi(n)), halved by the fold: the spectra, and
    int32 indices into the point axis.
    """

    def __init__(self, n: int, etable: np.ndarray):
        units = _unit_torus(n)
        phi = units.size
        self.folded = False
        for ax, length in enumerate(units.shape):
            turn = [0] * units.ndim
            turn[ax] = length // 2
            if length % 2 == 0 and units[tuple(turn)] == n - 1:
                # the first half of the axis holds one of a and -a, stored
                # as the one not above n/2; a length-2 axis drops
                half = units.take(range(length // 2), axis=ax)
                if length == 2:
                    half = np.atleast_1d(half.squeeze(ax))
                units = np.minimum(half, n - half)
                self.folded = True
                break
        self.shape = units.shape
        if units.ndim == 1:
            self.fwd = np.fft.rfft
            self.inv = partial(np.fft.irfft, n=units.size)
        else:
            axes = tuple(range(-units.ndim, 0))
            self.fwd = partial(np.fft.rfftn, axes=axes)
            self.inv = partial(np.fft.irfftn, s=self.shape, axes=axes)
        divs = [(1, 1)]  # (m, phi(m)) for every divisor m of n
        for p, e in _prime_powers(n):
            divs = [
                (m * p**f, t * (p**f - p ** (f - 1) if f else 1))
                for m, t in divs
                for f in range(e + 1)
            ]
        # divs[0] is m = 1, the point k = 0 alone, which meets eta(0)
        # whatever c is
        g = np.array([n // m for m, _ in divs[1:]], dtype=np.int64)
        w = np.array([t / phi for _, t in divs[1:]])
        flat = units.ravel()
        self.idx = (g[:, None] * flat % n).astype(np.int32)
        # Each class is correlated mean-free: sum_a f(a) h(a + b) is the
        # torus size times mean(f) mean(h), the same for every c, plus the
        # correlation of f - mean(f) with h - mean(h), which is kept.  The
        # means of eta^2 and of B^2 are large against what varies with c,
        # and would otherwise set the rounding of D.
        e = etable[self.idx]
        h = np.stack([e, e * e])
        h -= h.mean(axis=-1, keepdims=True)
        spectra = self.fwd(h.reshape(h.shape[:2] + self.shape))
        spectra *= w.reshape((-1,) + (1,) * units.ndim)
        # each row: the spectra of the classes as floats, so that one pair
        # of real scalings mixes them (elementwise: a matrix product here
        # would start the BLAS, whose buffers cost the search 0.5 MB of
        # resident memory)
        self.basis = spectra.reshape(2, -1).view(float)
        order = np.argsort(flat)
        # positions of the candidates c <= n/2, ascending
        self.pos = order[flat[order] <= n // 2]
        self.cands = flat[self.pos]

    def __call__(self, x: np.ndarray, mix: np.ndarray) -> np.ndarray:
        """D(c) up to a shift shared by every candidate c <= n/2, in
        ascending order of c, from the (r, n) sequences x and their (r, 2)
        eta and eta^2 weights mix.
        """
        if self.folded:  # x_k + x_{n-k}; no class reads k = 0
            y = np.empty_like(x)
            np.add(x[:, 1:], x[:, :0:-1], out=y[:, 1:])
            x = y
        g = np.take(x, self.idx, axis=1)
        # np.mean's own arithmetic, without its per-call overhead
        xmean = np.add.reduce(g, axis=-1, keepdims=True)
        xmean /= g.shape[-1]
        g -= xmean
        f = self.fwd(g.reshape(g.shape[:2] + self.shape))
        np.conjugate(f, out=f)
        h = mix[:, :1] * self.basis[0]
        h += mix[:, 1:] * self.basis[1]
        f *= h.view(complex).reshape(f.shape)
        return self.inv(f.sum(axis=(0, 1))).ravel()[self.pos]


def _check_zero_point(spec: KernelSpec, eta0: float, s: int) -> None:
    """FloatingPointError naming the first d <= s whose K_d(0)^2 is past
    double range.  Point 0 of every lattice is the difference 0, where
    the kernel is largest, and every score of dimension d sums K_d(0)^2.

    eta(0) > 0 and the weights are positive, so K_d(0) cannot decrease
    with d: a finite K_s(0)^2, one kernel value, clears every d.  Only
    otherwise are the dimensions walked, to name d, under
    ``cbc_construct``'s error state.
    """
    try:
        k0 = float(kernel_values_batch(spec, np.zeros((1, s)))[0])
    except FloatingPointError:  # K_s(0) itself is not finite
        k0 = math.inf
    if math.isfinite(k0 * k0):
        return
    state = BatchKernelState(spec.scheme, 1)
    for d in range(1, s + 1):
        state.commit(np.array([eta0]))
        k0 = float(state.values()[0])
        if not math.isfinite(k0 * k0):
            raise FloatingPointError(
                f"K(0)^2 of dimension {d} is past double range (K(0) = "
                f"{k0}), and every candidate score of that dimension sums it"
            )


def cbc_construct(spec: KernelSpec, n: int, s: int) -> CbcReport:
    """Greedy per-dimension minimizer of S_d over unit candidates.

    Per-point kernel state is cached across dimensions.  At each dimension
    the kernel value at point k is affine in the new coordinate's factor,
    A_k + eta({k c / n}) B_k, for every weight family
    (``BatchKernelState.affine_split``), so the mean-square kernel of
    candidate c is (sum_k A_k^2 + D(c)) / n, and candidates differ only by
    D(c) = sum_k 2 A_k B_k eta + B_k^2 eta^2, which ``_UnitScorer`` gives
    for all of them at once, up to a shift they share; for product
    weights the split gives gamma_d, B = gamma_d A, and the one sequence
    A^2 is scored.

    Before the first dimension, K_d(0)^2, the largest term of every score
    of dimension d, is checked to be finite for every d <= s
    (FloatingPointError otherwise, naming d); there the scheme refuses an s
    past its sequence (``WeightScheme.rows``: ValueError, naming the first
    coordinate out).

    z_1 = 1 unscored: every unit gives the same one-dimensional point set.
    Later ties go to the smallest candidate by ``_first_within``.  The
    chosen candidate is scored directly, in O(n), and S_d is formed from
    its mean-square kernel minus Q_d (``squared_weight_prefixes``).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if s < 1:
        raise ValueError("s must be at least 1")
    etable = _eta_table(spec.alpha, n)
    # one error state for the whole search: a kernel row or score past
    # double range shows as inf or NaN, which the state refuses
    with np.errstate(over="ignore", invalid="ignore"):
        _check_zero_point(spec, etable[0], s)
        scorer = _UnitScorer(n, etable) if s > 1 else None
        eye = np.eye(2)
        uv = np.empty((2, n))
        karr = np.arange(n, dtype=np.int64)
        state = BatchKernelState(spec.scheme, n)
        x = 2.0 * zeta(2 * spec.alpha)
        subs = squared_weight_prefixes(spec.scheme, s, x)
        z: list[int] = []
        crit_trace: list[float] = []
        bound_trace: list[float] = []
        lost_trace: list[float] = []
        for d, sub in enumerate(subs, start=1):
            a, b, g = state.affine_split()
            c = 1
            if z:
                if g is not None:  # b = g a: one sequence, a^2
                    D = scorer((a * a)[None], np.array([[2.0 * g, g * g]]))
                else:
                    np.multiply(a, 2.0, out=uv[0])
                    uv[0] *= b
                    np.multiply(b, b, out=uv[1])
                    D = scorer(uv, eye)
                i = _first_within(D)
                if i is None:
                    raise FloatingPointError(
                        f"the candidate scores of dimension {d} are past "
                        "double range"
                    )
                c = int(scorer.cands[i])
            row = etable[karr * c % n]
            vals = row * b
            vals += a
            score = float(np.einsum("k,k->", vals, vals))
            z.append(c)
            sd, lost = _criterion_from_parts(score / n, sub)
            state.commit(row)
            crit_trace.append(sd)
            bound_trace.append(math.sqrt(2.0) * sd**0.25)
            lost_trace.append(lost)
    return CbcReport(
        n=n,
        z=np.array(z, dtype=np.int64),
        criterion_trace=crit_trace,
        wce_bound_trace=bound_trace,
        digits_lost=lost_trace,
    )


def write_genvec(path: str | Path, z, n: int) -> None:
    z = np.asarray(z, dtype=np.int64)
    lines = [f"# n={n}"]
    lines += [f"{i} {zi}" for i, zi in enumerate(z, start=1)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_genvec(path: str | Path, n: int | None = None) -> Lattice:
    """Parse 'i z_i' lines (1-based, contiguous); n from header or caller.

    A '# n=' header and an n passed by the caller must agree.
    """
    entries: dict[int, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("n="):
                try:
                    header_n = int(body[2:])
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: non-integer n in {raw!r}"
                    ) from exc
                if n is not None and n != header_n:
                    raise ValueError(
                        f"{path}: header says n={header_n}, but n={n} "
                        "was requested"
                    )
                n = header_n
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i z_i', got {raw!r}")
        try:
            i, zi = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer token") from exc
        if i != len(entries) + 1:
            raise ValueError(
                f"{path}:{lineno}: dimension index {i} breaks the sequence"
            )
        entries[i] = zi
    if n is None:
        raise ValueError(f"{path}: no '# n=' header and no n supplied")
    if not entries:
        raise ValueError(f"{path}: no generating-vector entries found")
    z = np.array([entries[i] for i in range(1, len(entries) + 1)], np.int64)
    return Lattice(n, z)
