"""Rank-1 lattices, the component-by-component search, and diagnostics.

The search criterion S_s(z) is evaluated through the computable identity

    S_s(z) = (1/n) sum_k K(t_k, 0)^2  -  sum_u gamma_u^2 (2 zeta(2 alpha))^{|u|}

whose subtracted term is computed in factored form per weight family; the
equality with the aliasing double sum over the dual lattice is exercised
against a brute-force oracle in the tests.

The CBC search ranks the candidates of a dimension by the part of the
mean-square kernel that depends on the candidate, D(c), not by the full
sum, which the candidate-independent sum_k A_k^2 dominates.  D is a
correlation over the multiplicative group of units mod n (Nuyens and
Cools, Math. Comp. 75, 2006), so one FFT scores every candidate, at
O(d(n) phi(n) log n) cost per dimension for every weight family.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .extended import ExtendedReal
from .kernel import BatchKernelState, KernelSpec, _committed, eta
from .special import zeta
from .weights import (
    _scaled_total,
    squared_weight_prefixes,
    squared_weight_sum,
)

__all__ = [
    "Lattice",
    "CbcReport",
    "criterion_S",
    "cbc_construct",
    "fooling_vector",
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

        Computed on the first call and kept; the array is read-only.
        """
        pts = self.__dict__.get("_points")
        if pts is None:
            k = np.arange(self.n, dtype=np.int64)
            pts = ((k[:, None] * self.z[None, :]) % self.n) / self.n
            pts.flags.writeable = False
            object.__setattr__(self, "_points", pts)
        return pts


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


def _scaled_sumsq(S: np.ndarray, F: np.ndarray) -> ExtendedReal:
    """sum_k (S_k 2^{F_k})^2 as an ExtendedReal, shift-stable."""
    return _scaled_total(S * S, 2 * F)


def _mean_square_kernel(spec: KernelSpec, lat: Lattice) -> ExtendedReal:
    total = _scaled_sumsq(*_committed(spec, lat.points()).values())
    return total / ExtendedReal.from_float(float(lat.n))


def _criterion_from_parts(
    minuend: ExtendedReal, subtrahend: ExtendedReal
) -> tuple[float, float]:
    """(minuend - subtrahend clamped at 0, decimal digits it cancels).

    The digits lost are log10(minuend / value): inf when nothing is left.
    """
    value = minuend - subtrahend
    ref = minuend.to_float()
    val = value.to_float()
    if val < -1e-10 * ref:
        raise AssertionError(
            f"criterion cancellation beyond tolerance: {val} vs minuend {ref}"
        )
    if 0.0 < abs(val) < 1e-13 * ref:
        warnings.warn(
            "criterion value dominated by cancellation; significance lost",
            RuntimeWarning,
        )
    if val <= 0.0:
        return 0.0, math.inf
    return val, math.log10(ref) - math.log10(val)


def criterion_S(spec: KernelSpec, lat: Lattice) -> float:
    """Search criterion S_s(z) >= 0 via the kernel-square identity."""
    sub = squared_weight_sum(spec.scheme, lat.s, 2.0 * zeta(2 * spec.alpha))
    return _criterion_from_parts(_mean_square_kernel(spec, lat), sub)[0]


# Candidates tie when their S_d differ by at most _TIE times the spread of
# S_d over all candidates; the smallest of the tied ones is taken.  On the
# search's own inputs the FFT scores were measured within 4e-16 of that
# spread of their exact values (test_tie_margin_above_fft_noise asserts
# _TIE / 100), so rounding neither makes nor breaks a tie.
_TIE = 1e-13


def _folded(S: np.ndarray, F: np.ndarray, top: int) -> np.ndarray:
    """Values S * 2^F as floats in units of 2^top (top >= every live F)."""
    return np.ldexp(S, np.clip(F - top, -1100, 0))


def _eta_table(alpha: int, n: int) -> np.ndarray:
    """eta at min(k, n - k)/n for k = 0..n-1: bitwise even in k."""
    k = np.arange(n, dtype=np.int64)
    return eta(alpha, np.minimum(k, n - k) / n)


def _first_within(D: np.ndarray) -> int:
    """Index of the first score within _TIE of the spread above the lowest.

    D(c) - D(c') is S_d(c) - S_d(c') up to a positive factor, so the rule
    reads on the S_d scale: with the candidates ascending, the smallest
    whose S_d is at most min S_d + _TIE (max S_d - min S_d).
    """
    lo = D.min()
    return int(np.argmax(D <= lo + _TIE * (D.max() - lo)))


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

    For one dimension, with u = 2AB and v = B^2 from the affine split, the
    score of candidate c is sum_k (A_k + eta_kc B_k)^2 = sum_k A_k^2 + D(c),
    D(c) = sum_k u_k eta_kc + v_k eta_kc^2 and eta_kc = eta({k c / n}).  The
    points k with gcd(k, n) = g are g k' for the units k' mod m = n/g, and
    k c = g (k' c mod m), so their share of D is a correlation over U(m).
    Each class is lifted onto U(n), where every unit mod m has
    phi(n)/phi(m) preimages, with the weight phi(m)/phi(n).  On the torus
    of ``_unit_torus`` every class is then a cyclic correlation, and one
    batched rfftn per dimension correlates all of them against the eta
    and eta^2 spectra, which are built once per search.

    Memory is O(d(n) phi(n)) for d(n) divisors: the spectra, and int32
    indices into the point axis.
    """

    def __init__(self, n: int, etable: np.ndarray):
        units = _unit_torus(n)
        self.shape = units.shape
        self.axes = tuple(range(-units.ndim, 0))
        divs = [(1, 1)]  # (m, phi(m)) for every divisor m of n
        for p, e in _prime_powers(n):
            divs = [
                (m * p**f, t * (p**f - p ** (f - 1) if f else 1))
                for m, t in divs
                for f in range(e + 1)
            ]
        phi = units.size
        g = np.array([n // m for m, _ in divs], dtype=np.int64)
        w = np.array([t / phi for _, t in divs])
        flat = units.ravel()
        self.idx = (g[:, None] * flat % n).astype(np.int32)
        # Each class is correlated mean-free: sum_a f(a) h(a + b) is
        # phi mean(f) mean(h) plus the correlation of f - mean(f) with
        # h - mean(h).  The means of eta^2 and of B^2 are large against
        # what varies with c, and would otherwise set the rounding of D.
        e = etable[self.idx]
        h = np.stack([e, e * e])
        hmean = h.mean(axis=-1, keepdims=True)
        h -= hmean
        self.spectra = np.fft.rfftn(
            h.reshape(h.shape[:2] + self.shape), axes=self.axes
        )
        self.spectra *= w.reshape((-1,) + (1,) * units.ndim)
        self.hmean = phi * w[:, None] * hmean
        order = np.argsort(flat)
        # positions of the candidates c <= n/2, ascending
        self.pos = order[flat[order] <= n // 2]
        self.cands = flat[self.pos]

    def __call__(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """D(c) for every candidate c <= n/2, in ascending order of c."""
        x = np.empty((2,) + self.idx.shape)
        np.take(u, self.idx, out=x[0])
        np.take(v, self.idx, out=x[1])
        xmean = x.mean(axis=-1, keepdims=True)
        x -= xmean
        f = np.fft.rfftn(x.reshape(x.shape[:2] + self.shape), axes=self.axes)
        np.conjugate(f, out=f)
        f *= self.spectra
        corr = np.fft.irfftn(f.sum(axis=(0, 1)), s=self.shape, axes=self.axes)
        return corr.ravel()[self.pos] + np.sum(xmean * self.hmean)


def cbc_construct(spec: KernelSpec, n: int, s: int) -> CbcReport:
    """Greedy per-dimension minimizer of S_d over unit candidates.

    Per-point kernel state is cached across dimensions.  At each dimension
    the kernel value at point k is affine in the new coordinate's factor,
    A_k + eta({k c / n}) B_k, for every weight family
    (``BatchKernelState.affine_split``), so the mean-square kernel of
    candidate c is (sum_k A_k^2 + D(c)) / n, and candidates differ only by
    D(c) = sum_k 2 A_k B_k eta + B_k^2 eta^2.  ``_UnitScorer`` gives D for
    all of them by FFT over the unit group, at O(d(n) phi(n) log n) cost per
    dimension for every family.  eta is even, so the unit n - c scores as
    c does, and only the units c <= n/2 are ranked.

    z_1 = 1 unscored: every unit gives the same one-dimensional point set.
    Later ties go to the smallest candidate by ``_first_within``.  The
    chosen candidate is scored directly, in O(n), and S_d is formed from
    its mean-square kernel minus Q_d (``squared_weight_prefixes``).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if s < 1 or s > spec.scheme.dimension:
        raise ValueError("target dimension outside the weight sequence")
    etable = _eta_table(spec.alpha, n)
    scorer = _UnitScorer(n, etable) if s > 1 else None
    karr = np.arange(n, dtype=np.int64)
    state = BatchKernelState(spec, n, s)
    subs = squared_weight_prefixes(spec.scheme, s, 2.0 * zeta(2 * spec.alpha))
    nfac = ExtendedReal.from_float(float(n))
    z: list[int] = []
    crit_trace: list[float] = []
    bound_trace: list[float] = []
    lost_trace: list[float] = []
    for sub in subs:
        (sa, fa), (sb, fb) = state.affine_split()
        live = np.concatenate([fa[sa != 0.0], fb[sb != 0.0]])
        top = int(np.max(live)) if len(live) else 0
        a, b = _folded(sa, fa, top), _folded(sb, fb, top)
        c = 1
        if z:
            c = int(scorer.cands[_first_within(scorer(2.0 * a * b, b * b))])
        z.append(c)
        row = etable[karr * c % n]
        vals = row * b
        vals += a
        score = float(np.einsum("k,k->", vals, vals))
        mean_sq = ExtendedReal.from_float(score) * ExtendedReal(
            1.0, 2 * top, 1
        ) / nfac
        sd, lost = _criterion_from_parts(mean_sq, sub)
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


def fooling_vector(n: int, z) -> np.ndarray:
    """Nonzero h* supported on the first two coordinates with h*.z = 0 mod n.

    Pigeonhole over the positive-quadrant grid {0..floor(sqrt(n))}^2: two
    grid vectors share a residue of h.z mod n, and their difference is the
    sought dual-lattice vector with entries bounded by floor(sqrt(n)).
    """
    z = np.asarray(z, dtype=np.int64)
    if len(z) < 2:
        raise ValueError("fooling vector needs dimension >= 2")
    r = math.isqrt(n)
    seen: dict[int, tuple[int, int]] = {}
    for h1 in range(r + 1):
        for h2 in range(r + 1):
            res = (h1 * int(z[0]) + h2 * int(z[1])) % n
            if res in seen:
                p1, p2 = seen[res]
                h = np.zeros(len(z), dtype=np.int64)
                h[0], h[1] = h1 - p1, h2 - p2
                if int(h @ z) % n != 0 or (h[0] == 0 and h[1] == 0):
                    raise AssertionError("pigeonhole postcondition violated")
                return h
            seen[res] = (h1, h2)
    raise AssertionError("pigeonhole search failed; cannot happen for n >= 1")


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
                header_n = int(body[2:])
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
