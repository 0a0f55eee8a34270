"""Rank-1 lattices, the component-by-component search, and diagnostics.

The search criterion S_s(z) is evaluated through the computable identity

    S_s(z) = (1/n) sum_k K(t_k, 0)^2  -  sum_u gamma_u^2 (2 zeta(2 alpha))^{|u|}

whose subtracted term is computed in factored form per weight family; the
equality with the aliasing double sum over the dual lattice is exercised
against a brute-force oracle in the tests.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .extended import ExtendedReal
from .kernel import BatchKernelState, KernelSpec, eta
from .special import zeta
from .weights import squared_weight_sum

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
    live = S != 0.0
    if not np.any(live):
        return ExtendedReal.zero()
    f2 = 2 * F[live]
    top = int(np.max(f2))
    t = float(np.sum(S[live] ** 2 * np.ldexp(1.0, np.clip(f2 - top, -1100, 0))))
    return ExtendedReal.from_float(t) * ExtendedReal(1.0, top, 1)


def _mean_square_kernel(spec: KernelSpec, lat: Lattice) -> ExtendedReal:
    state = BatchKernelState(spec, lat.n, lat.s)
    pts = lat.points()
    for j in range(lat.s):
        state.commit(eta(spec.alpha, pts[:, j]))
    total = _scaled_sumsq(*state.values())
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


# Candidate x point entries scored per block, so memory does not grow with n.
_SCORE_BLOCK = 2**16
# A candidate replaces the best so far only if it scores below best *
# (1 - _TIE_REL): near-ties go to the smaller one; mirror pairs tie exactly.
_TIE_REL = 1e-12


def _folded(S: np.ndarray, F: np.ndarray, top: int) -> np.ndarray:
    """Values S * 2^F as floats in units of 2^top (top >= every live F)."""
    return np.ldexp(S, np.clip(F - top, -1100, 0))


def _first_best(scores: np.ndarray) -> int:
    """Index the ascending tie rule settles on in a score vector.

    Scanning in order, a score replaces the best so far only if it lies
    below best * (1 - _TIE_REL).  Each pass jumps to the next replacement.
    """
    best = 0
    while True:
        later = scores[best + 1 :] < scores[best] * (1.0 - _TIE_REL)
        if not later.any():
            return best
        best += 1 + int(np.argmax(later))


def _candidates(alpha: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The units c <= n/2, and eta at min(k, n - k)/n: bitwise even in k."""
    k = np.arange(n, dtype=np.int64)
    cands = np.flatnonzero(np.gcd(k[: n // 2 + 1], n) == 1)
    return cands, eta(alpha, np.minimum(k, n - k) / n)


def _candidate_scores(
    a: np.ndarray, b: np.ndarray, etable: np.ndarray, cands: np.ndarray
) -> np.ndarray:
    """sum_k (a_k + eta[(k c) mod n] b_k)^2 for every candidate c."""
    n = len(etable)
    k = np.arange(n, dtype=np.int64)
    step = max(1, _SCORE_BLOCK // n)
    out = np.empty(len(cands))
    for i in range(0, len(cands), step):
        idx = np.multiply.outer(cands[i : i + step], k)
        v = etable[np.remainder(idx, n, out=idx)]
        v *= b
        v += a
        out[i : i + step] = np.einsum("ck,ck->c", v, v)
    return out


def cbc_construct(spec: KernelSpec, n: int, s: int) -> CbcReport:
    """Greedy per-dimension minimizer of S_d over unit candidates.

    Per-point kernel state is cached across dimensions.  At each dimension
    the kernel value at point k is affine in the new coordinate's factor,
    A_k + eta({k c / n}) B_k, for every weight family
    (``BatchKernelState.affine_split``), so the candidates are scored by
    one vectorised quadratic form sum_k (A_k + eta B_k)^2, in blocks, at
    O(phi(n)/2 * n) cost per dimension: eta is even, so the unit n - c
    scores the same bits as c, and only the units c <= n/2 are scored.
    Ties go to the smaller candidate by the ascending rule of
    ``_first_best``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if s < 1 or s > spec.scheme.dimension:
        raise ValueError("target dimension outside the weight sequence")
    cands, etable = _candidates(spec.alpha, n)
    karr = np.arange(n, dtype=np.int64)
    state = BatchKernelState(spec, n, s)
    two_zeta = 2.0 * zeta(2 * spec.alpha)
    nfac = ExtendedReal.from_float(float(n))
    z: list[int] = []
    crit_trace: list[float] = []
    bound_trace: list[float] = []
    lost_trace: list[float] = []
    for d in range(1, s + 1):
        (sa, fa), (sb, fb) = state.affine_split()
        live = np.concatenate([fa[sa != 0.0], fb[sb != 0.0]])
        top = int(np.max(live)) if len(live) else 0
        scores = _candidate_scores(
            _folded(sa, fa, top), _folded(sb, fb, top), etable, cands
        )
        i = _first_best(scores)
        z.append(int(cands[i]))
        state.commit(etable[karr * z[-1] % n])
        mean_sq = ExtendedReal.from_float(float(scores[i])) * ExtendedReal(
            1.0, 2 * top, 1
        ) / nfac
        sub = squared_weight_sum(spec.scheme, d, two_zeta)
        sd, lost = _criterion_from_parts(mean_sq, sub)
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
