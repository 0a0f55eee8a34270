"""Reproducing kernel of the weighted periodic space and its evaluators.

The kernel is K(y, y') = sum_u gamma_u prod_{j in u} eta(y_j - y'_j) with
eta a scaled even-degree Bernoulli polynomial of the fractional part.
``BatchKernelState`` and ``kernel_values_batch`` evaluate it for a batch of
points as float rows with per-sample binary exponents, so the factorial
order factors of POD and SPOD weights stay finite; the lattice search and
the interpolant both use this one route.  POD weights are SPOD weights with
one column (sigma = 1), so both run one order-row recursion: coordinate j
adds gamma_{j,nu} eta times row ell - nu to row ell, for nu = 1..sigma.
Product weights keep one row and multiply it by 1 + gamma_j eta.

It makes one array pass per block: ``kernel_values_batch``
evaluates eta once on the whole (s, m) block of differences, and for POD
and SPOD one contraction scales every live order row to each sample's top
exponent and sums the rows in row order.  Power-of-two scaling is exact,
so the sums round as adding the rows one at a time does.

For every weight family the kernel value after one more coordinate is
affine in that coordinate's factor values: A + eta * B per point, with A
the current contraction and B the contraction of the order-shifted rows.
``BatchKernelState.affine_split`` returns the pair, so the CBC search
ranks the candidates c <= n/2 of a dimension by sum_k 2 A_k B_k eta +
B_k^2 eta^2, all of them by one FFT over the unit group mod n, at
O(d(n) phi(n) log n) cost per dimension, whatever the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import bernoulli_poly
from .weights import RangeError, WeightScheme

__all__ = [
    "KernelSpec",
    "eta",
    "frac",
    "kernel_values_batch",
    "BatchKernelState",
    "scaled_to_float",
]

# Renormalize batch rows once magnitudes leave [2^-200, 2^200].
_RENORM_BITS = 200
# Exponent of a zero term: below every live one, and safe to subtract from.
_NO_EXPONENT = -(2**62)


@dataclass(frozen=True)
class KernelSpec:
    """Smoothness exponent plus weight family."""

    alpha: int
    scheme: WeightScheme

    def __post_init__(self):
        if self.alpha < 2 or self.alpha % 2 != 0:
            raise ValueError("alpha must be an even integer >= 2")
        if self.alpha > 16:
            raise ValueError("alpha above 16 exceeds the Bernoulli table")


def frac(x):
    """Fractional part mapped into [0, 1), robust at integer boundaries."""
    f = np.floor(x, order="C")
    if not isinstance(f, np.ndarray):
        f = x - f
        return 0.0 if f >= 1.0 else f
    np.subtract(x, f, out=f)
    f[f >= 1.0] = 0.0
    return f


def eta(alpha: int, delta):
    """One-dimensional kernel factor: scaled Bernoulli polynomial at {delta}."""
    sign = (-1) ** (alpha // 2 + 1)
    coef = (2.0 * math.pi) ** alpha / (sign * math.factorial(alpha))
    val = bernoulli_poly(alpha, frac(delta))
    val *= coef
    return val


# ---------------------------------------------------------------------------
# vectorized batch path with per-sample binary exponents


def scaled_to_float(S, F):
    """Collapse value arrays S * 2^F to float64, raising on overflow."""
    with np.errstate(over="ignore"):
        out = np.ldexp(S, np.clip(F, -2100, 2100).astype(np.int64))
    bad = ~np.isfinite(out) | ((S != 0.0) & (F > 1024))
    if np.any(bad):
        i = int(np.argmax(bad))
        mag = math.log2(abs(S[i])) + F[i] if S[i] != 0.0 else float(F[i])
        raise RangeError(mag)
    return out


class BatchKernelState:
    """Coordinate-by-coordinate kernel accumulation over a batch of points.

    Holds order-resolved rows P[ell] (floats) and a shared per-sample binary
    exponent E, so POD/SPOD factorial order factors never touch float range
    until the final contraction.  ``affine_split`` gives the kernel values
    as an affine function of a trial next coordinate without committing;
    ``commit`` advances the state.
    """

    def __init__(self, spec: KernelSpec, m: int, s: int):
        sch = spec.scheme
        if s > sch.dimension:
            raise ValueError(
                f"point dimension {s} exceeds the weight sequence "
                f"({sch.dimension} coordinates)"
            )
        self.spec = spec
        self.s = s
        self.dims_done = 0
        span = sch.order_span(s)
        self.P = np.zeros((span + 1, m))
        self.P[0] = 1.0
        self.E = np.zeros(m, dtype=np.int64)
        if sch.kind != "product":
            self._gm, self._ge = (a[: span + 1] for a in sch.Gamma)

    def _renorm(self):
        mx = np.max(np.abs(self.P), axis=0)
        lo, hi = 2.0**-_RENORM_BITS, 2.0**_RENORM_BITS
        if not mx.size or (lo <= mx.min() and mx.max() <= hi):
            return
        over = (mx > 0.0) & ((mx > hi) | (mx < lo))
        _, ex = np.frexp(mx)
        sh = np.where(over, ex.astype(np.int64), 0)
        self.P = np.ldexp(self.P, -sh)
        self.E += sh

    def _add_shift(self, out: np.ndarray, w) -> np.ndarray:
        """out += w times the order shift that coordinate dims_done adds.

        POD and SPOD only.  w is the coordinate's factor values (commit)
        or 1.0 (the coefficient of eta in ``affine_split``).
        """
        sch = self.spec.scheme
        j = self.dims_done  # 0-based index of the coordinate being added
        top = (j + 1) * sch.sigma  # highest order reachable after it
        for nu in range(1, sch.sigma + 1):
            out[nu : top + 1] += (
                sch.gamma_jnu[j, nu - 1] * w * self.P[0 : top + 1 - nu]
            )
        return out

    def _contract(self, P):
        """Sum_ell Gamma_ell P[ell] * 2^E as scaled pairs (S, F).

        Every term is scaled (exactly, by a power of two) to each sample's
        top exponent over its live terms, and the rows are summed in row
        order, all in one array step.  For POD and SPOD the sum is then
        normalized, S in [0.5, 1) and F its own exponent: the top factor
        Gamma_ell can exceed the sum by far more than double range, so
        squaring an unnormalized S could underflow.
        """
        if self.spec.scheme.kind == "product":
            return P[0].copy(), self.E.copy()
        rows = np.flatnonzero(P.any(axis=1))
        if not len(rows):
            return np.zeros(P.shape[1]), np.zeros(P.shape[1], dtype=np.int64)
        T = P[rows]
        T *= self._gm[rows, None]
        sh = self.E + self._ge[rows, None]
        sh[T == 0.0] = _NO_EXPONENT
        F = sh.max(axis=0)
        sh -= F
        # any double times 2^-2200 is 0, so the clip alters no term
        np.clip(sh, -2200, 0, out=sh)
        np.ldexp(T, sh, out=T)
        # accumulate adds in row order (sum may pair terms up); + 0.0 turns
        # a sum of -0.0 terms into the +0.0 of an empty sum
        S, ex = np.frexp(np.add.accumulate(T, out=T)[-1] + 0.0)
        F += ex
        F[S == 0.0] = 0
        return S, F

    def affine_split(self):
        """Scaled pairs (A, B): A + eta * B are the kernel values if eta
        were the next coordinate's factor values.

        A is the current contraction, B the contraction of the coefficient
        of eta in the next rows: gamma_j P for product weights, the order
        shift of P for POD and SPOD.
        """
        if self.dims_done >= self.s:
            raise ValueError("all coordinates already committed")
        sch = self.spec.scheme
        if sch.kind == "product":
            shift = sch.gamma_j[self.dims_done] * self.P
        else:
            shift = self._add_shift(np.zeros_like(self.P), 1.0)
        return self._contract(self.P), self._contract(shift)

    def commit(self, eta_vec: np.ndarray) -> None:
        if self.dims_done >= self.s:
            raise ValueError("all coordinates already committed")
        sch = self.spec.scheme
        if sch.kind == "product":
            factor = sch.gamma_j[self.dims_done] * eta_vec
            factor += 1.0
            self.P *= factor
        else:
            self.P = self._add_shift(self.P.copy(), eta_vec)
        self.dims_done += 1
        self._renorm()

    def values(self):
        """Current kernel values as scaled (S, F) pairs."""
        return self._contract(self.P)


def _committed(spec: KernelSpec, dy) -> BatchKernelState:
    """The batch state with every coordinate of dy (m, s) committed.

    eta is evaluated once, on the whole (s, m) block of differences.
    """
    dy = np.asarray(dy, dtype=float)
    if dy.ndim != 2:
        raise ValueError("dy must be a 2-D array of difference vectors")
    m, s = dy.shape
    state = BatchKernelState(spec, m, s)
    for row in eta(spec.alpha, dy.T):
        state.commit(row)
    return state


def kernel_values_batch(spec: KernelSpec, dy: np.ndarray) -> np.ndarray:
    """K evaluated at a batch of difference vectors dy of shape (m, s)."""
    return scaled_to_float(*_committed(spec, dy).values())
