"""Reproducing kernel of the weighted periodic space and its evaluators.

The kernel is K(y, y') = sum_u gamma_u prod_{j in u} eta(y_j - y'_j) with
eta a scaled even-degree Bernoulli polynomial of the fractional part.  Three
evaluation routes exist:

* ``kernel_eval``       — scalar, slow, ExtendedReal throughout (oracle grade)
* ``kernel_eval_bruteforce`` — subset enumeration, tiny dimensions only
* ``BatchKernelState`` / ``kernel_values_batch`` — vectorized float rows with
  per-sample binary exponents, used by the lattice search and interpolation

For every weight family the kernel value after one more coordinate is
affine in that coordinate's factor values: A + eta * B per point, with A
the current contraction and B the contraction of the order-shifted rows.
``BatchKernelState.affine_split`` returns the pair, so the CBC search
scores all phi(n) candidates of a dimension with one vectorised quadratic
form, at O(phi(n) * n) cost per dimension, whatever the family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .extended import ExtendedReal, RangeError
from .special import bernoulli_poly
from .weights import WeightScheme, weight_of

__all__ = [
    "KernelSpec",
    "eta",
    "frac",
    "rnorm",
    "kernel_eval",
    "kernel_eval_bruteforce",
    "kernel_values_batch",
    "BatchKernelState",
    "scaled_to_float",
]

_ENUM_LIMIT = 12
# Renormalize batch rows once magnitudes leave [2^-200, 2^200].
_RENORM_BITS = 200


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
    f = x - np.floor(x)
    return np.where(f >= 1.0, 0.0, f) if isinstance(f, np.ndarray) else (
        0.0 if f >= 1.0 else f
    )


def eta(alpha: int, delta):
    """One-dimensional kernel factor: scaled Bernoulli polynomial at {delta}."""
    sign = (-1) ** (alpha // 2 + 1)
    coef = (2.0 * math.pi) ** alpha / (sign * math.factorial(alpha))
    return coef * bernoulli_poly(alpha, frac(delta))


def rnorm(alpha: int, scheme: WeightScheme, h) -> ExtendedReal:
    """Weighted norm factor r(h) = gamma_supp(h)^{-1} prod |h_j|^alpha."""
    h = np.asarray(h, dtype=np.int64)
    supp = [j + 1 for j in range(len(h)) if h[j] != 0]
    prod = ExtendedReal.one()
    for j in supp:
        prod = prod * ExtendedReal.from_float(float(abs(h[j - 1]))).powf(
            float(alpha)
        )
    return prod / weight_of(scheme, supp)


# ---------------------------------------------------------------------------
# scalar oracle paths


def kernel_eval(spec: KernelSpec, y, yp, extended: bool = True) -> float:
    """K(y, y') by the factored per-family recursion.

    Accumulation is ExtendedReal by default; `extended=False` switches
    product/SPOD to plain floats (POD always uses ExtendedReal, since its
    order factors overflow doubles).  The per-coordinate difference is
    canonicalized through abs() so swapping the arguments performs
    bit-identical arithmetic.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    yp = np.atleast_1d(np.asarray(yp, dtype=float))
    if y.shape != yp.shape:
        raise ValueError("y and y' must have equal length")
    s = len(y)
    sch = spec.scheme
    if s > sch.dimension:
        raise ValueError("point dimension exceeds the weight sequence")
    etas = [float(eta(spec.alpha, abs(y[j] - yp[j]))) for j in range(s)]
    if sch.kind == "product":
        if not extended:
            out = 1.0
            for j in range(s):
                out *= 1.0 + sch.gamma_j[j] * etas[j]
            return out
        acc = ExtendedReal.one()
        for j in range(s):
            acc = acc * ExtendedReal.from_float(
                1.0 + sch.gamma_j[j] * etas[j]
            )
        return acc.to_float()
    if sch.kind == "spod" and not extended:
        span = sch.order_span(s)
        rows = np.zeros(span + 1)
        rows[0] = 1.0
        for j in range(s):
            for ell in range(min((j + 1) * sch.sigma, span), 0, -1):
                acc = 0.0
                for nu in range(1, min(sch.sigma, ell) + 1):
                    acc += sch.gamma_jnu[j, nu - 1] * rows[ell - nu]
                rows[ell] += etas[j] * acc
        total = ExtendedReal.zero()
        for ell in range(span + 1):
            if rows[ell] != 0.0:
                total = total + sch.Gamma[ell] * \
                    ExtendedReal.from_float(rows[ell])
        return total.to_float()
    span = sch.order_span(s)
    rows = [ExtendedReal.zero() for _ in range(span + 1)]
    rows[0] = ExtendedReal.one()
    if sch.kind == "pod":
        for j in range(s):
            ge = ExtendedReal.from_float(sch.gamma_j[j] * etas[j])
            for ell in range(min(j + 1, span), 0, -1):
                rows[ell] = rows[ell] + ge * rows[ell - 1]
    else:  # spod
        for j in range(s):
            e = ExtendedReal.from_float(etas[j])
            for ell in range(min((j + 1) * sch.sigma, span), 0, -1):
                acc = ExtendedReal.zero()
                for nu in range(1, min(sch.sigma, ell) + 1):
                    g = ExtendedReal.from_float(sch.gamma_jnu[j, nu - 1])
                    acc = acc + g * rows[ell - nu]
                rows[ell] = rows[ell] + e * acc
    total = ExtendedReal.zero()
    for ell in range(span + 1):
        total = total + sch.Gamma[ell] * rows[ell]
    return total.to_float()


def kernel_eval_bruteforce(spec: KernelSpec, y, yp) -> float:
    """K(y, y') by explicit subset sum; test oracle for s <= 12."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    yp = np.atleast_1d(np.asarray(yp, dtype=float))
    s = len(y)
    if s > _ENUM_LIMIT:
        raise ValueError(f"s={s} too large for subset enumeration")
    etas = [float(eta(spec.alpha, abs(y[j] - yp[j]))) for j in range(s)]
    total = ExtendedReal.zero()
    for r in range(s + 1):
        for u in itertools.combinations(range(1, s + 1), r):
            prod = 1.0
            for j in u:
                prod *= etas[j - 1]
            total = total + weight_of(spec.scheme, u) * \
                ExtendedReal.from_float(prod)
    return total.to_float()


# ---------------------------------------------------------------------------
# vectorized batch path with per-sample binary exponents


def _scaled_add(S, F, T, Te):
    """In-place (S, F) <- (S, F) + (T, Te) for value arrays S * 2^F."""
    live = T != 0.0
    empty = S == 0.0
    nf = np.where(live, np.where(empty, Te, np.maximum(F, Te)), F)
    sh_s = np.clip(F - nf, -1100, 0).astype(np.int64)
    sh_t = np.clip(Te - nf, -1100, 0).astype(np.int64)
    S2 = np.ldexp(S, sh_s) + np.where(live, np.ldexp(T, sh_t), 0.0)
    S[:] = S2
    F[:] = np.where(S2 == 0.0, 0, nf)


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
            self._gm = np.array([g.mantissa for g in sch.Gamma[: span + 1]])
            self._ge = np.array(
                [g.exponent for g in sch.Gamma[: span + 1]], dtype=np.int64
            )

    def _renorm(self):
        mx = np.max(np.abs(self.P), axis=0)
        live = mx > 0.0
        over = live & ((mx > 2.0**_RENORM_BITS) | (mx < 2.0**-_RENORM_BITS))
        if np.any(over):
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
        span = self.P.shape[0] - 1
        if sch.kind == "pod":
            top = min(self.dims_done + 1, span)
            out[1 : top + 1] += sch.gamma_j[j] * w * self.P[0:top]
        else:
            top = min((self.dims_done + 1) * sch.sigma, span)
            for nu in range(1, sch.sigma + 1):
                if nu > top:
                    break
                out[nu : top + 1] += (
                    sch.gamma_jnu[j, nu - 1] * w * self.P[0 : top + 1 - nu]
                )
        return out

    def _next_rows(self, eta_vec: np.ndarray):
        """Rows after appending one coordinate with factor values eta_vec."""
        sch = self.spec.scheme
        if sch.kind == "product":
            return self.P * (1.0 + sch.gamma_j[self.dims_done] * eta_vec)
        return self._add_shift(self.P.copy(), eta_vec)

    def _contract(self, P):
        """Sum_ell Gamma_ell P[ell] * 2^E as scaled pairs (S, F)."""
        m = P.shape[1]
        if self.spec.scheme.kind == "product":
            return P[0].copy(), self.E.copy()
        S = np.zeros(m)
        F = np.zeros(m, dtype=np.int64)
        for ell in range(P.shape[0]):
            row = P[ell]
            if not np.any(row):
                continue
            _scaled_add(S, F, row * self._gm[ell], self.E + self._ge[ell])
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
        self.P = self._next_rows(eta_vec)
        self.dims_done += 1
        self._renorm()

    def values(self):
        """Current kernel values as scaled (S, F) pairs."""
        return self._contract(self.P)


def kernel_values_batch(spec: KernelSpec, dy: np.ndarray) -> np.ndarray:
    """K evaluated at a batch of difference vectors dy of shape (m, s)."""
    dy = np.asarray(dy, dtype=float)
    if dy.ndim != 2:
        raise ValueError("dy must be a 2-D array of difference vectors")
    m, s = dy.shape
    state = BatchKernelState(spec, m, s)
    for j in range(s):
        state.commit(eta(spec.alpha, dy[:, j]))
    return scaled_to_float(*state.values())
