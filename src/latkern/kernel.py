"""Reproducing kernel of the weighted periodic space and its evaluators.

The kernel is K(y, y') = sum_u gamma_u prod_{j in u} eta(y_j - y'_j) with
eta a scaled even-degree Bernoulli polynomial of the fractional part.
``BatchKernelState`` and ``kernel_values_batch`` evaluate it for a batch of
points as float rows with per-sample binary exponents, so the factorial
order factors of POD and SPOD weights stay finite; the lattice search and
the interpolant both use this one route.  POD weights are SPOD weights with
one column (sigma = 1), so both run one order-row recursion: coordinate j
adds gamma_{j,nu} eta times row ell - nu to row ell, for nu = 1..sigma.
The state starts as one row of ones and each coordinate grows it by the
sigma orders it can newly reach.  Product weights keep one row and
multiply it by 1 + gamma_j eta.

It makes one array pass per block: eta runs once on the whole
coordinate-major (s, m) block of differences, whose row j is coordinate j
of all m points, and the state commits the rows in turn, each read at unit
stride.  For POD and SPOD one contraction sums the order rows, aligned
exactly per sample, in row order, so it rounds as adding them one at a
time does.  It returns normalized pairs for every family; ``weights``
aligns and collapses them.

For every weight family the kernel value after one more coordinate is
affine in that coordinate's factor values: A + eta * B per point, with A
the current contraction and B the contraction of the order-shifted rows.
``BatchKernelState.affine_split`` returns A and B on one scale, so the CBC
search ranks the candidates c <= n/2 of a dimension by sum_k 2 A_k B_k eta
+ B_k^2 eta^2, all of them by one FFT over the unit group mod n, at
O(d(n) phi(n) log n) cost per dimension, whatever the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import MAX_BERNOULLI_DEGREE, bernoulli_poly
from .weights import WeightScheme, _aligned, _to_floats

__all__ = [
    "KernelSpec",
    "eta",
    "frac",
    "kernel_values_batch",
    "BatchKernelState",
]

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
        if self.alpha > MAX_BERNOULLI_DEGREE:
            raise ValueError(
                f"alpha above {MAX_BERNOULLI_DEGREE}: past the Bernoulli table"
            )


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


class BatchKernelState:
    """Coordinate-by-coordinate kernel accumulation over a batch of points.

    Built from a weight scheme and a batch size m.  Holds order-resolved
    rows P[ell] (floats) and a shared per-sample binary exponent E, so
    POD/SPOD factorial order factors never touch float range until the
    final contraction.  After d coordinates POD/SPOD hold d sigma + 1 rows
    and product weights one.  ``affine_split`` gives the kernel values as
    an affine function of a trial next coordinate without committing;
    ``commit`` advances the state.
    """

    def __init__(self, scheme: WeightScheme, m: int):
        self.scheme = scheme
        self.dims_done = 0
        self.P = np.ones((1, m))
        self.E = np.zeros(m, dtype=np.int64)

    def _gammas(self) -> np.ndarray:
        """The next coordinate's row of gamma_jnu (gamma_j in column 0)."""
        j = self.dims_done
        if j >= self.scheme.dimension:
            raise ValueError(f"coordinate {j + 1} is past the weight sequence")
        return self.scheme.gamma_jnu[j]

    def _renorm(self):
        P, lo, hi = self.P, 2.0**-_RENORM_BITS, 2.0**_RENORM_BITS
        if not P.size:
            return
        # the usual case needs no array: no |P| above hi, and row 0 of one
        # sign and at least lo in size, so every sample's largest |P| is
        # in range; otherwise the per-sample test below decides
        r = P[0]
        if -hi <= P.min() and P.max() <= hi:
            if lo <= r.min() or r.max() <= -lo:
                return
        mx = np.max(np.abs(P), axis=0)
        if lo <= mx.min() and mx.max() <= hi:
            return
        over = (mx > 0.0) & ((mx > hi) | (mx < lo))
        _, ex = np.frexp(mx)
        sh = np.where(over, ex.astype(np.int64), 0)
        self.P = np.ldexp(self.P, -sh)
        self.E += sh

    def _add_shift(self, w, base=None) -> np.ndarray:
        """base (P, or zeros if None) grown by sigma rows, plus w times the
        order shift that the next coordinate adds, for nu = 1..sigma in turn:
        w is its factor values (commit) or 1.0 (the coefficient of eta, for
        ``affine_split``).  POD and SPOD only.
        """
        g, P = self._gammas(), self.P
        rows = len(P) + len(g)
        # rows come in power-of-two blocks, so a growing state reuses freed
        # memory rather than faulting in fresh pages at each new size
        out = np.zeros((1 << (rows - 1).bit_length(), P.shape[1]))[:rows]
        if base is not None:
            out[: len(base)] = base
        for nu in range(1, len(g) + 1):
            out[nu : nu + len(P)] += g[nu - 1] * w * P
        return out

    def _contract(self, P):
        """Sum_ell Gamma_ell P[ell] * 2^E as normalized pairs (S, F): S in
        [0.5, 1), or 0, and F its own exponent, since Gamma_ell can exceed
        the sum far past double range, and E can pass 1024 for a value
        that fits a double.  POD and SPOD terms are aligned per sample
        (``weights._aligned``) and summed in row order in one array step.
        """
        if self.scheme.kind == "product":
            S, ex = np.frexp(P[0])
            return S, self.E + ex
        gm, ge = (g[: len(P), None] for g in self.scheme.Gamma)
        T, F = _aligned(P * gm, self.E + ge)
        # accumulate adds in row order (sum may pair terms up); zero rows
        # add exact zeros, and + 0.0 turns a sum of -0.0 terms into +0.0
        S, ex = np.frexp(np.add.accumulate(T, out=T)[-1] + 0.0)
        F += ex
        return S, F

    def affine_split(self):
        """(a, b, top): A + eta * B are the kernel values if eta were the
        next coordinate's factor values, with A = a 2^top and B = b 2^top.

        A is the current contraction, B the contraction of the coefficient
        of eta in the next rows: gamma_j P for product weights, the order
        shift of P for POD and SPOD.
        """
        if self.scheme.kind == "product":
            shift = self._gammas()[0] * self.P
        else:
            shift = self._add_shift(1.0)
        (sa, fa), (sb, fb) = self._contract(self.P), self._contract(shift)
        ab, top = _aligned(np.concatenate([sa, sb]), np.concatenate([fa, fb]))
        a, b = np.split(ab, 2)
        return a, b, int(top)

    def commit(self, eta_vec: np.ndarray) -> None:
        if self.scheme.kind == "product":
            factor = self._gammas()[0] * eta_vec
            factor += 1.0
            self.P *= factor
        else:
            self.P = self._add_shift(eta_vec, self.P)
        self.dims_done += 1
        self._renorm()

    def values(self):
        """Current kernel values as normalized (S, F) pairs."""
        return self._contract(self.P)


def _committed(spec: KernelSpec, block) -> BatchKernelState:
    """The batch state with every coordinate committed, from the (s, m)
    block of differences: row j is coordinate j of all m of them.

    eta is evaluated once, on the whole block, and each of its rows is
    committed in turn; a C-contiguous block keeps both passes unit-stride.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2:
        raise ValueError("the differences must form a 2-D array")
    state = BatchKernelState(spec.scheme, block.shape[1])
    for row in eta(spec.alpha, block):
        state.commit(row)
    return state


def kernel_values_batch(spec: KernelSpec, dy: np.ndarray) -> np.ndarray:
    """K evaluated at a batch of difference vectors dy of shape (m, s).

    dy is transposed once into the (s, m) block that ``_committed`` walks,
    so the transpose of a coordinate-major block costs no copy.
    """
    block = np.asarray(dy, dtype=float).T
    return _to_floats(*_committed(spec, block).values())
