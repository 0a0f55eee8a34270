"""Reproducing kernel of the weighted periodic space and its evaluators.

The kernel is K(y, y') = sum_u gamma_u prod_{j in u} eta(y_j - y'_j) with
eta a scaled even-degree Bernoulli polynomial of the fractional part.
``BatchKernelState`` and ``kernel_values_batch`` evaluate it for a batch of
points as float rows; the lattice search and the interpolant both use this
one route.  POD weights are SPOD weights with one column (sigma = 1), so
both run one order-row recursion: coordinate j adds gamma_{j,nu} eta times
row ell - nu to row ell, for nu = 1..sigma.  The state starts as one row of
ones, each coordinate grows it by the sigma orders it can newly reach, and
the trailing rows that have fallen to 0.0 at every point are dropped.
Product weights keep one row and multiply it by 1 + gamma_j eta.  For
every family a kernel value that is not finite is a numerical failure, and
one that underflows is kept (``BatchKernelState.commit`` bounds what that
costs).

``kernel_values_batch`` walks its points in blocks (``_block_points``), so
no temporary grows with the batch.  Each block is formed coordinate-major,
an (s, m) array whose row j is coordinate j of its m points, minus an
offset {y} when one is given; eta runs once on it, and its k = s rows go to
a fresh state as one (k, m) ``commit``.  Product weights multiply all k
factor rows in at once, in coordinate order; POD and SPOD add each row's
order shift in turn.  For POD and SPOD the contraction sums
Gamma_ell P[ell] in row order, so it rounds as adding them one at a time
does: one ``np.add.reduce`` over the rows adds each whole row to the
running sum.  A one-point batch is a single column, which the reduce would
sum pairwise, so it takes ``np.add.accumulate``.  Every step acts on each
point alone, so the blocks keep the bits of one whole batch.  Besides it,
only the CBC search in ``latkern.lattice`` steps a state itself.

For every weight family the kernel value after one more coordinate is
affine in that coordinate's factor values: A + eta * B per point, with A
the current contraction and B the contraction of the order-shifted rows,
which for product weights is gamma_j A.  ``BatchKernelState.affine_split``
returns A and B, and gamma_j for product weights, from which
``latkern.lattice._UnitScorer`` scores every CBC candidate of a dimension:
the search reads no field of a weight scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import MAX_BERNOULLI_DEGREE, bernoulli_poly
from .weights import WeightScheme

# Differences per block of ``kernel_values_batch``: 256 KiB of floats, so a
# block's differences, eta and factor rows stay in cache.
_BLOCK = 2**15

__all__ = [
    "KernelSpec",
    "eta",
    "frac",
    "kernel_values_batch",
    "BatchKernelState",
]


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


def frac(x) -> np.ndarray:
    """Fractional part mapped into [0, 1), robust at integer boundaries, as
    a new C-ordered float array (0-d for a scalar)."""
    x = np.asarray(x, dtype=float)
    f = np.floor(x, out=np.empty(x.shape))
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
# vectorized batch path


def _trimmed(P: np.ndarray) -> np.ndarray:
    """P without its trailing rows that are 0.0 at every point, but row 0:
    such rows add exact zeros wherever they go, so no bit changes."""
    k = len(P)
    while k > 1 and not P[k - 1].any():
        k -= 1
    return P[:k]


class BatchKernelState:
    """Coordinate-by-coordinate kernel accumulation over a batch of points.

    Built from a weight scheme and a batch size m.  Holds order-resolved
    float rows P[ell]: after d coordinates POD/SPOD hold at most
    d sigma + 1 rows, the trailing rows that are 0.0 at every point
    dropped, and product weights one.  ``affine_split`` gives the kernel
    values as an affine function of a trial next coordinate without
    committing; ``commit`` advances the state.

    The methods set no numpy error state: their callers ignore overflow
    and invalid operations once per search or block, and a row past double
    range reaches ``values`` and ``affine_split`` as inf or NaN, which they
    refuse.
    """

    def __init__(self, scheme: WeightScheme, m: int):
        self.scheme = scheme
        self.dims_done = 0
        self.P = np.ones((1, m))

    def _gammas(self, k: int = 1) -> np.ndarray:
        """The next k coordinates' rows, by ``WeightScheme.rows``."""
        return self.scheme.rows(self.dims_done, self.dims_done + k)

    def _add_shift(self, w, base=None) -> np.ndarray:
        """base (P, or zeros if None) grown by sigma rows, plus w times the
        order shift that the next coordinate adds, for nu = 1..sigma in turn:
        w is its factor values (commit) or 1.0 (the coefficient of eta, for
        ``affine_split``), trimmed (``_trimmed``).  POD and SPOD only.
        """
        g, P = self._gammas()[0], self.P
        out = np.zeros((len(P) + len(g), P.shape[1]))
        if base is not None:
            out[: len(base)] = base
        for nu in range(1, len(g) + 1):
            out[nu : nu + len(P)] += g[nu - 1] * w * P
        return _trimmed(out)

    def _contract(self, P) -> np.ndarray:
        """Sum_ell Gamma_ell P[ell] in row order (POD, SPOD), or a copy of
        P[0] (product); FloatingPointError for a value that is not finite.
        """
        if self.scheme.kind == "product":
            return _finite(P[0].copy())
        G = self.scheme.Gamma[: len(P), None]
        T = P * G
        if T.shape[1] == 1:
            # one point (the CBC's zero-point check, a last block of one)
            # is one contiguous column, which np.add.reduce sums pairwise
            K = np.add.accumulate(T, out=T)[-1]
        else:
            # T is C-ordered: the reduce adds its rows in order
            K = np.add.reduce(T, axis=0)
        K += 0.0  # a sum of -0.0 terms becomes +0.0
        return _finite(K, G)

    def affine_split(self):
        """(A, B, g): A + eta * B are the kernel values if eta were the next
        coordinate's factor values.  A and B are new arrays, which a later
        ``commit`` leaves as they are.

        A is the current contraction, B the contraction of the coefficient
        of eta in the next rows: for POD and SPOD the order shift of P, and
        g is None; for product weights gamma_j P[0], formed as g A with g
        the next coordinate's gamma_j.
        """
        A = self._contract(self.P)
        if self.scheme.kind == "product":
            g = self._gammas()[0, 0]
            return A, _finite(g * A), g
        return A, self._contract(self._add_shift(1.0)), None

    def commit(self, etas: np.ndarray) -> None:
        """Advance by the coordinates of etas, in order: one row of factor
        values (m,) or the rows of k coordinates (k, m).

        POD and SPOD add each row's order shift in turn.  Product weights
        multiply P in place by the factor rows f_j = 1 + gamma_j eta in
        coordinate order: one row by one multiply, and k rows, formed at
        once, by one ``np.multiply.reduce`` over [P, f_1, ..., f_k], bit
        for bit the row-by-row product.

        One rule holds for all three families: a value that is not finite
        is a numerical failure (``values`` raises), and a value that
        underflows is kept.  For product weights each multiply rounds by at
        most u = 2^-53 relative, or by at most 2^-1075 absolute where its
        result is subnormal.  An error made at factor i reaches the result
        times |f_(i+1) ... f_k| and at most k - i more roundings, and
        (1 + u)^k < 2 for k <= 2^52.  So each new value differs from the
        exact product P f_1 ... f_k of its factors by at most

            k u / (1 - k u) |P f_1 ... f_k|
                + k 2^-1074 max_i |f_(i+1) ... f_k|,   i = 1..k,

        an empty product being 1.  A reproducing kernel has |eta| <= eta(0),
        so |f_j| <= 1 + gamma_j eta(0) and, from a fresh state, the second
        term is at most k 2^-1074 K(0): far below the rounding of the FFT
        solve and the CBC scores, which read K at the scale of K(0).
        """
        etas = np.atleast_2d(np.asarray(etas, dtype=float))
        k = len(etas)
        g = self._gammas(k)
        if self.scheme.kind != "product":
            for row in etas:
                self.P = self._add_shift(row, self.P)
                self.dims_done += 1
            return
        if k == 1:
            f = g[0, 0] * etas[0]
            f += 1.0
            self.P[0] *= f
        else:
            T = np.empty((k + 1, etas.shape[1]))  # P, then the factor rows
            T[0] = self.P[0]
            np.multiply(g[:, :1], etas, out=T[1:])
            T[1:] += 1.0
            np.multiply.reduce(T, axis=0, out=self.P[0])
        self.dims_done += k

    def values(self) -> np.ndarray:
        """The current kernel values."""
        return self._contract(self.P)


def _finite(K: np.ndarray, G=None) -> np.ndarray:
    """K, or FloatingPointError naming its first value that is not finite;
    G is the order factors that K contracts (POD, SPOD), if any."""
    if np.isfinite(K).all():
        return K
    why = "a kernel row overflowed"
    if G is not None and np.isinf(G).any():
        ell = int(np.argmax(np.isinf(G)))
        why = f"order factor Gamma_{ell} = inf meets a nonzero row"
    raise FloatingPointError(
        f"kernel value {K[np.argmin(np.isfinite(K))]} is not finite: {why}"
    )


def _block_points(s: int) -> int:
    """Points per block of ``kernel_values_batch`` at s coordinates: _BLOCK
    differences, but at least 1024 points, since POD and SPOD commit each
    coordinate by a few numpy calls that a narrower block would not repay.
    """
    return max(1024, _BLOCK // max(s, 1))


def kernel_values_batch(
    spec: KernelSpec, dy: np.ndarray, y=None
) -> np.ndarray:
    """K evaluated at a batch of difference vectors dy of shape (m, s), or
    at dy - {y} for an offset y of shape (s,): K is 1-periodic, so y is
    wrapped into [0, 1)^s here, and y + k, k an integer vector, gives y's
    bits.  ValueError for a y of any other shape or not finite.  dy is
    unchecked, since a check would cost a pass over every difference.

    Each block of ``_block_points(s)`` points is transposed to (s, m), which
    costs no copy for a coordinate-major dy, and y is subtracted there: no
    (s, m) array of the whole batch is formed.
    """
    dy = np.asarray(dy, dtype=float)
    if dy.ndim != 2:
        raise ValueError("the differences must form a 2-D array")
    m, s = dy.shape
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.shape != (s,):
            raise ValueError(
                f"y has shape {y.shape}; the differences need shape ({s},), "
                "one component per coordinate"
            )
        if not np.isfinite(y).all():
            j = int(np.argmin(np.isfinite(y)))
            raise ValueError(f"the offset must be finite: y_{j + 1} = {y[j]}")
        y = frac(y)
    step = _block_points(s)
    out = np.empty(m)
    for a in range(0, max(m, 1), step):  # an empty batch is one empty block
        block = dy[a : a + step].T
        if y is not None:
            block = block - y[:, None]
        etas = eta(spec.alpha, block)
        state = BatchKernelState(spec.scheme, block.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            state.commit(etas)
            out[a : a + step] = state.values()
    return out
