"""Special functions: Bernoulli polynomials, Riemann zeta, Stirling and
Touchard numbers.

Bernoulli numbers are generated once by the Akiyama-Tanigawa recurrence in
exact rational arithmetic and cached; polynomial degrees above
MAX_BERNOULLI_DEGREE are rejected since the kernel closed form never needs
them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_BERNOULLI_DEGREE",
    "E_POW_INV_E",
    "bernoulli_poly",
    "bernoulli_poly_coeffs",
    "zeta",
    "stirling2",
    "bell_touchard",
]

MAX_BERNOULLI_DEGREE = 16

# e**(1/e); shows up in all three weight-family constants.
E_POW_INV_E = math.exp(1.0 / math.e)


@lru_cache(maxsize=1)
def _bernoulli_numbers() -> tuple[Fraction, ...]:
    """B_0..B_max by Akiyama-Tanigawa, with the B_1 = -1/2 convention."""
    n = MAX_BERNOULLI_DEGREE
    out = []
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    out.append(row[0])
    for m in range(1, n + 1):
        for j in range(n + 1 - m):
            row[j] = (j + 1) * (row[j] - row[j + 1])
        out.append(row[0])
    out[1] = -out[1]
    return tuple(out)


@lru_cache(maxsize=None)
def bernoulli_poly_coeffs(degree: int) -> np.ndarray:
    """Coefficients of B_degree(x), highest power first (np.polyval order)."""
    if degree <= 0 or degree % 2 != 0:
        raise ValueError(
            f"Bernoulli polynomial degree must be even and positive, got {degree}"
        )
    if degree > MAX_BERNOULLI_DEGREE:
        raise ValueError(
            f"degree {degree} exceeds the cached maximum {MAX_BERNOULLI_DEGREE}"
        )
    nums = _bernoulli_numbers()
    coeffs = [
        Fraction(math.comb(degree, k)) * nums[k] for k in range(degree + 1)
    ]
    return np.array([float(c) for c in coeffs], dtype=float)


def bernoulli_poly(degree: int, x):
    """B_degree(x) for even degree >= 2 and x in [0, 1); vectorized in x.

    Horner in place on one new array, in np.polyval's order of operations
    (p0 x, + p1, * x, ..., + p_last), so the bits are polyval's.  B_degree
    is monic, p0 = 1, so p0 x is x and Horner starts from x + p1.
    """
    p = bernoulli_poly_coeffs(degree)
    x = np.asarray(x, dtype=float)
    val = x + p[1]
    val *= x
    for c in p[2:-1]:
        val += c
        val *= x
    val += p[-1]
    return val if val.ndim else float(val)


_ZETA_TERMS = 10_000


def zeta(x: float) -> float:
    """Riemann zeta for finite x > 1.

    Direct partial sum over 10^4 terms plus an Euler-Maclaurin tail with
    two correction terms; absolute error well below 1e-12 down to
    x = 1.05.  From x = 1075 on, k^-x rounds to 0 for every k >= 2, so the
    sum is 1.0, returned before the tail's x (x + 1) (x + 2) overflows.
    """
    if not 1.0 < x < math.inf:
        raise ValueError(f"zeta requires finite x > 1, got {x}")
    if x >= 1075.0:
        return 1.0
    n = _ZETA_TERMS
    k = np.arange(1, n, dtype=float)
    head = float(np.sum(k ** (-x)))
    # Tail starting at n: integral term, half-term, and two EM corrections.
    tail = (
        n ** (1.0 - x) / (x - 1.0)
        + 0.5 * n ** (-x)
        + x / 12.0 * n ** (-x - 1.0)
        - x * (x + 1.0) * (x + 2.0) / 720.0 * n ** (-x - 3.0)
    )
    return head + tail


@lru_cache(maxsize=None)
def stirling2(sigma: int, m: int) -> int:
    """Stirling number of the second kind S(sigma, m), exact.

    S(sigma, 0) = 1 iff sigma = 0; m > sigma returns 0.
    """
    if sigma < 0 or m < 0:
        raise ValueError("stirling2 arguments must be non-negative")
    if m > sigma:
        return 0
    if m == 0:
        return 1 if sigma == 0 else 0
    if m == sigma:
        return 1
    return m * stirling2(sigma - 1, m) + stirling2(sigma - 1, m - 1)


def bell_touchard(sigma: int, x: float) -> float:
    """Touchard polynomial Bell_sigma(x) = sum_m S(sigma, m) x^m, its terms
    added left to right on every Python version (the builtin sum of
    Python floats is compensated from 3.12 on)."""
    if sigma < 0:
        raise ValueError("bell_touchard requires sigma >= 0")
    terms = [stirling2(sigma, m) * x**m for m in range(sigma + 1)]
    return float(np.add.accumulate(terms)[-1])
