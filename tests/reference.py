"""Reference implementations the tests compare latkern against.

None of this is production code.  ``ExtendedReal`` is a scalar base-2
extended-range float: a double mantissa in [1, 2) next to an unbounded
integer exponent.  The package computes the same magnitudes as scaled
(mantissa, exponent) arrays; the scalar oracles below compute them one
operation at a time in ``ExtendedReal``: the factored kernel recursion,
subset enumeration, the norm factor r(h), single weights gamma_u and the
paper's worst-case bound.  Alongside them are the order factors in their
defining formulas, trigonometric polynomials and their H norm, the
coefficient a(x, y) at arbitrary points, the truncated solve and the
pigeonhole fooling vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from latkern.kernel import KernelSpec, eta
from latkern.pde import (
    _SQRT6,
    DiffusionModel,
    FemMesh,
    FemSolution,
    _parameters,
    fem_solve,
)
from latkern.special import zeta
from latkern.weights import DerivedParams, RangeError, WeightScheme

_ENUM_LIMIT = 12
# Largest |exponent| that still converts to a finite double.
_MAX_FLOAT_EXP = 1023


@dataclass(frozen=True)
class ExtendedReal:
    """sign * mantissa * 2**exponent with mantissa in [1, 2) or 0."""

    mantissa: float
    exponent: int
    sign: int

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_float(x: float) -> "ExtendedReal":
        if x == 0.0:
            return _ZERO
        if not math.isfinite(x):
            raise ValueError(f"cannot represent {x!r}")
        sign = 1 if x > 0 else -1
        frac, exp = math.frexp(abs(x))  # frac in [0.5, 1)
        return ExtendedReal(2.0 * frac, exp - 1, sign)

    @staticmethod
    def zero() -> "ExtendedReal":
        return _ZERO

    @staticmethod
    def one() -> "ExtendedReal":
        return _ONE

    def __post_init__(self):
        if self.sign == 0:
            if self.mantissa != 0.0:
                raise ValueError("zero must have zero mantissa")
        elif not (1.0 <= self.mantissa < 2.0):
            raise ValueError(f"mantissa {self.mantissa} not normalized")

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    @property
    def log2(self) -> float:
        """Base-2 log of the magnitude; -inf for zero."""
        if self.is_zero:
            return -math.inf
        return self.exponent + math.log2(self.mantissa)

    def to_float(self) -> float:
        if self.is_zero:
            return 0.0
        # Doubles cover 2^-1074 (smallest subnormal) through just under
        # 2^1024; anything outside raises the range diagnostic.
        if self.exponent > _MAX_FLOAT_EXP or self.exponent < -1074:
            raise RangeError(self.log2)
        return self.sign * math.ldexp(self.mantissa, self.exponent)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "ExtendedReal":
        return ExtendedReal(self.mantissa, self.exponent, -self.sign)

    def __abs__(self) -> "ExtendedReal":
        return ExtendedReal(self.mantissa, self.exponent, abs(self.sign))

    def __mul__(self, other) -> "ExtendedReal":
        if not isinstance(other, ExtendedReal):
            other = ExtendedReal.from_float(float(other))
        if self.is_zero or other.is_zero:
            return _ZERO
        m = self.mantissa * other.mantissa  # in [1, 4)
        e = self.exponent + other.exponent
        if m >= 2.0:
            m *= 0.5
            e += 1
        return ExtendedReal(m, e, self.sign * other.sign)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExtendedReal":
        if not isinstance(other, ExtendedReal):
            other = ExtendedReal.from_float(float(other))
        if other.is_zero:
            raise ZeroDivisionError("ExtendedReal division by zero")
        if self.is_zero:
            return _ZERO
        m = self.mantissa / other.mantissa  # in (0.5, 2)
        e = self.exponent - other.exponent
        if m < 1.0:
            m *= 2.0
            e -= 1
        return ExtendedReal(m, e, self.sign * other.sign)

    def __add__(self, other) -> "ExtendedReal":
        if not isinstance(other, ExtendedReal):
            other = ExtendedReal.from_float(float(other))
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        hi, lo = (self, other) if self.exponent >= other.exponent else (other, self)
        shift = hi.exponent - lo.exponent
        if shift > 64:
            return hi
        # Both terms fit in a double after scaling by 2**-hi.exponent.
        tot = hi.sign * hi.mantissa + lo.sign * math.ldexp(lo.mantissa, -shift)
        if tot == 0.0:
            return _ZERO
        res = ExtendedReal.from_float(tot)
        return ExtendedReal(res.mantissa, res.exponent + hi.exponent, res.sign)

    __radd__ = __add__

    def __sub__(self, other) -> "ExtendedReal":
        if not isinstance(other, ExtendedReal):
            other = ExtendedReal.from_float(float(other))
        return self + (-other)

    def powf(self, t: float) -> "ExtendedReal":
        """self**t for positive self and real t."""
        if self.is_zero:
            if t <= 0:
                raise ValueError("0**t undefined for t <= 0")
            return _ZERO
        if self.sign < 0:
            raise ValueError("powf requires a positive base")
        lg = t * self.log2
        e = math.floor(lg)
        return ExtendedReal(2.0 ** (lg - e), e, 1) if lg - e > 0 else \
            ExtendedReal(1.0, e, 1)

    # -- ordering ----------------------------------------------------------

    def _cmp(self, other: "ExtendedReal") -> int:
        if self.sign != other.sign:
            return 1 if self.sign > other.sign else -1
        if self.sign == 0:
            return 0
        if self.exponent != other.exponent:
            delta = 1 if self.exponent > other.exponent else -1
            return delta * self.sign
        if self.mantissa == other.mantissa:
            return 0
        return (1 if self.mantissa > other.mantissa else -1) * self.sign

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0


_ZERO = ExtendedReal(0.0, 0, 0)
_ONE = ExtendedReal(1.0, 0, 1)

_factorial_cache: dict[int, ExtendedReal] = {0: _ONE}


def xfactorial(n: int) -> ExtendedReal:
    """n! as an ExtendedReal; exact to double relative precision."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    if n in _factorial_cache:
        return _factorial_cache[n]
    top = max(_factorial_cache)
    acc = _factorial_cache[top]
    for k in range(top + 1, n + 1):
        acc = acc * ExtendedReal.from_float(float(k))
        _factorial_cache[k] = acc
    return acc


# ---------------------------------------------------------------------------
# order factors


def gamma_arrays(factors: Iterable[ExtendedReal]):
    """WeightScheme.Gamma arrays (mantissas, exponents) of ExtendedReals."""
    factors = list(factors)
    return (
        np.array([g.mantissa for g in factors]),
        np.array([g.exponent for g in factors], dtype=np.int64),
    )


def order_factor(scheme: WeightScheme, ell: int) -> ExtendedReal:
    """Gamma_ell of a POD or SPOD scheme as an ExtendedReal."""
    return ExtendedReal(
        float(scheme.Gamma[0][ell]), int(scheme.Gamma[1][ell]), 1
    )


def spod_order_factors(lam: float, span: int) -> list[ExtendedReal]:
    """Gamma_ell = (ell!)^(2/(1+lam)) for ell = 0..span."""
    expo = 2.0 / (1.0 + lam)
    return [xfactorial(ell).powf(expo) for ell in range(span + 1)]


def _xpower(x: ExtendedReal, ell: int) -> ExtendedReal:
    """x^ell for positive x: 2^(ell exponent) times the mantissa's power,
    taken by pow to at most 1023 per factor (each below 2^1023)."""
    out = ExtendedReal(1.0, x.exponent * ell, 1)
    for k in [ell % 1023] + [1023] * (ell // 1023):
        out = out * ExtendedReal.from_float(x.mantissa**k)
    return out


def pod_order_factors(
    alpha: int, sigma: int, lam: float, s: int
) -> list[ExtendedReal]:
    """Gamma_ell = ((sigma ell)!^2 / (max(ell, 1) z2^ell))^(1/(1+lam)),
    z2 = 2 zeta(alpha lam), for ell = 0..s."""
    z2 = ExtendedReal.from_float(2.0 * zeta(alpha * lam))
    inv = 1.0 / (1.0 + lam)
    out = []
    for ell in range(s + 1):
        num = xfactorial(sigma * ell)
        base = (num * num) / (_xpower(z2, ell) * max(ell, 1))
        out.append(base.powf(inv))
    return out


# ---------------------------------------------------------------------------
# weights and the norm factor


def weight_of(scheme: WeightScheme, u: Iterable[int]) -> ExtendedReal:
    """gamma_u by direct enumeration; test-oracle use only (|u| <= 12)."""
    u = sorted(set(u))
    if len(u) > _ENUM_LIMIT:
        raise ValueError(
            f"|u|={len(u)} too large to enumerate; use the recursive kernel "
            "paths instead"
        )
    if any(j < 1 or j > scheme.dimension for j in u):
        raise ValueError("u must be a subset of {1..s}")
    if not u:
        return ExtendedReal.one()
    if scheme.kind == "product":
        return ExtendedReal.from_float(
            float(np.prod([scheme.gamma_j[j - 1] for j in u]))
        )
    if scheme.kind == "pod":
        prod = float(np.prod([scheme.gamma_j[j - 1] for j in u]))
        return order_factor(scheme, len(u)) * ExtendedReal.from_float(prod)
    # SPOD: enumerate smoothness multi-indices over u.
    total = ExtendedReal.zero()
    for nu in itertools.product(range(1, scheme.sigma + 1), repeat=len(u)):
        prod = float(
            np.prod([scheme.gamma_jnu[j - 1, v - 1] for j, v in zip(u, nu)])
        )
        total = total + order_factor(scheme, sum(nu)) * \
            ExtendedReal.from_float(prod)
    return total


def theory_error_constant(params: DerivedParams, s: int, n: int) -> float:
    """Worst-case L2 bound kappa * n^{-1/(4 lam)} * (weighted sum)^{1/(2 lam)}.

    Enumerates all subsets of {1..s}; diagnostic use only.
    """
    if s > _ENUM_LIMIT:
        raise ValueError(f"s={s} too large for subset enumeration")
    alpha, lam = params.alpha, params.lam
    kappa = math.sqrt(2.0) * max(6.0, 2.5 + 2.0 ** (2 * alpha * lam + 1)) ** (
        1.0 / (4 * lam)
    )
    z2 = 2.0 * zeta(alpha * lam)
    total = ExtendedReal.zero()
    for r in range(s + 1):
        for u in itertools.combinations(range(1, s + 1), r):
            gu = weight_of(params.scheme, u)
            term = gu.powf(lam) * ExtendedReal.from_float(max(r, 1) * z2**r)
            total = total + term
    return kappa * n ** (-1.0 / (4 * lam)) * total.powf(1.0 / (2 * lam)).to_float()


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
# the kernel, one point pair at a time


def kernel_eval(spec: KernelSpec, y, yp) -> float:
    """K(y, y') by the factored per-family recursion, in ExtendedReal.

    The oracle for the batch path: every family accumulates in
    ExtendedReal, since POD and SPOD order factors overflow doubles.  The
    per-coordinate difference is canonicalized through abs() so swapping
    the arguments performs bit-identical arithmetic.
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
        acc = ExtendedReal.one()
        for j in range(s):
            acc = acc * ExtendedReal.from_float(
                1.0 + sch.gamma_j[j] * etas[j]
            )
        return acc.to_float()
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
        total = total + order_factor(sch, ell) * rows[ell]
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
# trigonometric polynomials and the H norm


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite Fourier sum: terms maps frequency tuples to coefficients."""

    terms: dict

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        Y = np.atleast_2d(y)
        out = np.zeros(Y.shape[0], dtype=complex)
        for h, c in self.terms.items():
            out += c * np.exp(2j * math.pi * (Y @ np.asarray(h, float)))
        return out[0] if single else out


def h_norm(spec: KernelSpec, f: TrigPolynomial) -> float:
    total = ExtendedReal.zero()
    for h, c in f.terms.items():
        a = abs(c)
        if a == 0.0:
            continue
        total = total + rnorm(spec.alpha, spec.scheme, h) * \
            ExtendedReal.from_float(a * a)
    return math.sqrt(total.to_float())


# ---------------------------------------------------------------------------
# the diffusion problem


def diffusion_at(model: DiffusionModel, x, y) -> float | np.ndarray:
    """a(x, y) at points x (..., 2), for one parameter point y (s,) or for
    each row of y (B, s), shaped y.shape[:-1] + x.shape[:-1]."""
    x = np.asarray(x, dtype=float)
    y = _parameters(model, y)
    j = np.arange(1, model.s + 1, dtype=float)
    psi = (
        model.c
        * j**-model.theta
        * np.sin(j * math.pi * x[..., 0, None])
        * np.sin(j * math.pi * x[..., 1, None])
    )
    sines = np.sin(2.0 * math.pi * y)
    a = model.a0 + np.tensordot(sines, psi, (-1, -1)) / _SQRT6
    eps = 1e-12 * max(1.0, model.a_max)
    if np.any(a < model.a_min - eps) or np.any(a > model.a_max + eps):
        raise AssertionError("coefficient left [a_min, a_max]")
    return a


def truncated_solve(
    mesh: FemMesh, model: DiffusionModel, y, s: int
) -> FemSolution:
    y = np.asarray(y, dtype=float)
    if s > model.s:
        raise ValueError("truncation dimension exceeds the model dimension")
    if y.ndim != 1:
        raise ValueError(f"y has shape {y.shape}, one point (s,) is needed")
    if len(y) < s:
        raise ValueError(
            f"y has {len(y)} components, the truncation needs s = {s}"
        )
    yt = np.zeros(model.s)
    yt[:s] = y[:s]
    return fem_solve(mesh, model, yt)


# ---------------------------------------------------------------------------
# lattices


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
