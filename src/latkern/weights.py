"""Product / POD / SPOD weight families and their PDE-driven derivations.

Weight families are kept in factored (sequence) form throughout.  Order
factors Gamma_ell carry factorial growth, so they are stored as scaled
pairs: an array of mantissas in [1, 2) next to an array of unbounded
integer exponents.  Scalars out of double range, such as the subtracted
term of the CBC criterion, are ``Scaled`` pairs.  Only this module aligns
(``_aligned``), sums, subtracts and collapses scaled pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .special import E_POW_INV_E, bell_touchard, stirling2, zeta

__all__ = [
    "RangeError",
    "Scaled",
    "WeightScheme",
    "PdeWeightInput",
    "DerivedParams",
    "derive_spod",
    "derive_pod",
    "derive_product",
    "squared_weight_prefixes",
    "squared_weight_sum",
]


class RangeError(OverflowError):
    """Conversion to a plain float would overflow or underflow.

    Carries the base-2 magnitude of the offending value so callers can
    report how far out of range the result was.
    """

    def __init__(self, log2_magnitude: float):
        self.log2_magnitude = log2_magnitude
        super().__init__(
            f"value with log2 magnitude {log2_magnitude:.1f} is outside the "
            "plain float range"
        )


class Scaled(NamedTuple):
    """The real number mantissa * 2**exponent, for magnitudes past doubles."""

    mantissa: float
    exponent: int

    def to_float(self) -> float:
        """The value as a float; RangeError outside 2^-1074 .. 2^1024."""
        if self.mantissa == 0.0:
            return 0.0
        e = math.frexp(self.mantissa)[1] + self.exponent
        if not -1074 < e <= 1024:
            raise RangeError(self.exponent + math.log2(abs(self.mantissa)))
        return math.ldexp(self.mantissa, self.exponent)


_NO_TERM = np.iinfo(np.int64).min  # top of an all-zero column, until set 0


def _aligned(T: np.ndarray, F: np.ndarray):
    """Terms T * 2^F on one scale per column: (T * 2^(F - top), top).

    Axis 0 runs over the terms.  top is each column's largest F over its
    nonzero terms, and 0 for an all-zero column.  T is scaled in place,
    exactly, by powers of two, and returned; F is left as it is.  Shifts
    stop at -2200: any double times 2^-2200 is 0, so no term changes.
    """
    top = np.where(T != 0.0, F, _NO_TERM).max(axis=0, initial=_NO_TERM)
    top = np.where(top == _NO_TERM, 0, top)
    # int32 shifts take numpy's vectorized ldexp loop, int64 ones do not
    sh = np.clip(F - top, -2200, 0).astype(np.int32)
    return np.ldexp(T, sh, out=T), top


def _difference(a: Scaled, b: Scaled) -> Scaled:
    """a - b: both pairs normalized, aligned to the larger exponent and
    subtracted once, so the result is the exact difference rounded."""
    (ma, xa), (mb, xb) = math.frexp(a.mantissa), math.frexp(b.mantissa)
    ea, eb = a.exponent + xa, b.exponent + xb
    top = max(ea, eb)
    return Scaled(math.ldexp(ma, ea - top) - math.ldexp(mb, eb - top), top)


def _to_floats(S: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Normalized pair arrays S * 2^F as floats; RangeError when one
    overflows, that is when its exponent F exceeds 1024."""
    over = (F > 1024) & (S != 0.0)
    if np.any(over):
        i = int(np.argmax(over))
        raise RangeError(math.log2(abs(S[i])) + F[i])
    return np.ldexp(S, F)


@dataclass(frozen=True)
class WeightScheme:
    """One of the three structured weight families.

    kind = "product": gamma_u = prod_{j in u} gamma_j
    kind = "spod":    gamma_u = sum over nu in {1..sigma}^{|u|} of
                      Gamma_{|nu|} prod_j gamma_jnu[j, nu_j - 1]
    kind = "pod":     gamma_u = Gamma_{|u|} prod_{j in u} gamma_j, SPOD's
                      sum with sigma = 1

    Product and POD schemes take gamma_j and store it as the one-column
    table gamma_jnu too, so POD weights run the SPOD recursions.  sigma is
    the table's column count.  gamma_empty is always 1 and is not stored.
    Gamma is the pair of arrays (mantissas in [1, 2), int64 exponents) of
    Gamma_0, Gamma_1, ..., up to at least Gamma_{dimension * sigma}.
    """

    kind: str
    gamma_j: np.ndarray | None = None
    Gamma: tuple[np.ndarray, np.ndarray] | None = None
    gamma_jnu: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("product", "pod", "spod"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind != "spod":
            if self.gamma_j is None or self.gamma_jnu is not None:
                raise ValueError(f"{self.kind} weights take gamma_j only")
            col = np.asarray(self.gamma_j, dtype=float)[:, None]
            object.__setattr__(self, "gamma_jnu", col)
        g = np.asarray(self.gamma_jnu, dtype=float)  # None reads as NaN
        if not np.all((0 < g) & (g < np.inf)):
            raise ValueError("gamma_j / gamma_jnu must be finite and positive")
        if self.kind != "product":
            if self.Gamma is None:
                raise ValueError(f"{self.kind} weights need order factors")
            (gm, ge), need = self.Gamma, self.dimension * self.sigma + 1
            if len(gm) != len(ge) or len(gm) < need:
                raise ValueError(
                    f"Gamma needs {need} mantissas and as many exponents "
                    f"(orders 0..dimension * sigma), got {len(gm)}, {len(ge)}"
                )
            if not np.all((0 < gm) & (gm < np.inf)):
                raise ValueError("Gamma entries must be finite and positive")

    @property
    def sigma(self) -> int:
        return self.gamma_jnu.shape[1]

    @property
    def dimension(self) -> int:
        return self.gamma_jnu.shape[0]


@dataclass(frozen=True)
class PdeWeightInput:
    """Decay data of the diffusion fluctuations feeding the weight choice."""

    p: float
    b: np.ndarray
    delta: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("summability exponent p must lie in (0, 1)")
        b = np.asarray(self.b, dtype=float)
        bad = ~((0 < b) & (b < np.inf))  # NaN fails both
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(
                f"b sequence must be finite and positive: b_{j + 1} = {b[j]}"
            )
        if np.any(np.diff(b) > 1e-15):
            raise ValueError("b sequence must be non-increasing")


@dataclass(frozen=True)
class DerivedParams:
    alpha: int
    lam: float
    scheme: WeightScheme
    scenario: str | None = None
    rate: float | None = None

    def __post_init__(self):
        if self.alpha % 2 != 0 or self.alpha < 2:
            raise ValueError("alpha must be an even integer >= 2")
        if not (1.0 / self.alpha < self.lam <= 1.0):
            raise ValueError(
                f"lambda {self.lam} outside (1/alpha, 1] for alpha {self.alpha}"
            )


# ---------------------------------------------------------------------------
# derivations


def _unit(x: float) -> tuple[float, int]:
    """x > 0 as (m, e) with x = m 2^e and m in [1, 2)."""
    m, e = math.frexp(x)
    return 2.0 * m, e - 1


def _factorials(top: int) -> list[tuple[float, int]]:
    """ell! as (m, e), m in [1, 2), for ell = 0..top: one rounding each."""
    out = [(1.0, 0)]
    for ell in range(1, top + 1):
        m, x = _unit(out[-1][0] * ell)
        out.append((m, out[-1][1] + x))
    return out


def _power(x: float, ell: int) -> tuple[float, int]:
    """x^ell as (m, e), m in [1, 2), for x > 0: pow raises x's mantissa,
    in [1, 2), to at most 1023 per step, so no step leaves double range."""
    xm, e = _unit(x)
    m, e = 1.0, e * ell
    for k in [ell % 1023] + [1023] * (ell // 1023):
        m, y = _unit(m * xm**k)
        e += y
    return m, e


def _order_factors(bases, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Gamma arrays of b^t for each base b = m 2^e (m in [1, 2)): with
    lg = t (e + log2 m), mantissa 2^(lg - floor(lg)), exponent floor(lg)."""
    gm, ge = [], []
    for m, e in bases:
        lg = t * (e + math.log2(m))
        k = math.floor(lg)
        gm.append(2.0 ** (lg - k))
        ge.append(k)
    return np.array(gm), np.array(ge, dtype=np.int64)


def _spod_order_factors(lam: float, span: int):
    """Gamma_ell = (ell!)^(2/(1+lam)) for ell = 0..span."""
    return _order_factors(_factorials(span), 2.0 / (1.0 + lam))


def _pod_order_factors(alpha: int, sigma: int, lam: float, s: int):
    """Gamma_ell = ((sigma ell)!^2 / (max(ell, 1) z2^ell))^(1/(1+lam)).

    z2 = 2 zeta(alpha lam), for ell = 0..s.
    """
    z2 = 2.0 * zeta(alpha * lam)
    facts = _factorials(sigma * s)
    bases = []
    for ell in range(s + 1):
        fm, fe = facts[sigma * ell]
        sq, x = _unit(fm * fm)
        pm, pe = _power(z2, ell)
        dm, de = _unit(max(ell, 1) * pm)
        m, y = _unit(sq / dm)
        bases.append((m, 2 * fe + x - pe - de + y))
    return _order_factors(bases, 1.0 / (1.0 + lam))


def derive_spod(inp: PdeWeightInput, s: int) -> DerivedParams:
    """SPOD weights tuned to the decay data."""
    p = inp.p
    alpha = 2 * math.floor(1.0 / p + 0.5)
    sigma = alpha // 2
    lam = p / (2.0 - p)
    z = zeta(alpha * lam)
    denom = math.sqrt(2.0 * E_POW_INV_E * z)
    expo = 2.0 / (1.0 + lam)
    b = np.asarray(inp.b, dtype=float)[:s]
    table = np.empty((s, sigma))
    for nu in range(1, sigma + 1):
        table[:, nu - 1] = (b**nu * stirling2(sigma, nu) / denom) ** expo
    scheme = WeightScheme(
        "spod", Gamma=_spod_order_factors(lam, s * sigma), gamma_jnu=table
    )
    return DerivedParams(alpha, lam, scheme, rate=1.0 / (2 * p) - 0.25)


def _pod_admissible(p: float) -> bool:
    k = math.floor(1.0 / p)
    return k >= 1 and 2.0 / (2 * k + 1) < p < 1.0 / k


def derive_pod(inp: PdeWeightInput, s: int) -> DerivedParams:
    """POD weights; p must lie in some (2/(2k+1), 1/k)."""
    p = inp.p
    k = math.floor(1.0 / p)
    if not _pod_admissible(p):
        # Smallest admissible p~ > p is the lower endpoint of the next
        # interval up; substitution is the caller's decision.
        while k >= 1 and 1.0 / k <= p:
            k -= 1
        lo = 2.0 / (2 * k + 1) if k >= 1 else float("nan")
        raise ValueError(
            f"p={p} is not POD-admissible; nearest admissible interval is "
            f"({lo:.6f}, {1.0 / k if k >= 1 else 1.0:.6f}) — substitute some "
            f"p~ > {lo:.6f}"
        )
    alpha = 2 * k
    lam = p / (2.0 - p)
    inv = 1.0 / (1.0 + lam)
    b = np.asarray(inp.b, dtype=float)[:s]
    gamma_j = np.array([bell_touchard(k, bj) ** (2.0 * inv) for bj in b])
    scheme = WeightScheme(
        "pod", gamma_j=gamma_j, Gamma=_pod_order_factors(alpha, k, lam, s)
    )
    return DerivedParams(alpha, lam, scheme, rate=1.0 / (2 * p) - 0.25)


def _product_scenario(p: float) -> str:
    # Closed intervals [2/(4k+3), 2/(4k+1)] -> A; the open complement in
    # (0, 1/2) -> B.
    k = 1
    while 2.0 / (4 * k + 3) > p:
        k += 1
    if 2.0 / (4 * k + 3) <= p <= 2.0 / (4 * k + 1):
        return "A"
    return "B"


def derive_product(inp: PdeWeightInput, s: int) -> DerivedParams:
    """Product weights; requires p < 1/2 and sacrifices delta in the rate."""
    p, delta = inp.p, inp.delta
    if p >= 0.5:
        raise ValueError(f"product weights require p < 1/2, got p={p}")
    scenario = _product_scenario(p)
    x = 1.0 / (2 * p) - 0.25
    if scenario == "A":
        sigma = math.floor(x)
        if not 0.0 < delta < sigma / 2.0 - 0.25:
            raise ValueError(
                f"delta must lie in (0, {sigma / 2.0 - 0.25}) for scenario A"
            )
        lam = 1.0 / (2 * sigma - 4 * delta)
        rate = 0.5 * sigma - delta
    else:
        sigma = math.ceil(x)
        top = 1.0 / (2 * p) - 0.5 - sigma / 2.0
        if not 0.0 < delta < top:
            raise ValueError(f"delta must lie in (0, {top}) for scenario B")
        lam = 1.0 / (2.0 / p - 1.0 - 2 * sigma - 4 * delta)
        rate = x - 0.5 * sigma - delta
    alpha = 2 * sigma
    z = zeta(alpha * lam)
    inv = 1.0 / (1.0 + lam)
    b = np.asarray(inp.b, dtype=float)[:s]
    j = np.arange(1, s + 1, dtype=float)
    bell = np.array([bell_touchard(sigma, bj) for bj in b])
    gamma_j = (((j * sigma) ** sigma * bell) ** 2 / (2.0 * E_POW_INV_E * z)) ** inv
    scheme = WeightScheme("product", gamma_j=gamma_j)
    return DerivedParams(alpha, lam, scheme, scenario=scenario, rate=rate)


# ---------------------------------------------------------------------------
# factored sums of squared weights (subtracted term of the CBC criterion)


def _scaled_total(T: np.ndarray, F: np.ndarray) -> Scaled:
    """sum T * 2^F of nonnegative terms as a pair, shift-stable: the
    nonzero terms aligned (``_aligned``) and summed in one array step.
    The mantissa is in [0.5, 1), or the pair is (0.0, 0)."""
    live = T != 0.0
    t, top = _aligned(T[live], F[live])
    m, e = math.frexp(float(np.sum(t)))
    return Scaled(m, int(top) + e)


def squared_weight_prefixes(
    scheme: WeightScheme, s: int, x: float
) -> list[Scaled]:
    """[Q_1, ..., Q_s], Q_d = sum over u subseteq {1..d} of gamma_u^2 x^{|u|}.

    x is typically 2*zeta(2*alpha).  One pass of the factored recursion
    adds a coordinate per step, so all s prefixes cost what Q_s does: no
    subset enumeration.  For POD and SPOD (POD is the sigma = 1 case)
    each prefix contracts the order-pair sums r[ell, ell'] with Gamma's
    (mantissa, exponent) arrays in one array step.
    Each Q_d is a pair with its mantissa in [0.5, 1).
    """
    out = []
    if scheme.kind == "product":
        m, e = 1.0, 0
        for g in scheme.gamma_j[:s]:
            m, k = math.frexp(m * (1.0 + g * g * x))
            e += k
            out.append(Scaled(m, e))
        return out
    # gamma_u^2 couples two order indices; track both.  Orders above
    # (j + 1) sigma are still 0 after j + 1 steps, so each step copies and
    # updates only the live block r[:top, :top].
    sigma = scheme.sigma
    span = s * sigma
    gm, ge = (a[: span + 1] for a in scheme.Gamma)
    r = np.zeros((span + 1, span + 1))
    r[0, 0] = 1.0
    gmm = gm[:, None] * gm[None, :]
    gee = ge[:, None] + ge[None, :]
    for j in range(s):
        g = scheme.gamma_jnu[j]
        top = (j + 1) * sigma + 1
        old = r[:top, :top].copy()
        for nu in range(1, sigma + 1):
            for nup in range(1, sigma + 1):
                c = x * g[nu - 1] * g[nup - 1]
                r[nu:top, nup:top] += c * old[: top - nu, : top - nup]
        out.append(_scaled_total(gmm[:top, :top] * r[:top, :top],
                                 gee[:top, :top]))
    return out


def squared_weight_sum(scheme: WeightScheme, s: int, x: float) -> Scaled:
    """Q_s = sum over u subseteq {1..s} of gamma_u^2 * x^{|u|}, s >= 1.

    The last of ``squared_weight_prefixes``.
    """
    return squared_weight_prefixes(scheme, s, x)[-1]
