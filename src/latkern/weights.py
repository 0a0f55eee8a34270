"""Product / POD / SPOD weight families and their PDE-driven derivations.

Weight families are kept in factored (sequence) form throughout; the
subset-enumerating ``weight_of`` exists only as a brute-force oracle for
tests and diagnostics.  Order factors Gamma_ell carry factorial growth
and are therefore stored as ExtendedReal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .extended import ExtendedReal, xfactorial
from .special import E_POW_INV_E, bell_touchard, stirling2, zeta

__all__ = [
    "WeightScheme",
    "PdeWeightInput",
    "DerivedParams",
    "derive_spod",
    "derive_pod",
    "derive_product",
    "weight_of",
    "theory_error_constant",
    "squared_weight_prefixes",
    "squared_weight_sum",
]

_ENUM_LIMIT = 12


@dataclass(frozen=True)
class WeightScheme:
    """One of the three structured weight families.

    kind = "product": gamma_u = prod_{j in u} gamma_j
    kind = "pod":     gamma_u = Gamma_{|u|} prod_{j in u} gamma_j
    kind = "spod":    gamma_u = sum over nu in {1..sigma}^{|u|} of
                      Gamma_{|nu|} prod_j gamma_jnu[j, nu_j - 1]

    gamma_empty is always 1 and is not stored.
    """

    kind: str
    sigma: int = 1
    gamma_j: np.ndarray | None = None
    Gamma: tuple[ExtendedReal, ...] | None = None
    gamma_jnu: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("product", "pod", "spod"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind in ("product", "pod"):
            if self.gamma_j is None or np.any(np.asarray(self.gamma_j) <= 0):
                raise ValueError("gamma_j must be a positive sequence")
        if self.kind in ("pod", "spod"):
            if self.Gamma is None:
                raise ValueError(f"{self.kind} weights need order factors")
            if any(g.sign <= 0 for g in self.Gamma):
                raise ValueError("Gamma entries must be positive")
        if self.kind == "spod":
            if self.gamma_jnu is None or np.any(np.asarray(self.gamma_jnu) <= 0):
                raise ValueError("gamma_jnu must be a positive table")
            if self.gamma_jnu.shape[1] != self.sigma:
                raise ValueError("gamma_jnu must have sigma columns")

    @property
    def dimension(self) -> int:
        if self.kind == "spod":
            return self.gamma_jnu.shape[0]
        return len(self.gamma_j)

    def order_span(self, s: int) -> int:
        """Largest reachable order |nu| at dimension s (0 for product)."""
        if self.kind == "product":
            return 0
        if self.kind == "pod":
            return s
        return s * self.sigma


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
        if np.any(b <= 0):
            raise ValueError("b sequence must be positive")
        if np.any(np.diff(b) > 1e-15):
            raise ValueError("b sequence must be non-increasing")


@dataclass(frozen=True)
class DerivedParams:
    alpha: int
    sigma: int
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


def _spod_order_factors(lam: float, span: int) -> tuple[ExtendedReal, ...]:
    """Gamma_ell = (ell!)^(2/(1+lam)) for ell = 0..span."""
    expo = 2.0 / (1.0 + lam)
    return tuple(xfactorial(ell).powf(expo) for ell in range(span + 1))


def _pod_order_factors(
    alpha: int, sigma: int, lam: float, s: int
) -> tuple[ExtendedReal, ...]:
    """Gamma_ell = ((sigma ell)!^2 / (max(ell, 1) z2^ell))^(1/(1+lam)).

    z2 = 2 zeta(alpha lam), for ell = 0..s.
    """
    z2 = 2.0 * zeta(alpha * lam)
    inv = 1.0 / (1.0 + lam)
    Gamma = []
    for ell in range(s + 1):
        num = xfactorial(sigma * ell)
        base = (num * num) / ExtendedReal.from_float(max(ell, 1) * z2**ell)
        Gamma.append(base.powf(inv))
    return tuple(Gamma)


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
        "spod", sigma=sigma, Gamma=_spod_order_factors(lam, s * sigma),
        gamma_jnu=table,
    )
    return DerivedParams(alpha, sigma, lam, scheme, rate=1.0 / (2 * p) - 0.25)


def _pod_admissible(p: float) -> bool:
    k = math.floor(1.0 / p)
    return k >= 1 and 2.0 / (2 * k + 1) < p < 1.0 / k


def derive_pod(inp: PdeWeightInput, s: int) -> DerivedParams:
    """POD weights; p must lie in some (2/(2k+1), 1/k)."""
    p = inp.p
    if not _pod_admissible(p):
        # Smallest admissible p~ > p is the lower endpoint of the next
        # interval up; substitution is the caller's decision.
        k = math.floor(1.0 / p)
        while k >= 1 and 1.0 / k <= p:
            k -= 1
        lo = 2.0 / (2 * k + 1) if k >= 1 else float("nan")
        raise ValueError(
            f"p={p} is not POD-admissible; nearest admissible interval is "
            f"({lo:.6f}, {1.0 / k if k >= 1 else 1.0:.6f}) — substitute some "
            f"p~ > {lo:.6f}"
        )
    k = math.floor(1.0 / p)
    alpha = 2 * k
    sigma = k
    lam = p / (2.0 - p)
    inv = 1.0 / (1.0 + lam)
    b = np.asarray(inp.b, dtype=float)[:s]
    gamma_j = np.array([bell_touchard(sigma, bj) ** (2.0 * inv) for bj in b])
    scheme = WeightScheme(
        "pod", sigma=sigma, gamma_j=gamma_j,
        Gamma=_pod_order_factors(alpha, sigma, lam, s),
    )
    return DerivedParams(alpha, sigma, lam, scheme, rate=1.0 / (2 * p) - 0.25)


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
    scheme = WeightScheme("product", sigma=sigma, gamma_j=gamma_j)
    return DerivedParams(alpha, sigma, lam, scheme, scenario=scenario, rate=rate)


# ---------------------------------------------------------------------------
# brute-force oracle and diagnostics


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
        return scheme.Gamma[len(u)] * ExtendedReal.from_float(prod)
    # SPOD: enumerate smoothness multi-indices over u.
    total = ExtendedReal.zero()
    import itertools

    for nu in itertools.product(range(1, scheme.sigma + 1), repeat=len(u)):
        prod = float(
            np.prod([scheme.gamma_jnu[j - 1, v - 1] for j, v in zip(u, nu)])
        )
        total = total + scheme.Gamma[sum(nu)] * ExtendedReal.from_float(prod)
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
    import itertools

    total = ExtendedReal.zero()
    for r in range(s + 1):
        for u in itertools.combinations(range(1, s + 1), r):
            gu = weight_of(params.scheme, u)
            term = gu.powf(lam) * ExtendedReal.from_float(max(r, 1) * z2**r)
            total = total + term
    return kappa * n ** (-1.0 / (4 * lam)) * total.powf(1.0 / (2 * lam)).to_float()


# ---------------------------------------------------------------------------
# factored sums of squared weights (subtracted term of the CBC criterion)


def _scaled_total(T: np.ndarray, F: np.ndarray) -> ExtendedReal:
    """sum T * 2^F of nonnegative terms as an ExtendedReal, shift-stable.

    Every live term is scaled (exactly, by a power of two) to the top
    exponent and the terms are summed in one array step.
    """
    live = T != 0.0
    if not np.any(live):
        return ExtendedReal.zero()
    F = F[live]
    top = int(np.max(F))
    t = float(np.sum(np.ldexp(T[live], np.clip(F - top, -2200, 0))))
    return ExtendedReal.from_float(t) * ExtendedReal(1.0, top, 1)


def squared_weight_prefixes(
    scheme: WeightScheme, s: int, x: float
) -> list[ExtendedReal]:
    """[Q_1, ..., Q_s], Q_d = sum over u subseteq {1..d} of gamma_u^2 x^{|u|}.

    x is typically 2*zeta(2*alpha).  One pass of the factored recursion
    adds a coordinate per step, so all s prefixes cost what Q_s does: no
    subset enumeration.  For POD and SPOD each prefix contracts the order
    sums with Gamma's (mantissa, exponent) arrays in one array step.
    """
    if scheme.kind == "product":
        acc, out = ExtendedReal.one(), []
        for g in scheme.gamma_j[:s]:
            acc = acc * ExtendedReal.from_float(1.0 + g * g * x)
            out.append(acc)
        return out
    span = scheme.order_span(s)
    gm = np.array([g.mantissa for g in scheme.Gamma[: span + 1]])
    ge = np.array([g.exponent for g in scheme.Gamma[: span + 1]], np.int64)
    out = []
    if scheme.kind == "pod":
        # q_ell = sum over |u|=ell of prod_{j in u} gamma_j^2 x.
        q = np.zeros(s + 1)
        q[0] = 1.0
        gm2, ge2 = gm * gm, 2 * ge
        for j in range(s):
            q[1 : j + 2] += scheme.gamma_j[j] ** 2 * x * q[: j + 1]
            out.append(_scaled_total(gm2 * q, ge2))
        return out
    # SPOD: gamma_u^2 couples two order indices; track both.
    sigma = scheme.sigma
    r = np.zeros((span + 1, span + 1))
    r[0, 0] = 1.0
    gmm = gm[:, None] * gm[None, :]
    gee = ge[:, None] + ge[None, :]
    for j in range(s):
        g = scheme.gamma_jnu[j]
        top = (j + 1) * sigma + 1  # orders above (j + 1) sigma are still 0
        new = r.copy()
        for nu in range(1, sigma + 1):
            for nup in range(1, sigma + 1):
                c = x * g[nu - 1] * g[nup - 1]
                new[nu:top, nup:top] += c * r[: top - nu, : top - nup]
        r = new
        out.append(_scaled_total(gmm[:top, :top] * r[:top, :top],
                                 gee[:top, :top]))
    return out


def squared_weight_sum(scheme: WeightScheme, s: int, x: float) -> ExtendedReal:
    """Q_s = sum over u subseteq {1..s} of gamma_u^2 * x^{|u|}, s >= 1.

    The last of ``squared_weight_prefixes``.
    """
    return squared_weight_prefixes(scheme, s, x)[-1]
