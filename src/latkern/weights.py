"""Product / POD / SPOD weight families and their PDE-driven derivations.

Weight families are kept in factored (sequence) form throughout.  The
order factors Gamma_ell of POD and SPOD weights grow factorially: they are
derived in base-2 logarithms and stored as floats, +inf past double range.
The derivations pick, of the factorizations Gamma_ell 2^(-k ell) and
gamma_jnu 2^(k nu), all of them the same weights, the least k >= 0 that
keeps the kernel's order terms in double range (``_balanced``), and
refuse the weights when no k does.  The rows the factors multiply drop
their trailing zeros, so an infinite factor reaches a result only where a
kept row meets it, and that result, not finite, raises FloatingPointError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .special import E_POW_INV_E, bell_touchard, stirling2, zeta

__all__ = [
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


class Scaled(NamedTuple):
    """mantissa * 2**exponent, as ``squared_weight_sum`` returns Q_s."""

    mantissa: float
    exponent: int

    def to_float(self) -> float:
        return math.ldexp(self.mantissa, self.exponent)


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
    Gamma is the float array of Gamma_0, Gamma_1, ..., up to at least
    Gamma_{dimension * sigma}: positive, and +inf past double range.
    """

    kind: str
    gamma_j: np.ndarray | None = None
    Gamma: np.ndarray | None = None
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
            G = np.asarray(self.Gamma, dtype=float)
            need = self.dimension * self.sigma + 1
            if G.ndim != 1 or len(G) < need:
                raise ValueError(
                    f"Gamma needs {need} entries (orders 0..dimension * "
                    f"sigma), got shape {G.shape}"
                )
            if not np.all(G > 0):  # NaN fails too; +inf passes
                raise ValueError("Gamma entries must be positive, or +inf")
            object.__setattr__(self, "Gamma", G)

    @property
    def sigma(self) -> int:
        return self.gamma_jnu.shape[1]

    @property
    def dimension(self) -> int:
        return self.gamma_jnu.shape[0]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """gamma_jnu's rows for coordinates start + 1 .. stop; ValueError,
        naming the first coordinate out, if stop is past the sequence."""
        if stop > self.dimension:
            raise ValueError(
                f"coordinate {self.dimension + 1} is past the weight sequence"
            )
        return self.gamma_jnu[start:stop]


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
    """A derivation's result; each puts lam in (1/alpha, 1]."""

    alpha: int
    lam: float
    scheme: WeightScheme
    scenario: str | None = None
    rate: float | None = None


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


def _order_logs(bases, t: float) -> np.ndarray:
    """log2 of b^t for each base b = m 2^e (m in [1, 2)): t (e + log2 m)."""
    return np.array([t * (e + math.log2(m)) for m, e in bases])


def _order_factors(lg, k: int = 0) -> np.ndarray:
    """Gamma_ell 2^(-k ell) from lg[ell] = log2 Gamma_ell: 2^(lg - floor(lg))
    times 2^(floor(lg) - k ell), or +inf past double range."""
    out = []
    for ell, x in enumerate(lg):
        e = math.floor(x) - k * ell
        out.append(math.ldexp(2.0 ** (x - math.floor(x)), e) if e < 1024
                   else math.inf)
    return np.array(out)


def _spod_order_logs(lam: float, span: int) -> np.ndarray:
    """log2 Gamma_ell, Gamma_ell = (ell!)^(2/(1+lam)), for ell = 0..span."""
    return _order_logs(_factorials(span), 2.0 / (1.0 + lam))


def _pod_order_logs(alpha: int, sigma: int, lam: float, s: int):
    """log2 Gamma_ell, Gamma_ell = ((sigma ell)!^2 / (max(ell, 1)
    z2^ell))^(1/(1+lam)) with z2 = 2 zeta(alpha lam), for ell = 0..s."""
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
    return _order_logs(bases, 1.0 / (1.0 + lam))


# ---------------------------------------------------------------------------
# one exact rescaling of the order factors
#
# gamma_jnu 2^(k nu) and Gamma_ell 2^(-k ell) give every gamma_u for any
# integer k, and scale kernel row ell by 2^(k ell) exactly while both stay
# normal.  |eta| is largest at the difference 0, eta(0) = 2 zeta(alpha), so
# the rows there bound the rows at every point; their logs, and those of
# the order-pair table of Q_d, pick k.


def _log_rows(table: np.ndarray, x: float) -> np.ndarray:
    """log2 of the order rows when every factor value is x > 0: coordinate
    j adds table[j, nu - 1] x times row ell - nu to row ell.  The terms are
    positive, so a sum of logs loses no range."""
    lr, sigma = np.zeros(1), table.shape[1]
    for step in np.log2(table * x):
        new = np.full(len(lr) + sigma, -np.inf)
        new[: len(lr)] = lr
        for nu in range(1, sigma + 1):
            seg = new[nu : nu + len(lr)]
            np.logaddexp2(seg, step[nu - 1] + lr, out=seg)
        lr = new
    return lr


def _fits(lg, lr, k: int, power: int) -> bool:
    """Whether factors Gamma_ell^power 2^(-power k ell) and rows
    2^(lr + power k ell) stay in double range: the largest term is below
    2^1022, no row overflows, no row that stays nonzero meets an infinite
    factor, no factor is 0.0, and no term within 2^-60 of the largest has
    a subnormal row or factor."""
    ell = np.arange(len(lr))
    g = power * (lg[: len(lr)] - k * ell)
    r = lr + power * k * ell
    t = g + r
    top = t.max()
    return bool(
        top < 1022
        and r.max() < 1023
        and g[r >= -1080].max() < 1023
        and g.min() > -1074 * power
        and not np.any((t >= top - 60) & ((r < -1022) | (g < -1022)))
    )


def _balanced(kind: str, lg, table: np.ndarray, alpha: int) -> WeightScheme:
    """The POD or SPOD scheme of log2 order factors lg and gamma table,
    rescaled by the least k >= 0 that keeps its terms in double range.

    The kernel rows use x = eta(0).  Q_d's order-pair table stands in as
    its diagonal, bounded by the rows of the squared gammas at
    x = sigma 2 zeta(2 alpha), exact for POD, whose table is diagonal.
    k = 0 whenever that fits; past the largest step of lg no k does better.
    ValueError if none fits: the terms span more than double range.
    """
    sigma = table.shape[1]
    rows = _log_rows(table, 2.0 * zeta(alpha))
    pairs = _log_rows(table**2, sigma * 2.0 * zeta(2 * alpha))
    for k in range(int(np.diff(lg, prepend=0.0).max()) + 2):
        if _fits(lg, rows, k, 1) and _fits(lg, pairs, k, 2):
            break
    else:
        t = lg[: len(rows)] + rows
        raise ValueError(
            f"the {kind.upper()} kernel's order terms leave double range at "
            f"every exact rescaling: at the difference 0 term "
            f"{int(np.argmax(t))} is 2^{t.max():.1f}"
        )
    G = _order_factors(lg, k)
    table = np.ldexp(table, k * np.arange(1, sigma + 1))
    if kind == "pod":
        return WeightScheme(kind, gamma_j=table[:, 0], Gamma=G)
    return WeightScheme(kind, Gamma=G, gamma_jnu=table)


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
    scheme = _balanced("spod", _spod_order_logs(lam, s * sigma), table, alpha)
    return DerivedParams(alpha, lam, scheme, rate=1.0 / (2 * p) - 0.25)


def derive_pod(inp: PdeWeightInput, s: int) -> DerivedParams:
    """POD weights; p must lie in some (2/(2k+1), 1/k)."""
    p = inp.p
    k = math.floor(1.0 / p)
    if not (k >= 1 and 2.0 / (2 * k + 1) < p < 1.0 / k):
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
    lg = _pod_order_logs(alpha, k, lam, s)
    scheme = _balanced("pod", lg, gamma_j[:, None], alpha)
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


def squared_weight_prefixes(
    scheme: WeightScheme, s: int, x: float
) -> list[float]:
    """[Q_1, ..., Q_s], Q_d = sum over u subseteq {1..d} of gamma_u^2 x^{|u|}.

    x is typically 2*zeta(2*alpha).  One pass of the factored recursion
    adds a coordinate per step, so all s prefixes cost what Q_s does: no
    subset enumeration.  For POD and SPOD (POD is the sigma = 1 case) a
    plain loop adds each coordinate's order-pair terms to r[ell, ell'], and
    each prefix sums the nonzero Gamma_ell Gamma_ell' r[ell, ell'].
    ValueError for s < 1 or an s past the weight sequence
    (``WeightScheme.rows``); FloatingPointError when a Q_d is not finite.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    g = scheme.rows(0, s)
    out = []
    if scheme.kind == "product":
        q = 1.0
        for f in (1.0 + g[:, 0] * g[:, 0] * x).tolist():
            q *= f
            out.append(q)
    else:
        # gamma_u^2 couples two order indices; track both.  Each step widens
        # r by the sigma orders per index that the coordinate can reach and
        # adds ((x gamma_nu) gamma_nu') r shifted by (nu, nu') for every
        # pair in turn, nu' fastest.  The trailing all-zero rows and columns
        # go: r[0, 0] = 1 stays, so the last nonzero entry's row and the
        # largest column bound them.
        sigma, G = scheme.sigma, scheme.Gamma
        r = np.ones((1, 1))
        with np.errstate(over="ignore"):
            for c in x * g[:, :, None] * g[:, None, :]:
                a, b = r.shape
                new = np.zeros((a + sigma, b + sigma))
                new[:a, :b] = r
                for nu, c_nu in enumerate(c, start=1):
                    for nup, c_pair in enumerate(c_nu, start=1):
                        new[nu : nu + a, nup : nup + b] += c_pair * r
                i, j = np.nonzero(new)
                r = new[: i[-1] + 1, : j.max() + 1]
                out.append(float(np.sum(G[i] * G[j] * r[i, j])))
    for d, q in enumerate(out, start=1):
        if not math.isfinite(q):
            raise FloatingPointError(
                f"the squared weight sum Q_{d} is {q}, past double range"
            )
    return out


def squared_weight_sum(scheme: WeightScheme, s: int, x: float) -> Scaled:
    """Q_s = sum over u subseteq {1..s} of gamma_u^2 * x^{|u|}, s >= 1.

    The last of ``squared_weight_prefixes``, split by math.frexp.
    """
    return Scaled(*math.frexp(squared_weight_prefixes(scheme, s, x)[-1]))
