"""Closed-form radial integrals of the quartic-vs-gradient multiplicative inequality.

The witness family is phi(r) = r^(-alpha) exp(-r^2) in n space dimensions.
Both sides are sums of int_eps^inf r^(s-1) e^(-c r^2) dr = 1/2 c^(-s/2)
Gamma(s/2, c eps^2) with an inner cutoff eps; sweeping eps down exposes
whether the quartic side diverges while the gradient side stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1, gamma, gammaincc, gammaln, zeta

__all__ = [
    "RadialField",
    "InequalityReport",
    "sphere_area",
    "lhs",
    "rhs",
    "scan",
]


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere in R^n; 0 once Gamma(n/2) overflows."""
    with np.errstate(over="ignore"):
        return float(2.0 * np.pi ** (n / 2.0) / np.exp(gammaln(n / 2.0)))


@dataclass(frozen=True)
class RadialField:
    """phi(r) = r^(-alpha) e^(-r^2) in n spatial dimensions."""

    alpha: float
    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"need an integer dimension n >= 2, got n = {self.n}")
        if not 0.0 <= self.alpha < (self.n - 2) / 2.0:
            raise ValueError(
                f"alpha must lie in [0, (n-2)/2) = [0, {(self.n - 2) / 2}), got {self.alpha}"
            )


# zeta(k)/k, k = 63 down to 2 (Horner order), of ln Gamma(1 + b) =
# -euler_gamma b + sum_k zeta(k)/k (-b)^k, whose terms are below 2^-k at |b| < 1/2
_ZETA_OVER_K = tuple(float(zeta(k)) / k for k in range(63, 1, -1))


def _small_order_gamma(b: float, x: float) -> float:
    """Gamma(b, x) for 0 < |b| < 1/2 and 0 < x < 1 (Gautschi, ACM TOMS 5 (1979) 466).

    (Gamma(1+b) - 1)/b - expm1(b ln x)/b - x^b sum_{k>=1} (-x)^k / (k! (b+k)),
    with Gamma(1+b) from its zeta series, since 1 + b itself rounds.
    """
    s = 0.0
    for c in _ZETA_OVER_K:
        s = c - b * s
    ln_g1 = b * (b * s - np.euler_gamma)
    term, tail, k = 1.0, 0.0, 0
    while abs(term) > 1e-17:  # |term| <= x^k / k!, and x < 1
        k += 1
        term *= -x / k
        tail += term / (b + k)
    return (math.expm1(ln_g1) - math.expm1(b * math.log(x))) / b - x**b * tail


def _upper_gamma(a: float, x: float) -> float:
    """Gamma(a, x) for real a and x > 0.

    For x >= 1 and a < 1/2 it is Legendre's continued fraction.  Otherwise
    Gamma(a, x) = (Gamma(a+1, x) - x^a e^(-x)) / a runs down from a start
    order a + j, j >= 0.  For x < 1 the subtracted term is the larger one,
    so a step through an order 0 < |a + j| << 1 would cancel digits: there
    the start is the order a + j nearest 0 when 0 < |a + j| < 1/2, by the
    small-order series.  Otherwise it is the first a + j >= 0, by
    gamma * gammaincc, or E1 at 0.
    """
    if x >= 1.0 and a < 0.5:
        # x^a e^(-x) / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / ...)) by
        # the modified Lentz method (Numerical Recipes, sec. 6.2); by induction
        # its denominators 1/d and c stay >= i + 1 at step i
        b = x + 1.0 - a
        f = d = 1.0 / b
        c = math.inf
        for i in range(1, 1000):
            an, b = -i * (i - a), b + 2.0
            d = 1.0 / (b + an * d)
            c = b + an / c
            f *= c * d
            if abs(c * d - 1.0) <= math.ulp(1.0):
                return math.exp(a * math.log(x) - x) * f
        raise ArithmeticError(f"continued fraction for Gamma({a}, {x}) did not converge")
    j = max(0, round(-a))
    b = a + j
    if x < 1.0 and 0.0 < abs(b) < 0.5:
        g = _small_order_gamma(b, x)
    else:
        j = max(0, math.ceil(-a))
        b = a + j
        g = float(exp1(x)) if b == 0 else float(gamma(b) * gammaincc(b, x))
    for i in range(j - 1, -1, -1):
        g = (g - x ** (a + i) * math.exp(-x)) / (a + i)
    return g


def _radial(s: float, c: float, eps: float) -> float:
    """int_eps^inf r^(s-1) e^(-c r^2) dr, or inf once it overflows."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"inner cutoff eps must be positive and finite, got {eps}")
    try:
        return 0.5 * c ** (-0.5 * s) * _upper_gamma(0.5 * s, c * eps * eps)
    except OverflowError:  # a float ** raises where * and / would give inf
        return math.inf


def _in_range(v: float, side: str, field: RadialField, eps: float) -> float:
    """v, a positive integral; 0, inf or nan means it over- or underflowed."""
    if not 0.0 < v < math.inf:
        raise ArithmeticError(f"{side} = {v} left the float range at {field}, eps = {eps}")
    return v


def lhs(field: RadialField, eps: float) -> float:
    """{ omega_n int_eps^inf phi^4 r^(n-1) dr }^(1/2)."""
    v = sphere_area(field.n) * _radial(field.n - 4.0 * field.alpha, 4.0, eps)
    return math.sqrt(_in_range(v, "lhs", field, eps))


def rhs(field: RadialField, m0: float, eps: float) -> float:
    """omega_n int_eps^inf [phi'(r)^2 + m0^2 phi(r)^2] r^(n-1) dr.

    phi'^2 + m0^2 phi^2 = (alpha^2/r^2 + 4 alpha + 4 r^2 + m0^2) phi^2.
    """
    if not math.isfinite(m0):
        raise ValueError(f"mass m0 must be finite, got {m0}")
    n, a = field.n, field.alpha
    v = (a * a * _radial(n - 2.0 - 2.0 * a, 2.0, eps)
         + (4.0 * a + m0 * m0) * _radial(n - 2.0 * a, 2.0, eps)
         + 4.0 * _radial(n + 2.0 - 2.0 * a, 2.0, eps))
    return _in_range(sphere_area(n) * v, "rhs", field, eps)


@dataclass(frozen=True)
class InequalityReport:
    rows: tuple  # (alpha, eps, lhs, rhs, ratio) per cell
    verdicts: tuple  # per alpha: dict with slopes and divergence flags
    max_ratio: float


DEFAULT_EPS = tuple(np.geomspace(1e-2, 1e-7, 6))


def _fit_slope(eps_tail, val_tail):
    x = np.log(np.asarray(eps_tail))
    y = np.log(np.asarray(val_tail))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def scan(n: int, alpha_grid, eps_sequence=DEFAULT_EPS, m0: float = 1.0) -> InequalityReport:
    """Sweep alpha and the inner cutoff; fit divergence slopes on the tail.

    A side is flagged divergent when its fitted log-log slope against eps
    is below -0.05 with R^2 > 0.99.
    """
    eps_sequence = tuple(float(e) for e in eps_sequence)
    if not all(map(math.isfinite, eps_sequence)):
        raise ValueError(f"eps_sequence entries must be finite, got {eps_sequence}")
    if len(eps_sequence) < 2 or any(
        b >= a for a, b in zip(eps_sequence, eps_sequence[1:])
    ):
        raise ValueError("eps_sequence must be strictly decreasing")
    if eps_sequence[-1] < 1e-8:
        raise ValueError("eps_sequence must stay at or above 1e-8")
    rows = []
    verdicts = []
    max_ratio = 0.0
    for alpha in alpha_grid:
        field = RadialField(alpha=float(alpha), n=n)
        ls, rs = [], []
        for eps in eps_sequence:
            l = lhs(field, eps)
            r = rhs(field, m0, eps)
            ls.append(l)
            rs.append(r)
            ratio = l / r
            max_ratio = max(max_ratio, ratio)
            rows.append((float(alpha), eps, l, r, ratio))
        tail = slice(-3, None)
        l_slope, l_r2 = _fit_slope(eps_sequence[tail], ls[tail])
        r_slope, r_r2 = _fit_slope(eps_sequence[tail], rs[tail])
        verdicts.append({
            "alpha": float(alpha),
            "lhs_slope": l_slope,
            "lhs_divergent": bool(l_slope < -0.05 and l_r2 > 0.99),
            "rhs_slope": r_slope,
            "rhs_divergent": bool(r_slope < -0.05 and r_r2 > 0.99),
            "ratio_growth": (ls[-1] / rs[-1]) / (ls[0] / rs[0]),
        })
    return InequalityReport(rows=tuple(rows), verdicts=tuple(verdicts), max_ratio=float(max_ratio))
