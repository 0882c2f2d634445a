"""Closed-form radial integrals of the quartic-vs-gradient multiplicative inequality.

The witness family is phi(r) = r^(-alpha) exp(-r^2) in n space dimensions.
Both sides are sums of int_eps^inf r^(s-1) e^(-c r^2) dr = 1/2 c^(-s/2)
Gamma(s/2, c eps^2) with an inner cutoff eps; sweeping eps down exposes
whether the quartic side diverges while the gradient side stays finite.
Gamma(a, x) comes from two evaluators on `math` alone, Gautschi's series
for x < 1 and Legendre's continued fraction for x >= 1, each joined to the
order a by the recurrence in a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:  # Gamma(n/2) is inf from n = 344 on
        return 0.0


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


def _zeta(k: int) -> float:
    """zeta(k) for k >= 2: the terms below n = 1000, then Euler-Maclaurin from
    n on, n^(1-k)/(k-1) + n^(-k)/2 + k n^(-k-1)/12, whose first dropped term
    k(k+1)(k+2) n^(-k-3)/720 is below 4e-17."""
    n = 1000.0
    head = (np.arange(n - 1.0, 0.0, -1.0) ** -k).tolist()
    return math.fsum([*head, n ** (1 - k) / (k - 1), 0.5 * n ** -k, k / 12 * n ** (-k - 1)])


# zeta(k)/k, k = 63 down to 2 (Horner order), of ln Gamma(1 + b) =
# -euler_gamma b + sum_k zeta(k)/k (-b)^k, whose terms are below 2^-k at |b| <= 1/2
_ZETA_OVER_K = tuple(_zeta(k) / k for k in range(63, 1, -1))


def _series_gamma(b: float, x: float) -> float:
    """Gamma(b, x) for b >= -1/2 and 0 < x < 1 (Gautschi, ACM TOMS 5 (1979) 466).

    (Gamma(1+b) - 1)/b - expm1(b ln x)/b - x^b sum_{k>=1} (-x)^k / (k! (b+k)),
    whose limit at b = 0 is E1(x) = -euler_gamma - ln x - sum.  The first
    term is expm1 of the zeta series of ln Gamma(1+b), over b, for |b| < 1/2,
    where 1 + b itself rounds; from b = 1/2 on it is Gamma(b) - 1/b, finite
    wherever Gamma(b) is.
    """
    term, tail, k = 1.0, 0.0, 0
    while abs(term) > 1e-17:  # |term| <= x^k / k!, and x < 1
        k += 1
        term *= -x / k
        tail += term / (b + k)
    if b == 0.0:
        return -np.euler_gamma - math.log(x) - tail
    if b < 0.5:
        s = 0.0
        for c in _ZETA_OVER_K:
            s = c - b * s
        head = math.expm1(b * (b * s - np.euler_gamma)) / b
    else:
        head = math.gamma(b) - 1.0 / b
    return head - math.expm1(b * math.log(x)) / b - x**b * tail


def _upper_gamma(a: float, x: float) -> float:
    """Gamma(a, x) for real a and x > 0; Gamma(a, inf) = 0.

    For x < 1 it is the series at a, or for a < -1/2 at the order a + j
    nearest 0, from which Gamma(s, x) = (Gamma(s+1, x) - x^s e^(-x)) / s runs
    down j steps: a step through an order 0 < |s| << 1 would cancel digits,
    since the subtracted term is the larger one.  For x >= 1 it is Legendre's
    continued fraction at b = a - m <= 1/2, m = max(0, ceil(a - 1/2)), from
    which Gamma(s+1, x) = s Gamma(s, x) + x^s e^(-x) runs up m steps.  Each
    step adds two positive terms, except a first step from b < 0, whose
    b Gamma(b, x) >= -x^b e^(-x)/2 costs at most one bit.
    """
    if x == math.inf:
        return 0.0
    if x >= 1.0:
        # Gamma(b, x) / (x^b e^(-x)) = 1 / (x + 1 - b - 1 (1 - b) / (x + 3 - b - ...))
        # by the modified Lentz method (Numerical Recipes, sec. 6.2); by induction
        # its denominators 1/d and c stay >= i + 1 at step i
        m = max(0, math.ceil(a - 0.5))
        b = a - m
        t = x + 1.0 - b
        f = d = 1.0 / t
        c = math.inf
        for i in range(1, 1000):
            an, t = -i * (i - b), t + 2.0
            d = 1.0 / (t + an * d)
            c = t + an / c
            f *= c * d
            if abs(c * d - 1.0) <= math.ulp(1.0):
                break
        else:
            raise ArithmeticError(f"continued fraction for Gamma({b}, {x}) did not converge")
        for i in range(m):  # f = Gamma(s, x) / (x^s e^(-x)) at s = b + i, then b + i + 1
            f = ((b + i) * f + 1.0) / x
        # x^a e^(-x) as a product wherever neither factor leaves the float
        # range; exp(a ln x - x) carries the rounding of its argument, |a ln x - x| ulps
        y = a * math.log(x)
        return f * (x**a * math.exp(-x) if y < 709.0 and x < 708.0 else math.exp(y - x))
    j = max(0, round(-a))
    g = _series_gamma(a + j, x)
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


def _side(name: str, field: RadialField, eps: float, integral: float) -> float:
    """omega_n times a side's radial integral; 0, inf or nan means it over- or
    underflowed.  An area that underflowed to 0 makes the side 0, whatever
    the integral, which may itself have overflowed."""
    area = sphere_area(field.n)
    v = area * integral if area else 0.0
    if not 0.0 < v < math.inf:
        raise ArithmeticError(f"{name} = {v} left the float range at {field}, eps = {eps}")
    return v


def lhs(field: RadialField, eps: float) -> float:
    """{ omega_n int_eps^inf phi^4 r^(n-1) dr }^(1/2)."""
    return math.sqrt(_side("lhs", field, eps, _radial(field.n - 4.0 * field.alpha, 4.0, eps)))


def rhs(field: RadialField, m0: float, eps: float) -> float:
    """omega_n int_eps^inf [phi'(r)^2 + m0^2 phi(r)^2] r^(n-1) dr.

    phi'^2 + m0^2 phi^2 = (alpha^2/r^2 + 4 alpha + 4 r^2 + m0^2) phi^2.
    """
    if not math.isfinite(m0):
        raise ValueError(f"mass m0 must be finite, got {m0}")
    n, a = field.n, field.alpha
    return _side("rhs", field, eps, a * a * _radial(n - 2.0 - 2.0 * a, 2.0, eps)
                 + (4.0 * a + m0 * m0) * _radial(n - 2.0 * a, 2.0, eps)
                 + 4.0 * _radial(n + 2.0 - 2.0 * a, 2.0, eps))


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
