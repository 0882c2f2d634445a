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
from scipy.special import exp1, gamma, gammaincc, gammaln

__all__ = [
    "RadialField",
    "InequalityReport",
    "sphere_area",
    "lhs",
    "rhs",
    "scan",
    "lhs_slope_expected",
    "rhs_slope_expected",
]


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere in R^n."""
    return float(2.0 * np.pi ** (n / 2.0) / np.exp(gammaln(n / 2.0)))


@dataclass(frozen=True)
class RadialField:
    """phi(r) = r^(-alpha) e^(-r^2) in n spatial dimensions."""

    alpha: float
    n: int
    amplitude: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"need an integer dimension n >= 2, got n = {self.n}")
        if not 0.0 <= self.alpha < (self.n - 2) / 2.0:
            raise ValueError(
                f"alpha must lie in [0, (n-2)/2) = [0, {(self.n - 2) / 2}), got {self.alpha}"
            )
        if not 0.0 < self.amplitude < math.inf:
            raise ValueError(f"amplitude must be positive and finite, got {self.amplitude}")

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return self.amplitude * r ** (-self.alpha) * np.exp(-r * r)

    def dprofile(self, r):
        r = np.asarray(r, dtype=float)
        return -(self.alpha / r + 2.0 * r) * self.profile(r)


def _upper_gamma(a: float, x: float) -> float:
    """Gamma(a, x) for real a and x > 0.

    gamma * gammaincc for a > 0 and E1 at a = 0; below zero, Gamma(a, x) =
    (Gamma(a+1, x) - x^a e^(-x)) / a runs down from the first a + k >= 0.
    For x < 1 the subtracted term is the larger one, so only a step through
    0 < |a + j| << 1 cancels, losing about log10(1/|a + j|) digits.
    """
    k = max(0, math.ceil(-a))
    b = a + k
    g = float(exp1(x)) if b == 0 else float(gamma(b) * gammaincc(b, x))
    for j in range(k - 1, -1, -1):
        g = (g - x ** (a + j) * math.exp(-x)) / (a + j)
    return g


def _radial(s: float, c: float, eps: float) -> float:
    """int_eps^inf r^(s-1) e^(-c r^2) dr."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"inner cutoff eps must be positive and finite, got {eps}")
    return 0.5 * c ** (-0.5 * s) * _upper_gamma(0.5 * s, c * eps * eps)


def _in_range(v: float, side: str, field: RadialField, eps: float) -> float:
    """v, a positive integral; 0, inf or nan means it over- or underflowed."""
    if not 0.0 < v < math.inf:
        raise ArithmeticError(f"{side} = {v} left the float range at {field}, eps = {eps}")
    return v


def lhs(field: RadialField, m0: float, eps: float) -> float:
    """{ omega_n int_eps^inf phi^4 r^(n-1) dr }^(1/2)."""
    v = sphere_area(field.n) * field.amplitude**4 * _radial(field.n - 4.0 * field.alpha, 4.0, eps)
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
    return _in_range(sphere_area(n) * field.amplitude**2 * v, "rhs", field, eps)


def lhs_slope_expected(field: RadialField) -> float:
    """Power-counting slope of log lhs vs log eps (0 when convergent)."""
    ex = 4.0 * field.alpha - field.n
    return -ex / 2.0 if ex > 0 else 0.0


def rhs_slope_expected(field: RadialField) -> float:
    ex = 2.0 * field.alpha + 2.0 - field.n
    return -ex if ex > 0 else 0.0


@dataclass(frozen=True)
class InequalityReport:
    n: int
    m0: float
    eps_sequence: tuple
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
            l = lhs(field, m0, eps)
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
    return InequalityReport(
        n=n, m0=m0, eps_sequence=eps_sequence,
        rows=tuple(rows), verdicts=tuple(verdicts), max_ratio=float(max_ratio),
    )
