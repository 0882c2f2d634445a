"""Half-line quadrature tuned to Gamma-type weights.

Generalized Gauss-Laguerre rules built by Golub-Welsch on the analytic
Jacobi recurrence; this stays finite for large node counts where the
library routine overflows.  Nodes whose weights underflow to zero are
dropped (their integrand contribution is below 1e-300).  The affine
family samples its states on one such grid, built with its first state;
its expectations are exact Gamma moments and need no grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["HalfLineGrid", "gauss_gamma_grid"]

N_NODES = 400  # nodes of every Gauss-Gamma grid


@dataclass(frozen=True)
class HalfLineGrid:
    """Nodes x_i > 0 and plain-dx weights: sum(w_i f(x_i)) ~ int_0^inf f."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            a = np.ascontiguousarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def integrate(self, values: np.ndarray) -> complex:
        return np.sum(self.weights * values)


@lru_cache(maxsize=64)
def _genlaguerre_rule(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """N_NODES nodes t_i and log-weights for the weight t^alpha e^-t on (0, inf)."""
    from scipy.linalg import eigh_tridiagonal
    from scipy.special import gammaln

    if alpha <= -1:
        raise ValueError(f"genlaguerre exponent must exceed -1, got {alpha}")
    i = np.arange(N_NODES, dtype=float)
    diag = 2.0 * i + alpha + 1.0
    j = np.arange(1, N_NODES, dtype=float)
    off = np.sqrt(j * (j + alpha))
    t, v = eigh_tridiagonal(diag, off)
    v0 = np.abs(v[0, :])
    keep = v0 > 0.0
    log_w = gammaln(alpha + 1.0) + 2.0 * np.log(v0[keep])
    return t[keep], log_w


def gauss_gamma_grid(alpha: float, rate: float) -> HalfLineGrid:
    """Quadrature for integrands concentrated like x^alpha e^(-rate*x).

    Returns plain-dx nodes/weights; exact for x^alpha e^(-rate*x) times
    polynomials up to degree 2*N_NODES - 1.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    t, log_w = _genlaguerre_rule(float(alpha))
    # undo the weight: W_i = w_i * e^t * t^-alpha, then rescale x = t/rate
    log_true = log_w + t - alpha * np.log(t) - np.log(rate)
    keep = log_true < 700.0  # guard; never triggered for sane alpha
    return HalfLineGrid(nodes=t[keep] / rate, weights=np.exp(log_true[keep]))
