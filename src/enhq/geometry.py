"""Fubini-Study geometry of coherent-state manifolds.

The ray-space line element 2*hbar*[ ||d psi||^2 - |<psi|d psi>|^2 ] comes from
the jet (psi, d psi) of a family's chart, exact for the canonical and affine
families and differenced for spin; Gaussian curvature from the Brioschi formula
on a finite-difference metric stencil with Richardson halving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherent import ChartBoundaryError, SpinFamily

__all__ = [
    "Metric2D",
    "CurvatureReport",
    "fs_metric",
    "gaussian_curvature",
]

CURVATURE_STEP = 1e-2  # metric-stencil spacing in gaussian_curvature, then halved


@dataclass(frozen=True)
class Metric2D:
    g_pp: float
    g_pq: float
    g_qq: float
    point: tuple

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.g_pp, self.g_pq], [self.g_pq, self.g_qq]])

    def is_positive_definite(self) -> bool:
        return self.g_pp * self.g_qq - self.g_pq**2 > 0 and self.g_pp + self.g_qq > 0


@dataclass(frozen=True)
class CurvatureReport:
    """Gaussian curvature `K` at `point`, with its Richardson error.

    For a surface the scalar curvature is R = 2K: the affine surface has
    K = -1/beta and R = -2/beta.
    """

    K: float
    point: tuple
    error: float


def fs_metric(family, point) -> Metric2D:
    """Scaled Fubini-Study metric at a point of the family's chart.

    2*hbar*Re[<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>] from the jet (psi, d_u psi,
    d_v psi) and inner product `family.chart` returns: any object with `hbar` and that
    `chart` method serves, a relabelled family included.  Only the spin jet is differenced.
    """
    jet, inner = family.chart(point, 0.0)
    u, v = point
    psi, du, dv = jet(u, v)
    n0 = inner(psi, psi).real
    if abs(n0 - 1.0) > 1e-6:
        raise ValueError(f"the jet's state loses norm: <psi|psi> = {n0}")

    def g(di, dj):
        corr = inner(di, psi) * inner(psi, dj) / n0
        return 2.0 * family.hbar * float((inner(di, dj) - corr).real)

    return Metric2D(g_pp=g(du, du), g_pq=g(du, dv), g_qq=g(dv, dv), point=(float(u), float(v)))


def _brioschi(e, f, g, h):
    """Gaussian curvature from 3x3 tables of E, F, G sampled at spacing h."""
    E, F, G = e[1][1], f[1][1], g[1][1]
    d_u = lambda t: (t[2][1] - t[0][1]) / (2 * h)
    d_v = lambda t: (t[1][2] - t[1][0]) / (2 * h)
    d_uu = lambda t: (t[2][1] - 2 * t[1][1] + t[0][1]) / h**2
    d_vv = lambda t: (t[1][2] - 2 * t[1][1] + t[1][0]) / h**2
    d_uv = lambda t: (t[2][2] - t[2][0] - t[0][2] + t[0][0]) / (4 * h**2)
    m1 = np.array([
        [-0.5 * d_vv(e) + d_uv(f) - 0.5 * d_uu(g), 0.5 * d_u(e), d_u(f) - 0.5 * d_v(e)],
        [d_v(f) - 0.5 * d_u(g), E, F],
        [0.5 * d_v(g), F, G],
    ])
    m2 = np.array([
        [0.0, 0.5 * d_v(e), 0.5 * d_u(g)],
        [0.5 * d_v(e), E, F],
        [0.5 * d_u(g), F, G],
    ])
    denom = (E * G - F * F) ** 2
    return (np.linalg.det(m1) - np.linalg.det(m2)) / denom


def gaussian_curvature(family, point) -> CurvatureReport:
    """Brioschi-formula curvature with a step-halving error estimate.

    Returns the Gaussian curvature K; the scalar curvature is R = 2K
    (affine family: K = -1/beta, R = -2/beta).  Needs the metric on a
    5x5 neighborhood (3x3 stencils at spacings CURVATURE_STEP and half
    of it) of `family.chart`, as `fs_metric`; rejects stencils crossing
    the chart boundary, and spin points with theta outside [0.2, pi - 0.2];
    a stencil metric that is not positive-definite raises ArithmeticError.
    """
    u, v = point
    family.chart(point, 2.0 * CURVATURE_STEP)  # boundary check
    # the spin family's (theta, phi) chart degenerates at the poles, where g_vv -> 0
    if isinstance(family, SpinFamily) and not 0.2 <= u <= np.pi - 0.2:
        raise ChartBoundaryError("spin curvature restricted to theta in [0.2, pi - 0.2]")

    def k_at(h):
        e = [[0.0] * 3 for _ in range(3)]
        f = [[0.0] * 3 for _ in range(3)]
        g = [[0.0] * 3 for _ in range(3)]
        for i, su in enumerate((-1, 0, 1)):
            for j, sv in enumerate((-1, 0, 1)):
                m = fs_metric(family, (u + su * h, v + sv * h))
                if not m.is_positive_definite():
                    raise ArithmeticError(f"metric not positive-definite at {m.point}")
                e[i][j], f[i][j], g[i][j] = m.g_pp, m.g_pq, m.g_qq
        return _brioschi(e, f, g, h)

    k_h = k_at(CURVATURE_STEP)
    k_h2 = k_at(CURVATURE_STEP / 2.0)
    k = (4.0 * k_h2 - k_h) / 3.0  # second-order differences: h^2 Richardson
    return CurvatureReport(K=float(k), point=(float(u), float(v)),
                           error=float(abs(k_h2 - k_h) / 3.0))
