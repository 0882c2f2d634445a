"""Fubini-Study geometry of coherent-state manifolds.

The ray-space line element is 2*hbar*[ ||d psi||^2 - |<psi|d psi>|^2 ],
evaluated by fourth-order central differences of the state map with the
projective correction term, plus Gaussian curvature by the Brioschi
formula on a finite-difference metric stencil with Richardson halving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherent import ChartBoundaryError
from .hilbert import Operator, expectation, momentum_operator, position_operator

__all__ = [
    "Metric2D",
    "CurvatureReport",
    "fs_metric",
    "fiducial_metric_coeffs",
    "gaussian_curvature",
]

METRIC_STEP = 1e-3  # difference step of the state map in fs_metric
CURVATURE_STEP = 1e-2  # metric-stencil spacing in gaussian_curvature, then halved


@dataclass(frozen=True)
class Metric2D:
    g_pp: float
    g_pq: float
    g_qq: float
    point: tuple
    chart: str

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.g_pp, self.g_pq], [self.g_pq, self.g_qq]])

    @property
    def det(self) -> float:
        return self.g_pp * self.g_qq - self.g_pq**2

    def is_positive_definite(self) -> bool:
        return self.det > 0 and self.g_pp + self.g_qq > 0


@dataclass(frozen=True)
class CurvatureReport:
    """Gaussian curvature `K` at `point`, with its Richardson error.

    For a surface the scalar curvature is R = 2K: the affine surface has
    K = -1/beta and R = -2/beta.
    """

    K: float
    point: tuple
    error: float
    chart: str


def _fourth_order_diff(f, u, v, h, axis):
    if axis == 0:
        vals = [f(u + s * h, v) for s in (-2, -1, 1, 2)]
    else:
        vals = [f(u, v + s * h) for s in (-2, -1, 1, 2)]
    return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12.0 * h)


def fs_metric(family, point, chart: str | None = None) -> Metric2D:
    """Scaled Fubini-Study metric at a point of the family's chart.

    2*hbar*Re[<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>] from
    fourth-order central differences of the state map at step
    METRIC_STEP; `chart` defaults to `family.default_chart`.
    """
    name = chart or family.default_chart
    vec, inner = family.chart(point, 2.0 * METRIC_STEP, name)
    u, v = point
    psi = vec(u, v)
    du = _fourth_order_diff(vec, u, v, METRIC_STEP, axis=0)
    dv = _fourth_order_diff(vec, u, v, METRIC_STEP, axis=1)
    n0 = inner(psi, psi).real
    if abs(n0 - 1.0) > 1e-6:
        raise ValueError(f"stencil states lose norm: <psi|psi> = {n0}")

    def g(di, dj):
        corr = inner(di, psi) * inner(psi, dj) / n0
        return 2.0 * family.hbar * float((inner(di, dj) - corr).real)

    return Metric2D(
        g_pp=g(du, du), g_pq=g(du, dv), g_qq=g(dv, dv),
        point=(float(u), float(v)), chart=name,
    )


def fiducial_metric_coeffs(fiducial) -> tuple[float, float, float]:
    """Variance coefficients (A, B, C) of a canonical fiducial vector.

    A = <(dQ)^2>, B = <dQ dP + dP dQ>, C = <(dP)^2>; the family metric
    is then (2/hbar) [A dp^2 + B dp dq + C dq^2].
    """
    space = fiducial.space
    if space.kind != "fock":
        raise ValueError("fiducial metric coefficients need a fock-kind fiducial")
    q = position_operator(space)
    p = momentum_operator(space)
    qm = expectation(fiducial, q).real
    pm = expectation(fiducial, p).real
    dq = Operator(q.matrix - qm * np.eye(space.dim), space)
    dp = Operator(p.matrix - pm * np.eye(space.dim), space)
    a = expectation(fiducial, dq @ dq).real
    c = expectation(fiducial, dp @ dp).real
    b = expectation(fiducial, Operator(dq.matrix @ dp.matrix + dp.matrix @ dq.matrix, space)).real
    return (float(a), float(b), float(c))


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


def gaussian_curvature(family, point, chart: str | None = None) -> CurvatureReport:
    """Brioschi-formula curvature with a step-halving error estimate.

    Returns the Gaussian curvature K; the scalar curvature is R = 2K
    (affine family: K = -1/beta, R = -2/beta).  Needs the metric on a
    5x5 neighborhood (3x3 stencils at spacings CURVATURE_STEP and half
    of it); rejects stencils crossing the chart boundary.
    """
    u, v = point
    name = chart or family.default_chart
    family.chart(point, 2.0 * CURVATURE_STEP + 2.0 * METRIC_STEP, name)  # boundary check
    # the spin angles chart degenerates at the poles, where g_vv -> 0
    if name == "angles" and not 0.2 <= u <= np.pi - 0.2:
        raise ChartBoundaryError("spin curvature restricted to theta in [0.2, pi - 0.2]")

    def k_at(h):
        e = [[0.0] * 3 for _ in range(3)]
        f = [[0.0] * 3 for _ in range(3)]
        g = [[0.0] * 3 for _ in range(3)]
        for i, su in enumerate((-1, 0, 1)):
            for j, sv in enumerate((-1, 0, 1)):
                m = fs_metric(family, (u + su * h, v + sv * h), name)
                if not m.is_positive_definite():
                    raise ValueError(f"metric not positive-definite at {m.point}")
                e[i][j], f[i][j], g[i][j] = m.g_pp, m.g_pq, m.g_qq
        return _brioschi(e, f, g, h)

    k_h = k_at(CURVATURE_STEP)
    k_h2 = k_at(CURVATURE_STEP / 2.0)
    k = (4.0 * k_h2 - k_h) / 3.0  # second-order differences: h^2 Richardson
    return CurvatureReport(
        K=float(k), point=(float(u), float(v)),
        error=float(abs(k_h2 - k_h) / 3.0), chart=name,
    )
