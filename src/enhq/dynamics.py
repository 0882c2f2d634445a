"""Classical and enhanced classical Hamiltonian flows.

The integrator is the implicit midpoint rule (symmetric, symplectic); an
adaptive Runge-Kutta shadow run is available as a cross-check.

Scalar flows step on Python floats with a fixed-point inner iteration.
Toy-gravity flows live on q > 0 and terminate with a "singularity" status
when q reaches the chart floor; near the floor the step size is throttled
so the hit time is resolved far below the reporting tolerance.

Vector flows step a batch of B trajectories, initial arrays of shape
(B, N), as one array; an (N,) initial state is a batch of one.  A flow
may supply an exact midpoint solver, `FlowSpec.midpoint`; otherwise the
fixed-point iteration runs on the whole batch.  The rotationally symmetric
quartic flow supplies one: its midpoint equations reduce to one scalar
equation per row for the radial factor kappa, solved by Newton's method
(Hairer, Lubich and Wanner, Geometric Numerical Integration, ch. VI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "FlowSpec",
    "IntegratorControls",
    "Trajectory",
    "oscillator_flow",
    "toy_gravity_flow",
    "rotsym_flow",
    "integrate",
    "rotsym_integrate",
    "classical_toy_solution",
    "singularity_report",
    "energy_drift",
]

Q_FLOOR = 1e-12


@dataclass(frozen=True)
class FlowSpec:
    name: str
    hamiltonian: object  # H(p, q) -> float (row-wise over the last axis for vector flows)
    dH_dp: object
    dH_dq: object
    positive_q: bool = False
    vector: bool = False
    params: dict = field(default_factory=dict)
    # exact step of a vector flow: (p, q, dt, tol, max_iter) -> (p1, q1, ok)
    # on (B, N) arrays; None falls back to fixed-point iteration
    midpoint: object = None


@dataclass(frozen=True)
class IntegratorControls:
    dt: float = 1e-4
    # fixed-point iteration: absolute change per sweep; an exact midpoint
    # solver reads it as the relative size of its last Newton step
    fp_tol: float = 1e-13
    max_fp_iter: int = 100
    q_floor: float = Q_FLOOR
    cross_check: bool = False

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not self.fp_tol > 0:
            raise ValueError(f"fp_tol must be positive, got {self.fp_tol}")
        if not self.max_fp_iter >= 1:
            raise ValueError(f"max_fp_iter must be at least 1, got {self.max_fp_iter}")
        if not self.q_floor >= 0:
            raise ValueError(f"q_floor must be nonnegative, got {self.q_floor}")


@dataclass
class Trajectory:
    """Stored steps of one run; a batched run has ps, qs of shape (T, B, N)
    and energies of shape (T, B)."""

    times: np.ndarray
    ps: np.ndarray
    qs: np.ndarray
    energies: np.ndarray
    status: str  # "completed" | "singularity"
    hit_time: float | None
    method: str
    dt: float
    meta: dict = field(default_factory=dict)

    @property
    def min_q(self) -> float:
        return float(np.min(self.qs))

    @property
    def drift(self) -> float:
        return _relative_drift(self.energies)

    def row(self, b: int) -> "Trajectory":
        """Trajectory b of a batched run."""
        return Trajectory(self.times, self.ps[:, b], self.qs[:, b], self.energies[:, b],
                          self.status, self.hit_time, self.method, self.dt, dict(self.meta))


def _relative_drift(energies) -> float:
    """Max |H(t) - H(0)| / |H(0)| over times and rows (absolute where H(0) = 0)."""
    e0 = energies[0]
    dev = np.max(np.abs(energies - e0), axis=0)
    return float(np.max(dev / np.where(e0 != 0, np.abs(e0), 1.0)))


def oscillator_flow() -> FlowSpec:
    return FlowSpec(
        name="oscillator",
        hamiltonian=lambda p, q: 0.5 * (p * p + q * q),
        dH_dp=lambda p, q: p,
        dH_dq=lambda p, q: q,
        params={},
    )


def toy_gravity_flow(hbar: float = 0.0, cprime: float | None = None,
                     beta: float = 1.0) -> FlowSpec:
    """H = q p^2 + hbar^2 C' / q on the chart q > 0.

    hbar = 0 gives the classical flow; hbar > 0 the enhanced flow, with
    C' taken from the weak-correspondence evaluator unless supplied.
    """
    if hbar < 0:
        raise ValueError("hbar must be nonnegative")
    if hbar == 0.0:
        c = 0.0
    elif cprime is None:
        from .wcp import cprime as _cprime

        c = hbar**2 * _cprime(beta, hbar)
    else:
        c = hbar**2 * cprime
    if c == 0.0:
        return FlowSpec(
            name="toygravity-classical",
            hamiltonian=lambda p, q: q * p * p,
            dH_dp=lambda p, q: 2.0 * q * p,
            dH_dq=lambda p, q: p * p,
            positive_q=True,
            params={"hbar": hbar, "barrier": 0.0},
        )
    return FlowSpec(
        name="toygravity-enhanced",
        hamiltonian=lambda p, q: q * p * p + c / q,
        dH_dp=lambda p, q: 2.0 * q * p,
        dH_dq=lambda p, q: p * p - c / (q * q),
        positive_q=True,
        params={"hbar": hbar, "barrier": c},
    )


def _sumsq(x):
    """Row-wise |x|^2 over the last axis."""
    return np.einsum("...i,...i->...", x, x)


def rotsym_flow(N: int, m0: float, g0: float) -> FlowSpec:
    """H = sum(p_n^2 + m0^2 q_n^2) + g0 (sum q_n^2)^2.

    The Hamiltonian carries no 1/2 factors, so qdot_n = 2 p_n and the
    decoupled (g0 = 0) oscillation frequency is 2 m0.  H and its gradient
    act row-wise on (..., N) arrays.
    """
    if not 1 <= N <= 64:
        raise ValueError(f"N must lie in [1, 64], got {N}")
    if m0 <= 0 or g0 < 0:
        raise ValueError("need m0 > 0 and g0 >= 0")

    def ham(p, q):
        s2 = _sumsq(q)
        return _sumsq(p) + m0**2 * s2 + g0 * s2 * s2

    def midpoint(p, q, dt, tol, max_iter):
        # With a = q + dt p the midpoint equations give qm = a / (1 + kappa),
        # kappa = dt^2 (m0^2 + 2 g0 |qm|^2): one scalar equation per row,
        #   f(kappa) = kappa - k0 - A / (1 + kappa)^2 = 0,
        # k0 = dt^2 m0^2, A = 2 dt^2 g0 |a|^2, with one root in [k0, k0 + A].
        # f is increasing and concave, so Newton started below the root
        # climbs to it monotonically and never leaves that bracket; the start
        # is the fixed-point map k0 + A / (1 + kappa)^2 at the upper end.
        # kappa itself is the unknown: recovering it as (1 + kappa) - 1
        # would lose the digits of kappa ~ dt^2.
        k0 = dt * dt * m0 * m0
        a = q + dt * p
        A = (2.0 * dt * dt * g0) * _sumsq(a)
        kappa = k0 + A / (1.0 + k0 + A) ** 2
        active = True
        for _ in range(max_iter):
            c = 1.0 + kappa
            g = A / (c * c)
            step = active * (kappa - k0 - g) / (1.0 + 2.0 * g / c)
            kappa = kappa - step
            # converged rows stay put, so each row is its own single-row run
            active = np.abs(step) > tol * kappa
            if not active.any():
                break
        else:
            return p, q, False
        qm = a / (1.0 + kappa)[..., None]
        wq = (kappa / dt)[..., None] * qm  # dt/2 dH/dq(qm), so pm = p - wq
        return p - 2.0 * wq, q + (2.0 * dt) * (p - wq), True

    return FlowSpec(
        name="rotsym",
        hamiltonian=ham,
        dH_dp=lambda p, q: 2.0 * p,
        dH_dq=lambda p, q: 2.0 * m0**2 * q + 4.0 * g0 * _sumsq(q)[..., None] * q,
        vector=True,
        params={"N": N, "m0": m0, "g0": g0},
        midpoint=midpoint,
    )


def _midpoint_step_scalar(flow, p, q, dt, tol, max_iter):
    fp, fq = flow.dH_dp, flow.dH_dq
    p1, q1 = p - dt * fq(p, q), q + dt * fp(p, q)
    for _ in range(max_iter):
        pm, qm = 0.5 * (p + p1), 0.5 * (q + q1)
        p2 = p - dt * fq(pm, qm)
        q2 = q + dt * fp(pm, qm)
        if abs(p2 - p1) + abs(q2 - q1) < tol:
            return p2, q2, True
        p1, q1 = p2, q2
    return p1, q1, False


def _midpoint_step_vector(flow, p, q, dt, tol, max_iter):
    fp, fq = flow.dH_dp, flow.dH_dq
    p1, q1 = p - dt * fq(p, q), q + dt * fp(p, q)
    for _ in range(max_iter):
        pm, qm = 0.5 * (p + p1), 0.5 * (q + q1)
        p2 = p - dt * fq(pm, qm)
        q2 = q + dt * fp(pm, qm)
        if np.max(np.abs(p2 - p1)) + np.max(np.abs(q2 - q1)) < tol:
            return p2, q2, True
        p1, q1 = p2, q2
    return p1, q1, False


def integrate(flow: FlowSpec, initial, t_end: float,
              controls: IntegratorControls = IntegratorControls()) -> Trajectory:
    """Implicit-midpoint trajectory of q' = dH/dp, p' = -dH/dq.

    Vector flows take initial arrays of shape (N,) or (B, N); B rows are
    stepped together and stored as (T, B, N).  Positive-chart scalar flows
    throttle the step once q heads for the floor, and stop with status
    "singularity" and the crossing time.
    """
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    run = _run_vector if flow.vector else _run_scalar
    times, ps, qs, es, status, hit = run(flow, initial, t_end, controls)
    traj = Trajectory(
        times=np.asarray(times),
        ps=np.asarray(ps),
        qs=np.asarray(qs),
        energies=np.asarray(es),
        status=status,
        hit_time=hit,
        method="implicit-midpoint",
        dt=controls.dt,
    )
    if controls.cross_check:
        traj.meta["cross_check_error"] = _rk_shadow_error(flow, initial, traj)
    return traj


def _run_scalar(flow, initial, t_end, controls):
    p, q = (float(x) for x in initial)
    if flow.positive_q and q <= 0:
        raise ValueError("initial q must be positive on this chart")
    times, ps, qs, es = [0.0], [p], [q], [flow.hamiltonian(p, q)]
    t = 0.0
    status, hit = "completed", None
    while t < t_end - 1e-15:
        dt = min(controls.dt, t_end - t)
        if flow.positive_q:
            # keep the relative shrink of q modest so the floor crossing
            # is localized to ~sqrt(q_floor/E) in time
            qdot = flow.dH_dp(p, q)
            if qdot < 0:
                dt = min(dt, max(5e-5 * q / -qdot, 1e-12))
        p1, q1, ok = _midpoint_step_scalar(flow, p, q, dt, controls.fp_tol,
                                           controls.max_fp_iter)
        t += dt
        if flow.positive_q and (not ok or not math.isfinite(q1) or q1 <= controls.q_floor):
            status, hit = "singularity", t
            break
        if not ok:
            raise RuntimeError(f"fixed-point iteration failed at t = {t}")
        p, q = p1, q1
        times.append(t)
        ps.append(p)
        qs.append(q)
        es.append(flow.hamiltonian(p, q))
    return times, ps, qs, es, status, hit


def _run_vector(flow, initial, t_end, controls):
    p0, q0 = (np.array(x, dtype=float) for x in initial)
    if p0.shape != q0.shape or p0.ndim not in (1, 2):
        raise ValueError("initial p and q must share a shape (N,) or (B, N), "
                         f"got {p0.shape} and {q0.shape}")
    times, steps = [0.0], []
    t = 0.0
    while t < t_end - 1e-15:
        dt = min(controls.dt, t_end - t)
        t += dt
        steps.append(dt)
        times.append(t)
    ps = np.empty((len(times),) + p0.shape)
    qs = np.empty_like(ps)
    ps[0], qs[0] = p0, q0
    # step every run as rows of one (B, N) array; an (N,) run is one row
    rows_p = ps.reshape(len(times), -1, p0.shape[-1])
    rows_q = qs.reshape(rows_p.shape)
    solve = flow.midpoint or partial(_midpoint_step_vector, flow)
    p, q = rows_p[0], rows_q[0]
    for i, dt in enumerate(steps, 1):
        p, q, ok = solve(p, q, dt, controls.fp_tol, controls.max_fp_iter)
        if not ok:
            raise RuntimeError(f"implicit midpoint solve failed at t = {times[i]}")
        rows_p[i], rows_q[i] = p, q
    return times, ps, qs, flow.hamiltonian(ps, qs), "completed", None


def _rk_shadow_error(flow, initial, traj: Trajectory) -> float:
    """Endpoint discrepancy against an adaptive embedded Runge-Kutta run."""
    from scipy.integrate import solve_ivp

    p0, q0 = (np.asarray(x, dtype=float) for x in initial)
    y0 = np.concatenate([p0.ravel(), q0.ravel()])
    n = p0.size

    def rhs(_, y):
        p, q = y[:n].reshape(p0.shape), y[n:].reshape(p0.shape)
        return np.concatenate([-np.ravel(flow.dH_dq(p, q)), np.ravel(flow.dH_dp(p, q))])

    t_final = float(traj.times[-1])
    sol = solve_ivp(rhs, (0.0, t_final), y0, method="RK45", rtol=1e-10, atol=1e-12)
    end = np.concatenate([np.ravel(traj.ps[-1]), np.ravel(traj.qs[-1])])
    return float(np.max(np.abs(end - sol.y[:, -1])))


def rotsym_integrate(N: int, m0: float, g0: float, p0, q0, t_end: float,
                     controls: IntegratorControls = IntegratorControls(dt=1e-4)) -> Trajectory:
    p0 = np.asarray(p0, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    if p0.shape != (N,) or q0.shape != (N,):
        raise ValueError(f"initial vectors must have shape ({N},)")
    return integrate(rotsym_flow(N, m0, g0), (p0, q0), t_end, controls)


def classical_toy_solution(p0: float, q0: float, t):
    """Closed form p = p0/(1 + p0 t), q = q0 (1 + p0 t)^2 of H = q p^2."""
    t = np.asarray(t, dtype=float)
    u = 1.0 + p0 * t
    if np.any(np.abs(u) < 1e-12):
        raise ValueError(f"solution pole at t = {-1.0 / p0}")
    p = p0 / u
    q = q0 * u * u
    if t.ndim == 0:
        return float(p), float(q)
    return p, q


def singularity_report(flow: FlowSpec, initial, t_end: float,
                       controls: IntegratorControls = IntegratorControls()) -> dict:
    """Min-q statistic and floor-crossing time of a toy-gravity run."""
    if not flow.positive_q:
        raise ValueError("singularity report applies to positive-chart flows")
    traj = integrate(flow, initial, t_end, controls)
    return {
        "status": traj.status,
        "min_q": traj.min_q,
        "hit_time": traj.hit_time,
        "drift": traj.drift,
        "method": traj.method,
        "dt": traj.dt,
    }


def energy_drift(traj: Trajectory, flow: FlowSpec) -> float:
    """Max relative |H(t) - H(0)| along the trajectory (absolute if H(0) = 0)."""
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    return _relative_drift(np.array([flow.hamiltonian(p, q) for p, q in zip(traj.ps, traj.qs)]))
