"""Classical and enhanced classical Hamiltonian flows.

The integrator is the implicit midpoint rule (symmetric, symplectic), and
every flow supplies its exact midpoint step, `FlowSpec.midpoint`; an
adaptive Runge-Kutta shadow run is available as a cross-check.

Scalar flows step on Python floats.  The oscillator's midpoint equations
are linear and solved directly.  Toy-gravity flows live on q > 0 and
terminate with a "singularity" status when q reaches the chart floor
Q_FLOOR or a step has no midpoint solution; near the floor the step size
is throttled so the hit time is resolved far below the reporting
tolerance.  Their exact step reduces the midpoint equations to one
quadratic in p.  The classical flow H = q p^2 is invariant under
(p, q) -> (lam p, q / lam^2), so once the throttle binds every step is
the same map (p, q) -> (rho p, sigma q): that stretch is written in
closed form, and the stepping loop takes the first steps, the last steps
before the floor and any step near t_end.

Vector flows are O(N)-invariant: H depends on p and q only through
|p|^2, p.q and |q|^2, so both gradients lie in span{p, q} and the
midpoint rule keeps every iterate in the plane span{p0, q0} (it conserves
the quadratic invariant p ^ q; Hairer, Lubich and Wanner, Geometric
Numerical Integration, ch. IV).  A batch of B trajectories, initial
arrays of shape (B, N), is stepped row by row on the four coefficients
of p and q on (p0, q0), with the row's 2x2 Gram matrix of (p0, q0)
supplying the inner products; the (T, B, N) states are expanded once at
the end.  An (N,) initial state is a batch of one.  The rotationally
symmetric quartic flow's plane step reduces the midpoint equations to
one scalar equation for the radial factor kappa, solved by Newton's
method.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

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
]

Q_FLOOR = 1e-12
# rotsym's Newton solve for kappa stops once its last step is below
# NEWTON_TOL relative, and fails after NEWTON_MAX_ITER steps
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class FlowSpec:
    name: str
    hamiltonian: object  # H(p, q) -> float (row-wise over the last axis for vector flows)
    dH_dp: object
    dH_dq: object
    # exact midpoint step (p, q, dt) -> (p1, q1, ok) on Python floats; a
    # vector flow's is its plane step (c, gram, dt) -> (c1, ok) on the
    # coefficients c of p = c0 p0 + c1 q0, q = c2 p0 + c3 q0, with
    # gram = (p0.p0, p0.q0, q0.q0)
    midpoint: object
    positive_q: bool = False
    vector: bool = False
    params: dict = field(default_factory=dict)
    # H = q p^2: invariant under (p, q) -> (lam p, q / lam^2), so every
    # throttled step is one map and runs of them are taken in closed form
    self_similar: bool = False


@dataclass(frozen=True)
class IntegratorControls:
    dt: float = 1e-4
    cross_check: bool = False

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")


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
    def drifts(self) -> np.ndarray:
        """|H(t) - H(0)| / |H(0)| at each stored step, per row (absolute where H(0) = 0)."""
        e0 = self.energies[0]
        return np.abs(self.energies - e0) / np.where(e0 != 0, np.abs(e0), 1.0)

    @property
    def drift(self) -> float:
        """Largest relative drift over steps and rows."""
        return float(np.max(self.drifts))

    def row(self, b: int) -> "Trajectory":
        """Trajectory b of a batched run."""
        return Trajectory(self.times, self.ps[:, b], self.qs[:, b], self.energies[:, b],
                          self.status, self.hit_time, self.method, self.dt, dict(self.meta))


def oscillator_flow() -> FlowSpec:
    return FlowSpec(
        name="oscillator",
        hamiltonian=lambda p, q: 0.5 * (p * p + q * q),
        dH_dp=lambda p, q: p,
        dH_dq=lambda p, q: q,
        midpoint=_oscillator_midpoint,
    )


def _oscillator_midpoint(p, q, dt):
    """Exact midpoint step of H = (p^2 + q^2) / 2 on Python floats.

    pm = p - a qm and qm = q + a pm, a = dt/2, are linear.  The step is
    taken as increments p - dt qm, q + dt pm: the Cayley form
    ((1 - a^2) p - dt q) / (1 + a^2) drifts 1.4e-11 in H over 1e5 steps of 1e-3.
    """
    a = 0.5 * dt
    d = 1.0 + a * a
    pm = (p - a * q) / d
    qm = (q + a * p) / d
    return p - dt * qm, q + dt * pm, True


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
            midpoint=_toy_gravity_midpoint(0.0),
            self_similar=True,
        )
    return FlowSpec(
        name="toygravity-enhanced",
        hamiltonian=lambda p, q: q * p * p + c / q,
        dH_dp=lambda p, q: 2.0 * q * p,
        dH_dq=lambda p, q: p * p - c / (q * q),
        positive_q=True,
        params={"hbar": hbar, "barrier": c},
        midpoint=_toy_gravity_midpoint(c),
    )


def _toy_gravity_midpoint(c: float):
    """Exact midpoint step of H = q p^2 + c / q on Python floats."""

    def midpoint(p, q, dt):
        # The q-equation qm = q + dt qm pm gives qm = q / (1 - dt pm).  With
        # r = c / q^2 the p-equation pm = p - (dt/2)(pm^2 - c / qm^2) becomes
        #   (dt/2)(1 - r dt^2) pm^2 + (1 + r dt^2) pm - (p + dt r / 2) = 0,
        # and its root that tends to p as dt -> 0 is 2k / (b + sqrt(b^2 + 4ak)),
        # free of cancellation.  A negative discriminant or 1 - dt pm <= 0
        # leaves the step without a midpoint solution.
        r = c / q / q
        rdt2 = r * dt * dt
        a = 0.5 * dt * (1.0 - rdt2)
        b = 1.0 + rdt2
        k = p + 0.5 * dt * r
        disc = b * b + 4.0 * a * k
        if disc < 0.0:
            return p, q, False
        pm = 2.0 * k / (b + math.sqrt(disc))
        u = 1.0 - dt * pm
        if u <= 0.0:
            return p, q, False
        return 2.0 * pm - p, 2.0 * q / u - q, True

    return midpoint


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
    if not (0 < m0 < math.inf and 0 <= g0 < math.inf):
        raise ValueError(f"need finite m0 > 0 and g0 >= 0, got m0 = {m0}, g0 = {g0}")

    def ham(p, q):
        s2 = _sumsq(q)
        return _sumsq(p) + m0**2 * s2 + g0 * s2 * s2

    def midpoint(c, gram, dt):
        # With a = q + dt p the midpoint equations give qm = a / (1 + kappa),
        # kappa = dt^2 (m0^2 + 2 g0 |qm|^2): one scalar equation,
        #   F(kappa) = kappa - k0 - A / (1 + kappa)^2 = 0,
        # k0 = dt^2 m0^2, A = 2 dt^2 g0 |a|^2, with one root in [k0, k0 + A].
        # F is increasing and concave, so Newton started below the root
        # climbs to it monotonically and never leaves that bracket; the start
        # is the fixed-point map k0 + A / (1 + kappa)^2 at the upper end.
        # kappa itself is the unknown: recovering it as (1 + kappa) - 1
        # would lose the digits of kappa ~ dt^2.  The step is
        # p1 = p - 2 f a, q1 = q + 2 dt (p - f a), f = kappa / (dt (1 + kappa)),
        # on plane coefficients: a = ap p0 + aq q0, |a|^2 from the Gram matrix.
        pp, pq, qp, qq = c
        gpp, gpq, gqq = gram
        ap, aq = qp + dt * pp, qq + dt * pq
        k0 = dt * dt * m0 * m0
        A = (2.0 * dt * dt * g0) * (ap * ap * gpp + 2.0 * ap * aq * gpq + aq * aq * gqq)
        kappa = k0 + A / (1.0 + k0 + A) ** 2
        for _ in range(NEWTON_MAX_ITER):
            s = 1.0 + kappa
            g = A / (s * s)
            step = (kappa - k0 - g) / (1.0 + 2.0 * g / s)
            kappa -= step
            if abs(step) <= NEWTON_TOL * kappa:
                break
        else:
            return c, False
        f = kappa / (dt * (1.0 + kappa))
        fp, fq = f * ap, f * aq
        return (pp - 2.0 * fp, pq - 2.0 * fq,
                qp + 2.0 * dt * (pp - fp), qq + 2.0 * dt * (pq - fq)), True

    return FlowSpec(
        name="rotsym",
        hamiltonian=ham,
        dH_dp=lambda p, q: 2.0 * p,
        dH_dq=lambda p, q: 2.0 * m0**2 * q + 4.0 * g0 * _sumsq(q)[..., None] * q,
        vector=True,
        params={"N": N, "m0": m0, "g0": g0},
        midpoint=midpoint,
    )


def integrate(flow: FlowSpec, initial, t_end: float,
              controls: IntegratorControls = IntegratorControls()) -> Trajectory:
    """Implicit-midpoint trajectory of q' = dH/dp, p' = -dH/dq.

    Vector flows take initial arrays of shape (N,) or (B, N); each row is
    stepped in its plane span{p0, q0}, and the B rows are stored as
    (T, B, N).  Positive-chart scalar flows throttle the step once q heads
    for the floor, and stop with status "singularity" and the crossing time.
    A flow without a midpoint step, or a non-finite initial state, raises
    ValueError.
    """
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    if flow.midpoint is None:
        raise ValueError(f"flow {flow.name!r} has no midpoint step")
    if not all(np.isfinite(x).all() for x in initial):
        raise ValueError("initial p and q must be finite")
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
    positive = flow.positive_q
    if positive and q <= 0:
        raise ValueError("initial q must be positive on this chart")
    solve, qdot = flow.midpoint, flow.dH_dp
    h, floor = controls.dt, Q_FLOOR
    h_last = h * (1.0 + 1e-9)  # a remainder under 1e-9 h joins the last step
    times, ps, qs = array("d", [0.0]), array("d", [p]), array("d", [q])
    t = lost = 0.0
    status, hit = "completed", None
    end = t_end - 1e-15
    # a contracting self-similar run steps until the throttle binds, where
    # the exact flow p0 / (1 + p0 t) passes |p| = 2.5e-5 / h (a little past
    # it), takes the throttled steps in closed form, and steps again
    tail = flow.self_similar and p < 0
    stop = min(1.0 / -p - h / 2.5e-5 / 1.001, end) if tail else end
    while True:
        while t < stop:
            rest = t_end - t
            dt = h if rest > h_last else rest
            if positive:
                # keep the relative shrink of q modest so the floor crossing
                # is localized to ~sqrt(Q_FLOOR/E) in time
                v = qdot(p, q)
                if v < 0:
                    dt = min(dt, max(5e-5 * q / -v, 1e-12))
            p1, q1, ok = solve(p, q, dt)
            if dt == rest:
                t = t_end
            else:
                # compensated (Kahan) sum: a plain running sum of 20,000 steps
                # of 1e-4 ends 2e-13 short of 2, too far for the fold above
                y = dt - lost
                s = t + y
                lost = (s - t) - y
                t = s
            if positive and (not ok or not math.isfinite(q1) or q1 <= floor):
                status, hit = "singularity", t
                break
            if not ok:
                raise RuntimeError(f"implicit midpoint solve failed at t = {t}")
            p, q = p1, q1
            times.append(t)
            ps.append(p)
            qs.append(q)
        if not tail or hit is not None:
            break
        p, q, t = _self_similar_run(p, q, t, 5e-5 * q / -qdot(p, q), h, t_end, floor,
                                    times, ps, qs)
        tail, lost, stop = False, 0.0, end
    # H on the stored arrays applies the per-step float operations in the
    # same order, so each energy is bit-identical to a per-step evaluation
    times, ps, qs = np.asarray(times), np.asarray(ps), np.asarray(qs)
    return times, ps, qs, flow.hamiltonian(ps, qs), status, hit


def _self_similar_run(p, q, t, dt, h, t_end, floor, times, ps, qs):
    """Throttled steps of H = q p^2 from (p, q) at time t, in closed form.

    dt is the throttled step 5e-5 q / |qdot| = 2.5e-5 / |p|.  Every such
    step has dt p = -2.5e-5, so it maps (p, q) to (rho p, sigma q) with
    fixed rho, sigma from one quadratic solve (`_toy_gravity_midpoint` at
    c = 0), and the step lengths fall geometrically by 1 / rho.  Appends
    steps 1..K to the buffers and returns the state after them; K stops
    8 steps short of where the q floor, the 1e-12 step clamp or the
    t_end landing could act, so the stepping loop handles all three.
    """
    if not dt < h:
        return p, q, t
    # rho - 1 = 2 (2 - D) / D and sigma - 1 = 2 (1 - u) / u, free of
    # cancellation, from the floats D = 1 + sqrt(1 + 2 dt p) and
    # u = 1 - dt pm, which every stepped throttled step rounds alike
    x = -2.5e-5
    D = 1.0 + math.sqrt(1.0 + 2.0 * x)  # pm = 2 p / D
    u = 1.0 - x * (2.0 / D)
    lr = math.log1p(2.0 * (2.0 - D) / D)  # log rho
    ls = math.log1p(2.0 * (1.0 - u) / u)  # log sigma
    k_floor = math.ceil((math.log(floor) - math.log(q)) / ls) if floor > 0 else math.inf
    k_clamp = math.log(dt / 1e-12) / lr
    # t_k = t + dt (1 - rho^-k) / (1 - rho^-1) stays 2h short of t_end
    room = (t_end - 2.0 * h - t) * -math.expm1(-lr) / dt
    k_land = -math.log1p(-room) / lr if room < 1.0 else math.inf
    K = int(min(k_floor, k_clamp, k_land)) - 8
    if K < 1:
        return p, q, t

    def stretch(rate, scale, shift=0.0, fn=np.exp):
        # bytes of shift + scale fn(k rate), k = 1..K, built in one array
        k = np.arange(1.0, K + 1)
        k *= rate
        fn(k, out=k)
        k *= scale
        k += shift
        return k.view(np.uint8)

    ps.frombytes(stretch(lr, p))
    qs.frombytes(stretch(ls, q))
    times.frombytes(stretch(-lr, dt / math.expm1(-lr), t, np.expm1))
    return ps[-1], qs[-1], times[-1]


def _run_vector(flow, initial, t_end, controls):
    p0, q0 = (np.array(x, dtype=float) for x in initial)
    if p0.shape != q0.shape or p0.ndim not in (1, 2):
        raise ValueError("initial p and q must share a shape (N,) or (B, N), "
                         f"got {p0.shape} and {q0.shape}")
    # n equal steps, t_k = t_end k / n: no roundoff-length last step
    n = max(1, math.ceil(t_end / controls.dt - 1e-9))
    times = t_end * np.arange(n + 1) / n
    times[-1] = t_end
    dt = t_end / n
    ps = np.empty((n + 1,) + p0.shape)
    qs = np.empty_like(ps)
    # each run is a row and stays in the plane of its (p0, q0): step the
    # coefficients of p and q on (p0, q0) with the plane's Gram matrix, then
    # expand them into the row's states
    rows_p = ps.reshape(n + 1, -1, p0.shape[-1])
    rows_q = qs.reshape(rows_p.shape)
    bases = np.stack([p0.reshape(rows_p.shape[1:]), q0.reshape(rows_p.shape[1:])], axis=1)
    step = flow.midpoint
    start = (1.0, 0.0, 0.0, 1.0)  # p = p0, q = q0
    coefs = array("d", start) * (n + 1)  # one buffer, reused by each row
    plane = np.frombuffer(coefs).reshape(n + 1, 2, 2)  # [k, (p, q), (p0, q0)]
    for b, basis in enumerate(bases):
        gram = basis @ basis.T
        gram = (float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1]))
        c = start
        for i in range(4, 4 * n + 4, 4):
            c, ok = step(c, gram, dt)
            if not ok:
                raise RuntimeError(f"implicit midpoint solve failed at t = {times[i // 4]}")
            coefs[i], coefs[i + 1], coefs[i + 2], coefs[i + 3] = c
        np.einsum("tk,kn->tn", plane[:, 0], basis, out=rows_p[:, b])
        np.einsum("tk,kn->tn", plane[:, 1], basis, out=rows_q[:, b])
    # freed before H allocates its temporaries, so the heap can reuse it
    # instead of holding it resident beneath them (peak RSS)
    del coefs, plane
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
