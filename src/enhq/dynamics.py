"""Classical and enhanced classical Hamiltonian flows.

The integrator is the implicit midpoint rule (symmetric, symplectic): every
flow supplies its whole run of exact midpoint steps, `FlowSpec.midpoint`,
and a scalar flow its exact solution, `FlowSpec.exact`, which a run is
checked against.  `integrate` checks the inputs, refuses a run of more than
MAX_STEPS steps of dt before taking any, and hands the flow its run, which
fails once it has stepped more than MAX_STEPS times (throttled steps
included, steps written in closed form not).

The two stepping loops, toy gravity's midpoint steps and rotsym's Newton
plane steps, run in bulks of at most CHUNK steps in the compiled kernels
of `enhq.kernels`, built on first use; where they cannot be built, the
same loops run in Python (`_toy_gravity_bulk`, `_newton_bulk`) with the
same bits.  The oscillator's midpoint map is one fixed rotation by
2 atan(dt / 2), so its run is the powers of that rotation in closed form.
Toy gravity is one flow, H = q p^2 + c / q, whose barrier
c >= 0 (`FlowSpec.barrier`) decides how it runs.  It lives on
q > Q_FLOOR q0, a floor relative to its initial q0, and near that floor its
step is throttled so that a crossing is resolved far below the reporting
tolerance.  Its exact step reduces the midpoint equations to one quadratic
in p.  At c = 0 it collapses at t = -1/p0 for every q0, since
(p, q) -> (p, mu q) maps solutions to solutions with the same times, and
only then does a run end in a "singularity": when q reaches the floor or a
step has no midpoint solution.  This flow is also invariant under
(p, q) -> (lam p, q / lam^2), so once the throttle binds every step is
the same map (p, q) -> (rho p, sigma q): that stretch is written in closed
form, and the stepping loop takes the first steps, the last steps before
the floor and any step near t_end.  At c > 0 the flow bounces at q = c / E
and never collapses, so such a step fails the run.  A scalar run keeps every
stride-th step only, and folds the drift and the lowest q over every step
into a `_Rows`: toy gravity's stepping loop folds them as it steps and
stores no other step, and hands `_Rows` each bulk once it is done, while
the closed forms hand it arrays of at most CHUNK steps.

Vector flows are O(N)-invariant: H depends on p and q only through
|p|^2, p.q and |q|^2, so both gradients lie in span{p, q} and the
midpoint rule keeps every iterate in the plane span{p0, q0} (it conserves
the quadratic invariant p ^ q; Hairer, Lubich and Wanner, Geometric
Numerical Integration, ch. IV).  A run from initial arrays of shape (N,)
is taken on the four coefficients of p and q on (p0, q0), with the 2x2
Gram matrix of (p0, q0) supplying the inner products: the flow's plane
run hands back the coefficients of all its steps at once.  The run stores
those coefficients, not the (T, N) states: H is read on the isometric
image of the plane in R^2, and states are expanded only at the steps that
are read.  For the rotationally symmetric quartic flow at g0 > 0 each
plane step reduces the midpoint equations to one scalar equation for the
radial factor kappa, solved by Newton's method in the stepping loop; at
g0 = 0 (the free field) every step is one fixed rotation, and the run is
its powers in closed form.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import kernels as _kernels

__all__ = [
    "FlowSpec",
    "Trajectory",
    "oscillator_flow",
    "toy_gravity_flow",
    "rotsym_flow",
    "integrate",
    "toy_gravity_solution",
]

# a toy-gravity run's chart floor is Q_FLOOR q0, q0 its initial q; while q
# falls a step is throttled to dt <= THROTTLE q / |qdot|, but never below DT_MIN
Q_FLOOR = 1e-12
THROTTLE = 5e-5
DT_MIN = 1e-12
# rotsym's Newton solve for kappa stops once its last step is below
# NEWTON_TOL relative, and fails after NEWTON_MAX_ITER steps
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 100
# a scalar run's steps are folded in bulks of at most CHUNK steps, and a
# closed form builds at most CHUNK steps at a time besides the kept rows
CHUNK = 4096
# integrate refuses a run of more than MAX_STEPS steps of dt, and a scalar
# run fails once it has stepped more times, so that no run steps on for hours
MAX_STEPS = 10**7


@dataclass(frozen=True)
class FlowSpec:
    name: str
    # H(p, q) -> float; a vector flow's acts row-wise over the last axis, of
    # any length, since runs evaluate it on 2-D images of their planes
    hamiltonian: object
    # the whole run of exact midpoint steps: a scalar flow's (rows, p, q,
    # t_end, h) -> (status, hit_time) folds its float steps into the `_Rows`
    # rows and raises RuntimeError on a failed step; a vector flow's (gram, dt, n)
    # -> (plane, failed) takes n steps from p0, q0 with gram = (p0.p0, p0.q0,
    # q0.q0): plane[k] of shape (n + 1, 2, 2) holds the coefficients of p and
    # q on (p0, q0) at step k, or plane is None and failed the first step
    midpoint: object
    params: dict = field(default_factory=dict)  # holding a length "N" makes a vector flow
    # exact flow (p0, q0, t) -> (p, q) of a scalar flow, None where none is known
    exact: object = None
    # toy gravity's c in H = q p^2 + c / q, None for every other flow: a
    # flow with a barrier lives on q > 0 and is throttled near the floor;
    # at c = 0 it is self-similar and can end in a "singularity"
    barrier: float | None = None

    @property
    def vector(self) -> bool:
        """Whether the flow acts on arrays of length params["N"]."""
        return "N" in self.params


@dataclass(kw_only=True, eq=False)
class Trajectory:
    """Stored steps of one run, read through `states(k)`.

    Every run builds its own, with `drift`, `status`, `hit_time` and `end`
    (t, p, q) folded over every step it took, and `steps`, the number of
    midpoint steps it took, stepped or in closed form.  A scalar run holds
    its kept steps (every stride-th, step 0 first) as times, ps, qs and
    energies of shape (T,), and folds `min_q` too.  A vector run keeps every step and
    holds its plane instead: `coefs` of shape (T, 2, 2), indexed
    [step, (p, q), (p0, q0)], on the `basis` (p0, q0) of shape (2, N); its
    ps, qs and `min_q` are None.  `states(k)` returns the (p, q) of the
    steps k of either kind, expanding a vector run's only there.
    """

    times: np.ndarray
    energies: np.ndarray
    drift: float
    end: tuple
    status: str = "completed"  # or "singularity"
    hit_time: float | None = None
    min_q: float | None = None
    ps: np.ndarray | None = None
    qs: np.ndarray | None = None
    coefs: np.ndarray | None = None
    basis: np.ndarray | None = None
    steps: int | None = None

    def states(self, k):
        """(p, q) at the stored steps k, an index or a slice."""
        if self.coefs is None:
            return self.ps[k], self.qs[k]
        return _plane_states(self.coefs[k], self.basis)

    @cached_property
    def drifts(self) -> np.ndarray:
        """|H(t) - H(0)| / |H(0)| at each stored step (absolute where H(0) = 0)."""
        return _drifts(self.energies, self.energies[0])


def _drifts(energies, e0):
    return np.abs(energies - e0) / (abs(e0) if e0 != 0 else 1.0)


def _plane_states(c, basis):
    """(p, q) from plane coefficients c[..., (p, q), (p0, q0)] on the basis."""
    return (np.einsum("...k,kn->...n", c[..., 0, :], basis),
            np.einsum("...k,kn->...n", c[..., 1, :], basis))


def oscillator_flow() -> FlowSpec:
    return FlowSpec(
        name="oscillator",
        hamiltonian=lambda p, q: 0.5 * (p * p + q * q),
        midpoint=_oscillator_run,
        # (p, q) rotates by the angle t
        exact=lambda p0, q0, t: (p0 * np.cos(t) - q0 * np.sin(t), q0 * np.cos(t) + p0 * np.sin(t)),
    )


def _oscillator_run(rows, p, q, t_end, h):
    """The oscillator's run: steps of h to t_k = k h until t_end lies within
    h_last of t_k, then one step of the rest onto t_end.  A step of dt is the
    free field's at m0 = 1 and step dt / 2, a rotation by 2 atan(dt / 2), so
    the steps of h are `_rotation_run` in closed form."""
    h_last = h * (1.0 + 1e-9)  # a remainder under 1e-9 h joins the last step
    m = max(0, math.ceil((t_end - h_last) / h) - 1)  # no later than the first such t_m
    while t_end - m * h > h_last:
        m += 1
    for first in range(1, m + 1, CHUNK):
        last = min(first + CHUNK - 1, m)
        c = _rotation_run(1.0, 0.5 * h, last, first)
        rows.take(np.arange(first, last + 1.0) * h,
                  c[:, 0, 0] * p + c[:, 0, 1] * q, c[:, 1, 0] * p + c[:, 1, 1] * q)
    t, p, q = rows.end
    ((cpp, cpq), (cqp, cqq)), = _rotation_run(1.0, 0.5 * (t_end - t), 1, 1)
    rows.take([t_end], [cpp * p + cpq * q], [cqp * p + cqq * q])
    return "completed", None


def toy_gravity_flow(hbar: float = 0.0, beta: float = 1.0) -> FlowSpec:
    """H = q p^2 + c / q on the chart q > 0, with barrier c = hbar^2 C'.

    hbar = 0 gives the classical flow, c = 0; hbar > 0 the enhanced flow,
    with C' taken from the weak-correspondence evaluator.
    """
    if not 0 <= hbar < math.inf:
        raise ValueError(f"hbar must be finite and nonnegative, got {hbar}")
    c = 0.0
    if hbar != 0.0:
        from .wcp import cprime

        c = hbar**2 * cprime(beta, hbar)
    return FlowSpec(
        name="toygravity-classical" if c == 0.0 else "toygravity-enhanced",
        hamiltonian=lambda p, q: q * p * p + c / q,
        midpoint=partial(_toy_gravity_run, c),
        barrier=c,
        exact=lambda p0, q0, t: toy_gravity_solution(p0, q0, c, t),
    )


def _toy_gravity_run(c, rows, p, q, t_end, h):
    """Toy gravity's run: exact midpoint steps of H = q p^2 + c / q on floats.

    The steps are taken in bulks of at most CHUNK by the compiled kernel,
    or by `_toy_gravity_bulk` where none could be built, the same bits
    either way; `rows.fold` takes in each bulk once it is done."""
    kernels = _kernels.load()
    bulk = _toy_gravity_bulk if kernels is None else kernels.toy_gravity_bulk
    collapses = c == 0.0
    stride = rows.stride
    floor = Q_FLOOR * q
    h_last = h * (1.0 + 1e-9)  # a remainder under 1e-9 h joins the last step
    t = lost = 0.0
    hit = None
    end = t_end - 1e-15
    # a contracting collapsing run steps until the throttle binds, where the
    # exact flow p0 / (1 + p0 t) passes |p| = (THROTTLE / 2) / h (a little past
    # it), takes the throttled steps in closed form, and steps again
    tail = collapses and p < 0
    stop = min(1.0 / -p - h / (THROTTLE / 2) / 1.001, end) if tail else end
    while True:
        while t < stop:
            # steps take at most h, so the next n can neither land on t_end
            # nor pass stop and go unchecked; near either, one at a time.  A
            # bulk ends where the step count reaches a multiple of CHUNK.
            rest = t_end - t
            dt0 = h if rest > h_last else rest
            taken = rows.taken
            n = max(1, min(CHUNK - taken % CHUNK, int((min(stop, t_end - h_last) - t) / h) - 2))
            left = -taken % stride + 1  # steps to the next kept one, itself included
            # past n, left and stride act as n + 1, which a C long holds
            i, n_kept, dt, t, lost, p, q, hi, lo, low = bulk(
                rows.kept, n, min(left, n + 1), min(stride, n + 1), c, floor, THROTTLE, DT_MIN,
                dt0, t, lost, p, q, rows.hi, rows.lo, rows.min_q)
            if i == n:
                if dt == rest:  # the one step landed
                    t = t_end
                    if n_kept:  # and is kept
                        rows.kept[0][-1] = t_end
                rows.fold(n, (t, p, q), hi, lo, low)
                continue
            # a failed step leaves (t, p, q) at the last good one
            hit = t_end if dt == rest else t + (dt - lost)
            if not collapses:
                raise RuntimeError(f"implicit midpoint solve failed at t = {hit}")
            rows.fold(i, (t, p, q), hi, lo, low)
            break
        if not tail or hit is not None:
            return "completed" if hit is None else "singularity", hit
        p, q, t = _self_similar_run(p, q, t, THROTTLE * q / -(2.0 * q * p), h, t_end, floor, rows)
        tail, lost, stop = False, 0.0, end


def _toy_gravity_bulk(kept, n, left, stride, c, floor, throttle, dt_min, dt0, t, lost, p, q,
                      hi, lo, low):
    """Up to n exact midpoint steps of H = q p^2 + c / q from (t, p, q), each of
    dt0 or less, in Python: the loop that `kernels.c` compiles, bit for bit.

    A step is throttled to dt <= throttle q / |qdot| while q falls, but never
    below dt_min.  The loop folds as it steps: the range [lo, hi] of H, the
    lowest q and, into the arrays `kept` (t, p, q), every step that `left`
    counts down to, and every stride-th after it.  A step without a
    midpoint solution, or one that leaves floor < q < inf, ends the bulk
    at the last good step.  Returns (i, m, dt, t, lost, p, q, hi, lo, low):
    the number of good steps, the number of steps kept, the dt of the last
    step tried, the last good step with its compensation `lost`, and the folds.
    """
    sqrt, inf = math.sqrt, math.inf
    times, ps, qs = kept
    add_t, add_p, add_q = times.append, ps.append, qs.append
    m = 0
    cq = c / q  # H's c / q, and the next step's r = c / q^2 = cq / q
    for i in range(n):
        dt = dt0
        if p < 0.0:
            # keep the relative shrink of q modest so the floor crossing
            # is localized to ~sqrt(Q_FLOOR/E) in time
            v = -2.0 * q * p  # -qdot, qdot = dH/dp = 2 q p
            if v > 0.0:  # q p can underflow
                cap = throttle * q / v
                if cap < dt_min:
                    cap = dt_min
                if cap < dt:
                    dt = cap
        # qm = q + dt qm pm gives qm = q / (1 - dt pm).  With r = c / q^2,
        # pm = p - (dt/2)(pm^2 - c / qm^2) becomes
        #   (dt/2)(1 - r dt^2) pm^2 + (1 + r dt^2) pm - (p + dt r / 2) = 0,
        # whose root that tends to p as dt -> 0 is 2k / (b + sqrt(b^2 + 4ak)),
        # free of cancellation.  A negative discriminant or 1 - dt pm <= 0
        # leaves the step without a midpoint solution.
        r = cq / q
        rdt2 = r * dt * dt
        a = 0.5 * dt * (1.0 - rdt2)
        b = 1.0 + rdt2
        k = p + 0.5 * dt * r
        disc = b * b + 4.0 * a * k
        if disc < 0.0:
            break
        pm = 2.0 * k / (b + sqrt(disc))
        u = 1.0 - dt * pm
        if u <= 0.0:
            break
        q1 = 2.0 * q / u - q
        if not floor < q1 < inf:
            break
        p, q = 2.0 * pm - p, q1
        # compensated (Kahan) sum: a plain running sum of 20,000 steps
        # of 1e-4 ends 2e-13 short of 2, too far for h_last to absorb
        y = dt - lost
        s = t + y
        lost = (s - t) - y
        t = s
        # H in the flow's own float order, so equal to flow.hamiltonian
        cq = c / q
        e = q * p * p + cq
        if e > hi:
            hi = e
        elif e < lo:
            lo = e
        if q < low:
            low = q
        left -= 1
        if not left:
            left = stride
            add_t(t)
            add_p(p)
            add_q(q)
            m += 1
    else:
        i = n
    return i, m, dt, t, lost, p, q, hi, lo, low


def _sumsq(x):
    """Row-wise |x|^2 over the last axis."""
    return np.einsum("...i,...i->...", x, x)


def rotsym_flow(N: int, m0: float, g0: float) -> FlowSpec:
    """H = sum(p_n^2 + m0^2 q_n^2) + g0 (sum q_n^2)^2.

    The Hamiltonian carries no 1/2 factors, so qdot_n = 2 p_n and the
    decoupled (g0 = 0) oscillation frequency is 2 m0.  H acts row-wise on
    (..., N) arrays.  The plane run steps Newton solves for kappa at
    g0 > 0 and is `_rotation_run`, in closed form, at g0 = 0.
    """
    if not 1 <= N <= 64:
        raise ValueError(f"N must lie in [1, 64], got {N}")
    if not (0 < m0 < math.inf and 0 <= g0 < math.inf):
        raise ValueError(f"need finite m0 > 0 and g0 >= 0, got m0 = {m0}, g0 = {g0}")

    def ham(p, q):
        s2 = _sumsq(q)
        return _sumsq(p) + m0**2 * s2 + g0 * s2 * s2

    def newton_run(gram, dt, n):
        # With a = q + dt p the midpoint equations give qm = a / (1 + kappa),
        # kappa = dt^2 (m0^2 + 2 g0 |qm|^2): one scalar equation,
        #   F(kappa) = kappa - k0 - A / (1 + kappa)^2 = 0,
        # k0 = dt^2 m0^2, A = 2 dt^2 g0 |a|^2, with one root in [k0, k0 + A]
        # (see _newton_bulk).  The steps are taken in bulks of at most CHUNK by
        # the compiled kernel, or by `_newton_bulk` where none could be built,
        # the same bits either way.
        kernels = _kernels.load()
        bulk = _newton_bulk if kernels is None else kernels.newton_bulk
        k0 = dt * dt * m0 * m0
        w = 2.0 * dt * dt * g0
        plane = np.empty((n + 1, 2, 2))
        plane[0] = np.eye(2)  # p = p0, q = q0
        for first in range(1, n + 1, CHUNK):
            size = min(CHUNK, n + 1 - first)
            good = bulk(plane, first, size, *gram, dt, k0, w, NEWTON_TOL, NEWTON_MAX_ITER)
            if good < size:
                return None, first + good
        return plane, None

    return FlowSpec(
        name="rotsym",
        hamiltonian=ham,
        params={"N": N, "m0": m0, "g0": g0},
        midpoint=newton_run if g0 else lambda gram, dt, n: (_rotation_run(m0, dt, n), None),
    )


def _newton_bulk(plane, first, n, gpp, gpq, gqq, dt, k0, w, tol, max_iter):
    """Up to n of rotsym's Newton plane steps in Python: the loop that
    `kernels.c` compiles, bit for bit.

    Reads the coefficients of step first - 1 from plane and writes those of
    steps first, first + 1, ... after it; returns the number of good steps,
    n or fewer where a step fails.  F(kappa) = kappa - k0 - A / (1 + kappa)^2
    is increasing and concave, so Newton started below the root climbs to
    it monotonically and never leaves [k0, k0 + A]; the start is the
    fixed-point map k0 + A / (1 + kappa)^2 at the upper end.  kappa itself is
    the unknown: recovering it as (1 + kappa) - 1 would lose the digits of
    kappa ~ dt^2.  The step is p1 = p - 2 f a, q1 = q + 2 dt (p - f a),
    f = kappa / (dt (1 + kappa)), on plane coefficients: a = ap p0 + aq q0,
    |a|^2 from the Gram matrix (gpp, gpq, gqq) of (p0, q0).  A start whose
    square overflows to inf, or a solve whose step is not below tol kappa
    within max_iter iterations, fails the step.
    """
    dt2, inf = 2.0 * dt, math.inf
    pp, pq, qp, qq = plane[first - 1].ravel().tolist()
    coefs = array("d")
    put = coefs.extend
    for _ in range(n):
        ap, aq = qp + dt * pp, qq + dt * pq
        A = w * (ap * ap * gpp + 2.0 * ap * aq * gpq + aq * aq * gqq)
        s = 1.0 + k0 + A
        s *= s
        if s == inf:
            break
        kappa = k0 + A / s
        left = max_iter
        while left:
            left -= 1
            s = 1.0 + kappa
            g = A / (s * s)
            step = (kappa - k0 - g) / (1.0 + 2.0 * g / s)
            kappa -= step
            bound = tol * kappa
            if -bound <= step <= bound:  # |step| <= bound, and False on a NaN
                break
        else:
            break
        f = kappa / (dt * (1.0 + kappa))
        fp, fq = f * ap, f * aq
        pp, pq, qp, qq = (pp - 2.0 * fp, pq - 2.0 * fq,
                          qp + dt2 * (pp - fp), qq + dt2 * (pq - fq))
        put((pp, pq, qp, qq))
    good = len(coefs) // 4
    plane[first:first + good] = np.frombuffer(coefs).reshape(good, 2, 2)
    return good


def _rotation_run(m0, dt, n, first=0):
    """Plane of the free field's run: its steps first..n in closed form.

    At g0 = 0 one step maps (p, m0 q) to its rotation by theta = 2 atan(u),
    u = m0 dt, so step k holds M^k = [[cos k theta, -m0 sin k theta],
    [sin k theta / m0, cos k theta]].  Past u = 1, theta = pi - x with
    x = 2 atan(1 / u), and k theta = k pi - k x keeps the digits that
    pi - theta would lose.  sin k theta / m0 is taken as
    (sin k theta / sin theta) 2 dt / (1 + u^2), dividing by no tiny m0,
    and the ratio as +-k once x^2 underflows (its relative correction is
    below k^2 x^2 / 6).
    """
    k = np.arange(first, n + 1.0)
    u = m0 * dt
    if u > 1.0:
        x = 2.0 * math.atan(1.0 / u)
        sign = 1.0 - 2.0 * (k % 2)  # cos k theta = (-1)^k cos kx, sin k theta = -(-1)^k sin kx
        cos_sign, sin_sign = sign, -sign
    else:
        x, cos_sign, sin_sign = 2.0 * math.atan(u), 1.0, 1.0
    sin_kx = np.sin(k * x)
    ratio = sin_sign * (sin_kx / math.sin(x) if x * x > 0.0 else k)
    plane = np.empty((k.size, 2, 2))
    plane[:, 0, 0] = plane[:, 1, 1] = cos_sign * np.cos(k * x)
    plane[:, 0, 1] = -m0 * (sin_sign * sin_kx)
    plane[:, 1, 0] = ratio * (2.0 * dt / (1.0 + u * u))
    plane[k == 0] = np.eye(2)  # the sign factors leave a -0.0 there
    return plane


def integrate(flow: FlowSpec, initial, t_end: float, *, dt: float = 1e-4,
              stride: int = 1) -> Trajectory:
    """Implicit-midpoint trajectory of q' = dH/dp, p' = -dH/dq at step dt.

    Scalar flows take numbers p and q, keep every stride-th step (steps
    k = 0 mod stride, see Trajectory) and fold the drift and min q over
    every step.  Vector flows take initial arrays of shape (N,), N the
    flow's params["N"], and keep every step, so they take stride 1 only;
    the run is stepped in its plane span{p0, q0} and stored as plane
    coefficients.  Either kind hands its start to the flow's run,
    `FlowSpec.midpoint`, and takes back its steps.  A flow with a barrier c
    (toy gravity) lives on q > Q_FLOOR q0 and throttles the step once q
    heads for that floor.  At c = 0 a floor crossing or a step without a
    midpoint solution stops the run with status "singularity" and the
    crossing time; at c > 0, where the exact flow never collapses, either
    raises RuntimeError, as a failed midpoint step of any flow does.  A dt
    that is not finite and positive, a run of more than MAX_STEPS steps of
    dt (t_end / dt > MAX_STEPS), a stride that is not an integer of at least 1,
    a flow without a midpoint step, a non-finite or wrongly shaped initial
    state, one where H is not finite, or a vector flow given a stride other
    than 1 raise ValueError.  A scalar run that steps more than MAX_STEPS
    times, not counting steps written in closed form, raises RuntimeError.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
        raise ValueError(f"stride must be an integer of at least 1, got {stride!r}")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    if t_end / dt > MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end / dt:.6g} steps exceed MAX_STEPS = {MAX_STEPS}")
    if flow.midpoint is None:
        raise ValueError(f"flow {flow.name!r} has no midpoint step")
    if not all(np.isfinite(x).all() for x in initial):
        raise ValueError("initial p and q must be finite")
    if flow.vector:
        if stride != 1:
            raise ValueError(f"vector flows keep every step; got stride {stride}")
        p, q = (np.array(x, dtype=float) for x in initial)
        n_comp = flow.params["N"]
        if p.shape != (n_comp,) or q.shape != (n_comp,):
            raise ValueError(f"initial p and q must have shape ({n_comp},), as the flow has "
                             f"N = {n_comp}; got {p.shape} and {q.shape}")
    else:
        if any(np.ndim(x) for x in initial):
            raise ValueError(f"flow {flow.name!r} takes numbers p and q; got shapes "
                             f"{np.shape(initial[0])} and {np.shape(initial[1])}")
        p, q = (float(x) for x in initial)
        if flow.barrier is not None and q <= 0:
            raise ValueError("initial q must be positive on this chart")
    with np.errstate(over="ignore", invalid="ignore"):
        energy = flow.hamiltonian(p, q)
    if not math.isfinite(energy):
        raise ValueError(f"flow {flow.name!r}: initial energy H = {energy} is not finite")
    if flow.vector:
        return _run_vector(flow, p, q, t_end, dt)
    rows = _Rows(flow.hamiltonian, stride, 0.0, p, q)
    return rows.trajectory(*flow.midpoint(rows, p, q, t_end, dt))


class _Rows:
    """The steps of a scalar run, taken in one bulk at a time in step order.

    Step 0 is in from the start.  A stepping run appends its steps
    k = 0 mod stride to `kept` (t, p, q) itself, keeps the range of H and
    the lowest q as it steps, and hands `fold` each bulk of at most CHUNK
    steps once it is done; `take` does the same for whole arrays of steps.
    The drift is folded from the range [lo, hi] of H: rounding is
    monotone, so max(hi - e0, e0 - lo) is the largest |H - e0| bit for
    bit.  The kept rows' H is evaluated on their arrays, which applies the
    per-step float operations in the same order, so each energy is
    bit-identical to a per-step evaluation.  `fold` raises RuntimeError
    once more than MAX_STEPS stepped steps are in, a check made once a
    bulk, not once a step; steps folded with `closed=True`, written in
    closed form and cheap at any count, do not count toward it.
    """

    def __init__(self, hamiltonian, stride, t, p, q):
        self.hamiltonian, self.stride = hamiltonian, stride
        self.kept = array("d", [t]), array("d", [p]), array("d", [q])
        self.e0 = self.hi = self.lo = hamiltonian(p, q)
        self.min_q = q
        self.end = t, p, q
        self.taken, self.closed = 1, 0

    def fold(self, n, end, hi, lo, min_q, closed=False):
        """Take in the next n steps: the last of them, end = (t, p, q), the
        range [lo, hi] of their H and their lowest q."""
        self.hi, self.lo, self.min_q = max(self.hi, hi), min(self.lo, lo), min(self.min_q, min_q)
        self.taken += n
        if closed:
            self.closed += n
        self.end = end
        if self.taken - self.closed - 1 > MAX_STEPS:
            raise RuntimeError(f"run took more than MAX_STEPS = {MAX_STEPS} steps by "
                               f"t = {end[0]}")

    def take(self, t, p, q, closed=False):
        """Take in the next steps, given as arrays of t, p and q."""
        t, p, q = np.asarray(t), np.asarray(p), np.asarray(q)
        k = slice(-self.taken % self.stride, None, self.stride)
        for kept, x in zip(self.kept, (t, p, q)):
            kept.frombytes(x[k].tobytes())
        e = self.hamiltonian(p, q)
        self.fold(t.size, (float(t[-1]), float(p[-1]), float(q[-1])), float(e.max()),
                  float(e.min()), float(q.min()), closed)

    def trajectory(self, status, hit_time):
        """The run's Trajectory: its kept steps and its folds."""
        times, ps, qs = (np.asarray(x) for x in self.kept)
        e0 = self.e0
        drift = max(self.hi - e0, e0 - self.lo) / (abs(e0) if e0 != 0 else 1.0)
        return Trajectory(times=times, energies=self.hamiltonian(ps, qs), ps=ps, qs=qs,
                          end=self.end, drift=drift, min_q=self.min_q, status=status,
                          hit_time=hit_time, steps=self.taken - 1)


def _self_similar_run(p, q, t, dt, h, t_end, floor, rows):
    """Throttled steps of H = q p^2 from (p, q) at time t, in closed form.

    dt is the throttled step THROTTLE q / |qdot| = (THROTTLE / 2) / |p|.  Every
    such step has dt p = -THROTTLE / 2, so it maps (p, q) to (rho p, sigma q) with
    fixed rho, sigma from one quadratic solve (toy gravity's step at
    c = 0), and the step lengths fall geometrically by 1 / rho.  Builds
    steps 1..K chunk by chunk, hands them to `rows` after the steps it
    holds, and returns the state after them; K stops 8 steps short of where
    the q floor, the DT_MIN step clamp or the t_end landing could act, so
    the stepping loop handles all three.
    """
    if not dt < h:
        return p, q, t
    # rho - 1 = 2 (2 - D) / D and sigma - 1 = 2 (1 - u) / u, free of
    # cancellation, from the floats D = 1 + sqrt(1 + 2 dt p) and
    # u = 1 - dt pm, which every stepped throttled step rounds alike
    x = -THROTTLE / 2
    D = 1.0 + math.sqrt(1.0 + 2.0 * x)  # pm = 2 p / D
    u = 1.0 - x * (2.0 / D)
    lr = math.log1p(2.0 * (2.0 - D) / D)  # log rho
    ls = math.log1p(2.0 * (1.0 - u) / u)  # log sigma
    k_floor = math.ceil((math.log(floor) - math.log(q)) / ls) if floor > 0 else math.inf
    k_clamp = math.log(dt / DT_MIN) / lr
    # t_k = t + dt (1 - rho^-k) / (1 - rho^-1) stays 2h short of t_end
    room = (t_end - 2.0 * h - t) * -math.expm1(-lr) / dt
    k_land = -math.log1p(-room) / lr if room < 1.0 else math.inf
    K = int(min(k_floor, k_clamp, k_land)) - 8
    if K < 1:
        return p, q, t

    def stretch(k, rate, scale, shift=0.0, fn=np.exp):
        # shift + scale fn(k rate) at the steps k
        x = k * rate
        fn(x, out=x)
        x *= scale
        x += shift
        return x

    for first in range(1, K + 1, CHUNK):
        k = np.arange(first, min(first + CHUNK, K + 1), dtype=float)
        rows.take(stretch(k, -lr, dt / math.expm1(-lr), t, np.expm1),
                  stretch(k, lr, p), stretch(k, ls, q), closed=True)
    t, p, q = rows.end
    return p, q, t


def _run_vector(flow, p0, q0, t_end, h):
    # n equal steps, t_k = t_end k / n: no roundoff-length last step
    n = max(1, math.ceil(t_end / h - 1e-9))
    times = t_end * np.arange(n + 1) / n
    times[-1] = t_end
    dt = t_end / n
    # the run stays in the plane of (p0, q0): the flow's plane run gives the
    # coefficients of p and q on (p0, q0) from the plane's Gram matrix
    basis = np.stack([p0, q0])
    gram = basis @ basis.T
    plane, failed = flow.midpoint((float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])),
                                  dt, n)
    if failed is not None:
        raise RuntimeError(f"implicit midpoint solve failed at t = {times[failed]}")
    # H is O(N)-invariant, so it reads each state on the isometric image of
    # the plane: with basis^T = Q R (R is 2x2, or 1x2 at N = 1), p = basis^T c
    # maps to R c, and a singular R is never inverted
    rt = np.linalg.qr(basis.T, mode="r").T
    energies = flow.hamiltonian(plane[:, 0] @ rt, plane[:, 1] @ rt)
    return Trajectory(times=times, energies=energies, coefs=plane, basis=basis,
                      drift=float(np.max(_drifts(energies, energies[0]))),
                      end=(times[-1], *_plane_states(plane[-1], basis)), steps=n)


def toy_gravity_solution(p0: float, q0: float, c: float, t):
    """Exact flow of H = q p^2 + c / q from (p0, q0), c >= 0.

    The dilation symbol m = pq grows as dm/dt = {pq, H} = H = E, and H = E
    reads m^2 + c = E q, so q = (m^2 + c) / E = q0 + 2 q0 p0 t + E t^2 and
    p = m / q, with m = q0 p0 + E t.  For c > 0, q turns at t* = -q0 p0 / E
    with q = c / E; for c = 0, q reaches the pole q = 0 at t = -1/p0.
    """
    if not (q0 > 0 and c >= 0):
        raise ValueError(f"need q0 > 0 and c >= 0, got q0 = {q0}, c = {c}")
    t = np.asarray(t, dtype=float)
    e = q0 * p0 * p0 + c / q0
    if e == 0.0:  # p0 = c = 0: at rest
        p, q = np.zeros_like(t), np.full_like(t, q0)
    else:
        m = q0 * p0 + e * t
        q = m * (m / e) + c / e  # m * m would overflow once |m| passes 1e154
        if np.any(q < 1e-24 * q0):
            raise ValueError(f"solution pole at t = {-1.0 / p0}")
        p = m / q
    if t.ndim == 0:
        return float(p), float(q)
    return p, q
