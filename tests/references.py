"""Reference constructions the tests check the program against.

None of these is reached by an `enhq` subcommand, so they live beside the
tests rather than in the package: the spin operator triple (S1, S2, S3),
dense unitaries, squeezed fiducials, position-space wavefunctions,
overlaps, the fiducial variance coefficients, the Gauss-Gamma quadrature
grid with the affine states sampled on it and the quadrature of affine
expectations, which the exact Gamma moments are checked against, the dense per-call word matrix of canonical
Hamiltonians, the power-counting slopes of the radial inequality, the
canonical and spin state maps written out without the families' factor
caches, the gradients of the dynamics flows, which the midpoint residuals
read, the scalar flows' single midpoint steps and the stepping loop that
took them one call at a time, which the flows' own runs are checked
against, rotsym's Newton plane run as it was first written, which the
program's run must match bit for bit, the spin family relabelled by a
(p, q) chart, which the chart-covariance checks read, and the canonical
state map differenced by the stencil jet, which the exact canonical jet is
checked against.
"""

import dataclasses
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from enhq.coherent import (
    METRIC_STEP,
    ChartBoundaryError,
    _check_affine_point,
    _ladder_spectrum,
    _stencil_jet,
)
from enhq import dynamics
from enhq.dynamics import CHUNK, DT_MIN, NEWTON_MAX_ITER, NEWTON_TOL, THROTTLE, _Rows, _sumsq
from enhq.hilbert import (
    StateVector,
    _frozen,
    expectation,
    momentum_operator,
    position_operator,
    spin_space,
)


def spin_operators(s: float, hbar: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Irreducible spin triple (S1, S2, S3) with [S1,S2] = i*hbar*S3.

    Basis ordering is m = s, s-1, ..., -s, so S3 is diagonal with
    decreasing eigenvalues m*hbar.
    """
    spin_space(s, hbar)  # validates s and hbar
    m = np.arange(s, -s - 1e-9, -1.0)
    s3 = np.diag(hbar * m).astype(complex)
    # S+ |s,m> = hbar sqrt(s(s+1) - m(m+1)) |s,m+1>
    below = m[1:]  # source m for each raising step
    sp = np.diag(hbar * np.sqrt(s * (s + 1) - below * (below + 1)), k=1).astype(complex)
    sm = sp.conj().T
    s1 = (sp + sm) / 2.0
    s2 = (sp - sm) / 2j
    return _frozen(s1), _frozen(s2), _frozen(s3)


def unitary_from_hermitian(A: np.ndarray, c: float) -> np.ndarray:
    """exp(i*c*A) via dense eigendecomposition of the Hermitian A."""
    w, v = np.linalg.eigh(A)
    return (v * np.exp(1j * c * w)) @ v.conj().T


def squeezed_ground_state(space, lam: float) -> StateVector:
    """Normalized kernel vector of (Q/lam + i*lam*P), phase-fixed at its largest entry.

    The lowest eigenvector of b^dag b for the squeezed annihilator b;
    the Fock ground state at lam = 1.
    """
    q = position_operator(space)
    p = momentum_operator(space)
    b = (q / lam + 1j * lam * p) / np.sqrt(2.0 * space.hbar)
    w, v = np.linalg.eigh(b.conj().T @ b)
    c = v[:, np.argmin(w)]
    c = c * np.exp(-1j * np.angle(c[np.argmax(np.abs(c))]))
    return StateVector(c / np.linalg.norm(c), space)


def hermite_functions(n_max: int, x: np.ndarray, hbar: float) -> np.ndarray:
    """Oscillator eigenfunctions phi_0..phi_{n_max-1} at x, shape (n_max, len(x)).

    Stable normalized recurrence in the scaled variable x/sqrt(hbar).
    """
    xi = np.asarray(x, dtype=float) / np.sqrt(hbar)
    out = np.zeros((n_max, xi.size))
    out[0] = (np.pi * hbar) ** -0.25 * np.exp(-0.5 * xi * xi)
    if n_max > 1:
        out[1] = np.sqrt(2.0) * xi * out[0]
    for n in range(1, n_max - 1):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * xi * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def canonical_state_uncached(family, p: float, q: float) -> np.ndarray:
    """vu e^(iqx) w e^(ipx) V^T fiducial, normalized, with every factor
    rebuilt: the operands and order of `CanonicalFamily.state`."""
    x, v, vu, w = _ladder_spectrum("fock", family.space.dim)
    x = x / math.sqrt(family.hbar)
    a = v.T @ family.fiducial.coeffs
    c = vu @ (np.exp(1j * q * x) * (w @ (np.exp(1j * p * x) * a)))
    return c / np.linalg.norm(c)


def spin_state_uncached(family, theta: float, phi: float) -> np.ndarray:
    """e^(-i phi m) U^dag V e^(i theta x) V[0], normalized, with every
    factor rebuilt: the operands and order of `SpinFamily.state`."""
    x, v, vu, _ = _ladder_spectrum("spin", family.space.dim)
    m = np.arange(family.s, -family.s - 1e-9, -1.0)
    c = np.exp(-1j * phi * m) * (vu @ (np.exp(1j * theta * x) * v[0]))
    return c / np.linalg.norm(c)


def xrep(family, p: float, q: float, x: np.ndarray) -> np.ndarray:
    """Position samples e^{ip(x-q)/h} eta(x-q) of a canonical coherent state."""
    h = family.hbar
    eta = family.fiducial.coeffs @ hermite_functions(family.space.dim, x - q, h)
    return np.exp(1j * p * (x - q) / h) * eta


N_NODES = 400  # nodes of every Gauss-Gamma grid
# largest |<psi|psi> - 1| allowed for a sampled affine state; more means
# the grid, tuned to one q, does not resolve the state
AFFINE_NORM_TOL = 1e-6


@dataclass(frozen=True)
class HalfLineGrid:
    """Nodes x_i > 0 and plain-dx weights: sum(w_i f(x_i)) ~ int_0^inf f."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> complex:
        return np.sum(self.weights * values)


@lru_cache(maxsize=64)
def _genlaguerre_rule(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """N_NODES nodes t_i and log-weights for the weight t^alpha e^-t on (0, inf),
    by Golub-Welsch on the analytic Jacobi recurrence, which stays finite where
    the library routine overflows; nodes whose weights underflow are dropped."""
    i = np.arange(N_NODES, dtype=float)
    j = np.arange(1, N_NODES, dtype=float)
    t, v = eigh_tridiagonal(2.0 * i + alpha + 1.0, np.sqrt(j * (j + alpha)))
    v0 = np.abs(v[0, :])
    keep = v0 > 0.0
    return t[keep], gammaln(alpha + 1.0) + 2.0 * np.log(v0[keep])


def gauss_gamma_grid(alpha: float, rate: float) -> HalfLineGrid:
    """Plain-dx quadrature for integrands concentrated like x^alpha e^(-rate*x),
    exact for that weight times polynomials up to degree 2*N_NODES - 1."""
    t, log_w = _genlaguerre_rule(float(alpha))
    # undo the weight: W_i = w_i * e^t * t^-alpha, then rescale x = t/rate
    log_true = log_w + t - alpha * np.log(t) - np.log(rate)
    keep = log_true < 700.0
    return HalfLineGrid(nodes=t[keep] / rate, weights=np.exp(log_true[keep]))


@dataclass(frozen=True)
class AffineState:
    """Sampled half-line wavefunction with its quadrature rule."""

    grid: HalfLineGrid
    samples: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(np.real(self.grid.integrate(np.abs(self.samples) ** 2))))


def sampled_affine_state(family, p: float, q: float, center: float = 1.0) -> AffineState:
    """q^(-1/2) e^(ipx/hbar) fiducial(x/q) of an affine family, sampled on the
    Gauss-Gamma grid of |fiducial|^2 rescaled to q = center.

    The log amplitude is log M + (k-1)/2 log x - beta x / (q hbar) - k/2 log q.
    A grid centred at q0 resolves states up to about q = 1.08 q0; past that
    the quadrature norm^2 is off by more than AFFINE_NORM_TOL and this raises.
    """
    _check_affine_point(p, q)
    k, h = family.k, family.hbar
    grid = gauss_gamma_grid(k - 1.0, k / center)
    x = grid.nodes
    log_amp = (0.5 * (k * np.log(k) - gammaln(k)) + 0.5 * (k - 1.0) * np.log(x)
               - family.beta * x / (q * h) - 0.5 * k * math.log(q))
    samples = np.exp(log_amp + 1j * p * x / h)
    norm2 = np.vdot(samples, grid.weights * samples).real
    if not abs(norm2 - 1.0) <= AFFINE_NORM_TOL:
        raise ValueError(f"affine state at (p, q) = ({p}, {q}) has quadrature norm^2 "
                         f"{norm2:.6g}: its grid centred at q = {center} does not resolve it")
    return AffineState(grid, samples)


def overlap(a, b) -> complex:
    """<a|b> for two state vectors, or two affine states on one grid."""
    if isinstance(a, AffineState):
        return complex(a.grid.integrate(np.conj(a.samples) * b.samples))
    return complex(np.vdot(a.coeffs, b.coeffs))


def affine_fiducial_wavefunction(beta: float, hbar: float, x: np.ndarray) -> np.ndarray:
    """M x^((k-1)/2) e^(-beta x/hbar), k = 2 beta/hbar, M^2 = k^k / Gamma(k)."""
    k = 2.0 * beta / hbar
    log_m = 0.5 * (k * np.log(k) - gammaln(k))
    return np.exp(log_m + 0.5 * (k - 1.0) * np.log(x) - beta * x / hbar)


def fiducial_metric_coeffs(fiducial) -> tuple[float, float, float]:
    """Variance coefficients (A, B, C) of a canonical fiducial vector.

    A = <(dQ)^2>, B = <dQ dP + dP dQ>, C = <(dP)^2>; the family metric
    is then (2/hbar) [A dp^2 + B dp dq + C dq^2].
    """
    space = fiducial.space
    eye = np.eye(space.dim)
    q, p = position_operator(space), momentum_operator(space)
    dq = q - expectation(fiducial, q).real * eye
    dp = p - expectation(fiducial, p).real * eye
    ev = lambda m: expectation(fiducial, m).real
    return (float(ev(dq @ dq)), float(ev(dq @ dp + dp @ dq)), float(ev(dp @ dp)))


def quadrature_expect_laurent(family, coeffs: dict, p: float, q: float) -> complex:
    """<p,q| sum_e c_e x^e |p,q> by 400-node Gauss-Gamma quadrature of the Gamma density.

    Negative exponents shift the quadrature weight, so every term with
    e >= -(k-1) is integrated exactly up to rounding.
    """
    k, rate = family.k, family.k / q
    g = gauss_gamma_grid(k - 1.0 + min(0, min(coeffs)), rate)
    pdf = np.exp(k * np.log(rate) - gammaln(k) + (k - 1.0) * np.log(g.nodes) - rate * g.nodes)
    return complex(sum(c * g.integrate(pdf * g.nodes ** float(e)) for e, c in coeffs.items()))


def dense_enhanced_hamiltonian(spec, family, p: float, q: float) -> complex:
    """<p,q|H|p,q> with H built from the canonical family's own P and Q, word by word."""
    ops = {"P": family.P, "Q": family.Q}
    total = np.zeros((family.space.dim, family.space.dim), dtype=complex)
    for coeff, word in spec.terms:
        m = np.eye(family.space.dim, dtype=complex)
        for tok in word:
            m = m @ ops[tok]
        total += coeff * m
    psi = family.state(p, q).coeffs
    return complex(np.vdot(psi, total @ psi))


def lhs_slope_expected(field) -> float:
    """Power-counting slope of log lhs vs log eps (0 when convergent)."""
    ex = 4.0 * field.alpha - field.n
    return -ex / 2.0 if ex > 0 else 0.0


def rhs_slope_expected(field) -> float:
    ex = 2.0 * field.alpha + 2.0 - field.n
    return -ex if ex > 0 else 0.0


def flow_gradients(flow):
    """(dH/dp, dH/dq) of an oscillator, toy-gravity or rotsym flow."""
    if flow.name == "oscillator":
        return lambda p, q: p, lambda p, q: q
    if flow.name == "rotsym":
        m0, g0 = flow.params["m0"], flow.params["g0"]
        return (lambda p, q: 2.0 * p,
                lambda p, q: 2.0 * m0**2 * q + 4.0 * g0 * _sumsq(q)[..., None] * q)
    c = flow.barrier
    return lambda p, q: 2.0 * q * p, lambda p, q: p * p - c / (q * q)



# The scalar flows' single midpoint steps on Python floats and the stepping
# loop that took them one call at a time, before each flow took its own run.


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


def _run_scalar(flow, p, q, t_end, h, stride):
    """The stepping loop of a scalar run, one `flow.midpoint(p, q, dt)` step
    per pass: the reference that the flows' own runs are checked against.
    It collects its steps in its own arrays and hands them to `_Rows.take`
    a chunk at a time, ending where the step count reaches a multiple of
    CHUNK, so the drift, lowest q and kept rows come from a per-step numpy
    fold.  It reads the floor and the closed-form stretch off `dynamics` at
    run time, as the runs do."""
    chart, collapses = flow.barrier is not None, flow.barrier == 0
    solve = flow.midpoint
    floor = dynamics.Q_FLOOR * q
    h_last = h * (1.0 + 1e-9)  # a remainder under 1e-9 h joins the last step
    rows = _Rows(flow.hamiltonian, stride, 0.0, p, q)
    times, ps, qs = [], [], []

    def hand_over():
        if times:
            rows.take(times, ps, qs)
            for buf in (times, ps, qs):
                del buf[:]

    t = lost = 0.0
    status, hit = "completed", None
    end = t_end - 1e-15
    # a contracting collapsing run steps until the throttle binds, where
    # the exact flow p0 / (1 + p0 t) passes |p| = (THROTTLE / 2) / h (a little
    # past it), takes the throttled steps in closed form, and steps again
    tail = collapses and p < 0
    stop = min(1.0 / -p - h / (THROTTLE / 2) / 1.001, end) if tail else end
    while True:
        while hit is None and t < stop:
            # up to the next multiple of CHUNK steps per pass; a full chunk
            # is handed over
            for _ in range(CHUNK - (rows.taken + len(qs)) % CHUNK):
                rest = t_end - t
                dt = h if rest > h_last else rest
                if chart:
                    # keep the relative shrink of q modest so the floor crossing
                    # is localized to ~sqrt(Q_FLOOR/E) in time
                    v = 2.0 * q * p  # qdot = dH/dp of H = q p^2 + c / q
                    if v < 0:
                        cap = THROTTLE * q / -v
                        if cap < DT_MIN:
                            cap = DT_MIN
                        if cap < dt:
                            dt = cap
                p1, q1, ok = solve(p, q, dt)
                if dt == rest:
                    t = t_end
                else:
                    # compensated (Kahan) sum: a plain running sum of 20,000 steps
                    # of 1e-4 ends 2e-13 short of 2, too far for h_last to absorb
                    y = dt - lost
                    s = t + y
                    lost = (s - t) - y
                    t = s
                if not ok or chart and not floor < q1 < math.inf:
                    if collapses:
                        status, hit = "singularity", t
                        break
                    raise RuntimeError(f"implicit midpoint solve failed at t = {t}")
                p, q = p1, q1
                times.append(t)
                ps.append(p)
                qs.append(q)
                if t >= stop:
                    break
            else:
                hand_over()
        hand_over()
        if not tail or hit is not None:
            break
        p, q, t = dynamics._self_similar_run(p, q, t, THROTTLE * q / -(2.0 * q * p), h, t_end,
                                             floor, rows)
        tail, lost, stop = False, 0.0, end
    return rows.trajectory(status, hit)


def reference_step(flow):
    """The single midpoint step (p, q, dt) -> (p1, q1, ok) of a scalar flow."""
    return _oscillator_midpoint if flow.barrier is None else _toy_gravity_midpoint(flow.barrier)


def reference_run(flow, initial, t_end, dt=1e-4, stride=1, step=None):
    """integrate(flow, initial, t_end, dt=dt, stride=stride) by the stepping
    loop, its steps taken by `step`, the flow's reference step by default."""
    p, q = (float(x) for x in initial)
    stepped = dataclasses.replace(flow, midpoint=step or reference_step(flow))
    return _run_scalar(stepped, p, q, t_end, dt, stride)


def reference_plane_run(m0: float, g0: float):
    """rotsym's plane run at g0 > 0, (gram, dt, n) -> (plane, failed), as it
    was written before its loop was trimmed: the Newton solve for kappa per
    step, with every float operation of the program's run in the same order,
    so the two must agree bit for bit."""

    def newton_run(gram, dt, n):
        gpp, gpq, gqq = gram
        k0 = dt * dt * m0 * m0
        w = 2.0 * dt * dt * g0
        pp, pq, qp, qq = 1.0, 0.0, 0.0, 1.0  # p = p0, q = q0
        coefs = array("d", (pp, pq, qp, qq))
        put = coefs.extend
        for k in range(1, n + 1):
            ap, aq = qp + dt * pp, qq + dt * pq
            A = w * (ap * ap * gpp + 2.0 * ap * aq * gpq + aq * aq * gqq)
            try:
                kappa = k0 + A / (1.0 + k0 + A) ** 2
            except OverflowError:  # a float power raises where a product gives inf
                return None, k
            for _ in range(NEWTON_MAX_ITER):
                s = 1.0 + kappa
                g = A / (s * s)
                step = (kappa - k0 - g) / (1.0 + 2.0 * g / s)
                kappa -= step
                if abs(step) <= NEWTON_TOL * kappa:
                    break
            else:
                return None, k
            f = kappa / (dt * (1.0 + kappa))
            fp, fq = f * ap, f * aq
            pp, pq, qp, qq = (pp - 2.0 * fp, pq - 2.0 * fq,
                              qp + 2.0 * dt * (pp - fp), qq + 2.0 * dt * (pq - fq))
            put((pp, pq, qp, qq))
        return np.frombuffer(coefs).reshape(n + 1, 2, 2), None

    return newton_run


class SpinPQChart:
    """A spin family relabelled by (p, q) = (r cos(theta), r phi), r = sqrt(s hbar).

    The same states as the family's (theta, phi) chart, so geometry read on
    either must agree up to the Jacobian.  Neither pole is covered: |p| < r.
    """

    chart_name = "pq"

    def __init__(self, family):
        self.family, self.hbar = family, family.hbar
        self.r = np.sqrt(family.s * family.hbar)

    def chart(self, point, margin: float):
        r, u, margin = self.r, point[0], margin + 2.0 * METRIC_STEP
        if not -r + margin < u < r - margin:
            raise ChartBoundaryError(
                f"spin pq-chart stencil at p = {u} crosses |p| = sqrt(s*hbar)"
            )
        state = self.family._state_unchecked
        return _stencil_jet(lambda a, b: state(float(np.arccos(a / r)), b / r)), np.vdot


def canonical_stencil_jet(family):
    """The canonical family's state map differenced by the stencil jet of the
    spin and affine families, in the basis of its exact jet: vu^dag times the
    Fock coefficients, where the exact jet leaves the unitary vu out."""
    vu = _ladder_spectrum("fock", family.space.dim)[2]
    return _stencil_jet(lambda p, q: vu.conj().T @ family.state(p, q).coeffs)
