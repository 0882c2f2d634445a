"""Integrator and flow checks against closed-form solutions."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from references import flow_gradients, reference_plane_run, reference_run, reference_step

from enhq import dynamics
from enhq.dynamics import (
    CHUNK,
    MAX_STEPS,
    Q_FLOOR,
    Trajectory,
    integrate,
    oscillator_flow,
    rotsym_flow,
    toy_gravity_flow,
    toy_gravity_solution,
)
from enhq.wcp import cprime_closed_form

# settings of the property tests that a class shares with its subclass on the
# Python loops (end of file): with no example database the two cannot replay
# each other's draws, so the differing-executors check guards nothing here
_SHARED_DRAWS = dict(deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.differing_executors])

# (hbar, p0) of enhanced toy-gravity runs at beta = 2, q0 = 1
ENHANCED_RUNS = [(0.5, -1.0), (1.0, -1.5), (2.0, -2.0)]


class TestClosedForm:
    def test_initial_point(self):
        assert toy_gravity_solution(-1.0, 1.0, 0.0, 0.0) == (-1.0, 1.0)

    def test_half_way(self):
        p, q = toy_gravity_solution(-1.0, 1.0, 0.0, 0.5)
        assert (p, q) == pytest.approx((-2.0, 0.25))

    def test_energy_constant(self):
        t = np.linspace(0.0, 0.9, 50)
        p, q = toy_gravity_solution(-1.0, 1.0, 0.0, t)
        assert np.max(np.abs(q * p * p - 1.0)) < 1e-12

    def test_enhanced_bounce(self):
        # H = q p^2 + c/q is conserved, and q turns at t* = -q0 p0/E with q = c/E
        p0, q0, c = -1.5, 2.0, 0.4
        e = q0 * p0 * p0 + c / q0
        t = np.linspace(0.0, 4.0, 101)
        p, q = toy_gravity_solution(p0, q0, c, t)
        assert np.max(np.abs(q * p * p + c / q - e)) < 1e-12 * e
        assert toy_gravity_solution(p0, q0, c, -q0 * p0 / e) == pytest.approx((0.0, c / e))
        assert q.min() >= c / e

    def test_large_q0(self):
        # m = q0 p0 + E t passes 1e154 here, so m^2 overflows; q must not
        assert toy_gravity_solution(-1.0, 1e200, 0.0, 0.5) == pytest.approx((-2.0, 0.25e200))
        assert toy_gravity_solution(-1.0, 1e300, 1.0, 0.0) == pytest.approx((-1.0, 1e300))

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            toy_gravity_solution(-1.0, 1.0, 0.0, 1.0)

    def test_sampled_solution_has_no_drift(self):
        flow = toy_gravity_flow(hbar=0.0)
        t = np.linspace(0.0, 0.9, 200)
        p, q = toy_gravity_solution(-1.0, 1.0, 0.0, t)
        traj = Trajectory(times=t, ps=p, qs=q, energies=flow.hamiltonian(p, q),
                          drift=None, end=None)
        assert np.max(traj.drifts) < 1e-12

    def test_drifts_per_step(self):
        # per-step |H - H0| / |H0|, absolute where H0 = 0; the max of the
        # quotients is the max deviation over |H0| bit for bit
        for h0 in (1.0, 0.0):
            e = h0 + np.array([0.0, 3e-9, -7e-9, 1e-12])
            traj = Trajectory(times=np.arange(4.0), ps=e, qs=e, energies=e, drift=None,
                              end=None)
            ref = [abs(x - e[0]) / abs(e[0]) if e[0] else abs(x - e[0]) for x in e]
            assert traj.drifts.tolist() == ref
            assert traj.drifts is traj.drifts  # built once per trajectory
            assert max(traj.drifts) == (max(abs(x - e[0]) for x in e) / (abs(e[0]) or 1.0))


class TestControls:
    @pytest.mark.parametrize("bad", [
        {"dt": 0.0}, {"dt": -1.0}, {"dt": float("nan")}, {"dt": float("inf")},
        {"stride": 0}, {"stride": -1}, {"stride": True}, {"stride": 2.0}, {"stride": 2.5},
    ])
    def test_bad_controls_rejected(self, bad):
        with pytest.raises(ValueError, match="dt must" if "dt" in bad else "stride must"):
            integrate(oscillator_flow(), (1.0, 0.0), 1.0, **bad)

    def test_vector_flow_takes_stride_one_only(self):
        p, q = np.full(3, 0.1), np.full(3, 0.2)
        with pytest.raises(ValueError, match="stride"):
            integrate(rotsym_flow(3, 1.0, 1.0), (p, q), 0.01, stride=2)

    def test_flow_without_length_is_scalar(self):
        # a flow is a vector flow exactly when its params hold N; a plane
        # step without N used to fail with a bare KeyError: 'N'
        with pytest.raises(TypeError):
            dynamics.FlowSpec("plane", None, None, vector=True)
        flow = dataclasses.replace(rotsym_flow(3, 1.0, 1.0), params={})
        assert not flow.vector
        with pytest.raises(ValueError, match="takes numbers p and q"):
            integrate(flow, (np.full(3, 0.1), np.full(3, 0.2)), 0.01)

    @pytest.mark.parametrize("initial", [
        (np.ones(3), np.ones(3)), (np.ones(1), np.ones(1)), ([1.0], 0.0),
    ])
    def test_scalar_flow_rejects_arrays(self, initial):
        # these used to raise TypeError from float() on the array
        with pytest.raises(ValueError, match="'oscillator'"):
            integrate(oscillator_flow(), initial, 1.0)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf"), 0.0])
    def test_bad_horizon_rejected(self, t_end):
        with pytest.raises(ValueError):
            integrate(oscillator_flow(), (1.0, 0.0), t_end)

    @pytest.mark.parametrize("bad", [{"hbar": float("nan")}, {"hbar": float("inf")}])
    def test_bad_toy_gravity_parameters_rejected(self, bad):
        # these used to integrate to a "singularity" at t = 2.5e-5 or 0.309
        with pytest.raises(ValueError):
            toy_gravity_flow(**bad)

    @pytest.mark.parametrize("flow,initial", [
        (oscillator_flow(), (1e155, 0.0)),
        (toy_gravity_flow(hbar=0.0), (1e160, 1.0)),
        (toy_gravity_flow(hbar=0.0), (-1e160, 1.0)),
        (toy_gravity_flow(hbar=1.0, beta=2.0), (-1.0, 1e-310)),  # c / q overflows
        (rotsym_flow(3, 1.0, 1.0), (np.full(3, 1e160), np.zeros(3))),
    ], ids=["oscillator", "expanding", "contracting", "enhanced", "rotsym"])
    def test_non_finite_initial_energy_rejected(self, flow, initial):
        # finite states whose H overflows used to run: the oscillator to
        # "completed, drift nan", the classical flow to a hit at t = 1e-4
        # while expanding and at 1e-12 against the exact 1e-160
        with pytest.raises(ValueError, match=f"flow '{flow.name}': initial energy H = inf"):
            integrate(flow, initial, 0.01)


class TestStepCap:
    """integrate refuses a run of more than MAX_STEPS steps before it starts."""

    @staticmethod
    def _unstarted(flow):
        def run(*args):
            raise AssertionError("the run started")

        return dataclasses.replace(flow, midpoint=run)

    @pytest.mark.parametrize("flow,initial", [
        (oscillator_flow(), (1.0, 0.0)),
        (toy_gravity_flow(hbar=0.5, beta=2.0), (-1.0, 1.0)),
        (rotsym_flow(3, 1.0, 1.0), (np.full(3, 0.1), np.full(3, 0.2))),
    ], ids=["oscillator", "toygravity", "rotsym"])
    def test_cap(self, flow, initial):
        # one step past the cap is refused and the cap itself is taken, both
        # without a step; dt = 1e-12 to t_end = 1 used to step without end.
        # A vector run lays out its time grid before it starts, so only the
        # scalar runs are started at the cap.
        for t_end, dt in ((MAX_STEPS + 1.0, 1.0), (1.0, 1e-12), (1e300, 1e-300)):
            with pytest.raises(ValueError, match=f"exceed MAX_STEPS = {MAX_STEPS}"):
                integrate(self._unstarted(flow), initial, t_end, dt=dt)
        if not flow.vector:
            with pytest.raises(AssertionError, match="the run started"):
                integrate(self._unstarted(flow), initial, float(MAX_STEPS), dt=1.0)

    def test_cap_on_the_steps_a_run_takes(self, monkeypatch):
        # a throttled approach takes steps that t_end / dt does not count:
        # this bounce takes 228,618 steps for a nominal 1,000
        flow = toy_gravity_flow(hbar=0.02)
        assert integrate(flow, (-30.0, 1.0), 0.1).steps == 228_618
        monkeypatch.setattr(dynamics, "MAX_STEPS", 50_000)
        with pytest.raises(RuntimeError, match="run took more than MAX_STEPS = 50000 steps"):
            integrate(flow, (-30.0, 1.0), 0.1)

    def test_cap_leaves_out_closed_form_steps(self, monkeypatch):
        # a classical hit writes most of its throttled approach in closed
        # form: 552,613 steps of which 7 are stepped, so a cap just above
        # t_end / dt = 20,000 passes the pre-check and the run still ends
        flow = toy_gravity_flow(hbar=0.0)
        monkeypatch.setattr(dynamics, "MAX_STEPS", 20_001)
        traj = integrate(flow, (-1.0, 1.0), 2.0)
        assert traj.status == "singularity"
        assert traj.steps == 552_613


class TestOscillator:
    def test_period_return(self):
        flow = oscillator_flow()
        traj = integrate(flow, (1.0, 0.0), 2.0 * np.pi)
        assert abs(traj.ps[-1] - 1.0) < 1e-6
        assert abs(traj.qs[-1]) < 1e-6

    def test_long_run_drift(self):
        flow = oscillator_flow()
        traj = integrate(flow, (1.0, 0.0), 100.0, dt=1e-3)
        assert traj.drift < 1e-8

    def test_coarse_run_drifts_more(self):
        # the exact midpoint step keeps H to roundoff at any dt, so the
        # coarse run drifts in phase: O(dt^2) against (cos t, sin t)
        flow = oscillator_flow()

        def phase_error(dt):
            traj = integrate(flow, (1.0, 0.0), 10.0, dt=dt)
            return max(np.max(np.abs(traj.ps - np.cos(traj.times))),
                       np.max(np.abs(traj.qs - np.sin(traj.times))))

        coarse, fine = phase_error(0.1), phase_error(1e-3)
        assert coarse > fine
        assert coarse / fine == pytest.approx((0.1 / 1e-3) ** 2, rel=0.01)

    def test_time_grid_ends_on_t_end(self):
        # a plain running sum of 1e-4 steps leaves a 2e-13 step at the end
        traj = integrate(oscillator_flow(), (1.0, 0.0), 2.0)
        assert traj.times.size == 20_001
        assert traj.times[-1] == 2.0

    @pytest.mark.parametrize("t_end,dt", [
        (2.0, 1e-4), (10.0, 1e-3), (2.0 * np.pi, 1e-4), (1.00015, 1e-4), (5e-5, 1e-4),
        (7.0, 3.0), (1.0, 0.3),
    ])
    def test_closed_form_matches_reference_loop(self, t_end, dt):
        # the same grid and landing as the stepped loop, bit for bit; the
        # states within a few rounding errors of the loop's
        run = integrate(oscillator_flow(), (0.6, -0.8), t_end, dt=dt)
        ref = reference_run(oscillator_flow(), (0.6, -0.8), t_end, dt)
        assert run.times.tobytes() == ref.times.tobytes() and run.steps == ref.steps
        assert run.end[0] == ref.end[0] == t_end and run.status == "completed"
        for a, b in ((run.ps, ref.ps), (run.qs, ref.qs)):
            assert np.max(np.abs(a - b)) <= 1e-13
        assert run.drift <= 1e-15


class TestToyGravity:
    def test_classical_singularity_hit(self):
        traj = integrate(toy_gravity_flow(hbar=0.0), (-1.0, 1.0), 2.0)
        assert traj.status == "singularity"
        assert abs(traj.hit_time - 1.0) < 1e-4
        assert traj.drift < 1e-8

    @pytest.mark.parametrize("p0", [-1.0, -2.0])
    def test_classical_hit_time_is_independent_of_q0(self, p0):
        # (p, q) -> (p, mu q) maps classical solutions to solutions with the
        # same times, and the floor Q_FLOOR q0 scales along: an absolute
        # floor hit at 0.684 from q0 = 1e-11 and at 2.5e-5 from 1e-300
        flow = toy_gravity_flow(hbar=0.0)
        ref = integrate(flow, (p0, 1.0), 3.0).hit_time
        for q0 in (1e-300, 1e-100, 1e-11, 1e-8, 1e-3, 0.5, 3.0, 1e3, 1e100, 1e200):
            traj = integrate(flow, (p0, q0), 3.0)
            assert traj.status == "singularity"
            assert abs(traj.hit_time + 1.0 / p0) < 1e-4
            assert abs(traj.hit_time - ref) < 1e-9

    @pytest.mark.parametrize("hbar,initial,t_end", [
        (1.0, (-1.0, 1e-300), 0.01),  # c / q^2 overflows in the midpoint step
        (0.01, (-100.0, 1.0), 0.1),  # a step near the bounce at q = c / E fails
    ], ids=["overflow", "near-bounce"])
    def test_enhanced_failed_step_raises(self, hbar, initial, t_end):
        # the enhanced flow never collapses; these used to end in a
        # "singularity" at t = 2.5e-5 and 0.0102; the run fails where the
        # reference loop does
        messages = []
        for run in (integrate, reference_run):
            with pytest.raises(RuntimeError, match="implicit midpoint solve failed at t = ") as err:
                run(toy_gravity_flow(hbar=hbar), initial, t_end)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_classical_tracks_closed_form(self):
        flow = toy_gravity_flow(hbar=0.0)
        traj = integrate(flow, (-1.0, 1.0), 0.9)
        p_ref, q_ref = toy_gravity_solution(-1.0, 1.0, 0.0, traj.times)
        assert np.max(np.abs(traj.qs - q_ref)) < 1e-6
        assert np.max(np.abs(traj.ps - p_ref)) < 1e-6

    def test_zero_energy_is_static(self):
        traj = integrate(toy_gravity_flow(hbar=0.0), (0.0, 1.0), 2.0)
        assert traj.status == "completed"
        assert abs(traj.min_q - 1.0) < 1e-12

    def test_enhanced_run_avoids_singularity(self):
        hbar = 1.0
        flow = toy_gravity_flow(hbar=hbar)
        traj = integrate(flow, (-1.0, 1.0), 10.0)
        assert traj.status == "completed"
        c = hbar**2 * cprime_closed_form(1.0, hbar)
        energy = 1.0 + c
        assert abs(traj.min_q * energy - c) < 1e-6
        assert traj.drift < 1e-8

    def test_min_q_law_on_hbar_energy_grid(self):
        for hbar in (0.5, 1.0, 2.0):
            c = hbar**2 * cprime_closed_form(2.0, hbar)
            flow = toy_gravity_flow(hbar=hbar, beta=2.0)
            for p0 in (-1.0, -1.5, -2.0):
                energy = p0 * p0 + c
                traj = integrate(flow, (p0, 1.0), 4.0, dt=5e-5)
                assert traj.status == "completed"
                assert abs(traj.min_q * energy - c) < 1e-6
                assert traj.drift < 1e-8

    @pytest.mark.parametrize("hbar, p0", ENHANCED_RUNS)
    def test_enhanced_tracks_closed_form(self, hbar, p0):
        # the whole bounce, infall and rebound, at the default step
        c = hbar**2 * cprime_closed_form(2.0, hbar)
        traj = integrate(toy_gravity_flow(hbar=hbar, beta=2.0), (p0, 1.0), 4.0)
        p_ref, q_ref = toy_gravity_solution(p0, 1.0, c, traj.times)
        assert np.max(np.abs(traj.qs - q_ref) / q_ref) < 1e-6
        assert np.max(np.abs(traj.ps - p_ref)) < 1e-6 * np.max(np.abs(p_ref))

    def test_initial_chart_violation(self):
        with pytest.raises(ValueError):
            integrate(toy_gravity_flow(hbar=0.0), (-1.0, -1.0), 1.0)


class TestConvergenceOrder:
    def test_second_order_factor(self):
        # expanding branch (p0 > 0) keeps the step fixed: the contracting
        # branch engages the near-floor throttle, which would mask dt
        flow = toy_gravity_flow(hbar=0.0)
        t_end = 0.9 * 2.0  # 0.9 * |1/p0|

        def max_error(dt):
            traj = integrate(flow, (0.5, 1.0), t_end, dt=dt)
            p_ref, q_ref = toy_gravity_solution(0.5, 1.0, 0.0, traj.times)
            return max(np.max(np.abs(traj.ps - p_ref)), np.max(np.abs(traj.qs - q_ref)))

        e1 = max_error(2e-3)
        e2 = max_error(1e-3)
        assert e1 / e2 == pytest.approx(4.0, abs=0.3)

    @pytest.mark.parametrize("hbar, p0", ENHANCED_RUNS)
    def test_enhanced_second_order_factor(self, hbar, p0):
        # relative error in q, which stays positive; p changes sign at the bounce
        flow = toy_gravity_flow(hbar=hbar, beta=2.0)
        c = hbar**2 * cprime_closed_form(2.0, hbar)

        def max_error(dt):
            traj = integrate(flow, (p0, 1.0), 4.0, dt=dt)
            q_ref = toy_gravity_solution(p0, 1.0, c, traj.times)[1]
            return np.max(np.abs(traj.qs - q_ref) / q_ref)

        assert 3.7 <= max_error(1e-3) / max_error(5e-4) <= 4.3


class TestRotsym:
    def test_bounds_and_validation(self):
        with pytest.raises(ValueError):
            rotsym_flow(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            rotsym_flow(65, 1.0, 0.0)
        with pytest.raises(ValueError):
            rotsym_flow(6, -1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(rotsym_flow(6, 1.0, 0.0), (np.zeros(5), np.zeros(6)), 1.0)

    def test_decoupled_frequency(self):
        # the Hamiltonian carries no 1/2 factors: qdot = 2p, so omega = 2 m0
        m0 = 1.3
        n = 3
        q0 = np.array([1.0, -0.5, 0.2])
        traj = integrate(rotsym_flow(n, m0, 0.0), (np.zeros(n), q0), 2.0)
        ref = q0[None, :] * np.cos(2.0 * m0 * traj.times)[:, None]
        assert np.max(np.abs(traj.states(slice(None))[1] - ref)) < 1e-6

    @pytest.mark.parametrize("n,g0", [(6, 0.0), (6, 1.0), (32, 0.0), (32, 1.0)])
    def test_shuffle_equivariance(self, n, g0):
        rng = np.random.default_rng(7)
        amp = 0.5 / np.sqrt(n)
        p0 = amp * rng.normal(size=n)
        q0 = amp * rng.normal(size=n)
        perm = rng.permutation(n)
        base = integrate(rotsym_flow(n, 1.0, g0), (p0, q0), 2.0)
        shuffled = integrate(rotsym_flow(n, 1.0, g0), (p0[perm], q0[perm]), 2.0)
        (bp, bq), (sp, sq) = base.states(slice(None)), shuffled.states(slice(None))
        dev = max(
            float(np.max(np.abs(bp[:, perm] - sp))),
            float(np.max(np.abs(bq[:, perm] - sq))),
        )
        assert dev < 1e-9
        assert base.drift < 1e-8

    def test_disjoint_support_relabeling(self):
        # motion on indices {0,1,2} reproduced verbatim on {3,4,5}
        n = 6
        vals_p = np.array([0.3, -0.1, 0.2])
        vals_q = np.array([0.5, 0.4, -0.3])
        lo_p, lo_q = np.zeros(n), np.zeros(n)
        lo_p[:3], lo_q[:3] = vals_p, vals_q
        hi_p, hi_q = np.zeros(n), np.zeros(n)
        hi_p[3:], hi_q[3:] = vals_p, vals_q
        a = integrate(rotsym_flow(n, 1.0, 1.0), (lo_p, lo_q), 1.0)
        b = integrate(rotsym_flow(n, 1.0, 1.0), (hi_p, hi_q), 1.0)
        (ap, aq), (bp, bq) = a.states(slice(None)), b.states(slice(None))
        assert np.max(np.abs(aq[:, :3] - bq[:, 3:])) < 1e-9
        assert np.max(np.abs(ap[:, :3] - bp[:, 3:])) < 1e-9


def _random_state(rng, shape, amp=1.0):
    return amp * rng.normal(size=shape), amp * rng.normal(size=shape)


# Reference midpoint steps on (B, N) arrays, the forms production used before
# it stepped each row on its plane coefficients.


def _kappa_step(flow, p, q, dt, tol, max_iter):
    """Exact radial midpoint step of rotsym_flow: one Newton solve per row."""
    m0, g0 = flow.params["m0"], flow.params["g0"]
    k0 = dt * dt * m0 * m0
    a = q + dt * p
    A = (2.0 * dt * dt * g0) * np.einsum("...i,...i->...", a, a)
    kappa = k0 + A / (1.0 + k0 + A) ** 2
    active = True
    for _ in range(max_iter):
        c = 1.0 + kappa
        g = A / (c * c)
        step = active * (kappa - k0 - g) / (1.0 + 2.0 * g / c)
        kappa = kappa - step
        active = np.abs(step) > tol * kappa
        if not active.any():
            break
    else:
        return p, q, False
    wq = (kappa / dt)[..., None] * (a / (1.0 + kappa)[..., None])
    return p - 2.0 * wq, q + (2.0 * dt) * (p - wq), True


def _fixed_point_step(flow, p, q, dt, tol, max_iter):
    """Fixed-point implicit midpoint step on arrays or Python floats."""
    fp, fq = flow_gradients(flow)
    p1, q1 = p - dt * fq(p, q), q + dt * fp(p, q)
    for _ in range(max_iter):
        pm, qm = 0.5 * (p + p1), 0.5 * (q + q1)
        p2, q2 = p - dt * fq(pm, qm), q + dt * fp(pm, qm)
        if np.abs(p2 - p1).max() + np.abs(q2 - q1).max() < tol:
            return p2, q2, True
        p1, q1 = p2, q2
    return p1, q1, False


def _reference_run(flow, p0, q0, t_end, step=_kappa_step, dt=1e-4):
    """(T, B, N) states of a (B, N) midpoint step on integrate's time grid."""
    n = max(1, math.ceil(t_end / dt - 1e-9))
    ps = np.empty((n + 1,) + np.shape(p0))
    qs = np.empty_like(ps)
    ps[0], qs[0] = p0, q0
    for i in range(1, n + 1):
        ps[i], qs[i], ok = step(flow, ps[i - 1], qs[i - 1], t_end / n, 1e-13, 100)
        assert ok
    return ps, qs


def _plane_step(flow, p, q, dt):
    """The first step of a production plane run from (p, q), expanded to vectors."""
    plane, failed = flow.midpoint((p @ p, p @ q, q @ q), dt, 1)
    assert failed is None
    (cpp, cpq), (cqp, cqq) = plane[1]
    return cpp * p + cpq * q, cqp * p + cqq * q


def _max_dev(traj, ps, qs):
    tps, tqs = traj.states(slice(None))
    return max(float(np.max(np.abs(tps - ps))), float(np.max(np.abs(tqs - qs))))


class TestRadialMidpoint:
    """The plane midpoint step of rotsym_flow against its defining equations."""

    @pytest.mark.parametrize("g0", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("dt", [1e-4, 0.5])
    def test_midpoint_residuals_at_roundoff(self, g0, dt):
        flow = rotsym_flow(8, 1.0, g0)
        p, q = _random_state(np.random.default_rng(3), (5, 8))
        plane = np.array([_plane_step(flow, p[b], q[b], dt) for b in range(5)])
        reference = _kappa_step(flow, p, q, dt, 1e-13, 100)
        dH_dp, dH_dq = flow_gradients(flow)
        for p1, q1 in ((plane[:, 0], plane[:, 1]), reference[:2]):
            pm, qm = 0.5 * (p + p1), 0.5 * (q + q1)
            kick, drift = dt * dH_dq(pm, qm), dt * dH_dp(pm, qm)
            res_p = np.max(np.abs(p1 - p + kick))
            res_q = np.max(np.abs(q1 - q - drift))
            assert res_p <= 1e-14 * (np.max(np.abs(p)) + np.max(np.abs(kick)))
            assert res_q <= 1e-14 * (np.max(np.abs(q)) + np.max(np.abs(drift)))

    def test_exact_solver_matches_fixed_point(self):
        rng = np.random.default_rng(5)
        amp = 0.5 / np.sqrt(6)
        p0, q0 = amp * rng.normal(size=6), amp * rng.normal(size=6)
        flow = rotsym_flow(6, 1.0, 1.0)
        exact = integrate(flow, (p0, q0), 1.0)
        ps, qs = _reference_run(flow, p0, q0, 1.0, _fixed_point_step)
        assert np.array_equal(exact.times, np.arange(10_001) / 10_000)
        assert _max_dev(exact, ps, qs) < 1e-12

    def test_linear_flow_drift(self):
        # g0 = 0: the midpoint rule conserves the quadratic H up to roundoff
        p, q = _random_state(np.random.default_rng(2), 32, 0.5 / np.sqrt(32))
        traj = integrate(rotsym_flow(32, 1.0, 0.0), (p, q), 2.0)
        assert traj.times.size > 20_000
        assert traj.drift <= 2e-15

    def test_time_grid_ends_on_t_end(self):
        p, q = _random_state(np.random.default_rng(6), 6, 0.2)
        traj = integrate(rotsym_flow(6, 1.0, 1.0), (p, q), 2.0, dt=1e-4)
        assert traj.times.size == 20_001
        assert traj.times[-1] == 2.0
        assert np.array_equal(traj.times, 2.0 * np.arange(20_001) / 20_000)

    @pytest.mark.parametrize("m0,g0", [(1.0, 1e200), (1e150, 1.0)])
    def test_overflowing_step_fails_the_solve(self, m0, g0):
        # (1 + k0 + A) ** 2 overflows in the first step's Newton start; it
        # used to escape as a bare OverflowError
        flow = rotsym_flow(6, m0, g0)
        assert flow.midpoint((0.25, 0.0, 0.25), 1e-4, 1) == (None, 1)
        p0, q0 = np.full(6, 0.2), np.full(6, 0.2)
        with pytest.raises(RuntimeError, match="solve failed at t = 0.0001"):
            integrate(flow, (p0, q0), 0.01)

    def test_initial_shape_mismatch(self):
        with pytest.raises(ValueError):
            integrate(rotsym_flow(3, 1.0, 1.0), (np.zeros((2, 3)), np.zeros(3)), 1.0)

    @pytest.mark.parametrize("shape", [(5,), (2, 5), (7,), (2, 6)])
    def test_initial_length_must_match_flow(self, shape):
        # a 5-vector under rotsym_flow(6, ...) used to run to "completed";
        # a run is one (N,) state, so a (B, N) batch is refused too
        with pytest.raises(ValueError, match="the flow has N = 6"):
            integrate(rotsym_flow(6, 1.0, 0.0), (np.zeros(shape), np.ones(shape)), 0.01)

    def test_vector_flow_needs_a_plane_step(self):
        # one check serves vector and scalar flows alike
        for flow, initial in ((rotsym_flow(3, 1.0, 1.0), (np.zeros(3), np.ones(3))),
                              (oscillator_flow(), (1.0, 0.0))):
            with pytest.raises(ValueError, match="has no midpoint step"):
                integrate(dataclasses.replace(flow, midpoint=None), initial, 1.0)


class TestFreeFieldRun:
    """rotsym's g0 = 0 plane run, M^k in closed form, against mpmath."""

    @staticmethod
    def _reference(m0, dt, n):
        # M^k = [[cos k theta, -m0 sin k theta], [sin k theta / m0, cos k theta]],
        # theta = 2 atan(m0 dt); 200 digits resolve pi - theta ~ 2e-146 at
        # m0 = 1e150 and keep sin k theta / m0 at m0 = 1e-320
        with mpmath.workdps(200):
            m = mpmath.mpf(m0)
            theta = 2 * mpmath.atan(m * mpmath.mpf(dt))
            out = np.empty((n + 1, 2, 2))
            for k in range(n + 1):
                c, s = mpmath.cos(k * theta), mpmath.sin(k * theta)
                out[k] = [[float(c), float(-m * s)], [float(s / m), float(c)]]
        return out

    @pytest.mark.parametrize("m0", [1e-320, 1e-200, 1e-8, 1.0, 1e4, 1e6, 1e9, 1e150])
    def test_matches_mpmath(self, m0):
        # fl(2 atan(u)) loses pi - theta as u grows: at m0 = 1e150 a form on
        # that one angle is off by 7e137 in the q0 column, whose peak is 4e7
        plane, failed = rotsym_flow(2, m0, 0.0).midpoint((1.0, 0.0, 1.0), 1e-4, 2000)
        assert failed is None
        ref = self._reference(m0, 1e-4, 2000)
        for col in (0, 1):
            scale = np.max(np.abs(ref[..., col])) or 1.0
            assert np.max(np.abs(plane[..., col] - ref[..., col])) <= 1e-12 * scale


class TestPlaneReduction:
    """Every midpoint iterate of an O(N)-invariant flow lies in span{p0, q0}."""

    @pytest.mark.parametrize("seed", range(4))
    def test_reference_iterates_stay_in_plane(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        flow = rotsym_flow(n, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 3.0)))
        p0, q0 = rng.normal(size=n), rng.normal(size=n)
        ps, qs = _reference_run(flow, p0, q0, 1.0, dt=0.01)
        basis = np.stack([p0, q0], axis=1)
        for x in (ps, qs):
            coef = np.linalg.lstsq(basis, x.T, rcond=None)[0]
            assert np.max(np.abs(basis @ coef - x.T)) <= 1e-13 * np.max(np.abs(x))

    @pytest.mark.parametrize("seed", range(4))
    def test_wedge_is_conserved(self, seed):
        # p (x) q - q (x) p, the quadratic invariant of the midpoint rule
        rng = np.random.default_rng(10 + seed)
        n = int(rng.integers(3, 12))
        flow = rotsym_flow(n, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 3.0)))
        ps, qs = _reference_run(flow, rng.normal(size=n), rng.normal(size=n), 1.0, dt=0.01)
        wedge = np.einsum("ti,tj->tij", ps, qs)
        wedge -= np.swapaxes(wedge, 1, 2)
        assert np.max(np.abs(wedge - wedge[0])) <= 1e-12 * np.max(np.abs(wedge[0]))

    @pytest.mark.parametrize("n", [6, 32])
    def test_plane_run_matches_reference(self, n):
        # acceptance 6 and the rotsym benchmark: base and shuffled runs at
        # g0 in {0, 1} to t = 2; at g0 = 0 the closed-form run against
        # 20,000 stepped Newton solves
        rng = np.random.default_rng(11)
        amp = 0.5 / np.sqrt(n)
        for g0 in (0.0, 1.0):
            p0, q0 = amp * rng.normal(size=n), amp * rng.normal(size=n)
            perm = rng.permutation(n)
            flow = rotsym_flow(n, 1.0, g0)
            for p, q in ((p0, q0), (p0[perm], q0[perm])):
                traj = integrate(flow, (p, q), 2.0)
                assert _max_dev(traj, *_reference_run(flow, p, q, 2.0)) <= 1e-12

    @pytest.mark.parametrize("plane", ["p0 = 0", "p0 || q0"])
    def test_degenerate_plane(self, plane):
        # a singular Gram matrix needs no special case: it is never inverted
        q0 = np.array([0.4, -0.3, 0.2, 0.1])
        p0 = np.zeros(4) if plane == "p0 = 0" else -0.7 * q0
        flow = rotsym_flow(4, 1.0, 2.0)
        traj = integrate(flow, (p0, q0), 1.0, dt=1e-3)
        assert _max_dev(traj, *_reference_run(flow, p0, q0, 1.0, dt=1e-3)) <= 1e-12


def _gram(p0, q0):
    """The plane's Gram matrix (p0.p0, p0.q0, q0.q0), as a vector run takes it."""
    basis = np.stack([p0, q0])
    g = basis @ basis.T
    return float(g[0, 0]), float(g[0, 1]), float(g[1, 1])


class TestNewtonPlaneRun:
    """rotsym's plane run at g0 > 0 against the reference loop, bit for bit."""

    @staticmethod
    def _same_run(m0, g0, gram, dt, n):
        plane, failed = rotsym_flow(1, m0, g0).midpoint(gram, dt, n)
        ref, ref_failed = reference_plane_run(m0, g0)(gram, dt, n)
        assert failed == ref_failed
        assert (plane is None) == (ref is None)
        if ref is not None:
            assert plane.tobytes() == ref.tobytes()
        return failed

    @pytest.mark.parametrize("n", [1, 6, 32, 64])
    def test_cli_starts(self, n):
        # the base and shuffled starts of `enhq rotsym --N n --seed s` to t = 2
        for seed in (0, 1, 7):
            rng = np.random.default_rng(seed)
            amp = 0.5 / np.sqrt(n)
            p0, q0 = amp * rng.normal(size=n), amp * rng.normal(size=n)
            perm = rng.permutation(n)
            for p, q in ((p0, q0), (p0[perm], q0[perm])):
                assert self._same_run(1.0, 1.0, _gram(p, q), 1e-4, 20_000) is None

    @pytest.mark.parametrize("dt", [1e-4, 1e-2])
    @pytest.mark.parametrize("g0", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("plane", ["p0 = 0", "p0 || q0"])
    def test_degenerate_planes(self, plane, g0, dt):
        q0 = np.array([0.4, -0.3, 0.2, 0.1])
        p0 = np.zeros(4) if plane == "p0 = 0" else -0.7 * q0
        assert self._same_run(1.3, g0, _gram(p0, q0), dt, 1000) is None

    @pytest.mark.parametrize("m0,g0", [(1e150, 1.0), (1.0, 1e200)])
    def test_overflowing_start_fails_the_first_step(self, m0, g0):
        # dt^2 m0^2 = 1e292, or A ~ 1e191: the start's square is inf
        rng = np.random.default_rng(0)
        gram = _gram(0.2 * rng.normal(size=6), 0.2 * rng.normal(size=6))
        assert self._same_run(m0, g0, gram, 1e-4, 100) == 1

    @settings(max_examples=60, **_SHARED_DRAWS)
    @given(m0=st.floats(1e-3, 1e3), g0=st.floats(1e-3, 1e3), dt=st.floats(1e-5, 0.5),
           amp=st.floats(1e-3, 10.0), n=st.integers(1, 400), seed=st.integers(0, 2**16))
    def test_sweep(self, m0, g0, dt, amp, n, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 65))
        self._same_run(m0, g0, _gram(amp * rng.normal(size=size), amp * rng.normal(size=size)),
                       dt, n)


class TestPlaneStorage:
    """A vector run stores its plane coefficients and expands states where read."""

    @staticmethod
    def _expanded(traj):
        # (T, N) states p = c0 p0 + c1 q0, q = c2 p0 + c3 q0, each product rounded
        c, (b0, b1) = traj.coefs, traj.basis
        return (c[:, 0, 0, None] * b0 + c[:, 0, 1, None] * b1,
                c[:, 1, 0, None] * b0 + c[:, 1, 1, None] * b1)

    @pytest.mark.parametrize("case", ["single", "p0 = 0", "p0 || q0"])
    def test_states_equal_full_expansion(self, case):
        rng = np.random.default_rng(12)
        q0 = rng.normal(size=5)
        p0 = {"single": rng.normal(size=5), "p0 = 0": np.zeros(5), "p0 || q0": -0.7 * q0}[case]
        flow = rotsym_flow(5, 1.0, 2.0)
        traj = integrate(flow, (p0, q0), 0.5, dt=1e-3)
        ps, qs = self._expanded(traj)
        assert traj.coefs.shape == (501, 2, 2) and traj.basis.shape == (2, 5)
        for k in (slice(None), slice(None, None, 7), slice(3, 300, 100), 0, 17, -1):
            p, q = traj.states(k)
            assert np.array_equal(p, ps[k]) and np.array_equal(q, qs[k])
        assert traj.ps is None and traj.qs is None
        ref = flow.hamiltonian(ps, qs)
        assert np.max(np.abs(traj.energies - ref) / np.abs(ref)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 3, 6, 32, 64])
    @pytest.mark.parametrize("g0", [0.0, 1.0, 100.0])
    def test_plane_energies_match_expanded_states(self, n, g0):
        # H on the 2-D image of the plane against H on the N-vectors
        p, q = _random_state(np.random.default_rng(n), n, 0.5 / np.sqrt(n))
        flow = rotsym_flow(n, 1.0, g0)
        traj = integrate(flow, (p, q), 0.5, dt=1e-3)
        ref = flow.hamiltonian(*traj.states(slice(None)))
        assert np.max(np.abs(traj.energies - ref) / np.abs(ref)) <= 1e-14


class TestToyGravityMidpoint:
    """The exact midpoint steps of toy_gravity_flow (and of the oscillator),
    which the flows' runs take, against their defining equations, on the
    reference steps and loop; the enhanced flow's barrier is c = C'(2, 1) at
    hbar = 1."""

    @pytest.mark.parametrize("flow", [
        toy_gravity_flow(hbar=0.0), toy_gravity_flow(hbar=1.0, beta=2.0), oscillator_flow(),
    ], ids=["classical", "enhanced", "oscillator"])
    @pytest.mark.parametrize("dt", [5e-5, 1e-4, 0.1])
    def test_midpoint_residuals_at_roundoff(self, flow, dt):
        rng = np.random.default_rng(8)
        dH_dp, dH_dq = flow_gradients(flow)
        step = reference_step(flow)
        for p, q in zip(rng.uniform(-2.0, 2.0, 200), rng.uniform(0.5, 2.0, 200)):
            p1, q1, ok = step(float(p), float(q), dt)
            assert ok
            pm, qm = 0.5 * (p + p1), 0.5 * (q + q1)
            kick, drift = dt * dH_dq(pm, qm), dt * dH_dp(pm, qm)
            assert abs(p1 - p + kick) <= 1e-15 * (abs(p) + abs(p1) + abs(kick))
            assert abs(q1 - q - drift) <= 1e-15 * (abs(q) + abs(q1) + abs(drift))

    @pytest.mark.parametrize("flow,initial,t_end,dt", [
        (toy_gravity_flow(hbar=0.0), (-1.0, 1.0), 0.9, 1e-4),
        (toy_gravity_flow(hbar=1.0, beta=2.0), (-1.5, 1.0), 4.0, 5e-5),
    ], ids=["classical", "enhanced"])
    def test_exact_solver_matches_fixed_point(self, monkeypatch, flow, initial, t_end, dt):
        exact = integrate(flow, initial, t_end, dt=dt)

        def fixed_point(p, q, h):
            return _fixed_point_step(flow, p, q, h, 1e-13, 100)

        fixed = _stepped(monkeypatch, flow, initial, t_end, dt=dt, run=reference_run,
                         step=fixed_point)
        assert exact.status == fixed.status == "completed"
        assert exact.times.size == fixed.times.size
        for a, b in ((exact.ps, fixed.ps), (exact.qs, fixed.qs), (exact.times, fixed.times)):
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))

    @pytest.mark.parametrize("flow,p,q,dt", [
        (toy_gravity_flow(hbar=0.0), -10.0, 1.0, 0.1),  # 1 + 2 dt p < 0
        (toy_gravity_flow(hbar=1.0, beta=2.0), 20.0, 0.01, 0.1),
    ], ids=["classical", "enhanced"])
    def test_no_real_root_fails_the_step(self, flow, p, q, dt):
        assert reference_step(flow)(p, q, dt) == (p, q, False)

    def test_failed_step_is_the_singularity(self):
        # the throttle's 1e-12 step floor leaves 1 + 2 dt p = -1 at p = -1e12
        flow = toy_gravity_flow(hbar=0.0)
        assert not reference_step(flow)(-1e12, 1.0, 1e-12)[2]
        traj = integrate(flow, (-1e12, 1.0), 1.0)
        assert traj.status == "singularity"
        assert traj.hit_time == 1e-12
        assert traj.times.size == 1

    @pytest.mark.parametrize("flow,initial,t_end", [
        (toy_gravity_flow(hbar=0.0), (-1.0, 1.0), 0.5),
        (toy_gravity_flow(hbar=1.0, beta=2.0), (-1.5, 1.0), 2.0),
        (oscillator_flow(), (1.0, 0.0), 1.0),
    ], ids=["classical", "enhanced", "oscillator"])
    def test_energies_equal_per_step_evaluation(self, flow, initial, t_end):
        traj = integrate(flow, initial, t_end)
        per_step = [flow.hamiltonian(p, q) for p, q in zip(traj.ps.tolist(), traj.qs.tolist())]
        assert traj.energies.tolist() == per_step


def _stepped(monkeypatch, *args, run=integrate, **kwargs):
    """run(*args, **kwargs), integrate by default, with every step taken by
    the stepping loop: the closed-form stretch returns its input state, as
    it does when the throttle does not bind."""
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_self_similar_run", lambda p, q, t, *_: (p, q, t))
        return run(*args, **kwargs)


def _assert_same_run(fast, loop, rtol=1e-9):
    assert fast.status == loop.status
    assert fast.times.size == loop.times.size
    for a, b in ((fast.times, loop.times), (fast.ps, loop.ps), (fast.qs, loop.qs)):
        assert np.all(np.abs(a - b) <= rtol * np.abs(b))
    if loop.hit_time is None:
        assert fast.hit_time is None
    else:
        assert abs(fast.hit_time - loop.hit_time) <= rtol * loop.hit_time


class TestSelfSimilarTail:
    """The classical flow's throttled stretch in closed form against the
    stepping loop: same stored steps, status and hit step, values within
    1e-9 relative."""

    @pytest.mark.parametrize("p0", [-1.0, -1.5, -2.0])
    def test_acceptance_hits_match_loop(self, monkeypatch, p0):
        flow = toy_gravity_flow(hbar=0.0)
        fast = integrate(flow, (p0, 1.0), 3.0)
        assert fast.status == "singularity"
        _assert_same_run(fast, _stepped(monkeypatch, flow, (p0, 1.0), 3.0))

    def test_seeded_hits_match_loop(self, monkeypatch):
        # a higher floor keeps the stepped runs short; -0.2 starts unthrottled
        monkeypatch.setattr(dynamics, "Q_FLOOR", 1e-3)
        flow = toy_gravity_flow(hbar=0.0)
        p0s = [-0.2] + list(np.random.default_rng(21).uniform(-2.5, -0.2, 6))
        for p0 in p0s:
            fast = integrate(flow, (p0, 1.0), 6.0)
            assert fast.status == "singularity" and fast.qs[-1] > 1e-3
            _assert_same_run(fast, _stepped(monkeypatch, flow, (p0, 1.0), 6.0))

    def test_landing_before_the_floor(self, monkeypatch):
        flow = toy_gravity_flow(hbar=0.0)
        fast = integrate(flow, (-1.0, 1.0), 0.9)
        assert fast.status == "completed" and fast.times[-1] == 0.9
        _assert_same_run(fast, _stepped(monkeypatch, flow, (-1.0, 1.0), 0.9))

    def test_step_clamp_left_to_the_loop(self, monkeypatch):
        # |p| passes 2.5e7, where the 1e-12 step clamp binds, and the clamped
        # steps end in a step without a midpoint solution
        flow = toy_gravity_flow(hbar=0.0)
        fast = integrate(flow, (-2e7, 1.0), 1.0)
        assert fast.status == "singularity" and fast.qs[-1] > Q_FLOOR
        _assert_same_run(fast, _stepped(monkeypatch, flow, (-2e7, 1.0), 1.0))

    @pytest.mark.parametrize("p0,stepped", [(-1.0, 100), (-0.2, 10_100)])
    def test_throttled_stretch_is_not_stepped(self, monkeypatch, p0, stepped):
        # p0 = -0.2 steps unthrottled (dt = 1e-4) until t = 1.004, where |p|
        # passes 0.25; then the closed form takes over
        # the stepped steps are the run's steps less the closed form's, and
        # one more midpoint solve ends the run without a stored step
        closed = []
        real = dynamics._self_similar_run

        def spy(*args):
            before = args[-1].taken
            out = real(*args)
            closed.append(args[-1].taken - before)
            return out

        monkeypatch.setattr(dynamics, "_self_similar_run", spy)
        traj = integrate(toy_gravity_flow(hbar=0.0), (p0, 1.0), 6.0)
        assert traj.status == "singularity" and traj.times.size > 550_000
        assert len(closed) == 1 and traj.steps == traj.times.size - 1
        assert traj.steps - closed[0] + 1 < stepped

    def test_only_the_classical_flow_is_self_similar(self):
        # the barrier c of H = q p^2 + c / q; only c = 0 takes the closed form
        assert toy_gravity_flow(hbar=0.0).barrier == 0.0
        assert toy_gravity_flow(hbar=1.0).barrier == pytest.approx(cprime_closed_form(1.0, 1.0),
                                                                   rel=1e-12)
        assert oscillator_flow().barrier is None
        assert rotsym_flow(3, 1.0, 1.0).barrier is None


# (hbar, p0, t_end) of scalar toy-gravity runs: classical runs that hit the
# floor (through the closed-form stretch) or stop short of it, and enhanced
# bounces; t_end lands anywhere in a chunk
_toy_runs = st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(-2.0, -1.0),
                      st.floats(0.4, 3.0))


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def _assert_identical(run, ref):
    for name in ("times", "ps", "qs", "energies", "drift", "min_q", "end", "hit_time"):
        assert _bits(getattr(run, name)) == _bits(getattr(ref, name)), name
    assert (run.status, run.steps) == (ref.status, ref.steps)


# (hbar, beta, p0, t_end, dt) of toy-gravity runs from q0 = 1
_REFERENCE_RUNS = {
    # the toygravity benchmark's bounces at seed 1
    "bounce-0.599": (0.598618, 2.0, -1.899472, 4.0, 5e-5),
    "bounce-1.47": (1.472647, 2.0, -1.653887, 4.0, 5e-5),
    "bounce-1.64": (1.640964, 2.0, -1.117967, 4.0, 5e-5),
    # classical hits through the closed-form stretch; the first starts
    # unthrottled
    "hit-0.2": (0.0, 1.0, -0.2, 6.0, 1e-4),
    "hit-1.07": (0.0, 1.0, -1.070266, 3.0, 1e-4),
    "landing-0.9": (0.0, 1.0, -1.0, 0.9, 1e-4),
    "clamp": (0.0, 1.0, -2e7, 1.0, 1e-4),
    "failed-first-step": (0.0, 1.0, -1e12, 1.0, 1e-4),
    "small-c/E": (0.02, 1.0, -30.0, 0.1, 1e-4),
}


class TestRunMatchesReference:
    """Toy gravity's run against the reference stepping loop, one reference
    step per call, bit for bit."""

    @pytest.mark.parametrize("case", list(_REFERENCE_RUNS))
    def test_run_is_the_stepped_loop(self, case):
        hbar, beta, p0, t_end, dt = _REFERENCE_RUNS[case]
        flow = toy_gravity_flow(hbar=hbar, beta=beta)
        _assert_identical(integrate(flow, (p0, 1.0), t_end, dt=dt),
                          reference_run(flow, (p0, 1.0), t_end, dt))

    @pytest.mark.parametrize("stride", [7, 100, CHUNK - 1, CHUNK + 1])
    @pytest.mark.parametrize("hbar,p0,t_end", [(1.0, -1.5, 4.0), (0.0, -1.0, 0.9),
                                               (0.0, -1.5, 3.0)])
    def test_strided_run_is_the_strided_loop(self, stride, hbar, p0, t_end):
        flow = toy_gravity_flow(hbar=hbar, beta=2.0)
        dt = 5e-4 if hbar else 1e-4
        _assert_identical(integrate(flow, (p0, 1.0), t_end, dt=dt, stride=stride),
                          reference_run(flow, (p0, 1.0), t_end, dt, stride))

    @settings(max_examples=8, **_SHARED_DRAWS)
    @given(run=st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(-2.0, -1.0),
                         st.floats(0.4, 3.0), st.sampled_from([1, 7, CHUNK + 1])))
    def test_swept_runs_are_the_stepped_loop(self, run):
        hbar, p0, t_end, stride = run
        flow = toy_gravity_flow(hbar=hbar, beta=2.0)
        dt = 1e-4 if hbar == 0.0 else 5e-4
        _assert_identical(integrate(flow, (p0, 1.0), t_end, dt=dt, stride=stride),
                          reference_run(flow, (p0, 1.0), t_end, dt, stride))


class TestStride:
    """A scalar run at stride s keeps the stride-1 run's steps 0, s, 2s, ...
    bit for bit, and folds the same drift, min q, status, hit time and last
    step over every step."""

    @settings(max_examples=8, **_SHARED_DRAWS)
    @given(run=_toy_runs)
    def test_strided_run_is_the_sliced_run(self, run):
        hbar, p0, t_end = run
        flow = toy_gravity_flow(hbar=hbar, beta=2.0)
        dt = 1e-4 if hbar == 0.0 else 5e-4
        full = integrate(flow, (p0, 1.0), t_end, dt=dt)
        for stride in (1, 7, 100, CHUNK - 1, CHUNK + 1, full.steps, full.times.size):
            traj = integrate(flow, (p0, 1.0), t_end, dt=dt, stride=stride)
            if stride == full.steps:
                # step 0 and the landing step, or the last step before a hit
                assert traj.times.size == 2 and traj.times[-1] == full.end[0]
            for name in ("times", "ps", "qs", "energies", "drifts"):
                kept = getattr(traj, name)
                assert kept.tobytes() == getattr(full, name)[::stride].tobytes(), name
            assert (traj.drift, traj.min_q, traj.status, traj.hit_time, traj.end, traj.steps) == (
                full.drift, full.min_q, full.status, full.hit_time, full.end, full.steps)

    @pytest.mark.parametrize("flow,initial,t_end", [
        (toy_gravity_flow(hbar=0.5, beta=2.0), (-1.0, 1.0), 4.0),
        (toy_gravity_flow(hbar=0.0), (-1.5, 1.0), 3.0),
        (oscillator_flow(), (1.0, 0.0), 2.0),
        (rotsym_flow(3, 1.0, 1.0), (np.full(3, 0.1), np.full(3, 0.2)), 0.5),
    ], ids=["bounce", "hit", "oscillator", "rotsym"])
    def test_steps_count_every_step(self, flow, initial, t_end):
        # a classical hit takes most of its steps in closed form
        full = integrate(flow, initial, t_end)
        assert full.steps == full.times.size - 1 > 0
        if not flow.vector:
            assert integrate(flow, initial, t_end, stride=100).steps == full.steps

    def test_folds_reach_past_the_kept_rows(self):
        # the classical hit's lowest q and largest drift lie at steps that a
        # stride of 100 does not keep
        flow = toy_gravity_flow(hbar=0.0)
        full = integrate(flow, (-1.5, 1.0), 3.0)
        traj = integrate(flow, (-1.5, 1.0), 3.0, stride=100)
        assert traj.min_q == full.min_q < traj.qs.min()
        assert traj.drift == full.drift > traj.drifts.max()
        assert traj.end == (full.times[-1], full.ps[-1], full.qs[-1])

    def test_bounce_folds_reach_past_the_kept_rows(self):
        # the bounce's lowest q and largest drift lie at steps that a stride
        # of 100 does not keep; the run folds them as the reference does
        flow = toy_gravity_flow(hbar=0.5, beta=2.0)
        full = integrate(flow, (-1.0, 1.0), 4.0)
        traj = integrate(flow, (-1.0, 1.0), 4.0, stride=100)
        assert np.argmin(full.qs) % 100 and np.argmax(full.drifts) % 100
        assert traj.min_q == full.min_q < traj.qs.min()
        assert traj.drift == full.drift > traj.drifts.max()
        _assert_identical(traj, reference_run(flow, (-1.0, 1.0), 4.0, stride=100))

    def test_step_cap_trips_mid_bulk(self, monkeypatch):
        # the cap is checked once a bulk: this bounce takes 91,927 steps for a
        # nominal 80,000, and past 85,000 stepped steps the bulk that ends at
        # step 21 CHUNK - 1 = 86,015 fails the run, naming the time of that
        # last folded step
        flow = toy_gravity_flow(hbar=1.0, beta=2.0)
        full = integrate(flow, (-1.5, 1.0), 4.0, dt=5e-5)
        monkeypatch.setattr(dynamics, "MAX_STEPS", 85_000)
        assert full.steps == 91_927 and (85_000 + 1) % CHUNK
        messages = []
        for run in (integrate, reference_run):
            with pytest.raises(RuntimeError, match="run took more than MAX_STEPS = 85000") as err:
                run(flow, (-1.5, 1.0), 4.0, dt=5e-5, stride=100)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith(f"by t = {full.times[21 * CHUNK - 1]}")

    def test_kept_landing_step_carries_t_end(self):
        # this bounce's compensated time sum puts its landing step at
        # t_end + 5.6e-17; the step lands on t_end itself, kept or not
        flow = toy_gravity_flow(hbar=0.5, beta=2.0)
        full = integrate(flow, (-2.0, 1.0), 0.45, dt=5e-4)
        for stride in (1, 7, full.steps):
            traj = integrate(flow, (-2.0, 1.0), 0.45, dt=5e-4, stride=stride)
            assert traj.end[0] == 0.45 and (traj.times[-1] == 0.45) == (full.steps % stride == 0)
            _assert_identical(traj, reference_run(flow, (-2.0, 1.0), 0.45, 5e-4, stride))

    def test_failed_step_ends_at_the_last_good_step(self):
        # the clamped hit ends in a step without a midpoint solution; at
        # stride 7 its last good step is not kept, and the run still ends there
        flow = toy_gravity_flow(hbar=0.0)
        full = integrate(flow, (-2e7, 1.0), 1.0)
        traj = integrate(flow, (-2e7, 1.0), 1.0, stride=7)
        assert traj.status == "singularity" and full.steps % 7
        assert traj.end == full.end == (full.times[-1], full.ps[-1], full.qs[-1])
        assert traj.times[-1] < traj.end[0] < traj.hit_time
        _assert_identical(traj, reference_run(flow, (-2e7, 1.0), 1.0, stride=7))

    @pytest.mark.parametrize("stride", [2**63, 2**64 + 3])
    def test_stride_past_a_c_long(self, stride):
        # no C long holds these strides; the run keeps step 0 alone
        flow = toy_gravity_flow(1.0, 2.0)
        traj = integrate(flow, (-1.5, 1.0), 0.01, dt=5e-5, stride=stride)
        assert traj.times.size == 1 and traj.steps > 200
        _assert_identical(traj, reference_run(flow, (-1.5, 1.0), 0.01, 5e-5, stride))


class TestFoldedValues:
    """A run hands over its drift and last step; at stride 1 they equal
    the values read off its stored steps, bit for bit."""

    @pytest.mark.parametrize("run", ["oscillator", "bounce", "rotsym"])
    def test_folds_match_stored_steps(self, run):
        if run == "oscillator":
            flow, initial = oscillator_flow(), (1.0, 0.0)
        elif run == "bounce":
            flow, initial = toy_gravity_flow(hbar=0.5, beta=2.0), (-1.0, 1.0)
        else:
            flow, initial = rotsym_flow(6, 1.0, 1.0), _random_state(np.random.default_rng(3), 6, 0.2)
        traj = integrate(flow, initial, 2.0)
        drift, (t, p, q), min_q = traj.drift, traj.end, traj.min_q
        if flow.vector:
            # the run holds no (T, N) state array
            assert traj.ps is None and traj.qs is None
            assert min_q is None
        else:
            assert min_q == float(np.min(traj.qs))
        assert drift == float(np.max(traj.drifts))
        p_end, q_end = traj.states(-1)
        assert t == traj.times[-1] and np.array_equal(p, p_end) and np.array_equal(q, q_end)


# The classes above step on the compiled kernels wherever they can be built
# (tests/test_kernels.py checks that they are built here).  Their checks of
# the stepping loops run again below on dynamics' Python loops, the
# fallback, so both paths must equal the references bit for bit.


@pytest.mark.usefixtures("python_loops")
class TestRunMatchesReferenceOnPythonLoops(TestRunMatchesReference):
    pass


@pytest.mark.usefixtures("python_loops")
class TestStrideOnPythonLoops(TestStride):
    pass


@pytest.mark.usefixtures("python_loops")
class TestSelfSimilarTailOnPythonLoops(TestSelfSimilarTail):
    pass


@pytest.mark.usefixtures("python_loops")
class TestToyGravityMidpointOnPythonLoops(TestToyGravityMidpoint):
    pass


@pytest.mark.usefixtures("python_loops")
class TestNewtonPlaneRunOnPythonLoops(TestNewtonPlaneRun):
    pass


@pytest.mark.usefixtures("python_loops")
class TestFailuresOnPythonLoops:
    test_cap_on_the_steps_a_run_takes = TestStepCap.test_cap_on_the_steps_a_run_takes
    test_enhanced_failed_step_raises = TestToyGravity.test_enhanced_failed_step_raises
    test_overflowing_step_fails_the_solve = TestRadialMidpoint.test_overflowing_step_fails_the_solve
