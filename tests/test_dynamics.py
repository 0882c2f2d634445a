"""Integrator and flow checks against closed-form solutions."""

import dataclasses
import math

import numpy as np
import pytest

from enhq import dynamics
from enhq.dynamics import (
    Q_FLOOR,
    IntegratorControls,
    Trajectory,
    classical_toy_solution,
    integrate,
    oscillator_flow,
    rotsym_flow,
    rotsym_integrate,
    toy_gravity_flow,
)
from enhq.wcp import cprime_closed_form


class TestClosedForm:
    def test_initial_point(self):
        assert classical_toy_solution(-1.0, 1.0, 0.0) == (-1.0, 1.0)

    def test_half_way(self):
        p, q = classical_toy_solution(-1.0, 1.0, 0.5)
        assert (p, q) == pytest.approx((-2.0, 0.25))

    def test_energy_constant(self):
        t = np.linspace(0.0, 0.9, 50)
        p, q = classical_toy_solution(-1.0, 1.0, t)
        assert np.max(np.abs(q * p * p - 1.0)) < 1e-12

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            classical_toy_solution(-1.0, 1.0, 1.0)

    def test_sampled_solution_has_no_drift(self):
        flow = toy_gravity_flow(hbar=0.0)
        t = np.linspace(0.0, 0.9, 200)
        p, q = classical_toy_solution(-1.0, 1.0, t)
        traj = Trajectory(
            times=t, ps=p, qs=q, energies=flow.hamiltonian(p, q),
            status="completed", hit_time=None, method="closed-form", dt=0.0,
        )
        assert traj.drift < 1e-12

    def test_drifts_per_step(self):
        # per-step |H - H0| / |H0|, absolute where H0 = 0; the max of the
        # quotients is the max deviation over |H0| bit for bit
        for h0 in (1.0, 0.0):
            e = h0 + np.array([0.0, 3e-9, -7e-9, 1e-12])
            traj = Trajectory(times=np.arange(4.0), ps=e, qs=e, energies=e, status="completed",
                              hit_time=None, method="test", dt=1.0)
            ref = [abs(x - e[0]) / abs(e[0]) if e[0] else abs(x - e[0]) for x in e]
            assert traj.drifts.tolist() == ref
            assert traj.drift == (max(abs(x - e[0]) for x in e) / (abs(e[0]) or 1.0))


class TestControls:
    @pytest.mark.parametrize("bad", [
        {"dt": 0.0}, {"dt": -1.0}, {"dt": float("nan")}, {"dt": float("inf")},
    ])
    def test_bad_controls_rejected(self, bad):
        with pytest.raises(ValueError):
            IntegratorControls(**bad)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf"), 0.0])
    def test_bad_horizon_rejected(self, t_end):
        with pytest.raises(ValueError):
            integrate(oscillator_flow(), (1.0, 0.0), t_end)


class TestOscillator:
    def test_period_return(self):
        flow = oscillator_flow()
        traj = integrate(flow, (1.0, 0.0), 2.0 * np.pi)
        assert abs(traj.ps[-1] - 1.0) < 1e-6
        assert abs(traj.qs[-1]) < 1e-6

    def test_long_run_drift(self):
        flow = oscillator_flow()
        traj = integrate(flow, (1.0, 0.0), 100.0, IntegratorControls(dt=1e-3))
        assert traj.drift < 1e-8

    def test_coarse_run_drifts_more(self):
        # the exact midpoint step keeps H to roundoff at any dt, so the
        # coarse run drifts in phase: O(dt^2) against (cos t, sin t)
        flow = oscillator_flow()

        def phase_error(dt):
            traj = integrate(flow, (1.0, 0.0), 10.0, IntegratorControls(dt=dt))
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

    def test_rk_cross_check(self):
        flow = oscillator_flow()
        traj = integrate(flow, (1.0, 0.0), 5.0,
                         IntegratorControls(dt=1e-3, cross_check=True))
        assert traj.meta["cross_check_error"] < 1e-5


class TestToyGravity:
    def test_classical_singularity_hit(self):
        traj = integrate(toy_gravity_flow(hbar=0.0), (-1.0, 1.0), 2.0)
        assert traj.status == "singularity"
        assert abs(traj.hit_time - 1.0) < 1e-4
        assert traj.drift < 1e-8

    def test_classical_tracks_closed_form(self):
        flow = toy_gravity_flow(hbar=0.0)
        traj = integrate(flow, (-1.0, 1.0), 0.9)
        p_ref, q_ref = classical_toy_solution(-1.0, 1.0, traj.times)
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
                traj = integrate(flow, (p0, 1.0), 4.0, IntegratorControls(dt=5e-5))
                assert traj.status == "completed"
                assert abs(traj.min_q * energy - c) < 1e-6
                assert traj.drift < 1e-8

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
            traj = integrate(flow, (0.5, 1.0), t_end, IntegratorControls(dt=dt))
            p_ref, q_ref = classical_toy_solution(0.5, 1.0, traj.times)
            return max(np.max(np.abs(traj.ps - p_ref)), np.max(np.abs(traj.qs - q_ref)))

        e1 = max_error(2e-3)
        e2 = max_error(1e-3)
        assert e1 / e2 == pytest.approx(4.0, abs=0.3)


class TestRotsym:
    def test_bounds_and_validation(self):
        with pytest.raises(ValueError):
            rotsym_flow(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            rotsym_flow(65, 1.0, 0.0)
        with pytest.raises(ValueError):
            rotsym_flow(6, -1.0, 0.0)
        with pytest.raises(ValueError):
            rotsym_integrate(6, 1.0, 0.0, np.zeros(5), np.zeros(6), 1.0)

    def test_decoupled_frequency(self):
        # the Hamiltonian carries no 1/2 factors: qdot = 2p, so omega = 2 m0
        m0 = 1.3
        n = 3
        q0 = np.array([1.0, -0.5, 0.2])
        traj = rotsym_integrate(n, m0, 0.0, np.zeros(n), q0, 2.0)
        ref = q0[None, :] * np.cos(2.0 * m0 * traj.times)[:, None]
        assert np.max(np.abs(traj.qs - ref)) < 1e-6

    @pytest.mark.parametrize("n,g0", [(6, 0.0), (6, 1.0), (32, 0.0), (32, 1.0)])
    def test_shuffle_equivariance(self, n, g0):
        rng = np.random.default_rng(7)
        amp = 0.5 / np.sqrt(n)
        p0 = amp * rng.normal(size=n)
        q0 = amp * rng.normal(size=n)
        perm = rng.permutation(n)
        base = rotsym_integrate(n, 1.0, g0, p0, q0, 2.0)
        shuffled = rotsym_integrate(n, 1.0, g0, p0[perm], q0[perm], 2.0)
        dev = max(
            float(np.max(np.abs(base.ps[:, perm] - shuffled.ps))),
            float(np.max(np.abs(base.qs[:, perm] - shuffled.qs))),
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
        a = rotsym_integrate(n, 1.0, 1.0, lo_p, lo_q, 1.0)
        b = rotsym_integrate(n, 1.0, 1.0, hi_p, hi_q, 1.0)
        assert np.max(np.abs(a.qs[:, :3] - b.qs[:, 3:])) < 1e-9
        assert np.max(np.abs(a.ps[:, :3] - b.ps[:, 3:])) < 1e-9


def _random_batch(rng, b, n, amp=1.0):
    return amp * rng.normal(size=(b, n)), amp * rng.normal(size=(b, n))


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
    fp, fq = flow.dH_dp, flow.dH_dq
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
    """One production plane step from (p, q), expanded to vectors."""
    c, ok = flow.midpoint((1.0, 0.0, 0.0, 1.0), (p @ p, p @ q, q @ q), dt)
    assert ok
    return c[0] * p + c[1] * q, c[2] * p + c[3] * q


def _max_dev(traj, ps, qs):
    return max(float(np.max(np.abs(traj.ps - ps))), float(np.max(np.abs(traj.qs - qs))))


class TestRadialMidpoint:
    """The plane midpoint step of rotsym_flow against its defining equations."""

    @pytest.mark.parametrize("g0", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("dt", [1e-4, 0.5])
    def test_midpoint_residuals_at_roundoff(self, g0, dt):
        flow = rotsym_flow(8, 1.0, g0)
        p, q = _random_batch(np.random.default_rng(3), 5, 8)
        plane = np.array([_plane_step(flow, p[b], q[b], dt) for b in range(5)])
        reference = _kappa_step(flow, p, q, dt, 1e-13, 100)
        for p1, q1 in ((plane[:, 0], plane[:, 1]), reference[:2]):
            pm, qm = 0.5 * (p + p1), 0.5 * (q + q1)
            kick, drift = dt * flow.dH_dq(pm, qm), dt * flow.dH_dp(pm, qm)
            res_p = np.max(np.abs(p1 - p + kick))
            res_q = np.max(np.abs(q1 - q - drift))
            assert res_p <= 1e-14 * (np.max(np.abs(p)) + np.max(np.abs(kick)))
            assert res_q <= 1e-14 * (np.max(np.abs(q)) + np.max(np.abs(drift)))

    def test_batch_rows_equal_single_runs(self):
        # rows of different amplitude need different Newton iteration counts
        # at this step size; each row must still match its own run bit for bit
        flow = rotsym_flow(6, 1.0, 1.0)
        p, q = _random_batch(np.random.default_rng(11), 3, 6)
        amp = np.array([[0.01], [0.3], [3.0]])
        p, q = amp * p, amp * q
        controls = IntegratorControls(dt=0.05)
        batch = integrate(flow, (p, q), 1.0, controls)
        assert batch.ps.shape == (batch.times.size, 3, 6)
        assert batch.energies.shape == (batch.times.size, 3)
        singles = [integrate(flow, (p[b], q[b]), 1.0, controls) for b in range(3)]
        for b, single in enumerate(singles):
            assert np.array_equal(batch.ps[:, b], single.ps)
            assert np.array_equal(batch.qs[:, b], single.qs)
            assert np.array_equal(batch.energies[:, b], single.energies)
        assert batch.drift == max(s.drift for s in singles)
        assert batch.row(1).drift == singles[1].drift

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
        p, q = _random_batch(np.random.default_rng(2), 2, 32, 0.5 / np.sqrt(32))
        traj = integrate(rotsym_flow(32, 1.0, 0.0), (p, q), 2.0)
        assert traj.times.size > 20_000
        assert traj.drift <= 1e-12

    def test_batched_cross_check(self):
        p, q = _random_batch(np.random.default_rng(4), 2, 3, 0.3)
        traj = integrate(rotsym_flow(3, 1.0, 1.0), (p, q), 0.5,
                         IntegratorControls(dt=1e-3, cross_check=True))
        assert traj.meta["cross_check_error"] < 1e-5

    def test_time_grid_ends_on_t_end(self):
        p, q = _random_batch(np.random.default_rng(6), 2, 6, 0.2)
        traj = integrate(rotsym_flow(6, 1.0, 1.0), (p, q), 2.0, IntegratorControls(dt=1e-4))
        assert traj.times.size == 20_001
        assert traj.times[-1] == 2.0
        assert np.array_equal(traj.times, 2.0 * np.arange(20_001) / 20_000)

    def test_initial_shape_mismatch(self):
        with pytest.raises(ValueError):
            integrate(rotsym_flow(3, 1.0, 1.0), (np.zeros((2, 3)), np.zeros(3)), 1.0)

    def test_vector_flow_needs_a_plane_step(self):
        # one check serves vector and scalar flows alike
        for flow, initial in ((rotsym_flow(3, 1.0, 1.0), (np.zeros(3), np.ones(3))),
                              (oscillator_flow(), (1.0, 0.0))):
            with pytest.raises(ValueError, match="has no midpoint step"):
                integrate(dataclasses.replace(flow, midpoint=None), initial, 1.0)


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
        # acceptance 6 and the rotsym benchmark: base and shuffled rows at
        # g0 in {0, 1} to t = 2
        rng = np.random.default_rng(11)
        amp = 0.5 / np.sqrt(n)
        for g0 in (0.0, 1.0):
            p0, q0 = amp * rng.normal(size=n), amp * rng.normal(size=n)
            perm = rng.permutation(n)
            p0, q0 = np.stack([p0, p0[perm]]), np.stack([q0, q0[perm]])
            flow = rotsym_flow(n, 1.0, g0)
            traj = integrate(flow, (p0, q0), 2.0)
            assert _max_dev(traj, *_reference_run(flow, p0, q0, 2.0)) <= 1e-12

    @pytest.mark.parametrize("plane", ["p0 = 0", "p0 || q0"])
    def test_degenerate_plane(self, plane):
        # a singular Gram matrix needs no special case: it is never inverted
        q0 = np.array([0.4, -0.3, 0.2, 0.1])
        p0 = np.zeros(4) if plane == "p0 = 0" else -0.7 * q0
        flow = rotsym_flow(4, 1.0, 2.0)
        traj = integrate(flow, (p0, q0), 1.0, IntegratorControls(dt=1e-3))
        assert _max_dev(traj, *_reference_run(flow, p0, q0, 1.0, dt=1e-3)) <= 1e-12


class TestToyGravityMidpoint:
    """The exact midpoint steps of toy_gravity_flow (and of the oscillator)
    against their defining equations; the enhanced flow's barrier is
    c = C'(2, 1) at hbar = 1."""

    @pytest.mark.parametrize("flow", [
        toy_gravity_flow(hbar=0.0), toy_gravity_flow(hbar=1.0, beta=2.0), oscillator_flow(),
    ], ids=["classical", "enhanced", "oscillator"])
    @pytest.mark.parametrize("dt", [5e-5, 1e-4, 0.1])
    def test_midpoint_residuals_at_roundoff(self, flow, dt):
        rng = np.random.default_rng(8)
        for p, q in zip(rng.uniform(-2.0, 2.0, 200), rng.uniform(0.5, 2.0, 200)):
            p1, q1, ok = flow.midpoint(float(p), float(q), dt)
            assert ok
            pm, qm = 0.5 * (p + p1), 0.5 * (q + q1)
            kick, drift = dt * flow.dH_dq(pm, qm), dt * flow.dH_dp(pm, qm)
            assert abs(p1 - p + kick) <= 1e-15 * (abs(p) + abs(p1) + abs(kick))
            assert abs(q1 - q - drift) <= 1e-15 * (abs(q) + abs(q1) + abs(drift))

    @pytest.mark.parametrize("flow,initial,t_end,dt", [
        (toy_gravity_flow(hbar=0.0), (-1.0, 1.0), 0.9, 1e-4),
        (toy_gravity_flow(hbar=1.0, beta=2.0), (-1.5, 1.0), 4.0, 5e-5),
    ], ids=["classical", "enhanced"])
    def test_exact_solver_matches_fixed_point(self, flow, initial, t_end, dt):
        controls = IntegratorControls(dt=dt)
        exact = integrate(flow, initial, t_end, controls)

        def fixed_point(p, q, h):
            return _fixed_point_step(flow, p, q, h, 1e-13, 100)

        fixed = integrate(dataclasses.replace(flow, midpoint=fixed_point, self_similar=False),
                          initial, t_end, controls)
        assert exact.status == fixed.status == "completed"
        assert exact.times.size == fixed.times.size
        for a, b in ((exact.ps, fixed.ps), (exact.qs, fixed.qs), (exact.times, fixed.times)):
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))

    @pytest.mark.parametrize("flow,p,q,dt", [
        (toy_gravity_flow(hbar=0.0), -10.0, 1.0, 0.1),  # 1 + 2 dt p < 0
        (toy_gravity_flow(hbar=1.0, beta=2.0), 20.0, 0.01, 0.1),
    ], ids=["classical", "enhanced"])
    def test_no_real_root_fails_the_step(self, flow, p, q, dt):
        assert flow.midpoint(p, q, dt) == (p, q, False)

    def test_failed_step_is_the_singularity(self):
        # the throttle's 1e-12 step floor leaves 1 + 2 dt p = -1 at p = -1e12
        flow = toy_gravity_flow(hbar=0.0)
        assert not flow.midpoint(-1e12, 1.0, 1e-12)[2]
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


def _stepped(flow):
    """The flow with every step taken by the stepping loop."""
    return dataclasses.replace(flow, self_similar=False)


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
    def test_acceptance_hits_match_loop(self, p0):
        flow = toy_gravity_flow(hbar=0.0)
        fast = integrate(flow, (p0, 1.0), 3.0)
        assert fast.status == "singularity"
        _assert_same_run(fast, integrate(_stepped(flow), (p0, 1.0), 3.0))

    def test_seeded_hits_match_loop(self, monkeypatch):
        # a higher floor keeps the stepped runs short; -0.2 starts unthrottled
        monkeypatch.setattr(dynamics, "Q_FLOOR", 1e-3)
        flow = toy_gravity_flow(hbar=0.0)
        p0s = [-0.2] + list(np.random.default_rng(21).uniform(-2.5, -0.2, 6))
        for p0 in p0s:
            fast = integrate(flow, (p0, 1.0), 6.0)
            assert fast.status == "singularity" and fast.qs[-1] > 1e-3
            _assert_same_run(fast, integrate(_stepped(flow), (p0, 1.0), 6.0))

    def test_landing_before_the_floor(self):
        flow = toy_gravity_flow(hbar=0.0)
        fast = integrate(flow, (-1.0, 1.0), 0.9)
        assert fast.status == "completed" and fast.times[-1] == 0.9
        _assert_same_run(fast, integrate(_stepped(flow), (-1.0, 1.0), 0.9))

    def test_step_clamp_left_to_the_loop(self):
        # |p| passes 2.5e7, where the 1e-12 step clamp binds, and the clamped
        # steps end in a step without a midpoint solution
        flow = toy_gravity_flow(hbar=0.0)
        fast = integrate(flow, (-2e7, 1.0), 1.0)
        assert fast.status == "singularity" and fast.qs[-1] > Q_FLOOR
        _assert_same_run(fast, integrate(_stepped(flow), (-2e7, 1.0), 1.0))

    @pytest.mark.parametrize("p0,stepped", [(-1.0, 100), (-0.2, 10_100)])
    def test_throttled_stretch_is_not_stepped(self, p0, stepped):
        # p0 = -0.2 steps unthrottled (dt = 1e-4) until t = 1.004, where |p|
        # passes 0.25; then the closed form takes over
        flow = toy_gravity_flow(hbar=0.0)
        calls = []

        def counted(*args):
            calls.append(args)
            return flow.midpoint(*args)

        traj = integrate(dataclasses.replace(flow, midpoint=counted), (p0, 1.0), 6.0)
        assert traj.status == "singularity" and traj.times.size > 550_000
        assert len(calls) < stepped

    def test_only_the_classical_flow_is_self_similar(self):
        assert toy_gravity_flow(hbar=0.0).self_similar
        assert not toy_gravity_flow(hbar=1.0).self_similar
        assert not oscillator_flow().self_similar
