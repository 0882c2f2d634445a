"""Integrator and flow checks against closed-form solutions."""

import dataclasses

import numpy as np
import pytest

from enhq.dynamics import (
    IntegratorControls,
    Trajectory,
    classical_toy_solution,
    energy_drift,
    integrate,
    oscillator_flow,
    rotsym_flow,
    rotsym_integrate,
    singularity_report,
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
            times=t, ps=p, qs=q, energies=q * p * p,
            status="completed", hit_time=None, method="closed-form", dt=0.0,
        )
        assert energy_drift(traj, flow) < 1e-12


class TestControls:
    @pytest.mark.parametrize("bad", [
        {"dt": 0.0}, {"dt": -1.0}, {"dt": float("nan")}, {"dt": float("inf")},
        {"fp_tol": 0.0}, {"max_fp_iter": 0}, {"q_floor": -1e-12},
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
        flow = oscillator_flow()
        coarse = integrate(flow, (1.0, 0.0), 10.0, IntegratorControls(dt=0.1))
        fine = integrate(flow, (1.0, 0.0), 10.0, IntegratorControls(dt=1e-3))
        assert coarse.drift > fine.drift

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
        rep = singularity_report(toy_gravity_flow(hbar=0.0), (-1.0, 1.0), 2.0)
        assert rep["status"] == "singularity"
        assert abs(rep["hit_time"] - 1.0) < 1e-4
        assert rep["drift"] < 1e-8

    def test_classical_tracks_closed_form(self):
        flow = toy_gravity_flow(hbar=0.0)
        traj = integrate(flow, (-1.0, 1.0), 0.9)
        p_ref, q_ref = classical_toy_solution(-1.0, 1.0, traj.times)
        assert np.max(np.abs(traj.qs - q_ref)) < 1e-6
        assert np.max(np.abs(traj.ps - p_ref)) < 1e-6

    def test_zero_energy_is_static(self):
        rep = singularity_report(toy_gravity_flow(hbar=0.0), (0.0, 1.0), 2.0)
        assert rep["status"] == "completed"
        assert abs(rep["min_q"] - 1.0) < 1e-12

    def test_enhanced_run_avoids_singularity(self):
        hbar = 1.0
        flow = toy_gravity_flow(hbar=hbar)
        rep = singularity_report(flow, (-1.0, 1.0), 10.0)
        assert rep["status"] == "completed"
        c = hbar**2 * cprime_closed_form(1.0, hbar)
        energy = 1.0 + c
        assert abs(rep["min_q"] * energy - c) < 1e-6
        assert rep["drift"] < 1e-8

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


class TestRadialMidpoint:
    """The exact midpoint solver of rotsym_flow against its defining equations."""

    @pytest.mark.parametrize("g0", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("dt", [1e-4, 0.5])
    def test_midpoint_residuals_at_roundoff(self, g0, dt):
        flow = rotsym_flow(8, 1.0, g0)
        p, q = _random_batch(np.random.default_rng(3), 5, 8)
        p1, q1, ok = flow.midpoint(p, q, dt, 1e-13, 100)
        assert ok
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
        fixed = integrate(dataclasses.replace(flow, midpoint=None), (p0, q0), 1.0)
        assert np.array_equal(exact.times, fixed.times)
        assert np.max(np.abs(exact.ps - fixed.ps)) < 1e-12
        assert np.max(np.abs(exact.qs - fixed.qs)) < 1e-12

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


class TestToyGravityMidpoint:
    """The exact midpoint solver of toy_gravity_flow against its defining
    equations; the enhanced flow's barrier is c = C'(2, 1) at hbar = 1."""

    @pytest.mark.parametrize("flow", [
        toy_gravity_flow(hbar=0.0), toy_gravity_flow(hbar=1.0, beta=2.0),
    ], ids=["classical", "enhanced"])
    @pytest.mark.parametrize("dt", [5e-5, 1e-4, 0.1])
    def test_midpoint_residuals_at_roundoff(self, flow, dt):
        rng = np.random.default_rng(8)
        for p, q in zip(rng.uniform(-2.0, 2.0, 200), rng.uniform(0.5, 2.0, 200)):
            p1, q1, ok = flow.midpoint(float(p), float(q), dt, 1e-13, 100)
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
        fixed = integrate(dataclasses.replace(flow, midpoint=None), initial, t_end, controls)
        assert exact.status == fixed.status == "completed"
        assert exact.times.size == fixed.times.size
        for a, b in ((exact.ps, fixed.ps), (exact.qs, fixed.qs), (exact.times, fixed.times)):
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))

    @pytest.mark.parametrize("flow,p,q,dt", [
        (toy_gravity_flow(hbar=0.0), -10.0, 1.0, 0.1),  # 1 + 2 dt p < 0
        (toy_gravity_flow(hbar=1.0, beta=2.0), 20.0, 0.01, 0.1),
    ], ids=["classical", "enhanced"])
    def test_no_real_root_fails_the_step(self, flow, p, q, dt):
        assert flow.midpoint(p, q, dt, 1e-13, 100) == (p, q, False)

    def test_failed_step_is_the_singularity(self):
        # the throttle's 1e-12 step floor leaves 1 + 2 dt p = -1 at p = -1e12
        flow = toy_gravity_flow(hbar=0.0)
        assert not flow.midpoint(-1e12, 1.0, 1e-12, 1e-13, 100)[2]
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
