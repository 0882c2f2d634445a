"""Acceptance gate: one check per shipped claim, one verdict line each.

Every criterion prints ``ACCEPTANCE <n>: PASS/FAIL`` before asserting, so
the verdict survives in the log even when the assertion trips.  Run with
``pytest -v -s tests/test_acceptance.py`` to see the lines inline.
"""

import time

import numpy as np
from references import lhs_slope_expected

from enhq.coherent import AffineFamily, CanonicalFamily, SpinFamily, affine_moment
from enhq.dynamics import integrate, rotsym_flow, toy_gravity_flow
from enhq.dynamics import toy_gravity_solution
from enhq.geometry import fs_metric, gaussian_curvature
from enhq.inequality import DEFAULT_EPS, RadialField, lhs, rhs, scan
from enhq.wcp import (
    cprime,
    cprime_closed_form,
    enhanced_hamiltonian,
    hbar_scaling_fit,
    parse_hamiltonian,
)


def _verdict(num, desc, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} — {desc}")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


def test_criterion_1_canonical_flatness():
    t0 = time.monotonic()
    problems = []
    for hbar in (1.0, 0.25):
        fam = CanonicalFamily(N=100, hbar=hbar)
        for p in np.linspace(-1.0, 1.0, 5):
            for q in np.linspace(-1.0, 1.0, 5):
                dev = np.max(np.abs(fs_metric(fam, (p, q)).as_matrix() - np.eye(2)))
                if dev >= 1e-6:
                    problems.append(f"metric dev {dev:.2g} at hbar={hbar} ({p},{q})")
        k = gaussian_curvature(fam, (0.2, -0.3)).K
        if abs(k) >= 1e-4:
            problems.append(f"|K| = {abs(k):.2g} at hbar={hbar}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict(1, "canonical metric is the identity and flat", problems)


def test_criterion_2_affine_geometry():
    # beta/hbar > 1/2 is required for a normalizable fiducial, so the
    # beta = 1/2 case runs at hbar = 1/4 (the metric and curvature do not
    # depend on hbar)
    t0 = time.monotonic()
    problems = []
    for beta, hbar in ((0.5, 0.25), (1.0, 1.0), (2.0, 1.0)):
        fam = AffineFamily(beta, hbar)
        for q in (0.5, 1.0, 2.0):
            m = fs_metric(fam, (0.2, q))
            if abs(m.g_pp - q * q / beta) >= 1e-5:
                problems.append(f"g_pp off by {abs(m.g_pp - q * q / beta):.2g} (beta={beta}, q={q})")
            if abs(m.g_qq - beta / (q * q)) >= 1e-5:
                problems.append(f"g_qq off by {abs(m.g_qq - beta / (q * q)):.2g} (beta={beta}, q={q})")
            if abs(m.g_pq) >= 1e-5:
                problems.append(f"g_pq = {m.g_pq:.2g} (beta={beta}, q={q})")
        # the metric above is the Poincare half-plane beta (dx^2 + dy^2)/y^2
        # in x = p/beta, y = 1/q: Gaussian curvature K = -1/beta, and the
        # stated -2/beta is its scalar curvature R = 2K
        k = gaussian_curvature(fam, (0.0, 1.0)).K
        r = 2.0 * k
        target = -2.0 / beta
        rel = abs(r - target) / abs(target)
        if rel >= 1e-3:
            problems.append(
                f"R = 2K = {r:.6g} (K = {k:.6g}) vs -2/beta = {target:.6g} "
                f"(rel {rel:.2g}, beta={beta})"
            )
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(2, "affine metric components and scalar curvature 2K = -2/beta", problems)


def test_criterion_3_spin_geometry():
    t0 = time.monotonic()
    problems = []
    for s in (0.5, 1.0, 1.5):
        fam = SpinFamily(s, 1.0)
        theta = np.pi / 3
        m = fs_metric(fam, (theta, 0.8))
        ref = np.diag([s, s * np.sin(theta) ** 2])
        dev = np.max(np.abs(m.as_matrix() - ref))
        if dev >= 1e-6:
            problems.append(f"metric dev {dev:.2g} at s={s}")
        k = gaussian_curvature(fam, (np.pi / 2, 0.8)).K
        if abs(k - 1.0 / s) >= 1e-3:
            problems.append(f"K = {k:.6g} vs 1/(s hbar) = {1.0 / s:.6g} at s={s}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict(3, "spin metric diag(sh, sh sin^2) and curvature 1/(sh)", problems)


def test_criterion_4_weak_correspondence():
    problems = []
    osc = parse_hamiltonian("0.5*P.P + 0.5*Q.Q", "canonical")
    for hbar in (1.0, 0.5):
        fam = CanonicalFamily(N=100, hbar=hbar)
        for p in (-1.0, 0.0, 1.5):
            for q in (-0.5, 0.5, 2.0):
                dev = abs(enhanced_hamiltonian(osc, fam, p, q)
                          - 0.5 * (p * p + q * q) - hbar / 2)
                if dev >= 1e-8:
                    problems.append(f"oscillator surface off by {dev:.2g}")
    fit = hbar_scaling_fit(osc, CanonicalFamily(N=100), (0.5, 0.5),
                           [1.0, 0.5, 0.25, 0.1, 0.05])
    if abs(fit.exponent - 1.0) >= 0.02:
        problems.append(f"scaling exponent {fit.exponent:.4f} not 1.00 +- 0.02")

    toy = parse_hamiltonian("D.Qinv.D", "affine")
    fam = AffineFamily(1.0, 1.0)
    barrier = {q: enhanced_hamiltonian(toy, fam, 0.0, q) for q in np.geomspace(0.3, 3.0, 7)}
    spread = np.ptp([enhanced_hamiltonian(toy, fam, p, 1.3) - 1.3 * p * p
                     for p in (-2.0, -1.0, 0.0, 1.0, 2.0)])
    if spread >= 1e-6:
        problems.append(f"barrier p-dependence {spread:.2g}")
    slope = np.polyfit(np.log(list(barrier)), np.log(list(barrier.values())), 1)[0]
    if abs(slope + 1.0) >= 1e-3:
        problems.append(f"barrier 1/q slope {slope:.5f}")
    _verdict(4, "weak correspondence surfaces and hbar scaling", problems)


def test_criterion_5_singularity_avoidance():
    t0 = time.monotonic()
    problems = []
    classical = toy_gravity_flow(hbar=0.0)
    for p0 in (-1.0, -1.5, -2.0):
        traj = integrate(classical, (p0, 1.0), 3.0)
        if traj.status != "singularity" or abs(traj.hit_time - (-1.0 / p0)) >= 1e-4:
            problems.append(f"classical hit time {traj.hit_time} vs {-1.0 / p0} (p0={p0})")
        if traj.drift >= 1e-8:
            problems.append(f"classical drift {traj.drift:.2g} (p0={p0})")
    for hbar in (0.5, 1.0, 2.0):
        c = hbar**2 * cprime_closed_form(2.0, hbar)
        flow = toy_gravity_flow(hbar=hbar, beta=2.0)
        for p0 in (-1.0, -1.5, -2.0):
            energy = p0 * p0 + c
            traj = integrate(flow, (p0, 1.0), 4.0, dt=5e-5)
            if traj.status != "completed":
                problems.append(f"enhanced run hit a singularity (hbar={hbar}, p0={p0})")
                continue
            if abs(traj.min_q * energy - c) >= 1e-6:
                problems.append(
                    f"min q * E off by {abs(traj.min_q * energy - c):.2g} (hbar={hbar}, p0={p0})"
                )
            if traj.drift >= 1e-8:
                problems.append(f"enhanced drift {traj.drift:.2g} (hbar={hbar}, p0={p0})")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(5, "toy-gravity singularity avoidance and min-q law", problems)


def test_criterion_6_shuffle_symmetry():
    t0 = time.monotonic()
    problems = []
    rng = np.random.default_rng(11)
    for n in (6, 32):
        for g0 in (0.0, 1.0):
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
            if dev >= 1e-9:
                problems.append(f"deviation {dev:.2g} at N={n}, g0={g0}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(6, "permutation equivariance of rotationally symmetric flows", problems)


def test_criterion_7_inequality_separation():
    t0 = time.monotonic()
    problems = []
    bound = (4.0 / 3.0) * 1.1  # 4/3 * m0^((n-4)/2) + 10% at m0 = 1
    low = scan(3, np.linspace(0.0, 0.49, 6))
    if low.max_ratio > bound:
        problems.append(f"n=3 max ratio {low.max_ratio:.4g} > {bound:.4g}")
    boundary = scan(4, [0.5, 0.99])
    if boundary.max_ratio > bound:
        problems.append(f"n=4 max ratio {boundary.max_ratio:.4g} > {bound:.4g}")

    field = RadialField(alpha=1.3, n=5)
    ratios = [lhs(field, e) / rhs(field, 1.0, e) for e in DEFAULT_EPS]
    growth = ratios[-1] / ratios[0]
    if growth < 10.0:
        problems.append(f"n=5 ratio growth {growth:.3g}x < 10x")

    eps_tail = np.geomspace(1e-6, 1e-8, 4)
    slope = np.polyfit(np.log(eps_tail),
                       np.log([lhs(field, e) for e in eps_tail]), 1)[0]
    if abs(slope - lhs_slope_expected(field)) >= 0.05:
        problems.append(f"lhs slope {slope:.4f} vs {lhs_slope_expected(field):.4f}")
    rhs_tail = [rhs(field, 1.0, e) for e in eps_tail]
    rhs_slope = np.polyfit(np.log(eps_tail), np.log(rhs_tail), 1)[0]
    if abs(rhs_slope) >= 0.05:
        problems.append(f"rhs slope {rhs_slope:.4f} not ~0")
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(7, "bounded ratio for n<=4 vs divergence for n=5", problems)


def test_criterion_8_oracle_equivalence():
    problems = []
    for beta, hbar in ((1.0, 1.0), (1.0, 0.25)):
        fam = AffineFamily(beta, hbar)
        for n in range(-1, 5):
            dev = abs(fam.expect_power(n) - affine_moment(beta, hbar, n))
            if dev >= 1e-7:
                problems.append(f"moment n={n} off by {dev:.2g} (beta={beta}, hbar={hbar})")
        dev = abs(cprime(beta, hbar) - cprime_closed_form(beta, hbar))
        if dev >= 1e-8:
            problems.append(f"cprime off by {dev:.2g} (beta={beta}, hbar={hbar})")
    _verdict(8, "quadrature matches the closed-form Gamma oracles", problems)


def test_criterion_9_integrator_quality():
    problems = []
    flow = toy_gravity_flow(hbar=0.0)

    def max_error(dt):
        traj = integrate(flow, (0.5, 1.0), 1.8, dt=dt)
        p_ref, q_ref = toy_gravity_solution(0.5, 1.0, 0.0, traj.times)
        return max(np.max(np.abs(traj.ps - p_ref)), np.max(np.abs(traj.qs - q_ref)))

    factor = max_error(2e-3) / max_error(1e-3)
    if not 3.7 <= factor <= 4.3:
        problems.append(f"halving factor {factor:.3f} outside 4 +- 0.3")
    _verdict(9, "second-order convergence under step halving", problems)
