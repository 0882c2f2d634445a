"""Fast aggregate invariant battery behind ``enhq selftest``.

Each check returns (name, passed, detail).  The battery favors breadth
over depth — the pytest suite is the authoritative verification; this is
an install smoke test that runs in a few seconds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_all"]


def _checks():
    from . import coherent, dynamics, geometry, hilbert, inequality, wcp

    def canonical_commutator():
        sp = hilbert.make_fock_space(100, 1.0)
        q = hilbert.position_operator(sp).matrix
        p = hilbert.momentum_operator(sp).matrix
        comm = q @ p - p @ q - 1j * sp.hbar * np.eye(sp.dim)
        dev = float(np.max(np.abs(comm[:90, :90])))
        return dev < 1e-8, f"max deviation {dev:.3g}"

    def affine_commutator():
        sp = hilbert.make_fock_space(100, 1.0)
        q = hilbert.position_operator(sp).matrix
        d = hilbert.dilation_operator(sp).matrix
        comm = q @ d - d @ q - 1j * sp.hbar * q
        dev = float(np.max(np.abs(comm[:80, :80])))
        return dev < 1e-8, f"max deviation {dev:.3g}"

    def canonical_expectations():
        fam = coherent.CanonicalFamily(N=100)
        sp = fam.space
        st = fam.state(0.7, -0.4)
        dq = abs(hilbert.expectation(st, hilbert.position_operator(sp)).real + 0.4)
        dp = abs(hilbert.expectation(st, hilbert.momentum_operator(sp)).real - 0.7)
        return max(dq, dp) < 1e-8, f"<Q>,<P> errors {dq:.3g}, {dp:.3g}"

    def affine_fiducial():
        fam = coherent.AffineFamily(1.0, 1.0)
        st = fam.fiducial()
        dn = abs(st.norm() - 1.0)
        dq = abs(fam.expect_power(1, 0.0, 1.0) - 1.0)
        return max(dn, dq) < 1e-8, f"norm, <Q> errors {dn:.3g}, {dq:.3g}"

    def affine_moments():
        # moments of the sampled fiducial on the grid the metric samples
        st = coherent.AffineFamily(1.0, 0.25).fiducial()
        x, density = st.grid.nodes, np.abs(st.samples) ** 2
        worst = 0.0
        for n in range(-1, 5):
            got = st.grid.integrate(density * x**n)
            worst = max(worst, abs(got - coherent.affine_moment(1.0, 0.25, n)))
        return worst < 1e-7, f"worst grid moment error {worst:.3g}"

    def cprime_oracle():
        got = wcp.cprime(1.0, 0.25)
        ref = wcp.cprime_closed_form(1.0, 0.25)
        dev = abs(got - ref)
        return dev < 1e-8, f"word algebra vs closed form {dev:.3g}"

    def oscillator_correspondence():
        fam = coherent.CanonicalFamily(N=100, hbar=0.5)
        spec = wcp.parse_hamiltonian("0.5*P.P + 0.5*Q.Q", "canonical")
        worst = 0.0
        for p, q in ((0.0, 0.0), (1.0, -0.5), (0.3, 0.8)):
            h = wcp.enhanced_hamiltonian(spec, fam, p, q)
            worst = max(worst, abs(h - 0.5 * (p * p + q * q) - 0.25))
        return worst < 1e-8, f"worst H - classical - hbar/2 error {worst:.3g}"

    def canonical_metric():
        m = geometry.fs_metric(coherent.CanonicalFamily(N=100), (0.2, -0.3))
        dev = float(np.max(np.abs(m.as_matrix() - np.eye(2))))
        return dev < 1e-6, f"deviation from identity {dev:.3g}"

    def spin_metric():
        fam = coherent.SpinFamily(1.0, 1.0)
        m = geometry.fs_metric(fam, (1.1, 0.4))
        ref = np.diag([1.0, np.sin(1.1) ** 2])
        dev = float(np.max(np.abs(m.as_matrix() - ref)))
        return dev < 1e-6, f"deviation from diag(s hbar, s hbar sin^2) {dev:.3g}"

    def oscillator_drift():
        traj = dynamics.integrate(
            dynamics.oscillator_flow(), (1.0, 0.0), 10.0,
            dynamics.IntegratorControls(dt=1e-3),
        )
        return traj.drift < 1e-8, f"relative drift {traj.drift:.3g}"

    def toy_hit_time():
        flow = dynamics.toy_gravity_flow(hbar=0.0)
        traj = dynamics.integrate(flow, (-1.0, 1.0), 2.0)
        ok = traj.status == "singularity" and abs(traj.hit_time - 1.0) < 1e-4
        return ok, f"status {traj.status}, hit {traj.hit_time}"

    def inequality_gaussian():
        from scipy.special import gamma

        f = inequality.RadialField(alpha=0.0, n=3)
        got = inequality.lhs(f, 1.0, 1e-8)
        ref = float(np.sqrt(inequality.sphere_area(3) * gamma(1.5) / (2 * 4**1.5)))
        dev = abs(got - ref)
        return dev < 1e-8, f"Gaussian closed form error {dev:.3g}"

    return [
        ("canonical-commutator", canonical_commutator),
        ("affine-commutator", affine_commutator),
        ("canonical-expectations", canonical_expectations),
        ("affine-fiducial", affine_fiducial),
        ("affine-moments", affine_moments),
        ("cprime-oracle", cprime_oracle),
        ("oscillator-correspondence", oscillator_correspondence),
        ("canonical-metric", canonical_metric),
        ("spin-metric", spin_metric),
        ("oscillator-drift", oscillator_drift),
        ("toy-hit-time", toy_hit_time),
        ("inequality-gaussian", inequality_gaussian),
    ]


def run_all():
    results = []
    for name, fn in _checks():
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed invariant is a failed invariant
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
