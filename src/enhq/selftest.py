"""Fast aggregate invariant battery behind ``enhq selftest``.

Each check returns (name, passed, detail, residuals): the detail states
the check against its tolerance, so the table is byte-stable, and the
residuals hold the measured values.  The battery favors breadth over
depth — the pytest suite is the authoritative verification; this is an
install smoke test that runs in a few seconds.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["run_all"]


def _below(tol: float, residuals: dict):
    """(passed, detail, residuals) of the check that every residual is below tol."""
    ok = all(v < tol for v in residuals.values())
    return ok, f"{' and '.join(residuals)} {'<' if ok else 'not <'} {tol:g}", residuals


def _checks():
    from . import coherent, dynamics, geometry, hilbert, inequality, wcp

    def canonical_commutator():
        sp = hilbert.make_fock_space(100, 1.0)
        q = hilbert.position_operator(sp)
        p = hilbert.momentum_operator(sp)
        comm = q @ p - p @ q - 1j * sp.hbar * np.eye(sp.dim)
        return _below(1e-8, {"max deviation": float(np.max(np.abs(comm[:90, :90])))})

    def affine_commutator():
        sp = hilbert.make_fock_space(100, 1.0)
        q = hilbert.position_operator(sp)
        d = hilbert.dilation_operator(sp)
        comm = q @ d - d @ q - 1j * sp.hbar * q
        return _below(1e-8, {"max deviation": float(np.max(np.abs(comm[:80, :80])))})

    def canonical_expectations():
        fam = coherent.CanonicalFamily(N=100)
        sp = fam.space
        st = fam.state(0.7, -0.4)
        dq = abs(hilbert.expectation(st, hilbert.position_operator(sp)).real + 0.4)
        dp = abs(hilbert.expectation(st, hilbert.momentum_operator(sp)).real - 0.7)
        return _below(1e-8, {"<Q> error": dq, "<P> error": dp})

    def affine_moments():
        # the exact Gamma-moment products the affine metric and surfaces read
        worst = max(abs(coherent.AffineFamily(1.0, h).expect_power(n)
                        - coherent.affine_moment(1.0, h, n))
                    for h in (1.0, 0.25) for n in range(-1, 5))
        return _below(1e-8, {"worst moment error vs log-Gamma": worst})

    def cprime_oracle():
        got = wcp.cprime(1.0, 0.25)
        ref = wcp.cprime_closed_form(1.0, 0.25)
        return _below(1e-8, {"word algebra vs closed form": abs(got - ref)})

    def oscillator_correspondence():
        fam = coherent.CanonicalFamily(N=100, hbar=0.5)
        spec = wcp.parse_hamiltonian("0.5*P.P + 0.5*Q.Q", "canonical")
        worst = 0.0
        for p, q in ((0.0, 0.0), (1.0, -0.5), (0.3, 0.8)):
            h = wcp.enhanced_hamiltonian(spec, fam, p, q)
            worst = max(worst, abs(h - 0.5 * (p * p + q * q) - 0.25))
        return _below(1e-8, {"worst H - classical - hbar/2 error": worst})

    def canonical_metric():
        m = geometry.fs_metric(coherent.CanonicalFamily(N=100), (0.2, -0.3))
        dev = float(np.max(np.abs(m.as_matrix() - np.eye(2))))
        return _below(1e-6, {"deviation from identity": dev})

    def spin_metric():
        fam = coherent.SpinFamily(1.0, 1.0)
        m = geometry.fs_metric(fam, (1.1, 0.4))
        ref = np.diag([1.0, np.sin(1.1) ** 2])
        dev = float(np.max(np.abs(m.as_matrix() - ref)))
        return _below(1e-6, {"deviation from diag(s hbar, s hbar sin^2)": dev})

    def oscillator_drift():
        traj = dynamics.integrate(dynamics.oscillator_flow(), (1.0, 0.0), 10.0, dt=1e-3)
        return _below(1e-8, {"relative drift": traj.drift})

    def toy_hit_time():
        flow = dynamics.toy_gravity_flow(hbar=0.0)
        traj = dynamics.integrate(flow, (-1.0, 1.0), 2.0)
        err = math.inf if traj.hit_time is None else abs(traj.hit_time - 1.0)
        ok, detail, residuals = _below(1e-4, {"hit time error": err})
        return ok and traj.status == "singularity", f"status {traj.status}, {detail}", residuals

    def inequality_gaussian():
        f = inequality.RadialField(alpha=0.0, n=3)
        got = inequality.lhs(f, 1e-8)
        ref = math.sqrt(inequality.sphere_area(3) * math.gamma(1.5) / (2 * 4**1.5))
        return _below(1e-8, {"Gaussian closed form error": abs(got - ref)})

    return [
        ("canonical-commutator", canonical_commutator),
        ("affine-commutator", affine_commutator),
        ("canonical-expectations", canonical_expectations),
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
            ok, detail, residuals = fn()
        except Exception as exc:  # a crashed invariant is a failed invariant
            ok, detail, residuals = False, f"raised {type(exc).__name__}: {exc}", {}
        results.append((name, bool(ok), detail, residuals))
    return results
