"""The three coherent-state families, their charts and moments.

Canonical states live in a truncated Fock basis and spin states in a
(2s+1)-dimensional multiplet.  Affine states are read only through exact
Gamma moments: an expectation of a Laurent word, and every entry of the
affine jet, is a finite sum of them, so the affine family holds no sampled
wavefunction.  Canonical and spin states step on one cached eigensystem
(x, V) per dimension, numpy's `eigh` of the real tridiagonal Q/sqrt(hbar) or
S1/hbar (the Golub-Welsch matrix of the Hermite or Krawtchouk nodes), since
P and S2 are phase-rotated copies: P = -U^dag Q U, U = diag(i^n).  With it
are cached vu = U^dag V and w = V^T U V; `with_hbar` and later families reuse
it.  A canonical state is vu e^(iqx) w e^(ipx) V^T fiducial; each family
caches its one-coordinate factors e^(itx), w e^(ipx) V^T fiducial and its
p-derivative (a spin state's tilt and turn), so a state at seen coordinates
costs one product.

Coordinates only label the states, so each family has one chart, named by
`family.chart_name`: `family.chart(point, margin)` checks that the points
within `margin` of `point`, and the states their jets read, stay inside it
(`ChartBoundaryError` otherwise) and returns `(jet, inner)`: the jet
(u, v) -> (psi, d_u psi, d_v psi) of bare arrays and the inner product of its
entries.  The canonical jet is exact on Fock arrays, the affine jet exact on
Laurent multipliers, and only the spin jet is differenced (`_stencil_jet`, its
step shrunk as 1/sqrt(s) past s = 1).  Only `state` builds a `StateVector`.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .hilbert import (
    HilbertSpace,
    StateVector,
    basis_state,
    make_fock_space,
    momentum_operator,
    position_operator,
    spin_space,
)

__all__ = [
    "ChartBoundaryError",
    "CanonicalFamily",
    "AffineFamily",
    "SpinFamily",
    "affine_moment",
]


# largest share of a canonical state's norm allowed in the top TAIL_LEVELS
# Fock levels; more means the truncation has cut off part of the state
TAIL_MASS_MAX = 1e-10
TAIL_LEVELS = 5
# largest relative gap between a canonical state's mean Fock level and the
# exact one; more means the truncation has folded part of the state back
LEVEL_TOL = 1e-8
METRIC_STEP = 1e-3  # spin stencil-jet step; over sqrt(s) past s = 1, as d psi grows as sqrt(s)


class ChartBoundaryError(ValueError):
    """Stencil would cross the edge of the family's chart."""


def _check_affine_point(p: float, q: float) -> None:
    if not (math.isfinite(p) and 0 < q < math.inf):
        raise ValueError(f"affine chart requires finite p and 0 < q < inf, got ({p}, {q})")


def _vdot(x: np.ndarray, y: np.ndarray) -> complex:
    return complex(np.vdot(x, y))


def _stencil_jet(vec, h=METRIC_STEP):
    """(u, v) -> (psi, d_u psi, d_v psi) of the state map `vec`, fourth-order in h."""
    diff = lambda f: (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12.0 * h)  # noqa: E731
    return lambda u, v: (vec(u, v), diff(lambda t: vec(u + t, v)), diff(lambda t: vec(u, v + t)))


def _factor_cache(fn):
    """Per-family lru_cache of a one-coordinate factor fn(t), which closes over
    arrays, not the family (no reference cycle); 0.0 and -0.0 are two keys."""
    cached = lru_cache(maxsize=128)(lambda t, sign: fn(t))
    factor = lambda t: cached(t, math.copysign(1.0, t))  # noqa: E731
    factor.cache_info = cached.cache_info
    return factor


@lru_cache(maxsize=64)
def _ladder_spectrum(kind: str, dim: int) -> tuple[np.ndarray, ...]:
    """Eigenpairs (x, v) of X = Q/sqrt(hbar) (fock) or S1/hbar (spin), with
    vu = U^dag V and w = V^T U V, U = diag(i^n): P or S2 is -U^dag X U.
    v is complex, so products need no cast; every family of this size shares
    the arrays, so they are read-only."""
    j = np.arange(1.0, dim)
    off = np.sqrt(j / 2.0) if kind == "fock" else 0.5 * np.sqrt(j * (dim - j))
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    v = v.astype(complex)
    u = np.array([1, 1j, -1, -1j])[np.arange(dim) % 4]
    spectrum = x, v, u.conj()[:, None] * v, v.T @ (u[:, None] * v)
    for a in spectrum:
        a.setflags(write=False)
    return spectrum


# ---------------------------------------------------------------------------
# canonical family


class CanonicalFamily:
    """Canonical coherent states exp(-iqP/h) exp(ipQ/h) |fiducial>.

    N must exceed TAIL_LEVELS.  `state` raises ValueError at a non-finite
    (p, q), when more than TAIL_MASS_MAX of the norm sits in the top
    TAIL_LEVELS Fock levels, or when its mean Fock level is off by more than
    LEVEL_TOL from <n> + (p^2 + q^2)/(2h) + (p<P> + q<Q>)/h in the fiducial.
    """

    kind = "canonical"
    chart_name = "pq"

    def __init__(self, space: HilbertSpace | None = None, fiducial: StateVector | None = None,
                 N: int = 100, hbar: float = 1.0):
        if space is None:
            space = make_fock_space(N, hbar)
        if space.kind != "fock":
            raise ValueError("canonical family needs a fock-kind space")
        if space.dim <= TAIL_LEVELS:
            raise ValueError(f"canonical family needs N > {TAIL_LEVELS} levels, got {space.dim}")
        self.space = space
        self.fiducial = fiducial if fiducial is not None else basis_state(space, 0)
        if self.fiducial.space != space:
            raise ValueError("fiducial lives on a different space")
        x, v, self._vu, w = _ladder_spectrum(space.kind, space.dim)
        x = self._x = x / math.sqrt(self.hbar)  # eigenvalues of Q / hbar
        n, c = np.arange(space.dim), self.fiducial.coeffs
        m = np.vdot(c[:-1], np.sqrt(n[1:]) * c[1:]) * math.sqrt(2.0 / self.hbar)  # (<Q> + i<P>)/h
        self._levels, self._moments = n, (np.vdot(c, n * c).real, m.real, m.imag)
        a = v.T @ c
        phase = self._phase = _factor_cache(lambda t: np.exp(1j * t * x))
        self._half = _factor_cache(lambda p: w @ (phase(p) * a))
        self._dhalf = _factor_cache(lambda p: w @ (1j * x * phase(p) * a))

    @cached_property
    def Q(self):
        return position_operator(self.space)

    @cached_property
    def P(self):
        return momentum_operator(self.space)

    @property
    def hbar(self) -> float:
        return self.space.hbar

    def with_hbar(self, hbar: float) -> "CanonicalFamily":
        """Same fiducial Fock coefficients on a space with the new hbar."""
        space = make_fock_space(self.space.dim, hbar)
        return CanonicalFamily(space, StateVector(self.fiducial.coeffs, space))

    def state(self, p: float, q: float) -> StateVector:
        c = self._vu @ self._jet(p, q)[0]
        return StateVector(c / np.linalg.norm(c), self.space)

    def _jet(self, p: float, q: float):
        """(b, d_p b, d_q b) of the state vu b, b = e^(iqx) _half(p), after the guards:
        e^(ipQ/h) = V e^(ipx) V^T, e^(-iqP/h) = U^dag V e^(iqx) V^T U, and
        d_p b = e^(iqx) _dhalf(p), d_q b = ixb.  b has unit norm, as every factor is unitary."""
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ValueError(f"canonical chart requires finite p and q, got ({p}, {q})")
        b = self._phase(q) * self._half(p)
        c = self._vu @ b
        norm = np.linalg.norm(c)
        top = c[-TAIL_LEVELS:]
        tail = np.vdot(top, top).real / (norm * norm)
        if not tail <= TAIL_MASS_MAX:
            raise ValueError(f"canonical state at (p, q) = ({p}, {q}), hbar = {self.hbar}, holds "
                             f"{tail:.2g} of its norm in the top {TAIL_LEVELS} of {c.size} Fock "
                             f"levels (limit {TAIL_MASS_MAX:g}); use a larger truncation")
        n0, q0, p0 = self._moments  # the fiducial's <n>, <Q>/h and <P>/h
        level = np.vdot(c, self._levels * c).real / (norm * norm)
        exact = n0 + (p * p + q * q) / (2.0 * self.hbar) + p * p0 + q * q0
        if not abs(level - exact) <= LEVEL_TOL * (1.0 + exact):
            raise ValueError(f"canonical state at (p, q) = ({p}, {q}), hbar = {self.hbar}: mean "
                             f"Fock level {level:.6g}, not {exact:.6g}; use a larger truncation")
        return b, self._phase(q) * self._dhalf(p), 1j * self._x * b

    def chart(self, point, margin: float):
        """(jet, inner) of the (p, q) chart, the whole plane, with the exact jet `_jet`."""
        return self._jet, _vdot


# ---------------------------------------------------------------------------
# affine family


class AffineFamily:
    """Affine coherent states exp(ipQ/h) exp(-i ln(q) D/h) |beta>.

    The fiducial is the Gamma-type wavefunction
    M x^((k-1)/2) exp(-beta x / hbar), k = 2 beta / hbar, which solves
    [(Q - 1) + i D / beta] |beta> = 0 and has <Q> = 1, <D> = 0.  The state
    at (p, q) is q^(-1/2) e^(ipx/hbar) fiducial(x/q); the family reads it
    only through Laurent multipliers R(x) and the exact Gamma moments of
    |psi_{p,q}|^2, so it holds no sampled wavefunction.
    """

    kind = "affine"
    chart_name = "pq"

    def __init__(self, beta: float = 1.0, hbar: float = 1.0):
        if not (0 < beta < math.inf and 0 < hbar < math.inf):
            raise ValueError(f"beta and hbar must be positive and finite, got {beta}, {hbar}")
        if beta / hbar <= 0.5:
            raise ValueError(
                f"beta/hbar = {beta / hbar} <= 1/2: fiducial not normalizable"
            )
        self.beta = float(beta)
        self.hbar = float(hbar)
        self.k = 2.0 * beta / hbar  # Gamma shape = rate of |fiducial|^2

    def with_hbar(self, hbar: float) -> "AffineFamily":
        return AffineFamily(self.beta, hbar)

    def chart(self, point, margin: float):
        """(jet, inner) of the (p, q) chart on q > 0.  Exact jet of Laurent multipliers
        of |p,q>: psi -> 1, d_p psi -> ix/hbar, d_q psi -> k(x - q)/(2q^2); the inner
        product <R psi|S psi> is the Gamma moment sum of conj(R) S at `point`, so the
        jet is read there.  A jet entry or inner product that leaves the float range
        raises ArithmeticError naming the point."""
        p0, q0 = point
        if q0 - margin <= 0:
            raise ChartBoundaryError(f"affine chart at q = {q0} with extent {margin} crosses q = 0")
        k, h = self.k, self.hbar
        # the products scale as q^2 and q^-4 (g_pp = q^2 / beta, g_qq = beta / q^2)
        def jet(p, q):
            try:
                return {0: 1.0}, {1: 1j / h}, {1: k / (2 * q * q), 0: -k / (2 * q)}
            except ZeroDivisionError:  # q * q underflowed
                raise ArithmeticError(f"affine jet at (p, q) = ({p}, {q}) leaves the float "
                                      "range") from None

        def inner(r, s):
            rs: dict[int, complex] = {}
            for e, c in r.items():
                for f, d in s.items():
                    rs[e + f] = rs.get(e + f, 0.0) + c.conjugate() * d
            try:
                v = self.expect_laurent(rs, p0, q0)
            except OverflowError:  # a float ** raises where * and / would give inf
                v = math.inf
            if v - v:  # 0 exactly when v is finite
                raise ArithmeticError(f"affine jet at (p, q) = ({p0}, {q0}) leaves the float "
                                      "range")
            return v

        return jet, inner

    def expect_laurent(self, coeffs: dict[int, complex], p: float, q: float) -> complex:
        """Exact expectation of sum_e c_e x^e in the state at (p, q).

        |psi_{p,q}|^2 is the Gamma density of shape k and rate k/q, so
        <x^e> = (q/k)^e Gamma(k+e)/Gamma(k), and the ratio is a product of
        |e| factors: k(k+1)... for e > 0, 1/((k-1)(k-2)...) for e < 0.
        The density carries no p dependence; p enters only through the
        (complex) coefficients supplied by the caller.
        """
        _check_affine_point(p, q)
        k = self.k
        e_min = min(coeffs)
        if k + e_min <= 0:
            raise ValueError(f"moment x^{e_min} diverges for shape k = {k}")
        total = 0.0 + 0.0j
        for e, c in coeffs.items():
            if e >= 0:
                ratio = math.prod(k + i for i in range(e))
            else:
                ratio = 1.0 / math.prod(k - i for i in range(1, 1 - e))
            total += c * (q / k) ** e * ratio
        return complex(total)

    def expect_power(self, n: int, p: float = 0.0, q: float = 1.0) -> float:
        """<Q^n> in the coherent state at (p, q), as an exact Gamma moment."""
        return float(np.real(self.expect_laurent({int(n): 1.0}, p, q)))


def affine_moment(beta: float, hbar: float, n: int) -> float:
    """Analytic fiducial moment <Q^n> = Gamma(k+n) / (Gamma(k) k^n), k = 2 beta/hbar.

    Independent of `expect_laurent` (log-Gamma, not a product of factors), it
    serves as the oracle for those exact sums.
    """
    if not (0 < beta < math.inf and 0 < hbar < math.inf):
        raise ValueError(f"beta and hbar must be positive and finite, got {beta}, {hbar}")
    k = 2.0 * beta / hbar
    if n < -1:
        raise ValueError("moments below n = -1 are not supported")
    if k + n <= 0:
        raise ValueError(f"Gamma pole: shape k + n = {k + n} <= 0")
    return math.exp(math.lgamma(k + n) - math.lgamma(k) - n * math.log(k))


# ---------------------------------------------------------------------------
# spin family


class SpinFamily:
    """Spin coherent states e^(-i phi S3/h) e^(-i theta S2/h) |s,s>."""

    kind = "spin"
    chart_name = "angles"

    def __init__(self, s: float, hbar: float = 1.0):
        self.s = float(s)
        self.space = spin_space(s, hbar)
        x, v, vu, _ = _ladder_spectrum(self.space.kind, self.space.dim)
        m = np.arange(self.s, -self.s - 1e-9, -1.0)  # S3 eigenvalues / hbar
        # e^(-i theta S2/h)|s,s> = U^dag V e^(i theta x) V[0]; e^(-i phi S3/h) = e^(-i phi m)
        self._tilt = _factor_cache(lambda theta: vu @ (np.exp(1j * theta * x) * v[0]))
        self._turn = _factor_cache(lambda phi: np.exp(-1j * phi * m))
        self.fiducial = basis_state(self.space, 0)  # m = s is first

    @property
    def hbar(self) -> float:
        return self.space.hbar

    def state(self, theta: float, phi: float) -> StateVector:
        if not 0.0 <= theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        if not 0.0 <= phi < 2.0 * np.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
        return StateVector(self._state_unchecked(theta, phi), self.space)

    def _state_unchecked(self, theta: float, phi: float) -> np.ndarray:
        c = self._turn(phi) * self._tilt(theta)
        return c / np.linalg.norm(c)

    def chart(self, point, margin: float):
        """(jet, inner) of the (theta, phi) chart, which does not cover the poles; phi is not
        reduced mod 2*pi.  The stencil jet's step is METRIC_STEP / sqrt(max(1, s))."""
        h = METRIC_STEP / math.sqrt(max(1.0, self.s))
        u, margin = point[0], margin + 2.0 * h
        if not margin < u < np.pi - margin:
            raise ChartBoundaryError(
                f"spin stencil at theta = {u} with extent {margin} crosses a pole"
            )
        return _stencil_jet(self._state_unchecked, h), _vdot
