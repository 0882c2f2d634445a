"""The three coherent-state families, their charts and moments.

Canonical states live in a truncated Fock basis, spin states in a
(2s+1)-dimensional multiplet, and affine states as sampled wavefunctions
on a half-line quadrature grid tuned to the Gamma-type fiducial weight,
built with a family's first state; affine expectations of Laurent words
are exact sums of Gamma moments, so C' and affine surfaces need no grid.
Canonical and spin states step on one cached eigensystem (x, V) per
dimension, of the real tridiagonal Q/sqrt(hbar) or S1/hbar, since P and S2
are phase-rotated copies: P = -U^dag Q U, U = diag(i^n).  With it are cached
vu = U^dag V and w = V^T U V; `with_hbar` and later families reuse it.  A
canonical state is vu e^(iqx) w e^(ipx) V^T fiducial; each family caches its
one-coordinate factors e^(itx), w e^(ipx) V^T fiducial and its p-derivative (a
spin state's tilt and turn), so a state at seen coordinates costs one product.

Coordinates only label the states, so each family has one chart, named by
`family.chart_name`: `family.chart(point, margin)` checks that the points
within `margin` of `point`, and the states their jets read, stay inside it
(`ChartBoundaryError` otherwise) and returns `(jet, inner)`: the jet
(u, v) -> (psi, d_u psi, d_v psi) of raw arrays, exact for the canonical
family and differenced (`_stencil_jet`) for the others, and their inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._quadrature import HalfLineGrid, gauss_gamma_grid
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
    "AffineState",
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
# largest |<psi|psi> - 1| allowed for an affine state on its quadrature
# grid; more means the grid, tuned to one q, does not resolve the state
AFFINE_NORM_TOL = 1e-6
METRIC_STEP = 1e-3  # difference step of a stencil jet


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
    from scipy.linalg import eigh_tridiagonal

    j = np.arange(1.0, dim)
    off = np.sqrt(j / 2.0) if kind == "fock" else 0.5 * np.sqrt(j * (dim - j))
    x, v = eigh_tridiagonal(np.zeros(dim), off)
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

    def __getattr__(self, name):
        """Builds the factor caches and fiducial moments with the first state or jet;
        threads that race here build equal copies, so no lock is needed."""
        if name not in ("_x", "_vu", "_phase", "_half", "_dhalf", "_levels", "_moments"):
            raise AttributeError(name)
        x, v, self._vu, w = _ladder_spectrum(self.space.kind, self.space.dim)
        x = self._x = x / math.sqrt(self.hbar)  # eigenvalues of Q / hbar
        n, c = np.arange(self.space.dim), self.fiducial.coeffs
        m = np.vdot(c[:-1], np.sqrt(n[1:]) * c[1:]) * math.sqrt(2.0 / self.hbar)  # (<Q> + i<P>)/h
        self._levels, self._moments = n, (np.vdot(c, n * c).real, m.real, m.imag)
        a = v.T @ c
        phase = self._phase = _factor_cache(lambda t: np.exp(1j * t * x))
        self._half = _factor_cache(lambda p: w @ (phase(p) * a))
        self._dhalf = _factor_cache(lambda p: w @ (1j * x * phase(p) * a))
        return getattr(self, name)

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
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ValueError(f"canonical chart requires finite p and q, got ({p}, {q})")
        # e^(ipQ/h) = V e^(ipx) V^T and e^(-iqP/h) = U^dag V e^(iqx) V^T U
        c = self._vu @ (self._phase(q) * self._half(p))
        norm = np.linalg.norm(c)
        top = c[-TAIL_LEVELS:]
        tail = np.vdot(top, top).real / (norm * norm)
        if not tail <= TAIL_MASS_MAX:
            raise ValueError(
                f"canonical state at (p, q) = ({p}, {q}), hbar = {self.hbar}, holds {tail:.2g} "
                f"of its norm in the top {TAIL_LEVELS} of {c.size} Fock levels "
                f"(limit {TAIL_MASS_MAX:g}); use a larger truncation"
            )
        n0, q0, p0 = self._moments  # the fiducial's <n>, <Q>/h and <P>/h
        level = np.vdot(c, self._levels * c).real / (norm * norm)
        exact = n0 + (p * p + q * q) / (2.0 * self.hbar) + p * p0 + q * q0
        if not abs(level - exact) <= LEVEL_TOL * (1.0 + exact):
            raise ValueError(f"canonical state at (p, q) = ({p}, {q}), hbar = {self.hbar}: mean "
                             f"Fock level {level:.6g}, not {exact:.6g}; use a larger truncation")
        return StateVector(c / norm, self.space)

    def chart(self, point, margin: float):
        """(jet, inner) of the (p, q) chart, the whole plane.  Exact jet: a state is vu b,
        b = e^(iqx) _half(p), d_q b = ixb, d_p b = e^(iqx) _dhalf(p); unitary vu is left out."""
        def jet(p, q):
            self.state(p, q)  # the tail and mean-level guards
            b = self._phase(q) * self._half(p)  # of unit norm, as every factor is unitary
            return b, self._phase(q) * self._dhalf(p), 1j * self._x * b

        return jet, _vdot


# ---------------------------------------------------------------------------
# affine family


@dataclass(frozen=True)
class AffineState:
    """Sampled half-line wavefunction with its quadrature rule."""

    grid: HalfLineGrid
    samples: np.ndarray

    def __post_init__(self):
        s = np.ascontiguousarray(self.samples, dtype=complex)
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def norm(self) -> float:
        return float(np.sqrt(np.real(self.grid.integrate(np.abs(self.samples) ** 2))))


class AffineFamily:
    """Affine coherent states exp(ipQ/h) exp(-i ln(q) D/h) |beta>.

    `state` raises ValueError when the sampled state's quadrature norm^2
    is off by more than AFFINE_NORM_TOL: a grid centred at q0 resolves
    states up to about q = 1.08 q0.

    The fiducial is the Gamma-type wavefunction
    M x^((k-1)/2) exp(-beta x / hbar), k = 2 beta / hbar, which solves
    [(Q - 1) + i D / beta] |beta> = 0 and has <Q> = 1, <D> = 0.
    """

    kind = "affine"
    chart_name = "pq"

    def __init__(self, beta: float = 1.0, hbar: float = 1.0, center: float = 1.0):
        if not (0 < beta < math.inf and 0 < hbar < math.inf):
            raise ValueError(f"beta and hbar must be positive and finite, got {beta}, {hbar}")
        if beta / hbar <= 0.5:
            raise ValueError(
                f"beta/hbar = {beta / hbar} <= 1/2: fiducial not normalizable"
            )
        if not 0 < center < math.inf:
            raise ValueError(f"grid center must be positive and finite, got {center}")
        self.beta = float(beta)
        self.hbar = float(hbar)
        self.center = float(center)
        self.k = 2.0 * beta / hbar  # Gamma shape = rate of |fiducial|^2

        @lru_cache(maxsize=32)
        def centered(q0: float) -> AffineFamily:
            """Same family with the quadrature grid rescaled around q = q0; the last
            32 are kept, so a curvature's stencils at one q share one grid."""
            return AffineFamily(beta, hbar, q0)

        self.centered = centered

    @cached_property
    def _sampled(self) -> tuple[HalfLineGrid, np.ndarray, np.ndarray, np.ndarray]:
        """The states' quadrature grid and the q-free parts of their log amplitudes
        on it: log M + (k-1)/2 log x, beta x / hbar and x / hbar."""
        from scipy.special import gammaln

        grid = gauss_gamma_grid(self.k - 1.0, self.k / self.center)
        x = grid.nodes
        log_m = 0.5 * (self.k * np.log(self.k) - gammaln(self.k))  # M^2 = k^k / Gamma(k)
        return (grid, log_m + 0.5 * (self.k - 1.0) * np.log(x),
                self.beta * x / self.hbar, x / self.hbar)

    def with_hbar(self, hbar: float) -> "AffineFamily":
        return AffineFamily(self.beta, hbar, self.center)

    def fiducial(self) -> AffineState:
        return self.state(0.0, 1.0)

    def state(self, p: float, q: float) -> AffineState:
        """q^(-1/2) e^(ipx/hbar) fiducial(x/q) on the family grid.

        The dilation carries the unitary q^(-1/2) prefactor, so the log
        amplitude is log M + (k-1)/2 log x - beta x / (q hbar) - k/2 log q.
        """
        _check_affine_point(p, q)
        grid, log_base, bx, xh = self._sampled
        log_amp = log_base - bx / q - 0.5 * self.k * math.log(q)
        samples = np.exp(log_amp + 1j * p * xh)
        norm2 = np.vdot(samples, grid.weights * samples).real
        if not abs(norm2 - 1.0) <= AFFINE_NORM_TOL:
            raise ValueError(
                f"affine state at (p, q) = ({p}, {q}) has quadrature norm^2 {norm2:.6g}, "
                f"off by more than {AFFINE_NORM_TOL:g}: its grid does not resolve it; "
                f"sample it on family.centered({q})"
            )
        return AffineState(grid, samples)

    def chart(self, point, margin: float):
        """(jet, inner) of the (p, q) chart on q > 0; the jet is a stencil jet.

        The quadrature grid is rebased on the stencil center, so every
        stencil state shares one grid and one set of weights.
        """
        q0, margin = float(point[1]), margin + 2.0 * METRIC_STEP
        if q0 - margin <= 0:
            raise ChartBoundaryError(
                f"affine stencil at q = {q0} with extent {margin} crosses q = 0"
            )
        local = self.centered(q0)
        w = local._sampled[0].weights
        return (_stencil_jet(lambda p, q: local.state(p, q).samples),
                (lambda x, y: complex(np.sum(w * np.conj(x) * y))))

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
    serves as the oracle for the moments on the state grid and for those sums.
    """
    from scipy.special import gammaln

    if not (0 < beta < math.inf and 0 < hbar < math.inf):
        raise ValueError(f"beta and hbar must be positive and finite, got {beta}, {hbar}")
    k = 2.0 * beta / hbar
    if n < -1:
        raise ValueError("moments below n = -1 are not supported")
    if k + n <= 0:
        raise ValueError(f"Gamma pole: shape k + n = {k + n} <= 0")
    return float(np.exp(gammaln(k + n) - gammaln(k) - n * np.log(k)))


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
        return self._state_unchecked(theta, phi)

    def _state_unchecked(self, theta: float, phi: float) -> StateVector:
        c = self._turn(phi) * self._tilt(theta)
        return StateVector(c / np.linalg.norm(c), self.space)

    def chart(self, point, margin: float):
        """(jet, inner) of the (theta, phi) chart, which does not cover the
        poles; phi is not reduced mod 2*pi.  The jet is a stencil jet."""
        u, margin = point[0], margin + 2.0 * METRIC_STEP
        if not margin < u < np.pi - margin:
            raise ChartBoundaryError(
                f"spin stencil at theta = {u} with extent {margin} crosses a pole"
            )
        return _stencil_jet(lambda a, b: self._state_unchecked(a, b).coeffs), _vdot
