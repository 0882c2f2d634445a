"""The three coherent-state families, their charts, overlaps and moments.

Canonical states live in a truncated Fock basis, spin states in a
(2s+1)-dimensional multiplet, and affine states as sampled wavefunctions
on a half-line quadrature grid tuned to the Gamma-type fiducial weight.

Coordinates only label the states, so each family owns its charts:
`family.chart(point, margin, name)` checks that a stencil of extent
`margin` around `point` stays inside chart `name` (`ChartBoundaryError`
otherwise) and returns `(vec, inner)`, the raw state map
(u, v) -> ndarray and the inner product on those raw arrays.
`family.default_chart` names the chart used when none is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._quadrature import HalfLineGrid, gauss_gamma_grid
from .hilbert import (
    HilbertSpace,
    StateVector,
    basis_state,
    make_fock_space,
    momentum_operator,
    position_operator,
    spin_operators,
)

__all__ = [
    "ChartBoundaryError",
    "CanonicalFamily",
    "AffineFamily",
    "AffineState",
    "SpinFamily",
    "affine_moment",
    "overlap",
    "hermite_functions",
]


# largest share of a canonical state's norm allowed in the top TAIL_LEVELS
# Fock levels; more means the truncation has cut off part of the state
TAIL_MASS_MAX = 1e-10
TAIL_LEVELS = 5
# largest |<psi|psi> - 1| allowed for an affine state on its quadrature
# grid; more means the grid, tuned to one q, does not resolve the state
AFFINE_NORM_TOL = 1e-6


class ChartBoundaryError(ValueError):
    """Stencil would cross the edge of the family's chart."""


def _check_affine_point(p: float, q: float) -> None:
    if not (math.isfinite(p) and 0 < q < math.inf):
        raise ValueError(f"affine chart requires finite p and 0 < q < inf, got ({p}, {q})")


def _vdot(x: np.ndarray, y: np.ndarray) -> complex:
    return complex(np.vdot(x, y))


def _check_chart(family, name: str, names: tuple[str, ...]) -> None:
    if name not in names:
        raise ValueError(f"unknown {family.kind} chart {name!r}; expected one of {names}")


def hermite_functions(n_max: int, x: np.ndarray, hbar: float) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions phi_0..phi_{n_max-1} at points x.

    Stable normalized recurrence in the scaled variable x/sqrt(hbar);
    returns an array of shape (n_max, len(x)).
    """
    x = np.asarray(x, dtype=float)
    xi = x / np.sqrt(hbar)
    out = np.zeros((n_max, x.size))
    out[0] = (np.pi * hbar) ** -0.25 * np.exp(-0.5 * xi * xi)
    if n_max > 1:
        out[1] = np.sqrt(2.0) * xi * out[0]
    for n in range(1, n_max - 1):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * xi * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


# ---------------------------------------------------------------------------
# canonical family


class CanonicalFamily:
    """Canonical coherent states exp(-iqP/h) exp(ipQ/h) |fiducial>.

    `state` raises ValueError at a non-finite (p, q), or when more than
    TAIL_MASS_MAX of the norm sits in the top TAIL_LEVELS Fock levels.
    """

    kind = "canonical"
    default_chart = "pq"

    def __init__(self, space: HilbertSpace | None = None, fiducial: StateVector | None = None,
                 N: int = 100, hbar: float = 1.0):
        if space is None:
            space = make_fock_space(N, hbar)
        if space.kind != "fock":
            raise ValueError("canonical family needs a fock-kind space")
        self.space = space
        self.fiducial = fiducial if fiducial is not None else basis_state(space, 0)
        if self.fiducial.space != space:
            raise ValueError("fiducial lives on a different space")
        self.Q = position_operator(space)
        self.P = momentum_operator(space)
        self._eq = np.linalg.eigh(self.Q.matrix)
        self._ep = np.linalg.eigh(self.P.matrix)

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
        h = self.space.hbar
        c = self.fiducial.coeffs
        wq, vq = self._eq
        c = vq @ (np.exp(1j * p * wq / h) * (vq.conj().T @ c))
        wp, vp = self._ep
        c = vp @ (np.exp(-1j * q * wp / h) * (vp.conj().T @ c))
        norm = np.linalg.norm(c)
        top = c[-TAIL_LEVELS:]
        tail = np.vdot(top, top).real / (norm * norm)
        if not tail <= TAIL_MASS_MAX:
            raise ValueError(
                f"canonical state at (p, q) = ({p}, {q}) holds {tail:.2g} of its norm in the "
                f"top {TAIL_LEVELS} of {c.size} Fock levels (limit {TAIL_MASS_MAX:g}); "
                "use a larger truncation"
            )
        return StateVector(c / norm, self.space)

    def chart(self, point, margin: float, name: str):
        """(vec, inner) of the (p, q) chart, which covers the whole plane."""
        _check_chart(self, name, ("pq",))
        return (lambda p, q: self.state(p, q).coeffs), _vdot

    def xrep(self, p: float, q: float, xgrid: np.ndarray) -> np.ndarray:
        """Position-space samples e^{ip(x-q)/h} eta(x-q) of the coherent state.

        Raises if the grid loses more than 1e-3 of the norm.
        """
        xgrid = np.asarray(xgrid, dtype=float)
        h = self.space.hbar
        eta = self.fiducial.coeffs @ hermite_functions(self.space.dim, xgrid - q, h)
        samples = np.exp(1j * p * (xgrid - q) / h) * eta
        norm2 = np.trapezoid(np.abs(samples) ** 2, xgrid)
        if abs(norm2 - 1.0) > 1e-3:
            raise ValueError(
                f"x-grid does not cover the state support (norm^2 = {norm2:.6f})"
            )
        return samples


# ---------------------------------------------------------------------------
# affine family


@dataclass(frozen=True)
class AffineState:
    """Sampled half-line wavefunction with its quadrature rule."""

    grid: HalfLineGrid
    samples: np.ndarray
    beta: float
    hbar: float
    p: float
    q: float

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
    default_chart = "pq"

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
        self.grid = gauss_gamma_grid(self.k - 1.0, self.k / self.center)
        # normalization of the fiducial: M^2 = k^k / Gamma(k)
        self._log_m = 0.5 * (self.k * np.log(self.k) - gammaln(self.k))

    def with_hbar(self, hbar: float) -> "AffineFamily":
        return AffineFamily(self.beta, hbar, self.center)

    def centered(self, q0: float) -> "AffineFamily":
        """Same family with the quadrature grid rescaled around q = q0."""
        return AffineFamily(self.beta, self.hbar, q0)

    def fiducial_wavefunction(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        gamma = 0.5 * (self.k - 1.0)
        return np.exp(self._log_m + gamma * np.log(x) - self.beta * x / self.hbar)

    def fiducial(self) -> AffineState:
        return self.state(0.0, 1.0)

    def state(self, p: float, q: float) -> AffineState:
        """q^(-1/2) e^(ipx/hbar) fiducial(x/q) on the family grid.

        The dilation carries the unitary q^(-1/2) prefactor.
        """
        _check_affine_point(p, q)
        g = self.grid
        x = g.nodes
        gamma = 0.5 * (self.k - 1.0)
        log_amp = (
            self._log_m
            + gamma * (np.log(x) - np.log(q))
            - self.beta * x / (q * self.hbar)
            - 0.5 * np.log(q)
        )
        samples = np.exp(log_amp + 1j * p * x / self.hbar)
        norm2 = np.vdot(samples, g.weights * samples).real
        if not abs(norm2 - 1.0) <= AFFINE_NORM_TOL:
            raise ValueError(
                f"affine state at (p, q) = ({p}, {q}) has quadrature norm^2 {norm2:.6g}, "
                f"off by more than {AFFINE_NORM_TOL:g}: its grid does not resolve it; "
                f"sample it on family.centered({q})"
            )
        return AffineState(g, samples, self.beta, self.hbar, float(p), float(q))

    def chart(self, point, margin: float, name: str):
        """(vec, inner) of the (p, q) chart on q > 0.

        The quadrature grid is rebased on the stencil center, so every
        stencil state shares one grid and one set of weights.
        """
        _check_chart(self, name, ("pq",))
        q0 = point[1]
        if q0 - margin <= 0:
            raise ChartBoundaryError(
                f"affine stencil at q = {q0} with extent {margin} crosses q = 0"
            )
        local = self.centered(q0)
        w = local.grid.weights
        return ((lambda p, q: local.state(p, q).samples),
                (lambda x, y: complex(np.sum(w * np.conj(x) * y))))

    def _log_pdf(self, x: np.ndarray, q: float) -> np.ndarray:
        rate = self.k / q
        return self.k * np.log(rate) - gammaln(self.k) + (self.k - 1.0) * np.log(x) - rate * x

    def expect_laurent(self, coeffs: dict[int, complex], p: float, q: float) -> complex:
        """Quadrature expectation of sum_e c_e x^e in the state at (p, q).

        The probability density |psi_{p,q}|^2 carries no p dependence;
        p enters only through the (complex) coefficients supplied by the
        caller.  Negative exponents shift the quadrature weight so every
        term with e >= -(k-1) is integrated exactly.
        """
        _check_affine_point(p, q)
        e_min = min(coeffs)
        shift = min(0, e_min)
        alpha = self.k - 1.0 + shift
        if alpha <= -1.0:
            raise ValueError(
                f"moment x^{e_min} diverges for shape k = {self.k}"
            )
        g = gauss_gamma_grid(alpha, self.k / q)
        pdf = np.exp(self._log_pdf(g.nodes, q))
        total = 0.0 + 0.0j
        for e, c in coeffs.items():
            total += c * g.integrate(pdf * g.nodes ** float(e))
        return complex(total)

    def expect_power(self, n: int, p: float = 0.0, q: float = 1.0) -> float:
        """<Q^n> by quadrature in the coherent state at (p, q)."""
        return float(np.real(self.expect_laurent({int(n): 1.0}, p, q)))


def affine_moment(beta: float, hbar: float, n: int) -> float:
    """Analytic fiducial moment <Q^n> = Gamma(k+n) / (Gamma(k) k^n), k = 2 beta/hbar.

    Serves as the closed-form oracle for the quadrature moments.
    """
    if beta <= 0 or hbar <= 0:
        raise ValueError("beta and hbar must be positive")
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
    default_chart = "angles"

    def __init__(self, s: float, hbar: float = 1.0):
        self.s = float(s)
        self.S1, self.S2, self.S3 = spin_operators(s, hbar)
        self.space = self.S3.space
        self._e2 = np.linalg.eigh(self.S2.matrix)
        self._m = np.arange(self.s, -self.s - 1e-9, -1.0)  # S3 eigenvalues / hbar
        self.fiducial = basis_state(self.space, 0)  # m = s is first

    @property
    def hbar(self) -> float:
        return self.space.hbar

    def with_hbar(self, hbar: float) -> "SpinFamily":
        return SpinFamily(self.s, hbar)

    def state(self, theta: float, phi: float) -> StateVector:
        if not 0.0 <= theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        if not 0.0 <= phi < 2.0 * np.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
        return self._state_unchecked(theta, phi)

    def _state_unchecked(self, theta: float, phi: float) -> StateVector:
        h = self.space.hbar
        w2, v2 = self._e2
        c = self.fiducial.coeffs
        c = v2 @ (np.exp(-1j * theta * w2 / h) * (v2.conj().T @ c))
        c = np.exp(-1j * phi * self._m) * c  # S3 is diagonal: e^(-i phi S3/h)
        return StateVector(c / np.linalg.norm(c), self.space)

    def chart(self, point, margin: float, name: str):
        """(vec, inner) of the (theta, phi) "angles" chart or the "pq" chart.

        Neither chart covers the poles; phi is not reduced mod 2*pi.
        """
        _check_chart(self, name, ("angles", "pq"))
        u = point[0]
        if name == "angles":
            if not margin < u < np.pi - margin:
                raise ChartBoundaryError(
                    f"spin stencil at theta = {u} with extent {margin} crosses a pole"
                )
            return (lambda a, b: self._state_unchecked(a, b).coeffs), _vdot
        r = np.sqrt(self.s * self.hbar)
        if not -r + margin < u < r - margin:
            raise ChartBoundaryError(
                f"spin pq-chart stencil at p = {u} crosses |p| = sqrt(s*hbar)"
            )
        return (lambda a, b: self._state_unchecked(float(np.arccos(a / r)), b / r).coeffs), _vdot


# ---------------------------------------------------------------------------


def overlap(a, b) -> complex:
    """Inner product <a|b> for states of a common family representation."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        if a.space != b.space:
            raise ValueError("states live on different spaces")
        return _vdot(a.coeffs, b.coeffs)
    if isinstance(a, AffineState) and isinstance(b, AffineState):
        if not a.grid.same_as(b.grid):
            raise ValueError("affine states sampled on different grids")
        return complex(a.grid.integrate(np.conj(a.samples) * b.samples))
    raise TypeError(f"cannot overlap {type(a).__name__} with {type(b).__name__}")
