"""Finite-dimensional Hilbert-space engine.

Builds truncated Fock spaces and spin spaces, the basic Hermitian
operators living on them, unitaries generated by those operators, and
expectation values.  Everything is a dense complex matrix; all values
are immutable after construction.

Conventions: the ladder operator is a = (Q + iP) / sqrt(2*hbar), so the
Fock ground state is annihilated by Q + iP and has
<0|Q^2|0> = <0|P^2|0> = hbar/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HilbertSpace",
    "Operator",
    "StateVector",
    "make_fock_space",
    "annihilation_operator",
    "position_operator",
    "momentum_operator",
    "dilation_operator",
    "spin_operators",
    "spin_space",
    "unitary_from_hermitian",
    "expectation",
    "basis_state",
    "squeezed_ground_state",
]

HERMITIAN_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HilbertSpace:
    """A finite basis: Fock truncation or spin multiplet."""

    dim: int
    hbar: float
    kind: str  # "fock" | "spin"

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if not 0 < self.hbar < np.inf:
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if self.kind not in ("fock", "spin"):
            raise ValueError(f"unknown space kind {self.kind!r}")


@dataclass(frozen=True)
class Operator:
    matrix: np.ndarray
    space: HilbertSpace

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match dim {self.space.dim}"
            )
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def is_hermitian(self) -> bool:
        return bool(
            np.max(np.abs(self.matrix - self.matrix.conj().T)) < HERMITIAN_TOL * max(1.0, float(np.max(np.abs(self.matrix))))
        )

    def __matmul__(self, other: "Operator") -> "Operator":
        if other.space != self.space:
            raise ValueError("operators live on different spaces")
        return Operator(self.matrix @ other.matrix, self.space)


@dataclass(frozen=True)
class StateVector:
    coeffs: np.ndarray
    space: HilbertSpace

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).ravel()
        if c.shape != (self.space.dim,):
            raise ValueError(
                f"coefficient length {c.shape} does not match dim {self.space.dim}"
            )
        n = np.linalg.norm(c)
        if not abs(n - 1.0) <= 1e-10:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(n - 1.0):.3e}")
        object.__setattr__(self, "coeffs", _frozen(c))


def make_fock_space(N: int, hbar: float) -> HilbertSpace:
    """Truncated Fock space with N levels |0> .. |N-1>."""
    return HilbertSpace(dim=int(N), hbar=float(hbar), kind="fock")


def _check_fock(space: HilbertSpace) -> None:
    if space.kind != "fock":
        raise ValueError(f"expected a fock-kind space, got {space.kind!r}")


def annihilation_operator(space: HilbertSpace) -> Operator:
    """Ladder operator a with a|n> = sqrt(n)|n-1>."""
    _check_fock(space)
    m = np.diag(np.sqrt(np.arange(1, space.dim, dtype=float)), k=1)
    return Operator(m.astype(complex), space)


def position_operator(space: HilbertSpace) -> Operator:
    """Q = sqrt(hbar/2) (a + a^dag)."""
    _check_fock(space)
    a = annihilation_operator(space).matrix
    return Operator(np.sqrt(space.hbar / 2.0) * (a + a.conj().T), space)


def momentum_operator(space: HilbertSpace) -> Operator:
    """P = sqrt(hbar/2) (a - a^dag) / i."""
    _check_fock(space)
    a = annihilation_operator(space).matrix
    return Operator(np.sqrt(space.hbar / 2.0) * (a - a.conj().T) / 1j, space)


def dilation_operator(space: HilbertSpace) -> Operator:
    """D = (QP + PQ)/2, the generator of dilations."""
    _check_fock(space)
    q = position_operator(space).matrix
    p = momentum_operator(space).matrix
    return Operator(0.5 * (q @ p + p @ q), space)


def spin_space(s: float, hbar: float) -> HilbertSpace:
    two_s = 2.0 * s
    if s <= 0 or abs(two_s - round(two_s)) > 1e-9:
        raise ValueError(f"spin must be a positive half-integer, got {s}")
    return HilbertSpace(dim=int(round(two_s)) + 1, hbar=float(hbar), kind="spin")


def spin_operators(s: float, hbar: float) -> tuple[Operator, Operator, Operator]:
    """Irreducible spin triple (S1, S2, S3) with [S1,S2] = i*hbar*S3.

    Basis ordering is m = s, s-1, ..., -s, so S3 is diagonal with
    decreasing eigenvalues m*hbar.
    """
    space = spin_space(s, hbar)
    m = np.arange(s, -s - 1e-9, -1.0)
    s3 = np.diag(hbar * m).astype(complex)
    # S+ |s,m> = hbar sqrt(s(s+1) - m(m+1)) |s,m+1>
    below = m[1:]  # source m for each raising step
    sp = np.diag(hbar * np.sqrt(s * (s + 1) - below * (below + 1)), k=1).astype(complex)
    sm = sp.conj().T
    s1 = (sp + sm) / 2.0
    s2 = (sp - sm) / 2j
    return (Operator(s1, space), Operator(s2, space), Operator(s3, space))


def unitary_from_hermitian(A: Operator, c: float) -> Operator:
    """exp(i*c*A) via eigendecomposition of the Hermitian A."""
    if not A.is_hermitian:
        raise ValueError("operator is not Hermitian; cannot exponentiate unitarily")
    w, v = np.linalg.eigh(A.matrix)
    u = (v * np.exp(1j * c * w)) @ v.conj().T
    return Operator(u, A.space)


def expectation(psi: StateVector, A: Operator) -> complex:
    """<psi|A|psi>."""
    if A.space != psi.space:
        raise ValueError("operator and state live on different spaces")
    return complex(np.vdot(psi.coeffs, A.matrix @ psi.coeffs))


def basis_state(space: HilbertSpace, n: int) -> StateVector:
    if not 0 <= n < space.dim:
        raise ValueError(f"basis index {n} out of range for dim {space.dim}")
    c = np.zeros(space.dim, dtype=complex)
    c[n] = 1.0
    return StateVector(c, space)


def squeezed_ground_state(space: HilbertSpace, lam: float) -> StateVector:
    """Normalized kernel vector of (Q/lam + i*lam*P).

    Found as the lowest eigenvector of b^dag b, where b is the
    squeezed annihilator; reduces to the Fock ground state at lam = 1.
    """
    _check_fock(space)
    if lam <= 0:
        raise ValueError("squeeze parameter must be positive")
    q = position_operator(space).matrix
    p = momentum_operator(space).matrix
    b = (q / lam + 1j * lam * p) / np.sqrt(2.0 * space.hbar)
    w, v = np.linalg.eigh(b.conj().T @ b)
    c = v[:, np.argmin(w)]
    # fix the overall phase so the |0> component is real positive
    k = int(np.argmax(np.abs(c)))
    c = c * np.exp(-1j * np.angle(c[k]))
    return StateVector(c / np.linalg.norm(c), space)
