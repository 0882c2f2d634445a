"""Finite-dimensional Hilbert-space engine.

Builds truncated Fock spaces and spin spaces, the basic Hermitian
operators on the Fock space, and expectation values.  An operator is a
read-only complex (dim, dim) array: the operators never change, and
callers share them.  States are immutable after construction.

Conventions: the ladder operator is a = (Q + iP) / sqrt(2*hbar), so the
Fock ground state is annihilated by Q + iP and has
<0|Q^2|0> = <0|P^2|0> = hbar/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HilbertSpace",
    "StateVector",
    "make_fock_space",
    "annihilation_operator",
    "position_operator",
    "momentum_operator",
    "dilation_operator",
    "spin_space",
    "expectation",
    "basis_state",
]


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


def annihilation_operator(space: HilbertSpace) -> np.ndarray:
    """Ladder operator a with a|n> = sqrt(n)|n-1>."""
    _check_fock(space)
    m = np.diag(np.sqrt(np.arange(1, space.dim, dtype=float)), k=1)
    return _frozen(m.astype(complex))


def position_operator(space: HilbertSpace) -> np.ndarray:
    """Q = sqrt(hbar/2) (a + a^dag)."""
    _check_fock(space)
    a = annihilation_operator(space)
    return _frozen(np.sqrt(space.hbar / 2.0) * (a + a.conj().T))


def momentum_operator(space: HilbertSpace) -> np.ndarray:
    """P = sqrt(hbar/2) (a - a^dag) / i."""
    _check_fock(space)
    a = annihilation_operator(space)
    return _frozen(np.sqrt(space.hbar / 2.0) * (a - a.conj().T) / 1j)


def dilation_operator(space: HilbertSpace) -> np.ndarray:
    """D = (QP + PQ)/2, the generator of dilations."""
    _check_fock(space)
    q, p = position_operator(space), momentum_operator(space)
    return _frozen(0.5 * (q @ p + p @ q))


def spin_space(s: float, hbar: float) -> HilbertSpace:
    two_s = 2.0 * s
    if s <= 0 or abs(two_s - round(two_s)) > 1e-9:
        raise ValueError(f"spin must be a positive half-integer, got {s}")
    return HilbertSpace(dim=int(round(two_s)) + 1, hbar=float(hbar), kind="spin")


def expectation(psi: StateVector, A: np.ndarray) -> complex:
    """<psi|A|psi> for a (dim, dim) array A."""
    if A.shape != (psi.space.dim,) * 2:
        raise ValueError(f"operator shape {A.shape} does not match dim {psi.space.dim}")
    return complex(np.vdot(psi.coeffs, A @ psi.coeffs))


def basis_state(space: HilbertSpace, n: int) -> StateVector:
    if not 0 <= n < space.dim:
        raise ValueError(f"basis index {n} out of range for dim {space.dim}")
    c = np.zeros(space.dim, dtype=complex)
    c[n] = 1.0
    return StateVector(c, space)
