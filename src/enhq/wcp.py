"""Enhanced classical Hamiltonians via coherent-state expectations.

A Hamiltonian is specified as a sum of coefficient-weighted operator
words, e.g. ``0.5*P.P + 0.5*Q.Q`` or ``D.Qinv.D``.  Words are evaluated
literally, in the written order; specs must be self-adjoint as written.
Canonical letters carry exact powers of hbar (Q = sqrt(hbar) X,
P = sqrt(hbar) Y), so a word of length d scales as hbar^(d/2): the spec's
words are summed once per length into cached hbar-free matrices T_d, and
H(p, q) = sum_d hbar^(d/2) <psi|T_d psi>.  Affine words act
on the half-line representation, where D maps a state multiplied by a
Laurent polynomial R(x) to one multiplied by
-i*hbar*x*R'(x) + m(x)*R(x), with m the linear multiplier that D
induces on the coherent state itself.  The resulting Laurent polynomial
is summed against the exact Gamma moments of |<x|p,q>|^2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coherent import AffineFamily, _check_affine_point
from .hilbert import make_fock_space, momentum_operator, position_operator

__all__ = [
    "HamiltonianSpec",
    "ScalingReport",
    "ClassicalLimit",
    "parse_hamiltonian",
    "enhanced_hamiltonian",
    "cprime",
    "cprime_closed_form",
    "hbar_scaling_fit",
    "classical_limit",
]

_CLASSICAL_SYMBOLS = {
    # letter -> (p_power, q_power) of its classical symbol
    "canonical": {"P": (1, 0), "Q": (0, 1)},
    "affine": {"D": (1, 1), "Q": (0, 1), "Qinv": (0, -1)},
}

_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@dataclass(frozen=True)
class HamiltonianSpec:
    kind: str
    terms: tuple[tuple[float, tuple[str, ...]], ...]

    def __str__(self) -> str:
        return " + ".join(f"{c}*{'.'.join(w)}" for c, w in self.terms)


def parse_hamiltonian(text: str, kind: str) -> HamiltonianSpec:
    """Parse a term list like ``0.5*P.P + 0.5*Q.Q`` for the given family kind."""
    if kind not in _CLASSICAL_SYMBOLS:
        raise ValueError(f"unknown family kind {kind!r}")
    letters = tuple(_CLASSICAL_SYMBOLS[kind])
    terms = []
    for raw in re.split(r"(?<![\d.][eE])\+", text):  # not an exponent's sign
        raw = raw.strip()
        if not raw:
            raise ValueError(f"empty term in {text!r}")
        coeff = 1.0
        word_part = raw
        if "*" in raw:
            cpart, word_part = raw.split("*", 1)
            cpart = cpart.strip()
            if not _NUMBER.match(cpart):
                raise ValueError(f"bad coefficient {cpart!r} in term {raw!r}")
            coeff = float(cpart)
        word = tuple(tok.strip() for tok in word_part.split("."))
        for tok in word:
            if tok not in letters:
                raise ValueError(
                    f"operator {tok!r} not in the {kind} alphabet {letters}"
                )
        terms.append((coeff, word))
    return HamiltonianSpec(kind=kind, terms=tuple(terms))


def _formally_self_adjoint(spec: HamiltonianSpec) -> bool:
    """Words over Hermitian letters: the reversed term multiset must match."""
    fwd = sorted((round(c, 14), w) for c, w in spec.terms)
    rev = sorted((round(c, 14), tuple(reversed(w))) for c, w in spec.terms)
    return fwd == rev


@lru_cache(maxsize=64)
def _word_sums(spec: HamiltonianSpec, dim: int) -> tuple[tuple[int, np.ndarray], ...]:
    """(d, T_d) pairs: the sum of the spec's canonical words of length d,
    over the hbar = 1 letters.  Each degree scales on its own with hbar, so
    each must be Hermitian; every family of this size shares the arrays, so
    they are read-only."""
    space = make_fock_space(dim, 1.0)
    ops = {"P": momentum_operator(space), "Q": position_operator(space)}
    sums: dict[int, np.ndarray] = {}
    for coeff, word in spec.terms:
        m = np.eye(dim, dtype=complex)
        for tok in word:
            m = m @ ops[tok]
        sums[len(word)] = sums.get(len(word), 0.0) + coeff * m
    for t in sums.values():
        if np.max(np.abs(t - t.conj().T)) > 1e-10 * max(1.0, float(np.max(np.abs(t)))):
            raise ValueError(f"spec {spec} is not Hermitian as written")
        t.setflags(write=False)
    return tuple(sorted(sums.items()))


def _affine_laurent(spec: HamiltonianSpec, family: AffineFamily, p: float, q: float) -> dict:
    """Total Laurent multiplier of the word sum acting on |p,q>."""
    if not _formally_self_adjoint(spec):
        raise ValueError(f"affine spec {spec} is not self-adjoint as written")
    h = family.hbar
    m1 = p + 1j * family.beta / q  # D|p,q> = (m1*x + m0)|p,q>
    m0 = -1j * family.beta
    total: dict[int, complex] = {}
    for coeff, word in spec.terms:
        r = {0: 1.0 + 0.0j}
        for tok in reversed(word):
            if tok == "Q":
                r = {e + 1: c for e, c in r.items()}
            elif tok == "Qinv":
                r = {e - 1: c for e, c in r.items()}
            else:  # D: R -> -i h x R' + (m1 x + m0) R
                nxt: dict[int, complex] = {}
                for e, c in r.items():
                    nxt[e] = nxt.get(e, 0.0) + (-1j * h * e + m0) * c
                    nxt[e + 1] = nxt.get(e + 1, 0.0) + m1 * c
                r = nxt
        for e, c in r.items():
            total[e] = total.get(e, 0.0) + coeff * c
    return total


def enhanced_hamiltonian(spec: HamiltonianSpec, family, p: float, q: float) -> float:
    """Coherent-state expectation <p,q| H |p,q> of a canonical or affine spec."""
    if spec.kind != family.kind:
        raise ValueError(f"{spec.kind} spec applied to a {family.kind} family")
    if spec.kind == "affine":
        _check_affine_point(p, q)  # before _affine_laurent divides by q
        val = family.expect_laurent(_affine_laurent(spec, family, p, q), p, q)
    elif spec.kind == "canonical":
        sums = _word_sums(spec, family.space.dim)
        psi = family.state(p, q).coeffs
        val = sum(family.hbar ** (0.5 * d) * complex(np.vdot(psi, t @ psi)) for d, t in sums)
    else:
        raise ValueError(f"no enhanced Hamiltonian shipped for {spec.kind} specs")
    if abs(val.imag) > 1e-10 * (1.0 + abs(val)):
        raise ValueError(f"expectation of {spec} is not real: {val}")
    return float(val.real)


_DQID = HamiltonianSpec(kind="affine", terms=((1.0, ("D", "Qinv", "D")),))


def cprime(beta: float, hbar: float) -> float:
    """C' with <beta| D Q^-1 D |beta> = hbar^2 C', from the word algebra and exact moments."""
    family = AffineFamily(beta, hbar)
    val = enhanced_hamiltonian(_DQID, family, 0.0, 1.0)
    c = val / hbar**2
    if c <= 0:
        raise ValueError(f"computed C' = {c} is not positive")
    return c


def cprime_closed_form(beta: float, hbar: float) -> float:
    """Independent oracle: C' = beta^2 / (hbar (2 beta - hbar)).

    Follows from D|beta> = -i beta (1 - x)|beta> and the inverse moment
    <x^-1> = k/(k-1) of the Gamma-law fiducial density, k = 2 beta/hbar.
    """
    if beta / hbar <= 0.5:
        raise ValueError("fiducial not normalizable for beta/hbar <= 1/2")
    return beta**2 / (hbar * (2.0 * beta - hbar))


@dataclass(frozen=True)
class ClassicalLimit:
    """The hbar -> 0 surface of a spec, as a chart-point callable."""

    terms: tuple  # ((coeff, p_power, q_power), ...) for canonical/affine
    text: str

    def __call__(self, p: float, q: float) -> float:
        return float(sum(c * p**a * q**b for c, a, b in self.terms))


def classical_limit(spec: HamiltonianSpec) -> ClassicalLimit:
    """Replace each operator letter by its classical symbol.

    Canonical: P -> p, Q -> q.  Affine: D -> p*q, Q -> q, so D Q^-1 D
    becomes q p^2.
    """
    if spec.kind not in _CLASSICAL_SYMBOLS:
        raise ValueError(f"no classical limit shipped for {spec.kind} specs")
    sym = _CLASSICAL_SYMBOLS[spec.kind]
    acc: dict[tuple[int, int], float] = {}
    for coeff, word in spec.terms:
        a = b = 0
        for tok in word:
            da, db = sym[tok]
            a, b = a + da, b + db
        acc[(a, b)] = acc.get((a, b), 0.0) + coeff
    terms = tuple((c, a, b) for (a, b), c in sorted(acc.items()) if c != 0.0)
    bits = []
    for c, a, b in terms:
        mono = ""
        if a:
            mono += "p" if a == 1 else f"p^{a}"
        if b:
            mono += "q" if b == 1 else f"q^{b}"
        bits.append(f"{c:g}*{mono}" if mono else f"{c:g}")
    return ClassicalLimit(terms=terms, text=" + ".join(bits) or "0")


@dataclass(frozen=True)
class ScalingReport:
    """Least-squares log-log fit of |H(hbar) - H_classical| against hbar."""

    exponent: float
    prefactor: float
    exact: bool


def hbar_scaling_fit(spec: HamiltonianSpec, family, point, hbar_list) -> ScalingReport:
    hbars = np.asarray(sorted(hbar_list, reverse=True), dtype=float)
    if hbars.size < 4 or hbars.max() / hbars.min() < 10.0:
        raise ValueError("need at least 4 hbar values spanning a decade")
    p, q = point
    cl = classical_limit(spec)(p, q)
    diffs = []
    for h in hbars:
        fam = family.with_hbar(h)
        diffs.append(enhanced_hamiltonian(spec, fam, p, q) - cl)
    diffs = np.asarray(diffs)
    if np.all(np.abs(diffs) < 1e-14):
        return ScalingReport(exponent=float("nan"), prefactor=0.0, exact=True)
    slope, intercept = np.polyfit(np.log(hbars), np.log(np.abs(diffs)), 1)
    return ScalingReport(exponent=float(slope), prefactor=float(np.exp(intercept)), exact=False)
