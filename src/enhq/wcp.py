"""Enhanced classical Hamiltonians via coherent-state expectations.

A Hamiltonian is specified as a sum of coefficient-weighted operator
words, e.g. ``0.5*P.P + 0.5*Q.Q`` or ``D.Qinv.D``.  Words are evaluated
literally, in the written order; specs must be self-adjoint as written.
Canonical words use H(p, q) = <fiducial|H(P + p, Q + q)|fiducial>: the
shifted letters sqrt(hbar) X + q and sqrt(hbar) Y + p act right to left on
the fiducial in a Fock space one word longer than its support, where the
hbar-free X = Q/sqrt(hbar) and Y = P/sqrt(hbar) act exactly.  Affine words act
on the half-line representation, where D maps a state multiplied by a
Laurent polynomial R(x) to one multiplied by
-i*hbar*x*R'(x) + m(x)*R(x), with m the linear multiplier that D
induces on the coherent state itself.  The resulting Laurent polynomial
is summed against the exact Gamma moments of |<x|p,q>|^2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .coherent import AffineFamily, _check_affine_point
from .hilbert import _frozen, make_fock_space, momentum_operator, position_operator

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

FIT_ROUNDING = 16.0  # bound on the rounding of H - H_classical, in eps times its terms' sizes

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
                raise ValueError(f"operator {tok!r} not in the {kind} alphabet {letters}")
        terms.append((coeff, word))
    return HamiltonianSpec(kind=kind, terms=tuple(terms))


def _formally_self_adjoint(spec: HamiltonianSpec) -> bool:
    """Words over Hermitian letters: each word's summed coefficient must match its reverse's."""
    acc: dict[tuple[str, ...], float] = {}
    for c, w in spec.terms:
        acc[w] = acc.get(w, 0.0) + c
    return all(round(c, 14) == round(acc.get(w[::-1], 0.0), 14) for w, c in acc.items())


def _word_sum(spec: HamiltonianSpec, start, letter, read):
    """Sum of coeff * read(v), v the word applied to start by v = letter(v, tok), right to left."""
    return sum(coeff * read(reduce(letter, reversed(word), start)) for coeff, word in spec.terms)


@lru_cache(maxsize=64)
def _letters(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X = Q/sqrt(hbar), Y = P/sqrt(hbar) and 1 on dim Fock levels, shared read-only."""
    space = make_fock_space(dim, 1.0)
    return position_operator(space), momentum_operator(space), _frozen(np.eye(dim))


def _affine_letter(family: AffineFamily, p: float, q: float):
    """Each letter's action on the Laurent multiplier R(x) of a state R(x)|p,q>."""
    h, m0 = family.hbar, -1j * family.beta
    m1 = p + 1j * family.beta / q  # D|p,q> = (m1*x + m0)|p,q>

    def letter(r, tok):
        if tok != "D":  # Q and Qinv shift the exponent
            return {e + (1 if tok == "Q" else -1): c for e, c in r.items()}
        nxt: dict[int, complex] = {}  # D: R -> -i h x R' + (m1 x + m0) R
        for e, c in r.items():
            nxt[e] = nxt.get(e, 0.0) + (-1j * h * e + m0) * c
            nxt[e + 1] = nxt.get(e + 1, 0.0) + m1 * c
        return nxt

    return letter


def enhanced_hamiltonian(spec: HamiltonianSpec, family, p: float, q: float) -> float:
    """Coherent-state expectation <p,q| H |p,q> of a canonical or affine spec."""
    if spec.kind != family.kind:
        raise ValueError(f"{spec.kind} spec applied to a {family.kind} family")
    if spec.kind not in _CLASSICAL_SYMBOLS:
        raise ValueError(f"no enhanced Hamiltonian shipped for {spec.kind} specs")
    if not _formally_self_adjoint(spec):
        raise ValueError(f"{spec.kind} spec {spec} is not self-adjoint as written")
    if spec.kind == "affine":
        _check_affine_point(p, q)  # before the D letter divides by q
        val = _word_sum(spec, {0: 1.0 + 0.0j}, _affine_letter(family, p, q),
                        lambda r: family.expect_laurent(r, p, q))
    else:  # <fiducial|H(P + p, Q + q)|fiducial>; a word of length d lifts a level by <= d
        fid = family.fiducial.coeffs
        n = np.flatnonzero(fid)[-1] + 1
        x, y, one = _letters(n + max(len(w) for _, w in spec.terms))
        eta, root = np.zeros(len(one), dtype=complex), np.sqrt(family.hbar)
        eta[:n] = fid[:n]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
            shifted = {"Q": root * x + q * one, "P": root * y + p * one}
            val = _word_sum(spec, eta, lambda v, tok: shifted[tok] @ v, lambda v: np.vdot(eta, v))
    if not (np.isfinite(val) and abs(val.imag) <= 1e-10 * (1.0 + abs(val))):
        raise ValueError(f"<p,q|{spec}|p,q> at (p, q) = ({p}, {q}) is not finite and real: {val}")
    return float(val.real)


_DQID = HamiltonianSpec(kind="affine", terms=((1.0, ("D", "Qinv", "D")),))


def cprime(beta: float, hbar: float) -> float:
    """C' with <beta| D Q^-1 D |beta> = hbar^2 C', from the word algebra and exact moments."""
    c = enhanced_hamiltonian(_DQID, AffineFamily(beta, hbar), 0.0, 1.0) / hbar**2
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
    power = lambda x, n: "" if n == 0 else x if n == 1 else f"{x}^{n}"  # noqa: E731
    bits = [f"{c:g}*{power('p', a)}{power('q', b)}" if a or b else f"{c:g}" for c, a, b in terms]
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
    diffs = np.abs([enhanced_hamiltonian(spec, family.with_hbar(h), p, q) - cl for h in hbars])
    # "exact" needs each |H - H_cl| below 1e-14 and a rounding floor below 1e-12,
    # so that a correction above 1e-12 would have shown
    size = classical_limit(HamiltonianSpec(spec.kind, tuple((abs(c), w) for c, w in spec.terms)))
    floor = FIT_ROUNDING * np.finfo(float).eps * size(abs(p), abs(q))
    if np.all(diffs < 1e-14) and floor < 1e-12:
        return ScalingReport(exponent=float("nan"), prefactor=0.0, exact=True)
    if not np.all(diffs > floor):
        raise ValueError(f"hbar fit at (p, q) = ({p}, {q}): |H - H_classical| = {diffs.min():.3g}"
                         f" is not above the rounding {floor:.3g} of H_classical = {cl:g}")
    slope, intercept = np.polyfit(np.log(hbars), np.log(diffs), 1)
    return ScalingReport(exponent=float(slope), prefactor=float(np.exp(intercept)), exact=False)
