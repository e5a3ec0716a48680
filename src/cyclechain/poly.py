"""Univariate polynomials over cycle sums: reduction, bijectivity, solving.

Every power of an element collapses by x**4 = x**2, so a polynomial
function is determined by a cubic.  Cubics whose three leading
coefficients have odd parts (0, 0, C1) are exactly the bijective ones and
can be inverted in closed form; for any other cubic a colliding pair of
inputs, and an unreachable target, are constructed and verified.

Reachability and the degeneracy witness run on the level coordinates of
one ``division.layout`` over the coefficients (and the target), where the
product is ``&``, and decode only the values they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import division
from .cycles import CycleSum, odd_lengths


@dataclass(frozen=True)
class CubicPoly:
    """a*x**3 + b*x**2 + c*x + d in canonical reduced form."""

    a: CycleSum
    b: CycleSum
    c: CycleSum
    d: CycleSum

    def coefficients(self) -> tuple[CycleSum, CycleSum, CycleSum, CycleSum]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        names = ("x^3", "x^2", "x", "")
        parts = []
        for coeff, name in zip(self.coefficients(), names):
            if coeff:
                text = f"({coeff})"
                parts.append(f"{text}*{name}" if name else text)
        return " + ".join(parts) if parts else "0"


def fold_exponent(e: int) -> int:
    """The exponent at most 3 whose power equals x**e for every x, as x**4 = x**2."""
    return e if e < 4 else 2 + (e & 1)


def fold_coeffs(coeffs: Sequence[CycleSum]) -> list[CycleSum]:
    """Fold a coefficient list (index = exponent) into the four of an
    equivalent cubic, by ``fold_exponent``."""
    folded = [CycleSum.zero()] * 4
    for e, coeff in enumerate(coeffs):
        slot = fold_exponent(e)
        folded[slot] = folded[slot] + coeff
    return folded


def reduce_poly(coeffs: Sequence[CycleSum]) -> CubicPoly:
    """Fold a coefficient list (index = exponent) into an equivalent cubic."""
    d, c, b, a = fold_coeffs(coeffs)
    return CubicPoly(a=a, b=b, c=c, d=d)


def eval_poly(p: CubicPoly, x: CycleSum) -> CycleSum:
    x2 = x * x
    return p.a * x2 * x + p.b * x2 + p.c * x + p.d


def is_bijective(p: CubicPoly) -> bool:
    """Injectivity, equivalently surjectivity, of the polynomial function."""
    return (
        not odd_lengths(p.a)
        and not odd_lengths(p.b)
        and odd_lengths(p.c) == (1,)
    )


def solve_bijective(p: CubicPoly, s: CycleSum) -> CycleSum:
    """The unique x with p(x) = s, for bijective p."""
    if not is_bijective(p):
        raise ValueError("polynomial is not bijective")
    # x = (d + s) + drift * x0: drift is the even part of a + b + c, x0 the odd part of d + s
    ds = p.d + s
    return ds + (p.a + p.b + p.c).even_part * ds.restrict_level(0)


@dataclass(frozen=True)
class DegenerateWitness:
    """Evidence that a cubic is neither injective nor surjective.

    ``collision`` is a verified pair of distinct inputs with equal values;
    ``unreached`` is a target shown unreachable, with the constraint that
    rules it out.
    """

    collision: tuple[CycleSum, CycleSum]
    unreached: CycleSum
    unreached_reason: str = ""


def _plus(zero, *xs: dict) -> dict:
    """The sum of cycle sums held as level coordinates: ``^`` per level."""
    out: dict = {}
    for X in xs:
        for i, m in X.items():
            out[i] = out.get(i, zero) ^ m
    return out


def _value(zero, A: dict, C: dict, D: dict, lead: dict, X: dict) -> dict:
    """The nonzero levels of p(x) for x = u + m, where x**2 = u and
    x**3 = u + u*m give p(x) = (a + b + c)*u + (a0*u + c0)*m + d."""
    u = X.get(0, zero)
    mu = A.get(0, zero) & u ^ C.get(0, zero)
    lead_u = {i: m & u for i, m in lead.items()}
    value = _plus(zero, D, lead_u, {i: mu & m for i, m in X.items() if i})
    return {i: m for i, m in value.items() if m}


def _collision_pair(bits: division.Coords, A: dict, B: dict, C: dict, lead: dict) -> tuple[dict, dict]:
    zero, top = bits.zero, bits.top
    a0, b0, c0 = A.get(0, zero), B.get(0, zero), C.get(0, zero)
    if (a0, c0) != (zero, top):
        # some x0 makes the even-part multiplier a0*x0 + c0 differ from C1,
        # and perturbing by that defect times C2 cannot change the value
        for x0 in (zero, top):
            mu = a0 & x0 ^ c0
            if mu != top:
                return {0: x0}, {0: x0, 1: mu ^ top}
        raise AssertionError("unreachable: some choice above must differ from C1")
    # here the even-part multiplier is identically C1 but b0 is nonzero:
    # y = b0 + drift*b0, drift the even part of a + b + c
    return {}, {i: m & b0 if i else b0 for i, m in _plus(zero, {0: zero}, lead).items()}


def is_reachable(p: CubicPoly, s: CycleSum) -> bool:
    """Exact test for the existence of x with p(x) = s.

    Write x = u + v with u its odd part (an idempotent) and v its even
    part, so x**2 = u and x**3 = u + u*v.  With r = s + d, e the odd part
    and delta the even part of a + b + c, the equation p(x) = s reads

        e*u = r0    and    (a0*u + c0)*v = r+ + delta*u,

    where r0 and r+ are the odd and even parts of r; closure below is
    ``plus_closure``, the join of all levels.  At one atom of the
    Boolean algebra of odd parts each level is F2, u is 0 or 1, and the
    atoms do not interact, so the question splits into one choice per atom.
    Choosing u = 0 fails at the atoms of

        bad0 = r0 | closure(r+) * (1 + c0),

    because then r0 must vanish and the multiplier c0 must cover every
    level of r+.  Choosing u = 1 fails at the atoms of

        bad1 = (e + r0) | closure(r+ + delta) * (1 + a0 + c0).

    So a solution exists iff no atom lies in both: bad0 * bad1 = 0.  Then
    u = bad0 is one solution's odd part.  The first test, r0 <= e, is
    implied by that product and is only a quick exit.  The formulas run on
    the level coordinates of ``division.layout(a, b, c, d, s)``.
    """
    bits, (A, B, C, D, S), _ = division.layout(p.a, p.b, p.c, p.d, s)
    return _reachable(bits, A, C, _plus(bits.zero, A, B, C), _plus(bits.zero, S, D))


def _reachable(bits: division.Coords, A: dict, C: dict, lead: dict, R: dict) -> bool:
    """``is_reachable`` on the level coordinates of a, c, a + b + c and r = s + d."""
    zero = bits.zero
    r0, r_plus = division.split(bits, R)
    e = lead.get(0, zero)
    if r0 & ~e:
        return False
    _, shifted = division.split(bits, _plus(zero, R, lead))
    bad0 = r0 | r_plus & ~C.get(0, zero)
    bad1 = (e ^ r0) | shifted & ~(A.get(0, zero) ^ C.get(0, zero))
    return not bad0 & bad1


def _unreached_target(bits: division.Coords, A: dict, C: dict, D: dict, lead: dict) -> tuple[dict, str]:
    zero, top = bits.zero, bits.top
    e = lead.get(0, zero)
    # t1 = d + C1 + C2 + drift, with drift the even part of a + b + c
    t1 = _plus(zero, D, {0: top, 1: top}, {i: m for i, m in lead.items() if i})
    if e != top:
        return t1, (
            "level-0 equation needs the combined leading coefficient "
            f"odd part to be C1, found {division.decoded(bits, e)}"
        )
    c0 = C.get(0, zero)
    if c0 != top:
        return _plus(zero, D, {1: top}), (
            "forced level-0 value 0 leaves the even levels scaled by "
            f"{division.decoded(bits, c0)}, which cannot produce C2"
        )
    # c0 = C1 and e = a0 + b0 + c0 = C1 give a0 = b0, nonzero as p is not bijective
    return t1, (
        "forced level-0 value C1 leaves the even levels scaled by "
        f"{division.decoded(bits, A.get(0, zero) ^ top)}, which cannot produce C2"
    )


def degenerate_witness(p: CubicPoly) -> DegenerateWitness:
    """Constructive refutation of bijectivity for a degenerate cubic.

    The collision pair is always produced and verified by evaluation.  The
    unreachable target follows the closed-form case split and is verified
    by the exact reachability test, both on the level coordinates of
    ``division.layout(a, b, c, d)``.
    """
    if is_bijective(p):
        raise ValueError("polynomial is bijective; no degeneracy witness")
    bits, (A, B, C, D), _ = division.layout(p.a, p.b, p.c, p.d)
    zero = bits.zero
    lead = _plus(zero, A, B, C)
    X, Y = _collision_pair(bits, A, B, C, lead)
    x, y = division.decoded_sum(bits, X), division.decoded_sum(bits, Y)
    if x == y or _value(zero, A, C, D, lead, X) != _value(zero, A, C, D, lead, Y):
        raise RuntimeError(f"internal error: constructed pair ({x}, {y}) is not a collision")
    target, reason = _unreached_target(bits, A, C, D, lead)
    unreached = division.decoded_sum(bits, target)
    if _reachable(bits, A, C, lead, _plus(zero, target, D)):
        raise RuntimeError(f"internal error: target {unreached} claimed unreachable but is hit")
    return DegenerateWitness(collision=(x, y), unreached=unreached, unreached_reason=reason)
