"""Univariate polynomials over cycle sums: reduction, bijectivity, solving.

Every power of an element collapses by x**4 = x**2, so a polynomial
function is determined by a cubic.  Cubics whose three leading
coefficients have odd parts (0, 0, C1) are exactly the bijective ones and
can be inverted in closed form; for any other cubic a colliding pair of
inputs, and an unreachable target, are constructed and verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cycles import CycleSum, ODD_ONE, OddSet


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
        not p.a.odd_part
        and not p.b.odd_part
        and p.c.odd_part == ODD_ONE
    )


def solve_bijective(p: CubicPoly, s: CycleSum) -> CycleSum:
    """The unique x with p(x) = s, for bijective p."""
    if not is_bijective(p):
        raise ValueError("polynomial is not bijective")
    d0 = p.d.odd_part
    s0 = s.odd_part
    x0 = d0 + s0
    drift = (p.a + p.b + p.c).even_part
    x_plus = p.d.even_part + s.even_part + drift * x0.as_cycles()
    return x0.as_cycles() + x_plus


@dataclass(frozen=True)
class DegenerateWitness:
    """Evidence that a cubic is neither injective nor surjective.

    ``collision`` is a verified pair of distinct inputs with equal values;
    ``unreached`` is a target shown unreachable, with the constraint that
    rules it out.
    """

    collision: tuple[CycleSum, CycleSum]
    unreached: Optional[CycleSum]
    unreached_reason: str = ""


def _collision_pair(p: CubicPoly) -> tuple[CycleSum, CycleSum]:
    a0 = p.a.odd_part
    c0 = p.c.odd_part
    b0 = p.b.odd_part
    c2 = CycleSum.single(2)
    if (a0, c0) != (OddSet(), ODD_ONE):
        # some x0 makes the even-part multiplier a0*x0 + c0 differ from C1,
        # and perturbing by that defect times C2 cannot change the value
        for x0 in (OddSet(), ODD_ONE):
            mu = a0 * x0 + c0
            if mu != ODD_ONE:
                x = x0.as_cycles()
                return x, x + (mu + ODD_ONE).as_cycles() * c2
        raise AssertionError("unreachable: some choice above must differ from C1")
    # here the even-part multiplier is identically C1 but b0 is nonzero
    drift = (p.a + p.b + p.c).even_part
    y = b0.as_cycles() + drift * b0.as_cycles()
    return CycleSum.zero(), y


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
    implied by that product and is only a quick exit.
    """
    r = s + p.d
    r0 = r.odd_part
    lead = p.a + p.b + p.c
    e = lead.odd_part
    if e * r0 != r0:
        return False
    a0 = p.a.odd_part
    c0 = p.c.odd_part
    bad0 = r0 | (r.even_part.plus_closure * c0.complement())
    bad1 = (e + r0) | ((r + lead).even_part.plus_closure * (a0 + c0).complement())
    return not bad0 * bad1


def _unreached_target(p: CubicPoly) -> tuple[Optional[CycleSum], str]:
    e = (p.a + p.b + p.c).odd_part
    c2 = CycleSum.single(2)
    drift = (p.a + p.b + p.c).even_part
    t1 = p.d + CycleSum.one() + c2 + drift
    if e != ODD_ONE:
        return t1, (
            "level-0 equation needs the combined leading coefficient "
            f"odd part to be C1, found {e}"
        )
    c0 = p.c.odd_part
    t2 = p.d + c2
    if c0 != ODD_ONE:
        return t2, (
            "forced level-0 value 0 leaves the even levels scaled by "
            f"{c0}, which cannot produce C2"
        )
    a0 = p.a.odd_part
    if a0:
        return t1, (
            "forced level-0 value C1 leaves the even levels scaled by "
            f"{a0 + ODD_ONE}, which cannot produce C2"
        )
    return None, ""


def degenerate_witness(p: CubicPoly) -> DegenerateWitness:
    """Constructive refutation of bijectivity for a degenerate cubic.

    The collision pair is always produced and verified by evaluation.  The
    unreachable target follows the closed-form case split and is verified
    by the exact reachability test.
    """
    if is_bijective(p):
        raise ValueError("polynomial is bijective; no degeneracy witness")
    x, y = _collision_pair(p)
    if x == y or eval_poly(p, x) != eval_poly(p, y):
        raise RuntimeError(
            f"internal error: constructed pair ({x}, {y}) is not a collision"
        )
    target, reason = _unreached_target(p)
    if target is not None and is_reachable(p, target):
        raise RuntimeError(
            f"internal error: target {target} claimed unreachable but is hit"
        )
    return DegenerateWitness(collision=(x, y), unreached=target, unreached_reason=reason)
