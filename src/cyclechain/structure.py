"""Classification of cycle sums and the structure of their multiplication.

Every cycle sum splits as x = a + m: the odd part a (level 0) is an
idempotent and the even part m (levels >= 1) squares to zero, so the ring
is the idealization B ⋉ M of the Boolean ring B of odd parts (Nagata).
Hence x**2 = a and x**3 = a + a*m, and every structure question reads the
one product a*m:

- units are the elements with a = C1;
- x is regular (x**3 = x) iff a*m = m;
- x is co-regular (a annihilates every higher level) iff a*m = 0;
- each mutual-divisibility class contains exactly one co-regular element,
  x + x**2 + x**3 = x + a*m, which gives a second route to the
  divisibility relation used as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import division
from .cycles import CycleSum, ODD_ONE, OddSet


@dataclass(frozen=True)
class Classification:
    is_unit: bool
    is_idempotent: bool
    is_regular: bool
    is_coregular: bool
    plus_closure: OddSet
    coregular_rep: CycleSum


def _odd_times_even(x: CycleSum) -> CycleSum:
    """a*m for x = a + m split into its odd and even parts: one product per level."""
    return x.odd_part.as_cycles() * x.even_part


def coregular_representative(x: CycleSum) -> CycleSum:
    """x + x**2 + x**3 = x + a*m: the co-regular element sharing x's principal ideal."""
    return x + _odd_times_even(x)


def is_unit(x: CycleSum) -> bool:
    return x.odd_part == ODD_ONE


def is_regular(x: CycleSum) -> bool:
    """x**3 = x, which is a*m = m."""
    return _odd_times_even(x) == x.even_part


def is_coregular(x: CycleSum) -> bool:
    """a*m = 0: the odd part annihilates every higher level."""
    return not _odd_times_even(x)


def classify(x: CycleSum) -> Classification:
    am = _odd_times_even(x)
    return Classification(
        is_unit=is_unit(x),
        is_idempotent=x.is_idempotent,
        is_regular=am == x.even_part,
        is_coregular=not am,
        plus_closure=x.plus_closure,
        coregular_rep=x + am,
    )


RELATIONS = ("R", "Rstar", "Rtilde")


def green(x: CycleSum, y: CycleSum, relation: str) -> bool:
    """Divisibility-style equivalences on the multiplicative semigroup.

    "Rtilde": same fixing idempotents (equal closures).
    "Rstar": additionally equal odd parts (same cancellation behaviour).
    "R": mutual divisibility; decided by the closure formula and
    cross-checked against equality of co-regular representatives.
    """
    if relation == "Rtilde":
        return x.plus_closure == y.plus_closure
    if relation == "Rstar":
        return x.plus_closure == y.plus_closure and x.odd_part == y.odd_part
    if relation == "R":
        x0 = x.odd_part
        by_formula = x0 == y.odd_part and (x + y).plus_closure <= x0
        by_rep = coregular_representative(x) == coregular_representative(y)
        if by_formula != by_rep:
            raise RuntimeError(
                "internal error: the two mutual-divisibility criteria "
                f"disagree on ({x}, {y})"
            )
        return by_formula
    raise ValueError(f"unknown relation {relation!r}; expected one of {RELATIONS}")


def ideal_reduce(x: CycleSum, y: CycleSum) -> tuple[CycleSum, CycleSum]:
    """Replace (x, y) by (x*yc, y*xc) without changing the ideal meet.

    The two results have equal closures; that postcondition is checked.
    """
    alpha = x * y.plus_closure.as_cycles()
    beta = y * x.plus_closure.as_cycles()
    if alpha.plus_closure != beta.plus_closure:
        raise RuntimeError(
            f"internal error: reduced pair ({alpha}, {beta}) has unequal closures"
        )
    return alpha, beta


@dataclass(frozen=True)
class IdealMeetResult:
    """Intersection of two principal ideals: a generator when we know one."""

    kind: str  # "principal" | "unknown"
    generator: Optional[CycleSum] = None


def ideal_intersect(x: CycleSum, y: CycleSum) -> IdealMeetResult:
    """Try to exhibit the intersection of the ideals of x and y as principal.

    Covers the regular case (generator x*y) and the case where the reduced
    pair multiplies to zero; whether the intersection is always principal
    is open, hence the honest "unknown" fallback.  Any returned generator
    is verified to be divisible by both x and y.
    """
    if is_regular(x) or is_regular(y):
        return _verified(x, y, x * y)
    alpha, beta = ideal_reduce(x, y)
    if not alpha * beta:
        gamma = (CycleSum.one() + (alpha + beta).plus_closure.as_cycles()) * alpha
        return _verified(x, y, gamma)
    return IdealMeetResult(kind="unknown")


def _verified(x: CycleSum, y: CycleSum, g: CycleSum) -> IdealMeetResult:
    for divisor in (x, y):
        if not division.solve(divisor, g).solvable:
            raise RuntimeError(
                f"internal error: claimed generator {g} is not a multiple of {divisor}"
            )
    return IdealMeetResult(kind="principal", generator=g)
