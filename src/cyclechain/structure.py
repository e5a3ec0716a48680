"""Classification of cycle sums and the structure of their multiplication.

Units are the elements whose odd part is C1; regular elements satisfy
x**3 = x; co-regular ones have an odd part annihilating every higher
level.  Each mutual-divisibility class contains exactly one co-regular
element, x + x**2 + x**3, which gives a second route to the divisibility
relation used as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import division
from .cycles import CycleSum, ODD_ONE, OddSet
from .lattice import divisors


@dataclass(frozen=True)
class Classification:
    is_unit: bool
    is_idempotent: bool
    is_regular: bool
    is_coregular: bool
    plus_closure: OddSet
    coregular_rep: CycleSum


def coregular_representative(x: CycleSum) -> CycleSum:
    """x + x**2 + x**3: the co-regular element sharing x's principal ideal."""
    x2 = x * x
    return x + x2 + x2 * x


def is_unit(x: CycleSum) -> bool:
    return x.odd_part == ODD_ONE


def is_regular(x: CycleSum) -> bool:
    return x * x * x == x


def is_coregular(x: CycleSum) -> bool:
    x0 = x.odd_part
    return all(not (x0 * xi) for i, xi in x.items() if i >= 1)


def classify(x: CycleSum) -> Classification:
    return Classification(
        is_unit=is_unit(x),
        is_idempotent=x.is_idempotent,
        is_regular=is_regular(x),
        is_coregular=is_coregular(x),
        plus_closure=x.plus_closure,
        coregular_rep=coregular_representative(x),
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


def restriction_identity_check(a: CycleSum, e: OddSet) -> bool:
    """Whether a*e equals (a*e)+closure times a (it always should)."""
    ae = a * e.as_cycles()
    return ae == ae.plus_closure.as_cycles() * a


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


def probe_ideal_intersection(
    x: CycleSum, y: CycleSum, k: int, n: int, candidates: int = 1 << 14
) -> Optional[CycleSum]:
    """Bounded search for a single generator of the ideal intersection.

    Scans the elements m of the restricted space (odd parts dividing k,
    levels <= n) that both x and y divide, and returns one that itself
    divides all of them, or None if no such element exists in the space.
    Exponential in the space size; a diagnostic tool only.
    """
    lat = divisor_lattice_universe(k, n)
    if len(lat) > 24:
        raise ValueError("restricted space too large to probe")
    members = []
    for bits in range(1 << len(lat)):
        m = CycleSum.from_lengths(
            [lat[t] for t in range(len(lat)) if bits >> t & 1]
        )
        if division.solve(x, m).solvable and division.solve(y, m).solvable:
            members.append(m)
        if len(members) > candidates:
            raise ValueError("too many common multiples to probe")
    for g in members:
        if all(division.solve(g, m).solvable for m in members):
            return g
    return None


def divisor_lattice_universe(k: int, n: int) -> tuple[int, ...]:
    """All cycle lengths with odd part dividing k and level at most n."""
    return tuple(sorted(q << i for q in divisors(k) for i in range(n + 1)))
