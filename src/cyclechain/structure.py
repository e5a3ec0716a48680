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

``classify``, ``green`` and ``ideal_intersect`` read these forms from the
per-level coordinates of one ``division.layout`` over the operands, where
the product is ``&``: the masks of a ``DivisorBits`` layout over a coprime
base of their odd parts, or the ``OddSet`` values themselves when that
layout is too large.  Each has one body for both.  With a the level-0 coordinate
and M the OR of those of levels >= 1, x is regular iff M & ~a = 0 and
co-regular iff M & a = 0, its closure is a | M, and its co-regular
representative maps each level m_i >= 1 to m_i & ~a.  Only returned
values are decoded.  The solvers of ``division`` and ``poly.is_reachable``
and ``poly.degenerate_witness`` run on the same coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Optional

from . import division
from .cycles import CycleSum, OddSet, odd_lengths


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
    return x.restrict_level(0) * x.even_part


def coregular_representative(x: CycleSum) -> CycleSum:
    """x + x**2 + x**3 = x + a*m: the co-regular element sharing x's principal ideal."""
    return x + _odd_times_even(x)


def is_unit(x: CycleSum) -> bool:
    return odd_lengths(x) == (1,)


def is_regular(x: CycleSum) -> bool:
    """x**3 = x, which is a*m = m."""
    return _odd_times_even(x) == x.even_part


def is_coregular(x: CycleSum) -> bool:
    """a*m = 0: the odd part annihilates every higher level."""
    return not _odd_times_even(x)


def classify(x: CycleSum) -> Classification:
    bits, (X,), _ = division.layout(x)
    a, M = division.split(bits, X)
    rep = x
    if M & a:
        rep = division.decoded_sum(bits, {i: m & ~a if i else m for i, m in X.items()})
    return Classification(
        is_unit=is_unit(x),
        is_idempotent=x.is_idempotent,
        is_regular=not M & ~a,
        is_coregular=not M & a,
        plus_closure=division.decoded(bits, a | M),
        coregular_rep=rep,
    )


RELATIONS = ("R", "Rstar", "Rtilde")


def green(x: CycleSum, y: CycleSum, relation: str) -> bool:
    """Divisibility-style equivalences on the multiplicative semigroup.

    "Rtilde": same fixing idempotents (equal closures).
    "Rstar": additionally equal odd parts (same cancellation behaviour).
    "R": mutual divisibility; decided by the closure formula and
    cross-checked against equality of co-regular representatives.
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}; expected one of {RELATIONS}")
    bits, (X, Y), _ = division.layout(x, y)
    zero = bits.zero
    a, M = division.split(bits, X)
    b, N = division.split(bits, Y)
    if relation == "Rtilde":
        return a | M == b | N
    if relation == "Rstar":
        return a | M == b | N and a == b
    levels = X.keys() | Y.keys()
    closure_of_sum = reduce(or_, (X.get(i, zero) ^ Y.get(i, zero) for i in levels), zero)
    by_formula = a == b and not closure_of_sum & ~a
    by_rep = a == b and all(X.get(i, zero) & ~a == Y.get(i, zero) & ~b for i in levels if i)
    return _cross_checked(x, y, by_formula, by_rep)


def _cross_checked(x: CycleSum, y: CycleSum, by_formula: bool, by_rep: bool) -> bool:
    if by_formula != by_rep:
        raise RuntimeError(
            "internal error: the two mutual-divisibility criteria "
            f"disagree on ({x}, {y})"
        )
    return by_formula


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

    In coordinates, with x = a + m and y = b + n: x*y is a & b at level 0
    and a & n_i ^ m_i & b at level i; the reduced pair is alpha_i = x_i &
    closure(y) and beta_i = y_i & closure(x); and the generator of the
    second case is alpha_i & ~s, s the OR of the alpha_i ^ beta_i.
    """
    bits, (X, Y), _ = division.layout(x, y)
    zero = bits.zero
    a, M = division.split(bits, X)
    b, N = division.split(bits, Y)
    levels = X.keys() | Y.keys()
    if not M & ~a or not N & ~b:
        product = {0: a & b}
        for i in levels - {0}:
            product[i] = a & Y.get(i, zero) ^ X.get(i, zero) & b
        return _verified(x, y, division.decoded_sum(bits, product))
    alpha = {i: m & (b | N) for i, m in X.items()}
    beta = {i: m & (a | M) for i, m in Y.items()}
    if reduce(or_, alpha.values(), zero) != reduce(or_, beta.values(), zero):
        pair = f"({division.decoded_sum(bits, alpha)}, {division.decoded_sum(bits, beta)})"
        raise RuntimeError(f"internal error: reduced pair {pair} has unequal closures")
    a0, b0 = alpha.get(0, zero), beta.get(0, zero)
    if a0 & b0 or any(a0 & beta.get(i, zero) ^ alpha.get(i, zero) & b0 for i in levels if i):
        return IdealMeetResult(kind="unknown")
    s = reduce(or_, (alpha.get(i, zero) ^ beta.get(i, zero) for i in levels), zero)
    return _verified(x, y, division.decoded_sum(bits, {i: m & ~s for i, m in alpha.items()}))


def _verified(x: CycleSum, y: CycleSum, g: CycleSum) -> IdealMeetResult:
    for divisor in (x, y):
        if not division.solve(divisor, g).solvable:
            raise RuntimeError(
                f"internal error: claimed generator {g} is not a multiple of {divisor}"
            )
    return IdealMeetResult(kind="principal", generator=g)
