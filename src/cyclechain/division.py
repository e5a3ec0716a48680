"""Complete solution theory for a*x = b over cycle sums mod 2.

The solution set is a product of order intervals in the idempotent
lattice, one per dyadic level: a level-0 interval obtained by folding the
per-level constraints, an explicit interval per level up to the horizon,
and a uniform tail bound above it.  Solvability, membership, the minimal
solution and a complete restricted enumeration all read off that data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .cycles import CycleSum, ODD_ONE, ODD_ZERO, OddSet
from .lattice import DivisorBits, divisor_bits, window_bits

T = TypeVar("T")
_END = object()


@dataclass(frozen=True)
class IntervalSolutionSet:
    """All solutions of a*x = b, as per-level intervals.

    Level 0 of any solution lies in [lambda0, upsilon0]; level i with
    1 <= i <= n lies in head[i-1]; every level above n is bounded above by
    tail_hi (and below by 0).  The set is nonempty iff ``solvable``.
    """

    a: CycleSum
    b: CycleSum
    solvable: bool
    lambda0: OddSet
    upsilon0: OddSet
    head: tuple[tuple[OddSet, OddSet], ...]
    tail_hi: OddSet
    n: int

    def level_interval(self, i: int) -> tuple[OddSet, OddSet]:
        """The (lo, hi) pair constraining level i of a solution."""
        if i == 0:
            return (self.lambda0, self.upsilon0)
        if i <= self.n:
            return self.head[i - 1]
        return (ODD_ZERO, self.tail_hi)


def solve(a: CycleSum, b: CycleSum) -> IntervalSolutionSet:
    """Characterise the solutions of a*x = b.

    Runs the per-level formulas in the atom coordinates of k = lcm of the
    odd parts of a and b, falling back to the set formulas when that
    layout is not worth building.
    """
    ka, na = a.stats()
    kb, nb = b.stats()
    n = max(na, nb)
    bits = divisor_bits(lcm(ka, kb), (_terms(a) + 1) * (_terms(b) + 1) * (n + 1))
    if bits is None:
        return _solve_sets(a, b, n)
    top = bits.top
    A = {i: bits.encode(odd.lengths) for i, odd in a.items()}
    B = {i: bits.encode(odd.lengths) for i, odd in b.items()}
    a0 = A.get(0, 0)
    b0 = B.get(0, 0)

    lam0 = 0
    ups0 = top
    for i in range(n + 1):
        ai = A.get(i, 0)
        bi = B.get(i, 0)
        li = bi ^ (a0 & bi) ^ (ai & b0)
        lam0 |= li
        ups0 &= li ^ ai ^ top

    def odd(x: int) -> OddSet:
        return OddSet(bits.decode(x))

    free = a0 ^ top
    head = []
    for i in range(1, n + 1):
        lo = (a0 & B.get(i, 0)) ^ (A.get(i, 0) & b0)
        head.append((odd(lo), odd(lo ^ free)))

    return IntervalSolutionSet(
        a=a,
        b=b,
        solvable=lam0 & ups0 == lam0,
        lambda0=odd(lam0),
        upsilon0=odd(ups0),
        head=tuple(head),
        tail_hi=odd(free),
        n=n,
    )


def _terms(x: CycleSum) -> int:
    return sum(len(odd) for _, odd in x.items())


def _solve_sets(a: CycleSum, b: CycleSum, n: int) -> IntervalSolutionSet:
    """``solve`` by the OddSet formulas: the path for moduli without a bit
    layout, and the reference the bit path is tested against."""
    a0 = a.odd_part
    b0 = b.odd_part

    lam0 = ODD_ZERO
    ups0 = ODD_ONE
    for i in range(n + 1):
        ai = a.level(i)
        bi = b.level(i)
        li = bi + a0 * bi + ai * b0
        ui = li + ai + ODD_ONE
        lam0 = lam0 | li
        ups0 = ups0 * ui

    head = []
    for i in range(1, n + 1):
        lo = a0 * b.level(i) + a.level(i) * b0
        head.append((lo, lo + a0 + ODD_ONE))

    return IntervalSolutionSet(
        a=a,
        b=b,
        solvable=lam0 * ups0 == lam0,
        lambda0=lam0,
        upsilon0=ups0,
        head=tuple(head),
        tail_hi=a0 + ODD_ONE,
        n=n,
    )


def min_solution(sol: IntervalSolutionSet) -> CycleSum:
    """The solution made of lower endpoints: the canonical finite one."""
    if not sol.solvable:
        raise ValueError("equation has no solution")
    levels = {0: sol.lambda0}
    for i, (lo, _) in enumerate(sol.head, start=1):
        levels[i] = lo
    return CycleSum(levels)


def membership(sol: IntervalSolutionSet, x: CycleSum) -> bool:
    """Whether x solves the equation, checked level by level.

    Works in the atom coordinates of the lcm of the equation's modulus and
    x's odd parts, since a solution may carry odd parts outside the former
    (C5 + C15 solves C3*x = 0).
    """
    if not sol.solvable:
        return False
    levels = set(range(sol.n + 1)).union(i for i, _ in x.items())
    bounds = {i: sol.level_interval(i) for i in levels}
    pairs = (_terms(x) + 1) * (1 + sum(len(lo) + len(hi) for lo, hi in bounds.values()))
    k = lcm(sol.a.stats()[0], sol.b.stats()[0], x.stats()[0])
    bits = divisor_bits(k, pairs)
    if bits is None:
        return _membership_sets(sol, x)
    X = {i: bits.encode(odd.lengths) for i, odd in x.items()}
    for i, (lo, hi) in bounds.items():
        xi = X.get(i, 0)
        if bits.encode(lo.lengths) & ~xi:
            return False
        if xi and xi & ~bits.encode(hi.lengths):
            return False
    return True


def _membership_sets(sol: IntervalSolutionSet, x: CycleSum) -> bool:
    """``membership`` by the OddSet order: the path for moduli without a
    bit layout, and the reference the bit path is tested against."""
    if not sol.solvable:
        return False
    checked = set()
    for i, xi in x.items():
        lo, hi = sol.level_interval(i)
        if not (lo <= xi and xi <= hi):
            return False
        checked.add(i)
    for i in range(sol.n + 1):
        if i in checked:
            continue
        lo, _ = sol.level_interval(i)
        if lo:
            return False
    return True


@dataclass(frozen=True)
class Annihilators:
    """Description of all z with a*z = 0.

    ``z`` annihilates iff its level 0 stays below ``odd_bound`` and its
    closure stays below ``closure_bound``; ``test`` evaluates exactly that.
    """

    a: CycleSum
    odd_bound: OddSet
    closure_bound: OddSet

    def test(self, z: CycleSum) -> bool:
        a_plus = self.a.plus_closure
        a0 = self.a.odd_part
        return not (z.odd_part * a_plus) and not (a0 * z.plus_closure)


def annihilators(a: CycleSum) -> Annihilators:
    """All z with a*z = 0: z0 below not(a closure), a0 below not(z closure)."""
    return Annihilators(
        a=a,
        odd_bound=a.plus_closure.complement(),
        closure_bound=a.odd_part.complement(),
    )


def lazy_product(factors: Sequence[Callable[[], Iterator[T]]]) -> Iterator[tuple[T, ...]]:
    """The product of the factors, lexicographically, the first factor
    outermost, without recursion.

    Each factor is a callable that makes a fresh iterator over its
    members; an inner factor is made again for every choice of the outer
    ones.  An empty factor ends the product before any factor moves past
    its first member.
    """
    iters = [make() for make in factors]
    current = [next(it, _END) for it in iters]
    if any(member is _END for member in current):
        return
    while True:
        yield tuple(current)
        i = len(iters) - 1
        while i >= 0:
            member = next(iters[i], _END)
            if member is not _END:
                current[i] = member
                break
            i -= 1
        if i < 0:
            return
        for j in range(i + 1, len(iters)):
            iters[j] = factors[j]()
            current[j] = next(iters[j])


def odd_members(
    bits: DivisorBits, lo: OddSet, hi: OddSet, t: Optional[int] = None
) -> Callable[[], Iterator[OddSet]]:
    """A factor for ``lazy_product``: the members of [lo, hi], listed in
    the atom coordinates ``bits``; with t, only those of support-size
    parity t.

    The parity is the bit at j = k.  It is the largest divisor, so the
    last free atom, and fixing it keeps the order of the other members.
    """
    x, y = bits.encode(lo.lengths), bits.encode(hi.lengths)
    if t is not None:
        parity = 1 << bits.index[bits.k]
        x, y = (x | parity, y) if t else (x, y & ~parity)
    return lambda: (OddSet(bits.decode(m)) for m in bits.members(x, y))


def enumerate_restricted(
    sol: IntervalSolutionSet, k: int, n: int
) -> Iterator[CycleSum]:
    """All solutions whose odd parts divide k and whose levels stay <= n.

    Complete for that restricted space; every emitted element is verified
    against the defining equation before being yielded.  Output order is
    lexicographic in (level, atom choice inside the k-divisor algebra).
    The listing is lazy, so the first solution costs one member per level.
    """
    if not sol.solvable:
        return
    if k < 1 or k % 2 == 0:
        raise ValueError(f"odd k required, got {k}")
    ka, _ = sol.a.stats()
    kb, _ = sol.b.stats()
    if k % lcm(ka, kb) != 0:
        raise ValueError(
            f"k={k} must be a multiple of lcm({ka}, {kb}); "
            "restriction would be unsound"
        )
    if n < max(sol.a.max_level, sol.b.max_level):
        raise ValueError("level bound below the inputs' own levels")

    bits = window_bits(k)
    factors = [odd_members(bits, *sol.level_interval(i)) for i in range(n + 1)]
    for levels in lazy_product(factors):
        x = CycleSum._make({i: odd for i, odd in enumerate(levels) if odd})
        if sol.a * x != sol.b:
            raise RuntimeError(
                f"internal error: candidate {x} fails verification"
            )
        yield x


def interval_has_parity(lo: OddSet, hi: OddSet, t: int) -> bool:
    """Whether [lo, hi] contains an element of support-size parity t.

    The interval is lo + w over w below hi*not(lo); a strict-parity
    element exists among the w's iff that bound has odd support size,
    so the reachable parities are lo's own, plus both when the bound is
    odd-sized.  Support parity is the atom-coordinate bit at j = k, where
    the product is ``&``, so the bound's parity is hi's and not lo's.
    Assumes the interval is nonempty.
    """
    if lo.parity == t:
        return True
    return hi.parity == 1 and lo.parity == 0
