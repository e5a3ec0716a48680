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


class IntervalSolutionSet:
    """All solutions of a*x = b, as per-level intervals.

    Level 0 of any solution lies in [lambda0, upsilon0]; level i with
    1 <= i <= n lies in head[i-1]; every level above n is bounded above by
    tail_hi (and below by 0).  The set is nonempty iff ``solvable``.

    The endpoints are held in the coordinates of ``bits``: as masks of
    that ``DivisorBits`` layout, or as ``OddSet`` values when it is None.
    A mask is decoded the first time its endpoint is read, and the
    ``OddSet`` kept.  Equality, hash and repr go by the decoded values, so
    a set from either path equals the other and prints the same.
    """

    __slots__ = ("a", "b", "solvable", "n", "bits", "_lam0", "_ups0", "_head", "_free", "_decoded")

    def __init__(self, a: CycleSum, b: CycleSum, solvable: bool, lambda0, upsilon0,
                 head: tuple, tail_hi, n: int, bits: Optional[DivisorBits] = None):
        self.a = a
        self.b = b
        self.solvable = solvable
        self.n = n
        self.bits = bits
        self._lam0 = lambda0
        self._ups0 = upsilon0
        self._head = head
        self._free = tail_hi
        self._decoded: dict[int, OddSet] = {}

    def _odd(self, x) -> OddSet:
        if self.bits is None:
            return x
        odd = self._decoded.get(x)
        if odd is None:
            odd = self._decoded[x] = OddSet._make(frozenset(self.bits.decode(x)))
        return odd

    lambda0 = property(lambda self: self._odd(self._lam0))
    upsilon0 = property(lambda self: self._odd(self._ups0))
    head = property(lambda self: tuple((self._odd(lo), self._odd(hi)) for lo, hi in self._head))
    tail_hi = property(lambda self: self._odd(self._free))

    def level_coords(self, i: int) -> tuple:
        """The (lo, hi) pair constraining level i, in the coordinates of ``bits``."""
        if i == 0:
            return (self._lam0, self._ups0)
        if i <= self.n:
            return self._head[i - 1]
        return (ODD_ZERO if self.bits is None else 0, self._free)

    def level_interval(self, i: int) -> tuple[OddSet, OddSet]:
        """The (lo, hi) pair constraining level i of a solution."""
        lo, hi = self.level_coords(i)
        return (self._odd(lo), self._odd(hi))

    _FIELDS = ("a", "b", "solvable", "lambda0", "upsilon0", "head", "tail_hi", "n")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSolutionSet):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({body})"


def solve(a: CycleSum, b: CycleSum) -> IntervalSolutionSet:
    """Characterise the solutions of a*x = b.

    Runs the per-level formulas in the atom coordinates of k = lcm of the
    odd parts of a and b, and keeps the endpoints as masks of that layout;
    falls back to the set formulas when the layout is not worth building.
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

    free = a0 ^ top
    head = []
    for i in range(1, n + 1):
        lo = (a0 & B.get(i, 0)) ^ (A.get(i, 0) & b0)
        head.append((lo, lo ^ free))
    return IntervalSolutionSet(a, b, lam0 & ups0 == lam0, lam0, ups0, tuple(head), free, n, bits)


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

    return IntervalSolutionSet(a, b, lam0 * ups0 == lam0, lam0, ups0, tuple(head), a0 + ODD_ONE, n)


def min_solution(sol: IntervalSolutionSet) -> CycleSum:
    """The solution made of lower endpoints: the canonical finite one."""
    if not sol.solvable:
        raise ValueError("equation has no solution")
    lows = (sol.level_coords(i)[0] for i in range(sol.n + 1))
    return CycleSum._make({i: sol._odd(lo) for i, lo in enumerate(lows) if lo})


def membership(sol: IntervalSolutionSet, x: CycleSum) -> bool:
    """Whether x solves the equation, checked level by level.

    When x's odd parts divide the modulus of the solution's layout, x is
    encoded in it and compared with the stored masks.  Otherwise this works
    in the atom coordinates of the lcm of the equation's modulus and x's
    odd parts, since a solution may carry odd parts outside the former
    (C5 + C15 solves C3*x = 0).
    """
    if not sol.solvable:
        return False
    bits = sol.bits
    levels = set(range(sol.n + 1)).union(i for i, _ in x.items())
    if bits is not None and all(bits.index.keys() >= odd.lengths for _, odd in x.items()):
        bounds = {i: sol.level_coords(i) for i in levels}
    else:
        bounds = {i: sol.level_interval(i) for i in levels}
        pairs = (_terms(x) + 1) * (1 + sum(len(lo) + len(hi) for lo, hi in bounds.values()))
        k = lcm(sol.a.stats()[0], sol.b.stats()[0], x.stats()[0])
        bits = divisor_bits(k, pairs)
        if bits is None:
            return _membership_sets(sol, x)
        bounds = {i: [bits.encode(e.lengths) for e in pair] for i, pair in bounds.items()}
    X = {i: bits.encode(odd.lengths) for i, odd in x.items()}
    for i, (lo, hi) in bounds.items():
        xi = X.get(i, 0)
        if lo & ~xi or xi & ~hi:
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
        return z.odd_part <= self.odd_bound and z.plus_closure <= self.closure_bound


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
    bits: DivisorBits, x: int, y: int, t: Optional[int] = None
) -> Callable[[], Iterator[OddSet]]:
    """A factor for ``lazy_product``: the members of the interval between
    the masks x and y of the atom coordinates ``bits``, as OddSets; with t,
    only those of support-size parity t.

    The parity is the bit at j = k.  It is the largest divisor, so the
    last free atom, and fixing it keeps the order of the other members.
    """
    if t is not None:
        parity = 1 << bits.index[bits.k]
        x, y = (x | parity, y) if t else (x, y & ~parity)
    return lambda: (OddSet._make(frozenset(bits.decode(m))) for m in bits.members(x, y))


def level_factors(
    sol: IntervalSolutionSet, bits: DivisorBits, n: int, t: Optional[int] = None
) -> list[Callable[[], Iterator[OddSet]]]:
    """One ``odd_members`` factor per level 0..n of a solvable ``sol``,
    listed in the window layout ``bits``; at level 0, with t, only the
    members of support-size parity t.

    The stored masks serve as they are when ``bits`` is the solution's own
    layout; otherwise each endpoint is mapped into ``bits`` once.  Empty
    when a level above n has a nonzero lower endpoint, since no solution
    then stays at or below level n.
    """
    if any(sol.level_coords(i)[0] for i in range(n + 1, sol.n + 1)):
        return []
    ends = [sol.level_coords(i) for i in range(n + 1)]
    if sol.bits is None or sol.bits.k != bits.k:
        def move(e) -> int:
            return bits.encode(sol._odd(e).lengths)

        ends = [(move(lo), move(hi)) for lo, hi in ends]
    return [odd_members(bits, *ends[0], t)] + [odd_members(bits, *pair) for pair in ends[1:]]


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

    for levels in lazy_product(level_factors(sol, window_bits(k), n)):
        x = CycleSum._make({i: odd for i, odd in enumerate(levels) if odd})
        if sol.a * x != sol.b:
            raise RuntimeError(
                f"internal error: candidate {x} fails verification"
            )
        yield x


def interval_has_parity(lo, hi, t: int, bits: Optional[DivisorBits] = None) -> bool:
    """Whether [lo, hi] contains an element of support-size parity t; lo
    and hi are OddSets, or masks of the atom coordinates ``bits``.

    The interval is lo + w over w below hi*not(lo); a strict-parity
    element exists among the w's iff that bound has odd support size,
    so the reachable parities are lo's own, plus both when the bound is
    odd-sized.  Support parity is the atom-coordinate bit at j = k, where
    the product is ``&``, so the bound's parity is hi's and not lo's.
    Assumes the interval is nonempty.
    """
    if bits is None:
        p, q = lo.parity, hi.parity
    else:
        j = bits.index[bits.k]
        p, q = lo >> j & 1, hi >> j & 1
    return p == t or (q == 1 and p == 0)
