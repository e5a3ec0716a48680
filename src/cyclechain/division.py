"""Complete solution theory for a*x = b over cycle sums mod 2.

The solution set is a product of order intervals in the idempotent
lattice, one per dyadic level: a level-0 interval obtained by folding the
per-level constraints, an explicit interval per level up to the horizon,
and a uniform tail bound above it.  Solvability, membership, the minimal
solution and a complete restricted enumeration all read off that data.

Each formula has one body, written on a coordinate interface: ``zero``,
``top``, ``&`` the product, ``^`` the sum, ``|`` the join, ``~`` the
complement (only under ``&``), ``encode``/``decode`` and ``parity``.  Two
types provide it.  ``DivisorBits`` masks are atom coordinates over a
coprime base of the odd parts in play, which no solver factors;
``ODD_COORDS``, where each idempotent is its own ``OddSet``, serves the
operands whose layout would be too large.  ``layout`` alone chooses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import lcm
from operator import or_
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .cycles import CycleSum, ODD_ONE, ODD_ZERO, OddSet, level_lengths, split_length
from .lattice import DivisorBits, coprime_bits, kept_bits, window_bits

T = TypeVar("T")
_END = object()


class OddCoords:
    """The coordinates of refused layouts: each idempotent is its own
    ``OddSet``, whose operators are those of the masks; cycle-sum levels
    are read and given as ``DivisorBits`` does."""

    __slots__ = ()
    k = None
    zero = ODD_ZERO
    top = ODD_ONE

    @staticmethod
    def encode(lengths: Iterable[int]) -> OddSet:
        return OddSet._make(frozenset(split_length(q)[1] for q in lengths))

    @staticmethod
    def decode(x: OddSet, level: int = 0) -> tuple[int, ...]:
        return level_lengths(level, x.lengths)

    @staticmethod
    def parity(x: OddSet) -> int:
        return x.parity


ODD_COORDS = OddCoords()
Coords = "DivisorBits | OddCoords"


class IntervalSolutionSet:
    """All solutions of a*x = b, as per-level intervals.

    Level 0 of any solution lies in [lambda0, upsilon0]; level i with
    1 <= i <= n lies in head[i-1]; every level above n is bounded above by
    tail_hi (and below by 0).  The set is nonempty iff ``solvable``.

    The endpoints are held in the coordinates ``bits``: masks of a
    ``DivisorBits`` layout, or ``OddSet`` values under ``ODD_COORDS``.  An
    endpoint is decoded the first time it is read, and the ``OddSet`` kept.
    Equality, hash and repr go by the decoded values, so sets held in
    different coordinates compare and print alike.
    """

    __slots__ = ("a", "b", "solvable", "n", "bits", "_lam0", "_ups0", "_head", "_free", "_decoded")

    def __init__(self, a: CycleSum, b: CycleSum, solvable: bool, lambda0, upsilon0,
                 head: tuple, tail_hi, n: int, bits: Coords):
        self.a = a
        self.b = b
        self.solvable = solvable
        self.n = n
        self.bits = bits
        self._lam0 = lambda0
        self._ups0 = upsilon0
        self._head = head
        self._free = tail_hi
        self._decoded: dict = {}

    def _odd(self, x) -> OddSet:
        odd = self._decoded.get(x)
        if odd is None:
            odd = self._decoded[x] = decoded(self.bits, x)
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
        return (self.bits.zero, self._free)

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

    Runs the per-level formulas in the coordinates of ``layout(a, b)``,
    and keeps the endpoints there.
    """
    bits, (A, B), n = layout(a, b)
    return _solved(a, b, bits, A, B, n)


def _solved(a: CycleSum, b: CycleSum, bits: Coords, A: dict, B: dict, n: int) -> IntervalSolutionSet:
    """The solutions of a*x = b from the levels A of a and B of b in the
    coordinates ``bits``, with explicit intervals up to level n."""
    zero, top = bits.zero, bits.top
    a0 = A.get(0, zero)
    b0 = B.get(0, zero)

    lam0 = zero
    ups0 = top
    for i in range(n + 1):
        ai = A.get(i, zero)
        bi = B.get(i, zero)
        li = bi ^ (a0 & bi) ^ (ai & b0)
        lam0 |= li
        ups0 &= li ^ ai ^ top

    free = a0 ^ top
    head = []
    for i in range(1, n + 1):
        lo = (a0 & B.get(i, zero)) ^ (A.get(i, zero) & b0)
        head.append((lo, lo ^ free))
    return IntervalSolutionSet(a, b, lam0 & ups0 == lam0, lam0, ups0, tuple(head), free, n, bits)


def layout(*xs: CycleSum) -> tuple[Coords, list[dict], int]:
    """The coordinates for xs, with each x's levels encoded there (one
    dict from level to coordinate per x), and the highest level n of the xs.

    The coordinates are those of the layout kept for k = lcm of the odd
    parts of xs when it holds every length: a hit costs no gcd.  On a miss
    (a ``KeyError`` from ``encode``) they are those of ``coprime_bits``, or
    ``ODD_COORDS`` when that layout would be too large.
    """
    k, n = 1, 0
    for x in xs:
        kx, nx = x.stats()
        k, n = lcm(k, kx), max(n, nx)
    bits = kept_bits(k)
    if bits is not None:
        try:
            return bits, [encoded(bits, x) for x in xs], n
        except KeyError:  # a length that the kept layout does not hold
            pass
    bits = coprime_bits(k, [q >> i for x in xs for i, ls in x.raw_levels() for q in ls]) or ODD_COORDS
    return bits, [encoded(bits, x) for x in xs], n


def encoded(bits: Coords, x: CycleSum) -> dict:
    """The level coordinates of x in ``bits``, each level encoded as x
    holds it; KeyError for an odd part that the layout does not hold."""
    return {i: bits.encode(ls) for i, ls in x.raw_levels()}


def decoded(bits: Coords, x) -> OddSet:
    """The idempotent with coordinate x in ``bits``."""
    return OddSet._make(frozenset(bits.decode(x)))


def split(bits: Coords, X: dict) -> tuple:
    """(a, M) for the level coordinates X of x = a + m: the level-0 one
    and the OR of those of levels >= 1, the closure of m."""
    return X.get(0, bits.zero), reduce(or_, (m for i, m in X.items() if i), bits.zero)


def decoded_sum(bits: Coords, X: dict) -> CycleSum:
    """The cycle sum with level coordinates X in ``bits``."""
    return CycleSum._of([(i, bits.decode(m, i)) for i, m in sorted(X.items()) if m])


def min_solution(sol: IntervalSolutionSet) -> CycleSum:
    """The solution made of lower endpoints: the canonical finite one."""
    if not sol.solvable:
        raise ValueError("equation has no solution")
    lows = (sol.level_coords(i)[0] for i in range(sol.n + 1))
    return decoded_sum(sol.bits, dict(enumerate(lows)))


def membership(sol: IntervalSolutionSet, x: CycleSum) -> bool:
    """Whether x solves the equation, checked level by level.

    x is encoded in the coordinates of the solution and compared with the
    stored endpoints.  When x's odd parts fall outside them, the equation
    is solved again in ``layout(a, b, x)``, since a solution may carry odd
    parts outside the equation's modulus (C5 + C15 solves C3*x = 0).
    """
    if not sol.solvable:
        return False
    bits = sol.bits
    try:
        X = encoded(bits, x)
    except KeyError:
        bits, (A, B, X), n = layout(sol.a, sol.b, x)
        sol = _solved(sol.a, sol.b, bits, A, B, n)
    for i in set(range(sol.n + 1)).union(X):
        lo, hi = sol.level_coords(i)
        xi = X.get(i, bits.zero)
        if lo & ~xi or xi & ~hi:
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
    bits: DivisorBits, x: int, y: int, t: Optional[int] = None, level: int = 0
) -> Callable[[], Iterator[tuple[int, ...]]]:
    """A factor for ``lazy_product``: the members of the interval between
    the masks x and y of the atom coordinates ``bits``, each as a cycle sum
    holds it at ``level``; with t, only those of support-size parity t.

    The parity is the bit at j = k.  It is the largest divisor, so the
    last free atom, and fixing it keeps the order of the other members.
    """
    if t is not None:
        parity = 1 << bits.index[bits.k]
        x, y = (x | parity, y) if t else (x, y & ~parity)
    return lambda: (bits.decode(m, level) for m in bits.members(x, y))


def level_factors(
    sol: IntervalSolutionSet, bits: DivisorBits, n: int, t: Optional[int] = None
) -> list[Callable[[], Iterator[tuple[int, ...]]]]:
    """One ``odd_members`` factor per level 0..n of a solvable ``sol``, its
    members the level's raw lengths, listed in the window layout ``bits``;
    at level 0, with t, only the members of support-size parity t.

    The stored masks serve as they are when ``bits`` is the solution's own
    layout; otherwise, a coarser layout of the same k too, each endpoint
    is mapped into ``bits`` once.  Empty when a level above n has a
    nonzero lower endpoint, since no solution then stays at or below n.
    """
    if any(sol.level_coords(i)[0] for i in range(n + 1, sol.n + 1)):
        return []
    ends = [sol.level_coords(i) for i in range(n + 1)]
    if sol.bits is not bits:
        def move(e) -> int:
            return bits.encode(sol._odd(e).lengths)

        ends = [(move(lo), move(hi)) for lo, hi in ends]
    return [odd_members(bits, lo, hi, None if i else t, i) for i, (lo, hi) in enumerate(ends)]


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
    # a layout's k is lcm(ka, kb): a window on an odd multiple of it is sound
    if k < 1 or k % 2 == 0 or sol.bits.k is None or k % sol.bits.k:
        check_window(k, sol.a, sol.b)
    if n < sol.n:
        raise ValueError("level bound below the inputs' own levels")

    for levels in lazy_product(level_factors(sol, window_bits(k), n)):
        x = CycleSum._of([(i, ls) for i, ls in enumerate(levels) if ls])
        if sol.a * x != sol.b:
            raise RuntimeError(
                f"internal error: candidate {x} fails verification"
            )
        yield x


def check_window(k: int, a: CycleSum, b: CycleSum) -> None:
    """ValueError unless the window modulus k is odd and a multiple of the
    odd parts of a and b, without which the restriction would be unsound."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"odd k required, got {k}")
    ka, kb = a.stats()[0], b.stats()[0]
    if k % lcm(ka, kb) != 0:
        raise ValueError(f"k={k} must be a multiple of lcm({ka}, {kb}); restriction would be unsound")


def interval_has_parity(lo, hi, t: int, bits: Coords = ODD_COORDS) -> bool:
    """Whether [lo, hi] contains an element of support-size parity t; lo
    and hi are coordinates in ``bits``, OddSets by default.

    The interval is lo + w over w below hi*not(lo); a strict-parity
    element exists among the w's iff that bound has odd support size,
    so the reachable parities are lo's own, plus both when the bound is
    odd-sized.  Support parity is the atom-coordinate bit at j = k, where
    the product is ``&``, so the bound's parity is hi's and not lo's.
    Assumes the interval is nonempty.
    """
    p, q = bits.parity(lo), bits.parity(hi)
    return p == t or (q == 1 and p == 0)
