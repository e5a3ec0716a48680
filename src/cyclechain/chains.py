"""Sums of chains and cycles mod 2, and the combined division equation.

Chains of different length parity annihilate each other, so chain sums
split into an even and an odd class.  Within a class the products are
idempotent (min of lengths) and diagonalise in the orthogonal basis
Z_base = L_base, Z_i = L_i + L_{i-2}: the product is Z_a & Z_b, computed
by one sweep down the lengths.  Intervals of solutions live in the finite
Boolean algebra of Z-coordinates up to a height cutoff, held as Z masks,
with levels above the cutoff either free or forced empty depending on
the parity of the cycle part of the divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

from .cycles import CycleSum, level_lengths, odd_cycle_parity
from .division import (
    IntervalSolutionSet,
    check_window,
    interval_has_parity,
    lazy_product,
    level_factors,
    membership,
    solve,
)
from .formal import FormalSum, ProductRule
from .lattice import DivisorBits, ones, submasks, subsums, window_bits
from .poly import fold_exponent


class ChainSum:
    """A finite sum of distinct chains, one per stored length."""

    __slots__ = ("lengths",)

    def __init__(self, lengths: Iterable[int] = ()):
        ls = frozenset(lengths)
        for d in ls:
            if d < 1:
                raise ValueError(f"chain length must be >= 1, got {d}")
        self.lengths: frozenset[int] = ls

    @classmethod
    def _make(cls, lengths: frozenset[int]) -> "ChainSum":
        """Wrap lengths already known to be positive, unchecked."""
        out = cls.__new__(cls)
        out.lengths = lengths
        return out

    def __bool__(self) -> bool:
        return bool(self.lengths)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChainSum) and self.lengths == other.lengths

    def __hash__(self) -> int:
        return hash(("ChainSum", self.lengths))

    def __add__(self, other: "ChainSum") -> "ChainSum":
        return ChainSum._make(self.lengths ^ other.lengths)

    def __mul__(self, other: "ChainSum") -> "ChainSum":
        # Z_a & Z_b per parity class, swept down the lengths: bit e of za
        # and zb is Z_d of the class-e chains of self and other, and d is
        # in the product where the AND of the two changes
        a, b = self.lengths, other.lengths
        if not (a and b):
            return CHAIN_ZERO
        acc = []
        za = zb = z = 0
        for d in sorted(a | b, reverse=True):
            bit = 1 << (d & 1)
            za ^= bit if d in a else 0
            zb ^= bit if d in b else 0
            if za & zb != z:
                z = za & zb
                acc.append(d)
        return ChainSum._make(frozenset(acc))

    def parity_part(self, eps: int) -> "ChainSum":
        """The chains of length parity eps (0 even, 1 odd)."""
        return ChainSum._make(frozenset(d for d in self.lengths if d & 1 == eps))

    def is_pure(self, eps: int) -> bool:
        return all(d & 1 == eps for d in self.lengths)

    def __str__(self) -> str:
        if not self.lengths:
            return "0"
        return " + ".join(f"L{d}" for d in sorted(self.lengths))

    def __repr__(self) -> str:
        return f"ChainSum({str(self)!r})"


CHAIN_ZERO = ChainSum()


def mul_chain(e: int, d: int) -> ChainSum:
    """Product of two single chains: the shorter one iff lengths agree mod 2."""
    if e < 1 or d < 1:
        raise ValueError("chain lengths must be >= 1")
    if (e ^ d) & 1:
        return CHAIN_ZERO
    return ChainSum([min(e, d)])


def mul_chain_cycle(e: int, d: int) -> ChainSum:
    """Chain times cycle: d copies of the chain, i.e. kept iff d is odd."""
    if e < 1 or d < 1:
        raise ValueError("lengths must be >= 1")
    return ChainSum([e]) if d & 1 else CHAIN_ZERO


@lru_cache(maxsize=16)
def _run(top: int, base: int) -> int:
    """The mask of the coordinates base, base + 2, ... up to top.  One
    division asks for the same run several times, and a run up to a height
    h costs a long division of an h-bit int, so the last 16 are kept."""
    return ((1 << (top - base) // 2 * 2 + 2) - 1) // 3 << base


def to_orthogonal(a: ChainSum, eps: int) -> int:
    """Coordinates of a pure-parity chain sum in the orthogonal basis: bit i
    of the mask is Z_i, the parity of the number of chains of length >= i."""
    if not a.is_pure(eps):
        raise ValueError(f"chain sum {a} is not purely of parity {eps}")
    base = 2 - eps
    z = 0
    for d in a.lengths:
        z ^= _run(d, base)
    return z


def from_orthogonal(z: int, eps: int) -> ChainSum:
    """Inverse of ``to_orthogonal``: chain length j appears iff exactly one
    of the coordinates j, j + 2 is set."""
    base = 2 - (eps & 1)
    bad = z & ~_run(z.bit_length(), base)
    if bad:
        raise ValueError(f"coordinate {(bad & -bad).bit_length() - 1} does not have parity {eps}")
    return ChainSum._make(frozenset(ones((z ^ z >> 2) >> base << base)))


class Element:
    """A sum of chains and cycles mod 2."""

    __slots__ = ("chains", "cycles")

    def __init__(self, chains: ChainSum = CHAIN_ZERO, cycles: CycleSum = CycleSum.zero()):
        self.chains = chains
        self.cycles = cycles

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def one(cls) -> "Element":
        return cls(cycles=CycleSum.one())

    @classmethod
    def from_cycles(cls, cycles: CycleSum) -> "Element":
        return cls(cycles=cycles)

    @classmethod
    def from_chains(cls, chains: ChainSum) -> "Element":
        return cls(chains=chains)

    def __bool__(self) -> bool:
        return bool(self.chains) or bool(self.cycles)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self.chains == other.chains
            and self.cycles == other.cycles
        )

    def __hash__(self) -> int:
        return hash(("Element", self.chains, self.cycles))

    def __add__(self, other: "Element") -> "Element":
        return Element(self.chains + other.chains, self.cycles + other.cycles)

    def __mul__(self, other: "Element") -> "Element":
        # chains see cycles only through the parity of odd-length cycles
        ta = odd_cycle_parity(self.cycles)
        tb = odd_cycle_parity(other.cycles)
        chains = self.chains * other.chains
        if tb:
            chains = chains + self.chains
        if ta:
            chains = chains + other.chains
        return Element(chains, self.cycles * other.cycles)

    def __pow__(self, n: int) -> "Element":
        """x**n in at most three products, as x**4 = x**2 with chains too."""
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = Element.one()
        for _ in range(fold_exponent(n)):
            out = out * self
        return out

    def __str__(self) -> str:
        parts = []
        if self.cycles:
            parts.append(str(self.cycles))
        if self.chains:
            parts.append(str(self.chains))
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Element({str(self)!r})"


@dataclass(frozen=True)
class ChainDivision:
    """Solutions of a*x = c within one chain parity class.

    kind "interval" means the Z-coordinates of x up to the cutoff range
    over the masks [zlo, zhi], with the coordinates above the cutoff free
    when ``free_tail`` and forced zero otherwise; "all" is the interval
    [0, 0] at cutoff 0 with a free tail, so every pure chain sum of the
    class solves; "empty" means none does.
    """

    parity: int
    cutoff: int
    kind: str  # "all" | "empty" | "interval"
    zlo: int = 0
    zhi: int = 0
    free_tail: bool = True

    @property
    def nonempty(self) -> bool:
        return self.kind != "empty"

    @property
    def lo(self) -> Optional[ChainSum]:
        """The lower bound as a chain sum; None unless an interval."""
        return from_orthogonal(self.zlo, self.parity) if self.kind == "interval" else None

    @property
    def hi(self) -> Optional[ChainSum]:
        """The upper bound as a chain sum; None unless an interval."""
        return from_orthogonal(self.zhi, self.parity) if self.kind == "interval" else None

    def contains(self, x: ChainSum) -> bool:
        if self.kind == "empty" or not x.is_pure(self.parity):
            return False
        zx = to_orthogonal(x, self.parity)
        head = zx & ((2 << self.cutoff) - 1)
        if not self.free_tail and head != zx:
            return False
        return not (self.zlo & ~head or head & ~self.zhi)

    @cached_property
    def _prep(self) -> Optional[tuple[frozenset[int], int, str]]:
        """(lo's chain lengths, the first tail coordinate, the free head
        coordinates as the bits of ``hi & ~lo``, bit i at index i); None
        when no chain sum lies in the division.  Made on the first
        ``members`` call and kept in the instance dict, outside the fields,
        so it is never compared or hashed."""
        if self.kind == "empty" or self.zlo & self.zhi != self.zlo:
            return None
        first = self.cutoff + 1 + (1 - self.parity - self.cutoff) % 2
        lengths = from_orthogonal(self.zlo, self.parity).lengths
        return lengths, first, bin(self.zhi ^ self.zlo)[:1:-1]

    def members(self, max_height: int) -> Iterator[ChainSum]:
        """All solutions of height at most max_height >= 0, deterministically.

        The height of a solution is its largest Z-coordinate.  ``subsums``
        lists the tail coordinates, then the free head coordinates
        (ascending), so its counter runs over the head outside the tail;
        the tail and the head are read only as far as the counter reaches.
        Z_j changes between j and j + 2 where a chain of length j ends, so
        toggling Z_p toggles L_p and L_{p-2}: each member is lo's lengths
        with the toggles of its chosen coordinates, at a cost that does not
        depend on the height.
        """
        if max_height < 0:
            raise ValueError(f"max_height must be >= 0, got {max_height}")
        prep = self._prep
        if prep is None or self.zlo.bit_length() > max_height + 1:
            return
        lengths, first, free = prep
        base = 2 - self.parity
        # free coordinates above the bound come last in the counter, so
        # leaving them out drops exactly the too-high members
        tail = range(first, max_height + 1, 2) if self.free_tail else ()
        coords = chain(tail, _set_bits(free, max_height + 1))
        toggles = (frozenset((p, p - 2) if p > base else (p,)) for p in coords)
        yield from map(ChainSum._make, subsums(lengths, toggles))


def _set_bits(bits: str, stop: int) -> Iterator[int]:
    """The indices below stop of the "1"s of bits, ascending, lazily: a
    ``find`` each, so a position costs the gap from the one before."""
    p = bits.find("1", 0, stop)
    while p >= 0:
        yield p
        p = bits.find("1", p + 1, stop)


def divide_chains(a: ChainSum, b: ChainSum, eps: int) -> ChainDivision:
    """Solve a*x = b within the parity-eps chain class (a nonzero).

    The truncation of any solution at the divisor's height ranges over
    [b, b + a + L_h]; everything above the height is free.
    """
    if not a:
        raise ValueError("divisor must be nonzero; use divide_full for 0")
    if not (a.is_pure(eps) and b.is_pure(eps)):
        raise ValueError(f"operands must be purely of parity {eps}")
    return _chain_branch(to_orthogonal(a, eps), to_orthogonal(b, eps), eps, 0, 0)


def _chain_branch(za: int, zb: int, eps: int, t: int, cycle_scale: int) -> ChainDivision:
    """Chain constraint of the combined equation for one parity class, on
    the Z masks za and zb of the class-eps chains of divisor and target.

    ``cycle_scale`` is the parity with which the divisor's cycle part acts
    on chains.  When it is 0, Z_a & Z_x = Z_target (a pure chain division
    of b + t*a by a): x is fixed where Z_a is set, free elsewhere and above
    the height of a.  Otherwise Z_x & ~Z_a = Z_target: x is fixed where Z_a
    is clear, free where it is set, and zero above the cutoff.
    """
    target = zb ^ za if t else zb
    if cycle_scale == 0 and not za:
        return ChainDivision(parity=eps, cutoff=0, kind="empty" if target else "all")
    h = max((za | zb if cycle_scale else za).bit_length() - 1, 0)
    head = _run(h, 2 - eps)
    # x & ~y as x ^ x & y: an operand that is negative costs a pass more
    fixed = head ^ head & za if cycle_scale else za
    if target & fixed != target:
        return ChainDivision(parity=eps, cutoff=h, kind="empty")
    return ChainDivision(eps, h, "interval", target, target | head ^ head & fixed, not cycle_scale)


@dataclass(frozen=True)
class CycleBranch:
    """Cycle-part constraint of the combined equation for one parity t."""

    t: int
    free: bool
    sol: Optional[IntervalSolutionSet]
    nonempty: bool

    def contains(self, xc: CycleSum) -> bool:
        if odd_cycle_parity(xc) != self.t:
            return False
        if self.free:
            return True
        return self.sol is not None and membership(self.sol, xc)


@dataclass(frozen=True)
class BranchSolution:
    t: int
    cycle: CycleBranch
    chains: tuple[ChainDivision, ChainDivision]  # index = parity class

    @property
    def nonempty(self) -> bool:
        return self.cycle.nonempty and all(c.nonempty for c in self.chains)

    def contains(self, x: "Element") -> bool:
        return (
            self.cycle.contains(x.cycles)
            and self.chains[0].contains(x.chains.parity_part(0))
            and self.chains[1].contains(x.chains.parity_part(1))
        )


@dataclass(frozen=True)
class CombinedSolutionSet:
    """Solutions of a*x = b over sums of chains and cycles.

    Split by the parity t of the count of odd-length cycles in x: each
    branch couples a cycle-part constraint with one chain interval per
    parity class.
    """

    a: "Element"
    b: "Element"
    branches: tuple[BranchSolution, BranchSolution]

    @property
    def solvable(self) -> bool:
        return any(br.nonempty for br in self.branches)

    def contains(self, x: "Element") -> bool:
        return self.branches[odd_cycle_parity(x.cycles)].contains(x)


def divide_full(a: Element, b: Element) -> CombinedSolutionSet:
    """Characterise all x with a*x = b over sums of chains and cycles."""
    ac, bc = a.cycles, b.cycles
    scale = odd_cycle_parity(ac)
    sol = solve(ac, bc) if ac else None
    za = [to_orthogonal(a.chains.parity_part(eps), eps) for eps in (0, 1)]
    zb = [to_orthogonal(b.chains.parity_part(eps), eps) for eps in (0, 1)]
    branches = []
    for t in (0, 1):
        if sol is None:
            free = not bc
            cycle = CycleBranch(t=t, free=free, sol=None, nonempty=free)
        else:
            nonempty = sol.solvable and interval_has_parity(*sol.level_coords(0), t, sol.bits)
            cycle = CycleBranch(t=t, free=False, sol=sol, nonempty=nonempty)
        chains = tuple(_chain_branch(za[eps], zb[eps], eps, t, scale) for eps in (0, 1))
        branches.append(BranchSolution(t=t, cycle=cycle, chains=chains))
    return CombinedSolutionSet(a=a, b=b, branches=tuple(branches))


def _subsets(divs: tuple[int, ...], t: Optional[int]) -> Iterator[tuple[int, ...]]:
    """Every subset of the ascending divs, ascending, by a choice counter
    whose bit i picks divs[i]; only those of size parity t unless t is None."""
    for c in submasks(0, range(len(divs))):
        if t is None or c.bit_count() & 1 == t:
            yield tuple(divs[i] for i in ones(c))


def _cycle_factors(
    branch: CycleBranch, bits: DivisorBits, max_level: int
) -> list[Callable[[], Iterator[tuple[int, ...]]]]:
    """One factor per cycle level 0..max_level for ``lazy_product``, whose
    members are the raw lengths of that level; an empty list when no cycle
    part of the branch fits the window."""
    if branch.free:
        levels = [level_lengths(i, bits.divisors) for i in range(max_level + 1)]
        return [partial(_subsets, ls, None if i else branch.t) for i, ls in enumerate(levels)]
    sol = branch.sol
    if sol is None or not sol.solvable:
        return []
    return level_factors(sol, bits, max_level, branch.t)


def divide_full_restricted(
    a: Element,
    b: Element,
    k: int,
    max_level: Optional[int] = None,
    max_height: Optional[int] = None,
) -> Iterator[Element]:
    """All solutions within a finite window: cycle odd parts dividing k,
    cycle levels at most max_level, chain lengths at most max_height.

    Complete for that window; every emitted element is verified by
    multiplication before being yielded.  The listing is lazy: cycle
    levels, then even and odd chains, in one lexicographic product.
    """
    check_window(k, a.cycles, b.cycles)
    bits = window_bits(k)
    sols = divide_full(a, b)
    if max_level is None:
        max_level = max(a.cycles.max_level, b.cycles.max_level)
    if max_height is None:
        max_height = max(
            (br.cutoff for branch in sols.branches for br in branch.chains),
            default=0,
        )
    if max_level < 0 or max_height < 0:
        raise ValueError("max_level and max_height must be >= 0")
    for branch in sols.branches:
        if not branch.nonempty:
            continue
        factors = _cycle_factors(branch.cycle, bits, max_level)
        if not factors:
            continue
        for eps in (0, 1):
            factors.append(lambda c=branch.chains[eps]: c.members(max_height))
        for *levels, xe, xo in lazy_product(factors):
            xc = CycleSum._of([(i, ls) for i, ls in enumerate(levels) if ls])
            x = Element(chains=xe + xo, cycles=xc)
            if a * x != b:
                raise RuntimeError(
                    f"internal error: candidate {x} fails verification"
                )
            yield x


def element_product_rule() -> ProductRule:
    """Product of single chains/cycles as a rule over tagged generators."""
    from .cycles import mul_cycles

    def pair(g: tuple[str, int], h: tuple[str, int]) -> FormalSum:
        (gk, gn), (hk, hn) = g, h
        if gk == "C" and hk == "C":
            return FormalSum(("C", q) for q in mul_cycles(gn, hn).lengths())
        if gk == "L" and hk == "L":
            return FormalSum(("L", d) for d in mul_chain(gn, hn).lengths)
        if gk == "L":
            return FormalSum(("L", d) for d in mul_chain_cycle(gn, hn).lengths)
        return FormalSum(("L", d) for d in mul_chain_cycle(hn, gn).lengths)

    return ProductRule(pair_product=pair, identity=("C", 1))
