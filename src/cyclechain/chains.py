"""Sums of chains and cycles mod 2, and the combined division equation.

Chains of different length parity annihilate each other, so chain sums
split into an even and an odd class.  Within a class the products are
idempotent (min of lengths) and diagonalise in the orthogonal basis
Z_base = L_base, Z_i = L_i + L_{i-2}; intervals of solutions live in the
finite Boolean algebra of Z-coordinates up to a height cutoff, with levels
above the cutoff either free or forced empty depending on the parity of
the cycle part of the divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lcm
from typing import Callable, Iterable, Iterator, Optional

from .cycles import CycleSum, OddSet
from .division import (
    IntervalSolutionSet,
    interval_has_parity,
    lazy_product,
    level_factors,
    membership,
    solve,
)
from .formal import FormalSum, ProductRule
from .lattice import DivisorBits, ones, submasks, window_bits


class ChainSum:
    """A finite sum of distinct chains, one per stored length."""

    __slots__ = ("lengths",)

    def __init__(self, lengths: Iterable[int] = ()):
        ls = frozenset(lengths)
        for d in ls:
            if d < 1:
                raise ValueError(f"chain length must be >= 1, got {d}")
        self.lengths: frozenset[int] = ls

    def __bool__(self) -> bool:
        return bool(self.lengths)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChainSum) and self.lengths == other.lengths

    def __hash__(self) -> int:
        return hash(("ChainSum", self.lengths))

    def __add__(self, other: "ChainSum") -> "ChainSum":
        return ChainSum(self.lengths ^ other.lengths)

    def __mul__(self, other: "ChainSum") -> "ChainSum":
        acc: set[int] = set()
        for e in self.lengths:
            for d in other.lengths:
                if (e ^ d) & 1 == 0:
                    acc ^= {min(e, d)}
        return ChainSum(acc)

    @property
    def height(self) -> int:
        """Largest chain length present; 0 for the empty sum."""
        return max(self.lengths, default=0)

    def parity_part(self, eps: int) -> "ChainSum":
        """The chains of length parity eps (0 even, 1 odd)."""
        return ChainSum(d for d in self.lengths if d & 1 == eps)

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


def _run(n: int, base: int) -> int:
    """The mask of the n coordinates base, base + 2, ..., base + 2(n - 1)."""
    return ((1 << 2 * n) - 1) // 3 << base


def to_orthogonal(a: ChainSum, eps: int) -> int:
    """Coordinates of a pure-parity chain sum in the orthogonal basis: bit i
    of the mask is Z_i, the parity of the number of chains of length >= i."""
    if not a.is_pure(eps):
        raise ValueError(f"chain sum {a} is not purely of parity {eps}")
    base = 2 - eps
    z = 0
    for d in a.lengths:
        z ^= _run((d - base) // 2 + 1, base)
    return z


def from_orthogonal(z: int, eps: int) -> ChainSum:
    """Inverse of ``to_orthogonal``: chain length j appears iff exactly one
    of the coordinates j, j + 2 is set."""
    base = 2 - (eps & 1)
    bad = z & ~_run(z.bit_length() // 2 + 1, base)
    if bad:
        raise ValueError(f"coordinate {(bad & -bad).bit_length() - 1} does not have parity {eps}")
    return ChainSum(ones((z ^ z >> 2) >> base << base))


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
        ta = self.cycles.odd_part.parity
        tb = other.cycles.odd_part.parity
        chains = self.chains * other.chains
        if tb:
            chains = chains + self.chains
        if ta:
            chains = chains + other.chains
        return Element(chains, self.cycles * other.cycles)

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = Element.one()
        for _ in range(n):
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


def odd_cycle_parity(x: CycleSum) -> int:
    """Parity of the number of odd-length cycles: how x scales any chain."""
    return x.odd_part.parity


@dataclass(frozen=True)
class ChainDivision:
    """Solutions of a*x = c within one chain parity class.

    kind "all" means every pure chain sum of the class solves; "empty"
    means none does; "interval" means the truncation of x at the cutoff
    ranges over [lo, hi] in the cutoff algebra, with the coordinates above
    the cutoff free when ``free_tail`` and forced zero otherwise.
    """

    parity: int
    cutoff: int
    kind: str  # "all" | "empty" | "interval"
    lo: Optional[ChainSum] = None
    hi: Optional[ChainSum] = None
    free_tail: bool = True

    @property
    def nonempty(self) -> bool:
        return self.kind != "empty"

    def _bounds(self) -> tuple[int, int]:
        """The Z-coordinate masks of lo and hi."""
        return to_orthogonal(self.lo, self.parity), to_orthogonal(self.hi, self.parity)

    def contains(self, x: ChainSum) -> bool:
        if not x.is_pure(self.parity):
            return False
        if self.kind == "all":
            return True
        if self.kind == "empty":
            return False
        zx = to_orthogonal(x, self.parity)
        head = zx & ((2 << self.cutoff) - 1)
        if not self.free_tail and head != zx:
            return False
        zlo, zhi = self._bounds()
        return not (zlo & ~head or head & ~zhi)

    def members(self, max_height: int) -> Iterator[ChainSum]:
        """All solutions of height at most max_height >= 0, deterministically.

        The height of a solution is its largest Z-coordinate.  ``submasks``
        lists the tail coordinates, then the free head coordinates
        (ascending), so its counter runs over the head outside the tail;
        the tail is read only as far as the counter reaches.
        """
        if max_height < 0:
            raise ValueError(f"max_height must be >= 0, got {max_height}")
        if self.kind == "empty":
            return
        base = 2 - self.parity
        lo = free = 0
        first = base
        if self.kind == "interval":
            lo, hi = self._bounds()
            if lo & ~hi or lo >> max_height + 1:
                return
            # free coordinates above the bound come last in the counter,
            # so leaving them out drops exactly the too-high members
            free = hi & ~lo & ((2 << max_height) - 1)
            first = self.cutoff + 1 + (base - self.cutoff - 1) % 2
        tail = range(first, max_height + 1, 2) if self.free_tail else ()
        for z in submasks(lo, chain(tail, ones(free))):
            yield from_orthogonal(z, self.parity)


def _chain_interval(eps: int, cutoff: int, lo: ChainSum, hi: ChainSum, free_tail: bool) -> ChainDivision:
    """[lo, hi] in the cutoff algebra; empty unless lo <= hi in Z-coordinates."""
    if to_orthogonal(lo, eps) & ~to_orthogonal(hi, eps):
        return ChainDivision(parity=eps, cutoff=cutoff, kind="empty")
    return ChainDivision(eps, cutoff, "interval", lo, hi, free_tail)


def divide_chains(a: ChainSum, b: ChainSum, eps: int) -> ChainDivision:
    """Solve a*x = b within the parity-eps chain class (a nonzero).

    The truncation of any solution at the divisor's height ranges over
    [b, b + a + L_h]; everything above the height is free.
    """
    if not a:
        raise ValueError("divisor must be nonzero; use divide_full for 0")
    if not (a.is_pure(eps) and b.is_pure(eps)):
        raise ValueError(f"operands must be purely of parity {eps}")
    h = a.height
    if b.height > h:
        return ChainDivision(parity=eps, cutoff=h, kind="empty")
    return _chain_interval(eps, h, b, b + a + ChainSum([h]), free_tail=True)


def _chain_branch(
    a_eps: ChainSum, b_eps: ChainSum, eps: int, t: int, cycle_scale: int
) -> ChainDivision:
    """Chain constraint of the combined equation for one parity class.

    ``cycle_scale`` is the parity with which the divisor's cycle part acts
    on chains; when it is 0 the equation is a pure chain division of
    b + t*a by a, otherwise x appears on both sides and is forced below
    the cutoff.
    """
    target = b_eps + a_eps if t else b_eps
    if cycle_scale == 0:
        if not a_eps:
            kind = "empty" if target else "all"
            return ChainDivision(parity=eps, cutoff=0, kind=kind)
        return divide_chains(a_eps, target, eps)
    h = max(a_eps.height, b_eps.height)
    return _chain_interval(eps, h, target, target + a_eps, free_tail=False)


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
    branches = []
    for t in (0, 1):
        if sol is None:
            free = not bc
            cycle = CycleBranch(t=t, free=free, sol=None, nonempty=free)
        else:
            nonempty = sol.solvable and interval_has_parity(*sol.level_coords(0), t, sol.bits)
            cycle = CycleBranch(t=t, free=False, sol=sol, nonempty=nonempty)
        chains = tuple(
            _chain_branch(
                a.chains.parity_part(eps), b.chains.parity_part(eps), eps, t, scale
            )
            for eps in (0, 1)
        )
        branches.append(BranchSolution(t=t, cycle=cycle, chains=chains))
    return CombinedSolutionSet(a=a, b=b, branches=tuple(branches))


def _subsets(divs: list[int], t: Optional[int]) -> Iterator[OddSet]:
    """Every OddSet over divs, by a choice counter whose bit i picks
    divs[i]; only those of support parity t unless t is None."""
    for c in submasks(0, range(len(divs))):
        if t is None or c.bit_count() & 1 == t:
            yield OddSet._make(frozenset(divs[i] for i in ones(c)))


def _cycle_factors(
    branch: CycleBranch, bits: DivisorBits, max_level: int
) -> list[Callable[[], Iterator[OddSet]]]:
    """One factor per cycle level 0..max_level for ``lazy_product``; an
    empty list when no cycle part of the branch fits the window."""
    if branch.free:
        divs = sorted(bits.divisors)
        return [lambda: _subsets(divs, branch.t)] + [lambda: _subsets(divs, None)] * max_level
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
    if k < 1 or k % 2 == 0:
        raise ValueError(f"odd k required, got {k}")
    ka = a.cycles.stats()[0]
    kb = b.cycles.stats()[0]
    if k % lcm(ka, kb) != 0:
        raise ValueError(
            f"k={k} must be a multiple of lcm({ka}, {kb}); "
            "restriction would be unsound"
        )
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
            xc = CycleSum._make({i: odd for i, odd in enumerate(levels) if odd})
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
