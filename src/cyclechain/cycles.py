"""Exact arithmetic for sums of cycles counted modulo 2.

A cycle of length q = 2**i * q' (q' odd) is stored in (level, odd part)
coordinates: level i, odd part q'.  An element is a finite sum of distinct
cycles; addition is symmetric difference of supports and the product of two
single cycles is C_lcm when their gcd is odd and 0 otherwise.

Sums of odd-length cycles are exactly the idempotents; they carry a Boolean
lattice structure (meet = product, join e|f = e + f + e*f, complement
against C1) used throughout the division and classification code.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

from .formal import FormalSum, ProductRule


def split_length(q: int) -> tuple[int, int]:
    """Return (dyadic level, odd part) of a positive cycle length."""
    if q < 1:
        raise ValueError(f"cycle length must be >= 1, got {q}")
    level = (q & -q).bit_length() - 1
    return level, q >> level


class OddSet:
    """A finite sum of distinct odd-length cycles (an idempotent element)."""

    __slots__ = ("lengths",)

    def __init__(self, lengths: Iterable[int] = ()):
        ls = frozenset(lengths)
        for q in ls:
            if q < 1 or q % 2 == 0:
                raise ValueError(f"odd cycle length required, got {q}")
        self.lengths: frozenset[int] = ls

    @classmethod
    def _make(cls, lengths: frozenset[int]) -> "OddSet":
        """Wrap lengths already known to be odd and positive, unchecked."""
        out = cls.__new__(cls)
        out.lengths = lengths
        return out

    def __bool__(self) -> bool:
        return bool(self.lengths)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OddSet) and self.lengths == other.lengths

    def __hash__(self) -> int:
        return hash(("OddSet", self.lengths))

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.lengths))

    def __len__(self) -> int:
        return len(self.lengths)

    def __add__(self, other: "OddSet") -> "OddSet":
        return OddSet(self.lengths ^ other.lengths)

    def __mul__(self, other: "OddSet") -> "OddSet":
        # lcm-convolution; the gcd of two odd numbers is odd, so every
        # pair survives and only mod-2 cancellation matters.
        acc: set[int] = set()
        for a in self.lengths:
            for b in other.lengths:
                acc ^= {math.lcm(a, b)}
        return OddSet(acc)

    def __or__(self, other: "OddSet") -> "OddSet":
        """Lattice join: e | f = e + f + e*f."""
        return self + other + self * other

    def complement(self) -> "OddSet":
        """Complement below the top element C1."""
        return self + ODD_ONE

    def __le__(self, other: "OddSet") -> bool:
        return self * other == self

    def __ge__(self, other: "OddSet") -> bool:
        return other * self == other

    @property
    def parity(self) -> int:
        """Cardinality of the support modulo 2."""
        return len(self.lengths) & 1

    def as_cycles(self, level: int = 0) -> "CycleSum":
        """Lift to a cycle sum with every length multiplied by 2**level."""
        if not self.lengths:
            return CycleSum.zero()
        return CycleSum._make({level: self})

    def __str__(self) -> str:
        if not self.lengths:
            return "0"
        return " + ".join(f"C{q}" for q in sorted(self.lengths))

    def __repr__(self) -> str:
        return f"OddSet({str(self)!r})"


ODD_ZERO = OddSet()
ODD_ONE = OddSet([1])


class CycleSum:
    """A finite sum of distinct cycles, held per dyadic level.

    ``levels`` maps i to the (nonempty) odd parts of the lengths whose
    dyadic valuation is i; the represented element is the sum of all
    cycles of length 2**i * q' over the stored pairs.
    """

    __slots__ = ("_levels",)

    def __init__(self, levels: Mapping[int, OddSet | Iterable[int]] = ()):
        normal: dict[int, OddSet] = {}
        items = levels.items() if isinstance(levels, Mapping) else levels
        for i, odd in items:
            if i < 0:
                raise ValueError(f"level must be >= 0, got {i}")
            odd = odd if isinstance(odd, OddSet) else OddSet(odd)
            if odd:
                prev = normal.get(i, ODD_ZERO)
                merged = prev + odd
                if merged:
                    normal[i] = merged
                else:
                    normal.pop(i, None)
        self._levels: tuple[tuple[int, OddSet], ...] = tuple(
            sorted(normal.items())
        )

    @classmethod
    def _make(cls, normal: dict[int, OddSet]) -> "CycleSum":
        out = cls.__new__(cls)
        out._levels = tuple(sorted(normal.items()))
        return out

    @classmethod
    def zero(cls) -> "CycleSum":
        return _ZERO

    @classmethod
    def one(cls) -> "CycleSum":
        return _ONE

    @classmethod
    def single(cls, q: int) -> "CycleSum":
        """The cycle of length q."""
        i, odd = split_length(q)
        return cls._make({i: OddSet([odd])})

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "CycleSum":
        """Build from a multiset of lengths, keeping odd multiplicities."""
        ls = list(lengths)
        if ls and min(ls) < 1:
            q = next(q for q in ls if q < 1)
            raise ValueError(f"cycle length must be >= 1, got {q}")
        support = set(ls)
        if len(support) < len(ls):
            support = set()
            for q in ls:
                support ^= {q}
        # odd parts grouped in sets: a frozenset copied from a set gets a
        # smaller table than one built from a list
        grouped: dict[int, set[int]] = {}
        for q in support:
            level = (q & -q).bit_length() - 1
            odds = grouped.get(level)
            if odds is None:
                grouped[level] = {q >> level}
            else:
                odds.add(q >> level)
        return cls._make({i: OddSet._make(frozenset(odds)) for i, odds in grouped.items()})

    def level(self, i: int) -> OddSet:
        """The idempotent at dyadic level i (empty when absent)."""
        for j, odd in self._levels:
            if j == i:
                return odd
        return ODD_ZERO

    def items(self) -> tuple[tuple[int, OddSet], ...]:
        return self._levels

    def lengths(self) -> tuple[int, ...]:
        """All raw cycle lengths of the support, ascending."""
        out = [q << i for i, odd in self._levels for q in odd.lengths]
        return tuple(sorted(out))

    def __bool__(self) -> bool:
        return bool(self._levels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycleSum) and self._levels == other._levels

    def __hash__(self) -> int:
        return hash(("CycleSum", self._levels))

    def __add__(self, other: "CycleSum") -> "CycleSum":
        acc = dict(self._levels)
        for i, odd in other._levels:
            merged = acc.get(i, ODD_ZERO) + odd
            if merged:
                acc[i] = merged
            else:
                acc.pop(i, None)
        return CycleSum._make(acc)

    def __mul__(self, other: "CycleSum") -> "CycleSum":
        # z_0 = x_0 y_0 and z_i = x_0 y_i + x_i y_0: products of two
        # even-length cycles vanish, so only the level-0 parts spread.
        x0 = self.level(0)
        y0 = other.level(0)
        acc: dict[int, OddSet] = {}
        z0 = x0 * y0
        if z0:
            acc[0] = z0
        for i, xi in self._levels:
            if i == 0:
                continue
            zi = xi * y0
            if zi:
                acc[i] = zi
        for i, yi in other._levels:
            if i == 0:
                continue
            zi = x0 * yi
            merged = acc.get(i, ODD_ZERO) + zi
            if merged:
                acc[i] = merged
            else:
                acc.pop(i, None)
        return CycleSum._make(acc)

    def __pow__(self, n: int) -> "CycleSum":
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    @property
    def odd_part(self) -> OddSet:
        """The level-0 component."""
        return self.level(0)

    @property
    def even_part(self) -> "CycleSum":
        """Everything above level 0."""
        return CycleSum._make({i: odd for i, odd in self._levels if i > 0})

    @property
    def plus_closure(self) -> OddSet:
        """Join of all level components: the least idempotent fixing self."""
        out = ODD_ZERO
        for _, odd in self._levels:
            out = out | odd
        return out

    def stats(self) -> tuple[int, int]:
        """(lcm of odd parts, max level); (1, 0) for the zero element."""
        if not self._levels:
            return (1, 0)
        k = 1
        for _, odd in self._levels:
            k = math.lcm(k, *odd.lengths)
        return (k, self._levels[-1][0])

    @property
    def max_level(self) -> int:
        return self.stats()[1]

    def restrict_level(self, n: int) -> "CycleSum":
        """Drop all cycles at dyadic level above n."""
        if n < 0:
            raise ValueError("level bound must be >= 0")
        return CycleSum._make({i: odd for i, odd in self._levels if i <= n})

    def restrict_div(self, k: int) -> "CycleSum":
        """Keep only cycles whose odd part divides k (k odd)."""
        if k < 1 or k % 2 == 0:
            raise ValueError(f"odd modulus required, got {k}")
        acc: dict[int, OddSet] = {}
        for i, odd in self._levels:
            kept = OddSet(q for q in odd.lengths if k % q == 0)
            if kept:
                acc[i] = kept
        return CycleSum._make(acc)

    @property
    def is_idempotent(self) -> bool:
        return all(i == 0 for i, _ in self._levels)

    def __str__(self) -> str:
        if not self._levels:
            return "0"
        return " + ".join(f"C{q}" for q in self.lengths())

    def __repr__(self) -> str:
        return f"CycleSum({str(self)!r})"


_ZERO = CycleSum._make({})
_ONE = CycleSum._make({0: ODD_ONE})


def mul_cycles(m: int, n: int) -> CycleSum:
    """Product of two single cycles: C_lcm when gcd(m, n) is odd, else 0."""
    if m < 1 or n < 1:
        raise ValueError("cycle lengths must be >= 1")
    if math.gcd(m, n) % 2 == 0:
        return _ZERO
    return CycleSum.single(math.lcm(m, n))


def cycle_product_rule() -> ProductRule:
    """The single-cycle product as a rule over generators ("C", n)."""

    def pair(g: tuple[str, int], h: tuple[str, int]) -> FormalSum:
        p = mul_cycles(g[1], h[1])
        return FormalSum(("C", q) for q in p.lengths())

    return ProductRule(pair_product=pair, identity=("C", 1))
