"""Exact arithmetic for sums of cycles counted modulo 2.

A cycle of length q = 2**i * q' (q' odd) has dyadic level i and odd part
q'.  An element is a finite sum of distinct cycles; addition is symmetric
difference of supports and the product of two single cycles is C_lcm when
their gcd is odd and 0 otherwise.

Sums of odd-length cycles are exactly the idempotents; they carry a Boolean
lattice structure (meet = product, join e|f = e + f + e*f, complement
against C1) used throughout the division and classification code.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

from .formal import FormalSum, ProductRule


def _lcm_pairs(acc: set[int], xs: Iterable[int], ys: Iterable[int], lcm=math.lcm) -> set[int]:
    """Toggle lcm(a, b) in acc for each a in xs, b in ys: the lcm-convolution
    of odd lengths, whose gcds are odd, so only mod-2 cancellation matters."""
    for a in xs:
        for b in ys:
            if (q := lcm(a, b)) in acc:
                acc.remove(q)
            else:
                acc.add(q)
    return acc


def level_lengths(i: int, odds: Iterable[int]) -> tuple[int, ...]:
    """The lengths 2**i * q over the distinct odd parts q, ascending: the
    form in which a cycle sum holds its level i."""
    return tuple(sorted([q << i for q in odds] if i else odds))


def _toggled(xs: tuple[int, ...], ys: tuple[int, ...]) -> tuple[int, ...]:
    """The symmetric difference of two ascending tuples, by one merge."""
    out, i, j = [], 0, 0
    while i < len(xs) and j < len(ys):
        x, y = xs[i], ys[j]
        if x != y:
            out.append(x if x < y else y)
        i, j = i + (x <= y), j + (y <= x)
    return (*out, *xs[i:], *ys[j:])


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
        return OddSet._make(self.lengths ^ other.lengths)

    def __mul__(self, other: "OddSet") -> "OddSet":
        return OddSet._make(frozenset(_lcm_pairs(set(), self.lengths, other.lengths)))

    def __or__(self, other: "OddSet") -> "OddSet":
        """Lattice join: e | f = e + f + e*f."""
        return self + other + self * other

    def complement(self) -> "OddSet":
        """Complement below the top element C1."""
        return self + ODD_ONE

    # the operators of the atom-coordinate masks, so one formula reads
    # alike on masks and on OddSets (``~`` only ever under ``&``)
    __and__ = __mul__
    __xor__ = __add__
    __invert__ = complement

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
        return CycleSum._of([(level, level_lengths(level, self.lengths))])

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

    ``_levels`` holds one (i, lengths) pair per nonempty level i, levels
    ascending: the raw lengths 2**i * q' of valuation i, as an ascending
    tuple.  ``items``, ``level`` and the other views give a level as the
    ``OddSet`` of its odd parts q', built when asked for.
    """

    __slots__ = ("_levels",)

    def __init__(self, levels: Mapping[int, OddSet | Iterable[int]] = ()):
        lengths: list[int] = []
        items = levels.items() if isinstance(levels, Mapping) else levels
        for i, odd in items:
            if i < 0:
                raise ValueError(f"level must be >= 0, got {i}")
            lengths += [q << i for q in OddSet(odd)]
        self._levels = CycleSum.from_lengths(lengths)._levels

    @classmethod
    def _of(cls, levels: Iterable[tuple[int, tuple[int, ...]]]) -> "CycleSum":
        """Wrap pairs in the form ``raw_levels`` gives, unchecked."""
        out = cls.__new__(cls)
        out._levels = tuple(levels)
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
        return cls._of([(split_length(q)[0], (q,))])

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "CycleSum":
        """Build from a multiset of lengths, keeping odd multiplicities and the ints given."""
        ls = list(lengths)
        if ls and min(ls) < 1:
            q = next(q for q in ls if q < 1)
            raise ValueError(f"cycle length must be >= 1, got {q}")
        support = set(ls)
        if len(support) < len(ls):
            support = set()
            for q in ls:
                support ^= {q}
        grouped: dict[int, list[int]] = {}
        for q in sorted(support):
            grouped.setdefault((q & -q).bit_length() - 1, []).append(q)
        return cls._of((i, tuple(qs)) for i, qs in sorted(grouped.items()))

    def level(self, i: int) -> OddSet:
        """The idempotent at dyadic level i (empty when absent)."""
        for j, ls in self._levels:
            if j == i:
                return OddSet._make(frozenset([q >> i for q in ls] if i else ls))
        return ODD_ZERO

    def items(self) -> tuple[tuple[int, OddSet], ...]:
        return tuple((i, self.level(i)) for i, _ in self._levels)

    def raw_levels(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The (i, ascending raw lengths 2**i * q') pair of each nonempty
        level i, ascending: the form the sum is held in."""
        return self._levels

    def lengths(self) -> tuple[int, ...]:
        """All raw cycle lengths of the support, ascending."""
        return tuple(sorted(q for _, ls in self._levels for q in ls))

    def __bool__(self) -> bool:
        return bool(self._levels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycleSum) and self._levels == other._levels

    def __hash__(self) -> int:
        return hash(("CycleSum", self._levels))

    def __add__(self, other: "CycleSum") -> "CycleSum":
        acc = dict(self._levels)
        for i, ls in other._levels:
            acc[i] = _toggled(acc[i], ls) if i in acc else ls
        return CycleSum._of(sorted(pair for pair in acc.items() if pair[1]))

    def __mul__(self, other: "CycleSum") -> "CycleSum":
        """z_0 = x_0·y_0 and z_i = x_0·y_i + x_i·y_0 for i >= 1, each level
        built once: one walk over the ascending levels takes x_i·y_0 at every
        level of x and x_0·y_i above level 0.  Two even-length cycles multiply
        to 0, so a zero operand, or no level-0 part on either side, gives 0.
        Raw lengths multiply as held: lcm(2**i * q, r) = 2**i * lcm(q, r), r odd."""
        xs, ys = self._levels, other._levels
        if not xs or not ys or (xs[0][0] and ys[0][0]):
            return _ZERO
        x0 = () if xs[0][0] else xs[0][1]
        y0 = () if ys[0][0] else ys[0][1]
        xs = xs if y0 else ()
        ys = ys[bool(y0):] if x0 else ()
        out = []
        i = j = 0
        while i < len(xs) or j < len(ys):
            lx = xs[i][0] if i < len(xs) else math.inf
            ly = ys[j][0] if j < len(ys) else math.inf
            acc = _lcm_pairs(set(), xs[i][1], y0) if lx <= ly else set()
            if ly <= lx:
                _lcm_pairs(acc, x0, ys[j][1])
            i, j = i + (lx <= ly), j + (ly <= lx)
            if acc:
                out.append((min(lx, ly), tuple(sorted(acc))))
        return CycleSum._of(out)

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
        return CycleSum._of([pair for pair in self._levels if pair[0]])

    @property
    def plus_closure(self) -> OddSet:
        """Join of all level components: the least idempotent fixing self."""
        out = ODD_ZERO
        for _, odd in self.items():
            out = out | odd
        return out

    def stats(self) -> tuple[int, int]:
        """(lcm of odd parts, max level); (1, 0) for the zero element."""
        if not self._levels:
            return (1, 0)
        k = 1
        for top, ls in self._levels:
            k = math.lcm(k, *ls)
        return (k >> top, top)

    @property
    def max_level(self) -> int:
        """The top level held; 0 for the zero element."""
        return self._levels[-1][0] if self._levels else 0

    def restrict_level(self, n: int) -> "CycleSum":
        """Drop all cycles at dyadic level above n."""
        if n < 0:
            raise ValueError("level bound must be >= 0")
        return CycleSum._of([pair for pair in self._levels if pair[0] <= n])

    def restrict_div(self, k: int) -> "CycleSum":
        """Keep only cycles whose odd part divides k (k odd)."""
        if k < 1 or k % 2 == 0:
            raise ValueError(f"odd modulus required, got {k}")
        return CycleSum._of(
            (i, kept) for i, ls in self._levels
            if (kept := tuple(q for q in ls if (k << i) % q == 0))
        )

    @property
    def is_idempotent(self) -> bool:
        return all(i == 0 for i, _ in self._levels)

    def __str__(self) -> str:
        if not self._levels:
            return "0"
        return " + ".join(f"C{q}" for q in self.lengths())

    def __repr__(self) -> str:
        return f"CycleSum({str(self)!r})"


_ZERO = CycleSum._of(())
_ONE = CycleSum._of([(0, (1,))])


def odd_lengths(x: CycleSum) -> tuple[int, ...]:
    """The lengths of level 0 of x, ascending, as held: its odd part."""
    levels = x._levels
    return levels[0][1] if levels and not levels[0][0] else ()


def odd_cycle_parity(x: CycleSum) -> int:
    """Parity of the number of odd-length cycles: how x scales any chain."""
    return len(odd_lengths(x)) & 1


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
