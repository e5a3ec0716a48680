"""Finite meet lattices and the Boolean algebra of their formal sums.

``FiniteLattice`` stores an explicit meet table plus derived order data
(top, bottom, covers, a descending linear extension).  ``BoolElem`` is a
formal sum mod 2 over the ground set; under the mod-2 meet-convolution
product these sums form a Boolean algebra.  A ``BoolElem`` is held in atom
coordinates: bit l is the parity of the support's elements >= l, the mod-2
zeta transform (Rota 1964).  There the product is ``&``, the atom at l is
bit l alone, and the support is decoded by Moebius inversion when read.

The divisor lattice of an odd k (divisors ordered by reverse divisibility,
meet = lcm) is the instance the cycle arithmetic cares about; its atoms
have the closed form stated by ``divisor_atom``.  ``DivisorBits`` holds
the same algebra in atom coordinates, as int bitmasks over the products
of powers of a coprime base.  Only window code factors k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, compress, islice
from operator import xor
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .cycles import split_length

T = TypeVar("T")


class _AdjoinedTop:
    """Fresh top element adjoined to a semilattice."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


ADJOINED_TOP = _AdjoinedTop()


class FiniteLattice:
    """A finite bounded lattice given by its ground set and meet operation.

    The constructor validates closure, idempotency, commutativity,
    associativity and the top/bottom laws (n^2 steps on n-bit masks).
    The order is kept as up-set and down-set masks, which ``_zeta`` and
    ``_moebius`` read.  Instances are immutable after construction and
    safe to share.
    """

    def __init__(
        self,
        elements: Sequence[Hashable],
        meet: Callable[[Hashable, Hashable], Hashable]
        | Mapping[tuple[Hashable, Hashable], Hashable],
    ):
        self.elements: tuple = tuple(elements)
        n = len(self.elements)
        if n == 0:
            raise ValueError("lattice needs at least one element")
        if len(set(self.elements)) != n:
            raise ValueError("duplicate lattice elements")
        self.index: dict = {e: i for i, e in enumerate(self.elements)}

        if callable(meet):
            lookup = meet
        else:
            table = dict(meet)

            def lookup(a, b, _t=table):
                if (a, b) in _t:
                    return _t[(a, b)]
                return _t[(b, a)]

        elems = self.elements
        index = self.index
        m: list[tuple[int, ...]] = []
        for a in elems:
            row = []
            for b in elems:
                v = lookup(a, b)
                if v not in index:
                    raise ValueError(f"meet({a!r}, {b!r}) = {v!r} not in ground set")
                row.append(index[v])
            m.append(tuple(row))
        self._meet = m

        cols = list(zip(*m))
        for i, row in enumerate(m):
            if row[i] != i:
                raise ValueError(f"meet not idempotent at {elems[i]!r}")
            if row != cols[i]:
                j = next(j for j in range(n) if row[j] != cols[i][j])
                raise ValueError(
                    f"meet not commutative at ({elems[i]!r}, {elems[j]!r})"
                )
        # order: a <= b iff a meet b = a.  Bit j of _up[i] is set when
        # i <= j, bit j of down[i] when j <= i.
        bits = [1 << j for j in range(n)]
        up = [sum(compress(bits, map(i.__eq__, row))) for i, row in enumerate(m)]
        down = [sum(compress(bits, map(int.__eq__, row, range(n)))) for row in m]
        self._up = up
        self._down = down

        # Associativity on the down-sets: a meet that is associative makes
        # down[i j] = down[i] & down[j].  Conversely, this makes both
        # (i j) k and i (j k) have the down-set down[i] & down[j] & down[k],
        # and a commutative, idempotent meet gives distinct elements
        # distinct down-sets.  A failure is located by the triple loop, so
        # it names the first failing (i, j, k).
        for i, row in enumerate(m):
            if list(map(down.__getitem__, row)) != [down[i] & d for d in down]:
                i, j, k = next(
                    (i, j, k)
                    for i in range(n)
                    for j in range(n)
                    for k in range(n)
                    if m[m[i][j]][k] != m[i][m[j][k]]
                )
                raise ValueError(
                    "meet not associative at "
                    f"({elems[i]!r}, {elems[j]!r}, {elems[k]!r})"
                )

        full = (1 << n) - 1
        tops = [j for j in range(n) if down[j] == full]
        bottoms = [i for i in range(n) if up[i] == full]
        if len(tops) != 1 or len(bottoms) != 1:
            raise ValueError("lattice must have a unique top and bottom")
        self._top_idx = tops[0]
        self._bottom_idx = bottoms[0]

        # descending linear extension: element i precedes j whenever i >= j
        self._toporder: tuple[int, ...] = tuple(
            sorted(range(n), key=lambda i: (up[i].bit_count(), i))
        )
        # covers by transitive reduction: j covered by i if j < i with
        # nothing strictly between, i.e. j is strictly below i but not
        # strictly below any other element strictly below i
        strict = [d & ~(1 << i) for i, d in enumerate(down)]
        self._covers_below: list[tuple[int, ...]] = []
        for below in strict:
            deeper = 0
            for k in ones(below):
                deeper |= strict[k]
            self._covers_below.append(tuple(ones(below & ~deeper)))

    def _zeta(self, support: Iterable[int]) -> int:
        """Atom mask of the sum supported at these distinct indices: bit l
        is the parity of the support's elements >= l, the XOR of their
        down-sets."""
        return reduce(xor, map(self._down.__getitem__, support), 0)

    def _moebius(self, mask: int) -> int:
        """Support mask of the sum with this atom mask, from the top down:
        l is in the support when bit l differs from the parity of the
        support already found above l."""
        up = self._up
        support = 0
        for i in self._toporder:
            if (mask >> i ^ (support & up[i]).bit_count()) & 1:
                support |= 1 << i
        return support

    # -- basic structure -------------------------------------------------

    @property
    def top(self) -> Hashable:
        return self.elements[self._top_idx]

    @property
    def bottom(self) -> Hashable:
        return self.elements[self._bottom_idx]

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteLattice({list(self.elements)!r})"

    def __eq__(self, other: object) -> bool:
        """Same elements in the same order and the same meet: a rebuilt
        lattice equals the one it replaces, so sum-algebra values over the
        two compare and combine."""
        return self is other or (
            isinstance(other, FiniteLattice)
            and self.elements == other.elements
            and self._meet == other._meet
        )

    def __hash__(self) -> int:
        return hash(self.elements)

    def meet(self, a: Hashable, b: Hashable) -> Hashable:
        return self.elements[self._meet[self.index[a]][self.index[b]]]

    def join(self, a: Hashable, b: Hashable) -> Hashable:
        """Least upper bound (exists: the ground set is finite and bounded)."""
        up = self._up
        upper = up[self.index[a]] & up[self.index[b]]
        least = [k for k in ones(upper) if up[k] & upper == upper]
        if len(least) != 1:
            raise ValueError(f"no unique join for ({a!r}, {b!r})")
        return self.elements[least[0]]

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return bool(self._up[self.index[a]] >> self.index[b] & 1)

    def covers_below(self, a: Hashable) -> tuple:
        """Elements covered by a: strictly below with nothing in between."""
        return tuple(
            self.elements[j] for j in self._covers_below[self.index[a]]
        )

    @classmethod
    def from_leq(
        cls,
        elements: Sequence[Hashable],
        leq_pairs: Iterable[tuple[Hashable, Hashable]],
    ) -> "FiniteLattice":
        """Build from the reflexive-transitive closure of given a <= b pairs.

        Meets are computed as greatest lower bounds; raises if some pair
        has none or several maximal lower bounds.  The closure is taken on
        up-set masks (bit j of up[i] when i <= j), a row at a time.
        """
        elems = tuple(elements)
        idx = {e: i for i, e in enumerate(elems)}
        n = len(elems)
        up = [1 << i for i in range(n)]
        for a, b in leq_pairs:
            up[idx[a]] |= 1 << idx[b]
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        down = [0] * n
        for i, u in enumerate(up):
            for j in ones(u):
                down[j] |= 1 << i

        def glb(a, b):
            lower = down[idx[a]] & down[idx[b]]
            maximal = [k for k in ones(lower) if up[k] & lower == 1 << k]
            if len(maximal) != 1:
                raise ValueError(f"no unique meet for ({a!r}, {b!r})")
            return elems[maximal[0]]

        return cls(elems, glb)


@lru_cache(maxsize=32)
def divisor_lattice(k: int) -> FiniteLattice:
    """Divisors of odd k ordered by reverse divisibility; meet is lcm.

    Cached so that repeated calls share one lattice object.  The cache keeps
    the 32 most recently used lattices; a lattice built again after its
    eviction equals the old one, so values over either still combine.
    """
    return FiniteLattice(divisors(k), math.lcm)


class BoolElem:
    """A formal sum mod 2 over a lattice's ground set, an element of its
    sum algebra, held in atom coordinates.

    Bit l of ``mask`` is the parity of the support's elements >= l.  So
    the meet-convolution product is ``&``, the sum ``^``, the join ``|``,
    the complement XOR with the full mask and ``<=`` a subset test.
    ``bits``, the support mask, is decoded when read.
    """

    __slots__ = ("lattice", "mask")

    def __init__(self, lattice: FiniteLattice, support: Iterable[Hashable] = ()):
        self.lattice = lattice
        self.mask = lattice._zeta({lattice.index[e] for e in support})

    @classmethod
    def _from_bits(cls, lattice: FiniteLattice, bits: int) -> "BoolElem":
        return cls._from_mask(lattice, lattice._zeta(ones(bits)))

    @classmethod
    def _from_mask(cls, lattice: FiniteLattice, mask: int) -> "BoolElem":
        out = cls.__new__(cls)
        out.lattice = lattice
        out.mask = mask
        return out

    @property
    def bits(self) -> int:
        """The support mask: bit i is set when ``elements[i]`` is in the sum."""
        return self.lattice._moebius(self.mask)

    def _check(self, other: "BoolElem") -> None:
        if self.lattice != other.lattice:
            raise ValueError("operands belong to different lattices")

    def support(self) -> tuple:
        return tuple(map(self.lattice.elements.__getitem__, ones(self.bits)))

    def __bool__(self) -> bool:
        return self.mask != 0

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BoolElem)
            and self.mask == other.mask
            and self.lattice == other.lattice
        )

    def __hash__(self) -> int:
        return hash((self.lattice, self.mask))

    def __add__(self, other: "BoolElem") -> "BoolElem":
        self._check(other)
        return BoolElem._from_mask(self.lattice, self.mask ^ other.mask)

    def __mul__(self, other: "BoolElem") -> "BoolElem":
        """Meet-convolution mod 2."""
        self._check(other)
        return BoolElem._from_mask(self.lattice, self.mask & other.mask)

    def __or__(self, other: "BoolElem") -> "BoolElem":
        self._check(other)
        return BoolElem._from_mask(self.lattice, self.mask | other.mask)

    def complement(self) -> "BoolElem":
        return BoolElem._from_mask(self.lattice, self.mask ^ (1 << len(self.lattice)) - 1)

    def __le__(self, other: "BoolElem") -> bool:
        self._check(other)
        return not self.mask & ~other.mask

    def __ge__(self, other: "BoolElem") -> bool:
        return other <= self

    def __str__(self) -> str:
        if not self.mask:
            return "0"
        return " + ".join(str(e) for e in self.support())

    def __repr__(self) -> str:
        return f"BoolElem({str(self)!r})"


def unit_vector(lat: FiniteLattice, l: Hashable) -> BoolElem:
    return BoolElem._from_mask(lat, lat._down[lat.index[l]])


def atom_for(lat: FiniteLattice, l: Hashable) -> BoolElem:
    """The unique atom of the sum algebra whose support joins to l.

    It contains l, and below l every strict predecessor is covered an even
    number of times; in atom coordinates it is bit l alone.
    """
    return BoolElem._from_mask(lat, 1 << lat.index[l])


def atoms(lat: FiniteLattice) -> tuple[BoolElem, ...]:
    """All atoms, one per lattice element, in ground-set order."""
    return tuple(atom_for(lat, l) for l in lat.elements)


def atoms_below(x: BoolElem) -> frozenset:
    """Lattice elements l with atom_for(l) <= x."""
    return frozenset(map(x.lattice.elements.__getitem__, ones(x.mask)))


def from_atoms(lat: FiniteLattice, ls: Iterable[Hashable]) -> BoolElem:
    """The sum of the atoms at ls; an element listed twice cancels."""
    mask = 0
    for l in ls:
        mask ^= 1 << lat.index[l]
    return BoolElem._from_mask(lat, mask)


def norm(x: BoolElem, l: Hashable) -> int:
    """1 when x dominates the atom at l, else 0.

    At the lattice bottom this is the parity of the support size of x.
    """
    return x.mask >> x.lattice.index[l] & 1


@dataclass(frozen=True)
class Interval:
    """The order interval [lo, hi] in a sum algebra; empty unless lo <= hi."""

    lo: BoolElem
    hi: BoolElem

    def __post_init__(self):
        if self.lo.lattice != self.hi.lattice:
            raise ValueError("interval endpoints in different lattices")

    @property
    def is_empty(self) -> bool:
        return not self.lo <= self.hi

    def __contains__(self, x: BoolElem) -> bool:
        return self.lo <= x and x <= self.hi

    def __len__(self) -> int:
        if self.is_empty:
            return 0
        return 1 << (self.hi.mask & ~self.lo.mask).bit_count()

    def members(self) -> Iterator[BoolElem]:
        """All members, lexicographically by atom choice: bit t of the
        choice adds the free atom of the t-th smallest element index."""
        if self.is_empty:
            return
        lat = self.lo.lattice
        for mask in submasks(self.lo.mask, ones(self.hi.mask & ~self.lo.mask)):
            yield BoolElem._from_mask(lat, mask)


def interval_parity_split(iv: Interval, l: Hashable) -> tuple[Interval, Interval]:
    """Split [lo, hi] by the norm at l: (norm 0 part, norm 1 part).

    Either returned interval may be empty.  At the lattice bottom the two
    parts are the even- and odd-support-size members.
    """
    if iv.is_empty:
        raise ValueError("cannot split an empty interval")
    a = atom_for(iv.lo.lattice, l)
    return Interval(iv.lo, iv.hi * a.complement()), Interval(iv.lo | a, iv.hi)


@dataclass(frozen=True)
class SemilatticeAlgebra:
    """Boolean algebra on the sums over a meet-semilattice without a top.

    Elements are the BoolElem values of ``lattice`` (the semilattice with a
    fresh top adjoined) supported away from the adjoined top; the algebra
    top is e_top + atom_for(top) and its atoms are all other atoms.
    """

    lattice: FiniteLattice
    top: BoolElem
    atoms: tuple[BoolElem, ...]

    def embed(self, support: Iterable[Hashable]) -> BoolElem:
        return BoolElem(self.lattice, support)

    def complement(self, x: BoolElem) -> BoolElem:
        return x + self.top


def semilattice_algebra(
    elements: Sequence[Hashable],
    meet: Callable[[Hashable, Hashable], Hashable],
) -> SemilatticeAlgebra:
    """Build the sum algebra of a finite meet-semilattice.

    The input must be meet-closed with a least element; a fresh top is
    adjoined to make it a lattice, whose constructor checks both.
    """
    elems = tuple(elements)

    def adj_meet(a, b):
        if a is ADJOINED_TOP:
            return b
        if b is ADJOINED_TOP:
            return a
        return meet(a, b)

    lat = FiniteLattice((ADJOINED_TOP,) + elems, adj_meet)
    top_atom = atom_for(lat, ADJOINED_TOP)
    full_top = unit_vector(lat, ADJOINED_TOP) + top_atom
    rest = tuple(atom_for(lat, l) for l in elems)
    return SemilatticeAlgebra(lattice=lat, top=full_top, atoms=rest)


# Most divisors a DivisorBits layout takes: masks of at most 512 bytes.
MAX_BIT_DIVISORS = 1 << 12


class DivisorBits:
    """Atom coordinates for the idempotents whose lengths are products of
    powers of a pairwise coprime base, whose elements need not be prime.

    Bit t of a mask stands for ``divisors[t]``, indexed in mixed radix by
    its exponents (first base element least significant); ``k`` is the
    largest, and the divisors are closed under gcd and lcm.  An idempotent
    maps to the mask whose bit at j is the parity of the number of its
    lengths dividing j: ``C_q`` becomes the up-set {j : q | j}, the mod-2
    zeta transform over these divisors.  There the lcm-convolution product
    is ``&``, the sum ``^``, the join ``|``, the complement XOR with
    ``top`` and ``<=`` a subset test, and the bit at j = k is the parity of
    the support size.  ``zero``, ``top``, ``encode``, ``decode`` and
    ``parity`` are the coordinate interface the solvers run on
    (``division.ODD_COORDS`` is the other).

    The lattice is a product of one chain per base element, so the zeta
    transform is a prefix XOR along each chain: one shift-XOR pass per
    element and exponent step, O(d * omega) bit work for d divisors.  The
    mod-2 Moebius inverse runs the same passes in reverse order.  The
    transform is linear, so ``encode`` XORs the up-sets of the lengths;
    the layout keeps the up-set of each divisor, made by the passes the
    first time it is encoded, so it holds at most d of them.

    A cycle sum holds level i as raw lengths 2**i * q (``raw_levels``),
    a mask the odd parts q: ``encode`` maps an even key to the up-set of q
    and ``decode(x, i)`` reads a table of the divisors times 2**i kept per
    level, the rules that ``division.OddCoords`` follows too.
    """

    __slots__ = ("k", "base", "divisors", "index", "top", "_passes", "_up", "_raw", "_order")
    zero = 0

    def __init__(self, factors: tuple[tuple[int, int], ...]):
        divisors = [1]
        strides = []
        for p, e in factors:
            strides.append((len(divisors), e))
            divisors = [d * p**a for a in range(e + 1) for d in divisors]
        n = len(divisors)
        passes = []
        for stride, e in strides:
            period = stride * (e + 1)
            for a in range(1, e + 1):
                # positions whose exponent of this element is a - 1
                sel = 0
                for t in range((a - 1) * stride, n, period):
                    sel |= ((1 << stride) - 1) << t
                passes.append((stride, sel))
        self.k = divisors[-1]
        self.base: tuple[int, ...] = tuple(p for p, _ in factors)
        self.divisors: tuple[int, ...] = tuple(divisors)
        self.index: dict[int, int] = {d: t for t, d in enumerate(divisors)}
        self.top = (1 << n) - 1
        self._passes = tuple(passes)
        self._up = _UpSets(self.index, self._passes)
        self._raw = {0: self.divisors}
        self._order: Optional[list[int]] = None

    def encode(self, lengths: Iterable[int]) -> int:
        """Mask of the idempotent with these (distinct) lengths: divisors
        of the layout, or one cycle-sum level's; else KeyError."""
        return reduce(xor, map(self._up.__getitem__, lengths), 0)

    def decode(self, x: int, level: int = 0) -> tuple[int, ...]:
        """Lengths of the idempotent with mask x, ascending, each times
        2**level: as a cycle sum holds them at that level."""
        for shift, sel in reversed(self._passes):
            x ^= (x & sel) << shift
        divisors = self._raw.get(level) or self._raw.setdefault(
            level, tuple(d << level for d in self.divisors))
        out = []
        while x:
            low = x & -x
            out.append(divisors[low.bit_length() - 1])
            x ^= low
        return tuple(sorted(out))

    def parity(self, x: int) -> int:
        """The support-size parity of the idempotent with mask x."""
        return x >> self.index[self.k] & 1

    def members(self, lo: int, hi: int) -> Iterator[int]:
        """The masks of the interval [lo, hi], lazily; none unless lo <= hi.

        A member is lo plus a subset of the free atoms ``hi & ~lo``, listed
        by ``submasks`` with the free atoms in ascending divisor order: the
        order of ``Interval.members``.  The layout keeps its bit positions
        in that order, sorted on the first call, and ``submasks`` is given
        them filtered by the free mask as it reads them, so the first
        member reads no position and the listing reads none past the last
        free atom.
        """
        if lo & ~hi:
            return iter(())
        order = self._order
        if order is None:
            order = self._order = sorted(range(len(self.divisors)), key=self.divisors.__getitem__)
        free = hi & ~lo
        # stop at the last free atom: ``lazy_product`` lists an inner factor
        # to its end each time it re-creates it, and the order is window-long
        return submasks(lo, islice((p for p in order if free >> p & 1), free.bit_count()))


class _UpSets(dict):
    """The up-set mask of each divisor q of a layout, by q, made by the
    zeta passes the first time q is asked for; an even key, that of its odd
    part."""

    def __init__(self, index: dict[int, int], passes: tuple[tuple[int, int], ...]):
        self._index = index
        self._passes = passes

    def __missing__(self, q: int) -> int:
        if q & 1 == 0:
            x = self[split_length(q)[1]]
        else:
            x = 1 << self._index[q]
            for shift, sel in self._passes:
                x ^= (x & sel) << shift
        self[q] = x
        return x


def submasks(lo: int, positions: Iterable[int]) -> Iterator[int]:
    """lo with each subset of the bits at ``positions`` set, lazily: the
    ``subsums`` of their single bits."""
    return subsums(lo, (1 << p for p in positions))


def subsums(x: T, deltas: Iterable[T]) -> Iterator[T]:
    """x plus each subset sum of the deltas under ``^``, lazily.

    Bit t of a choice counter adds ``deltas[t]``.  Counting up to c adds
    the deltas below the lowest set bit of c, which cancels them, and that
    one: one ``^`` per member.  A delta is read only when the counter first
    reaches it, so a long iterable of deltas is never listed.
    """
    yield x
    flips: list[T] = []
    for d in deltas:
        flips.append(flips[-1] ^ d if flips else d)
        for c in range(1 << len(flips) - 1, 1 << len(flips)):
            x ^= flips[(c & -c).bit_length() - 1]
            yield x


def ones(x: int) -> Iterator[int]:
    """The positions of the set bits of x >= 0, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def coprime_base(numbers: Iterable[int]) -> list[int]:
    """A pairwise coprime base of the numbers, each a product of powers of
    its elements, by factor refinement (Bach, Driscoll and Shallit 1993):
    a with g = gcd(a, b) > 1 replaces b by g, a / g and b / g."""
    base: list[int] = []
    todo = [a for a in set(numbers) if a > 1]
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(a, b)
            if g > 1:
                base[i] = base[-1]
                base.pop()
                todo += (c for c in (g, a // g, b // g) if c > 1)
                break
        else:
            base.append(a)
    return base


def kept_bits(k: int) -> Optional[DivisorBits]:
    """The layout kept for odd k, if any."""
    return _LAYOUTS.get(k)


def coprime_bits(k: int, lengths: Iterable[int]) -> Optional[DivisorBits]:
    """The solvers' layout of odd k over a coprime base of these lengths
    (with lcm k) and of the kept layout's base, found by gcds alone, and
    kept.  So a base only gets finer.  If that layout has more than
    ``MAX_BIT_DIVISORS`` divisors, the lengths' own base is tried; None
    when it is too large as well."""
    lengths, kept = list(lengths), _LAYOUTS.get(k)
    for numbers in (chain(lengths, kept.base) if kept else lengths, lengths):
        factors = []
        for p in sorted(coprime_base(numbers)):
            e, q = 0, k
            while q % p == 0:
                e, q = e + 1, q // p
            factors.append((p, e))
        if math.prod(e + 1 for _, e in factors) <= MAX_BIT_DIVISORS:
            return _kept(k, DivisorBits(tuple(factors)))
    return None


def _kept(k: int, bits: DivisorBits) -> DivisorBits:
    """Keep bits as the layout of k; the oldest of 64 is dropped."""
    if k not in _LAYOUTS and len(_LAYOUTS) == 64:
        del _LAYOUTS[next(iter(_LAYOUTS))]
    _LAYOUTS[k] = bits
    return bits


_LAYOUTS: dict[int, DivisorBits] = {}


def window_bits(k: int) -> DivisorBits:
    """The layout of odd k over its primes, for listing a window, kept as
    the solvers' layout of k so that a solve on k lands in it; ValueError
    when k has more than ``MAX_BIT_DIVISORS`` divisors."""
    return _kept(k, _window_layout(k))


# Trial division stops at 10**6: at most 5 * 10**5 divisions, whatever k is.
# So every k up to 10**12 factors, and a larger one only when what its prime
# factors below 10**6 leave is 1 or a prime under (10**6 + 1)**2.
MAX_WINDOW_K = 10**12


@lru_cache(maxsize=64)
def _window_layout(k: int) -> DivisorBits:
    """``window_bits`` of k, built once per k: the one place k is factored."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"odd k required, got {k}")
    factors = _prime_factors(k)
    if math.prod(e + 1 for e in factors.values()) > MAX_BIT_DIVISORS:
        raise ValueError(f"k={k} has more than {MAX_BIT_DIVISORS} divisors, too many to list")
    return DivisorBits(tuple(sorted(factors.items())))


def _prime_factors(k: int) -> dict[int, int]:
    """Prime factorisation of odd k by trial division below 10**6; a
    ValueError when that leaves a composite cofactor (see ``MAX_WINDOW_K``)."""
    out: dict[int, int] = {}
    d, n = 3, k
    while d * d <= n and d < 10**6:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if d * d <= n:
        raise ValueError(f"k={k} exceeds the limit of {MAX_WINDOW_K}")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(k: int) -> list[int]:
    """The divisors of odd k, ascending, read from its window layout."""
    return sorted(window_bits(k).divisors)


def divisor_count(k: int) -> int:
    """The number of divisors of odd k, read from its window layout."""
    return len(window_bits(k).divisors)


def divisor_atom(k: int, j: int) -> BoolElem:
    """Atom of the divisor-lattice algebra indexed by a divisor j of k.

    Supported on the divisors l with j | l | m(j), where m(j) multiplies
    each prime exponent of j up by one, capped at its exponent in k.
    """
    lat = divisor_lattice(k)
    if j < 1 or k % j != 0:
        raise ValueError(f"{j} does not divide {k}")
    return atom_for(lat, j)


def divisor_atom_indices(k: int, i: int) -> tuple[int, ...]:
    """Divisors j of k whose atoms sum to the single divisor element i."""
    if i < 1 or k % i != 0:
        raise ValueError(f"{i} does not divide {k}")
    return tuple(j for j in divisors(k) if j % i == 0)
