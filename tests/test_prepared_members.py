"""Interval members from a preparation kept per layout and per chain division.

``sorting_members`` and ``converting_members`` are the listings these
replaced, kept as references.  A window layout sorted its free atoms by
divisor on every ``members`` call; a chain division built each member as
an h-bit Z mask and read it back into chain lengths.  The prepared
listings must give the same members in the same order.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclechain import chains, lattice
from cyclechain.chains import (
    ChainDivision,
    ChainSum,
    Element,
    _chain_branch,
    divide_chains,
    divide_full_restricted,
    from_orthogonal,
    to_orthogonal,
)
from cyclechain.cycles import CycleSum
from cyclechain.lattice import DivisorBits, ones, submasks, window_bits

# the first twelve odd primes: 4,096 divisors, the most a layout takes
K4096 = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))


def sorting_members(bits: DivisorBits, lo: int, hi: int):
    """``DivisorBits.members`` with the free atoms sorted on every call."""
    if lo & ~hi:
        return iter(())
    return submasks(lo, sorted(ones(hi & ~lo), key=bits.divisors.__getitem__))


def converting_members(cd: ChainDivision, max_height: int):
    """``ChainDivision.members`` reading each member's Z mask back."""
    if cd.kind == "empty":
        return
    lo = cd.zlo
    if lo & ~cd.zhi or lo >> max_height + 1:
        return
    free = cd.zhi & ~lo & ((2 << max_height) - 1)
    first = cd.cutoff + 1 + (1 - cd.parity - cd.cutoff) % 2
    tail = range(first, max_height + 1, 2) if cd.free_tail else ()
    for z in submasks(lo, itertools.chain(tail, ones(free))):
        yield from_orthogonal(z, cd.parity)


def take(it, m=2000):
    return list(itertools.islice(it, m))


def all_masks(bits: DivisorBits) -> range:
    return range(bits.top + 1)


# layouts over primes, and over a coprime base whose order by value is not
# the mixed-radix order of the bits (15 before 7)
SMALL_LAYOUTS = [window_bits(15), window_bits(45), window_bits(75),
                 DivisorBits(((15, 1), (7, 1))), DivisorBits(((15, 2), (7, 1)))]


class TestCycleMembers:
    @pytest.mark.parametrize("bits", SMALL_LAYOUTS, ids=lambda b: f"k{b.k}")
    def test_every_small_interval(self, bits):
        for lo, hi in itertools.product(all_masks(bits), repeat=2):
            assert list(bits.members(lo, hi)) == list(sorting_members(bits, lo, hi))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1155, 15015, 3 ** 3 * 5 ** 2 * 7, 765765, K4096]), st.data())
    def test_random_windows(self, k, data):
        bits = window_bits(k)
        hi = data.draw(st.integers(0, bits.top))
        lo = hi & data.draw(st.integers(0, bits.top))
        if data.draw(st.booleans()):
            lo |= data.draw(st.integers(0, bits.top))  # maybe not below hi
        assert take(bits.members(lo, hi), 300) == take(sorting_members(bits, lo, hi), 300)

    def test_first_member_reads_no_position(self, monkeypatch):
        bits = window_bits(K4096)
        assert len(bits.divisors) == 4096
        next(bits.members(0, bits.top))  # the layout sorts its positions once

        read = []
        walker = lattice.submasks

        def counting_submasks(lo, positions):
            def counted():
                for p in positions:
                    read.append(p)
                    yield p
            return walker(lo, counted())

        def forbidden(*args, **kwargs):
            raise AssertionError("members listed or sorted the free atoms")

        monkeypatch.setattr(lattice, "submasks", counting_submasks)
        monkeypatch.setattr(lattice, "ones", forbidden)
        monkeypatch.setattr(lattice, "sorted", forbidden, raising=False)
        rng = random.Random(4096)
        hi = rng.getrandbits(4096)
        lo = hi & rng.getrandbits(4096)
        it = bits.members(lo, hi)
        assert next(it) == lo and read == []
        second = next(it)
        free = [p for p in sorted(range(4096), key=bits.divisors.__getitem__) if (hi & ~lo) >> p & 1]
        assert read == free[:1] and second == lo | 1 << free[0]
        assert len(take(it, 14)) == 14 and read == free[:4]

    def test_listing_stops_at_the_last_free_atom(self, monkeypatch):
        # lazy_product lists an inner factor to its end every time it makes
        # it again, so a sparse interval must not read the whole order
        bits = window_bits(K4096)
        next(bits.members(0, bits.top))
        order = bits._order
        read = []

        class CountingOrder(list):
            def __iter__(self):
                for p in list.__iter__(self):
                    read.append(p)
                    yield p

        monkeypatch.setattr(bits, "_order", CountingOrder(order))
        lo = bits.top ^ 1 << order[10] ^ 1 << order[20]
        assert list(bits.members(lo, bits.top)) == list(sorting_members(bits, lo, bits.top))
        assert read == order[:21]
        read.clear()
        assert list(bits.members(bits.top, bits.top)) == [bits.top] and read == []


def small_divisions():
    """Every chain division of a class by sums of lengths up to 8, of both
    cycle scales and both targets."""
    for eps in (0, 1):
        lengths = range(2 - eps, 9, 2)
        sums = [ChainSum(c) for r in range(5) for c in itertools.combinations(lengths, r)]
        masks = [to_orthogonal(a, eps) for a in sums]
        for za, zb, t, scale in itertools.product(masks, masks, (0, 1), (0, 1)):
            yield _chain_branch(za, zb, eps, t, scale)


def chain_sums(eps, max_len=24, max_terms=4):
    return st.lists(st.integers(0, (max_len - 1) // 2), max_size=max_terms).map(
        lambda ts: ChainSum(2 * t + 2 - eps for t in ts)
    )


class TestChainMembers:
    def test_every_small_interval(self):
        kinds = set()
        for cd in small_divisions():
            kinds.add((cd.kind, cd.free_tail))
            for max_height in range(12):
                assert list(cd.members(max_height)) == list(converting_members(cd, max_height))
        assert kinds >= {("all", True), ("empty", True), ("interval", True), ("interval", False)}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 1), st.data(), st.integers(0, 1), st.integers(0, 1), st.integers(0, 30))
    def test_random_divisions(self, eps, data, t, scale, max_height):
        za = to_orthogonal(data.draw(chain_sums(eps)), eps)
        zb = to_orthogonal(data.draw(chain_sums(eps)), eps)
        cd = _chain_branch(za, zb, eps, t, scale)
        assert take(cd.members(max_height)) == take(converting_members(cd, max_height))

    def test_preparation_is_not_a_field(self):
        a = divide_chains(ChainSum([5]), ChainSum([5]), 1)
        b = divide_chains(ChainSum([5]), ChainSum([5]), 1)
        take(a.members(9))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_prep" in vars(a) and "_prep" not in vars(b)

    def test_a_solution_reads_no_z_mask(self, monkeypatch):
        h = 999_999
        x = Element(chains=ChainSum([h]), cycles=CycleSum.from_lengths([3, 5]))
        want = take(divide_full_restricted(x, x, 15), 200)
        calls = []

        def counted(z, eps):
            calls.append(z.bit_length())
            return from_orthogonal(z, eps)

        monkeypatch.setattr(chains, "from_orthogonal", counted)
        assert take(divide_full_restricted(x, x, 15), 200) == want
        # one preparation per chain division listed, none per solution
        assert len(calls) <= 4 and len(want) == 200

