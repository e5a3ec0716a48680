"""The sum algebra of a ``FiniteLattice`` in atom coordinates, against the
support-mask code it replaced.

A ``BoolElem`` holds the mod-2 zeta transform of its support, where the
product is ``&`` and an atom is one bit.  The references below work on
support masks, as ``BoolElem`` did before: the product is the
meet-convolution loop over pairs of support elements, and the atom at l
comes from the even-up-set recursion over a descending order
(``test_cold_setup.ref_atom_mask``).  Every operation is derived from
those two, so each test compares the new code with the old definitions,
the order of ``Interval.members`` included.
"""

import copy
import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclechain.lattice import (
    BoolElem,
    FiniteLattice,
    Interval,
    atom_for,
    atoms,
    atoms_below,
    divisor_lattice,
    divisors,
    from_atoms,
    norm,
    ones,
    semilattice_algebra,
)

from test_cold_setup import ref_atom_mask
from test_lattice import HEX_ELEMENTS, HEX_LEQ

# ---------------------------------------------------------------- reference


def ref_mul(lat, x, y):
    """Meet-convolution mod 2 of two support masks, one pair at a time."""
    out = 0
    for i in ones(x):
        row = lat._meet[i]
        for j in ones(y):
            out ^= 1 << row[j]
    return out


class RefAlgebra:
    """The sum algebra of ``lat`` on support masks."""

    def __init__(self, lat):
        self.lat = lat
        leq = [[lat.leq(a, b) for b in lat.elements] for a in lat.elements]
        self.atom = [ref_atom_mask(leq, lat._toporder, i) for i in range(len(lat))]
        self.one = 1 << lat._top_idx

    def le(self, x, y):
        return ref_mul(self.lat, x, y) == x

    def below(self, x):
        """Indices of the atoms under x."""
        return [i for i, a in enumerate(self.atom) if ref_mul(self.lat, x, a) == a]

    def from_atoms(self, idx):
        out = 0
        for i in idx:
            out ^= self.atom[i]
        return out

    def members(self, lo, hi):
        """Lexicographically by atom choice, free atoms by element index."""
        if not self.le(lo, hi):
            return
        base = self.below(lo)
        free = sorted(set(self.below(hi)) - set(base))
        base_mask = self.from_atoms(base)
        for c in range(1 << len(free)):
            yield base_mask ^ self.from_atoms(free[t] for t in ones(c))


# ---------------------------------------------------------------- lattices


def from_leq_lattice(seed, n):
    """A random lattice from ``from_leq``, or None when the closure of the
    random relation has a pair without a unique meet."""
    rng = random.Random(seed)
    elements = tuple(f"e{i}" for i in range(n))
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(rng.randint(0, 2 * n))]
    pairs += [(elements[0], e) for e in elements] + [(e, elements[-1]) for e in elements]
    try:
        return FiniteLattice.from_leq(elements, pairs)
    except ValueError:
        return None


def semilattice_lattice(gens):
    """The lattice of ``semilattice_algebra`` over the lcm-closure of gens."""
    closed = set(gens)
    while more := {math.lcm(a, b) for a in closed for b in closed} - closed:
        closed |= more
    return semilattice_algebra(tuple(sorted(closed, reverse=True)), math.lcm).lattice


def rand_bits(rng, n):
    return rng.getrandbits(n) if rng.random() < 0.8 else rng.choice([0, (1 << n) - 1])


# ---------------------------------------------------------------- checks


def assert_same_algebra(lat, seed=0, rounds=40, listed=64):
    """Every operation of the new kernel equals the reference on random
    support masks of lat."""
    ref = RefAlgebra(lat)
    els = lat.elements
    n = len(lat)
    for i, l in enumerate(els):
        a = atom_for(lat, l)
        assert a.bits == ref.atom[i] and atoms(lat)[i] == a
    rng = random.Random(seed)
    for _ in range(rounds):
        x, y = rand_bits(rng, n), rand_bits(rng, n)
        X, Y = BoolElem._from_bits(lat, x), BoolElem._from_bits(lat, y)
        assert X.bits == x and len(X) == x.bit_count() and bool(X) == bool(x)
        assert X.support() == tuple(els[i] for i in ones(x))
        assert (X * Y).bits == ref_mul(lat, x, y)
        assert (X + Y).bits == x ^ y
        assert (X | Y).bits == x ^ y ^ ref_mul(lat, x, y)
        assert X.complement().bits == x ^ ref.one
        assert (X <= Y) == ref.le(x, y) and (X >= Y) == ref.le(y, x)
        below = ref.below(x)
        assert atoms_below(X) == frozenset(els[i] for i in below)
        assert [norm(X, l) for l in els] == [int(i in below) for i in range(n)]
        picks = [rng.randrange(n) for _ in range(rng.randint(0, 6))]
        assert from_atoms(lat, [els[i] for i in picks]).bits == ref.from_atoms(picks)
        # intervals: a random pair, mostly empty, and [x*y, x], never empty
        for lo, hi in ((y, x), (ref_mul(lat, x, y), x)):
            iv = Interval(BoolElem._from_bits(lat, lo), BoolElem._from_bits(lat, hi))
            free = len(set(ref.below(hi)) - set(ref.below(lo)))
            assert len(iv) == (1 << free if ref.le(lo, hi) else 0)
            got = [m.bits for m in islice(iv.members(), listed)]
            assert got == list(islice(ref.members(lo, hi), listed))


class TestKernelEqualsReference:
    def test_hexagon(self):
        assert_same_algebra(FiniteLattice.from_leq(HEX_ELEMENTS, HEX_LEQ), rounds=200)

    @pytest.mark.parametrize("k", [1, 3, 15, 45, 105, 315, 3465, 765765])
    def test_divisor_lattices(self, k):
        # the reference's atoms_below takes d(k) convolutions of up to
        # d(k)^2 pairs: fewer rounds at 96 divisors
        assert_same_algebra(divisor_lattice(k), seed=k, rounds=8 if k == 765765 else 40)

    def test_small_intervals_listed_in_full(self):
        # every interval of a 6-element lattice, members in full
        lat = divisor_lattice(45)
        ref = RefAlgebra(lat)
        for lo in range(1 << 6):
            for hi in range(1 << 6):
                iv = Interval(BoolElem._from_bits(lat, lo), BoolElem._from_bits(lat, hi))
                assert [m.bits for m in iv.members()] == list(ref.members(lo, hi))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 8))
    def test_from_leq_lattices(self, seed, n):
        lat = from_leq_lattice(seed, n)
        if lat is not None:
            assert_same_algebra(lat, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(divisors(1155)), min_size=1, max_size=8, unique=True))
    def test_semilattice_algebra_lattices(self, gens):
        assert_same_algebra(semilattice_lattice(gens))


class TestSemantics:
    def test_from_atoms_cancels_a_repeat(self):
        lat = divisor_lattice(45)
        assert not from_atoms(lat, [3, 3])
        assert from_atoms(lat, [3, 5, 3]) == atom_for(lat, 5)
        assert from_atoms(lat, [1, 9, 9, 9]) == atom_for(lat, 1) + atom_for(lat, 9)

    def test_support_repeats_do_not_cancel(self):
        lat = divisor_lattice(45)
        assert BoolElem(lat, [3, 5, 3]).support() == (3, 5)
        assert BoolElem(lat, [15, 15]) == BoolElem(lat, [15])


class TestLatticeIsImmutable:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: FiniteLattice(divisors(315), math.lcm),
            lambda: FiniteLattice.from_leq(HEX_ELEMENTS, HEX_LEQ),
            lambda: semilattice_lattice([3, 5, 7]),
        ],
        ids=["divisors", "hexagon", "semilattice"],
    )
    def test_no_state_changes_after_construction(self, build):
        lat = build()
        # the ground elements themselves are kept, not copied: an adjoined
        # top compares by identity
        before = copy.deepcopy(vars(lat), {id(e): e for e in lat.elements})
        els = lat.elements
        all_atoms = atoms(lat)
        x = BoolElem(lat, els[::2])
        y = from_atoms(lat, els[1::3])
        assert x * y == y * x and (x | y) * x == x
        assert [norm(x, l) for l in els] == [int(a <= x) for a in all_atoms]
        assert len(list(Interval(x * y, x).members())) == len(Interval(x * y, x))
        assert str(x.complement()) and atoms_below(x | y) >= atoms_below(y)
        assert vars(lat) == before
