import itertools
import math
import random
import time

import pytest

from cyclechain.chains import Element, divide_full_restricted
from cyclechain.cycles import CycleSum
from cyclechain.division import enumerate_restricted, solve
from cyclechain.lattice import (
    MAX_WINDOW_K,
    BoolElem,
    FiniteLattice,
    Interval,
    atom_for,
    divisor_atom,
    divisor_atom_indices,
    divisor_count,
    divisor_lattice,
    divisors,
)
from cyclechain.oracle import MAX_SPACE_K, SearchSpace

from algebra_reference import (
    atoms,
    atoms_below,
    covers_below,
    from_atoms,
    interval_parity_split,
    norm,
    semilattice_algebra,
    unit_vector,
)

HEX_ELEMENTS = ("T", "l", "m", "n", "p", "B")
HEX_LEQ = [("B", "n"), ("B", "p"), ("n", "l"), ("p", "m"), ("l", "T"), ("m", "T")]


@pytest.fixture(scope="module")
def hexagon():
    return FiniteLattice.from_leq(HEX_ELEMENTS, HEX_LEQ)


def chain_lattice(n):
    """Total order 0 < 1 < ... < n-1 under min."""
    return FiniteLattice(tuple(range(n)), min)


def powerset_lattice(ground):
    els = []
    for r in range(len(ground) + 1):
        els.extend(frozenset(c) for c in itertools.combinations(ground, r))
    els.sort(key=lambda s: (len(s), sorted(s)))
    return FiniteLattice(tuple(els), lambda a, b: a & b)


SMALL_LATTICES = None


def small_lattices():
    global SMALL_LATTICES
    if SMALL_LATTICES is None:
        SMALL_LATTICES = [
            chain_lattice(1),
            chain_lattice(2),
            chain_lattice(4),
            FiniteLattice.from_leq(HEX_ELEMENTS, HEX_LEQ),
            divisor_lattice(15),
            divisor_lattice(45),
            divisor_lattice(105),
            powerset_lattice("abc"),
        ]
    return SMALL_LATTICES


class TestFiniteLattice:
    def test_divisor_lattice_structure(self):
        lat = divisor_lattice(15)
        assert lat.top == 1 and lat.bottom == 15
        assert lat.meet(3, 5) == 15
        assert lat.leq(15, 3) and not lat.leq(3, 15)
        assert lat.join(15, 5) == 5

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            divisor_lattice(6)

    def test_covers(self):
        lat = divisor_lattice(45)
        assert set(covers_below(lat, 3)) == {9, 15}
        assert set(covers_below(lat, 1)) == {3, 5}
        assert covers_below(lat, 45) == ()

    def test_bad_meet_rejected(self):
        with pytest.raises(ValueError):
            FiniteLattice((0, 1, 2), lambda a, b: (a + b) % 3)

    def test_no_unique_bottom_rejected(self):
        # two incomparable minimal elements
        with pytest.raises(ValueError):
            FiniteLattice.from_leq(("a", "b", "T"), [("a", "T"), ("b", "T")])


class TestAlgebraOps:
    def test_fig_identities_over_divisors_of_15(self):
        lat = divisor_lattice(15)
        a = BoolElem(lat, [1, 3])
        b = BoolElem(lat, [3, 5, 15])
        assert (a * b).support() == (5, 15)
        assert (a + b).support() == (1, 5, 15)
        assert a.complement().support() == (3,)
        assert b.complement().support() == (1, 3, 5, 15)

    def test_mixed_lattice_error(self):
        a = BoolElem(divisor_lattice(15), [1])
        b = BoolElem(divisor_lattice(45), [1])
        with pytest.raises(ValueError):
            a * b

    def test_rebuilt_lattice_combines_with_the_evicted_one(self):
        old = divisor_atom(45, 3)
        for k in range(101, 101 + 2 * (divisor_lattice.cache_info().maxsize + 1), 2):
            divisor_lattice(k)
        new = divisor_atom(45, 3)
        assert new.lattice is not old.lattice and new.lattice == old.lattice
        assert new == old and hash(new) == hash(old)
        assert not old + new
        assert old * new == old and old | new == old
        assert old <= new and new >= old and old.complement() == new.complement()
        assert old in Interval(new, new)
        assert list(Interval(old, new).members()) == [new]

    def test_lattices_with_one_ground_set_and_two_meets_differ(self):
        up, down = FiniteLattice((0, 1, 2), min), FiniteLattice((0, 1, 2), max)
        assert up != down
        with pytest.raises(ValueError):
            BoolElem(up, [1]) + BoolElem(down, [1])

    def test_join_and_order(self):
        lat = divisor_lattice(15)
        a = BoolElem(lat, [1, 3])
        assert (a | a) == a
        assert a <= unit_vector(lat, 1).complement() + a  # a <= ... trivial forms
        assert BoolElem(lat, [15]) <= BoolElem(lat, [15])


class TestAtoms:
    def test_hexagon_table(self, hexagon):
        expected = {
            "T": ("T", "l", "m", "B"),
            "l": ("l", "n"),
            "m": ("m", "p"),
            "n": ("n", "B"),
            "p": ("p", "B"),
            "B": ("B",),
        }
        for l, support in expected.items():
            assert set(atom_for(hexagon, l).support()) == set(support)

    def test_single_element_lattice(self):
        lat = chain_lattice(1)
        assert atoms(lat) == (unit_vector(lat, 0),)

    def test_atom_of_lattice_atom(self):
        # for any element covering only the bottom, the algebra atom is
        # that element plus the bottom
        checked = 0
        for lat in small_lattices():
            for j in lat.elements:
                if covers_below(lat, j) == (lat.bottom,):
                    assert set(atom_for(lat, j).support()) == {j, lat.bottom}
                    checked += 1
        assert checked > 5

    def test_atoms_are_exactly_minimal_elements(self):
        for lat in small_lattices():
            n = len(lat)
            if n > 8:
                continue
            all_elems = [
                BoolElem._from_bits(lat, bits) for bits in range(1, 1 << n)
            ]
            minimal = [
                x
                for x in all_elems
                if not any(y != x and y <= x for y in all_elems)
            ]
            assert set(minimal) == set(atoms(lat))

    def test_atoms_minimal_in_twelve_element_lattice(self):
        # same fact checked without the quadratic sweep: every atom covers
        # only zero, and every nonzero element dominates an atom
        lat = divisor_lattice(315)
        assert len(lat) == 12
        ats = atoms(lat)
        zero = BoolElem(lat)
        for a in ats:
            for bits in range(1 << len(lat)):
                y = BoolElem._from_bits(lat, bits)
                if y <= a:
                    assert y == zero or y == a
        for bits in range(1, 1 << len(lat)):
            x = BoolElem._from_bits(lat, bits)
            assert any(a <= x for a in ats)

    def test_atom_properties_in_twenty_four_element_lattice(self):
        lat = divisor_lattice(3465)
        assert len(lat) == 24
        zero = BoolElem(lat)
        for l_target in lat.elements:
            b = atom_for(lat, l_target)
            for l in lat.elements:
                e = unit_vector(lat, l)
                assert e * b in (b, zero)

    def test_unit_vector_absorption(self):
        for lat in small_lattices():
            for b in atoms(lat):
                for l in lat.elements:
                    e = unit_vector(lat, l)
                    assert e * b in (b, BoolElem(lat))

    def test_vanishing_below_join(self):
        for lat in small_lattices():
            for l_target in lat.elements:
                b = atom_for(lat, l_target)
                for l in lat.elements:
                    if lat.leq(l, l_target) and l != l_target:
                        assert not unit_vector(lat, l) * b

    def test_join_is_bijection(self):
        for lat in small_lattices():
            seen = set()
            for l in lat.elements:
                support = atom_for(lat, l).support()
                j = support[0]
                for m in support[1:]:
                    j = lat.join(j, m)
                assert j == l
                seen.add(j)
            assert len(seen) == len(lat)

    def test_atom_decomposition_roundtrip(self):
        rng = random.Random(5)
        for lat in small_lattices():
            for _ in range(20):
                bits = rng.randrange(1 << len(lat))
                x = BoolElem._from_bits(lat, bits)
                assert from_atoms(lat, atoms_below(x)) == x


class TestNorm:
    def test_singleton_top(self):
        lat = divisor_lattice(15)
        assert norm(unit_vector(lat, 1), 15) == 1

    def test_three_element_support(self):
        lat = divisor_lattice(15)
        assert norm(BoolElem(lat, [1, 5, 15]), 15) == 1
        assert norm(BoolElem(lat, [1, 5]), 15) == 0

    def test_zero(self):
        lat = divisor_lattice(15)
        for l in lat.elements:
            assert norm(BoolElem(lat), l) == 0

    def test_bottom_norm_is_support_parity(self):
        lat = divisor_lattice(45)
        rng = random.Random(1)
        for _ in range(100):
            bits = rng.randrange(1 << len(lat))
            x = BoolElem._from_bits(lat, bits)
            assert norm(x, lat.bottom) == bin(bits).count("1") % 2

    def test_vanishing_norm_is_an_order_condition(self):
        # norm at l vanishes exactly on the down-set of the atom complement
        rng = random.Random(2)
        for lat in small_lattices():
            for _ in range(50):
                x = BoolElem._from_bits(lat, rng.randrange(1 << len(lat)))
                l = rng.choice(lat.elements)
                bound = atom_for(lat, l).complement()
                assert (norm(x, l) == 0) == (x <= bound)


class TestIntervalParitySplit:
    def test_full_interval_splits_by_cardinality(self):
        lat = divisor_lattice(15)
        top = unit_vector(lat, lat.top)
        iv = Interval(BoolElem(lat), top)
        even, odd = interval_parity_split(iv, lat.bottom)
        for bits in range(1 << len(lat)):
            x = BoolElem._from_bits(lat, bits)
            parity = bin(bits).count("1") % 2
            assert (x in even) == (parity == 0)
            assert (x in odd) == (parity == 1)

    def test_singleton_interval(self):
        lat = divisor_lattice(15)
        x = BoolElem(lat, [3, 15])
        iv = Interval(x, x)
        even, odd = interval_parity_split(iv, lat.bottom)
        assert (x in even) and even.lo == even.hi == x
        assert odd.is_empty

    def test_partition_on_random_intervals(self):
        rng = random.Random(9)
        for lat in small_lattices():
            if len(lat) > 5:
                continue
            count = 0
            while count < 200:
                lo = BoolElem._from_bits(lat, rng.randrange(1 << len(lat)))
                hi = BoolElem._from_bits(lat, rng.randrange(1 << len(lat)))
                iv = Interval(lo, hi)
                if iv.is_empty:
                    continue
                count += 1
                l = rng.choice(lat.elements)
                inside, outside = interval_parity_split(iv, l)
                members = set()
                for bits in range(1 << len(lat)):
                    x = BoolElem._from_bits(lat, bits)
                    if x in iv:
                        in_in = x in inside
                        in_out = x in outside
                        assert in_in != in_out
                        assert in_in == (norm(x, l) == 0)
                        members.add(x)
                    else:
                        assert x not in inside and x not in outside


class TestIntervalMembers:
    def test_member_enumeration_matches_definition(self):
        lat = divisor_lattice(15)
        rng = random.Random(3)
        for _ in range(50):
            lo = BoolElem._from_bits(lat, rng.randrange(16))
            hi = BoolElem._from_bits(lat, rng.randrange(1 << len(lat)))
            iv = Interval(lo, hi)
            listed = set(iv.members())
            direct = {
                BoolElem._from_bits(lat, bits)
                for bits in range(1 << len(lat))
                if BoolElem._from_bits(lat, bits) in iv
            }
            assert listed == direct
            assert len(listed) == len(iv)


class TestSemilatticeAlgebra:
    def test_odd_divisor_semilattice(self):
        alg = semilattice_algebra((3, 5, 15), math.lcm)
        assert set(alg.top.support()) == {3, 5, 15}
        assert len(alg.atoms) == 3

    def test_single_element(self):
        alg = semilattice_algebra((7,), math.lcm)
        assert alg.top.support() == (7,)

    def test_carrier_size(self):
        for s in [(3,), (3, 15), (3, 5, 15), (3, 5, 15, 45)]:
            if any(math.lcm(a, b) not in s for a in s for b in s):
                continue
            alg = semilattice_algebra(s, math.lcm)
            carrier = set()
            for bits in range(1 << len(s)):
                carrier.add(
                    alg.embed([s[i] for i in range(len(s)) if bits >> i & 1])
                )
            assert len(carrier) == 2 ** len(s)

    def test_not_meet_closed_rejected(self):
        with pytest.raises(ValueError):
            semilattice_algebra((3, 5), math.lcm)

    def test_complement_within_algebra(self):
        alg = semilattice_algebra((3, 5, 15), math.lcm)
        x = alg.embed([3])
        comp = alg.complement(x)
        assert x * comp == BoolElem(alg.lattice)
        assert (x | comp) == alg.top

    def test_atoms_are_the_adjoined_lattice_atoms_minus_top(self):
        alg = semilattice_algebra((3, 5, 15), math.lcm)
        lat = alg.lattice
        top_atom = atom_for(lat, lat.top)
        expected = {a for a in atoms(lat) if a != top_atom}
        assert set(alg.atoms) == expected
        for a in alg.atoms:
            assert a <= alg.top
            assert a * alg.top == a


def closed_form_atom(k, j):
    """The atom at a divisor j of odd k by its closed form: supported on the
    divisors l with j | l | m(j), where m(j) raises each prime exponent of
    j by one, capped at its exponent in k."""
    m, rest, p = 1, k, 3
    while rest > 1:
        kp = 0
        while rest % p == 0:
            kp, rest = kp + 1, rest // p
        jp = 0
        while kp and j % p ** (jp + 1) == 0:
            jp += 1
        m *= p ** min(jp + 1, kp)
        p += 2
    lat = divisor_lattice(k)
    return BoolElem(lat, [l for l in lat.elements if l % j == 0 and m % l == 0])


class TestDivisorAtoms:
    def test_c45_table(self):
        expected = {
            1: (1, 3, 5, 15),
            3: (3, 9, 15, 45),
            5: (5, 15),
            9: (9, 45),
            15: (15, 45),
            45: (45,),
        }
        for j, support in expected.items():
            assert divisor_atom(45, j).support() == support

    def test_c45_expansions(self):
        expected = {
            1: (1, 3, 5, 9, 15, 45),
            3: (3, 9, 15, 45),
            5: (5, 15, 45),
            9: (9, 45),
            15: (15, 45),
            45: (45,),
        }
        for i, js in expected.items():
            assert divisor_atom_indices(45, i) == js
            total = BoolElem(divisor_lattice(45))
            for j in js:
                total = total + divisor_atom(45, j)
            assert total.support() == (i,)

    def test_trivial_k(self):
        assert divisor_atom(1, 1).support() == (1,)

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            divisor_atom(45, 7)
        with pytest.raises(ValueError):
            divisor_atom_indices(45, 2)

    def test_matches_recursion_up_to_105(self):
        for k in range(1, 106, 2):
            lat = divisor_lattice(k)
            for j in lat.elements:
                assert divisor_atom(k, j) == atom_for(lat, j) == closed_form_atom(k, j)

    def test_window_layout_matches_the_closed_form(self):
        # divisor_atom and divisor_atom_indices read the window layout of k;
        # the closed form and a scan of the divisors are the reference
        pairs = 0
        for k in [*range(1, 1200, 2), 15015, 45045, 765765]:
            scan = [d for d in range(1, k + 1) if k % d == 0]
            for j in scan:
                assert divisor_atom(k, j) == closed_form_atom(k, j), (k, j)
                assert divisor_atom_indices(k, j) == tuple(d for d in scan if d % j == 0)
                pairs += 1
        assert pairs == 2767

    def test_absorption_by_divisibility(self):
        for k in range(1, 106, 2):
            lat = divisor_lattice(k)
            zero = BoolElem(lat)
            for i in lat.elements:
                for j in lat.elements:
                    prod = unit_vector(lat, i) * divisor_atom(k, j)
                    if j % i == 0:
                        assert prod == divisor_atom(k, j)
                    else:
                        assert prod == zero


class TestWindowBound:
    # a prime above 10^12, and 89 * 101 * 1052788969 * 1056689261: factoring
    # either in full takes over 5 * 10^6 trial divisions
    BIG = (100000000000031, 10**22 + 1)

    @pytest.mark.parametrize("k", BIG)
    def test_a_k_that_does_not_factor_below_10_6_is_refused(self, k):
        one = CycleSum.from_lengths([1])
        for call in [
            lambda: divisors(k),
            lambda: divisor_count(k),
            lambda: divisor_lattice(k),
            lambda: divisor_atom(k, 1),
            lambda: next(enumerate_restricted(solve(one, one), k, 0)),
            lambda: next(divide_full_restricted(Element.one(), Element.one(), k)),
        ]:
            t0 = time.perf_counter()
            with pytest.raises(ValueError) as exc:
                call()
            # at most 5 * 10^5 trial divisions, about 0.05 s on a 2-core host
            assert time.perf_counter() - t0 < 0.25
            assert str(exc.value) == f"k={k} exceeds the limit of {MAX_WINDOW_K}"

    def test_every_k_up_to_the_limit_factors(self):
        assert divisors(999999999989) == [1, 999999999989]  # the largest prime below 10^12
        assert divisor_count(MAX_WINDOW_K - 1) == 256  # 3^3 7 11 13 37 101 9901
        # above it, a k factors when what trial division leaves is a prime
        assert divisors(10**12 + 39) == [1, 10**12 + 39]
        assert divisor_count(3 * (10**12 + 39)) == 4
        assert divisor_count(math.prod([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41])) == 4096

    def test_the_limit_is_the_oracle_window_limit(self):
        assert MAX_SPACE_K == MAX_WINDOW_K == 10**12
        with pytest.raises(ValueError) as exc:
            SearchSpace(k=10**22 + 1).generator_count()
        assert str(exc.value) == f"k={10**22 + 1} exceeds the limit of 1000000000000"
        # the bounds are still checked first
        with pytest.raises(ValueError, match="window bounds must be >= 0"):
            SearchSpace(k=10**22 + 1, max_level=-1).generator_count()
