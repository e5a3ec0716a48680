"""The atom-coordinate layout and the division solvers that run on it.

The OddSet formulas of ``set_reference`` (``solve_sets``,
``membership_sets``, the set order and products) are the reference every
result is compared with, in ``DivisorBits`` masks and in ``ODD_COORDS``
alike.  A solution set keeps its endpoints in its coordinates and decodes
each one when it is first read; it must be indistinguishable from the
reference's.
"""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclechain import division, lattice, oracle
from cyclechain.chains import ChainSum, Element, divide_full
from cyclechain.cycles import CycleSum, OddSet
from cyclechain.division import ODD_COORDS
from cyclechain.lattice import (
    MAX_BIT_DIVISORS,
    DivisorBits,
    _prime_factors,
    coprime_bits,
    divisor_count,
    divisors,
    kept_bits,
    window_bits,
)
from set_reference import membership_sets, solve_sets

D765765 = divisors(765765)  # 3^2 * 5 * 7 * 11 * 13 * 17: has a squared prime
# odd parts outside 765765, for solutions that leave the equation's modulus
OUTSIDE = D765765[:24] + [19, 23, 57, 115, 437]
BIG_PRIME = 1_000_003


def layout(k):
    return DivisorBits(tuple(sorted(_prime_factors(k).items())))


def cycle_sums(parts, levels=4, max_terms=12):
    return st.lists(
        st.tuples(st.sampled_from(parts), st.integers(0, levels - 1)),
        max_size=max_terms,
    ).map(lambda ts: CycleSum.from_lengths(q << i for q, i in ts))


def odd_sets(parts, max_terms=12):
    return st.lists(st.sampled_from(parts), max_size=max_terms).map(
        lambda qs: OddSet(set(qs))
    )


def base_divisor_count(k, base):
    """The number of divisors of k that are products of powers of the
    pairwise coprime base."""
    count = 1
    for p in base:
        e = 0
        while k % p ** (e + 1) == 0:
            e += 1
        count *= e + 1
    return count


class TestDivisorHelpers:
    @pytest.mark.parametrize("k", [1, 3, 9, 15, 45, 105, 3465, 5005, 765765, 1_000_003])
    def test_divisors_match_a_scan(self, k):
        scan = [d for d in range(1, k + 1) if k % d == 0]
        assert divisors(k) == scan
        assert divisor_count(k) == len(scan)

    def test_even_modulus_rejected(self):
        for fn in (divisors, divisor_count, window_bits):
            with pytest.raises(ValueError):
                fn(6)

    def test_prime_factors(self):
        assert _prime_factors(765765) == {3: 2, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1}
        assert _prime_factors(BIG_PRIME) == {BIG_PRIME: 1}
        assert _prime_factors(1) == {}

    def test_layout_refused_only_by_size(self, monkeypatch):
        monkeypatch.setattr(lattice, "_LAYOUTS", {})
        assert sorted(coprime_bits(765765, D765765).divisors) == D765765
        # a large prime costs nothing to a base found by gcds
        assert coprime_bits(3 * BIG_PRIME, [3, BIG_PRIME]).divisors == (1, 3, BIG_PRIME, 3 * BIG_PRIME)
        wide = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))
        assert coprime_bits(wide, [wide]).divisors == (1, wide)
        assert coprime_bits(wide, [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]) is None
        assert kept_bits(wide).divisors == (1, wide)
        with pytest.raises(ValueError, match="divisors"):
            divisor_count(wide)
        # a kept layout of 4096 divisors that new lengths would split into
        # 13 primes: the lengths' own base is used instead of a refusal
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
        assert len(coprime_bits(wide, list(primes[:11]) + [41 * 43]).divisors) == MAX_BIT_DIVISORS
        bits = coprime_bits(wide, [43, wide // 43])
        assert bits.base == (43, wide // 43) and kept_bits(wide) is bits

    def test_layout_is_shared(self):
        x = CycleSum.from_lengths([3, 5, 7 << 1, 9 << 2, 11])
        bits = division.layout(x)[0]
        assert division.layout(x)[0] is bits is kept_bits(3465)
        assert division.layout(CycleSum.from_lengths([33, 315]))[0] is bits

    def test_refusal_does_not_depend_on_what_was_built(self, monkeypatch):
        # a layout is refused exactly when the coprime base of the operands
        # has too many divisors, whatever was built or kept for k before
        def refused(x):
            k = x.stats()[0]
            base = lattice.coprime_base(q for _, odd in x.items() for q in odd.lengths)
            return base_divisor_count(k, base) > MAX_BIT_DIVISORS

        monkeypatch.setattr(lattice, "_LAYOUTS", {})
        rng = random.Random(7)
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 999983, BIG_PRIME)
        for _ in range(60):
            chosen = rng.sample(primes, rng.randint(1, len(primes)))
            terms = [math.prod(rng.sample(chosen, rng.randint(1, len(chosen)))) for _ in range(rng.randint(1, 8))]
            coarse = CycleSum.from_lengths({math.prod(chosen)} | set(terms))
            fine = CycleSum.from_lengths(chosen)
            for x in (coarse, fine, coarse, fine + coarse):
                bits = division.layout(x)[0]
                assert (bits is ODD_COORDS) == refused(x), x
                if bits is not ODD_COORDS:
                    assert bits is kept_bits(x.stats()[0])
        assert len(lattice._LAYOUTS) <= 64


def pass_encode(bits, lengths):
    """The zeta passes run on the indicator of the lengths: the encode that
    the cached up-sets replace."""
    x = 0
    for q in lengths:
        x |= 1 << bits.index[q]
    for shift, sel in bits._passes:
        x ^= (x & sel) << shift
    return x


class TestUpSetEncode:
    # 1, 2, 6, 24, 96 and 4096 divisors; the last is the most a layout takes
    TWELVE_PRIMES = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))

    @pytest.mark.parametrize("k", [1, 3, 45, 3465, 765765, TWELVE_PRIMES])
    def test_encode_equals_the_passes(self, k):
        bits = layout(k)
        divs = divisors(k)
        assert bits.k == k and len(divs) <= MAX_BIT_DIVISORS and not bits._up
        rng = random.Random(k)
        for _ in range(200):
            lengths = frozenset(rng.sample(divs, rng.randint(0, min(len(divs), 40))))
            assert bits.encode(lengths) == pass_encode(bits, lengths)
            assert len(bits._up) <= len(divs)
        with pytest.raises(KeyError):
            bits.encode([2 * k + 1 if k > 1 else 3])
        for q in divs:
            assert bits.encode([q]) == pass_encode(bits, [q])
        assert len(bits._up) == len(divs)


class TestLayoutAlgebra:
    @pytest.mark.parametrize("k", [1, 9, 45, 3465, 765765])
    def test_single_cycles_map_to_up_sets(self, k):
        bits = layout(k)
        assert bits.k == k
        for q in divisors(k):
            up = sum(1 << bits.index[j] for j in divisors(k) if j % q == 0)
            assert bits.encode([q]) == up
        assert bits.encode([1]) == bits.top

    @settings(max_examples=200, deadline=None)
    @given(odd_sets(D765765), odd_sets(D765765))
    def test_operations_match_oddset(self, e, f):
        bits = layout(765765)
        E, F = bits.encode(e.lengths), bits.encode(f.lengths)
        assert OddSet(bits.decode(E)) == e
        assert OddSet(bits.decode(E & F)) == e * f
        assert OddSet(bits.decode(E ^ F)) == e + f
        assert OddSet(bits.decode(E | F)) == e | f
        assert OddSet(bits.decode(E ^ bits.top)) == e.complement()
        assert (E & F == E) == (e <= f)
        assert E >> bits.index[765765] & 1 == bits.parity(E) == e.parity
        # the OddSet operators of the same formulas
        assert (e & f, e ^ f, e & ~f) == (e * f, e + f, e * f.complement())
        assert all(q in bits.index for q in e.lengths) and 19 not in bits.index


class TestSolveDifferential:
    @settings(max_examples=150, deadline=None)
    @given(cycle_sums(D765765), cycle_sums(D765765), st.booleans())
    def test_solve_matches_set_formulas(self, a, y, planted):
        # planted: b = a*y is solvable; otherwise b is arbitrary, often not
        b = a * y if planted else y
        sol = division.solve(a, b)
        assert sol == solve_sets(a, b, sol.n)
        if planted:
            assert sol.solvable

    @settings(max_examples=50, deadline=None)
    @given(cycle_sums(D765765))
    def test_zero_divisor(self, b):
        sol = division.solve(CycleSum.zero(), b)
        assert sol == solve_sets(CycleSum.zero(), b, sol.n)
        assert sol.solvable == (not b)

    @settings(max_examples=150, deadline=None)
    @given(cycle_sums(D765765, levels=3), cycle_sums(D765765, levels=3),
           cycle_sums(OUTSIDE, levels=4), st.booleans())
    def test_membership_matches_set_order(self, a, y, x, planted):
        b = a * (x if planted else y)
        sol = division.solve(a, b)
        got = division.membership(sol, x)
        assert got == membership_sets(sol, x) == (a * x == b)

    def test_solution_outside_the_modulus(self):
        x = CycleSum.from_lengths([5, 15])
        sol = division.solve(CycleSum.single(3), CycleSum.zero())
        assert division.membership(sol, x)
        assert membership_sets(sol, x)

    @settings(max_examples=50, deadline=None)
    @given(cycle_sums([1, 3, BIG_PRIME, 3 * BIG_PRIME], max_terms=3),
           cycle_sums([1, 3, BIG_PRIME, 3 * BIG_PRIME], max_terms=3))
    def test_large_prime_runs_on_masks(self, a, x):
        b = a * x
        sol = division.solve(a, b)
        k = math.lcm(a.stats()[0], b.stats()[0])
        # a layout over 3 and BIG_PRIME, found by gcds: no factoring budget
        # refuses it, however few terms the operands have
        assert isinstance(sol.bits, DivisorBits) and sol.bits.k == k
        assert set(sol.bits.divisors) <= {1, 3, BIG_PRIME, 3 * BIG_PRIME}
        assert sol == solve_sets(a, b, sol.n)
        assert sol.solvable and division.membership(sol, x)

    @settings(max_examples=200, deadline=None)
    @given(odd_sets(D765765), odd_sets(D765765), st.integers(0, 1))
    def test_interval_parity_matches_set_formula(self, lo, hi, t):
        want = lo.parity == t or (hi + hi * lo).parity == 1
        assert division.interval_has_parity(lo, hi, t) == want


class TestEnumerationAgainstOracle:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(15, 1), (21, 2), (45, 1), (105, 0), (1, 3)]),
           st.data())
    def test_enumerate_restricted_equals_exhaustive(self, window, data):
        k, n = window
        space = oracle.SearchSpace(k=k, max_level=n)
        assert space.size() <= 1 << 12
        a = data.draw(cycle_sums(divisors(k), levels=n + 1, max_terms=4))
        y = data.draw(cycle_sums(divisors(k), levels=n + 1, max_terms=4))
        b = a * y if data.draw(st.booleans()) else y
        mine = set(division.enumerate_restricted(division.solve(a, b), k, n))
        want = oracle.exhaustive_divide(Element.from_cycles(a), Element.from_cycles(b), space)
        assert mine == {x.cycles for x in want}


ENDPOINTS = ("lambda0", "upsilon0", "head", "tail_hi")


class TestMaskEndpoints:
    def test_dataclass_repr_text(self):
        sol = division.solve(CycleSum.from_lengths([3, 10]), CycleSum.from_lengths([15, 30]))
        assert isinstance(sol.bits, DivisorBits)
        assert repr(sol) == (
            "IntervalSolutionSet(a=CycleSum('C3 + C10'), b=CycleSum('C15 + C30'), "
            "solvable=True, lambda0=OddSet('C15'), upsilon0=OddSet('C1 + C3 + C5'), "
            "head=((OddSet('0'), OddSet('C1 + C3')),), tail_hi=OddSet('C1 + C3'), n=1)"
        )

    @settings(max_examples=150, deadline=None)
    @given(cycle_sums(D765765), cycle_sums(D765765), st.booleans())
    def test_same_value_hash_and_repr_as_the_set_path(self, a, y, planted):
        b = a * y if planted else y
        sol = division.solve(a, b)
        ref = solve_sets(a, b, sol.n)
        assert sol == ref and ref == sol
        assert hash(sol) == hash(ref)
        assert repr(sol) == repr(ref)
        assert {sol, ref} == {ref}

    @settings(max_examples=100, deadline=None)
    @given(cycle_sums(D765765), cycle_sums(D765765), st.permutations(ENDPOINTS), st.booleans())
    def test_endpoints_do_not_depend_on_read_order(self, a, y, order, min_first):
        b = a * y
        sol = division.solve(a, b)
        ref = solve_sets(a, b, sol.n)
        if min_first:
            assert division.min_solution(sol) == division.min_solution(ref)
        got = {name: getattr(sol, name) for name in order}
        assert got == {name: getattr(ref, name) for name in ENDPOINTS}
        assert {name: getattr(sol, name) for name in ENDPOINTS} == got
        levels = range(sol.n + 3)
        assert [sol.level_interval(i) for i in levels] == [ref.level_interval(i) for i in levels]

    @settings(max_examples=100, deadline=None)
    @given(cycle_sums(D765765, levels=3), cycle_sums(D765765, levels=3),
           st.lists(st.integers(1, 8), max_size=3), st.booleans())
    def test_divide_full_repr_is_stable(self, ac, bc, chains, odd_unit):
        a = Element(chains=ChainSum(chains), cycles=ac + (CycleSum.one() if odd_unit else CycleSum.zero()))
        b = Element(chains=ChainSum(chains), cycles=bc)
        first = repr(divide_full(a, b))
        assert first == repr(divide_full(a, b))
        assert "0x" not in first

    @settings(max_examples=150, deadline=None)
    @given(cycle_sums(D765765, levels=3), cycle_sums(D765765, levels=3), st.data())
    def test_membership_on_masks_matches_set_order(self, a, y, data):
        # x's odd parts divide the layout's modulus; its levels reach above n
        b = a * y
        sol = division.solve(a, b)
        assume(sol.bits.k is not None)
        parts = [d for d in D765765 if sol.bits.k % d == 0]
        x = data.draw(cycle_sums(parts, levels=6))
        for z in (x, x + y, y):
            assert division.membership(sol, z) == membership_sets(sol, z) == (a * z == b)

    def test_membership_on_masks_builds_no_layout(self, monkeypatch):
        a = CycleSum.from_lengths([3, 10, 45])
        y = CycleSum.from_lengths([5, 9, 6])
        # C3 + C45 annihilates C5 + C15, here at level 6
        x = y + CycleSum.from_lengths([5 << 6, 15 << 6])
        sol = division.solve(a, a * y)
        assert sol.bits.k is not None and x.max_level > sol.n

        def refuse(*args):
            raise AssertionError("membership built a layout")

        # with no layout kept, a widened layout has to be built
        monkeypatch.setattr(lattice, "_LAYOUTS", {})
        monkeypatch.setattr(division, "coprime_bits", refuse)
        assert division.membership(sol, x)
        assert not division.membership(sol, x + CycleSum.single(2 * 15))
        with pytest.raises(AssertionError):
            # an odd part outside the modulus (7) needs the widened layout
            division.membership(sol, x + CycleSum.single(7))

    def test_membership_widens_into_a_refused_layout(self):
        # the solution is held in masks over 3; x brings in 12 more primes,
        # and the widened layout over 13 primes (8192 divisors) is refused
        a = CycleSum.single(3)
        sol = division.solve(a, CycleSum.zero())
        assert isinstance(sol.bits, DivisorBits)
        primes = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
        x = CycleSum.from_lengths(list(primes) + [3 * p for p in primes])
        assert division.layout(a, CycleSum.zero(), x)[0] is ODD_COORDS
        for z in (x, x + CycleSum.single(2 * 43), CycleSum.single(43)):
            assert division.membership(sol, z) == membership_sets(sol, z) == (a * z == CycleSum.zero())
        assert division.membership(sol, x)

    @settings(max_examples=100, deadline=None)
    @given(cycle_sums(D765765, levels=3), cycle_sums(D765765, levels=3),
           cycle_sums(OUTSIDE, levels=5), st.booleans())
    def test_membership_outside_the_modulus(self, a, y, x, planted):
        b = a * (x if planted else y)
        sol = division.solve(a, b)
        z = x + CycleSum.single(19 << 4)
        assert division.membership(sol, z) == membership_sets(sol, z) == (a * z == b)

    @settings(max_examples=100, deadline=None)
    @given(cycle_sums(D765765), cycle_sums(D765765), st.integers(0, 1))
    def test_interval_parity_on_masks(self, a, y, t):
        sol = division.solve(a, a * y)
        assume(sol.bits.k is not None)
        want = division.interval_has_parity(sol.lambda0, sol.upsilon0, t)
        assert division.interval_has_parity(*sol.level_coords(0), t, sol.bits) == want
