"""The atom-coordinate layout and the division paths that run on it.

The OddSet formulas (``_solve_sets``, ``_membership_sets``, the set order
and products) are the reference every bit-path result is compared with.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclechain import division, oracle
from cyclechain.chains import Element
from cyclechain.cycles import CycleSum, OddSet
from cyclechain.lattice import (
    MAX_BIT_DIVISORS,
    DivisorBits,
    _prime_factors,
    divisor_bits,
    divisor_count,
    divisors,
)

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


class TestDivisorHelpers:
    @pytest.mark.parametrize("k", [1, 3, 9, 15, 45, 105, 3465, 5005, 765765, 1_000_003])
    def test_divisors_match_a_scan(self, k):
        scan = [d for d in range(1, k + 1) if k % d == 0]
        assert divisors(k) == scan
        assert divisor_count(k) == len(scan)

    def test_even_modulus_rejected(self):
        for fn in (divisors, divisor_count):
            with pytest.raises(ValueError):
                fn(6)
        with pytest.raises(ValueError):
            divisor_bits(6, 100)

    def test_factorisation_step_cap(self):
        assert _prime_factors(765765, 6) == {3: 2, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1}
        assert _prime_factors(765765, 5) is None
        assert _prime_factors(BIG_PRIME, 100) is None
        assert _prime_factors(BIG_PRIME) == {BIG_PRIME: 1}

    def test_layout_budget(self):
        assert sorted(divisor_bits(765765, 7).divisors) == D765765
        assert divisor_bits(BIG_PRIME, 16) is None
        wide = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))
        assert divisor_count(wide) > MAX_BIT_DIVISORS
        assert divisor_bits(wide, 10**6) is None

    def test_layout_is_shared(self):
        assert divisor_bits(3465, 100) is divisor_bits(3465, 100)


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
        assert E >> bits.index[765765] & 1 == e.parity


class TestSolveDifferential:
    @settings(max_examples=150, deadline=None)
    @given(cycle_sums(D765765), cycle_sums(D765765), st.booleans())
    def test_solve_matches_set_formulas(self, a, y, planted):
        # planted: b = a*y is solvable; otherwise b is arbitrary, often not
        b = a * y if planted else y
        sol = division.solve(a, b)
        assert sol == division._solve_sets(a, b, sol.n)
        if planted:
            assert sol.solvable

    @settings(max_examples=50, deadline=None)
    @given(cycle_sums(D765765))
    def test_zero_divisor(self, b):
        sol = division.solve(CycleSum.zero(), b)
        assert sol == division._solve_sets(CycleSum.zero(), b, sol.n)
        assert sol.solvable == (not b)

    @settings(max_examples=150, deadline=None)
    @given(cycle_sums(D765765, levels=3), cycle_sums(D765765, levels=3),
           cycle_sums(OUTSIDE, levels=4), st.booleans())
    def test_membership_matches_set_order(self, a, y, x, planted):
        b = a * (x if planted else y)
        sol = division.solve(a, b)
        got = division.membership(sol, x)
        assert got == division._membership_sets(sol, x) == (a * x == b)

    def test_solution_outside_the_modulus(self):
        x = CycleSum.from_lengths([5, 15])
        sol = division.solve(CycleSum.single(3), CycleSum.zero())
        assert division.membership(sol, x)
        assert division._membership_sets(sol, x)

    @settings(max_examples=50, deadline=None)
    @given(cycle_sums([1, 3, BIG_PRIME, 3 * BIG_PRIME], max_terms=3),
           cycle_sums([1, 3, BIG_PRIME, 3 * BIG_PRIME], max_terms=3))
    def test_large_prime_takes_the_set_path(self, a, x):
        b = a * x
        sol = division.solve(a, b)
        k = math.lcm(a.stats()[0], b.stats()[0])
        if k % BIG_PRIME == 0:
            # the budget of inputs this small: (3 + 1) terms squared, 4 levels
            assert divisor_bits(k, 4 * 4 * 4) is None
        assert sol == division._solve_sets(a, b, sol.n)
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
