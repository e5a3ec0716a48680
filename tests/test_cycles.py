import gc
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclechain.cycles import (
    CycleSum,
    ODD_ONE,
    ODD_ZERO,
    OddSet,
    mul_cycles,
)

from cyclechain import oracle
from cyclechain.chains import Element
from cyclechain.lattice import divisors
from conftest import assert_canonical, rand_cycles
from set_reference import SetCycleSum, cycle_mul_pairs

C = CycleSum.single


def lengths(*qs):
    return CycleSum.from_lengths(qs)


cycle_sums = st.builds(
    CycleSum.from_lengths,
    st.lists(st.integers(min_value=1, max_value=40), max_size=5),
)


class TestFromLengths:
    def test_parity_of_multiplicities(self):
        x = CycleSum.from_lengths([3, 4, 4, 4, 4, 5, 5] + [8] * 8)
        assert x == C(3)

    def test_empty(self):
        assert CycleSum.from_lengths([]) == CycleSum.zero()

    def test_level_split(self):
        x = CycleSum.from_lengths([6])
        assert x.level(1) == OddSet([3])
        assert x.level(0) == ODD_ZERO

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            CycleSum.from_lengths([0])


class TestMulCycles:
    def test_coprime_odd(self):
        assert mul_cycles(3, 5) == C(15)

    def test_even_gcd_vanishes(self):
        assert mul_cycles(2, 6) == CycleSum.zero()

    def test_identity(self):
        for n in (1, 2, 7, 12):
            assert mul_cycles(1, n) == C(n)


class TestMul:
    def test_unit(self):
        x = lengths(3, 10)
        assert x * CycleSum.one() == x

    def test_even_square_vanishes(self):
        assert C(2) * C(2) == CycleSum.zero()

    def test_mixed_square(self):
        assert lengths(3, 6) ** 2 == C(3)

    def test_matches_pairwise_expansion(self, rng):
        for _ in range(300):
            x = rand_cycles(rng, parts=(1, 3, 5, 7, 9), levels=3)
            y = rand_cycles(rng, parts=(1, 3, 5, 7, 9), levels=3)
            expanded = CycleSum.zero()
            for q in x.lengths():
                for r in y.lengths():
                    expanded = expanded + mul_cycles(q, r)
            assert x * y == expanded


D765765 = divisors(765765)
# odd parts built from two primes near 10**6 and a few small ones
P, Q = 999_983, 1_000_003
TWO_PRIMES = [a * b for a in (1, 3, 5, 15) for b in (1, P, Q, P * Q)]
KINDS = ("zero", "nilpotent", "idempotent", "unit", "general")


def draw(rng: random.Random, kind: str, parts: list[int]) -> CycleSum:
    """A cycle sum of the given kind: nilpotent has no level-0 part,
    idempotent only a level-0 part, unit is C1 plus an even part; levels
    run 0-6 and odd parts come from parts."""
    if kind == "zero":
        return CycleSum.zero()
    terms = [rng.choice(parts) for _ in range(rng.randint(1, 12))]
    if kind == "idempotent":
        return CycleSum.from_lengths(terms)
    low = 0 if kind == "general" else 1
    even = [q << rng.randint(low, 6) for q in terms]
    return CycleSum.from_lengths([1] + even if kind == "unit" else even)


class TestProductDifferential:
    """``CycleSum.__mul__`` builds each output level once; the two-loop
    product it replaced is ``set_reference.cycle_mul_pairs``."""

    def pairs(self, rng, rounds):
        for _ in range(rounds):
            for parts in (D765765, TWO_PRIMES):
                for kx in KINDS:
                    for ky in KINDS:
                        yield draw(rng, kx, parts), draw(rng, ky, parts)

    def test_matches_the_two_loop_product(self):
        rng = random.Random(18)
        n = 0
        for x, y in self.pairs(rng, 110):
            z = x * y
            assert z == cycle_mul_pairs(x, y), (str(x), str(y))
            assert_canonical(z)
            n += 1
        assert n >= 5000

    def test_zero_and_nilpotent_products_vanish(self):
        rng = random.Random(19)
        for x, y in self.pairs(rng, 20):
            if not x or not y or (not x.odd_part and not y.odd_part):
                assert (x * y) is CycleSum.zero()

    def test_powers_match_repeated_products(self):
        rng = random.Random(20)
        for x, _ in self.pairs(rng, 2):
            want = CycleSum.one()
            for n in range(6):
                assert x ** n == want
                assert_canonical(x ** n)
                want = cycle_mul_pairs(want, x)

    def test_matches_the_oracle(self):
        rng = random.Random(21)
        pairs = list(self.pairs(rng, 6))[:300]
        assert len(pairs) == 300
        for x, y in pairs:
            want = oracle.oracle_mul(Element.from_cycles(x), Element.from_cycles(y))
            assert x * y == want.cycles and not want.chains


def view_lengths(rng: random.Random, parts: list[int]) -> list[int]:
    """Lengths for a random sum: none, one level only, or levels 0-6, with
    repeats so that some terms cancel."""
    shape = rng.choice(("zero", "single", "levels", "levels"))
    if shape == "zero":
        return []
    terms = [rng.choice(parts) for _ in range(rng.randint(1, 24))]
    if shape == "single":
        level = rng.randint(0, 6)
        return [q << level for q in terms]
    return [q << rng.randint(0, 6) for q in terms + terms[: rng.randint(0, 4)]]


class TestRawLevels:
    """Each level is held as an ascending tuple of raw lengths, and every
    view is built from it on demand; ``set_reference.SetCycleSum`` holds a
    frozenset of odd parts per level instead."""

    MODULI = (1, 3, 15, 765765, P, P * Q)

    def samples(self, rng, n):
        for _ in range(n):
            for parts in (D765765, TWO_PRIMES):
                ls = view_lengths(rng, parts)
                yield CycleSum.from_lengths(ls), SetCycleSum(ls)

    def test_views_match_the_set_reference(self):
        rng = random.Random(19)
        for x, ref in self.samples(rng, 250):
            assert_canonical(x)
            assert x.items() == ref.items()
            assert all(x.level(i) == ref.level(i) for i in range(8))
            assert x.odd_part == ref.odd_part and x.plus_closure == ref.plus_closure
            assert x.even_part == ref.even_part.cycles()
            assert x.stats() == ref.stats() and x.max_level == ref.stats()[1]
            assert x.lengths() == ref.lengths() and str(x) == str(ref)
            for n in range(7):
                assert x.restrict_level(n) == ref.restrict_level(n).cycles()
            for k in self.MODULI:
                assert x.restrict_div(k) == ref.restrict_div(k).cycles()
            for part in (x.even_part, x.restrict_level(2), x.restrict_div(15)):
                assert_canonical(part)

    def test_equality_and_hash_follow_the_set_reference(self):
        rng = random.Random(20)
        samples = list(self.samples(rng, 60))
        for x, ref in samples:
            # the same value reached by the checked constructor, a sum and a product
            for y in (ref.cycles(), x.even_part + x.restrict_level(0), x * CycleSum.one()):
                assert x == y and hash(x) == hash(y)
        for (x, rx), (y, ry) in zip(samples, samples[1:] + samples[:1]):
            assert (x == y) == (rx == ry)
            assert (x + y == CycleSum.zero()) == (rx == ry)
            # shared levels merged, the rest passed through
            assert_canonical(x + y)
            assert (x + y).lengths() == tuple(sorted(set(rx.lengths()) ^ set(ry.lengths())))


class TestFootprint:
    """Pool-shaped sums, as the benchmark's solve-mix pool builds them: 200
    sums of 96 terms over the divisors of 765765 at levels 0-4."""

    def pool_lengths(self, seed):
        rng = random.Random(seed)
        return [[rng.choice(D765765) << rng.randint(0, 4) for _ in range(96)] for _ in range(200)]

    def test_from_lengths_holds_the_given_ints(self):
        for ls in self.pool_lengths(1)[:20]:
            given = {id(q) for q in ls}
            x = CycleSum.from_lengths(ls)
            assert all(id(q) in given for _, level in x._levels for q in level)

    def test_bytes_held_per_term(self):
        lists = self.pool_lengths(2)
        gc.collect()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sums = [CycleSum.from_lengths(ls) for ls in lists]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        terms = sum(len(x.lengths()) for x in sums)
        assert terms > 15_000
        # a tuple slot per term and a few headers per level hold about 14 B
        # a term; a frozenset per level and an int per odd part, about 90 B
        assert held / terms < 24


class TestParts:
    def test_plus_closure_joins_levels(self):
        x = lengths(3, 10)
        assert x.plus_closure == OddSet([3, 5, 15])

    def test_plus_closure_fixes_idempotents(self, rng):
        for _ in range(100):
            e = rand_cycles(rng).odd_part.as_cycles()
            assert e.plus_closure == e.odd_part

    def test_plus_closure_zero(self):
        assert CycleSum.zero().plus_closure == ODD_ZERO

    def test_odd_even_split(self):
        x = lengths(3, 10, 28)
        assert x.odd_part == OddSet([3])
        assert x.even_part == lengths(10, 28)
        assert x.odd_part.as_cycles() + x.even_part == x


class TestStats:
    def test_worked_example(self):
        a = lengths(1, 5) + C(7) * C(2) + C(5) * C(8)
        assert a.stats() == (35, 3)

    def test_one(self):
        assert C(1).stats() == (1, 0)

    def test_single_even(self):
        assert C(12).stats() == (3, 2)

    def test_zero_convention(self):
        assert CycleSum.zero().stats() == (1, 0)

    def test_max_level_reads_the_top_level(self, rng, monkeypatch):
        sums = [rand_cycles(rng, (1, 3, 5, 7, 9, 15, 21, 35), levels=6, terms=8) for _ in range(300)]
        tops = [x.stats()[1] for x in sums]
        assert CycleSum.zero() in sums and max(tops) == 6

        def no_lcm(*args):
            raise AssertionError("max_level took an lcm")

        monkeypatch.setattr(math, "lcm", no_lcm)
        assert [x.max_level for x in sums] == tops


class TestRestrict:
    def test_level_filter(self):
        a = C(3) + C(5) * C(2) + C(7) * C(4)
        assert a.restrict_level(1) == C(3) + C(5) * C(2)

    def test_divisor_filter(self):
        a = C(3) + C(5) * C(2) + C(7) * C(4)
        assert a.restrict_div(15) == C(3) + C(5) * C(2)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            C(3).restrict_div(6)

    def test_commutation(self, rng):
        for _ in range(500):
            a = rand_cycles(rng, parts=(1, 3, 5, 7, 15, 21), levels=3)
            n = rng.randint(0, 3)
            k = rng.choice((1, 3, 5, 15, 105))
            assert a.restrict_level(n).restrict_div(k) == a.restrict_div(k).restrict_level(n)


class TestIdempotentLattice:
    def test_join(self):
        assert (OddSet([3]) | OddSet([5])) == OddSet([3, 5, 15])

    def test_complement_of_one_and_zero(self):
        assert ODD_ONE.complement() == ODD_ZERO
        assert ODD_ZERO.complement() == ODD_ONE

    def test_divisibility_order(self):
        assert OddSet([15]) <= OddSet([3])
        assert not OddSet([3]) <= OddSet([15])

    def test_meet_is_product(self):
        assert OddSet([3]) * OddSet([5]) == OddSet([15])

    def test_order_reversal_under_complement(self, rng):
        for _ in range(300):
            x0 = rand_cycles(rng).odd_part
            y0 = rand_cycles(rng).odd_part
            assert (x0 <= y0) == (x0.complement() >= y0.complement())

    def test_no_atoms(self, rng):
        for _ in range(100):
            e = rand_cycles(rng, parts=(1, 3, 5, 9, 15)).odd_part
            if not e:
                continue
            p = 7  # prime dividing none of the candidate lengths
            t = e * OddSet([p])
            assert t not in (ODD_ZERO, e)
            assert t <= e


@settings(max_examples=300)
@given(cycle_sums)
def test_fourth_power_collapses(x):
    assert x ** 4 == x ** 2
    assert x ** 2 == x.odd_part.as_cycles()


@settings(max_examples=300)
@given(cycle_sums)
def test_idempotent_iff_level_zero(x):
    assert (x * x == x) == x.is_idempotent


@settings(max_examples=200)
@given(cycle_sums, cycle_sums, cycle_sums)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + x == CycleSum.zero()
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
