import random
from typing import Optional

import pytest

from cyclechain import division
from cyclechain.cycles import CycleSum, ODD_ONE, OddSet
from cyclechain.division import ODD_COORDS
from cyclechain.lattice import DivisorBits, divisors
from cyclechain.structure import (
    RELATIONS,
    classify,
    coregular_representative,
    green,
    ideal_intersect,
    is_coregular,
    is_regular,
    is_unit,
)

from conftest import rand_cycles, rand_unit
from set_reference import classify_sets, green_sets, ideal_intersect_sets, ideal_reduce

C = CycleSum.single


def lengths(*qs):
    return CycleSum.from_lengths(qs)


# ---------------------------------------------------------------- reference
# The definitions the closed forms in ``structure`` replaced, and the
# exponential diagnostics that nothing in the package calls.


def ref_is_regular(x: CycleSum) -> bool:
    return x * x * x == x


def ref_is_coregular(x: CycleSum) -> bool:
    x0 = x.odd_part
    return all(not (x0 * xi) for i, xi in x.items() if i >= 1)


def ref_coregular_representative(x: CycleSum) -> CycleSum:
    x2 = x * x
    return x + x2 + x2 * x


def restriction_identity_check(a: CycleSum, e: OddSet) -> bool:
    """Whether a*e equals (a*e)+closure times a (it always should)."""
    ae = a * e.as_cycles()
    return ae == ae.plus_closure.as_cycles() * a


def divisor_lattice_universe(k: int, n: int) -> tuple[int, ...]:
    """All cycle lengths with odd part dividing k and level at most n."""
    return tuple(sorted(q << i for q in divisors(k) for i in range(n + 1)))


def probe_ideal_intersection(
    x: CycleSum, y: CycleSum, k: int, n: int, candidates: int = 1 << 14
) -> Optional[CycleSum]:
    """Bounded search for a single generator of the ideal intersection.

    Scans the elements m of the restricted space (odd parts dividing k,
    levels <= n) that both x and y divide, and returns one that itself
    divides all of them, or None if no such element exists in the space.
    Exponential in the space size; a diagnostic tool only.
    """
    lat = divisor_lattice_universe(k, n)
    if len(lat) > 24:
        raise ValueError("restricted space too large to probe")
    members = []
    for bits in range(1 << len(lat)):
        m = CycleSum.from_lengths(
            [lat[t] for t in range(len(lat)) if bits >> t & 1]
        )
        if division.solve(x, m).solvable and division.solve(y, m).solvable:
            members.append(m)
        if len(members) > candidates:
            raise ValueError("too many common multiples to probe")
    for g in members:
        if all(division.solve(g, m).solvable for m in members):
            return g
    return None


WIDE_PARTS = divisors(765765)  # 3^2 * 5 * 7 * 11 * 13 * 17: 96 divisors


def wide_sum(rng, terms):
    return CycleSum.from_lengths(rng.choice(WIDE_PARTS) << rng.randint(0, 4) for _ in range(terms))


class TestClosedFormsAgainstDefinitions:
    """x = a + m with a*a = a and m*m = 0, so the answers read a*m only."""

    def test_wide_random_sums(self):
        rng = random.Random(765765)
        assert len(WIDE_PARTS) == 96
        for _ in range(300):
            x = wide_sum(rng, rng.randint(0, 96))
            if rng.random() < 0.25:
                # a regular or co-regular input, which random sums rarely are
                a = x.odd_part.as_cycles()
                x = a + a * x.even_part if rng.random() < 0.5 else x + a * x.even_part
            c = classify(x)
            assert c.is_regular == is_regular(x) == ref_is_regular(x)
            assert c.is_coregular == is_coregular(x) == ref_is_coregular(x)
            assert c.coregular_rep == coregular_representative(x) == ref_coregular_representative(x)
            assert c.is_unit == is_unit(x) == (x.odd_part == ODD_ONE)

    def test_small_exhaustive(self):
        # every sum of lengths among 1, 3, 2, 6, 4, 12
        parts = [1, 3, 2, 6, 4, 12]
        for bits in range(1 << len(parts)):
            x = CycleSum.from_lengths(q for t, q in enumerate(parts) if bits >> t & 1)
            assert is_regular(x) == ref_is_regular(x)
            assert is_coregular(x) == ref_is_coregular(x)
            assert coregular_representative(x) == ref_coregular_representative(x)

    def test_green_r_agrees_with_definition(self):
        rng = random.Random(96)
        for _ in range(150):
            x = wide_sum(rng, rng.randint(0, 30))
            y = x * rand_unit(rng, parts=WIDE_PARTS[:8], levels=4) if rng.random() < 0.5 else wide_sum(rng, 8)
            by_rep = ref_coregular_representative(x) == ref_coregular_representative(y)
            assert green(x, y, "R") == by_rep


class TestMasksAgainstSets:
    """classify, green and ideal_intersect on the masks of one layout, and
    on the OddSets of a refused one, give exactly the values of the OddSet
    formulas in ``set_reference``."""

    @staticmethod
    def pairs():
        rng = random.Random(96)
        for _ in range(300):
            x = wide_sum(rng, rng.randint(0, 96))
            z = wide_sum(rng, rng.randint(0, 96))
            kind = rng.randrange(6)
            if kind == 0:
                y = z
            elif kind == 1:
                # the same R-class
                y = x * rand_unit(rng, parts=WIDE_PARTS[:8], levels=4)
            elif kind == 2:
                # an idempotent, hence regular
                y = z.odd_part.as_cycles()
            elif kind == 3:
                # a regular x, a + a*m, against a full y
                a = x.odd_part.as_cycles()
                x, y = a + a * x.even_part, z
            elif kind == 4:
                # level 1 is C1, so both closures are C1; the odd parts differ
                x = x + x.level(1).as_cycles(1) + C(2)
                y = x + z.odd_part.as_cycles()
            else:
                # no odd parts, so the reduced pair multiplies to zero
                x, y = x.even_part, z.even_part
            assert isinstance(division.layout(x, y)[0], DivisorBits)
            yield x, y

    def test_classify(self):
        for x, y in self.pairs():
            for z in (x, y):
                assert classify(z) == classify_sets(z)

    def test_green(self):
        related = {rel: 0 for rel in RELATIONS}
        for x, y in self.pairs():
            for rel in RELATIONS:
                got = green(x, y, rel)
                assert got == green_sets(x, y, rel)
                related[rel] += got
        assert all(0 < n < 300 for n in related.values()), related

    def test_ideal_intersect(self):
        branches = {"regular": 0, "zero product": 0, "unknown": 0}
        for x, y in self.pairs():
            got = ideal_intersect(x, y)
            # equal generators, not just generators of the same ideal
            assert got == ideal_intersect_sets(x, y)
            if is_regular(x) or is_regular(y):
                branches["regular"] += 1
            else:
                branches["zero product" if got.kind == "principal" else "unknown"] += 1
        assert all(branches.values()), branches

    def test_refused_layouts_fall_back(self):
        large_prime = C(999983)  # on masks over the base {999983}: never factored
        many_primes = CycleSum.from_lengths(range(3, 44, 2))  # 13 primes, 16384 divisors
        unit = lengths(1, 2, 12)
        cases = [(large_prime, large_prime * unit), (large_prime + C(2), lengths(3, 4)),
                 (many_primes, many_primes * unit), (many_primes + C(6), lengths(3, 10))]
        for x, y in cases:
            coords = [division.layout(x)[0], division.layout(x, y)[0]]
            if x.stats()[0] == 999983:
                assert all(isinstance(bits, DivisorBits) for bits in coords)
            else:
                assert coords == [ODD_COORDS, ODD_COORDS]
            c = classify(x)
            assert c == classify_sets(x)
            related = [green(x, y, rel) for rel in RELATIONS]
            assert related == [green_sets(x, y, rel) for rel in RELATIONS]
            # equal generators, not just generators of the same ideal
            assert ideal_intersect(x, y) == ideal_intersect_sets(x, y)
            assert c.plus_closure == x.plus_closure and c.coregular_rep == coregular_representative(x)
            assert related[RELATIONS.index("R")] == (y == x * unit)
        assert classify(large_prime).is_idempotent
        assert ideal_intersect(many_primes, C(2)).generator == many_primes * C(2)


class TestClassify:
    def test_unit_with_even_tail(self):
        c = classify(lengths(1, 2))
        assert c.is_unit and c.is_regular and not c.is_idempotent
        x = lengths(1, 2)
        assert x * x == CycleSum.one()
        assert c.coregular_rep == CycleSum.one()

    def test_idempotent(self):
        c = classify(lengths(3, 5))
        assert c.is_idempotent and c.is_regular and c.is_coregular and not c.is_unit

    def test_mixed_element(self):
        x = lengths(3, 10)
        c = classify(x)
        assert not c.is_regular and not c.is_unit
        assert c.plus_closure == OddSet([3, 5, 15])

    def test_unit_test_builds_no_level_view(self, rng, monkeypatch):
        xs = [rand_unit(rng) for _ in range(50)] + [rand_cycles(rng) for _ in range(200)]
        want = [x.odd_part == ODD_ONE for x in xs]
        assert any(want) and not all(want)

        def no_view(self, i):
            raise AssertionError("is_unit built an OddSet view")

        monkeypatch.setattr(CycleSum, "level", no_view)
        assert [is_unit(x) for x in xs] == want

    def test_invariant_implications(self, rng):
        for _ in range(500):
            c = classify(rand_cycles(rng))
            if c.is_idempotent:
                assert c.is_regular and c.is_coregular
            if c.is_unit:
                assert c.is_regular


class TestCancellableEquivalences:
    def test_seven_way(self, rng):
        for _ in range(1000):
            x = rand_cycles(rng)
            unit = is_unit(x)
            assert unit == (x * x == CycleSum.one())
            # units are exactly the values of a*a + a + 1
            a = x + CycleSum.one()
            assert unit == (a * a + a + CycleSum.one() == x) or not unit
            if unit:
                assert a * a + a + CycleSum.one() == x
            # nonzero annihilators exist exactly for non-units
            ann = division.annihilators(x)
            has_nonzero = bool(ann.odd_bound) or bool(ann.closure_bound)
            assert has_nonzero == (not unit)
            if has_nonzero:
                if ann.odd_bound:
                    z = ann.odd_bound.as_cycles()
                else:
                    z = ann.closure_bound.as_cycles(1)
                assert z and x * z == CycleSum.zero()


class TestRegularEquivalences:
    def test_sampled_equivalences(self, rng):
        for _ in range(1000):
            x = rand_cycles(rng)
            r1 = x * x * x == x
            r2 = x.plus_closure == (x * x).odd_part
            r3 = x * x * (CycleSum.one() + x + x * x) == x
            r4 = green(x, x * x, "R")
            assert r1 == r2 == r3 == r4
            if r1:
                s = x
                assert s * s * s == x  # cube root witness


class TestCoregularEquivalences:
    def test_five_way(self, rng):
        one = CycleSum.one()
        for _ in range(1000):
            h = rand_cycles(rng)
            c1 = is_coregular(h)
            c2 = h ** 3 == h ** 2
            c3 = is_regular(h + one)
            b = h + one
            c4 = b ** 3 + one == h if c1 else None
            assert c1 == c2 == c3
            if c1:
                assert b ** 3 + one == h
                a = h
                assert a ** 3 + a ** 2 + a == h


class TestCoregularRepresentative:
    def test_h_is_coregular_and_related(self, rng):
        for _ in range(500):
            a = rand_cycles(rng)
            h = coregular_representative(a)
            assert is_coregular(h)
            assert green(a, h, "R")

    def test_h_constant_on_unit_orbits(self, rng):
        for _ in range(200):
            a = rand_cycles(rng)
            g = rand_unit(rng)
            assert coregular_representative(a * g) == coregular_representative(a)

    def test_unit_group_law(self, rng):
        one = CycleSum.one()
        for _ in range(200):
            g = rand_unit(rng)
            gp = rand_unit(rng)
            assert (g * gp) + one == (g + one) + (gp + one)
            assert g * g == one


class TestGreen:
    def test_strict_inclusion_witnesses(self):
        assert green(C(1), C(2), "Rtilde")
        assert not green(C(1), C(2), "Rstar")
        a = C(3) + C(5) * C(2)
        b = C(3) + C(5) * C(4)
        assert green(a, b, "Rstar")
        assert not green(a, b, "R")

    def test_unit_orbit_is_R_class(self, rng):
        for _ in range(300):
            x = rand_cycles(rng)
            g = rand_unit(rng)
            assert green(x, x * g, "R")

    def test_chain_of_implications(self, rng):
        for _ in range(500):
            x = rand_cycles(rng)
            y = rand_cycles(rng)
            if green(x, y, "R"):
                assert green(x, y, "Rstar")
            if green(x, y, "Rstar"):
                assert green(x, y, "Rtilde")

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            green(C(1), C(1), "H")


class TestRestrictionIdentity:
    def test_random_trials(self, rng):
        for _ in range(1000):
            a = rand_cycles(rng)
            e = rand_cycles(rng).plus_closure
            assert restriction_identity_check(a, e)

    def test_zero(self):
        assert restriction_identity_check(CycleSum.zero(), OddSet([3]))

    def test_identity_idempotent(self, rng):
        for _ in range(100):
            a = rand_cycles(rng)
            assert restriction_identity_check(a, ODD_ONE)
            assert a.plus_closure.as_cycles() * a == a


class TestIdealReduce:
    def test_fixed_point_when_closures_match(self, rng):
        for _ in range(200):
            x = rand_cycles(rng)
            g = rand_unit(rng)
            y = x * g
            alpha, beta = ideal_reduce(x, y)
            assert alpha == x and beta == y

    def test_odd_cycles(self):
        assert ideal_reduce(C(3), C(5)) == (C(15), C(15))

    def test_zero(self):
        assert ideal_reduce(CycleSum.zero(), CycleSum.zero()) == (
            CycleSum.zero(),
            CycleSum.zero(),
        )


class TestIdealIntersect:
    def test_even_self_intersection(self):
        res = ideal_intersect(C(2), C(2))
        assert res.kind == "principal" and res.generator == C(2)

    def test_regular_case(self, rng):
        for _ in range(200):
            e = rand_cycles(rng).plus_closure.as_cycles()
            y = rand_cycles(rng)
            res = ideal_intersect(e, y)
            assert res.kind == "principal"
            assert res.generator == e * y

    def test_generators_are_common_multiples(self, rng):
        found = 0
        for _ in range(400):
            x = rand_cycles(rng)
            y = rand_cycles(rng)
            res = ideal_intersect(x, y)
            if res.kind != "principal":
                continue
            found += 1
            g = res.generator
            assert division.solve(x, g).solvable
            assert division.solve(y, g).solvable
        assert found > 50

    def test_open_case_reported_unknown(self):
        x = C(3) + C(2)
        y = C(5) + C(2)
        res = ideal_intersect(x, y)
        assert res.kind == "unknown"

    def test_probe_on_small_window(self):
        # diagnostic probe: searches a finite window for a generator
        g = probe_ideal_intersection(C(2), C(2), k=1, n=1)
        assert g == C(2)
