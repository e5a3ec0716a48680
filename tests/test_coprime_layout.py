"""Solver layouts over a coprime base found by gcds, against the references.

``division.layout`` builds its ``DivisorBits`` over a pairwise coprime
base of the operands' odd parts, refined by gcds alone, and never factors
k.  Its divisors are closed under gcd and lcm and hold every operand, and
the solvers apply only Boolean formulas, so every answer must equal both
the OddSet formulas of ``set_reference`` and the answer in a layout over
the prime factors of k.  The prime layout is built from primes known by
construction, so moduli with prime factors near 10^9 are covered too.

The four pools are the divisors of 765765 and of 15015, products of up to
two primes near 10^9 (plus the prime 67280421310721), and 3^a * 5^b with
exponents up to 40.
"""

import itertools
import math
import random

import pytest

from cyclechain import division, lattice
from cyclechain.chains import ChainSum, Element, divide_full_restricted
from cyclechain.cycles import CycleSum
from cyclechain.division import ODD_COORDS, enumerate_restricted, membership, solve
from cyclechain.lattice import DivisorBits, coprime_base, coprime_bits, divisors, kept_bits, window_bits
from cyclechain.poly import degenerate_witness, eval_poly, is_bijective, is_reachable
from cyclechain.structure import RELATIONS, classify, green, ideal_intersect

from conftest import KeepsNothing, rand_cycles
from set_reference import (
    classify_sets,
    collision_pair_sets,
    green_sets,
    ideal_intersect_sets,
    is_reachable_sets,
    membership_sets,
    solve_sets,
    unreached_target_sets,
)
from test_lazy_enumeration import ref_divide_full_restricted, ref_enumerate_restricted, small_window, take
from test_poly import rand_branch_cubic

NEAR_1E9 = (1000000007, 1000000009, 1000000021, 1000000033, 1000000087, 1000000093)
F6_PRIME = 67280421310721  # a prime factor of 2^64 + 1
PRIMES = (3, 5, 7, 11, 13, 17, *NEAR_1E9, F6_PRIME)

POOLS = {
    "765765": divisors(765765),
    "15015": divisors(15015),
    "near-1e9": [1, F6_PRIME, *NEAR_1E9, *(p * q for p, q in itertools.combinations(NEAR_1E9, 2))],
    "3^a*5^b": [3**a * 5**b for a in range(41) for b in range(41)],
}
CASES = 110  # per pool; about 12 solver calls each


def prime_layout(k: int) -> DivisorBits:
    """The layout of k over its prime factors, all of them in ``PRIMES``."""
    factors = []
    rest = k
    for p in PRIMES:
        e = 0
        while rest % p == 0:
            e, rest = e + 1, rest // p
        if e:
            factors.append((p, e))
    assert rest == 1, k
    return DivisorBits(tuple(factors))


def sample_sum(rng, parts, terms=6, levels=3):
    """A cycle sum of up to ``terms`` lengths drawn from a few parts."""
    few = rng.sample(parts, min(len(parts), rng.randint(1, 4)))
    return rand_cycles(rng, few, levels, terms)


def case(rng, parts):
    x, y, z = (sample_sum(rng, parts) for _ in range(3))
    p = rand_branch_cubic(rng, rng.sample(parts, min(len(parts), 3)))
    s = eval_poly(p, sample_sum(rng, parts)) if rng.random() < 0.5 else sample_sum(rng, parts)
    return x, y, z, p, s


def answers(x, y, z, p, s) -> list:
    """Every solver's answer on one case: 12 or 13 calls."""
    sol, planted = solve(x, y), solve(x, x * y)
    out = [sol, planted, membership(planted, y), membership(sol, z), membership(planted, z)]
    out += [classify(x), classify(y), ideal_intersect(x, y), is_reachable(p, s)]
    out += [green(x, y, rel) for rel in RELATIONS]
    if not is_bijective(p):
        w = degenerate_witness(p)
        out.append((w.collision, w.unreached, w.unreached_reason))
    return out


def reference_answers(x, y, z, p, s, n, n_planted) -> list:
    """``answers`` by the OddSet formulas of ``set_reference``."""
    sol, planted = solve_sets(x, y, n), solve_sets(x, x * y, n_planted)
    out = [sol, planted, membership_sets(planted, y), membership_sets(sol, z), membership_sets(planted, z)]
    out += [classify_sets(x), classify_sets(y), ideal_intersect_sets(x, y), is_reachable_sets(p, s)]
    out += [green_sets(x, y, rel) for rel in RELATIONS]
    if not is_bijective(p):
        out.append((collision_pair_sets(p), *unreached_target_sets(p)))
    return out


class TestAnswersUnchanged:
    @pytest.mark.parametrize("pool", list(POOLS))
    def test_against_the_sets_and_the_prime_layout(self, pool, monkeypatch):
        rng = random.Random(f"coprime:{pool}")
        parts = POOLS[pool]
        cases = [case(rng, parts) for _ in range(CASES)]
        calls, masks = 0, 0
        got = []
        for x, y, z, p, s in cases:
            got.append(answers(x, y, z, p, s))
            calls += len(got[-1])
            masks += isinstance(division.layout(x, y, z)[0], DivisorBits)
        with monkeypatch.context() as m:
            # every layout over the prime factors of its k, none kept
            m.setattr(lattice, "_LAYOUTS", KeepsNothing())
            m.setattr(division, "coprime_bits", lambda k, lengths: prime_layout(k))
            primed = [answers(*c) for c in cases]
        for c, mine, theirs in zip(cases, got, primed):
            n, n_planted = mine[0].n, mine[1].n
            assert mine == theirs, [str(v) for v in c]
            assert mine == reference_answers(*c, n, n_planted), [str(v) for v in c]
        # no layout is refused in these pools, primes near 10^9 included
        assert masks == CASES
        assert calls >= 1300

    def test_the_size_rule_still_falls_back(self):
        x = CycleSum.from_lengths(range(3, 44, 2))  # 13 primes: 16384 divisors
        y = CycleSum.from_lengths([3 << 1, 43 << 2, 15])
        assert division.layout(x)[0] is ODD_COORDS and division.layout(x, y)[0] is ODD_COORDS
        p = rand_branch_cubic(random.Random(43), list(range(3, 44, 2)))
        c = (x, y, x + y, p, x)
        mine = answers(*c)
        assert mine == reference_answers(*c, mine[0].n, mine[1].n)


class TestRefinement:
    @pytest.mark.parametrize("pool", list(POOLS))
    def test_base_is_coprime_and_holds_every_length(self, pool, monkeypatch):
        monkeypatch.setattr(lattice, "_LAYOUTS", {})
        rng = random.Random(f"refine:{pool}")
        parts = POOLS[pool]
        for _ in range(60):
            lengths = rng.sample(parts, rng.randint(1, min(len(parts), 12)))
            base = coprime_base(lengths)
            assert all(b > 1 for b in base) and len(set(base)) == len(base)
            assert all(math.gcd(b, c) == 1 for b, c in itertools.combinations(base, 2))
            for q in lengths:
                for b in base:
                    while q % b == 0:
                        q //= b
                assert q == 1
            k = math.lcm(*lengths)
            kept = kept_bits(k)
            bits = coprime_bits(k, lengths)
            assert bits.k == k and kept_bits(k) is bits
            # the new layout holds the lengths and all that the kept one held
            assert set(lengths) <= set(bits.divisors)
            assert kept is None or set(kept.divisors) <= set(bits.divisors)
            assert len(bits.divisors) <= len(prime_layout(k).divisors)

    def test_divisors_closed_under_gcd_and_lcm(self):
        bits = coprime_bits(3**12 * 5**7 * 1000000007, [3**12 * 5**7, 3**4 * 1000000007, 5**7])
        divs = set(bits.divisors)
        assert bits.base == (3**4, 5**7, 1000000007)
        assert len(divs) == 4 * 2 * 2
        for d, e in itertools.combinations(divs, 2):
            assert math.gcd(d, e) in divs and math.lcm(d, e) in divs

    def test_a_miss_refines_the_kept_layout(self, monkeypatch):
        monkeypatch.setattr(lattice, "_LAYOUTS", {})
        k = 3**4 * 5 * 7
        x = CycleSum.from_lengths([k, 35 << 1])
        first = division.layout(x)[0]
        assert first.base == (35, 81) and first.divisors == (1, 35, 81, k)
        assert division.layout(x + CycleSum.single(k << 2))[0] is first  # a hit
        finer = division.layout(x + CycleSum.single(63))[0]  # 63 = 9 * 7: a miss
        assert finer is kept_bits(k) and finer.base == (5, 7, 9) and finer.k == k
        assert set(first.divisors) <= set(finer.divisors) and len(finer.divisors) == 12


class TestEnumeratorsOnCoarseLayouts:
    """A window lists the eager reference's sequence on the identity path
    (the solution lies in the window's own layout), from a coarser layout
    of the same k, and on a proper multiple of k."""

    WINDOWS = [(15015, 0, 3), (675, 1, 7), (3**4 * 5, 1, 5)]

    def runs(self, rng, parts, n):
        for _ in range(60):
            a = rand_cycles(rng, parts, n, 5)
            y = rand_cycles(rng, parts, n, 3)
            yield a, a * y if rng.random() < 0.7 else y

    @pytest.mark.parametrize("window", WINDOWS)
    def test_enumerate_restricted(self, window, monkeypatch):
        m, n, p = window
        rng = random.Random(m)
        paths = {"identity": 0, "coarse": 0, "multiple": 0}
        for a, b in self.runs(rng, divisors(m), n):
            with monkeypatch.context() as patch:
                patch.setattr(lattice, "_LAYOUTS", {})
                sol = solve(a, b)
            k = sol.bits.k
            if not sol.solvable or not small_window(sol, k * p, n):
                continue
            bits = window_bits(k)
            again = solve(a, b)
            assert again.bits is bits and sol.bits is not bits
            for s, kk, path in ((again, k, "identity"), (sol, k, "coarse"), (sol, k * p, "multiple")):
                mine = take(enumerate_restricted(s, kk, n))
                assert mine == take(ref_enumerate_restricted(s, kk, n)), (str(a), str(b), path)
                paths[path] += 1
        assert min(paths.values()) >= 10, paths

    def test_window_checks_on_the_layout_modulus(self):
        # a multiple of the layout's k that is even or not positive is
        # refused as before, ahead of the level bound
        sol = solve(CycleSum.single(3), CycleSum.single(3))
        for k, n, text in ((6, 0, "odd k required"), (-3, -1, "odd k required"), (5, 0, "multiple of lcm"),
                           (3, -1, "level bound")):
            with pytest.raises(ValueError, match=text):
                next(enumerate_restricted(sol, k, n))

    @pytest.mark.parametrize("window", WINDOWS)
    def test_divide_full_restricted(self, window):
        m, n, p = window
        rng = random.Random(-m)
        runs = 0
        for a, b in self.runs(rng, divisors(m), n):
            chains = ChainSum(rng.randint(1, 5) for _ in range(rng.randint(0, 2)))
            ea, eb = Element(chains=chains, cycles=a), Element(chains=chains * chains, cycles=b)
            k = math.lcm(a.stats()[0], b.stats()[0])
            if not small_window(solve(a, b), k * p, n):
                continue
            # on k the cycle solutions lie in the window's layout; on k * p
            # they are mapped into it
            for kk in (k, k * p):
                mine = take(divide_full_restricted(ea, eb, kk, max_level=n, max_height=4))
                assert mine == take(ref_divide_full_restricted(ea, eb, kk, n, 4))
                runs += 1
            assert solve(a, b).bits is window_bits(k)
        assert runs >= 20
