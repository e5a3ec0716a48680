import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclechain import oracle
from cyclechain.chains import (
    ChainDivision,
    ChainSum,
    Element,
    _chain_branch,
    divide_chains,
    divide_full,
    divide_full_restricted,
    from_orthogonal,
    mul_chain,
    mul_chain_cycle,
    odd_cycle_parity,
    to_orthogonal,
)
from cyclechain.cycles import CycleSum, OddSet
from cyclechain.lattice import divisors, ones, submasks

from conftest import rand_cycles, rand_element, rand_unit
from set_reference import chain_mul_pairs

C = CycleSum.single
DIVS_765765 = divisors(765765)


def L(*ds):
    return ChainSum(ds)


def Z(i, eps):
    return from_orthogonal(1 << i, eps)


def elem(chains=None, cycles=None):
    return Element(chains=chains or ChainSum(), cycles=cycles or CycleSum.zero())


class TestChainProducts:
    def test_same_parity_takes_min(self):
        assert mul_chain(3, 5) == L(3)

    def test_parity_mismatch_vanishes(self):
        assert mul_chain(2, 3) == ChainSum()

    def test_idempotent(self):
        for d in (1, 2, 5, 8):
            assert mul_chain(d, d) == L(d)

    def test_chain_cycle(self):
        assert mul_chain_cycle(2, 3) == L(2)
        assert mul_chain_cycle(2, 4) == ChainSum()
        assert mul_chain_cycle(1, 1) == L(1)

    def test_chain_sum_products(self):
        assert L(3) * L(1, 5) == L(1, 3)
        assert elem(chains=L(2)) * elem(cycles=C(3) + C(5)) == elem()

    def test_sweep_equals_the_pair_loop(self, rng):
        # small tops share lengths between the operands; 0 chains is the
        # empty sum
        for i in range(5000):
            top = (4, 12, 300)[i % 3]
            a = ChainSum(rng.randint(1, top) for _ in range(rng.randint(0, 20)))
            b = ChainSum(rng.randint(1, top) for _ in range(rng.randint(0, 20)))
            assert a * b == chain_mul_pairs(a, b), (str(a), str(b))
        assert L(2, 3) * ChainSum() == ChainSum() * L(2, 3) == ChainSum()

    def test_product_is_the_and_of_z_coordinates(self, rng):
        for _ in range(300):
            eps = rng.randint(0, 1)
            a = ChainSum(rng.randrange(2 - eps, 40, 2) for _ in range(rng.randint(0, 6)))
            b = ChainSum(rng.randrange(2 - eps, 40, 2) for _ in range(rng.randint(0, 6)))
            assert a * b == from_orthogonal(to_orthogonal(a, eps) & to_orthogonal(b, eps), eps)

    def test_products_match_the_oracle(self, rng):
        for _ in range(300):
            for cycle_terms in (0, 3):
                x = rand_element(rng, cycle_terms=cycle_terms, max_chain=12, chain_terms=5)
                y = rand_element(rng, cycle_terms=cycle_terms, max_chain=12, chain_terms=5)
                assert x * y == oracle.oracle_mul(x, y), (str(x), str(y))

    def test_product_of_thousands_of_chains_is_fast(self):
        rng = random.Random(2000)
        a = ChainSum(rng.sample(range(1, 10**6), 2000))
        b = ChainSum(rng.sample(range(1, 10**6), 2000))
        t0 = time.perf_counter()
        p = a * b
        assert time.perf_counter() - t0 < 0.5
        for eps in (0, 1):
            z = to_orthogonal(a.parity_part(eps), eps) & to_orthogonal(b.parity_part(eps), eps)
            assert p.parity_part(eps) == from_orthogonal(z, eps)

    def test_closed_operations_skip_the_constructor_checks(self, monkeypatch, rng):
        pairs = [(rand_element(rng), rand_element(rng)) for _ in range(100)]
        # wide operands through the shared lcm pair loop: levels 0-6, odd
        # parts from 765765, units and nilpotents among them
        wide = [
            (rand_cycles(rng, DIVS_765765, 6, 12), rand_unit(rng, DIVS_765765, 6, 6))
            for _ in range(50)
        ]
        wide += [(x, x.even_part) for x, _ in wide]

        def refuse(self, *args):
            raise AssertionError("a closed result went through the checked constructor")

        monkeypatch.setattr(OddSet, "__init__", refuse)
        monkeypatch.setattr(ChainSum, "__init__", refuse)
        monkeypatch.setattr(CycleSum, "__init__", refuse)
        for x, y in pairs:
            for u, v in ((x, y), (x.chains, y.chains), (x.cycles, y.cycles)):
                assert u * v == v * u and u + v == v + u
            u, v = x.cycles.odd_part, y.cycles.odd_part
            assert u * v == v * u and u + v == v + u
            assert from_orthogonal(to_orthogonal(x.chains.parity_part(1), 1), 1) == x.chains.parity_part(1)
        for x, y in wide:
            assert x * y == y * x and x ** 3 == x * x * x
            u, v = x.odd_part, y.odd_part
            assert u * v == v * u and (u | v) == (v | u)

    def test_ring_laws(self, rng):
        for _ in range(500):
            x = rand_element(rng)
            y = rand_element(rng)
            z = rand_element(rng)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
        assert x * Element.one() == x


class TestOrthogonalBasis:
    def test_l5(self):
        assert sorted(ones(to_orthogonal(L(5), 1))) == [1, 3, 5]

    def test_l1_plus_l5(self):
        assert sorted(ones(to_orthogonal(L(1, 5), 1))) == [3, 5]

    def test_roundtrip(self, rng):
        for _ in range(200):
            eps = rng.randint(0, 1)
            a = ChainSum(
                rng.choice(range(2 - eps, 16, 2)) for _ in range(rng.randint(0, 5))
            )
            assert from_orthogonal(to_orthogonal(a, eps), eps) == a

    def test_mixed_parity_rejected(self):
        with pytest.raises(ValueError):
            to_orthogonal(L(1, 2), 1)

    def test_orthogonal_idempotents(self):
        for eps in (0, 1):
            base = 2 - eps
            idxs = list(range(base, 16, 2))
            for i in idxs:
                for j in idxs:
                    want = Z(i, eps) if i == j else ChainSum()
                    assert Z(i, eps) * Z(j, eps) == want


def brute_chain_solutions(a, b, universe):
    sols = set()
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            x = ChainSum(combo)
            if a * x == b:
                sols.add(x)
    return sols


class TestDivideChains:
    def test_interval_with_free_tail(self):
        d = divide_chains(L(3), L(1), 1)
        assert d.kind == "interval" and d.lo == d.hi == L(1) and d.free_tail
        members = set(d.members(5))
        assert members == {L(1), L(1, 3, 5)}
        for x in members:
            assert L(3) * x == L(1)

    def test_self_division_contains_self(self, rng):
        for _ in range(100):
            eps = rng.randint(0, 1)
            a = ChainSum(
                rng.choice(range(2 - eps, 12, 2)) for _ in range(rng.randint(1, 4))
            )
            if not a:
                continue
            d = divide_chains(a, a, eps)
            assert d.contains(a)

    def test_taller_target_unsolvable(self):
        assert divide_chains(L(1), L(3), 1).kind == "empty"

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            divide_chains(ChainSum(), L(1), 1)

    def test_completeness_odd_chains_up_to_9(self):
        universe = (1, 3, 5, 7, 9)
        subsets = [
            ChainSum(c)
            for r in range(len(universe) + 1)
            for c in itertools.combinations(universe, r)
        ]
        for a in subsets:
            if not a:
                continue
            for b in subsets:
                brute = brute_chain_solutions(a, b, universe)
                d = divide_chains(a, b, 1)
                mine = {x for x in d.members(9)}
                assert mine == brute, (str(a), str(b))
                for x in subsets:
                    assert d.contains(x) == (a * x == b)


def converting_contains(cd: ChainDivision, x: ChainSum) -> bool:
    """``ChainDivision.contains`` on the bounds read as chain sums and
    converted to Z masks on every call: the reference for the masks."""
    if not x.is_pure(cd.parity):
        return False
    if cd.kind == "all":
        return True
    if cd.kind == "empty":
        return False
    zx = to_orthogonal(x, cd.parity)
    head = zx & ((2 << cd.cutoff) - 1)
    if not cd.free_tail and head != zx:
        return False
    zlo, zhi = to_orthogonal(cd.lo, cd.parity), to_orthogonal(cd.hi, cd.parity)
    return not (zlo & ~head or head & ~zhi)


def converting_members(cd: ChainDivision, max_height: int):
    """``ChainDivision.members`` on the bounds converted per call."""
    if cd.kind == "empty":
        return
    base = 2 - cd.parity
    lo = free = 0
    first = base
    if cd.kind == "interval":
        lo, hi = to_orthogonal(cd.lo, cd.parity), to_orthogonal(cd.hi, cd.parity)
        if lo & ~hi or lo >> max_height + 1:
            return
        free = hi & ~lo & ((2 << max_height) - 1)
        first = cd.cutoff + 1 + (base - cd.cutoff - 1) % 2
    tail = range(first, max_height + 1, 2) if cd.free_tail else ()
    for z in submasks(lo, itertools.chain(tail, ones(free))):
        yield from_orthogonal(z, cd.parity)


class TestChainDivisionMasks:
    def test_masks_answer_as_the_converted_bounds(self):
        seen = set()
        for eps in (0, 1):
            lengths = range(2 - eps, 9, 2)
            sums = [ChainSum(c) for r in range(5) for c in itertools.combinations(lengths, r)]
            probes = [ChainSum(c) for r in range(6) for c in itertools.combinations(range(2 - eps, 11, 2), r)]
            probes += [L(1, 2), L(3, 4, 5)]
            masks = [to_orthogonal(a, eps) for a in sums]
            for za, zb, t, scale in itertools.product(masks, masks, (0, 1), (0, 1)):
                cd = _chain_branch(za, zb, eps, t, scale)
                seen.add((cd.kind, cd.free_tail))
                if cd.kind == "interval":
                    assert (to_orthogonal(cd.lo, eps), to_orthogonal(cd.hi, eps)) == (cd.zlo, cd.zhi)
                else:
                    assert cd.lo is None and cd.hi is None
                for x in probes:
                    assert cd.contains(x) == converting_contains(cd, x)
                for max_height in {0, 3, cd.cutoff, cd.cutoff + 1, 10}:
                    assert list(cd.members(max_height)) == list(converting_members(cd, max_height))
        assert seen >= {("all", True), ("empty", True), ("interval", True), ("interval", False)}


class TestDivideFull:
    def test_identity_divisor(self, rng):
        for _ in range(50):
            b = rand_element(rng)
            sols = divide_full(Element.one(), b)
            assert sols.solvable
            assert sols.contains(b)
            t = odd_cycle_parity(b.cycles)
            assert sols.branches[t].nonempty
            assert not sols.branches[1 - t].contains(b)

    def test_pure_chain_division(self):
        a = elem(chains=L(1))
        sols = divide_full(a, a)
        assert sols.solvable and sols.contains(a)

    def test_mixed_unsolvable_case(self):
        a = elem(chains=L(2), cycles=C(3))
        b = elem(chains=L(2))
        sols = divide_full(a, b)
        assert not sols.solvable
        space = oracle.SearchSpace(k=3, max_level=1, max_chain=4)
        assert oracle.exhaustive_divide(a, b, space) == frozenset()

    def test_membership_matches_multiplication(self, rng):
        for _ in range(2000):
            a = rand_element(rng, parts=(1, 3, 5), levels=1, max_chain=4)
            x = rand_element(rng, parts=(1, 3, 5), levels=1, max_chain=4)
            b = a * x
            sols = divide_full(a, b)
            assert sols.solvable
            assert sols.contains(x)
            y = rand_element(rng, parts=(1, 3, 5), levels=1, max_chain=4)
            assert sols.contains(y) == (a * y == b)

    def test_parity_coupling(self, rng):
        # whenever a has chains, a solution's cycle part scales them by the
        # parity of its odd-cycle count
        for _ in range(500):
            a = rand_element(rng, parts=(1, 3, 5), levels=1, max_chain=4)
            x = rand_element(rng, parts=(1, 3, 5), levels=1, max_chain=4)
            t = odd_cycle_parity(x.cycles)
            for eps in (0, 1):
                a_eps = a.chains.parity_part(eps)
                if not a_eps:
                    continue
                lhs = elem(chains=a_eps) * elem(cycles=x.cycles)
                want = elem(chains=a_eps) if t else elem()
                assert lhs == want


class TestDivideFullRestricted:
    def test_identity(self):
        a = Element.one()
        b = elem(cycles=C(3))
        sols = list(divide_full_restricted(a, b, 3))
        assert sols == [b]

    def test_even_cycle_chain_mix(self):
        a = elem(chains=L(1), cycles=C(2))
        b = elem(chains=L(1))
        sols = set(divide_full_restricted(a, b, 1, max_level=1, max_height=3))
        assert elem(chains=L(1)) in sols
        for x in sols:
            assert a * x == b
        space = oracle.SearchSpace(k=1, max_level=1, max_chain=3)
        assert sols == set(oracle.exhaustive_divide(a, b, space))

    def test_matches_oracle_on_random_pairs(self, rng):
        space = oracle.SearchSpace(k=15, max_level=1, max_chain=4)
        for _ in range(60):
            a = rand_element(rng, parts=(1, 3, 5, 15), levels=1, max_chain=4)
            b = rand_element(rng, parts=(1, 3, 5, 15), levels=1, max_chain=4)
            mine = set(divide_full_restricted(a, b, 15, max_level=1, max_height=4))
            want = oracle.exhaustive_divide(a, b, space)
            assert mine == want, (str(a), str(b))

    def test_solutions_of_products_found(self, rng):
        space = oracle.SearchSpace(k=15, max_level=1, max_chain=4)
        for _ in range(60):
            a = rand_element(rng, parts=(1, 3, 5, 15), levels=1, max_chain=4)
            x = rand_element(rng, parts=(1, 3, 5, 15), levels=1, max_chain=4)
            b = a * x
            mine = set(divide_full_restricted(a, b, 15, max_level=1, max_height=4))
            assert x in mine

    def test_unsound_modulus_rejected(self):
        with pytest.raises(ValueError):
            list(divide_full_restricted(elem(cycles=C(7)), elem(cycles=C(7)), 15))

    def test_arising_intervals_split_cleanly(self, rng):
        # the two parity pieces of each per-level interval of a solvable
        # division partition its members inside the 15-divisor algebra
        from cyclechain.cycles import OddSet
        from cyclechain.division import solve
        from cyclechain.lattice import BoolElem, Interval, divisor_lattice

        from algebra_reference import interval_parity_split

        lat = divisor_lattice(15)
        seen = 0
        while seen < 100:
            a = rand_cycles(rng, parts=(1, 3, 5, 15), levels=1)
            b = a * rand_cycles(rng, parts=(1, 3, 5, 15), levels=1)
            sol = solve(a, b)
            if not sol.solvable:
                continue
            seen += 1
            for i in range(sol.n + 1):
                lo, hi = sol.level_interval(i)
                iv = Interval(BoolElem(lat, lo.lengths), BoolElem(lat, hi.lengths))
                if iv.is_empty:
                    continue
                even, odd = interval_parity_split(iv, lat.bottom)
                members = set(iv.members())
                even_members = set(even.members()) if not even.is_empty else set()
                odd_members = set(odd.members()) if not odd.is_empty else set()
                assert even_members | odd_members == members
                assert not (even_members & odd_members)
                for m in members:
                    parity = len(OddSet(m.support())) & 1
                    assert (m in odd_members) == (parity == 1)


elements = st.builds(
    Element,
    chains=st.builds(
        ChainSum, st.frozensets(st.integers(min_value=1, max_value=9), max_size=4)
    ),
    cycles=st.builds(
        CycleSum.from_lengths,
        st.lists(st.integers(min_value=1, max_value=30), max_size=4),
    ),
)


@settings(max_examples=200)
@given(elements, elements, elements)
def test_element_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + x == Element.zero()
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * Element.one() == x
    assert x * Element.zero() == Element.zero()


class TestElementPowers:
    def test_powers_equal_repeated_products(self, rng):
        # x^4 = x^2 holds with chains too: the folded power equals the
        # plain product loop
        for _ in range(300):
            x = rand_element(rng, chain_terms=3)
            power = Element.one()
            for n in range(12):
                assert x ** n == power, (str(x), n)
                power = power * x

    def test_huge_exponent_takes_few_products(self, monkeypatch):
        calls = []
        mul = Element.__mul__

        def counted(self, other):
            calls.append(1)
            if len(calls) > 10:
                raise AssertionError("the exponent was not folded")
            return mul(self, other)

        monkeypatch.setattr(Element, "__mul__", counted)
        x = Element(ChainSum([3, 4]), C(3) + C(6))
        power = x ** 10**18
        assert len(calls) <= 3
        assert power == mul(x, x)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Element.one() ** -1


@settings(max_examples=150)
@given(elements, elements)
def test_pure_cycle_membership_agrees_across_modules(x, y):
    from cyclechain.division import membership, solve

    a = Element.from_cycles(x.cycles)
    b = Element.from_cycles(y.cycles)
    sols = divide_full(a, b)
    sol = solve(x.cycles, y.cycles)
    probe = Element.from_cycles((x + y).cycles)
    assert sols.contains(probe) == membership(sol, probe.cycles)


class TestBranchFlags:
    def test_solvable_iff_window_enumeration_nonempty(self, rng):
        # branch emptiness is decided in the unrestricted algebra, but any
        # nonempty branch has a witness inside every sound window
        for _ in range(300):
            a = rand_element(rng, parts=(1, 3, 5, 15), levels=1, max_chain=4)
            b = rand_element(rng, parts=(1, 3, 5, 15), levels=1, max_chain=4)
            sols = divide_full(a, b)
            height = max(
                (br.cutoff for branch in sols.branches for br in branch.chains),
                default=0,
            )
            listed = list(
                divide_full_restricted(a, b, 15, max_level=1, max_height=height)
            )
            assert sols.solvable == bool(listed), (str(a), str(b))


class TestZeroDivisor:
    def test_zero_divides_only_zero(self, rng):
        zero = Element.zero()
        sols = divide_full(zero, zero)
        assert sols.solvable
        for _ in range(50):
            assert sols.contains(rand_element(rng))
        b = elem(cycles=C(3))
        assert not divide_full(zero, b).solvable

    def test_zero_division_window_is_everything(self):
        got = set(divide_full_restricted(Element.zero(), Element.zero(), 3,
                                         max_level=0, max_height=2))
        assert len(got) == 2 ** 4  # {C1,C3} x {L1,L2} subsets


class TestLargerWindow:
    def test_divisors_of_45_with_chains(self, rng):
        space = oracle.SearchSpace(k=45, max_level=1, max_chain=3)
        pool = [q << i for q in (1, 3, 5, 9, 15, 45) for i in (0, 1)]

        def rnd():
            cyc = [q for q in pool if rng.random() < 0.2]
            ch = [d for d in (1, 2, 3) if rng.random() < 0.3]
            return Element(chains=ChainSum(ch), cycles=CycleSum.from_lengths(cyc))

        for i in range(15):
            a, b = rnd(), rnd()
            if i % 3 == 0:
                maybe = a * rnd()
                if (
                    all(d <= 3 for d in maybe.chains.lengths)
                    and maybe.cycles
                    == maybe.cycles.restrict_div(45).restrict_level(1)
                ):
                    b = maybe
            mine = set(
                divide_full_restricted(a, b, 45, max_level=1, max_height=3)
            )
            assert mine == oracle.exhaustive_divide(a, b, space)


class TestOracleAgreement:
    def test_products_match_explicit_digraphs(self, rng):
        for _ in range(200):
            a = rand_element(rng, parts=(1, 3, 5), levels=2, max_chain=5)
            b = rand_element(rng, parts=(1, 3, 5), levels=2, max_chain=5)
            explicit = oracle.mod2(
                oracle.decompose(
                    oracle.product(
                        oracle.digraph_from_element(a),
                        oracle.digraph_from_element(b),
                    )
                )
            )
            assert a * b == explicit
