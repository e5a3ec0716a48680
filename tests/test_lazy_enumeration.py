"""Lazy enumeration in atom coordinates against the eager enumerators.

The ``ref_*`` functions are the interval enumerators the lazy ones
replaced: every member of every level is built as an ``Interval`` of
``BoolElem`` values over ``divisor_lattice(k)`` before the first solution
is emitted, and chain Z-coordinates are sets of indices.  The lazy code
must yield the same solutions in the same order.  ``scan_is_reachable`` is
the cubic reachability test that the per-atom closed form replaced: it
walks every level-0 candidate of the joint modulus in atom coordinates.
"""

import itertools
import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclechain import oracle
from cyclechain.chains import (
    ChainDivision,
    _chain_branch,
    ChainSum,
    Element,
    divide_chains,
    divide_full,
    divide_full_restricted,
    from_orthogonal,
    odd_cycle_parity,
    to_orthogonal,
)
from cyclechain.cycles import ODD_ONE, CycleSum, OddSet
from cyclechain.division import (
    _solve_sets,
    enumerate_restricted,
    lazy_product,
    odd_members,
    solve,
)
from cyclechain.lattice import (
    MAX_BIT_DIVISORS,
    BoolElem,
    Interval,
    divisor_lattice,
    divisors,
    interval_parity_split,
    ones,
    submasks,
    window_bits,
)
from cyclechain.poly import CubicPoly, eval_poly, is_reachable

WIDE = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))
# most free atoms a level may have in a differential test: the reference
# builds all 2**free members of every level at once
MAX_REF_FREE = 10


# ---------------------------------------------------------------- reference


def ref_members(lat, lo: OddSet, hi: OddSet) -> list[OddSet]:
    iv = Interval(BoolElem(lat, lo.lengths), BoolElem(lat, hi.lengths))
    return [OddSet(m.support()) for m in iv.members()]


def ref_enumerate_restricted(sol, k, n):
    if not sol.solvable:
        return
    lat = divisor_lattice(k)
    per_level = [ref_members(lat, *sol.level_interval(i)) for i in range(n + 1)]

    def emit(level, acc):
        if level > n:
            yield CycleSum(acc)
            return
        for choice in per_level[level]:
            if choice:
                acc[level] = choice
            yield from emit(level + 1, acc)
            acc.pop(level, None)

    yield from emit(0, {})


def ref_level0_parity_members(sol, k, t):
    lat = divisor_lattice(k)
    iv = Interval(BoolElem(lat, sol.lambda0.lengths), BoolElem(lat, sol.upsilon0.lengths))
    if iv.is_empty:
        return []
    even, odd = interval_parity_split(iv, lat.bottom)
    part = odd if t == 1 else even
    if part.is_empty:
        return []
    return [OddSet(m.support()) for m in part.members()]


def ref_to_orthogonal(a: ChainSum, eps: int) -> frozenset[int]:
    """Z-coordinates of a pure-parity chain sum as a set of indices: index i
    carries the parity of the number of chains of length >= i."""
    if not a.is_pure(eps):
        raise ValueError(f"chain sum {a} is not purely of parity {eps}")
    out = set()
    for d in a.lengths:
        base = 2 - eps
        out ^= set(range(base, d + 1, 2))
    return frozenset(out)


def ref_from_orthogonal(indices, eps: int) -> ChainSum:
    """Inverse of ``ref_to_orthogonal``: chain length j appears iff exactly
    one of the coordinates j, j + 2 is set."""
    idx = frozenset(indices)
    for i in idx:
        if i < 1 or i & 1 != eps & 1:
            raise ValueError(f"coordinate {i} does not have parity {eps}")
    base = 2 - (eps & 1)
    out = set()
    for j in range(base, max(idx, default=0) + 1, 2):
        if (j in idx) != (j + 2 in idx):
            out.add(j)
    return ChainSum(out)


def ref_chain_members(cd: ChainDivision, max_height):
    if cd.kind == "empty":
        return
    base = 2 - cd.parity
    if cd.kind == "all":
        coords = list(range(base, max_height + 1, 2))
        for bits in range(1 << len(coords)):
            yield ref_from_orthogonal(
                [coords[t] for t in range(len(coords)) if bits >> t & 1], cd.parity
            )
        return
    zlo = ref_to_orthogonal(cd.lo, cd.parity)
    zhi = ref_to_orthogonal(cd.hi, cd.parity)
    if not zlo <= zhi:
        return
    free = sorted(zhi - zlo)
    tail = []
    if cd.free_tail:
        tail = [i for i in range(cd.cutoff + 1, max_height + 1) if i % 2 == base % 2]
    for bits in range(1 << len(free)):
        head = set(zlo)
        head.update(free[t] for t in range(len(free)) if bits >> t & 1)
        for tbits in range(1 << len(tail)):
            coords = set(head)
            coords.update(tail[t] for t in range(len(tail)) if tbits >> t & 1)
            x = ref_from_orthogonal(coords, cd.parity)
            if x.height <= max_height:
                yield x


def ref_cycle_members(branch, k, max_level):
    lat = divisor_lattice(k)
    if branch.free:
        all_sets = [
            OddSet(d for t, d in enumerate(lat.elements) if bits >> t & 1)
            for bits in range(1 << len(lat.elements))
        ]
        for choice in itertools.product(all_sets, repeat=max_level + 1):
            x = CycleSum({i: c for i, c in enumerate(choice) if c})
            if odd_cycle_parity(x) == branch.t:
                yield x
        return
    sol = branch.sol
    if sol is None or not sol.solvable:
        return
    for i in range(max_level + 1, sol.n + 1):
        if sol.level_interval(i)[0]:
            return
    pools = [ref_level0_parity_members(sol, k, branch.t)]
    pools += [ref_members(lat, *sol.level_interval(i)) for i in range(1, max_level + 1)]
    for choice in itertools.product(*pools):
        yield CycleSum({i: c for i, c in enumerate(choice) if c})


def ref_divide_full_restricted(a, b, k, max_level, max_height):
    sols = divide_full(a, b)
    for branch in sols.branches:
        if not branch.nonempty:
            continue
        even = list(ref_chain_members(branch.chains[0], max_height))
        odd = list(ref_chain_members(branch.chains[1], max_height))
        if not even or not odd:
            continue
        for xc in ref_cycle_members(branch.cycle, k, max_level):
            for xe in even:
                for xo in odd:
                    yield Element(chains=xe + xo, cycles=xc)


def ref_is_reachable(p, s):
    r = s + p.d
    r0 = r.odd_part
    e = (p.a + p.b + p.c).odd_part
    if e * r0 != r0:
        return False
    a0, c0 = p.a.odd_part, p.c.odd_part
    drift = (p.a + p.b + p.c).even_part
    lat = divisor_lattice(_restriction_modulus(p, r))
    for x0 in ref_members(lat, r0, e + r0 + ODD_ONE):
        mu = a0 * x0 + c0
        tau = r.even_part + drift * x0.as_cycles()
        if all(mu * ti == ti for _, ti in tau.items()):
            return True
    return False


def _restriction_modulus(p, extra):
    k = 1
    for part in (*p.coefficients(), extra):
        k = math.lcm(k, part.stats()[0])
    return k


def scan_is_reachable(p, s):
    r = s + p.d
    r0 = r.odd_part
    e = (p.a + p.b + p.c).odd_part
    if e * r0 != r0:
        return False
    a0 = p.a.odd_part
    c0 = p.c.odd_part
    drift = (p.a + p.b + p.c).even_part
    bits = window_bits(_restriction_modulus(p, r))
    R0, E, A0, C0 = (bits.encode(x.lengths) for x in (r0, e, a0, c0))
    # level i of tau = r.even_part + drift * x0 is ri ^ (di & x0)
    levels = {i for i, _ in r.even_part.items()} | {i for i, _ in drift.items()}
    tau = [(bits.encode(r.level(i).lengths), bits.encode(drift.level(i).lengths)) for i in levels]
    for x0 in bits.members(R0, E ^ R0 ^ bits.top):
        mu = (A0 & x0) ^ C0
        if all(not (ri ^ (di & x0)) & ~mu for ri, di in tau):
            return True
    return False


# ---------------------------------------------------------------- strategies


def cycle_sums(parts, levels, max_terms=6):
    return st.lists(
        st.tuples(st.sampled_from(parts), st.integers(0, levels)), max_size=max_terms
    ).map(lambda ts: CycleSum.from_lengths(q << i for q, i in ts))


def odd_sets(parts, max_terms=8):
    return st.lists(st.sampled_from(parts), max_size=max_terms).map(lambda qs: OddSet(set(qs)))


def chain_sums(max_len=6, max_terms=3):
    return st.lists(st.integers(1, max_len), max_size=max_terms).map(ChainSum)


def free_atoms(k, lo: OddSet, hi: OddSet) -> int:
    bits = window_bits(k)
    return (bits.encode(hi.lengths) & ~bits.encode(lo.lengths)).bit_count()


def small_window(sol, k, n) -> bool:
    return all(free_atoms(k, *sol.level_interval(i)) <= MAX_REF_FREE for i in range(n + 1))


CYCLE_WINDOWS = [(1, 2), (3, 1), (15, 1), (45, 1), (105, 0), (315, 0), (3465, 0)]
MIXED_WINDOWS = [(1, 1), (3, 1), (15, 1), (45, 0), (105, 0)]


def take(it, m=600):
    return list(itertools.islice(it, m))


# ---------------------------------------------------------------- tests


class TestLazyProduct:
    def test_matches_itertools_product(self):
        pools = [[1, 2], [], [3]]
        for shape in ([0], [0, 2], [2, 0, 2], [0, 0, 0]):
            factors = [lambda p=pools[i]: iter(p) for i in shape]
            want = list(itertools.product(*(pools[i] for i in shape)))
            assert list(lazy_product(factors)) == want
        assert list(lazy_product([])) == [()]

    def test_empty_factor_ends_before_the_outer_factor_moves(self):
        pulled = []

        def outer():
            for v in range(10**9):
                pulled.append(v)
                yield v

        assert list(lazy_product([outer, lambda: iter(())])) == []
        assert pulled == [0]

    def test_deep_products_need_no_recursion(self):
        factors = [lambda: iter((0, 1))] * 20_000
        first, second = itertools.islice(lazy_product(factors), 2)
        assert first == (0,) * 20_000
        assert second == (0,) * 19_999 + (1,)


class TestMembersDifferential:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 15, 45, 315, 3465]), st.data())
    def test_divisor_bits_members_keep_interval_order(self, k, data):
        divs = divisors(k)
        hi = data.draw(odd_sets(divs))
        lo = hi * data.draw(odd_sets(divs)) if data.draw(st.booleans()) else data.draw(odd_sets(divs))
        assume(free_atoms(k, lo, hi) <= MAX_REF_FREE)
        bits = window_bits(k)
        mine = [OddSet(bits.decode(x)) for x in bits.members(bits.encode(lo.lengths), bits.encode(hi.lengths))]
        assert mine == ref_members(divisor_lattice(k), lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(CYCLE_WINDOWS), st.integers(0, 1), st.data())
    def test_level0_parity_members(self, window, t, data):
        k, n = window
        a = data.draw(cycle_sums(divisors(k), n))
        b = a * data.draw(cycle_sums(divisors(k), n))
        sol = solve(a, b)
        assume(small_window(sol, k, 0))
        bits = window_bits(k)
        lo, hi = (bits.encode(e.lengths) for e in (sol.lambda0, sol.upsilon0))
        mine = list(odd_members(bits, lo, hi, t)())
        assert mine == ref_level0_parity_members(sol, k, t)
        assert all(m.parity == t for m in mine)


class TestEnumeratorsDifferential:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(CYCLE_WINDOWS), st.data())
    def test_enumerate_restricted_same_sequence(self, window, data):
        k, n = window
        a = data.draw(cycle_sums(divisors(k), n))
        y = data.draw(cycle_sums(divisors(k), n))
        b = a * y if data.draw(st.booleans()) else y
        sol = solve(a, b)
        assume(small_window(sol, k, n))
        assert take(enumerate_restricted(sol, k, n)) == take(ref_enumerate_restricted(sol, k, n))

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(MIXED_WINDOWS), st.integers(0, 7), st.booleans(), st.data())
    def test_divide_full_restricted_same_sequence(self, window, max_height, free, data):
        # free: no cycle part in the divisor, the branch listing every subset
        k, max_level = window
        divs = divisors(k)
        cycles = CycleSum.zero() if free else data.draw(cycle_sums(divs, max_level, 3))
        a = Element(chains=data.draw(chain_sums()), cycles=cycles)
        x = Element(chains=data.draw(chain_sums()), cycles=data.draw(cycle_sums(divs, max_level, 3)))
        b = a * x if data.draw(st.booleans()) else x
        mine = take(divide_full_restricted(a, b, k, max_level=max_level, max_height=max_height))
        want = take(ref_divide_full_restricted(a, b, k, max_level, max_height))
        assert mine == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1), chain_sums(), chain_sums(), st.booleans(), st.integers(0, 14))
    def test_chain_members_same_sequence(self, eps, a, b, planted, max_height):
        a, b = a.parity_part(eps), b.parity_part(eps)
        if not a:
            return
        cd = divide_chains(a, a * b if planted else b, eps)
        assert take(cd.members(max_height), 2000) == take(ref_chain_members(cd, max_height), 2000)

    def test_chain_members_every_small_interval(self):
        # both tail kinds, every height bound of either parity near the cutoff
        for eps in (0, 1):
            lengths = range(2 - eps, 9, 2)
            sums = [ChainSum(c) for r in range(5) for c in itertools.combinations(lengths, r)]
            for a in sums[1:]:
                for b in sums:
                    for cd in (divide_chains(a, b, eps), _chain_branch(a, b, eps, 0, 1)):
                        for max_height in range(10):
                            assert list(cd.members(max_height)) == list(ref_chain_members(cd, max_height))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(1, 1, 6), (3, 1, 4), (15, 0, 4), (15, 1, 4)]), st.booleans(), st.data())
    def test_divide_full_restricted_equals_exhaustive(self, window, free, data):
        k, n, h = window
        space = oracle.SearchSpace(k=k, max_level=n, max_chain=h)
        assert space.size() <= 1 << 12
        divs = divisors(k)
        cycles = CycleSum.zero() if free else data.draw(cycle_sums(divs, n, 3))
        a = Element(chains=data.draw(chain_sums(h)), cycles=cycles)
        x = Element(chains=data.draw(chain_sums(h)), cycles=data.draw(cycle_sums(divs, n, 3)))
        b = a * x if data.draw(st.booleans()) else x
        mine = list(divide_full_restricted(a, b, k, max_level=n, max_height=h))
        assert len(mine) == len(set(mine))
        assert set(mine) == oracle.exhaustive_divide(a, b, space)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_is_reachable(self, data):
        parts = divisors(315)
        coeffs = [data.draw(cycle_sums(parts, 2, 4)) for _ in range(4)]
        p = CubicPoly(*coeffs)
        s = data.draw(cycle_sums(parts, 2, 4))
        r0, e = (s + p.d).odd_part, (p.a + p.b + p.c).odd_part
        if e * r0 == r0:
            assume(free_atoms(_restriction_modulus(p, s + p.d), r0, e + r0 + ODD_ONE) <= MAX_REF_FREE)
        assert is_reachable(p, s) == ref_is_reachable(p, s) == scan_is_reachable(p, s)


class TestWindowOnTheSolutionLayout:
    """A window on the modulus of the solution's layout lists the stored
    masks as they are; a window on a proper multiple maps every endpoint
    into its own layout.  Both list the eager reference's sequence, and
    the set-path solution (held as OddSets) lists the same."""

    # (modulus, levels, prime that makes a proper multiple)
    WINDOWS = [(1, 2, 3), (3, 1, 5), (15, 1, 7), (45, 1, 7), (105, 0, 11), (315, 0, 3)]

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(WINDOWS), st.booleans(), st.data())
    def test_enumerate_restricted(self, window, multiple, data):
        m, n, p = window
        a = data.draw(cycle_sums(divisors(m), n))
        y = data.draw(cycle_sums(divisors(m), n))
        b = a * y if data.draw(st.booleans()) else y
        sol = solve(a, b)
        assume(sol.bits is not None)
        k = sol.bits.k * p if multiple else sol.bits.k
        assume(small_window(sol, k, n))
        mine = take(enumerate_restricted(sol, k, n))
        assert mine == take(ref_enumerate_restricted(sol, k, n))
        assert mine == take(enumerate_restricted(_solve_sets(a, b, sol.n), k, n))

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(WINDOWS), st.booleans(), st.integers(0, 6), st.data())
    def test_divide_full_restricted(self, window, multiple, max_height, data):
        m, max_level, p = window
        divs = divisors(m)
        a = Element(chains=data.draw(chain_sums()), cycles=data.draw(cycle_sums(divs, max_level, 3)))
        x = Element(chains=data.draw(chain_sums()), cycles=data.draw(cycle_sums(divs, max_level, 3)))
        b = a * x if data.draw(st.booleans()) else x
        k = math.lcm(a.cycles.stats()[0], b.cycles.stats()[0])
        if multiple:
            k *= p
        sol = solve(a.cycles, b.cycles) if a.cycles else None
        assume(sol is None or small_window(sol, k, max_level))
        mine = take(divide_full_restricted(a, b, k, max_level=max_level, max_height=max_height))
        assert mine == take(ref_divide_full_restricted(a, b, k, max_level, max_height))


class TestReachability:
    @pytest.mark.parametrize("k", [15, 45, 105, 1155])
    def test_closed_form_against_the_scan(self, k):
        rng = random.Random(k)
        parts = divisors(k)

        def sums(terms):
            return CycleSum.from_lengths(rng.choice(parts) << rng.randint(0, 2) for _ in range(terms))

        hits = 0
        for _ in range(200):
            p = CubicPoly(*(sums(rng.randint(0, 4)) for _ in range(4)))
            s = sums(rng.randint(0, 4)) if rng.random() < 0.5 else eval_poly(p, sums(4))
            hits += is_reachable(p, s)
            assert is_reachable(p, s) == scan_is_reachable(p, s), (p, s)
        assert 40 < hits < 160

    @pytest.mark.parametrize("k, free", [(1155, 16), (15015, 32)])
    def test_every_atom_free(self, k, free):
        # r0 = 0 and e = C1 leave every atom free at level 0, and the
        # target is unreachable, so a scan would visit all 2**free candidates
        p = CubicPoly(CycleSum.zero(), CycleSum.one(), CycleSum.zero(), CycleSum.zero())
        s = CycleSum.from_lengths([2, 2 * k])
        assert len(divisors(k)) == free
        t0 = time.perf_counter()
        assert not is_reachable(p, s)
        assert time.perf_counter() - t0 < 0.05
        if free <= 16:
            assert not scan_is_reachable(p, s)
        assert is_reachable(p, CycleSum.from_lengths([1, k]))


def pure_chain_sums(eps, max_len=40, max_terms=5):
    return st.lists(st.integers(0, (max_len - 1) // 2), max_size=max_terms).map(
        lambda ts: ChainSum(2 * t + 2 - eps for t in ts)
    )


class TestChainMasks:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1), st.data())
    def test_mask_and_set_coordinates_agree(self, eps, data):
        a = data.draw(pure_chain_sums(eps))
        z = to_orthogonal(a, eps)
        assert sorted(ones(z)) == sorted(ref_to_orthogonal(a, eps))
        coords = data.draw(st.sets(st.integers(0, 30).map(lambda t: 2 * t + 2 - eps)))
        mask = sum(1 << i for i in coords)
        assert from_orthogonal(mask, eps) == ref_from_orthogonal(coords, eps)
        assert from_orthogonal(z, eps) == a

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1), st.data())
    def test_wrong_parity_coordinates_rejected(self, eps, data):
        coords = data.draw(st.sets(st.integers(0, 30).map(lambda t: 2 * t + 2 - eps)))
        bad = data.draw(st.sampled_from([0]) | st.integers(0, 30).map(lambda t: 2 * t + 1 + eps))
        mask = sum(1 << i for i in coords | {bad})
        with pytest.raises(ValueError, match="parity"):
            ref_from_orthogonal(coords | {bad}, eps)
        with pytest.raises(ValueError, match=f"coordinate {bad} "):
            from_orthogonal(mask, eps)
        with pytest.raises(ValueError):
            from_orthogonal(-1 - mask, eps)


class TestSubmasks:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1 << 12), st.lists(st.integers(0, 40), unique=True, max_size=8))
    def test_order_of_a_plain_counter(self, lo, positions):
        lo &= ~sum(1 << p for p in positions)
        want = [lo | sum(1 << positions[t] for t in ones(c)) for c in range(1 << len(positions))]
        assert list(submasks(lo, positions)) == want
        assert list(submasks(0, range(len(positions)))) == list(range(1 << len(positions)))

    def test_positions_read_only_when_reached(self):
        read = []

        def positions():
            for p in itertools.count():
                read.append(p)
                yield p

        assert take(submasks(0, positions()), 9) == list(range(9))
        assert read == [0, 1, 2, 3]


class TestWindowBounds:
    def test_too_many_divisors_fails_before_work(self):
        assert len(divisors(WIDE)) > MAX_BIT_DIVISORS
        with pytest.raises(ValueError, match="divisors"):
            window_bits(WIDE)
        sol = solve(CycleSum.single(3), CycleSum.single(3))
        with pytest.raises(ValueError, match="divisors"):
            next(enumerate_restricted(sol, WIDE, 0))
        one = Element.one()
        with pytest.raises(ValueError, match="divisors"):
            next(divide_full_restricted(one, one, WIDE))

    def test_deep_level_bound(self):
        c3 = CycleSum.single(3)
        assert next(enumerate_restricted(solve(c3, c3), 3, 5000)) == c3
        a = Element(chains=ChainSum([1]), cycles=c3)
        first = next(divide_full_restricted(a, a, 3, max_level=5000))
        assert a * first == a

    def test_tail_coordinates_are_not_listed(self):
        t0 = time.perf_counter()
        cd = divide_chains(ChainSum([1]), ChainSum([1]), 1)
        first = take(cd.members(10**8), 8)
        assert time.perf_counter() - t0 < 5
        assert first == take(ref_chain_members(cd, 15), 8)

    def test_chain_solution_cost_does_not_grow_with_height(self):
        a = Element(chains=ChainSum([100001]), cycles=CycleSum.from_lengths([3, 5]))
        t0 = time.perf_counter()
        sols = take(divide_full_restricted(a, a, 15), 200)
        assert time.perf_counter() - t0 < 2
        assert len(sols) == len(set(sols)) == 200

    def test_negative_bounds_rejected(self):
        a = Element(chains=ChainSum([1]), cycles=CycleSum.single(3))
        with pytest.raises(ValueError, match=">= 0"):
            next(divide_full_restricted(a, a, 3, max_level=-1))
        with pytest.raises(ValueError, match=">= 0"):
            next(divide_full_restricted(a, a, 3, max_height=-1))
