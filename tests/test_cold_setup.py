"""Lattice construction and ``CycleSum.from_lengths`` against their
element-at-a-time originals.

``ref_lattice`` is the ``FiniteLattice`` constructor that checked
associativity one triple at a time and found covers by scanning every pair
below an element; ``ref_from_leq`` closed a relation on a boolean matrix
and scanned the lower bounds for each meet; ``ref_from_lengths`` folded
parity through one set per length and checked every odd part again in
``OddSet``.  The new code must derive the same tables and order data,
raise the same ``ValueError`` text for the same first failing element,
and build no larger frozensets.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclechain.cycles import CycleSum, split_length
from cyclechain.lattice import (
    FiniteLattice,
    atom_for,
    divisor_lattice,
    divisors,
    semilattice_algebra,
)

# ---------------------------------------------------------------- reference


def ref_lattice(elements, meet):
    """The checks and derived data of the triple-loop constructor:
    (meet table, leq, top, bottom, descending order, covers)."""
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise ValueError("lattice needs at least one element")
    if len(set(elements)) != n:
        raise ValueError("duplicate lattice elements")
    index = {e: i for i, e in enumerate(elements)}
    if callable(meet):
        lookup = meet
    else:
        table = dict(meet)

        def lookup(a, b, _t=table):
            if (a, b) in _t:
                return _t[(a, b)]
            return _t[(b, a)]

    m = [[0] * n for _ in range(n)]
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            v = lookup(a, b)
            if v not in index:
                raise ValueError(f"meet({a!r}, {b!r}) = {v!r} not in ground set")
            m[i][j] = index[v]
    for i in range(n):
        if m[i][i] != i:
            raise ValueError(f"meet not idempotent at {elements[i]!r}")
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise ValueError(
                    f"meet not commutative at ({elements[i]!r}, {elements[j]!r})"
                )
    for i in range(n):
        for j in range(n):
            mij = m[i][j]
            for k in range(n):
                if m[mij][k] != m[i][m[j][k]]:
                    raise ValueError(
                        "meet not associative at "
                        f"({elements[i]!r}, {elements[j]!r}, {elements[k]!r})"
                    )
    leq = [[m[i][j] == i for j in range(n)] for i in range(n)]
    tops = [j for j in range(n) if all(leq[i][j] for i in range(n))]
    bottoms = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    if len(tops) != 1 or len(bottoms) != 1:
        raise ValueError("lattice must have a unique top and bottom")
    toporder = tuple(sorted(range(n), key=lambda i: (sum(leq[i]), i)))
    covers = []
    for i in range(n):
        below = [j for j in range(n) if j != i and leq[j][i]]
        cov = [j for j in below if not any(k != j and leq[j][k] for k in below)]
        covers.append(tuple(sorted(cov)))
    return m, leq, tops[0], bottoms[0], toporder, covers


def ref_join(leq, i, j):
    """The least upper bounds of i and j, from the order matrix."""
    upper = [k for k in range(len(leq)) if leq[i][k] and leq[j][k]]
    return [k for k in upper if all(leq[k][l] for l in upper)]


def ref_atom_mask(leq, toporder, li):
    """The atom at li, one chosen element at a time from the order matrix."""
    mask = 0
    for i in toporder:
        if not leq[i][li]:
            continue
        above = sum(1 for j in range(len(leq)) if mask >> j & 1 and leq[i][j] and i != j)
        if i == li or above % 2:
            mask |= 1 << i
    return mask


def ref_from_lengths(lengths):
    support = set()
    for q in lengths:
        if q < 1:
            raise ValueError(f"cycle length must be >= 1, got {q}")
        support ^= {q}
    grouped = {}
    for q in support:
        i, odd = split_length(q)
        grouped.setdefault(i, set()).add(odd)
    levels = sorted(grouped.items())
    return CycleSum._of((i, tuple(sorted(q << i for q in odds))) for i, odds in levels)


def outcome(build, *args):
    """The result of build(*args), or the text of the ValueError it raised."""
    try:
        return build(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def ref_from_leq(elements, leq_pairs):
    """``FiniteLattice.from_leq`` as it closed the relation on an n x n
    boolean matrix and found each meet by scanning the lower bounds."""
    elems = tuple(elements)
    idx = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in leq_pairs:
        leq[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_k = leq[k]
                row_i = leq[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True

    def glb(a, b):
        i, j = idx[a], idx[b]
        lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
        maximal = [k for k in lower if not any(l != k and leq[k][l] for l in lower)]
        if len(maximal) != 1:
            raise ValueError(f"no unique meet for ({a!r}, {b!r})")
        return elems[maximal[0]]

    return FiniteLattice(elems, glb)


class RefLattice:
    """Takes the place of FiniteLattice in its ``from_leq`` classmethod."""

    def __init__(self, elements, meet):
        self.data = ref_lattice(elements, meet)


def assert_same_lattice(elements, meet):
    assert_same(outcome(ref_lattice, elements, meet), outcome(FiniteLattice, elements, meet))


def assert_same(ref, lat):
    if isinstance(ref, str):
        assert lat == ref
        return
    assert not isinstance(lat, str), lat
    m, leq, top, bottom, toporder, covers = ref
    els = lat.elements
    assert [list(row) for row in lat._meet] == m
    assert [[lat.leq(a, b) for b in els] for a in els] == leq
    assert (lat._top_idx, lat._bottom_idx) == (top, bottom)
    assert lat._toporder == toporder
    assert lat._covers_below == covers
    assert (lat.top, lat.bottom) == (els[top], els[bottom])
    for i, e in enumerate(els):
        assert lat.covers_below(e) == tuple(els[j] for j in covers[i])
    if len(els) > 32:
        return
    for i, a in enumerate(els):
        assert atom_for(lat, a).bits == ref_atom_mask(leq, toporder, i)
        for j, b in enumerate(els):
            least = ref_join(leq, i, j)
            want = els[least[0]] if len(least) == 1 else f"ValueError: no unique join for ({a!r}, {b!r})"
            assert outcome(lat.join, a, b) == want


# ---------------------------------------------------------------- lattices


class TestLatticeDifferential:
    @pytest.mark.parametrize("k", [1, 3, 9, 15, 45, 105, 225, 1155, 3465, 765765])
    def test_divisor_lattices(self, k):
        assert_same_lattice(divisors(k), math.lcm)

    def test_divisor_lattice_cache_builds_the_same(self):
        divisor_lattice.cache_clear()
        lat = divisor_lattice(3465)
        m, leq, top, bottom, toporder, covers = ref_lattice(divisors(3465), math.lcm)
        assert [list(row) for row in lat._meet] == m
        assert lat._covers_below == covers and lat._toporder == toporder

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 7))
    def test_from_leq_lattices(self, seed, n):
        # random relations: the closure may leave pairs without a unique
        # meet, which must fail the same way too
        rng = random.Random(seed)
        elements = tuple(f"e{i}" for i in range(n))
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(rng.randint(0, 2 * n))]
        pairs += [(elements[0], e) for e in elements]  # a bottom
        pairs += [(e, elements[-1]) for e in elements]  # a top
        ref = outcome(FiniteLattice.from_leq.__func__, RefLattice, elements, pairs)
        assert_same(
            ref if isinstance(ref, str) else ref.data,
            outcome(FiniteLattice.from_leq, elements, pairs),
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 12), st.booleans())
    def test_from_leq_against_the_matrix_closure(self, seed, n, bounded):
        # the same random relations, with and without a top and a bottom:
        # the same lattice, or the same error text
        rng = random.Random(seed)
        elements = tuple(f"e{i}" for i in range(n))
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(rng.randint(0, 2 * n))]
        if bounded:
            pairs += [(elements[0], e) for e in elements] + [(e, elements[-1]) for e in elements]
        ref = outcome(ref_from_leq, elements, pairs)
        lat = outcome(FiniteLattice.from_leq, elements, pairs)
        assert lat == ref
        if not isinstance(ref, str):
            assert (lat._up, lat._down, lat._covers_below) == (ref._up, ref._down, ref._covers_below)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(divisors(1155)), min_size=1, max_size=8, unique=True))
    def test_semilattice_algebra_lattices(self, gens):
        # close the generators under lcm: a meet-semilattice with a least
        # element, to which semilattice_algebra adjoins a top
        closed = set(gens)
        while True:
            more = {math.lcm(a, b) for a in closed for b in closed} - closed
            if not more:
                break
            closed |= more
        elems = tuple(sorted(closed, reverse=True))
        alg = semilattice_algebra(elems, math.lcm)
        lat = alg.lattice
        assert_same_lattice(lat.elements, lat.meet)

    def test_powerset_lattice(self):
        ground = "abcd"
        els = [frozenset(x for t, x in enumerate(ground) if b >> t & 1) for b in range(16)]
        assert_same_lattice(els, lambda a, b: a & b)


class TestLatticeErrors:
    def test_non_associative_at_a_known_triple(self):
        # rock-paper-scissors: commutative and idempotent, not associative
        table = {("a", "b"): "c", ("b", "c"): "a", ("a", "c"): "b"}
        table.update({(x, x): x for x in "abc"})
        with pytest.raises(ValueError) as exc:
            FiniteLattice(("a", "b", "c"), table)
        assert str(exc.value) == "meet not associative at ('a', 'a', 'b')"
        assert_same_lattice(("a", "b", "c"), table)

    def test_named_failures(self):
        assert_same_lattice((), min)
        assert_same_lattice((1, 1), min)
        assert_same_lattice((0, 1, 2), lambda a, b: (a + b) % 3)
        assert_same_lattice((0, 1, 2), lambda a, b: a + b)
        assert_same_lattice((0, 1), lambda a, b: a)
        assert_same_lattice((1, 2, 3), math.gcd)  # meets escape the set
        assert_same_lattice((3, 5, 15), math.lcm)  # no top

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 6), st.sampled_from(["any", "symmetric", "outside"]))
    def test_random_tables(self, seed, n, kind):
        rng = random.Random(seed)
        elements = tuple(range(n))
        table = {}
        for i in range(n):
            for j in range(i if kind == "symmetric" else 0, n):
                v = i if i == j and kind != "any" else rng.randrange(n)
                table[(i, j)] = v
                if kind == "symmetric":
                    table[(j, i)] = v
        if kind == "outside":
            table[rng.choice(list(table))] = n
        assert_same_lattice(elements, table)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31), st.integers(2, 12))
    def test_one_changed_entry_of_a_chain(self, seed, n):
        # a valid total order with one symmetric pair of entries changed:
        # fails associativity, or the top and bottom laws, or passes
        rng = random.Random(seed)
        table = {(i, j): min(i, j) for i in range(n) for j in range(n)}
        i, j = rng.sample(range(n), 2)
        table[(i, j)] = table[(j, i)] = rng.randrange(n)
        assert_same_lattice(tuple(range(n)), table)


# ---------------------------------------------------------------- cycle sums


def same_sums(got, ref):
    if isinstance(ref, str):
        assert got == ref
        return
    assert got == ref and got.items() == ref.items()
    for (i, a), (j, b) in zip(got.items(), ref.items()):
        assert i == j and a.lengths == b.lengths
        assert sys.getsizeof(a.lengths) <= sys.getsizeof(b.lengths)


class TestFromLengths:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(-3, 200), max_size=40))
    def test_random_multisets(self, lengths):
        same_sums(outcome(CycleSum.from_lengths, lengths), outcome(ref_from_lengths, lengths))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 48), max_size=60))
    def test_repeats_cancel(self, lengths):
        got = CycleSum.from_lengths(iter(lengths))
        same_sums(got, ref_from_lengths(lengths))

    def test_first_bad_length_is_named(self):
        with pytest.raises(ValueError, match="got 0$"):
            CycleSum.from_lengths([3, 0, -1])
        # a bad length is refused even when it cancels
        with pytest.raises(ValueError, match="got -2$"):
            CycleSum.from_lengths([5, -2, -2])

    def test_pool_shaped_sums_take_no_more_memory(self):
        # sums of 4, 32 and 96 distinct lengths over the divisors of 765765
        # at levels 0-4, as the benchmark pools draw them
        rng = random.Random(7)
        ds = divisors(765765)
        for t in (4, 32, 96, 480):
            for _ in range(20):
                lengths = set()
                while len(lengths) < t:
                    lengths.add(rng.choice(ds) << rng.randrange(5))
                same_sums(CycleSum.from_lengths(frozenset(lengths)), ref_from_lengths(lengths))
