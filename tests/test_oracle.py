import itertools

import pytest

from cyclechain.chains import ChainSum, Element
from cyclechain.cycles import CycleSum
from cyclechain.oracle import (
    MAX_SPACE_K,
    PAIR_CACHE_SIZE,
    ComponentMultiset,
    Digraph,
    SearchSpace,
    closed_form_product,
    component_keys,
    decompose,
    digraph_from_components,
    digraph_from_element,
    exhaustive_divide,
    mod2,
    oracle_mul,
    product,
    weak_components,
    _affine_divide,
    _pair_cc,
    _pair_lc,
    _pair_ll,
    _space_tables,
)

from cyclechain.lattice import divisor_lattice, ones

from conftest import rand_element

C = CycleSum.single


def L(*ds):
    return ChainSum(ds)


def cm(cycles=None, chains=None):
    return ComponentMultiset(cycles or {}, chains or {})


class TestProduct:
    def test_looped_tree_times_mixed(self):
        # a 4-vertex transformation (3-chain into a loop, plus a branch)
        # times a 2-cycle with a tail plus a 2-chain: 20 vertices falling
        # into one 12-vertex class, two 3-vertex and two 1-vertex classes
        A = Digraph(4, (0, 0, 1, 1))
        B = Digraph(5, (1, 0, 0, None, 3))
        AB = product(A, B)
        assert AB.n == 20
        counts = sorted(component_keys(AB).values())
        assert counts == [1, 2, 2]
        sizes = sorted(len(c) for c in weak_components(AB))
        assert sizes == [1, 1, 3, 3, 12]
        # reduced mod 2, only the 12-vertex class survives
        keys = component_keys(AB)
        odd = {k for k, v in keys.items() if v % 2}
        assert len(odd) == 1

    def test_identity_cycle(self, rng):
        for _ in range(30):
            x = rand_element(rng)
            g = digraph_from_element(x)
            pg = product(Digraph.cycle(1), g)
            assert component_keys(pg) == component_keys(g)

    def test_even_square(self):
        out = decompose(product(Digraph.cycle(2), Digraph.cycle(2)))
        assert out == cm({2: 2})

    def test_size_and_injectivity(self, rng):
        for _ in range(50):
            a = rand_element(rng)
            b = rand_element(rng)
            ga, gb = digraph_from_element(a), digraph_from_element(b)
            gp = product(ga, gb)
            assert gp.n == ga.n * gb.n
            decompose(gp)  # raises if injectivity broke


class TestDecompose:
    def test_disjoint_cycle_and_chain(self):
        g = Digraph.disjoint_union([Digraph.cycle(3), Digraph.chain(2)])
        assert decompose(g) == cm({3: 1}, {2: 1})

    def test_chain_product(self):
        out = decompose(product(Digraph.chain(2), Digraph.chain(3)))
        assert out == cm(chains={2: 2, 1: 2})

    def test_chain_times_cycle(self):
        out = decompose(product(Digraph.chain(2), Digraph.cycle(3)))
        assert out == cm(chains={2: 3})

    def test_non_injective_named(self):
        g = Digraph(3, (2, 2, None))
        with pytest.raises(ValueError) as err:
            decompose(g)
        assert "vertex 2" in str(err.value)

    def test_empty(self):
        assert decompose(Digraph.empty()) == cm()


class TestClosedForm:
    def test_even_cycles(self):
        assert closed_form_product(cm({6: 1}), cm({4: 1})) == cm({12: 2})

    def test_equal_chains(self):
        assert closed_form_product(cm(chains={3: 1}), cm(chains={3: 1})) == cm(
            chains={3: 1, 2: 2, 1: 2}
        )

    def test_chain_one_times_chain(self):
        for d in range(1, 7):
            got = closed_form_product(cm(chains={1: 1}), cm(chains={d: 1}))
            explicit = decompose(product(Digraph.chain(1), Digraph.chain(d)))
            assert got == explicit == cm(chains={1: d})

    def test_matches_explicit_products_exhaustively(self):
        singles = [("C", d) for d in range(1, 13)] + [("L", d) for d in range(1, 13)]
        for (ka, da), (kb, db) in itertools.combinations_with_replacement(singles, 2):
            a = cm({da: 1}) if ka == "C" else cm(chains={da: 1})
            b = cm({db: 1}) if kb == "C" else cm(chains={db: 1})
            got = closed_form_product(a, b)
            explicit = decompose(
                product(digraph_from_components(a), digraph_from_components(b))
            )
            assert got == explicit, (ka, da, kb, db)

    def test_multiplicities_multiply(self):
        got = closed_form_product(cm({2: 2}), cm({2: 3}))
        assert got == cm({2: 12})


class TestMod2:
    def test_even_multiplicity_drops(self):
        assert mod2(cm({2: 2})) == Element.zero()

    def test_odd_multiplicity_stays(self):
        assert mod2(cm(chains={2: 3})) == Element(chains=L(2))

    def test_mixed(self):
        got = mod2(cm({12: 2, 3: 1}, {2: 3, 1: 2}))
        assert got == Element(chains=L(2), cycles=C(3))

    def test_oracle_mul_matches_library(self, rng):
        for _ in range(300):
            a = rand_element(rng)
            b = rand_element(rng)
            assert oracle_mul(a, b) == a * b


class TestExhaustiveDivide:
    def test_identity(self):
        space = SearchSpace(k=3, max_level=0)
        got = exhaustive_divide(Element.one(), Element.from_cycles(C(3)), space)
        assert got == frozenset({Element.from_cycles(C(3))})

    def test_all_solutions_verified(self, rng):
        space = SearchSpace(k=15, max_level=1, max_chain=3)
        for _ in range(20):
            a = rand_element(rng, parts=(1, 3, 5, 15), levels=1, max_chain=3)
            b = rand_element(rng, parts=(1, 3, 5, 15), levels=1, max_chain=3)
            for x in exhaustive_divide(a, b, space):
                assert a * x == b

    def test_finds_constructed_solutions(self, rng):
        space = SearchSpace(k=15, max_level=1, max_chain=3)
        for _ in range(40):
            a = rand_element(rng, parts=(1, 3, 5, 15), levels=1, max_chain=3)
            x = rand_element(rng, parts=(1, 3, 5, 15), levels=1, max_chain=3)
            b = a * x
            assert x in exhaustive_divide(a, b, space)

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            exhaustive_divide(
                Element.one(), Element.one(), SearchSpace(k=1, max_level=30)
            )

    def test_window_modulus_bounded_before_factoring(self):
        # 10^22 + 1 = 89 * 101 * 1052788969 * 1056689261; trial division
        # would run for minutes
        with pytest.raises(ValueError, match="exceeds the limit"):
            SearchSpace(k=10**22 + 1).generator_count()
        assert SearchSpace(k=MAX_SPACE_K - 1).generator_count() == 256

    def test_divisor_outside_window(self):
        space = SearchSpace(k=3, max_level=0)
        with pytest.raises(ValueError):
            exhaustive_divide(
                Element.from_cycles(C(7)), Element.one(), space
            )

    def test_target_outside_window_is_empty(self):
        space = SearchSpace(k=3, max_level=0)
        got = exhaustive_divide(
            Element.from_cycles(C(3)), Element.from_cycles(C(7)), space
        )
        assert got == frozenset()


def scan_divide(a, b, space):
    """Every candidate of the window tested: the packed-lane scan that
    ``exhaustive_divide`` ran before it solved by elimination.

    Every product of a generator with a candidate is a bitmask over the
    generators.  The 2**n masks for one generator are packed into a single
    wide integer, one fixed-width lane per candidate, so a divisor's row is
    one XOR of its generators' rows; one lane slice tests a candidate.
    """
    tables = _space_tables(space)
    n = len(tables.gens)
    a_mask, b_mask = tables.mask(a), tables.mask(b)
    if a_mask is None:
        raise ValueError("divisor has a component outside the window")
    if b_mask is None:
        return frozenset()
    lane = ((n + 7) // 8) * 8 if n else 8
    acc = 0
    for t in ones(a_mask):
        g = tables.element_of(1 << t)
        # the lanes of the candidates with bit u set are those without it,
        # each XOR the product with generator u: one doubling step per bit
        packed = 0
        for u in range(n):
            v = tables.mask(oracle_mul(g, tables.element_of(1 << u)))
            width = lane << u
            ones_per_lane = ((1 << width) - 1) // ((1 << lane) - 1)
            packed |= (packed ^ v * ones_per_lane) << width
        acc ^= packed
    width = lane // 8
    packed = acc.to_bytes((1 << n) * width, "little")
    want = b_mask.to_bytes(width, "little")
    return frozenset(
        tables.element_of(x_mask)
        for x_mask in range(1 << n)
        if packed[x_mask * width : (x_mask + 1) * width] == want
    )


def rank(vectors):
    """The dimension over F2 of the span of these int bit vectors."""
    basis = {}
    for v in vectors:
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


def random_mask(rng, n, density):
    return sum(1 << t for t in range(n) if rng.random() < density)


class TestElimination:
    def test_equals_the_scan_on_random_windows(self, rng):
        ks = [k for k in range(1, 400, 2) if len(divisor_lattice(k).elements) <= 8]
        checked = 0
        while checked < 40:
            space = SearchSpace(k=rng.choice(ks), max_level=rng.randint(0, 2), max_chain=rng.randint(1, 8))
            n = space.generator_count()
            if not 10 <= n <= 20:
                continue
            tables = _space_tables(space)
            a = tables.element_of(random_mask(rng, n, 0.25))
            x = tables.element_of(random_mask(rng, n, 0.5))
            # a multiple of a, then any element, likely outside a's image,
            # then one with a component outside the window
            for b in (oracle_mul(a, x), tables.element_of(random_mask(rng, n, 0.3)), Element(chains=L(9))):
                assert exhaustive_divide(a, b, space) == scan_divide(a, b, space)
            checked += 1

    @pytest.mark.parametrize(
        "space",
        [SearchSpace(k=15015, max_level=2, max_chain=10), SearchSpace(k=1, max_chain=60)],
        ids=["15015-levels-0-2-chains-10", "chains-60"],
    )
    def test_beyond_the_scan(self, rng, space):
        tables = _space_tables(space)
        n = len(tables.gens)
        chains = [t for t, g in enumerate(tables.gens) if g[0] == "L"]
        for _ in range(3):
            a_mask = random_mask(rng, n, 8 / n)
            if space.k == 1:
                a_mask = sum(1 << t for t in chains if rng.random() < 0.3)
            a = tables.element_of(a_mask)
            x = random_mask(rng, n, 0.5)
            b = oracle_mul(a, tables.element_of(x))
            x0, kernel = _affine_divide(a, b, space)
            assert oracle_mul(a, tables.element_of(x0)) == b
            # independent, and as many as rank-nullity asks for
            columns = [tables.mask(oracle_mul(a, tables.element_of(1 << u))) for u in range(n)]
            assert rank(kernel) == len(kernel) == n - rank(columns)
            assert rank([*kernel, x ^ x0]) == len(kernel)
            for z in kernel:
                assert oracle_mul(a, tables.element_of(z)) == Element.zero()


def test_caches_are_bounded():
    for cached in (_pair_cc, _pair_lc, _pair_ll, divisor_lattice):
        assert cached.cache_info().maxsize is not None
    assert PAIR_CACHE_SIZE < 10**5 and divisor_lattice.cache_info().maxsize <= 64
