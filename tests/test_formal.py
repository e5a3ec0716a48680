import pytest

from cyclechain import oracle
from cyclechain.chains import ChainSum, Element, element_product_rule
from cyclechain.cycles import CycleSum, cycle_product_rule
from cyclechain.formal import (
    FormalSum,
    ProductRule,
    UndefinedProductError,
    add,
    check_axioms,
    mul,
)


# ------------------------------------------- formal sums of the package's types


def rule_from_table(table, identity=None) -> ProductRule:
    """Build a rule from an explicit table, symmetrised over pair order."""

    def pair(g, h) -> FormalSum:
        if (g, h) in table:
            out = table[(g, h)]
        elif (h, g) in table:
            out = table[(h, g)]
        else:
            raise UndefinedProductError((g, h))
        return out if isinstance(out, FormalSum) else FormalSum(out)

    return ProductRule(pair_product=pair, identity=identity)


def cycle_sum_to_formal(x: CycleSum) -> FormalSum:
    return FormalSum(("C", q) for q in x.lengths())


def formal_to_cycle_sum(s: FormalSum) -> CycleSum:
    lengths = []
    for kind, q in s.support:
        if kind != "C":
            raise ValueError(f"not a cycle generator: {(kind, q)}")
        lengths.append(q)
    return CycleSum.from_lengths(lengths)


def element_to_formal(x: Element) -> FormalSum:
    gens = [("C", q) for q in x.cycles.lengths()]
    gens.extend(("L", d) for d in x.chains.lengths)
    return FormalSum(gens)


def formal_to_element(s: FormalSum) -> Element:
    cycles = []
    chains = []
    for kind, n in s.support:
        if kind == "C":
            cycles.append(n)
        elif kind == "L":
            chains.append(n)
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
    return Element(chains=ChainSum(chains), cycles=CycleSum.from_lengths(cycles))


def fs(*gens):
    return FormalSum(gens)


CG = lambda n: ("C", n)
LG = lambda n: ("L", n)


class TestAdd:
    def test_characteristic_two(self):
        assert add(fs(CG(3)), fs(CG(3))) == fs()

    def test_symmetric_difference(self):
        assert add(fs(CG(3), CG(5)), fs(CG(5), CG(8))) == fs(CG(3), CG(8))

    def test_identity(self):
        assert add(fs(), fs(LG(2))) == fs(LG(2))


class TestMul:
    def test_even_cycle_squares_to_zero(self):
        assert mul(fs(CG(2)), fs(CG(2)), cycle_product_rule()) == fs()

    def test_identity_generator(self):
        assert mul(fs(CG(1)), fs(CG(3), CG(8)), cycle_product_rule()) == fs(
            CG(3), CG(8)
        )

    def test_cancelling_pair(self):
        # (C3 + C5) * C15 = C15 + C15 = 0; the oracle confirms on digraphs
        got = mul(fs(CG(3), CG(5)), fs(CG(15)), cycle_product_rule())
        assert got == fs()
        explicit = oracle.mod2(
            oracle.decompose(
                oracle.product(
                    oracle.Digraph.disjoint_union(
                        [oracle.Digraph.cycle(3), oracle.Digraph.cycle(5)]
                    ),
                    oracle.Digraph.cycle(15),
                )
            )
        )
        assert not explicit

    def test_undefined_pair_is_named(self):
        rule = rule_from_table({(1, 1): fs(1)})
        with pytest.raises(UndefinedProductError) as err:
            mul(fs(1), fs(2), rule)
        assert err.value.pair == (1, 2)


class TestCheckAxioms:
    def test_cycle_rule_passes(self):
        report = check_axioms(cycle_product_rule(), [CG(n) for n in range(1, 7)])
        assert report.ok

    def test_non_commutative_rule_rejected(self):
        rule = ProductRule(pair_product=lambda g, h: fs(g))
        report = check_axioms(rule, ["a", "b"])
        assert not report.ok
        assert report.condition == "commutativity"
        assert set(report.witness) == {"a", "b"}

    def test_mixed_rule_passes(self):
        gens = [CG(n) for n in range(1, 4)] + [LG(n) for n in range(1, 4)]
        report = check_axioms(element_product_rule(), gens)
        assert report.ok

    def test_bad_identity_reported(self):
        rule = ProductRule(pair_product=lambda g, h: fs(min(g, h)), identity=1)
        report = check_axioms(rule, [1, 2])
        assert not report.ok
        assert report.condition == "identity"

    def test_corrupted_table_names_triple(self):
        good = cycle_product_rule()
        gens = [CG(n) for n in range(1, 5)]

        def corrupted(g, h):
            if {g, h} == {CG(2), CG(3)}:
                return fs(CG(5))  # should be C6
            return good(g, h)

        report = check_axioms(ProductRule(pair_product=corrupted, identity=CG(1)), gens)
        assert not report.ok
        assert report.condition == "associativity"
        assert len(report.witness) == 3


class TestGroupAndBilinearity:
    def test_addition_group_of_exponent_two(self, rng):
        universe = [CG(n) for n in range(1, 11)] + [LG(n) for n in range(1, 7)]
        for _ in range(300):
            s = fs(*rng.sample(universe, rng.randint(0, 4)))
            t = fs(*rng.sample(universe, rng.randint(0, 4)))
            u = fs(*rng.sample(universe, rng.randint(0, 4)))
            assert s + s == fs()
            assert s + fs() == s
            assert (s + t) + u == s + (t + u)
            assert s + t == t + s

    def test_mul_distributes(self, rng):
        rule = element_product_rule()
        universe = [CG(n) for n in range(1, 9)] + [LG(n) for n in range(1, 5)]
        for _ in range(200):
            s = fs(*rng.sample(universe, rng.randint(0, 3)))
            t = fs(*rng.sample(universe, rng.randint(0, 3)))
            u = fs(*rng.sample(universe, rng.randint(0, 3)))
            assert mul(s, t + u, rule) == mul(s, t, rule) + mul(s, u, rule)

    def test_cycle_rule_matches_oracle(self, rng):
        rule = cycle_product_rule()
        for _ in range(150):
            xq = rng.sample(range(1, 11), rng.randint(0, 3))
            yq = rng.sample(range(1, 11), rng.randint(0, 3))
            s = fs(*[CG(q) for q in xq])
            t = fs(*[CG(q) for q in yq])
            got = formal_to_cycle_sum(mul(s, t, rule))
            gx = oracle.Digraph.disjoint_union([oracle.Digraph.cycle(q) for q in xq])
            gy = oracle.Digraph.disjoint_union([oracle.Digraph.cycle(q) for q in yq])
            want = oracle.mod2(oracle.decompose(oracle.product(gx, gy)))
            assert got == want.cycles and not want.chains

    def test_cycle_rule_matches_oracle_exhaustively(self):
        import itertools

        rule = cycle_product_rule()
        supports = [
            c for r in range(4) for c in itertools.combinations(range(1, 11), r)
        ]
        assert len(supports) == 176
        for xq in supports:
            s = fs(*[CG(q) for q in xq])
            sx = Element.from_cycles(formal_to_cycle_sum(s))
            for yq in supports:
                t = fs(*[CG(q) for q in yq])
                got = formal_to_cycle_sum(mul(s, t, rule))
                want = oracle.oracle_mul(
                    sx, Element.from_cycles(formal_to_cycle_sum(t))
                )
                assert got == want.cycles and not want.chains


class TestConversions:
    def test_cycle_roundtrip(self, rng):
        from conftest import rand_cycles

        for _ in range(100):
            x = rand_cycles(rng)
            assert formal_to_cycle_sum(cycle_sum_to_formal(x)) == x

    def test_element_roundtrip(self, rng):
        from conftest import rand_element

        for _ in range(100):
            x = rand_element(rng)
            assert formal_to_element(element_to_formal(x)) == x

    def test_formal_mul_agrees_with_cycle_ring(self, rng):
        from conftest import rand_cycles

        rule = cycle_product_rule()
        for _ in range(200):
            x = rand_cycles(rng, parts=(1, 3, 5, 7), levels=2)
            y = rand_cycles(rng, parts=(1, 3, 5, 7), levels=2)
            via_formal = formal_to_cycle_sum(
                mul(cycle_sum_to_formal(x), cycle_sum_to_formal(y), rule)
            )
            assert via_formal == x * y
