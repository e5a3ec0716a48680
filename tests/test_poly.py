import random
from collections import Counter

import pytest

from cyclechain import division, lattice, oracle
from cyclechain.chains import Element
from cyclechain.cycles import CycleSum, ODD_ONE, ODD_ZERO
from cyclechain.division import ODD_COORDS
from cyclechain.lattice import DivisorBits, divisors
from cyclechain.poly import (
    CubicPoly,
    degenerate_witness,
    eval_poly,
    is_bijective,
    is_reachable,
    reduce_poly,
    solve_bijective,
)

from conftest import KeepsNothing, rand_cycles
from set_reference import collision_pair_sets, is_reachable_sets, unreached_target_sets
from test_lazy_enumeration import ref_is_reachable, scan_is_reachable

C = CycleSum.single
Z = CycleSum.zero()
ONE = CycleSum.one()


def cubic(a=Z, b=Z, c=Z, d=Z):
    return CubicPoly(a=a, b=b, c=c, d=d)


def rand_bijective(rng):
    return CubicPoly(
        a=rand_cycles(rng).even_part,
        b=rand_cycles(rng).even_part,
        c=rand_cycles(rng).even_part + ONE,
        d=rand_cycles(rng),
    )


def rand_degenerate(rng):
    while True:
        p = CubicPoly(
            a=rand_cycles(rng),
            b=rand_cycles(rng),
            c=rand_cycles(rng),
            d=rand_cycles(rng),
        )
        if not is_bijective(p):
            return p


def naive_eval(coeffs, x):
    out = CycleSum.zero()
    power = CycleSum.one()
    for c in coeffs:
        out = out + c * power
        power = power * x
    return out


class TestReduce:
    def test_power_five_cancels_cube(self):
        coeffs = [Z, Z, Z, ONE, Z, ONE]  # x^3 + x^5
        p = reduce_poly(coeffs)
        assert p == cubic()

    def test_fourth_power_folds_to_square(self):
        p = reduce_poly([Z, Z, Z, Z, ONE])
        assert p == cubic(b=ONE)

    def test_constant(self):
        p = reduce_poly([C(5)])
        assert p == cubic(d=C(5))

    def test_eval_equivalence(self, rng):
        for _ in range(200):
            coeffs = [rand_cycles(rng) for _ in range(rng.randint(1, 9))]
            p = reduce_poly(coeffs)
            x = rand_cycles(rng)
            assert eval_poly(p, x) == naive_eval(coeffs, x)


class TestEval:
    def test_identity_polynomial(self):
        p = cubic(c=ONE)
        assert eval_poly(p, C(7)) == C(7)

    def test_affine(self):
        p = cubic(c=ONE, d=C(5))
        assert eval_poly(p, C(3)) == C(3) + C(5)

    def test_matches_oracle_products(self, rng):
        for _ in range(100):
            p = cubic(
                a=rand_cycles(rng, parts=(1, 3, 5), levels=1),
                b=rand_cycles(rng, parts=(1, 3, 5), levels=1),
                c=rand_cycles(rng, parts=(1, 3, 5), levels=1),
                d=rand_cycles(rng, parts=(1, 3, 5), levels=1),
            )
            x = rand_cycles(rng, parts=(1, 3, 5), levels=1)
            want = Element.zero()
            for e, coeff in enumerate((p.d, p.c, p.b, p.a)):
                term = Element.from_cycles(coeff)
                for _ in range(e):
                    term = oracle.oracle_mul(term, Element.from_cycles(x))
                want = want + term
            assert Element.from_cycles(eval_poly(p, x)) == want


class TestBijectivity:
    def test_identity(self):
        assert is_bijective(cubic(c=ONE))

    def test_square_is_degenerate(self):
        assert not is_bijective(cubic(b=ONE))

    def test_even_perturbations_keep_bijectivity(self):
        p = cubic(a=C(2), b=C(6), c=ONE + C(4), d=C(5))
        assert is_bijective(p)

    def test_builds_no_level_view(self, rng, monkeypatch):
        ps = [rand_bijective(rng) for _ in range(50)] + [rand_degenerate(rng) for _ in range(200)]
        ps += [cubic(c=ONE + C(3)), cubic(a=C(3), c=ONE), cubic(b=C(1), c=ONE)]
        want = [not p.a.odd_part and not p.b.odd_part and p.c.odd_part == ODD_ONE for p in ps]
        assert want[:50] == [True] * 50 and not any(want[50:])

        def no_view(self, i):
            raise AssertionError("is_bijective built an OddSet view")

        monkeypatch.setattr(CycleSum, "level", no_view)
        assert [is_bijective(p) for p in ps] == want


class TestSolveBijective:
    def test_identity(self, rng):
        p = cubic(c=ONE)
        for _ in range(20):
            s = rand_cycles(rng)
            assert solve_bijective(p, s) == s

    def test_roundtrip(self, rng):
        for _ in range(500):
            p = rand_bijective(rng)
            s = rand_cycles(rng)
            x = solve_bijective(p, s)
            assert eval_poly(p, x) == s

    def test_injective_roundtrip(self, rng):
        for _ in range(500):
            p = rand_bijective(rng)
            x = rand_cycles(rng)
            assert solve_bijective(p, eval_poly(p, x)) == x

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            solve_bijective(cubic(b=ONE), Z)


class TestDegenerateWitness:
    def test_square(self):
        w = degenerate_witness(cubic(b=ONE))
        assert w.collision == (Z, C(2))
        assert isinstance(w.unreached, CycleSum)

    def test_odd_scaling(self):
        w = degenerate_witness(cubic(c=C(3)))
        x, y = w.collision
        assert {x, y} == {Z, C(2) + C(6)}

    def test_x_plus_x_squared(self):
        w = degenerate_witness(cubic(b=ONE, c=ONE))
        assert w.collision == (Z, ONE)
        assert eval_poly(cubic(b=ONE, c=ONE), Z) == eval_poly(
            cubic(b=ONE, c=ONE), ONE
        )

    def test_bijective_rejected(self):
        with pytest.raises(ValueError):
            degenerate_witness(cubic(c=ONE))

    def test_always_produces_verified_evidence(self, rng):
        for _ in range(500):
            p = rand_degenerate(rng)
            w = degenerate_witness(p)
            x, y = w.collision
            assert x != y
            assert eval_poly(p, x) == eval_poly(p, y)
            # every degenerate cubic has a target, with its reason
            assert isinstance(w.unreached, CycleSum) and w.unreached_reason
            assert not is_reachable(p, w.unreached)


class TestReachability:
    def test_bijective_reaches_samples(self, rng):
        for _ in range(100):
            p = rand_bijective(rng)
            s = rand_cycles(rng)
            assert is_reachable(p, s)

    def test_image_points_are_reachable(self, rng):
        for _ in range(200):
            p = rand_degenerate(rng)
            x = rand_cycles(rng)
            assert is_reachable(p, eval_poly(p, x))

    def test_square_misses_single_even_cycle(self):
        assert not is_reachable(cubic(b=ONE), C(2))

    def test_matches_window_image_exhaustively(self, rng):
        # with coefficients and targets confined to odd parts dividing 15
        # and levels <= 1, restriction loses no solutions, so reachability
        # equals membership of the window's image
        pool = [q << i for q in (1, 3, 5, 15) for i in (0, 1)]
        window = []
        for bits in range(1 << len(pool)):
            window.append(
                CycleSum.from_lengths(
                    [pool[t] for t in range(len(pool)) if bits >> t & 1]
                )
            )
        for _ in range(20):
            p = cubic(
                a=rand_cycles(rng, parts=(1, 3, 5, 15), levels=1),
                b=rand_cycles(rng, parts=(1, 3, 5, 15), levels=1),
                c=rand_cycles(rng, parts=(1, 3, 5, 15), levels=1),
                d=rand_cycles(rng, parts=(1, 3, 5, 15), levels=1),
            )
            image = {eval_poly(p, x) for x in window}
            for s in rng.sample(window, 40):
                assert is_reachable(p, s) == (s in image), (p, str(s))


def rand_branch_cubic(rng, parts):
    """A random cubic over odd parts ``parts``, shaped to reach every branch
    of the witness: the combined odd part e of a + b + c left random, or
    forced to C1 (the second reason), with a0 = b0 (the third), or with
    (a0, c0) = (0, C1) (the second collision pair, or a bijective cubic)."""
    a, b, c, d = (rand_cycles(rng, parts, 3, rng.choice((1, 3, 6))) for _ in range(4))
    shape = rng.randrange(4)
    if shape == 1:
        c = c.even_part + (a.odd_part + b.odd_part + ODD_ONE).as_cycles()
    elif shape == 2:
        b = b.even_part + a.odd_part.as_cycles()
        c = c.even_part + ONE
    elif shape == 3:
        a, c = a.even_part, c.even_part + ONE
    return CubicPoly(a=a, b=b, c=c, d=d)


class TestCoordinatesEqualTheSetReference:
    """``is_reachable`` and ``degenerate_witness`` run on the level
    coordinates of one ``division.layout``.  The OddSet bodies of
    ``set_reference`` are their reference, value for value, reason texts
    included; on small moduli the scans of ``test_lazy_enumeration`` are a
    second one.  Each cubic runs in masks and, with every layout refused,
    in ``ODD_COORDS``."""

    MODULI = (15, 45, 243, 3465, 765765)
    SCANNED = (15, 45, 243)  # at most 6 free atoms: scans of 64 members

    @pytest.mark.parametrize("refused", [False, True], ids=["DivisorBits", "ODD_COORDS"])
    def test_answers_equal_the_reference(self, refused, monkeypatch):
        if refused:
            # no layout kept, and none built
            monkeypatch.setattr(lattice, "_LAYOUTS", KeepsNothing())
            monkeypatch.setattr(division, "coprime_bits", lambda k, lengths: None)
        rng = random.Random(0x5EED)
        seen = Counter()
        for t in range(600):
            k = self.MODULI[t % len(self.MODULI)]
            parts = divisors(k)
            p = rand_branch_cubic(rng, parts)
            bits = division.layout(*p.coefficients())[0]
            assert bits is ODD_COORDS or not refused
            seen["masks"] += isinstance(bits, DivisorBits)
            targets = [rand_cycles(rng, parts, 3, 4), eval_poly(p, rand_cycles(rng, parts, 3, 4))]
            if not is_bijective(p):
                w = degenerate_witness(p)
                assert w.collision == collision_pair_sets(p)
                assert (w.unreached, w.unreached_reason) == unreached_target_sets(p)
                targets.append(w.unreached)
                seen[w.unreached_reason[:24]] += 1
                drift_pair = (p.a.odd_part, p.c.odd_part) == (ODD_ZERO, ODD_ONE)
                seen["drift pair" if drift_pair else "odd-part pair"] += 1
            for s in targets:
                got = is_reachable(p, s)
                assert got == is_reachable_sets(p, s), (str(p), str(s))
                if k in self.SCANNED:
                    assert got == ref_is_reachable(p, s) == scan_is_reachable(p, s), (str(p), str(s))
                seen[got] += 1
        # unpatched, only size refuses a layout, and these fit
        masks = seen.pop("masks")
        assert masks == (0 if refused else 600), seen
        assert len(seen) == 7 and min(seen.values()) >= 20, seen
