"""Randomized consistency suite behind the ``selftest`` CLI command."""

from __future__ import annotations

import random
from typing import Callable

from . import division, oracle, poly, structure
from .chains import ChainSum, Element, divide_full, element_product_rule
from .cycles import CycleSum, cycle_product_rule
from .formal import check_axioms


def random_cycles(rng: random.Random, parts=(1, 3, 5, 15), levels=2, terms=3) -> CycleSum:
    lengths = []
    for _ in range(rng.randint(0, terms)):
        lengths.append(rng.choice(parts) << rng.randint(0, levels))
    return CycleSum.from_lengths(lengths)


def random_element(rng: random.Random) -> Element:
    chains = ChainSum(
        rng.choice((1, 2, 3, 4)) for _ in range(rng.randint(0, 2))
    )
    return Element(chains=chains, cycles=random_cycles(rng))


def _suite_axioms(rng: random.Random) -> bool:
    gens_c = [("C", n) for n in range(1, 7)]
    gens_m = [(g, n) for g in "CL" for n in range(1, 4)]
    return bool(check_axioms(cycle_product_rule(), gens_c)) and bool(
        check_axioms(element_product_rule(), gens_m)
    )


def _suite_oracle_products(rng: random.Random) -> bool:
    for _ in range(50):
        a = random_element(rng)
        b = random_element(rng)
        want = oracle.mod2(
            oracle.decompose(
                oracle.product(
                    oracle.digraph_from_element(a), oracle.digraph_from_element(b)
                )
            )
        )
        if a * b != want:
            return False
    return True


def _suite_division(rng: random.Random) -> bool:
    for _ in range(200):
        a = random_cycles(rng)
        x = random_cycles(rng)
        b = a * x
        sol = division.solve(a, b)
        if not sol.solvable or not division.membership(sol, x):
            return False
        if a * division.min_solution(sol) != b:
            return False
    return True


def _suite_combined_division(rng: random.Random) -> bool:
    for _ in range(100):
        a = random_element(rng)
        x = random_element(rng)
        b = a * x
        if not divide_full(a, b).contains(x):
            return False
    return True


def _suite_classification(rng: random.Random) -> bool:
    for _ in range(200):
        x = random_cycles(rng)
        c = structure.classify(x)
        if c.is_regular != (x * x * x == x):
            return False
        if c.is_coregular != structure.is_regular(x + CycleSum.one()):
            return False
        rep = c.coregular_rep
        if not structure.is_coregular(rep):
            return False
        if not structure.green(x, rep, "R"):
            return False
    return True


def _suite_poly(rng: random.Random) -> bool:
    for _ in range(100):
        p = poly.CubicPoly(
            a=random_cycles(rng).even_part,
            b=random_cycles(rng).even_part,
            c=random_cycles(rng).even_part + CycleSum.one(),
            d=random_cycles(rng),
        )
        s = random_cycles(rng)
        x = poly.solve_bijective(p, s)
        if poly.eval_poly(p, x) != s:
            return False
    return True


SUITES: tuple[tuple[str, Callable[[random.Random], bool]], ...] = (
    ("semiring axioms", _suite_axioms),
    ("products against the digraph oracle", _suite_oracle_products),
    ("division solver", _suite_division),
    ("combined division", _suite_combined_division),
    ("classification", _suite_classification),
    ("bijective polynomials", _suite_poly),
)


def run_selftest(seed: int = 20240801) -> bool:
    ok = True
    for name, suite in SUITES:
        passed = suite(random.Random(seed))
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return ok
