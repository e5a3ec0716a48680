import random

import pytest

from cyclechain.chains import ChainSum, Element
from cyclechain.cycles import CycleSum


def rand_cycles(rng, parts=(1, 3, 5, 15), levels=2, terms=3):
    lengths = []
    for _ in range(rng.randint(0, terms)):
        lengths.append(rng.choice(parts) << rng.randint(0, levels))
    return CycleSum.from_lengths(lengths)


def rand_unit(rng, parts=(1, 3, 5, 15), levels=3, terms=3):
    lengths = [1]
    for _ in range(rng.randint(0, terms)):
        lengths.append(rng.choice(parts) << rng.randint(1, levels))
    return CycleSum.from_lengths(lengths)


def rand_chains(rng, max_len=6, terms=3):
    return ChainSum(rng.randint(1, max_len) for _ in range(rng.randint(0, terms)))


def rand_element(rng, parts=(1, 3, 5, 15), levels=2, cycle_terms=3, max_chain=6, chain_terms=2):
    return Element(
        chains=rand_chains(rng, max_chain, chain_terms),
        cycles=rand_cycles(rng, parts, levels, cycle_terms),
    )


def assert_canonical(x: CycleSum) -> None:
    """x is held as the checked constructor holds it: a tuple of (level,
    lengths) pairs, levels strictly ascending, no empty level, and at
    level i a tuple of strictly ascending raw lengths, each of dyadic
    valuation exactly i; and it equals and hashes like its own lengths
    built anew."""
    assert type(x._levels) is tuple
    levels = [i for i, _ in x._levels]
    assert levels == sorted(set(levels)) and all(i >= 0 for i in levels)
    for pair in x._levels:
        assert type(pair) is tuple and len(pair) == 2
        i, ls = pair
        assert type(ls) is tuple and ls and list(ls) == sorted(set(ls))
        assert all(type(q) is int and q > 0 and (q & -q) == 1 << i for q in ls)
    rebuilt = CycleSum.from_lengths(x.lengths())
    assert x == rebuilt and hash(x) == hash(rebuilt)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


class KeepsNothing(dict):
    """A stand-in for ``lattice._LAYOUTS`` that keeps no layout, so each
    ``division.layout`` call has to build one: even the layout a window
    keeps for its k is dropped."""

    def __setitem__(self, k, bits):
        pass
