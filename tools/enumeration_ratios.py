"""Library times of the enumerators and of powers at a small and a large size,
and their ratios.

    python3 tools/enumeration_ratios.py [SRC]

The first solution of one cycle equation, ``(C3 + C5 + C6) * x = b`` with
``b = (C3 + C5 + C6) * (C1 + C10)``, levels up to 2, is timed in windows
whose k is a product of the first odd primes: 4, 32, 256 and 1,024
divisors.  Each window's layout is built by one untimed call first.  Then
200 solutions of ``L_h + C3 + C5`` divided by itself at k = 15 are timed
at chain heights h = 1,001, 100,001 and 999,999.  Last, ``x**e`` is timed
for e = 2, 16 and 128 on one seeded sum of 96 distinct cycles, each a
divisor of 765,765 times 2**i for a level i of 0 to 4.  Each time is the
best of 5 calls, each call a solve or a division and its listing, or a
power, from scratch.  A ratio is each time over the first of its group, so
the last group's shows how the cost of a power grows with its exponent.

SRC is the ``src/`` directory to import ``cyclechain`` from, by default
this repository's.  Nothing is written.  Stdlib only, and not a test:
pytest does not collect it.
"""

from __future__ import annotations

import math
import random
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter_ns

sys.dont_write_bytecode = True  # importing the package leaves no __pycache__ behind

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
PRIME_COUNTS = (2, 5, 8, 10)  # windows of 4, 32, 256 and 1,024 divisors
HEIGHTS = (1_001, 100_001, 999_999)
CHAIN_SOLUTIONS = 200
POWER_K, POWER_TERMS, POWER_LEVELS, POWER_SEED = 765_765, 96, 5, 1
EXPONENTS = (2, 16, 128)
REPEATS = 5


def best_ms(fn) -> float:
    """The fastest of ``REPEATS`` calls of fn, in ms."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        fn()
        best = min(best, perf_counter_ns() - t0)
    return best / 1e6


def report(title: str, rows: list[tuple[str, float]]) -> None:
    print(title)
    for label, ms in rows:
        print(f"  {label:<22} {ms:10.3f} ms   ratio {ms / rows[0][1]:6.2f}")


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    if not (src / "cyclechain" / "__init__.py").is_file():
        print(f"error: {src} holds no cyclechain package", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    from cyclechain.chains import ChainSum, Element, divide_full_restricted
    from cyclechain.cycles import CycleSum
    from cyclechain.division import enumerate_restricted, solve
    from cyclechain.lattice import divisors

    a = CycleSum.from_lengths([3, 5, 6])
    b = a * CycleSum.from_lengths([1, 10])
    rows = []
    for m in PRIME_COUNTS:
        k = math.prod(ODD_PRIMES[:m])

        def first(k=k):
            return next(enumerate_restricted(solve(a, b), k, 2))

        first()  # builds the window layout of k
        rows.append((f"{2 ** m:,} divisors", best_ms(first)))
    report("first solution, one cycle equation, levels <= 2:", rows)

    rows = []
    for h in HEIGHTS:
        x = Element(chains=ChainSum([h]), cycles=CycleSum.from_lengths([3, 5]))

        def listing(x=x):
            got = list(islice(divide_full_restricted(x, x, 15), CHAIN_SOLUTIONS))
            assert len(got) == CHAIN_SOLUTIONS

        rows.append((f"h = {h:,}", best_ms(listing)))
    report(f"{CHAIN_SOLUTIONS} chain solutions of L_h + C3 + C5 over itself, k = 15:", rows)

    pairs = [(d, i) for i in range(POWER_LEVELS) for d in divisors(POWER_K)]
    terms = random.Random(POWER_SEED).sample(pairs, POWER_TERMS)
    x = CycleSum.from_lengths(d << i for d, i in terms)
    rows = [(f"e = {e}", best_ms(lambda e=e: x**e)) for e in EXPONENTS]
    report(
        f"x**e, x a sum of {POWER_TERMS} cycles over the divisors of {POWER_K:,},"
        f" levels 0-{POWER_LEVELS - 1}:",
        rows,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
